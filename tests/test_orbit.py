import math

import numpy as np
import pytest

from hamorbit import (
    BlowupError,
    DomainError,
    LoopPath,
    NonpositiveActionError,
    PotentialModel,
    ProblemSpec,
    SolveOptions,
    circle_loop,
    closure_gap,
    dirichlet_energy,
    integrate,
    minimize_on_nehari,
    orbit_period,
    parse_potential,
    scaling_root,
    speed,
    synthesize,
    verify_orbit,
)
from hamorbit import orbit
from hamorbit.loopspace import MIN_NODES, NONCONSTANT_SPEED
from hamorbit.orbit import orbit_residuals
from conftest import count_calls, mode_one_loop


def residuals(orb):
    """The four residual fields of an OrbitResult, which as a whole holds an
    array and so does not compare with ==."""
    return orb.ode_sup, orb.energy_sup, orb.closure, orb.closure_err


def exact_harmonic_samples(N):
    t = 2 * np.pi * np.arange(N) / N
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def test_period_harmonic_circle(harmonic_spec):
    T = orbit_period(circle_loop(256, 2), harmonic_spec)
    assert abs(T - 2 * math.pi) / (2 * math.pi) < 1e-3


def test_period_quartic_circle(quartic_spec):
    T = orbit_period(circle_loop(256, 2), quartic_spec)
    assert abs(T - 2 * math.pi) / (2 * math.pi) < 1e-3


def test_period_requires_positive_factors(harmonic_spec):
    with pytest.raises(NonpositiveActionError):
        orbit_period(LoopPath(np.tile([0.3, 0.1], (16, 1))), harmonic_spec)
    # mean energy gap negative: big loop at small h
    big = LoopPath(3.0 * circle_loop(64, 2).nodes)
    with pytest.raises(NonpositiveActionError):
        orbit_period(big, harmonic_spec)


def test_period_self_consistency(harmonic_spec):
    u = LoopPath(0.7 * circle_loop(64, 2).nodes + 0.1)
    T = orbit_period(u, harmonic_spec)
    A = dirichlet_energy(u)
    B = integrate(harmonic_spec.h - harmonic_spec.potential.value(u.nodes))
    assert A / T**2 == pytest.approx(B, rel=1e-12)


def test_synthesize_harmonic(harmonic_spec):
    orb = synthesize(circle_loop(256, 2), harmonic_spec)
    assert orb.ode_sup <= 1e-3
    assert orb.energy_sup <= 1e-3
    assert orb.closure <= 1e-3 * orb.period
    assert orb.nonconstant


def test_verify_orbit_is_synthesize_on_the_loop(harmonic_spec, quartic_spec, cubic_spec):
    ellipse = mode_one_loop(64, (2.0, 1.0))
    on_set = LoopPath(scaling_root(ellipse, quartic_spec) * ellipse.nodes)
    cases = [(harmonic_spec, circle_loop(256, 2)), (quartic_spec, on_set),
             (cubic_spec, LoopPath(solved_orbit(cubic_spec, 64)[0]))]
    for spec, u in cases:
        orb = synthesize(u, spec)
        res = verify_orbit(np.array(u.nodes), orbit_period(u, spec), spec.potential, spec.h)
        assert res.period == orb.period and np.array_equal(res.positions, orb.positions)
        assert residuals(res) == residuals(orb)
        assert res.nonconstant is orb.nonconstant is (speed(u) >= NONCONSTANT_SPEED)
    still = verify_orbit(np.tile([0.3, 0.1], (16, 1)), 1.0, harmonic_spec.potential, 1.0)
    assert still.nonconstant is False


def test_synthesize_quartic(quartic_spec):
    orb = synthesize(circle_loop(256, 2), quartic_spec)
    assert orb.ode_sup <= 1e-3
    assert orb.energy_sup <= 1e-3
    assert abs(orb.period - 2 * math.pi) / (2 * math.pi) < 1e-3


def test_verifier_rejects_quartic_impostor(quartic_spec):
    # 2:1 ellipse scaled onto the constraint is not a quartic orbit
    ellipse = mode_one_loop(256, (2.0, 1.0))
    on_set = LoopPath(scaling_root(ellipse, quartic_spec) * ellipse.nodes)
    orb = synthesize(on_set, quartic_spec)
    assert orb.ode_sup >= 0.1


def test_harmonic_ellipse_is_a_true_orbit(harmonic_spec):
    # For the isotropic oscillator every correctly scaled first-mode ellipse
    # solves the dynamics at the right energy, so the verifier accepts it.
    ellipse = mode_one_loop(256, (2.0, 1.0))
    on_set = LoopPath(scaling_root(ellipse, harmonic_spec) * ellipse.nodes)
    orb = synthesize(on_set, harmonic_spec)
    assert orb.ode_sup <= 1e-9
    assert orb.energy_sup <= 1e-3


def test_closure_examples(harmonic_spec):
    p = harmonic_spec.potential
    assert closure_gap((1.0, 0.0), (0.0, 1.0), 2 * math.pi, p, steps=2048) <= 1e-6
    half = closure_gap((1.0, 0.0), (0.0, 1.0), math.pi, p, steps=2048)
    assert half == pytest.approx(4.0, abs=1e-3)
    assert closure_gap((0.0, 0.0), (0.0, 0.0), 2 * math.pi, p, steps=2048) == 0.0


def test_closure_blowup():
    runaway = parse_potential("0 - |q|^2", 2)
    with pytest.raises(BlowupError):
        closure_gap((1.0, 0.0), (0.0, 0.0), 16.0, runaway, steps=512)


# The nodes c_i of the 8th-order Dormand-Prince tableau, in closed form.
DOP853_NODES = [0.0, (6 - math.sqrt(6)) * 2 / 135, (6 - math.sqrt(6)) / 45,
                (6 - math.sqrt(6)) / 30, (6 + math.sqrt(6)) / 30, 1 / 3, 1 / 4, 4 / 13,
                127 / 195, 3 / 5, 6 / 7, 1.0]


def test_tableau_rows_sum_to_their_nodes():
    # Each stage row sums to its node; the 1e-15 is relative to the row's
    # size, since rows 8-11 hold coefficients up to 43 whose own rounding
    # adds up to a few 1e-15.
    assert len(orbit.RK_A) == len(DOP853_NODES) == 12
    assert sum(len(row) for row in orbit.RK_A) == 50 and len(orbit.RK_B) == 8
    for i, (row, c) in enumerate(zip(orbit.RK_A, DOP853_NODES)):
        assert all(j < i for j, _ in row)  # explicit: stage i uses earlier stages only
        scale = max(1.0, math.fsum(abs(a) for _, a in row))
        assert abs(math.fsum(a for _, a in row) - c) <= 1e-15 * scale
    assert abs(math.fsum(b for _, b in orbit.RK_B) - 1.0) <= 1e-15


def test_nystrom_coefficients_come_from_the_tableau():
    # c = A 1 holds the nodes, b.c = (bA).1 = 1/2 is the order-2 condition,
    # and an explicit stage i uses only stages below i.
    c, A2, bA, b = orbit.NYSTROM_C, orbit.NYSTROM_A2, orbit.NYSTROM_BA, orbit.NYSTROM_B
    assert np.abs(c - DOP853_NODES).max() <= 1e-15
    assert abs(b @ c - 0.5) <= 1e-15 and abs(bA.sum() - 0.5) <= 1e-15
    assert np.array_equal(A2, np.tril(A2, -1))
    assert [(j, w) for j, w in enumerate(b) if w] == list(orbit.RK_B)


def test_closure_gap_converges_at_eighth_order():
    # On the oscillator's exact orbit the closure is the integrator's error
    # alone; a mistyped coefficient lowers the order and nothing else.
    p = parse_potential("0.5*|q|^2", 2)
    gaps = [closure_gap((1.0, 0.0), (0.0, 1.0), 2 * math.pi, p, steps=s) for s in (8, 16, 32)]
    assert all(math.log2(a / b) >= 7.5 for a, b in zip(gaps, gaps[1:]))


def test_residual_convergence_order(harmonic_spec):
    p = harmonic_spec.potential
    odes, ens = {}, {}
    for N in (64, 128, 256):
        odes[N], ens[N] = orbit_residuals(exact_harmonic_samples(N), 2 * math.pi, p, 1.0)
    assert 3.5 <= odes[64] / odes[128] <= 4.5
    assert 3.5 <= odes[128] / odes[256] <= 4.5
    assert 3.5 <= ens[64] / ens[128] <= 4.5
    assert 3.5 <= ens[128] / ens[256] <= 4.5


def test_cross_oracle_agreement_on_accepted_orbits(harmonic_spec, quartic_spec):
    # orbits passing the differencing gate also pass the return-map test
    gate = 1e-2
    for spec in (harmonic_spec, quartic_spec):
        orb = synthesize(circle_loop(256, 2), spec)
        assert orb.ode_sup <= gate
        assert orb.closure <= 10.0 * gate * orb.period


def cubic_circle_orbit(spec, N):
    """The exact cubic circle in n=3, put on the set: samples and period."""
    circle = circle_loop(N, 3)
    u = LoopPath(scaling_root(circle, spec) * circle.nodes)
    return u.nodes, orbit_period(u, spec)


def ladder_start(q, T):
    """The closure test's initial data: q_0 and the central-difference velocity."""
    return q[0], (q[1] - q[-1]) / (2.0 * T / q.shape[0])


def single_point_dop853(q0, v0, T, potential, steps):
    """Closure of the 8th-order Dormand-Prince tableau in Nystrom form on one
    point, holding q and w = dt v: stage i is at q + c_i w plus the terms
    (A^2)_ij dt^2 q''_j, the step adds w and the bA terms to q and the b
    terms to w, and each sum is taken left to right: a reference for the
    bits of the batched integrator."""
    c, A2, bA, b = orbit.NYSTROM_C, orbit.NYSTROM_A2, orbit.NYSTROM_BA, orbit.NYSTROM_B
    dt = T / steps
    q, w = q0, dt * v0
    for _ in range(steps):
        acc = []
        for i in range(len(c)):
            x = q + c[i] * w
            for j in range(i):
                x = x + A2[i, j] * acc[j]
            acc.append(-(dt * dt) * potential.gradient(x))
        q_next, w_next = q + w, w
        for j in range(len(c)):
            q_next = q_next + bA[j] * acc[j]
            w_next = w_next + b[j] * acc[j]
        q, w = q_next, w_next
        if not ((np.abs(q) <= 1e8).all() and (np.abs(w) <= 1e8 * dt).all()):
            raise BlowupError("escaped")
    return float(np.linalg.norm(q - q0) + np.linalg.norm(w / dt - v0))


def first_order_dop853(q0, v0, T, potential, steps):
    """Closure of the same tableau run on the first-order system
    (q, v)' = (v, -grad V(q)), each stage's sum taken left to right."""
    n = len(q0)
    start = np.concatenate((q0, v0))
    dt = T / steps

    def rate(y):
        return np.concatenate((y[n:], -potential.gradient(y[:n])))

    def weighted(pairs, ks):
        acc = None
        for j, a in pairs:
            acc = a * ks[j] if acc is None else acc + a * ks[j]
        return acc

    y = start
    for _ in range(steps):
        ks = [rate(y)]
        for row in orbit.RK_A[1:]:
            ks.append(rate(y + dt * weighted(row, ks)))
        y = y + dt * weighted(orbit.RK_B, ks)
    gap = y - start
    return float(np.linalg.norm(gap[:n]) + np.linalg.norm(gap[n:]))


def sequential_ladder(q, T, potential):
    """The closure ladder run one rung after another on a single point:
    (closure, closure_err, rungs reached)."""
    q0, v0 = ladder_start(q, T)
    cap = 2 * q.shape[0]
    coarse, coarse_steps, reached = math.nan, 0, []
    for steps in orbit._rungs(cap):
        reached.append(steps)
        try:
            closure = single_point_dop853(q0, v0, T, potential, steps)
        except (BlowupError, DomainError) as err:
            # a blowup below the cap, or any fault on the unreported bottom rung
            if steps >= cap or (isinstance(err, DomainError) and steps > orbit.RK_LOW_RUNGS[0]):
                raise
            closure = math.nan
        closure_err = math.nan
        if coarse_steps:
            closure_err = abs(closure - coarse) / ((steps / coarse_steps) ** 4 - 1.0)
        if steps >= cap or closure_err <= 1e-3 * closure:
            return closure, closure_err, reached
        coarse, coarse_steps = closure, steps


def record_rungs(monkeypatch):
    """Patch the ladder's batched integrator to record each rung it yields."""
    reached = []
    real = orbit._rung_closures

    def recorded(*args):
        for steps, closure in real(*args):
            reached.append(steps)
            yield steps, closure

    monkeypatch.setattr(orbit, "_rung_closures", recorded)
    return reached


@pytest.mark.parametrize("N,budget", [(1024, 385), (4096, 385)])
def test_closure_ladder_steps_grow_slower_than_nodes(monkeypatch, cubic_spec, N, budget):
    q, T = cubic_circle_orbit(cubic_spec, N)
    calls = count_calls(monkeypatch, cubic_spec.potential, "gradient")
    reached = record_rungs(monkeypatch)
    *_, closure, closure_err = residuals(verify_orbit(q, T, cubic_spec.potential, cubic_spec.h))
    assert len(calls) <= budget
    assert reached == orbit._rungs(2 * N)[:len(reached)]
    assert closure_err <= 1e-3 * closure


def solved_orbit(spec, N, init="circle", seed=0):
    """Samples and period of the orbit minimize_on_nehari finds from a start."""
    rep = minimize_on_nehari(spec, SolveOptions(initial_loop=init, seed=seed), n_nodes=N)
    assert rep.converged
    return rep.loop.nodes, orbit_period(rep.loop, spec)


def test_closure_ladder_estimate_bounds_the_error(monkeypatch, cubic_spec, expression_spec):
    # The estimate divides by (s/s')^4 - 1 although the tableau is of order
    # 8: on the expression the lowest rungs are still pre-asymptotic, and
    # cubic e2 orbits pass through the origin, where the potential is only C^2.
    cases = [(cubic_spec, *cubic_circle_orbit(cubic_spec, 256))]
    for N in (64, 256):
        for init, seed in (("circle", 0), ("random_bandlimited", 0), ("random_bandlimited", 9)):
            cases.append((expression_spec, *solved_orbit(expression_spec, N, init, seed)))
    for N in (64, 1024):
        cases.append((cubic_spec, *solved_orbit(cubic_spec, N)))
    for spec, q, T in cases:
        *_, closure, closure_err = residuals(verify_orbit(q, T, spec.potential, spec.h))
        assert 0.0 < closure_err <= 1e-3 * closure
        q0, v0 = ladder_start(q, T)
        # All these ladders stop at 12, 16 or 32 steps; at 1024 steps the closure
        # agrees with 8N steps to 1e-14, far below every closure_err here.
        fine = closure_gap(q0, v0, T, spec.potential, steps=1024)
        assert abs(closure - fine) <= 2.0 * closure_err
    # The 8-step stop: at the benchmark's gate 50/N^2 these ladders settle
    # at rung 8, whose estimate against rung 6 bounds its error outright (at
    # most 0.33 of it over a 40-orbit survey), and the verdict there is the
    # 1024-step closure's.
    aniso = ProblemSpec(parse_potential("0.5*q1^2 + 2*q2^2 + 0.05*|q|^4", 2),
                        2, 1.0, 2.0, 0.0, "e1")
    reached = record_rungs(monkeypatch)
    for spec, N in [(expression_spec, 32), (expression_spec, 64), (aniso, 64), (cubic_spec, 64)]:
        for init, seed in (("circle", 0), ("random_bandlimited", 0), ("random_bandlimited", 1)):
            q, T = solved_orbit(spec, N, init, seed)
            fine = closure_gap(*ladder_start(q, T), T, spec.potential, steps=1024)
            reached.clear()
            settled = verify_orbit(q, T, spec.potential, spec.h, 50.0 / N**2)
            assert reached == [6, 8]
            assert abs(settled.closure - fine) <= settled.closure_err
            assert (settled.closure <= 50.0 / N**2) == (fine <= 50.0 / N**2)


def stiff_case(N=64):
    """A stiff second mode (frequency 40) that DOP853 cannot hold at T/32 or
    coarser (|40 dt| > 7.8) but holds at T/64 (|40 dt| = 3.9): samples,
    period and potential.  The rungs 6, 8, 12, 16 and 32 blow up."""
    stiff = parse_potential("0.5*q1^2 + 800*q2^2", 2)
    T = 2 * math.pi
    q = np.stack([np.cos(T * np.arange(N) / N), np.full(N, 1e-6)], axis=1)
    return q, T, stiff


def test_closure_ladder_climbs_past_coarse_blowups(monkeypatch):
    q, T, stiff = stiff_case()
    q0, v0 = ladder_start(q, T)
    for steps in (6, 8, 12, 16, 32):
        with pytest.raises(BlowupError):
            closure_gap(q0, v0, T, stiff, steps=steps)
    assert math.isfinite(closure_gap(q0, v0, T, stiff, steps=64))
    reached = record_rungs(monkeypatch)
    *_, closure, closure_err = residuals(verify_orbit(q, T, stiff, 0.5))
    assert reached == [6, 8, 12, 16, 32, 64, 128]
    assert math.isfinite(closure) and math.isfinite(closure_err)
    assert (closure, closure_err) == sequential_ladder(q, T, stiff)[:2]


def test_closure_ladder_blowup_at_the_cap():
    runaway = parse_potential("0 - |q|^2", 2)
    with pytest.raises(BlowupError):
        verify_orbit(exact_harmonic_samples(16), 16.0, runaway, 1.0)


def test_closure_ladder_ends_on_the_cap(monkeypatch):
    # c(s) = 1 + 100 (8/s)^4 has an exact Richardson estimate and needs more
    # than the cap of 2N = 80 steps, which no rung below it doubles to.
    rungs = []

    def model(q0, v0, period, potential, ladder):
        for steps in ladder:
            rungs.append(steps)
            yield steps, 1.0 + 100.0 * (8.0 / steps) ** 4

    monkeypatch.setattr(orbit, "_rung_closures", model)
    *_, closure, closure_err = residuals(verify_orbit(exact_harmonic_samples(40), 2 * math.pi,
                                                      parse_potential("0.5*|q|^2", 2), 1.0))
    assert rungs == [6, 8, 12, 16, 32, 64, 80]
    assert closure_err == pytest.approx(closure - 1.0, rel=1e-9)


LADDER_POTENTIALS = [
    (None, 3),  # the cubic power law of ``cubic_spec``
    ("0.5*|q|^2 + 0.05*sin(q1)^2", 2),
    ("exp(0.5*|q|^2) - 1", 2),
    ("|q|^2*(1 + 0.1*log(1 + q1^2))", 2),
]


def ladder_potential_orbits(cubic_spec, source, n, N=64):
    """The spec of a ``LADDER_POTENTIALS`` entry, and samples and period of
    its circle put on the set, unperturbed and perturbed by 2%."""
    spec = cubic_spec if source is None else ProblemSpec(
        parse_potential(source, n), n, 1.0, 2.0, 0.0, "e1")
    circle = circle_loop(N, n)
    on_set = scaling_root(circle, spec) * circle.nodes
    rng = np.random.default_rng(3)
    return spec, [(q, orbit_period(LoopPath(q), spec)) for q in
                  (on_set, on_set * (1.0 + 0.02 * rng.standard_normal(on_set.shape)))]


@pytest.mark.parametrize("source,n", LADDER_POTENTIALS,
                         ids=["power_law", "sin", "exp", "log"])
def test_each_rung_is_closure_gap_bit_for_bit(cubic_spec, source, n):
    spec, orbits = ladder_potential_orbits(cubic_spec, source, n)
    for q, T in orbits:
        q0, v0 = ladder_start(q, T)
        rungs = orbit._rungs(2 * q.shape[0])
        assert [s for s, _ in orbit._rung_closures(q0, v0, T, spec.potential, rungs)] == rungs
        for steps, closure in orbit._rung_closures(q0, v0, T, spec.potential, rungs):
            assert closure == closure_gap(q0, v0, T, spec.potential, steps=steps)
            assert closure == single_point_dop853(q0, v0, T, spec.potential, steps)
        *_, closure, closure_err = residuals(verify_orbit(q, T, spec.potential, spec.h))
        assert (closure, closure_err) == sequential_ladder(q, T, spec.potential)[:2]


@pytest.mark.parametrize("source,n", LADDER_POTENTIALS,
                         ids=["power_law", "sin", "exp", "log"])
def test_nystrom_form_agrees_with_the_first_order_form(cubic_spec, source, n):
    # The same tableau on q'' = -grad V and on its first-order system: the
    # two differ only in rounding, here at most a few 1e-14 of the state.
    spec, orbits = ladder_potential_orbits(cubic_spec, source, n)
    for q, T in orbits:
        q0, v0 = ladder_start(q, T)
        scale = np.abs(np.concatenate((q0, v0))).max()
        for steps, closure in orbit._rung_closures(q0, v0, T, spec.potential,
                                                   orbit._rungs(2 * q.shape[0])):
            first_order = first_order_dop853(q0, v0, T, spec.potential, steps)
            assert abs(closure - first_order) <= 1e-12 * scale


class Faulty(PotentialModel):
    """``inner`` with a fault at the second stage point of the first step of
    each rung in ``rungs``, q0 + c2 ((T/s) v0) with c2 the tableau's second
    node: the gradient there raises DomainError (``fault="domain"``), or is
    1e12, which escapes in that step (``fault="blowup"``), or is nan
    (``fault="nan"``).  ``hits`` counts the calls that met a fault."""

    def __init__(self, inner, q, T, rungs, fault):
        self.inner, self.n, self.fault, self.hits = inner, inner.n, fault, 0
        q0, v0 = ladder_start(q, T)
        c2 = orbit.NYSTROM_C[1]
        self.points = np.array([q0 + c2 * ((T / s) * v0) for s in rungs])

    def value(self, q):
        return self.inner.value(q)

    def gradient(self, q):
        g = self.inner.gradient(q)
        pts = np.atleast_2d(q)
        hit = (pts[:, None, :] == self.points[None, :, :]).all(axis=2).any(axis=1)
        if not hit.any():
            return g
        self.hits += 1
        if self.fault == "domain":
            raise DomainError("faulty stage point")
        bad = math.nan if self.fault == "nan" else 1e12
        return np.where(hit[:, None], bad, np.atleast_2d(g)).reshape(g.shape)


def stopping_case(spec, N=256):
    """The cubic circle at N: samples, period, its clean verify residuals and the
    rungs the ladder reaches, which stop at 12 steps, 3/128 of the cap."""
    q, T = cubic_circle_orbit(spec, N)
    clean = residuals(verify_orbit(q, T, spec.potential, spec.h))
    reached = sequential_ladder(q, T, spec.potential)[2]
    assert reached == [6, 8, 12]
    return q, T, clean, reached


@pytest.mark.parametrize("fault", ["domain", "blowup"])
def test_fault_above_the_stopping_rung_does_not_surface(cubic_spec, fault):
    q, T, clean, reached = stopping_case(cubic_spec)
    above = [s for s in orbit._rungs(2 * q.shape[0]) if s > reached[-1]]
    faulty = Faulty(cubic_spec.potential, q, T, above, fault)
    assert residuals(verify_orbit(q, T, faulty, cubic_spec.h)) == clean
    assert faulty.hits > 0


def test_domain_error_at_a_reached_rung_surfaces(cubic_spec):
    q, T, _, reached = stopping_case(cubic_spec)
    faulty = Faulty(cubic_spec.potential, q, T, [reached[-1]], "domain")
    with pytest.raises(DomainError):
        verify_orbit(q, T, faulty, cubic_spec.h)


def test_blowup_at_a_reached_rung_moves_on(cubic_spec):
    q, T, clean, reached = stopping_case(cubic_spec)
    faulty = Faulty(cubic_spec.potential, q, T, [reached[-1]], "blowup")
    closure, closure_err, later = sequential_ladder(q, T, faulty)
    assert later[-1] > reached[-1]
    assert residuals(verify_orbit(q, T, faulty, cubic_spec.h))[2:] == (closure, closure_err)
    assert (closure, closure_err) != clean[2:]


def test_nan_phase_point_is_a_blowup_of_its_own_row(cubic_spec):
    # A row whose phase point turns nan has blown up, and in the same step
    # as another row's blowup it hides nothing: the batch still gives each
    # rung's own result, and the ladder climbs past both.
    q, T, clean, reached = stopping_case(cubic_spec)
    nan_at_12 = Faulty(cubic_spec.potential, q, T, [12], "nan")
    faulty = Faulty(nan_at_12, q, T, [8], "blowup")
    closure, closure_err, later = sequential_ladder(q, T, faulty)
    assert later[:4] == [6, 8, 12, 16] and math.isfinite(closure)
    assert residuals(verify_orbit(q, T, faulty, cubic_spec.h))[2:] == (closure, closure_err)
    assert nan_at_12.hits > 0 and faulty.hits > 0


@pytest.mark.parametrize("fault", ["domain", "blowup"])
def test_fault_on_the_six_step_row_leaves_the_ladder_without_it(monkeypatch, cubic_spec, fault):
    # The 6-step closure only gives rung 8 an estimate, so a fault on its row
    # leaves rung 8 without one: the ladder then stops where the ladder that
    # begins at 8 stops, with the same closure bits and verdict.
    q, T, clean, _ = stopping_case(cubic_spec)
    faulty = Faulty(cubic_spec.potential, q, T, [6], fault)
    reached = record_rungs(monkeypatch)
    for closure_tol in (None, 50.0 / 256**2, 0.5 * clean[2], 2.0 * clean[2]):
        with monkeypatch.context() as without_six:
            without_six.setattr(orbit, "RK_LOW_RUNGS", (8, 12, 16))
            reached.clear()
            from_eight = verify_orbit(q, T, cubic_spec.potential, cubic_spec.h, closure_tol)
            from_eight_reached = list(reached)
        reached.clear()
        res = verify_orbit(q, T, faulty, cubic_spec.h, closure_tol)
        assert reached == [6] + from_eight_reached
        assert residuals(res) == residuals(from_eight)
        assert res.accepts(1.0, 1.0, closure_tol) == from_eight.accepts(1.0, 1.0, closure_tol)
    assert faulty.hits > 0


@pytest.mark.parametrize("fault,error", [("domain", DomainError), ("blowup", BlowupError)])
def test_fault_on_every_rung_surfaces(cubic_spec, fault, error):
    # A domain error stops the first rung; blowups are passed over up to the cap.
    q, T = cubic_circle_orbit(cubic_spec, 64)
    faulty = Faulty(cubic_spec.potential, q, T, orbit._rungs(2 * 64), fault)
    with pytest.raises(error):
        verify_orbit(q, T, faulty, cubic_spec.h)


def test_ladder_makes_twelve_gradient_calls_per_finest_step(monkeypatch, cubic_spec):
    # One value_and_gradient call for the residuals, then one gradient call
    # per stage, twelve per iteration of the batch, whose finest reached rung
    # sets the iteration count; rows above add no calls.
    q, T, _, reached = stopping_case(cubic_spec)
    pairs = count_calls(monkeypatch, cubic_spec.potential, "value_and_gradient")
    calls = count_calls(monkeypatch, cubic_spec.potential, "gradient")
    verify_orbit(q, T, cubic_spec.potential, cubic_spec.h)
    assert (len(pairs), len(calls)) == (1, 12 * reached[-1])


def test_ladder_that_ends_on_the_cap_makes_the_worst_case_calls(monkeypatch):
    q, T, stiff = stiff_case()
    N = q.shape[0]
    pairs = count_calls(monkeypatch, stiff, "value_and_gradient")
    calls = count_calls(monkeypatch, stiff, "gradient")
    reached = record_rungs(monkeypatch)
    verify_orbit(q, T, stiff, 0.5)
    assert reached[-1] == 2 * N
    assert (len(pairs), len(calls)) == (1, 12 * 2 * N)


def test_rungs_climb_to_the_cap_at_most_doubling():
    for cap in range(16, 8193):
        rungs = orbit._rungs(cap)
        assert rungs[:4] == [6, 8, 12, 16] and rungs[-1] == cap
        assert all(a < b <= 2 * a for a, b in zip(rungs, rungs[1:]))


def test_verify_orbit_needs_the_nodes_of_a_loop(harmonic_spec):
    # Fewer than MIN_NODES samples would put the cap of 2N steps below the
    # ladder's first rungs.
    circle = circle_loop(MIN_NODES, 2).nodes
    assert verify_orbit(circle, 2 * math.pi, harmonic_spec.potential, 1.0).nonconstant
    with pytest.raises(ValueError, match=f"need at least {MIN_NODES} nodes, got 4"):
        verify_orbit(circle[::2], 2 * math.pi, harmonic_spec.potential, 1.0)


@pytest.mark.parametrize("case,N,init,stop", [
    ("expression", 64, "circle", 12),
    ("cubic", 256, "random_bandlimited", 16),
])
def test_verify_stops_at_the_pinned_rung(monkeypatch, expression_spec, cubic_spec,
                                         case, N, init, stop):
    # The 12-step rung ends the expression's ladder one rung below 16, and
    # the random cubic start's one below 32: twelve calls per finest step.
    spec = expression_spec if case == "expression" else cubic_spec
    q, T = solved_orbit(spec, N, init, 0)
    pairs = count_calls(monkeypatch, spec.potential, "value_and_gradient")
    calls = count_calls(monkeypatch, spec.potential, "gradient")
    verify_orbit(q, T, spec.potential, spec.h)
    assert (len(pairs), len(calls)) == (1, 12 * stop)


def verify_recorded(reached, calls, q, T, spec, closure_tol=None):
    """verify_orbit with a fresh record: the result, the rungs it reached and
    its number of ``gradient`` calls."""
    reached.clear()
    calls.clear()
    res = verify_orbit(q, T, spec.potential, spec.h, closure_tol)
    return res, list(reached), len(calls)


@pytest.mark.parametrize("case,N,init,stop,settled_rungs", [
    ("expression", 64, "circle", 12, [6, 8]),
    ("cubic", 256, "random_bandlimited", 16, [6, 8]),
    ("cubic", 1024, "circle", 32, [6, 8, 12]),
], ids=["expression-64-circle-12", "cubic-256-random_bandlimited-16", "cubic-1024-circle-32"])
def test_closure_tol_stops_the_ladder_once_the_verdict_is_settled(
        monkeypatch, expression_spec, cubic_spec, case, N, init, stop, settled_rungs):
    # At the benchmark's gate 50/N^2 a ladder settles on ``settled_rungs``,
    # where without a tolerance it climbs to ``stop``; the verdict is the
    # same, and the same as a 1024-step integration's, on either side of the
    # closure.  At N=1024 the closure is below the 8-step estimate, so the
    # cubic needs rung 12 as it did before the 6-step rung.
    spec = expression_spec if case == "expression" else cubic_spec
    q, T = solved_orbit(spec, N, init, 0)
    reached = record_rungs(monkeypatch)
    calls = count_calls(monkeypatch, spec.potential, "gradient")
    full, full_reached, full_calls = verify_recorded(reached, calls, q, T, spec)
    assert (full_reached[-1], full_calls) == (stop, 12 * stop)
    settled, settled_reached, settled_calls = verify_recorded(reached, calls, q, T, spec,
                                                              50.0 / N**2)
    assert (settled_reached, settled_calls) == (settled_rungs, 12 * settled_rungs[-1])
    fine = closure_gap(*ladder_start(q, T), T, spec.potential, steps=1024)
    assert abs(settled.closure - fine) <= 2.0 * settled.closure_err
    for tol in (0.5 * full.closure, 2.0 * full.closure, 50.0 / N**2):
        res = verify_orbit(q, T, spec.potential, spec.h, tol)
        assert (res.closure <= tol) == (full.closure <= tol) == (fine <= tol)


@pytest.mark.parametrize("N,init", [(256, "random_bandlimited"), (1024, "circle")])
def test_closure_tol_within_the_estimate_climbs_as_without_one(monkeypatch, cubic_spec, N, init):
    # A tolerance within closure_err of the closure at every rung below the
    # stop settles nothing: the ladder climbs as far, with the same calls.
    q, T = solved_orbit(cubic_spec, N, init, 0)
    reached = record_rungs(monkeypatch)
    calls = count_calls(monkeypatch, cubic_spec.potential, "gradient")
    full, full_reached, full_calls = verify_recorded(reached, calls, q, T, cubic_spec)
    closures = dict(orbit._rung_closures(*ladder_start(q, T), T, cubic_spec.potential,
                                         full_reached))
    tol = closures[full_reached[-2]]
    for coarse, steps in zip(full_reached[:-2], full_reached[1:-1]):
        err = abs(closures[steps] - closures[coarse]) / ((steps / coarse) ** 4 - 1.0)
        assert abs(closures[steps] - tol) < err
    res, res_reached, res_calls = verify_recorded(reached, calls, q, T, cubic_spec, tol)
    assert (residuals(res), res_reached, res_calls) == (residuals(full), full_reached, full_calls)


def test_nan_closure_err_never_stops_the_ladder(monkeypatch):
    # The stiff case's rungs below 64 blow up, so closure_err is nan up to
    # 64: however far the tolerance is from the closure, the ladder climbs
    # to the cap.
    q, T, stiff = stiff_case()
    reached = record_rungs(monkeypatch)
    full = residuals(verify_orbit(q, T, stiff, 0.5))
    for tol in (1e-300, 1.0, 1e300):
        reached.clear()
        assert residuals(verify_orbit(q, T, stiff, 0.5, tol)) == full
        assert reached == [6, 8, 12, 16, 32, 64, 128]


@pytest.mark.parametrize("period", [0.0, -1.0])
def test_closure_gap_needs_a_positive_period(period):
    p = parse_potential("0.5*|q|^2", 2)
    with pytest.raises(ValueError, match="period must be positive"):
        closure_gap((1.0, 0.0), (0.0, 1.0), period, p, steps=64)
