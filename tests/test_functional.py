import math

import numpy as np
import pytest

from hamorbit import functional, loopspace
from hamorbit import (
    DomainError,
    LoopPath,
    NoBracketError,
    PowerLawPotential,
    ProblemSpec,
    ZeroLoopError,
    action,
    action_gradient,
    circle_loop,
    constraint_distance,
    constraint_gradient,
    constraint_value,
    cps_append,
    dirichlet_energy,
    h1_norm,
    parse_potential,
    project_symmetric,
    random_loop,
    scaling_root,
    zero_loop,
)
from hamorbit.functional import gradient_dual_norm
from hamorbit.loopspace import periodic_shift
from conftest import (count_calls, fd_action_gradient, fd_gradient, random_admissible_spec,
                      random_loop_with_mean)


def test_admissibility_is_strict(harmonic_spec):
    pot = PowerLawPotential(1.0, 2.0, 2.0, n=2)
    with pytest.raises(ValueError):
        ProblemSpec(pot, 2, 1.0, 2.0, 2.0)  # h == mu2/mu1 exactly
    ProblemSpec(pot, 2, 1.0 + 1e-12, 2.0, 2.0)
    with pytest.raises(ValueError):
        ProblemSpec(pot, 3, 2.0, 2.0, 2.0)  # dimension mismatch
    for mu1, mu2 in ((0.0, 0.0), (-2.0, 0.0), (2.0, -0.5)):
        with pytest.raises(ValueError, match="growth parameters need mu1 > 0 and mu2 >= 0"):
            ProblemSpec(pot, 2, 1.0, mu1, mu2)


def test_spec_takes_the_potentials_growth_parameters_unless_given():
    cubic = PowerLawPotential(0.5, 3, 0.25, n=2)
    spec = ProblemSpec(cubic, 2, 1.0)
    assert (spec.mu1, spec.mu2) == (3.0, 0.25)
    given = ProblemSpec(cubic, 2, 1.0, 2.5)
    assert (given.mu1, given.mu2) == (2.5, 0.25)
    given = ProblemSpec(cubic, 2, 1.0, mu2=0.0)
    assert (given.mu1, given.mu2) == (3.0, 0.0)
    expression = ProblemSpec(parse_potential("0.5*|q|^2", 2), 2, 1.0)
    assert (expression.mu1, expression.mu2) == (2.0, 0.0)
    with pytest.raises(ValueError, match="h must exceed mu2/mu1"):
        ProblemSpec(PowerLawPotential(1.0, 2, 4.0, n=2), 2, 1.0)


def test_action_constant_loop_vanishes(harmonic_spec):
    u = LoopPath(np.tile([0.3, -0.7], (32, 1)))
    assert action(u, harmonic_spec) == 0.0


def test_action_circle_closed_form(harmonic_spec):
    u = circle_loop(256, 2)
    f = action(u, harmonic_spec)
    assert abs(f - math.pi**2) / math.pi**2 < 1e-3
    # at h equal to the loop's mean potential the gap factor cancels
    half = ProblemSpec(harmonic_spec.potential, 2, 0.5, 2.0, 1e-9, "e1")
    assert abs(action(u, half)) < 1e-12


def test_gradient_vanishes_at_discrete_circle(harmonic_spec):
    u = circle_loop(256, 2)
    grad = action_gradient(u, harmonic_spec)
    assert np.abs(grad).max() <= 1e-8 / 256
    assert (1.0 + h1_norm(u)) * gradient_dual_norm(grad) <= 1e-6


def test_gradient_constant_loop_zero(harmonic_spec):
    u = LoopPath(np.tile([0.4, 0.2], (16, 1)))
    assert np.all(action_gradient(u, harmonic_spec) == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(12):
        spec = random_admissible_spec(rng)
        u = random_loop_with_mean(16, spec.n, rng, 0.3)
        grad = action_gradient(u, spec)
        fd = fd_action_gradient(u, spec)
        scale = np.abs(grad).max() + 1e-12
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_ray_constraint_is_the_nehari_set():
    # grad f(u).u = 2 A(u) (h - g(u)) for every discrete loop: on the ray
    # constraint grad f(u).u = 0, so the constrained route may descend along
    # the full gradient and retract along the ray.
    rng = np.random.default_rng(107)
    for _ in range(40):
        spec = random_admissible_spec(rng)
        u = random_loop_with_mean(int(rng.choice([16, 32, 64])), spec.n, rng,
                                  float(rng.uniform(0.0, 0.5)))
        lhs = float(np.vdot(action_gradient(u, spec), u.nodes))
        rhs = 2.0 * dirichlet_energy(u) * (spec.h - constraint_value(u, spec))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_constraint_gradient_matches_finite_differences():
    # hessian_ray is exact, so what is left is the error of the outer
    # differences, up to ~2.0e-10 of the largest entry on these loops.
    rng = np.random.default_rng(103)
    for _ in range(12):
        spec = random_admissible_spec(rng)
        u = random_loop_with_mean(16, spec.n, rng, 0.3)
        grad = constraint_gradient(u, spec)
        fd = fd_gradient(constraint_value, u, spec, step=1e-5)
        assert np.abs(grad - fd).max() / np.abs(grad).max() < 5e-10


def test_action_hessian_matches_differences_of_the_gradient():
    # H v against central differences of the exact gradient along v, and
    # the symmetry w.H v = v.H w, on power-law and expression potentials.
    rng = np.random.default_rng(109)
    for _ in range(12):
        spec = random_admissible_spec(rng)
        u = random_loop_with_mean(16, spec.n, rng, 0.3)
        v, w = rng.standard_normal((2, 16, spec.n))
        product = functional.potential_pass(u, spec).action_hessian()
        hv = product(v)
        step = 1e-6
        fd = (action_gradient(LoopPath(u.nodes + step * v), spec)
              - action_gradient(LoopPath(u.nodes - step * v), spec)) / (2.0 * step)
        assert np.abs(hv - fd).max() <= 2e-9 * np.abs(fd).max()
        assert float(np.vdot(w, hv)) == pytest.approx(float(np.vdot(v, product(w))), rel=1e-13)


def test_constraint_value_examples(harmonic_spec, quartic_spec):
    u = circle_loop(128, 2)
    # V + grad V . q / 2 = |q|^2 for the harmonic potential
    assert constraint_value(u, harmonic_spec) == pytest.approx(1.0, abs=1e-12)
    pot = PowerLawPotential(1.0, 2.0, 3.0, n=2)
    spec = ProblemSpec(pot, 2, 2.0, 2.0, 3.0)
    assert constraint_value(zero_loop(16, 2), spec) == pytest.approx(1.5, abs=1e-14)
    # quartic scaling: g(alpha u) = (3/4) alpha^4 on the unit circle
    two = LoopPath(2.0 * u.nodes)
    assert constraint_value(two, quartic_spec) == pytest.approx(12.0, rel=1e-12)


def test_scaling_root_closed_forms(harmonic_spec, quartic_spec):
    u = circle_loop(256, 2)
    assert scaling_root(u, harmonic_spec) == pytest.approx(1.0, abs=1e-12)
    h4 = ProblemSpec(harmonic_spec.potential, 2, 4.0, 2.0, 0.0, "e1")
    assert scaling_root(u, h4) == pytest.approx(2.0, abs=1e-10)
    h12 = ProblemSpec(quartic_spec.potential, 2, 12.0, 4.0, 0.0, "e1")
    assert scaling_root(u, h12) == pytest.approx(2.0, abs=1e-10)


def test_scaling_root_errors(harmonic_spec):
    with pytest.raises(ZeroLoopError):
        scaling_root(zero_loop(16, 2), harmonic_spec)
    sinking = ProblemSpec(parse_potential("0 - |q|^2", 2), 2, 1.0, 2.0, 0.0)
    with pytest.raises(NoBracketError) as err:
        scaling_root(circle_loop(16, 2), sinking)
    assert len(err.value.samples) > 3


def test_scaling_root_searches_one_direction(monkeypatch, cubic_spec):
    # The sign of g(u) - h picks the bracket's direction, so a loop just off
    # the set costs about the same on either side.
    u = project_symmetric(random_loop(256, 3, np.random.default_rng(0)), "e2")
    on_set = scaling_root(u, cubic_spec) * u.nodes
    calls = count_calls(monkeypatch, functional, "potential_pass")  # one per root evaluation
    for lam in (1.02, 0.98):
        calls.clear()
        a = scaling_root(LoopPath(lam * on_set), cubic_spec)
        assert a == pytest.approx(1.0 / lam, rel=1e-10)
        assert 2 <= len(calls) <= 3


def _scales(calls):
    """The scales of the recorded ``potential_pass(u, spec[, scale])`` calls."""
    return [args[2] if len(args) > 2 else 1.0 for args in calls]


@pytest.mark.parametrize("lam", [0.7, 0.98, 1.02, 1.5])
@pytest.mark.parametrize("mu2", [0.0, 3.0])
def test_power_law_landing_takes_two_passes(monkeypatch, cubic_spec, mu2, lam):
    # g(s u) - c = s^mu1 (g(u) - c), c = mu2/mu1, holds exactly for a power
    # law, so the growth model's root is the landing: the pass at a = 1 and
    # the one at the model's root.
    if mu2:
        spec = ProblemSpec(PowerLawPotential(1.0, 2.0, mu2), 2, 2.5, 2.0, mu2, "e1")
    else:
        spec = cubic_spec
    u = project_symmetric(random_loop(256, spec.n, np.random.default_rng(0)), spec.symmetry)
    on_set = scaling_root(u, spec) * u.nodes
    calls = count_calls(monkeypatch, functional, "potential_pass")
    a = scaling_root(LoopPath(lam * on_set), spec)
    assert a == pytest.approx(1.0 / lam, rel=1e-12)
    assert len(calls) == 2
    assert _scales(calls)[1] == pytest.approx(1.0 / lam, rel=1e-12)


@pytest.mark.parametrize("lam", [0.98, 1.02])
def test_expression_landing_near_the_set(monkeypatch, expression_spec, lam):
    # The quartic term grows faster than the model's |q|^2, so the model's
    # root brackets the landing and regula falsi closes in from there.
    u = project_symmetric(random_loop(64, 2, np.random.default_rng(0)), "e1")
    on_set = scaling_root(u, expression_spec) * u.nodes
    calls = count_calls(monkeypatch, functional, "potential_pass")
    a = scaling_root(LoopPath(lam * on_set), expression_spec)
    assert a == pytest.approx(1.0 / lam, rel=1e-10)
    assert len(calls) <= 6


@pytest.mark.parametrize("source,mu1,mu2,h,scale,first", [
    ("0.5*|q|^2", 2.0, 0.0, 1.0, 0.25, 2.0),  # the model's root 4 lies past 2
    ("0.5*|q|^2", 2.0, 0.0, 1.0, 4.0, 0.5),  # ... and 1/4 below 1/2
    ("|q|^2", 2.0, 1.0, 2.0, 0.1, 2.0),  # g(u) = 0.02 <= mu2/mu1: no model root
    ("|q|^2", 0.004, 0.0, 1.0, 1e-3, 2.0),  # its root overflows a float
])
def test_ray_landing_probes_the_doubling_where_the_model_does_not_apply(
        monkeypatch, source, mu1, mu2, h, scale, first):
    spec = ProblemSpec(parse_potential(source, 2), 2, h, mu1, mu2, "e1")
    u = LoopPath(scale * circle_loop(64, 2).nodes)
    calls = count_calls(monkeypatch, functional, "potential_pass")
    landing = functional.ray_landing(u, spec)
    assert _scales(calls)[:2] == [1.0, first]
    assert abs(landing.g - h) <= functional.root_tolerance(spec)


@pytest.mark.parametrize("lam, passes", [(3.0, 3), (1.0 / 3.0, 3), (10.0, 5)])
def test_power_law_landing_from_afar_takes_the_model_at_each_probe(monkeypatch, cubic_spec,
                                                                  lam, passes):
    # Each probe past the first is the model's root from the probe before,
    # within one doubling of it: from 3 and 1/3 times the on-set loop the
    # second probe is the halving (doubling) and the third lands; from 10
    # times, three halvings come before the landing.
    u = project_symmetric(random_loop(256, 3, np.random.default_rng(0)), "e2")
    on_set = functional.ray_landing(u, cubic_spec).loop
    calls = count_calls(monkeypatch, functional, "potential_pass")
    landing = functional.ray_landing(LoopPath(lam * on_set.nodes), cubic_spec)
    assert landing.scale == pytest.approx(1.0 / lam, rel=1e-12)
    assert len(calls) == passes
    steps = np.array(_scales(calls))
    assert np.all((steps[1:] / steps[:-1] >= 0.5) & (steps[1:] / steps[:-1] <= 2.0))


def test_ray_landing_aims_its_first_probe_from_the_pass_it_made(monkeypatch, harmonic_spec):
    # On this loop (g - h) + h rounds away from g, and the model's root moves
    # with it; the probe is the root from g itself.
    u = LoopPath(math.sqrt(0.32) * circle_loop(64, 2).nodes)
    g = functional.potential_pass(u, harmonic_spec).g
    aimed = functional._model_probe(g, harmonic_spec, 2.0)
    assert aimed != functional._model_probe((g - 1.0) + 1.0, harmonic_spec, 2.0)
    calls = count_calls(monkeypatch, functional, "potential_pass")
    functional.ray_landing(u, harmonic_spec)
    assert _scales(calls) == [1.0, aimed]


def test_ray_landing_that_ends_off_the_set_raises():
    # g is inf at scale 1 on this start.  The problem's mu1 = 2 is far below
    # the power's 700, so the model's roots lie past each halving, and the
    # bracket halves to 0.5 (g = 8.9e184) and 0.25 (g = 1.7e-26); regula
    # falsi's first point rounds onto the end 0.25, where the landing is far
    # off the set.
    spec = ProblemSpec(PowerLawPotential(0.5, 700, n=2), 2, 1.0, mu1=2.0, symmetry="e1")
    u = project_symmetric(random_loop(64, 2, np.random.default_rng(3)), "e1")
    message = r"ray landing ended off the constraint: \|g - h\| = 1$"
    with np.errstate(over="ignore"), pytest.raises(DomainError, match=message):
        functional.ray_landing(u, spec)


def test_illinois_stops_where_phi_has_no_value():
    # The first secant point 0.5 has a value, the next one (0.357...) none:
    # the search returns the last point that had one.
    def phi(x):
        return x - 0.3 if x > 0.45 else None

    assert functional._illinois(phi, 0.0, -1.0, 1.0, 1.0) == 0.5
    assert functional._illinois(lambda x: None, 0.0, -1.0, 1.0, 1.0) == 1.0


def test_scaling_root_stays_below_overflow():
    # g(u) > h on the unit circle, and exp overflows far out on the ray: the
    # bracket shrinks the scale and never probes out there.
    spec = ProblemSpec(parse_potential("exp(0.5*|q|^2) - 1", 2), 2, 1.0, 2.0, 0.0, "e1")
    u = circle_loop(64, 2)
    a = scaling_root(u, spec)
    assert abs(constraint_value(LoopPath(a * u.nodes), spec) - spec.h) <= 1e-12 * (1 + spec.h)


def test_scaling_root_on_a_decreasing_ray():
    # 3 - |q|^2 fails B3: g(a u) = 3 - 2a^2 falls along the ray, so from
    # g(u) = 1 < h the bracket grows the scale and never meets the root at
    # a = 1/sqrt(2).
    spec = ProblemSpec(parse_potential("3 - |q|^2", 2), 2, 2.0, 2.0, 0.0)
    with pytest.raises(NoBracketError) as err:
        scaling_root(circle_loop(16, 2), spec)
    scales = [a for a, _ in err.value.samples]
    assert all(a < b for a, b in zip(scales, scales[1:]))


def test_no_bracket_samples_are_the_probed_constraint_values():
    # Each sample holds the g computed at its scale, bit for bit, not
    # (g - h) + h, which rounds differently at some of these probes.
    spec = ProblemSpec(parse_potential("0.3 - 0.1*|q|^2", 2), 2, 1.1, 2.0, 0.0)
    u = circle_loop(16, 2)
    with pytest.raises(NoBracketError) as err:
        scaling_root(u, spec)
    samples = err.value.samples
    assert samples[0][0] == 1.0 and len(samples) > 3
    assert [g for _, g in samples] == [
        constraint_value(LoopPath(a * u.nodes), spec) for a, _ in samples]
    assert any((g - spec.h) + spec.h != g for _, g in samples)


def test_scaling_root_homogeneity():
    rng = np.random.default_rng(7)
    spec = ProblemSpec(PowerLawPotential(0.6, 3, 0, n=2), 2, 1.3, 3.0, 0.0)
    u = random_loop_with_mean(32, 2, rng, 0.2)
    base = scaling_root(u, spec)
    for lam in (0.5, 2.0, 7.0):
        scaled = scaling_root(LoopPath(lam * u.nodes), spec)
        assert scaled == pytest.approx(base / lam, rel=1e-10)


def test_constraint_distance(harmonic_spec):
    u = circle_loop(256, 2)
    assert constraint_distance(u, None, harmonic_spec) <= 1e-10
    two = LoopPath(2.0 * u.nodes)
    expected = 0.5 * h1_norm(two)
    assert constraint_distance(two, None, harmonic_spec) == pytest.approx(expected, rel=1e-10)
    gap = constraint_distance(u, 2 * math.pi, harmonic_spec)
    assert gap == pytest.approx(abs(2 * 256 * math.sin(math.pi / 256) - 2 * math.pi), rel=1e-10)
    assert gap < 1e-3
    with pytest.raises(ZeroLoopError):
        constraint_distance(zero_loop(16, 2), None, harmonic_spec)


def test_cps_records(harmonic_spec):
    def record(trace, u):
        return cps_append(trace, functional.potential_pass(u, harmonic_spec))

    trace = []
    rec = record(trace, zero_loop(16, 2))
    assert rec.f_value == 0.0
    assert rec.loop_norm == 0.0
    assert rec.weighted_gradient == 0.0
    rec2 = record(trace, circle_loop(16, 2))
    assert rec2.weighted_gradient >= 0.0
    # The iteration is the record's index in its trace.
    assert [r.iteration for r in trace] == [0, 1] and trace[1] is rec2
    rec3 = record([], circle_loop(256, 2))
    assert rec3.iteration == 0
    assert rec3.weighted_gradient <= 1e-6


def test_cps_record_takes_the_loop_norm_once(monkeypatch, expression_spec):
    u = random_loop(64, 2, np.random.default_rng(5))
    grad = action_gradient(u, expression_spec)
    here = functional.potential_pass(u, expression_spec)
    norms = count_calls(monkeypatch, functional, "h1_norm")
    rec = cps_append([], here, 1.0)
    assert len(norms) == 1
    assert rec.loop_norm == h1_norm(u)
    assert rec.weighted_gradient == (1.0 + h1_norm(u)) * gradient_dual_norm(grad)  # bit for bit


@pytest.mark.parametrize("radius,lam", [(3.0, 1.5), (None, 1.0), (None, 1.5)])
def test_cps_record_takes_one_dirichlet_sum(monkeypatch, harmonic_spec, radius, lam):
    # The loop norm and the distance proxy share the record's one Dirichlet
    # sum, on the sphere and on the ray constraint (lam = 1) or off it, with
    # the bits of the separate calls.
    base = random_loop(64, 2, np.random.default_rng(5))
    u = LoopPath(lam * scaling_root(base, harmonic_spec) * base.nodes)
    here = functional.potential_pass(u, harmonic_spec)
    proxy = constraint_distance(u, radius, harmonic_spec)
    sums = [count_calls(monkeypatch, module, "stacked_dirichlet_energy")
            for module in (loopspace, functional)]
    rec = cps_append([], here, radius)
    assert sum(map(len, sums)) == 1
    assert rec.loop_norm == h1_norm(u)
    assert rec.distance_proxy == proxy


def test_cps_record_on_the_set_needs_no_root(monkeypatch, harmonic_spec):
    # On the set, the constraint value the solver holds settles both the
    # residual and the distance proxy, with no potential pass; off the set
    # the proxy is still the gap along the ray.
    u = circle_loop(64, 2)
    on_set = LoopPath(scaling_root(u, harmonic_spec) * u.nodes)
    off_set = LoopPath(1.5 * on_set.nodes)
    loops = (on_set, off_set)
    here = [functional.potential_pass(v, harmonic_spec) for v in loops]
    gs = [constraint_value(v, harmonic_spec) for v in loops]
    roots = count_calls(monkeypatch, functional, "scaling_root")
    passes = count_calls(monkeypatch, functional, "potential_pass")
    rec = cps_append([], here[0])
    assert rec.distance_proxy == 0.0
    assert rec.constraint_residual <= functional.root_tolerance(harmonic_spec)
    assert (len(roots), len(passes)) == (0, 0)
    rec = cps_append([], here[1])
    assert rec.constraint_residual == abs(gs[1] - harmonic_spec.h)
    assert len(roots) == 1
    assert rec.distance_proxy == constraint_distance(off_set, None, harmonic_spec) > 0.0


@pytest.mark.parametrize("field", range(1, 6))
def test_record_with_a_non_finite_entry_raises(field):
    entries = [0, 1.0, 1.0, 1.0, 0.0, 0.0]
    functional.CpsRecord(*entries)
    entries[field] = math.nan if field % 2 else math.inf
    with pytest.raises(DomainError, match="non-finite"):
        functional.CpsRecord(*entries)


def test_pass_measures_its_loop_once_with_the_bits_of_the_functions(monkeypatch,
                                                                   expression_spec):
    u = random_loop(64, 2, np.random.default_rng(11))
    level, grad, norm = action(u, expression_spec), action_gradient(u, expression_spec), h1_norm(u)
    here = functional.potential_pass(u, expression_spec)
    factored = count_calls(monkeypatch, functional, "_factors")
    assert here.action == level
    assert here.action_gradient.tobytes() == grad.tobytes()
    assert here.loop_norm == norm
    assert here.weighted_gradient == (1.0 + norm) * gradient_dual_norm(grad)
    here.action_hessian()
    assert len(factored) == 1


@pytest.mark.parametrize("sym", ["e1", "e2"])
def test_gradient_stays_in_symmetry_subspace(sym, harmonic_spec):
    rng = np.random.default_rng(31)
    models = [harmonic_spec.potential, parse_potential("0.5*|q|^2 + 0.05*|q|^4", 2)]
    for pot in models:
        spec = ProblemSpec(pot, 2, 1.0, 2.0, 0.0, sym)
        u = project_symmetric(random_loop(32, 2, rng), sym)
        grad = action_gradient(u, spec)
        projected = project_symmetric(LoopPath(grad), sym).nodes
        assert np.abs(grad - projected).max() <= 1e-10


def test_shift_equivariance_exact(harmonic_spec):
    rng = np.random.default_rng(37)
    u = random_loop_with_mean(40, 2, rng, 0.3)
    f0 = action(u, harmonic_spec)
    g0 = action_gradient(u, harmonic_spec)
    for j in (1, 13, 39):
        moved = LoopPath(periodic_shift(u.nodes, j))
        assert action(moved, harmonic_spec) == f0
        assert np.array_equal(action_gradient(moved, harmonic_spec),
                              np.roll(g0, -j, axis=0))


def test_stacked_forms_are_the_single_loop_calls_bit_for_bit(expression_spec):
    rng = np.random.default_rng(47)
    stack = rng.standard_normal((6, 24, 2)) + rng.standard_normal((6, 1, 2))
    stack[2] = 0.0
    levels = functional.stacked_action(stack, expression_spec)
    grads = functional.stacked_action_gradient(stack, expression_spec)
    assert levels.tolist() == [action(LoopPath(x), expression_spec) for x in stack]
    for x, level, grad in zip(stack, levels, grads):
        assert grad.tobytes() == action_gradient(LoopPath(x), expression_spec).tobytes()
        # Reference form: the loop's own Dirichlet energy and mean gap.
        gap = loopspace.integrate(expression_spec.h - expression_spec.potential.value(x))
        assert level == dirichlet_energy(LoopPath(x)) * gap


def test_action_even_under_reflection(harmonic_spec):
    rng = np.random.default_rng(41)
    u = random_loop(24, 2, rng)
    f = action(u, harmonic_spec)
    assert action(LoopPath(-u.nodes), harmonic_spec) == pytest.approx(f, rel=1e-12)


def test_constrained_level_positive_on_random_loops():
    rng = np.random.default_rng(43)
    count = 0
    while count < 100:
        sym = "e1" if count % 2 == 0 else "e2"
        spec = ProblemSpec(PowerLawPotential(0.5, 2, 0, n=2), 2, 1.0, 2.0, 0.0, sym)
        u = project_symmetric(random_loop(32, 2, rng), sym)
        if not np.any(u.nodes):
            continue
        on_set = LoopPath(scaling_root(u, spec) * u.nodes)
        assert action(on_set, spec) > 0.0
        count += 1

