import math

import numpy as np
import pytest

from hamorbit import functional
from hamorbit import (
    GradientSphere,
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
    shift,
    weighted_gradient_norm,
    zero_loop,
)
from conftest import count_calls, fd_action_gradient, fd_gradient, random_admissible_spec


def test_admissibility_is_strict(harmonic_spec):
    pot = PowerLawPotential(1.0, 2.0, 2.0, n=2)
    with pytest.raises(ValueError):
        ProblemSpec(pot, 2, 1.0, 2.0, 2.0)  # h == mu2/mu1 exactly
    ProblemSpec(pot, 2, 1.0 + 1e-12, 2.0, 2.0)
    with pytest.raises(ValueError):
        ProblemSpec(pot, 3, 2.0, 2.0, 2.0)  # dimension mismatch


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
    assert weighted_gradient_norm(u, grad) <= 1e-6


def test_gradient_constant_loop_zero(harmonic_spec):
    u = LoopPath(np.tile([0.4, 0.2], (16, 1)))
    assert np.all(action_gradient(u, harmonic_spec) == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(12):
        spec = random_admissible_spec(rng)
        u = random_loop(16, spec.n, rng, mean_scale=0.3)
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
        u = random_loop(int(rng.choice([16, 32, 64])), spec.n, rng,
                        mean_scale=float(rng.uniform(0.0, 0.5)))
        lhs = float(np.vdot(action_gradient(u, spec), u.nodes))
        rhs = 2.0 * dirichlet_energy(u) * (spec.h - constraint_value(u, spec))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_constraint_gradient_matches_finite_differences():
    # The 1e-4 ray step of hessian_ray leaves errors up to ~3.2e-9 of the
    # largest entry on these loops; the outer differences add ~5e-11.
    rng = np.random.default_rng(103)
    for _ in range(12):
        spec = random_admissible_spec(rng)
        u = random_loop(16, spec.n, rng, mean_scale=0.3)
        grad = constraint_gradient(u, spec)
        fd = fd_gradient(constraint_value, u, spec, step=1e-5)
        assert np.abs(grad - fd).max() / np.abs(grad).max() < 5e-9


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


def test_scaling_root_searches_one_direction(monkeypatch):
    # The sign of g(u) - h picks the bracket's direction, so a loop just off
    # the set costs about the same on either side.
    spec = ProblemSpec(PowerLawPotential(0.5, 3, 0, n=3), 3, 1.0, 3.0, 0.0, "e2")
    u = project_symmetric(random_loop(256, 3, np.random.default_rng(0)), "e2")
    on_set = scaling_root(u, spec) * u.nodes
    calls = count_calls(monkeypatch, functional, "constraint_value")
    for lam in (1.02, 0.98):
        calls.clear()
        a = scaling_root(LoopPath(lam * on_set), spec)
        assert a == pytest.approx(1.0 / lam, rel=1e-10)
        assert len(calls) <= 45


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


def test_scaling_root_homogeneity():
    rng = np.random.default_rng(7)
    spec = ProblemSpec(PowerLawPotential(0.6, 3, 0, n=2), 2, 1.3, 3.0, 0.0)
    u = random_loop(32, 2, rng, mean_scale=0.2)
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
    gap = constraint_distance(u, GradientSphere(2 * math.pi), harmonic_spec)
    assert gap == pytest.approx(abs(2 * 256 * math.sin(math.pi / 256) - 2 * math.pi), rel=1e-10)
    assert gap < 1e-3
    with pytest.raises(ZeroLoopError):
        constraint_distance(zero_loop(16, 2), None, harmonic_spec)


def test_cps_records(harmonic_spec):
    def record(trace, u, iteration):
        return cps_append(trace, u, harmonic_spec, None, iteration,
                          action_gradient(u, harmonic_spec))

    trace = []
    rec = record(trace, zero_loop(16, 2), 0)
    assert rec.f_value == 0.0
    assert rec.loop_norm == 0.0
    assert rec.weighted_gradient == 0.0
    rec2 = record(trace, circle_loop(16, 2), 1)
    assert rec2.weighted_gradient >= 0.0
    with pytest.raises(ValueError):
        record(trace, circle_loop(16, 2), 1)
    rec3 = record([], circle_loop(256, 2), 0)
    assert rec3.weighted_gradient <= 1e-6


def test_cps_record_on_the_set_needs_no_root(monkeypatch, harmonic_spec):
    # On the set, the residual's one constraint evaluation also settles the
    # distance proxy; off the set the proxy is still the gap along the ray.
    u = circle_loop(64, 2)
    on_set = LoopPath(scaling_root(u, harmonic_spec) * u.nodes)
    off_set = LoopPath(1.5 * on_set.nodes)
    grads = [action_gradient(v, harmonic_spec) for v in (on_set, off_set)]
    roots = count_calls(monkeypatch, functional, "scaling_root")
    evals = count_calls(monkeypatch, functional, "constraint_value")
    rec = cps_append([], on_set, harmonic_spec, None, 0, grads[0])
    assert rec.distance_proxy == 0.0
    assert rec.constraint_residual <= functional.root_tolerance(harmonic_spec)
    assert (len(roots), len(evals)) == (0, 1)
    rec = cps_append([], off_set, harmonic_spec, None, 0, grads[1])
    assert len(roots) == 1
    assert rec.distance_proxy == constraint_distance(off_set, None, harmonic_spec) > 0.0


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
    u = random_loop(40, 2, rng, mean_scale=0.3)
    f0 = action(u, harmonic_spec)
    g0 = action_gradient(u, harmonic_spec)
    for j in (1, 13, 39):
        moved = shift(u, j)
        assert action(moved, harmonic_spec) == f0
        assert np.array_equal(action_gradient(moved, harmonic_spec),
                              np.roll(g0, -j, axis=0))


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
