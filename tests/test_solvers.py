import math

import numpy as np
import pytest

from hamorbit import (
    BaseThroughOriginError,
    EndpointGrowthError,
    GradientSphere,
    LoopPath,
    PathCollapseError,
    PowerLawPotential,
    ProblemSpec,
    SolveOptions,
    ZeroLoopError,
    action,
    build_endpoint,
    circle_loop,
    minimize_on_nehari,
    mountain_pass,
    parse_potential,
    project_symmetric,
    separation_check,
    synthesize,
    zero_loop,
)
from hamorbit import solvers
from hamorbit.solvers import _PathMax
from conftest import count_calls, mode_one_loop


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(armijo=0.7)
    with pytest.raises(ValueError):
        SolveOptions(step_shrink=1.0)
    with pytest.raises(ValueError):
        SolveOptions(path_points=4)
    with pytest.raises(ValueError):
        SolveOptions(initial_loop="spiral")


def test_minimize_requires_symmetry(harmonic_spec):
    free = ProblemSpec(harmonic_spec.potential, 2, 1.0, 2.0, 0.0, "none")
    with pytest.raises(ValueError):
        minimize_on_nehari(free)


def test_minimize_needs_no_ray_hessian(monkeypatch):
    # The ray constraint is the Nehari set, so descent never differentiates it.
    def forbidden(*args, **kwargs):
        raise AssertionError("hessian_ray called by the constrained solve")

    monkeypatch.setattr("hamorbit.functional.hessian_ray", forbidden)
    spec = ProblemSpec(PowerLawPotential(0.5, 3, 0, n=3), 3, 1.0, 3.0, 0.0, "e2")
    rep = minimize_on_nehari(
        spec, SolveOptions(initial_loop="random_bandlimited", seed=1), n_nodes=64)
    assert rep.converged and rep.f_value > 0.0


def test_minimize_harmonic_circle_init(harmonic_spec):
    rep = minimize_on_nehari(harmonic_spec, SolveOptions(), n_nodes=256)
    assert rep.converged
    assert abs(rep.f_value - math.pi**2) / math.pi**2 < 1e-3
    radii = np.linalg.norm(rep.loop.nodes, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-3  # radius-1 circle up to phase


def test_minimize_harmonic_random_init_same_level(harmonic_spec):
    ref = minimize_on_nehari(harmonic_spec, SolveOptions(), n_nodes=256)
    rand = minimize_on_nehari(
        harmonic_spec,
        SolveOptions(initial_loop="random_bandlimited", seed=5),
        n_nodes=256,
    )
    assert rand.converged
    assert abs(rand.f_value - ref.f_value) < 1e-3


def test_minimize_quartic_validates_as_orbit(quartic_spec):
    rep = minimize_on_nehari(quartic_spec, SolveOptions(), n_nodes=256)
    assert rep.converged
    assert rep.f_value > 0.0
    orb = synthesize(rep.loop, quartic_spec)
    assert abs(orb.period - 2 * math.pi) / (2 * math.pi) < 1e-3
    assert orb.ode_sup <= 1e-2 and orb.energy_sup <= 1e-2


def test_minimize_monotone_descent_and_constraint(harmonic_spec):
    rep = minimize_on_nehari(
        harmonic_spec,
        SolveOptions(initial_loop="random_bandlimited", seed=11),
        n_nodes=128,
    )
    assert rep.converged
    fs = [r.f_value for r in rep.trace]
    assert all(a >= b - 1e-12 * (1 + abs(a)) for a, b in zip(fs, fs[1:]))
    tol = 1e-10 * (1 + abs(harmonic_spec.h))
    assert all(r.constraint_residual <= tol for r in rep.trace)
    assert rep.trace[-1].weighted_gradient <= rep.trace[0].weighted_gradient
    assert rep.trace[-1].distance_proxy <= 1e-10


def test_minimize_symmetry_closure(harmonic_spec):
    rep = minimize_on_nehari(
        harmonic_spec,
        SolveOptions(initial_loop="random_bandlimited", seed=13),
        n_nodes=64,
    )
    assert rep.converged
    assert rep.max_symmetry_drift <= 1e-8
    proj = project_symmetric(rep.loop, "e1")
    assert np.abs(rep.loop.nodes - proj.nodes).max() <= 1e-12


def test_minimize_e2_class():
    spec = ProblemSpec(PowerLawPotential(0.5, 2, 0, n=2), 2, 1.0, 2.0, 0.0, "e2")
    rep = minimize_on_nehari(spec, SolveOptions(), n_nodes=128)
    assert rep.converged
    assert abs(rep.f_value - math.pi**2) / math.pi**2 < 1e-3
    # odd loops vanish at t = 0 and t = 1/2
    assert np.linalg.norm(rep.loop.nodes[0]) < 1e-10
    assert np.linalg.norm(rep.loop.nodes[64]) < 1e-10


def test_minimize_rejects_vanishing_initial(harmonic_spec):
    const = LoopPath(np.tile([1.0, 0.5], (64, 1)))
    with pytest.raises(ZeroLoopError):
        minimize_on_nehari(harmonic_spec, SolveOptions(), initial=const)


def test_minimize_hypothesis_violation_reported():
    bad = ProblemSpec(parse_potential("0 - |q|^2", 2), 2, 1.0, 2.0, 0.0, "e1")
    rep = minimize_on_nehari(bad, SolveOptions(), n_nodes=64)
    assert rep.termination == "hypothesis_violation"
    assert "E_NO_BRACKET" in rep.message


def test_minimize_max_iter(harmonic_spec):
    rep = minimize_on_nehari(
        harmonic_spec,
        SolveOptions(initial_loop="random_bandlimited", seed=1, max_iterations=2),
        n_nodes=64,
    )
    assert rep.termination == "max_iter"
    assert rep.iterations == 2


def test_build_endpoint_doubling(harmonic_spec, quartic_spec):
    base = circle_loop(64, 2)
    z1 = build_endpoint(harmonic_spec, base)
    assert np.abs(np.linalg.norm(z1.nodes, axis=1) - 2.0).max() < 1e-12
    assert action(z1, harmonic_spec) <= 0.0
    z1q = build_endpoint(quartic_spec, base)
    assert np.abs(np.linalg.norm(z1q.nodes, axis=1) - 2.0).max() < 1e-12


def test_build_endpoint_errors(harmonic_spec):
    nodes = np.array(circle_loop(32, 2).nodes)
    nodes[5] = 0.0  # one node exactly at the origin
    with pytest.raises(BaseThroughOriginError):
        build_endpoint(harmonic_spec, LoopPath(nodes))
    bounded = ProblemSpec(parse_potential("1/(1 + |q|^2)", 2), 2, 1.0, 2.0, 0.0)
    with pytest.raises(EndpointGrowthError):
        build_endpoint(bounded, circle_loop(32, 2))


def test_separation_certificates(harmonic_spec):
    z0 = zero_loop(256, 2)
    two = LoopPath(2.0 * circle_loop(256, 2).nodes)
    ok_sphere, cert = separation_check(z0, two, GradientSphere(2 * math.pi), harmonic_spec)
    assert ok_sphere
    # both endpoints inside a radius-10 sphere: no separation, with certificate
    half = LoopPath(0.5 * circle_loop(256, 2).nodes)
    ok_small, cert = separation_check(z0, half, GradientSphere(10.0), harmonic_spec)
    assert not ok_small
    assert cert["speed_z0"] < 10.0 and cert["speed_z1"] < 10.0


def test_segment_max_grid_or_bisect(harmonic_spec, monkeypatch):
    real = solvers.action
    calls = count_calls(monkeypatch, solvers, "action")
    pmax = _PathMax(harmonic_spec)
    circle = circle_loop(64, 2).nodes
    zero = np.zeros_like(circle)
    # Rising to the far end: the grid maximum is the answer, with no
    # evaluation past the grid.
    value, tau = pmax.segment_max(zero, 0.5 * circle)
    assert tau == 1.0 and len(calls) == 9
    assert value == real(LoopPath(0.5 * circle), harmonic_spec)
    # An interior top at radius sqrt(h) = 1 is bisected on the derivative.
    value, tau = pmax.segment_max(zero, 3.0 * circle)
    assert abs(tau - 1.0 / 3.0) <= 1e-12
    assert value == pytest.approx(math.pi**2, rel=1e-3)


@pytest.mark.parametrize("m", [15, 16])
def test_mountain_pass_harmonic(harmonic_spec, m):
    z0 = zero_loop(256, 2)
    z1 = build_endpoint(harmonic_spec, circle_loop(256, 2))
    rep = mountain_pass(harmonic_spec, z0, z1, SolveOptions(path_points=m))
    assert rep.converged
    assert abs(rep.f_value - math.pi**2) / math.pi**2 < 1e-2
    assert rep.trace[-1].weighted_gradient <= 1e-4
    gs = rep.gamma_history
    assert all(a >= b for a, b in zip(gs, gs[1:]))
    assert gs[-1] >= max(action(z0, harmonic_spec), action(z1, harmonic_spec))
    orb = synthesize(rep.loop, harmonic_spec)
    assert orb.ode_sup <= 1e-2 and orb.energy_sup <= 1e-2


def test_mountain_pass_deforms_to_offpath_critical_point(quartic_spec):
    # Ellipse-based endpoint: no critical point on the initial path, so the
    # path genuinely deforms.  First-order minimax descent flattens out near
    # rounding, so this stress case runs at a 1e-5 gradient tolerance.
    z0 = zero_loop(96, 2)
    base = mode_one_loop(96, (2.0, 1.0))
    z1 = build_endpoint(quartic_spec, base)
    rep = mountain_pass(quartic_spec, z0, z1,
                        SolveOptions(path_points=10, gradient_tolerance=1e-5))
    assert rep.converged
    assert rep.iterations >= 1  # genuine deformation happened
    assert rep.f_value > 0.0
    assert rep.trace[-1].weighted_gradient <= 1e-4
    gs = rep.gamma_history
    assert all(a >= b for a, b in zip(gs, gs[1:]))
    orb = synthesize(rep.loop, quartic_spec)
    assert orb.ode_sup <= 1e-2 and orb.energy_sup <= 1e-2
    assert orb.nonconstant


def test_mountain_pass_separation_failures(harmonic_spec):
    z0 = zero_loop(128, 2)
    z1 = build_endpoint(harmonic_spec, circle_loop(128, 2))
    with pytest.raises(PathCollapseError):
        mountain_pass(harmonic_spec, z0, z1, SolveOptions(), sphere=GradientSphere(20.0))
    with pytest.raises(PathCollapseError):
        mountain_pass(harmonic_spec, z0, z0, SolveOptions())
    # an endpoint on the mountain itself is rejected
    with pytest.raises(PathCollapseError):
        mountain_pass(harmonic_spec, z0, circle_loop(128, 2), SolveOptions())


def test_mountain_pass_matches_minimization_level(harmonic_spec):
    ref = minimize_on_nehari(harmonic_spec, SolveOptions(), n_nodes=128)
    z0 = zero_loop(128, 2)
    z1 = build_endpoint(harmonic_spec, circle_loop(128, 2))
    rep = mountain_pass(harmonic_spec, z0, z1, SolveOptions(path_points=15))
    assert abs(rep.f_value - ref.f_value) <= 1e-2 * ref.f_value


def test_symmetry_classes_find_distinct_orbits(quartic_spec):
    """The power-law family supports at least two distinct orbits: the e1
    route finds the circular one, the e2 route a through-origin oscillation.
    Compared via radius profiles, which are phase- and rotation-invariant."""
    e1 = minimize_on_nehari(quartic_spec, SolveOptions(), n_nodes=128)
    spec_e2 = ProblemSpec(quartic_spec.potential, 2, 0.75, 4.0, 0.0, "e2")
    e2 = minimize_on_nehari(spec_e2, SolveOptions(), n_nodes=128)
    assert e1.converged and e2.converged
    r1 = np.sort(np.linalg.norm(e1.loop.nodes, axis=1))
    r2 = np.sort(np.linalg.norm(e2.loop.nodes, axis=1))
    assert np.abs(r1 - r2).max() > 0.1
    assert abs(e1.f_value - e2.f_value) > 0.5
