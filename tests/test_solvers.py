import hashlib
import math

import numpy as np
import pytest

from hamorbit import (
    BaseThroughOriginError,
    DomainError,
    EndpointGrowthError,
    LoopPath,
    NoBracketError,
    OddNodeCountError,
    PathCollapseError,
    PotentialModel,
    PowerLawPotential,
    ProblemSpec,
    SolveOptions,
    ZeroLoopError,
    action,
    build_endpoint,
    circle_loop,
    integrate,
    minimize_on_nehari,
    mountain_pass,
    parse_potential,
    project_symmetric,
    random_loop,
    separation_check,
    synthesize,
    zero_loop,
)
from hamorbit import functional, loopspace, solvers
from hamorbit.orbit import orbit_period
from hamorbit.solvers import _PathMax, _redistribute
from conftest import count_calls, mode_one_loop, random_loop_with_mean


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(path_points=4)
    with pytest.raises(ValueError):
        SolveOptions(initial_loop="spiral")
    with pytest.raises(ValueError, match="max_iterations must be positive"):
        SolveOptions(max_iterations=0)


def test_minimize_requires_symmetry(harmonic_spec):
    free = ProblemSpec(harmonic_spec.potential, 2, 1.0, 2.0, 0.0, "none")
    with pytest.raises(ValueError):
        minimize_on_nehari(free)


def test_minimize_needs_no_ray_hessian(monkeypatch, cubic_spec):
    # The ray constraint is the Nehari set, so descent never differentiates it.
    def forbidden(*args, **kwargs):
        raise AssertionError("hessian_ray called by the constrained solve")

    monkeypatch.setattr("hamorbit.functional.hessian_ray", forbidden)
    rep = minimize_on_nehari(
        cubic_spec, SolveOptions(initial_loop="random_bandlimited", seed=1), n_nodes=64)
    assert rep.converged and rep.f_value > 0.0


def test_constrained_iterations_do_not_grow_with_n(cubic_spec, expression_spec):
    # The first search starts at the unit step N of the H^1 metric and the
    # later ones at the long Barzilai-Borwein step in that metric, so the
    # count is bounded at every N: the cubic takes 6-9 iterations from these
    # starts at each size, and the expression 8-16.
    for spec, sizes, bound in ((cubic_spec, (16, 64, 256, 1024), 10),
                               (expression_spec, (16, 64, 256), 16)):
        for seed in range(5):
            opts = SolveOptions(initial_loop="random_bandlimited", seed=seed)
            for n_nodes in sizes:
                rep = minimize_on_nehari(spec, opts, n_nodes=n_nodes)
                assert rep.converged and rep.iterations <= bound, (seed, n_nodes)


def _cubic_at(h):
    return ProblemSpec(PowerLawPotential(0.5, 3, 0, n=3), 3, h, 3.0, 0.0, "e2")


@pytest.mark.parametrize("n_nodes", [64, 256])
@pytest.mark.parametrize("init, seed", [("circle", 0), ("random_bandlimited", 0),
                                        ("random_bandlimited", 1), ("random_bandlimited", 2)])
def test_constrained_solution_scales_with_the_energy(n_nodes, init, seed):
    # V = a|q|^mu and h = lambda^mu give f_h(lambda u) = lambda^2 h f_1(u)
    # exactly, so at h = 8, lambda = 2: f*_8 = 32 f*_1, the period scales by
    # lambda^(1 - mu/2) = 2^(-1/2) and the loop by 2.  Random starts land on
    # other rotations of the degenerate e2 orbit, so only the circle start
    # compares positions.  Measured: levels within 1 ulp, periods within
    # 8.3e-13, the circle's loop within 5.1e-13.
    opts = SolveOptions(initial_loop=init, seed=seed)
    one, eight = (minimize_on_nehari(_cubic_at(h), opts, n_nodes=n_nodes) for h in (1.0, 8.0))
    assert one.converged and eight.converged
    assert abs(eight.f_value / (32.0 * one.f_value) - 1.0) <= 4 * np.finfo(float).eps
    periods = [orbit_period(rep.loop, _cubic_at(h)) for rep, h in ((one, 1.0), (eight, 8.0))]
    assert periods[1] / periods[0] * math.sqrt(2.0) == pytest.approx(1.0, rel=0, abs=1e-11)
    if init == "circle":
        twice = 2.0 * one.loop.nodes
        assert np.max(np.abs(eight.loop.nodes - twice)) <= 1e-12 * np.max(np.abs(twice))


def test_nehari_descent_preconditions_once_per_iteration(monkeypatch, expression_spec):
    # The long Barzilai-Borwein step needs no Sobolev solve of its own: the
    # search direction is the only one.
    solves = count_calls(monkeypatch, solvers, "sobolev_precondition")
    rep = minimize_on_nehari(_descent_only(expression_spec), SolveOptions(), n_nodes=64)
    assert rep.converged and len(solves) == rep.iterations == 17


def test_constrained_converges_from_floor_starts(cubic_spec):
    # From these starts the line search once stalled with the weighted
    # gradient just above the tolerance; bisected roots, whose residuals sit
    # near the root tolerance, were part of the cause.
    for seed in (876, 1328, 1660):
        opts = SolveOptions(initial_loop="random_bandlimited", seed=seed)
        assert minimize_on_nehari(cubic_spec, opts, n_nodes=64).converged


def test_level_converges_at_second_order(expression_spec, cubic_spec):
    # Successive level differences over N = 64, 256, 1024 shrink by 4^2.
    for spec in (expression_spec, cubic_spec):
        reps = [minimize_on_nehari(spec, SolveOptions(), n_nodes=N) for N in (64, 256, 1024)]
        assert all(rep.converged for rep in reps)
        f64, f256, f1024 = (rep.f_value for rep in reps)
        assert 15.0 <= (f256 - f64) / (f1024 - f256) <= 17.0


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


def test_minimize_symmetry_closure(monkeypatch, harmonic_spec):
    # Each trial step leaves the symmetry class by at most 1e-8 before its
    # projection: the preconditioned gradient stays in the class.
    defects = []
    real = solvers.project_symmetric

    def recorded(u, symmetry):
        projected = real(u, symmetry)
        defects.append(float(np.abs(u.nodes - projected.nodes).max()))
        return projected

    monkeypatch.setattr(solvers, "project_symmetric", recorded)
    rep = minimize_on_nehari(
        harmonic_spec,
        SolveOptions(initial_loop="random_bandlimited", seed=13),
        n_nodes=64,
    )
    assert rep.converged
    trials = defects[1:]  # the start's projection is no trial
    assert trials and max(trials) <= 1e-8
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


def test_minimize_rejects_a_start_projected_to_rounding_noise():
    # The 1-D circle cos t is even, so its odd part is rounding noise of
    # speed 2.3e-15: no loop to start from, whatever np.any says of it.
    spec = ProblemSpec(parse_potential("0.5*q1^2+0.1*q1^4", 1), 1, 1.0, 2.0, 0.0, "e2")
    assert np.any(project_symmetric(circle_loop(16, 1), "e2").nodes)
    with pytest.raises(ZeroLoopError, match="vanishes after symmetry projection"):
        minimize_on_nehari(spec, SolveOptions(), n_nodes=16)


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


def _record(weighted_gradient, f_value, it):
    return functional.CpsRecord(it, f_value, 1.0, weighted_gradient, 0.0, 0.0)


@pytest.mark.parametrize("weighted_gradient, loop, f_value, it, end", [
    (1e-7, circle_loop(64, 2), 9.0, 3, ("converged", "")),
    (1e-7, LoopPath(np.ones((64, 2))), 9.0, 3,
     ("hypothesis_violation", "stationary point is constant or has nonpositive level")),
    (1e-7, circle_loop(64, 2), 0.0, 3,
     ("hypothesis_violation", "stationary point is constant or has nonpositive level")),
    (1e-7, circle_loop(64, 2), 9.0, 5, ("converged", "")),
    (1e-5, circle_loop(64, 2), 9.0, 5, ("max_iter", "iteration budget exhausted")),
    (1e-5, circle_loop(64, 2), -1.0, 4, None),
])
def test_stationarity_gate(weighted_gradient, loop, f_value, it, end):
    opts = SolveOptions(max_iterations=5, gradient_tolerance=1e-6)
    assert solvers._stop(_record(weighted_gradient, f_value, it), loop, opts) == end


def _failing_nehari(monkeypatch, spec, error):
    """A Nehari solve whose ray projection raises ``error`` from its ninth
    call on, so every line-search trial after a few iterations fails."""
    calls = []
    real = solvers.ray_landing

    def failing(*args):
        calls.append(args)
        if len(calls) > 8:
            raise error
        return real(*args)

    monkeypatch.setattr(solvers, "ray_landing", failing)
    opts = SolveOptions(initial_loop="random_bandlimited", seed=2)
    return minimize_on_nehari(spec, opts, n_nodes=64)


def test_minimize_bracket_failure_mid_descent(monkeypatch, expression_spec):
    rep = _failing_nehari(monkeypatch, expression_spec,
                          NoBracketError("no sign change", [(1.0, 0.5)]))
    assert rep.termination == "hypothesis_violation"
    assert rep.message == "E_NO_BRACKET: no sign change"
    assert rep.iterations == 7 == len(rep.trace) - 1
    assert rep.f_value == rep.trace[-1].f_value == action(rep.loop, expression_spec)
    assert rep.f_value == pytest.approx(8.769486636242528, rel=1e-12)


def test_minimize_every_trial_failing_stalls(monkeypatch, expression_spec):
    rep = _failing_nehari(monkeypatch, expression_spec, DomainError("outside"))
    assert rep.termination == "max_iter"
    assert rep.message == "line search stalled below machine step"
    assert rep.iterations == 7 == len(rep.trace) - 1
    assert rep.f_value == rep.trace[-1].f_value == action(rep.loop, expression_spec)
    assert rep.f_value == pytest.approx(8.769486636242528, rel=1e-12)


def test_each_trial_projects_once(monkeypatch, harmonic_spec):
    projections = count_calls(monkeypatch, solvers, "project_symmetric")
    landings = count_calls(monkeypatch, solvers, "ray_landing")
    minimize_on_nehari(
        harmonic_spec,
        SolveOptions(initial_loop="random_bandlimited", seed=0, max_iterations=5),
        n_nodes=64,
    )
    # The start, then one line-search trial per landing: one projection each.
    assert len(landings) >= 6 and len(projections) == len(landings)


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


def test_separation_certificates():
    z0 = zero_loop(256, 2)
    two = LoopPath(2.0 * circle_loop(256, 2).nodes)
    ok_sphere, cert = separation_check(z0, two, 2 * math.pi)
    assert ok_sphere
    # both endpoints inside a radius-10 sphere: no separation, with certificate
    half = LoopPath(0.5 * circle_loop(256, 2).nodes)
    ok_small, cert = separation_check(z0, half, 10.0)
    assert not ok_small
    assert cert["speed_z0"] < 10.0 and cert["speed_z1"] < 10.0


def _point_counts(monkeypatch, cls, name):
    """Patch the potential method ``cls.name`` to record the number of
    points of each call; returns that list."""
    sizes = []
    real = getattr(cls, name)

    def counted(self, q):
        sizes.append(len(q))
        return real(self, q)

    monkeypatch.setattr(cls, name, counted)
    return sizes


def test_segment_max_grid_or_root(harmonic_spec, monkeypatch):
    sizes = _point_counts(monkeypatch, PowerLawPotential, "value")
    gradients = _point_counts(monkeypatch, PowerLawPotential, "value_and_gradient")
    pmax = _PathMax(harmonic_spec)
    circle = circle_loop(64, 2).nodes
    zero = np.zeros_like(circle)
    # Rising to the far end: the grid is one potential call and its maximum
    # is the answer; past the grid both bracket ends are evaluated, in one
    # fused pass.
    (value,), (tau,) = pmax.segment_max([zero, 0.5 * circle])
    assert tau == 1.0 and sizes == [9 * 64] and gradients == [2 * 64]
    assert value == action(LoopPath(0.5 * circle), harmonic_spec)
    # An interior top at radius sqrt(h) = 1 is a root of the derivative.
    del gradients[:]
    (value,), (tau,) = pmax.segment_max([zero, 3.0 * circle])
    assert abs(tau - 1.0 / 3.0) <= 1e-12 and len(gradients) <= 12
    assert value == pytest.approx(math.pi**2, rel=1e-3)


def _random_path(spec, rng, radii):
    return [r * random_loop(64, spec.n, rng).nodes for r in radii]


def test_batched_segment_maxima_match_segment_by_segment(expression_spec, cubic_spec):
    rng = np.random.default_rng(3)
    for spec in (expression_spec, cubic_spec):
        pmax = _PathMax(spec)
        for _ in range(3):
            path = _random_path(spec, rng, np.linspace(0.2, 2.5, 9))
            values, taus = pmax.segment_max(path)
            single = [pmax.segment_max(path[i:i + 2]) for i in range(len(path) - 1)]
            assert values.tolist() == [v[0] for v, _ in single]  # bit for bit
            assert taus.tolist() == [t[0] for _, t in single]
            assert values.tolist() == [
                action(LoopPath((1.0 - t) * a + t * b), spec)
                for t, a, b in zip(taus, path, path[1:])]
            assert not set(taus.tolist()) <= set(_PathMax.GRID.tolist())  # a refined top


@pytest.mark.parametrize("shift", [1, 7, 16, 33])
def test_segment_maxima_are_covariant_under_a_time_shift(expression_spec, cubic_spec, shift):
    # Shifting every node of a path in time leaves each segment's functional
    # unchanged in real arithmetic; only the order of the sums moves.  So
    # the shifted path's maxima lie within 4 ulp and their taus within
    # 1e-12, an oracle that needs no pinned bits.
    rng = np.random.default_rng(3)
    for spec in (expression_spec, cubic_spec):
        pmax = _PathMax(spec)
        path = np.array(_random_path(spec, rng, np.linspace(0.2, 2.5, 9)))
        values, taus = pmax.segment_max(path)
        assert np.isin(taus, _PathMax.GRID, invert=True).sum() >= 5  # located tops
        moved, moved_taus = pmax.segment_max(loopspace.periodic_shift(path, shift))
        assert all(abs(x - y) <= 4 * math.ulp(x) for x, y in zip(values, moved))
        assert np.abs(taus - moved_taus).max() <= 1e-12


def _recorded_searches(monkeypatch):
    """Patch the top search to record the points each search probes; returns
    the list of their lists, one per search."""
    searches = []
    real = solvers._top_search

    def recorded(slope, *args):
        probes = []
        searches.append(probes)

        def probe(t):
            probes.append(t)
            return slope(t)

        return real(probe, *args)

    monkeypatch.setattr(solvers, "_top_search", recorded)
    return searches


def test_a_top_search_slope_has_the_bits_of_the_batched_slopes(monkeypatch, expression_spec,
                                                              cubic_spec):
    # Each top search takes f' = A'B + AB' from its own slope(t) on floats,
    # and _PathMax._slopes takes it at the bracket ends of every segment in
    # one vectorised pass: the two forms agree to the bit at every probe of
    # a one-segment node list.  They stay apart for speed: searching all
    # tops together through _slopes cut the benchmark case's slope passes
    # from 123 to 104, but made mountain-pass-expr's solve_s about 14%
    # slower (6 pairs: 0.0423 -> 0.0482 s).
    probes = []
    real = solvers._top_search

    def recorded(slope, *args):
        def probe(t):
            probes.append((t, slope(t)))
            return probes[-1][1]

        return real(probe, *args)

    monkeypatch.setattr(solvers, "_top_search", recorded)
    for spec in (expression_spec, cubic_spec):
        probes.clear()
        pmax = _PathMax(spec)
        nodes = np.array(_random_path(spec, np.random.default_rng(3), [0.2, 2.5]))
        pmax.segment_max(nodes)
        assert len(probes) >= 5
        coefficients = solvers._coefficients(nodes)
        for t, got in probes:
            want = pmax._slopes(nodes[:1], nodes[1:], coefficients, np.array([0]),
                                np.array([t]))[0]
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("amplitudes", [(2.0, 1.0), (1.5, 1.0), (3.0, 1.0), (1.2, 0.7)])
@pytest.mark.parametrize("path_points", [15, 16, 20])
def test_harmonic_top_is_the_root_of_the_slope(monkeypatch, harmonic_spec, amplitudes,
                                               path_points):
    # V = |q|^2 / 2 on the straight path s z1, s in [0, 1]: A = s^2 A(z1) and
    # B = h - s^2 M, M the mean of V(z1), so B is exactly quadratic and f'
    # vanishes at s^2 = h / (2 M).  The search starts at the grid parabola's
    # vertex and lands on that root within 1e-14 in at most 4 slope passes
    # (at 8 and 12 path points, some of these segments take 5).
    searches = _recorded_searches(monkeypatch)
    z1 = build_endpoint(harmonic_spec, mode_one_loop(64, amplitudes)).nodes
    s = np.linspace(0.0, 1.0, path_points + 1)
    values, taus = _PathMax(harmonic_spec).segment_max([x * z1 for x in s])
    top = int(np.argmax(values))
    root = math.sqrt(harmonic_spec.h / (2.0 * integrate(0.5 * np.sum(z1 * z1, axis=1))))
    assert abs(taus[top] - (root - s[top]) / (s[top + 1] - s[top])) <= 1e-14
    assert len(searches) == 1 and 1 <= len(searches[0]) <= 4


def test_top_search_stops_where_the_slope_has_no_value():
    # The first probe 0.5 has a value, the next one (0.4) none: the search
    # returns the last point that had one, with its B.
    def slope(t):
        return (0.3 - t, 2.0 * t) if t > 0.45 else None

    assert solvers._top_search(slope, 0.0, 1.0, 1.0, -1.0, 9.0, 0.5) == (0.5, 1.0)
    assert solvers._top_search(lambda t: None, 0.0, 1.0, 1.0, -1.0, 9.0, 0.5) == (1.0, 9.0)


def test_benchmark_tops_take_about_four_slope_passes(monkeypatch, expression_spec):
    # The benchmark case (expression e1, N=64, 16 path points) locates 29
    # tops in at most 130 search passes, and makes at most 160 slope passes
    # with the 31 batched bracket passes, in 14 iterations.  No probe moves
    # less than 1e-14 from the last.
    searches = _recorded_searches(monkeypatch)
    passes = count_calls(monkeypatch, solvers, "_gap_pass")
    rep = _expression_pass(expression_spec)
    assert (rep.termination, rep.iterations) == ("converged", 14)
    assert len(searches) == 29 and sum(map(len, searches)) <= 130
    assert len(passes) <= 160
    assert all(abs(x - y) >= 1e-14 for p in searches for x, y in zip(p, p[1:]))


def test_refresh_makes_one_grid_call(monkeypatch, cubic_spec):
    sizes = _point_counts(monkeypatch, PowerLawPotential, "value")
    path = _random_path(cubic_spec, np.random.default_rng(4), np.linspace(0.2, 2.5, 17))
    _PathMax(cubic_spec).segment_max(path)
    # The grids are the one value call: V once at each of the 17 nodes and
    # at the 7 interior grid points of each of the 16 segments.  The bracket
    # ends and the tops come from value_and_gradient passes, and each top's
    # value from the pass that located it.
    assert sizes == [(17 + 7 * 16) * 64]


def test_refresh_holds_a_candidate_to_its_ceiling(monkeypatch, cubic_spec):
    path = _random_path(cubic_spec, np.random.default_rng(4), np.linspace(0.2, 2.5, 17))
    pmax = _PathMax(cubic_spec)
    values, taus = pmax.segment_max(path)
    top = int(np.argmax(values))
    far = (top + 8) % 16
    window = values[far - 1:far + 2].max()
    assert window < values.max()
    # Accepted at the path's maximum, with every value and tau bit for bit.
    accepted = pmax.refresh(path, far, values.max())
    assert accepted[0].tolist() == values.tolist() and accepted[1].tolist() == taus.tolist()
    # Between the window's maximum and the path's, only the rest rejects.
    assert pmax.refresh(path, far, 0.5 * (window + values.max())) is None
    # Below a window's maximum the window alone rejects: one grid call of
    # three segments (4 nodes and 3 * 7 interior points), or two at the end
    # of the path.
    sizes = _point_counts(monkeypatch, PowerLawPotential, "value")
    assert pmax.refresh(path, far, window - 1.0) is None
    assert sizes == [(4 + 3 * 7) * 64]
    del sizes[:]
    assert pmax.refresh(path, 0, values[:2].max() - 1.0) is None
    assert sizes == [(3 + 2 * 7) * 64]


def test_refresh_rejected_by_the_left_slice_skips_the_right(monkeypatch, cubic_spec):
    path = np.array(_random_path(cubic_spec, np.random.default_rng(4),
                                 np.linspace(0.2, 2.5, 17)))
    pmax = _PathMax(cubic_spec)
    values, _ = pmax.segment_max(path)
    top = 12  # window: segments 11 to 13; left: 0 to 10; right: 14 and 15
    window = values[11:14].max()
    assert values[:11].max() > window >= values[14:].max()
    sizes = _point_counts(monkeypatch, PowerLawPotential, "value")
    assert pmax.refresh(path, top, window) is None
    # The window's grids, then the left slice's, are the only value calls;
    # the right slice's grids never come.
    assert sizes == [(4 + 3 * 7) * 64, (12 + 11 * 7) * 64]


def _closed_form(spec, a, b, t):
    """f((1-t) a + t b) as A(t) B(t): the Dirichlet energy in Bernstein form
    from A(a), A(b) and the cross term, times the exact mean energy gap."""
    N = len(a)
    da, db = np.roll(a, -1, axis=0) - a, np.roll(b, -1, axis=0) - b
    cross = 0.5 * N * math.fsum((da * db).ravel().tolist())
    ea, eb = loopspace.dirichlet_energy(LoopPath(a)), loopspace.dirichlet_energy(LoopPath(b))
    energy = (1.0 - t) ** 2 * ea + 2.0 * t * (1.0 - t) * cross + t**2 * eb
    x = (1.0 - t) * a + t * b
    return energy * (math.fsum((spec.h - spec.potential.value(x)).tolist()) / N)


def test_segment_grid_matches_pointwise_action(expression_spec, cubic_spec):
    # The grid is the closed form bit for bit, and within 4 ulp of the
    # action; at the ends it is the action to the bit.
    rng = np.random.default_rng(0)
    for spec in (expression_spec, cubic_spec):
        pmax = _PathMax(spec)
        for _ in range(10):
            a = 0.3 * random_loop(64, spec.n, rng).nodes
            b = 2.0 * random_loop(64, spec.n, rng).nodes
            grid = pmax.grids([a, b])[0].tolist()
            exact = [action(LoopPath((1.0 - t) * a + t * b), spec) for t in _PathMax.GRID]
            assert grid == [_closed_form(spec, a, b, t) for t in _PathMax.GRID]
            assert all(abs(g - f) <= 4 * math.ulp(f) for g, f in zip(grid, exact))
            assert (grid[0], grid[-1]) == (exact[0], exact[-1])


def test_closed_form_slopes_match_the_action_gradient(expression_spec, cubic_spec):
    # f'(t) = A'(t) B(t) + A(t) B'(t) against the tangential component of
    # the exact gradient, within 1e-12 of |A'B| + |AB'|, and B(t) to the bit.
    rng = np.random.default_rng(5)
    for spec in (expression_spec, cubic_spec):
        pmax = _PathMax(spec)
        for _ in range(10):
            a = 0.3 * random_loop(64, spec.n, rng).nodes
            b = 2.0 * random_loop(64, spec.n, rng).nodes
            ea, eb = loopspace.stacked_dirichlet_energy(np.array([a, b]))
            cross = loopspace.stacked_dirichlet_cross(a[None], b[None])[0]
            t = rng.uniform(size=4)
            slopes = pmax._slopes(a[None], b[None], (np.array([ea]), np.array([cross]),
                                                     np.array([eb])), np.zeros(4, int), t)
            for ti, (slope, gap) in zip(t, slopes):
                x = LoopPath((1.0 - ti) * a + ti * b)
                assert gap == integrate(spec.h - spec.potential.value(x.nodes))
                rate = solvers._bernstein_slope(ea, cross, eb, ti) * gap
                drift = loopspace.dirichlet_energy(x) * float(np.vdot(
                    spec.potential.gradient(x.nodes), b - a)) / len(a)
                exact = float(np.vdot(functional.action_gradient(x, spec), b - a))
                assert abs(slope - exact) <= 1e-12 * (abs(rate) + abs(drift))


def _domain_spec():
    return ProblemSpec(parse_potential("0.5*|q|^2 + 0.1*sqrt(4 - |q|^2)", 2),
                       2, 1.0, 2.0, 0.0, "e1")


def test_segment_grid_fails_only_outside_the_domain():
    spec = _domain_spec()
    pmax = _PathMax(spec)
    circle = circle_loop(64, 2).nodes
    a, b = 0.5 * circle, 3.0 * circle  # radius 0.5 + 2.5 t crosses 2 at t = 0.6
    values = pmax.grids([a, b])[0]
    inside = _PathMax.GRID <= 0.6
    assert np.all(values[~inside] == -np.inf) and inside.sum() == 5
    assert values[inside].tolist() == [
        action(LoopPath((1.0 - t) * a + t * b), spec) for t in _PathMax.GRID[inside]]


def test_only_the_segment_leaving_the_domain_falls_back(monkeypatch):
    spec = _domain_spec()
    pmax = _PathMax(spec)
    circle = circle_loop(64, 2).nodes
    path = [r * circle for r in (0.2, 0.8, 1.2, 3.0)]  # only the last leaves
    batched = pmax.grids(path)
    sizes = _point_counts(monkeypatch, type(spec.potential), "value")
    values, taus = pmax.segment_max(path)
    # The whole grid batch (4 nodes, 3 * 7 interior points), then the left
    # halves of each batch that raises, down to the five loops outside the
    # domain: node 3 and the last four interior points of segment 2
    # (indices 21-24).  A right half whose left half came back clean takes
    # its parent's error without a call.  The slopes and tops take no value
    # call.
    assert sizes == [k * 64 for k in (25, 12, 6, 3, 1, 2, 6, 13, 6, 3, 2, 1, 1, 2, 1, 1)]
    # Radius 1.2 + 1.8 t crosses 2 at t = 4/9.
    assert np.isneginf(batched[2]).tolist() == [False] * 4 + [True] * 5
    assert np.isfinite(batched[:2]).all()
    for i in range(3):
        assert batched[i].tolist() == pmax.grids(path[i:i + 2])[0].tolist()
        assert (values[i], taus[i]) == tuple(x[0] for x in pmax.segment_max(path[i:i + 2]))


def test_a_segment_whose_dirichlet_sum_overflows_has_no_maximum(harmonic_spec):
    # At radius 1e155 every node is finite, but the exactly rounded
    # Dirichlet sum leaves the float range: the segments that touch that
    # node have maximum -inf, and the others keep their own values.
    circle = circle_loop(64, 2).nodes
    path = [0.2 * circle, 0.8 * circle, 1e155 * circle]
    pmax = _PathMax(harmonic_spec)
    values, taus = pmax.segment_max(path)
    assert values[1] == -np.inf and taus[1] == 0.0
    (value,), (tau,) = pmax.segment_max(path[:2])
    assert (values[0], taus[0]) == (value, tau) and math.isfinite(value)


def test_trace_levels_are_the_action_of_each_iterate(monkeypatch, expression_spec):
    loops = []
    real = solvers.cps_append

    def recorded(trace, here, *args):
        loops.append(here.loop)
        return real(trace, here, *args)

    monkeypatch.setattr(solvers, "cps_append", recorded)
    opts = SolveOptions(initial_loop="random_bandlimited", seed=2, max_iterations=6)
    nehari = minimize_on_nehari(expression_spec, opts, n_nodes=64)
    z1 = build_endpoint(expression_spec, circle_loop(64, 2))
    mp = mountain_pass(expression_spec, zero_loop(64, 2), z1, opts)
    trace = nehari.trace + mp.trace
    assert len(trace) == len(loops) == 14
    assert [r.f_value for r in trace] == [action(u, expression_spec) for u in loops]


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
    # path genuinely deforms.
    z0 = zero_loop(96, 2)
    base = mode_one_loop(96, (2.0, 1.0))
    z1 = build_endpoint(quartic_spec, base)
    rep = mountain_pass(quartic_spec, z0, z1, SolveOptions(path_points=10))
    assert rep.converged
    assert 1 <= rep.iterations <= 16  # genuine deformation happened
    assert rep.f_value > 0.0
    assert rep.trace[-1].weighted_gradient <= 1e-6
    gs = rep.gamma_history
    assert all(a >= b for a, b in zip(gs, gs[1:]))
    orb = synthesize(rep.loop, quartic_spec)
    assert orb.ode_sup <= 1e-2 and orb.energy_sup <= 1e-2
    assert orb.nonconstant


def test_mountain_pass_descends_on_the_expression(expression_spec):
    # The path leaves the initial segment, and the top is located to
    # rounding all the way down to the critical level.
    z1 = build_endpoint(expression_spec, circle_loop(64, 2))
    rep = mountain_pass(expression_spec, zero_loop(64, 2), z1, SolveOptions())
    assert rep.converged and rep.iterations <= 16
    assert abs(rep.f_value - 7.9861812435587654) <= 1e-9
    gs = rep.gamma_history
    assert all(a >= b for a, b in zip(gs, gs[1:]))


# Exact mountain-pass results on the expression: the level's bits, the
# iterations and a sha256 of the hex gamma history, one line per sweep.
PINNED_PASSES = [
    (32, 16, "0x1.fdde6f77d67bap+2", 14,
     "1ef0e397a1b1fc33e78f3b764e93efc33bd40640e31cc428009b101a4d520139"),
    (48, 15, "0x1.fecaccfb3fcf9p+2", 18,
     "8da8b30a8ae25484871e26ff3e2eb0faabff8d7af5ddedf29019fe9aeb7ac9cc"),
    (64, 20, "0x1.ff1d97ef40dd4p+2", 15,
     "a6ccf6c8287cb073873b2e5f526cfa49f3ae84f392c5383da4a158c1794eed2b"),
    (128, 16, "0x1.ff6d761fc81a3p+2", 16,
     "d6aef904a8b81ceab84a514c1afe58c720eeb3a984f59977439b8fe6e0d56d27"),
]


@pytest.mark.parametrize("n_nodes, path_points, level, iterations, gammas", PINNED_PASSES)
def test_mountain_pass_results_are_pinned_bit_for_bit(expression_spec, n_nodes, path_points,
                                                      level, iterations, gammas):
    z1 = build_endpoint(expression_spec, circle_loop(n_nodes, 2))
    rep = mountain_pass(expression_spec, zero_loop(n_nodes, 2), z1,
                        SolveOptions(path_points=path_points, max_iterations=300))
    assert rep.converged
    assert (float.hex(rep.f_value), rep.iterations) == (level, iterations)
    history = "\n".join(float.hex(g) for g in rep.gamma_history)
    assert hashlib.sha256(history.encode()).hexdigest() == gammas
    # Each path maximum is the level of its sweep's record, in order, and
    # they never rise.
    levels = iter(r.f_value for r in rep.trace)
    assert all(gamma in levels for gamma in rep.gamma_history)
    assert all(x >= y for x, y in zip(rep.gamma_history, rep.gamma_history[1:]))
    # The other route, from the circle at the same N, reaches the same level.
    nehari = minimize_on_nehari(expression_spec, SolveOptions(), n_nodes=n_nodes)
    assert nehari.converged
    assert rep.f_value == pytest.approx(nehari.f_value, rel=1e-13, abs=0)


def _expression_pass(spec):
    z1 = build_endpoint(spec, circle_loop(64, 2))
    return mountain_pass(spec, zero_loop(64, 2), z1, SolveOptions())


def _recorded_refresh(monkeypatch, refresh, sizes=()):
    """Patch _PathMax.refresh with ``refresh``, recording for each candidate
    whether it was accepted and the sizes of the potential calls it made
    (from the list ``sizes`` that a counter fills)."""
    candidates = []

    def recorded(self, path, top, ceiling):
        start = len(sizes)
        maxima = refresh(self, path, top, ceiling)
        candidates.append((maxima is not None, sizes[start:]))
        return maxima

    monkeypatch.setattr(_PathMax, "refresh", recorded)
    return candidates


def _refresh_in_full(self, path, top, ceiling):
    # Every segment of the candidate, then the rule on all of them.
    values, taus = self.segment_max(path)
    if not values.max() <= ceiling:
        return None
    return values, taus


def _redistribute_per_segment(path):
    """Arc-length re-spacing of a node list, one segment at a time: the
    h1 norm of each difference (speed plus length of the exact mean) and
    one interpolation per interior point."""
    m = len(path) - 1
    seg = np.empty(m)
    for i in range(m):
        diff = path[i + 1] - path[i]
        d = np.roll(diff, -1, axis=0) - diff
        energy = 0.5 * len(diff) * math.fsum((d * d).ravel().tolist())
        mean = np.array([math.fsum(c) for c in diff.T.tolist()]) / len(diff)
        seg[i] = math.sqrt(2.0 * energy) + float(np.linalg.norm(mean))
    total = seg.sum()
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    out = [path[0]]
    for j in range(1, m):
        target = total * j / m
        i = min(int(np.searchsorted(cum, target, side="right") - 1), m - 1)
        theta = 0.0 if seg[i] == 0.0 else (target - cum[i]) / seg[i]
        out.append((1.0 - theta) * path[i] + theta * path[i + 1])
    out.append(path[m])
    return np.array(out)


def test_redistribute_is_the_per_segment_rule_bit_for_bit():
    # No symmetry: the loops have nonzero means, and one segment has length 0.
    rng = np.random.default_rng(14)
    path = np.array([r * random_loop_with_mean(40, 2, rng, 0.5).nodes
                     for r in (0.1, 0.3, 0.35, 0.5, 1.0, 1.1, 2.0, 2.2, 3.0)])
    path[3] = path[2]
    assert np.all(path.mean(axis=1) != 0.0)
    spaced = _redistribute(path)
    assert type(spaced) is np.ndarray and spaced.shape == path.shape
    assert spaced.tobytes() == _redistribute_per_segment(list(path)).tobytes()
    bad = path.copy()
    bad[4, 7, 1] = np.inf
    with pytest.raises(ValueError):
        _redistribute(bad)


def test_mountain_pass_keeps_its_path_as_one_array(monkeypatch, expression_spec):
    seen = []

    def recorded(path):
        seen.append((type(path), path.shape))
        return _redistribute(path)

    monkeypatch.setattr(solvers, "_redistribute", recorded)
    _expression_pass(expression_spec)
    assert seen and set(seen) == {(np.ndarray, (17, 64, 2))}


def test_window_first_refresh_keeps_every_outcome(monkeypatch, expression_spec):
    window_first = _recorded_refresh(monkeypatch, _PathMax.refresh)
    rep = _expression_pass(expression_spec)
    in_full = _recorded_refresh(monkeypatch, _refresh_in_full)
    ref = _expression_pass(expression_spec)
    decisions = [accepted for accepted, _ in window_first]
    assert decisions == [accepted for accepted, _ in in_full]
    assert True in decisions and False in decisions
    assert rep.gamma_history == ref.gamma_history
    assert rep.iterations == ref.iterations
    assert rep.loop.nodes.tobytes() == ref.loop.nodes.tobytes()


# potential.value points of the expression mountain pass at N=64 with the
# window-first check (485,312 when every candidate is evaluated in full).
EXPRESSION_PASS_VALUE_POINTS = 244_032


def test_rejected_candidates_evaluate_three_segments(monkeypatch, expression_spec):
    z1 = build_endpoint(expression_spec, circle_loop(64, 2))
    sizes = _point_counts(monkeypatch, type(expression_spec.potential), "value")
    candidates = _recorded_refresh(monkeypatch, _PathMax.refresh, sizes)
    mountain_pass(expression_spec, zero_loop(64, 2), z1, SolveOptions())
    rejected = [calls for accepted, calls in candidates if not accepted]
    assert rejected
    for calls in rejected:
        # One grid call of at most three segments, then their bracket ends
        # and tops.
        assert calls[0] <= 3 * 9 * 64 and all(c <= 3 * 64 for c in calls[1:])
    assert sum(sizes) <= 1.1 * EXPRESSION_PASS_VALUE_POINTS


def test_mountain_pass_separation_failures(harmonic_spec):
    z0 = zero_loop(128, 2)
    z1 = build_endpoint(harmonic_spec, circle_loop(128, 2))
    with pytest.raises(PathCollapseError):
        mountain_pass(harmonic_spec, z0, z1, SolveOptions(), radius=20.0)
    with pytest.raises(PathCollapseError):
        mountain_pass(harmonic_spec, z0, z0, SolveOptions())
    # an endpoint on the mountain itself is rejected
    with pytest.raises(PathCollapseError):
        mountain_pass(harmonic_spec, z0, circle_loop(128, 2), SolveOptions())


def test_mountain_pass_stalls_with_no_finite_trial_maximum(monkeypatch, expression_spec):
    # A trial's three segments come as a node list; from the third trial on,
    # none has a finite maximum.
    trials = []
    real = _PathMax.segment_max

    def no_finite_trial(self, nodes):
        if isinstance(nodes, list):
            trials.append(nodes)
            if len(trials) > 2:
                return np.full(2, -np.inf), np.zeros(2)
        return real(self, nodes)

    monkeypatch.setattr(_PathMax, "segment_max", no_finite_trial)
    rep = _expression_pass(expression_spec)
    assert rep.termination == "max_iter"
    assert rep.message == "line search stalled at the path maximum"
    assert rep.iterations == 2 == len(rep.trace) - 1
    assert rep.f_value == rep.gamma_history[-1] == rep.trace[-1].f_value
    assert rep.f_value == pytest.approx(9.218160810607307, rel=1e-12)


def test_mountain_pass_rejects_an_odd_e1_grid_before_any_sweep(monkeypatch, harmonic_spec):
    # On N=9 the harmonic circle is stationary at sweep 0, but no 9-node
    # loop is in the e1 class.
    segment_maxima = count_calls(monkeypatch, _PathMax, "segment_max")
    z1 = build_endpoint(harmonic_spec, circle_loop(9, 2))
    with pytest.raises(OddNodeCountError, match="even node count, got 9"):
        mountain_pass(harmonic_spec, zero_loop(9, 2), z1, SolveOptions())
    assert segment_maxima == []


@pytest.mark.parametrize("z0_nodes, z1_base, symmetry, name", [
    (None, circle_loop(64, 3), "e2", "z1"),
    (np.tile([0.1, 0.0], (64, 1)), circle_loop(64, 2), "e1", "z0"),
], ids=["circle_in_e2", "constant_in_e1"])
def test_mountain_pass_refuses_an_endpoint_outside_its_class(monkeypatch, z0_nodes, z1_base,
                                                             symmetry, name):
    # The circle is not odd, and a nonzero constant has no half-period
    # antisymmetry: the refusal comes before any evaluation of the functional.
    n = z1_base.nodes.shape[1]
    spec = ProblemSpec(PowerLawPotential(0.5, 3, 0, n=n), n, 1.0, 3.0, 0.0, symmetry)
    z0 = zero_loop(64, n) if z0_nodes is None else LoopPath(z0_nodes)
    z1 = build_endpoint(spec, z1_base)
    actions = count_calls(monkeypatch, solvers, "action")
    with pytest.raises(ValueError, match=f"endpoint {name} is not in the symmetry class "
                                         f"{symmetry}"):
        mountain_pass(spec, z0, z1, SolveOptions())
    assert actions == []


def test_mountain_pass_class_check_keeps_e1_and_none_runs_to_the_bit(expression_spec):
    # The benchmark's mountain pass (e1), and the same start without a
    # symmetry, pinned to the bit: the endpoint class check passes them
    # untouched (the circle's relative e1 defect is 2.8e-16).  Without a
    # symmetry the path would collapse at sweep 22; Newton steps from the top
    # reach the e1 orbit's level first.
    z1 = build_endpoint(expression_spec, circle_loop(64, 2))
    rep = mountain_pass(expression_spec, zero_loop(64, 2), z1, SolveOptions())
    assert (rep.termination, rep.iterations) == ("converged", 14)
    assert (rep.f_value, rep.trace[-1].weighted_gradient) == (7.9861812435587645,
                                                              2.1823483126948426e-08)
    none = ProblemSpec(expression_spec.potential, 2, 1.0, 2.0, 0.0, "none")
    rep = mountain_pass(none, zero_loop(64, 2), z1, SolveOptions())
    assert (rep.termination, rep.iterations) == ("converged", 14)
    assert (rep.f_value, rep.trace[-1].weighted_gradient) == (7.986181243558765,
                                                              2.1829251271683413e-08)
    assert synthesize(rep.loop, none).ode_sup <= 1e-9


def test_constrained_expression_seed_531_converges(expression_spec):
    # Of random starts 0-999 at N=64 with a 300-iteration budget, only
    # seeds 531 and 903 missed the gate on descent alone, stalling at a
    # weighted gradient of 1.9e-6 with the level right; the Newton finish
    # converges in 10 iterations.
    opts = SolveOptions(initial_loop="random_bandlimited", seed=531, max_iterations=300)
    assert minimize_on_nehari(expression_spec, opts, n_nodes=64).termination == "converged"


def test_constrained_expression_seed_903_converges(expression_spec):
    # The other seed of 0-999 that descent alone left at a weighted gradient
    # of 2.0e-6 after 300 iterations (it converged at iteration 3619); the
    # Newton finish converges in 14.
    opts = SolveOptions(initial_loop="random_bandlimited", seed=903, max_iterations=300)
    assert minimize_on_nehari(expression_spec, opts, n_nodes=64).termination == "converged"


# The benchmark case's critical level.
EXPRESSION_LEVEL = 7.9861812435587654


def test_mountain_pass_with_15_path_points_converges(expression_spec):
    # First-order descent alone stalls at sweep 11 (weighted gradient 1.6,
    # level 7.98761): the top is snapped onto node 5, and the chord from
    # node 4 then cuts the corner above the path maximum for every step down
    # to 1e-17.  The Newton step taken from that top converges.
    z1 = build_endpoint(expression_spec, circle_loop(64, 2))
    rep = mountain_pass(expression_spec, zero_loop(64, 2), z1, SolveOptions(path_points=15))
    assert rep.termination == "converged" and rep.iterations <= 16
    assert rep.f_value == pytest.approx(EXPRESSION_LEVEL, rel=1e-12, abs=0)


def test_mountain_pass_from_the_exactly_antisymmetric_circle_converges(expression_spec):
    # The benchmark case one rounding step away: this circle differs from
    # circle_loop(64, 2) by at most 5.6e-16.  First-order descent alone
    # stuck at a weighted gradient of 6.1e-6 from here.
    c = circle_loop(64, 2).nodes
    z1 = build_endpoint(expression_spec, LoopPath(np.concatenate([c[:32], -c[:32]])))
    rep = mountain_pass(expression_spec, zero_loop(64, 2), z1, SolveOptions(max_iterations=60))
    assert rep.termination == "converged" and rep.iterations <= 16
    assert rep.f_value == pytest.approx(EXPRESSION_LEVEL, rel=1e-12, abs=0)


@pytest.mark.xfail(strict=True, reason="the line search stalls at sweep 8 at level 9.0406, "
                                        "before any Newton step is kept")
def test_mountain_pass_at_96_nodes_and_16_path_points_converges(expression_spec):
    # One of the two stalls of the N x path_points survey; N=192 with 20
    # path points is the other.
    z1 = build_endpoint(expression_spec, circle_loop(96, 2))
    rep = mountain_pass(expression_spec, zero_loop(96, 2), z1,
                        SolveOptions(path_points=16, max_iterations=300))
    assert rep.termination == "converged"


def test_mountain_pass_stall_survey(expression_spec):
    # Expression e1 at N x path_points with a 300-sweep budget: at least 35
    # of the 42 cases converge, each at the Nehari route's level for its N;
    # every other case stalls in the line search (ROADMAP's open item on
    # stalls).  The message holds the table, one row per N: path_points and
    # the iterations of a converged case, or "stall" and the last one.
    converged, rows = 0, []
    for n_nodes in (32, 48, 64, 96, 128, 192, 256):
        nehari = minimize_on_nehari(expression_spec, SolveOptions(), n_nodes=n_nodes)
        assert nehari.converged
        z1 = build_endpoint(expression_spec, circle_loop(n_nodes, 2))
        row = []
        for path_points in (8, 10, 12, 15, 16, 20):
            rep = mountain_pass(expression_spec, zero_loop(n_nodes, 2), z1,
                                SolveOptions(path_points=path_points, max_iterations=300))
            if rep.converged:
                converged += 1
                assert rep.f_value == pytest.approx(nehari.f_value, rel=1e-9, abs=0)
                row.append(f"{path_points}:{rep.iterations}")
            else:
                assert rep.message == "line search stalled at the path maximum"
                row.append(f"{path_points}:stall@{rep.iterations}")
        rows.append(f"N={n_nodes} " + " ".join(row))
    assert converged >= 35, "\n".join([f"{converged} of 42 converged"] + rows)


# (f_value, weighted_gradient) of the benchmark case's first four sweeps,
# where every Newton try is rejected.
FIRST_SWEEPS = [(9.224521294234355, 17.911813245566922),
                (9.222395442661563, 17.878877238867478),
                (9.218160810607307, 17.81803901720291),
                (9.209750514569993, 17.71702413065756)]


def test_mountain_pass_budget_ends_through_the_gate(expression_spec):
    z1 = build_endpoint(expression_spec, circle_loop(64, 2))
    rep = mountain_pass(expression_spec, zero_loop(64, 2), z1, SolveOptions(max_iterations=3))
    assert (rep.termination, rep.message) == ("max_iter", "iteration budget exhausted")
    assert rep.iterations == 3 == len(rep.trace) - 1
    assert [(r.f_value, r.weighted_gradient) for r in rep.trace] == FIRST_SWEEPS
    assert rep.gamma_history == [f for f, _ in FIRST_SWEEPS]


class NoHessian(PotentialModel):
    """A model that has value and gradient but no ``hessian``."""

    def __init__(self, model):
        self.model, self.n = model, model.n

    def value(self, q):
        return self.model.value(q)

    def gradient(self, q):
        return self.model.gradient(q)

    def value_and_gradient(self, q):
        return self.model.value_and_gradient(q)


def _descent_only(spec):
    """``spec`` with its model behind :class:`NoHessian`: descent alone."""
    return ProblemSpec(NoHessian(spec.potential), spec.n, spec.h, spec.mu1, spec.mu2,
                       spec.symmetry)


def _rejecting(monkeypatch):
    """Patch the Newton try to run in full and then be rejected; returns
    the list of tries."""
    tries = []
    real = solvers._newton_step

    def rejected(*args):
        tries.append(real(*args))
        return None

    monkeypatch.setattr(solvers, "_newton_step", rejected)
    return tries


@pytest.mark.parametrize("how", ["rejected_tries", "model_without_hessian"])
def test_without_a_kept_newton_step_the_sweeps_are_the_descent_ones(monkeypatch,
                                                                    expression_spec, how):
    # The benchmark case as first-order descent alone runs it: 42 sweeps,
    # pinned to the bit.  A try the safeguard rejects, and a model without
    # a hessian, leave the path, the step and the trace as they were.
    spec = expression_spec
    if how == "rejected_tries":
        tries = _rejecting(monkeypatch)
    else:
        spec = ProblemSpec(NoHessian(spec.potential), 2, 1.0, 2.0, 0.0, "e1")
    z1 = build_endpoint(spec, circle_loop(64, 2))
    rep = mountain_pass(spec, zero_loop(64, 2), z1, SolveOptions())
    assert (rep.termination, rep.iterations) == ("converged", 42)
    assert (rep.f_value, rep.trace[-1].weighted_gradient) == (7.986181243558765,
                                                              3.0602259722611294e-07)
    assert [(r.f_value, r.weighted_gradient) for r in rep.trace[:4]] == FIRST_SWEEPS
    assert rep.gamma_history == [r.f_value for r in rep.trace]
    if how == "rejected_tries":
        # One try per sweep that did not stop, and from sweep 11 on some
        # would have been kept.
        assert len(tries) == 42 and tries[11] is not None


@pytest.mark.parametrize("how", ["rejected_tries", "model_without_hessian"])
def test_without_a_kept_newton_step_the_nehari_solve_is_the_descent_one(monkeypatch,
                                                                        expression_spec, how):
    # The expression circle at N=64 as descent alone runs it: 17 iterations,
    # pinned to the bit.  A try the safeguard rejects, and a model without a
    # hessian, leave the iterate, the step and the trace as they were.
    spec = expression_spec
    if how == "rejected_tries":
        tries = _rejecting(monkeypatch)
    else:
        spec = _descent_only(spec)
    rep = minimize_on_nehari(spec, SolveOptions(), n_nodes=64)
    assert (rep.termination, rep.iterations) == ("converged", 17)
    assert (rep.f_value, rep.trace[-1].weighted_gradient) == (7.986181243558766,
                                                              1.0900159532641725e-07)
    if how == "rejected_tries":
        # One try per iteration at a weighted gradient of 0.1 or below that
        # did not stop, and the first would have been kept.
        assert len(tries) == sum(r.weighted_gradient <= 0.1 for r in rep.trace[:-1]) > 0
        assert tries[0] is not None


@pytest.mark.parametrize("case, n_nodes, iterations, descent_iterations",
                         [("expression", 64, 10, 17), ("cubic", 1024, 5, 7)])
def test_nehari_newton_finish_lands_on_the_descent_level(expression_spec, cubic_spec, case,
                                                         n_nodes, iterations,
                                                         descent_iterations):
    # The circle starts: Newton steps take over once the weighted gradient
    # is at most 0.1, each one at least halving it, and end on descent's
    # level to a few ulp in fewer iterations.
    spec = expression_spec if case == "expression" else cubic_spec
    rep = minimize_on_nehari(spec, SolveOptions(), n_nodes=n_nodes)
    ref = minimize_on_nehari(_descent_only(spec), SolveOptions(), n_nodes=n_nodes)
    assert (rep.termination, rep.iterations) == ("converged", iterations)
    assert (ref.termination, ref.iterations) == ("converged", descent_iterations)
    assert abs(rep.f_value - ref.f_value) <= 4 * math.ulp(ref.f_value)
    first = next(k for k, r in enumerate(rep.trace) if r.weighted_gradient <= 0.1)
    newton = rep.trace[first:]
    assert len(newton) >= 2
    assert all(b.weighted_gradient <= 0.5 * a.weighted_gradient
               and b.f_value <= a.f_value * (1.0 + 1e-12) for a, b in zip(newton, newton[1:]))


def test_nehari_iterations_stay_flat_as_n_grows(expression_spec, cubic_spec):
    # Descent alone takes 17 iterations on expression seed 0 and 7 on the
    # cubic circle at these sizes.
    seed0 = SolveOptions(initial_loop="random_bandlimited", seed=0)
    for n_nodes in (64, 256, 1024):
        expression = minimize_on_nehari(expression_spec, seed0, n_nodes=n_nodes)
        cubic = minimize_on_nehari(cubic_spec, SolveOptions(), n_nodes=n_nodes)
        assert expression.converged and expression.iterations <= 9
        assert cubic.converged and cubic.iterations <= 5


def test_newton_steps_are_iterations_and_leave_gamma_history_to_the_path(expression_spec):
    z1 = build_endpoint(expression_spec, circle_loop(64, 2))
    rep = mountain_pass(expression_spec, zero_loop(64, 2), z1, SolveOptions())
    sweeps = len(rep.gamma_history)
    assert rep.iterations == len(rep.trace) - 1 > sweeps
    # The path's levels, non-increasing, are the first records; each Newton
    # record after them lies below the last and halves the weighted gradient.
    assert [r.f_value for r in rep.trace[:sweeps]] == rep.gamma_history
    assert all(a >= b for a, b in zip(rep.gamma_history, rep.gamma_history[1:]))
    newton = rep.trace[sweeps - 1:]
    assert all(r.f_value <= rep.gamma_history[-1] for r in newton)
    assert all(b.weighted_gradient <= 0.5 * a.weighted_gradient
               for a, b in zip(newton, newton[1:]))


@pytest.mark.parametrize("case, n_nodes, dirichlet_sums", [("cubic", 1024, 8),
                                                            ("expression", 64, 17)])
def test_each_iterate_is_measured_once(monkeypatch, cubic_spec, expression_spec, case,
                                      n_nodes, dirichlet_sums):
    # Each pass takes its factors once, however often the solve, the record
    # and the Newton step read its level, gradient or weighted gradient, and
    # the record takes no Dirichlet sum of its own: 8 and 17 sums in all,
    # one per pass whose level is read and the nonconstant checks at the
    # start and at the gate.
    spec = cubic_spec if case == "cubic" else expression_spec
    factored = count_calls(monkeypatch, functional, "_factors")
    sums = [count_calls(monkeypatch, module, "stacked_dirichlet_energy")
            for module in (loopspace, functional)]
    rep = minimize_on_nehari(spec, SolveOptions(), n_nodes=n_nodes)
    assert rep.converged
    passes = [args[2] for args in factored]  # the V each call was handed
    assert len({id(values) for values in passes}) == len(passes) > rep.iterations
    assert sum(map(len, sums)) <= dirichlet_sums


def test_line_search_skips_a_trial_that_is_no_loop():
    # The first three steps overflow the nodes, so they are no loop; the
    # search yields the fourth, 1e308 / 8.
    x, grad = circle_loop(16, 2).nodes, np.full((16, 2), 10.0)
    with np.errstate(over="ignore"):
        _, trial, _ = next(solvers._trials(x, grad, 1e308, "none", 0.0))
    direction = solvers.sobolev_precondition(grad)
    assert trial.nodes.tobytes() == (x - 1e308 * 0.5**3 * direction).tobytes()


def test_redistribute_leaves_a_path_of_zero_length():
    path = np.ones((9, 16, 2))
    assert _redistribute(path) is path


def test_minres_matches_a_dense_solve_on_a_symmetric_indefinite_system():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    eigs = np.array([-3.0, -1.0, -0.2, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0])
    mat = (q * eigs) @ q.T
    weights = rng.uniform(0.5, 2.0, 12)  # a diagonal SPD preconditioner
    b = rng.standard_normal((6, 2))

    def apply(v):
        return (mat @ v.ravel()).reshape(v.shape)

    def precondition(r):
        return r / weights.reshape(r.shape)

    x = solvers._minres(apply, b, precondition, 1e-12, 50)
    want = np.linalg.solve(mat, b.ravel()).reshape(b.shape)
    assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    # A loose tolerance or a small budget stops early, with a smaller residual
    # than at x = 0.
    for rtol, maxiter in ((1e-1, 50), (1e-12, 3)):
        y = solvers._minres(apply, b, precondition, rtol, maxiter)
        assert 0.0 < np.linalg.norm(apply(y) - b) < np.linalg.norm(b)
    assert np.all(solvers._minres(apply, np.zeros_like(b), precondition, 1e-12, 50) == 0.0)


def test_mountain_pass_collapse_to_the_endpoint_level(monkeypatch, expression_spec):
    # Every segment maximum of the start path at the endpoints' level 0: no
    # barrier is left, and the pass ends before any other evaluation.
    monkeypatch.setattr(_PathMax, "segment_max",
                        lambda self, nodes:
                        (np.zeros(len(nodes) - 1), np.zeros(len(nodes) - 1)))
    rep = _expression_pass(expression_spec)
    assert rep.termination == "hypothesis_violation"
    assert rep.message.startswith("E_COLLAPSE: path maximum fell to the endpoint level")
    assert (rep.iterations, rep.trace, rep.gamma_history) == (0, [], [0.0])


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


def test_nehari_solve_makes_one_potential_pass_per_root_evaluation(monkeypatch, cubic_spec):
    # The trial's level, the next gradient and the record's residual all
    # come from the pass at the point the ray root lands on.
    pot = cubic_spec.potential
    values = count_calls(monkeypatch, pot, "value")
    gradients = count_calls(monkeypatch, pot, "gradient")
    pairs = count_calls(monkeypatch, pot, "value_and_gradient")
    evaluations = count_calls(monkeypatch, functional, "potential_pass")
    opts = SolveOptions(initial_loop="random_bandlimited", seed=3)
    rep = minimize_on_nehari(cubic_spec, opts, n_nodes=64)
    assert rep.converged and rep.iterations == 9
    assert values == [] and gradients == []
    assert len(pairs) == len(evaluations) > rep.iterations


@pytest.mark.parametrize("case,per_landing", [("cubic", 2.0), ("expression", 5.0)])
def test_nehari_solve_passes_per_landing(monkeypatch, cubic_spec, expression_spec,
                                         case, per_landing):
    # A count gate for work the benchmark's tracer does not see.
    if case == "cubic":
        spec, opts = cubic_spec, SolveOptions(initial_loop="random_bandlimited", seed=0)
    else:
        spec, opts = expression_spec, SolveOptions()
    passes = count_calls(monkeypatch, functional, "potential_pass")
    landings = []
    real = solvers.ray_landing

    def landing(*args):
        before = len(passes)
        there = real(*args)
        landings.append((len(passes) - before, there.scale))
        return there

    monkeypatch.setattr(solvers, "ray_landing", landing)
    rep = minimize_on_nehari(spec, opts, n_nodes=64)
    assert rep.converged and len(landings) > rep.iterations
    if case == "cubic":
        # The growth model is exact for a power law, so the cubic lands at
        # the model's root once it is within one doubling: 2 passes, plus
        # one per doubling or halving past the first (19 passes for 9
        # landings here, two of them at scales near 0.5).
        for count, scale in landings:
            doublings = math.ceil(abs(math.log2(scale)))
            assert count <= per_landing + max(doublings - 1, 0), (count, scale)
        return
    # Descent alone takes the expression 96 passes for 21 landings.  The
    # Newton finish keeps its first 10 landings (63 passes) and ends with
    # two Newton landings of 3 and 1 passes where descent's last eleven took
    # 33: 67 passes for 12 landings, fewer in all but more per landing.  So
    # the solve is bounded in total, and descent alone per landing.
    assert len(passes) <= 67
    passes.clear()
    landings.clear()
    minimize_on_nehari(_descent_only(spec), opts, n_nodes=64)
    assert len(passes) <= per_landing * len(landings)


class HandCubic(PotentialModel):
    """0.5 |q|^3 in n=3 with only ``value`` and ``gradient``, in the
    arithmetic of ``PowerLawPotential(0.5, 3)``."""

    n = 3

    def value(self, q):
        q = np.asarray(q, dtype=float)
        r = np.sqrt(np.add.reduce(q * q, axis=-1))
        return 0.5 * r**3.0

    def gradient(self, q):
        q = np.asarray(q, dtype=float)
        r = np.sqrt(np.add.reduce(q * q, axis=-1))
        return (1.5 * r)[..., None] * q


def test_model_with_only_value_and_gradient_solves_to_the_same_bits(cubic_spec):
    # Neither model has a ``hessian``, so both solves are descent alone.
    hand = ProblemSpec(HandCubic(), 3, cubic_spec.h, cubic_spec.mu1, cubic_spec.mu2, "e2")
    opts = SolveOptions(initial_loop="random_bandlimited", seed=3)
    ref = minimize_on_nehari(_descent_only(cubic_spec), opts, n_nodes=64)
    rep = minimize_on_nehari(hand, opts, n_nodes=64)
    assert ref.converged and ref.iterations > 10
    assert (rep.termination, rep.iterations) == (ref.termination, ref.iterations)
    assert float.hex(rep.f_value) == float.hex(ref.f_value)
    assert rep.loop.nodes.tobytes() == ref.loop.nodes.tobytes()
