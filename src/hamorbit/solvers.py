"""The two critical-point routes.

Constrained minimization: preconditioned descent of the loop functional on
the ray constraint inside a symmetry subspace.  The ray constraint is the
Nehari set of the functional, so the full gradient needs no projection: each
iterate moves along the preconditioned gradient and is symmetrized and
rescaled back onto the set along its ray (a retraction); an Armijo
backtracking search guarantees monotone decrease of the on-constraint
values.

Mountain pass: deform a discrete path between two low points separated by a
derivative sphere.  Each sweep locates the path maximum over segment
interiors (node-only evaluation could tunnel through the barrier), relaxes
it one preconditioned descent step accepted on the modified segments'
maxima, and re-equidistributes the interior points in loop-space arc length
when that does not raise the maximum, which keeps the level estimates
monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BaseThroughOriginError,
    DomainError,
    EndpointGrowthError,
    NoBracketError,
    PathCollapseError,
    ZeroLoopError,
)
from .functional import (
    CpsRecord,
    GradientSphere,
    ProblemSpec,
    action,
    action_gradient,
    cps_append,
    h1_norm,
    scaling_root,
)
from .loopspace import (
    NONCONSTANT_SPEED,
    LoopPath,
    circle_loop,
    integrate,
    project_symmetric,
    random_loop,
    sobolev_precondition,
    speed,
    symmetry_defect,
)

_MIN_STEP = 1e-18

INITIAL_LOOPS = ("circle", "random_bandlimited")


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6
    step_shrink: float = 0.5
    armijo: float = 1e-4
    path_points: int = 16
    seed: int = 0
    initial_loop: str = "circle"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")
        if not 0.0 < self.step_shrink < 1.0:
            raise ValueError("step_shrink must lie in (0, 1)")
        if not 0.0 < self.armijo < 0.5:
            raise ValueError("armijo constant must lie in (0, 1/2)")
        if self.path_points < 8:
            raise ValueError("path_points must be >= 8")
        if self.initial_loop not in INITIAL_LOOPS:
            raise ValueError(f"initial_loop must be one of {INITIAL_LOOPS}")


@dataclass
class SolveReport:
    route: str  # constrained_min | mountain_pass
    loop: LoopPath
    f_value: float
    termination: str  # converged | max_iter | hypothesis_violation
    trace: list[CpsRecord] = field(default_factory=list)
    iterations: int = 0
    message: str = ""
    max_symmetry_drift: float = 0.0
    gamma_history: list[float] | None = None
    endpoints: tuple[LoopPath, LoopPath] | None = None

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def make_initial_loop(spec: ProblemSpec, opts: SolveOptions, n_nodes: int) -> LoopPath:
    if opts.initial_loop == "random_bandlimited":
        rng = np.random.default_rng(opts.seed)
        u = random_loop(n_nodes, spec.n, rng)
    else:
        u = circle_loop(n_nodes, spec.n)
    return project_symmetric(u, spec.symmetry)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b))


def minimize_on_nehari(spec: ProblemSpec, opts: SolveOptions | None = None,
                       n_nodes: int = 256, initial: LoopPath | None = None) -> SolveReport:
    """Minimize the loop functional on the ray constraint in a symmetry class.

    The symmetry class must be e1 or e2: constants are then excluded from the
    constraint set, which is what makes the minimal level positive.  The ray
    constraint is the Nehari set of the functional (grad f(u).u vanishes on
    it), so each step descends along the preconditioned full gradient and
    the ray projection retracts the trial back onto the set.  Returns a
    report whose termination is ``converged`` only when the Cerami-weighted
    gradient sits below the tolerance and the minimizer is non-constant with
    positive functional value.
    """
    opts = opts or SolveOptions()
    if spec.symmetry not in ("e1", "e2"):
        raise ValueError("constrained minimization needs symmetry e1 or e2")

    if initial is None:
        u = make_initial_loop(spec, opts, n_nodes)
    else:
        u = project_symmetric(initial, spec.symmetry)
    if not np.any(u.nodes):
        raise ZeroLoopError("initial loop vanishes after symmetry projection")

    trace: list[CpsRecord] = []
    drift_max = 0.0

    def report(loop, f_value, termination, iterations, message=""):
        return SolveReport(route="constrained_min", loop=loop, f_value=f_value,
                           termination=termination, trace=trace,
                           iterations=iterations, message=message,
                           max_symmetry_drift=drift_max)

    try:
        u = LoopPath(scaling_root(u, spec) * u.nodes)
    except NoBracketError as err:
        return report(u, action(u, spec), "hypothesis_violation", 0,
                      f"{err.code}: {err}")

    f_cur = action(u, spec)
    step = 1.0
    prev_nodes = prev_grad = None
    for it in range(opts.max_iterations + 1):
        grad = action_gradient(u, spec)
        rec = cps_append(trace, u, spec, None, it, grad)
        if rec.weighted_gradient <= opts.gradient_tolerance:
            if f_cur <= 0.0 or speed(u) < NONCONSTANT_SPEED:
                return report(u, f_cur, "hypothesis_violation", it,
                              "stationary point is constant or has nonpositive level")
            return report(u, f_cur, "converged", it)
        if it == opts.max_iterations:
            break

        direction = sobolev_precondition(grad)
        slope = _dot(grad, direction)

        # Spectral (Barzilai-Borwein) initial step in the preconditioned
        # metric; the Armijo backtracking below keeps descent monotone.
        if prev_nodes is not None:
            s = u.nodes - prev_nodes
            y = grad - prev_grad
            sy = _dot(s, y)
            if sy > 0.0:
                y_my = _dot(y, sobolev_precondition(y))
                if y_my > 0.0:
                    step = min(max(sy / y_my, 1e-8), 1e6)
        prev_nodes, prev_grad = u.nodes, grad

        t = step
        accepted = False
        bracket_failure = None
        while t > _MIN_STEP:
            raw = u.nodes - t * direction
            try:
                drift = symmetry_defect(raw, spec.symmetry)
                trial = project_symmetric(LoopPath(raw), spec.symmetry)
                trial = LoopPath(scaling_root(trial, spec) * trial.nodes)
                f_new = action(trial, spec)
            except NoBracketError as err:
                bracket_failure = err
                t *= opts.step_shrink
                continue
            except (DomainError, ZeroLoopError, ValueError):
                t *= opts.step_shrink
                continue
            if f_new <= f_cur - opts.armijo * t * slope:
                accepted = True
                break
            t *= opts.step_shrink
        if not accepted:
            if bracket_failure is not None:
                return report(u, f_cur, "hypothesis_violation", it,
                              f"{bracket_failure.code}: {bracket_failure}")
            return report(u, f_cur, "max_iter", it,
                          "line search stalled below machine step")
        drift_max = max(drift_max, drift)
        u, f_cur = trial, f_new
        step = t

    return report(u, f_cur, "max_iter", opts.max_iterations,
                  "iteration budget exhausted")


def build_endpoint(spec: ProblemSpec, base: LoopPath) -> LoopPath:
    """Inflate a loop bounded away from the origin until the mean energy gap
    is nonpositive, making it a valid far endpoint for the pass geometry.

    Doubles the scale from 1 upward and returns the first R with
    mean(h - V(R * base)) <= 0, so action(R * base) <= 0.
    """
    radii = np.linalg.norm(base.nodes, axis=1)
    if radii.min() <= 0.0:
        raise BaseThroughOriginError("base loop passes through the origin")
    R = 1.0
    for _ in range(61):
        gap = integrate(spec.h - spec.potential.value(R * base.nodes))
        if gap <= 0.0:
            return LoopPath(R * base.nodes)
        R *= 2.0
    raise EndpointGrowthError(
        "no scale up to 2^60 drives the mean energy gap nonpositive; "
        "the potential does not dominate the energy level at infinity"
    )


def separation_check(z0: LoopPath, z1: LoopPath, sphere: GradientSphere,
                     spec: ProblemSpec):
    """Check that a derivative sphere separates the endpoints.

    Returns (ok, certificate), the certificate holding the two derivative
    norms and the radius.  ``spec`` is not read: the sphere is independent
    of the potential.
    """
    s0, s1 = speed(z0), speed(z1)
    lo, hi = min(s0, s1), max(s0, s1)
    return bool(lo < sphere.radius < hi), {"speed_z0": s0, "speed_z1": s1,
                                           "radius": sphere.radius}


def _redistribute(path: list[np.ndarray]) -> list[np.ndarray]:
    """Re-space interior points uniformly in loop-space arc length."""
    m = len(path) - 1
    seg = np.empty(m)
    for i in range(m):
        diff = path[i + 1] - path[i]
        seg[i] = h1_norm(LoopPath(diff)) if np.any(diff) else 0.0
    total = seg.sum()
    if total <= 0.0:
        return path
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    out = [path[0]]
    for j in range(1, m):
        target = total * j / m
        i = int(np.searchsorted(cum, target, side="right") - 1)
        i = min(i, m - 1)
        theta = 0.0 if seg[i] == 0.0 else (target - cum[i]) / seg[i]
        out.append((1.0 - theta) * path[i] + theta * path[i + 1])
    out.append(path[m])
    return out


class _PathMax:
    """Continuous maximization of the functional along a piecewise-linear path.

    Node-only evaluation lets a coarse path tunnel through the barrier (two
    adjacent nodes in different components, both with low values), the classic
    degeneracy of discrete minimax descent.  Maximizing over segment interiors
    sees every barrier crossing, so the level estimate cannot collapse while
    the endpoints stay separated.

    A coarse grid localizes the maximum.  When the exact tangential
    derivative changes sign across the best grid point's neighbours,
    bisection on it pins the interior maximum to machine precision
    (value-only refinement could not get closer than the square root of
    rounding near a flat maximum, which would leave a spurious gradient floor
    at the located top).  Otherwise the grid maximum itself is returned: any
    other grid point is already in the grid and no higher.
    """

    GRID = np.linspace(0.0, 1.0, 9)
    BISECTIONS = 48

    def __init__(self, spec):
        self.spec = spec

    def value(self, nodes) -> float:
        try:
            return action(LoopPath(nodes), self.spec)
        except (DomainError, ValueError):
            return -np.inf

    def segment_max(self, a, b):
        """(value, tau) of the max of the functional on the segment [a, b]."""
        seg = b - a

        def val(t):
            return self.value((1.0 - t) * a + t * b)

        def dval(t):
            try:
                g = action_gradient(LoopPath((1.0 - t) * a + t * b), self.spec)
            except (DomainError, ValueError):
                return None
            return float(np.vdot(g, seg))

        coarse = np.array([val(t) for t in self.GRID])
        k = int(np.argmax(coarse))
        lo = self.GRID[max(k - 1, 0)]
        hi = self.GRID[min(k + 1, len(self.GRID) - 1)]
        dlo, dhi = dval(lo), dval(hi)
        if dlo is None or dhi is None or not dlo > 0.0 > dhi:
            return float(coarse[k]), float(self.GRID[k])
        for _ in range(self.BISECTIONS):
            mid = 0.5 * (lo + hi)
            dmid = dval(mid)
            if dmid is None or hi - lo < 1e-14:
                break
            if dmid > 0.0:
                lo = mid
            else:
                hi = mid
        tau = 0.5 * (lo + hi)
        value = val(tau)
        if coarse[k] > value:
            return float(coarse[k]), float(self.GRID[k])
        return float(value), float(tau)

    def refresh(self, path):
        """Per-segment maxima (values, taus) for the whole path."""
        vals = np.empty(len(path) - 1)
        taus = np.empty(len(path) - 1)
        for i in range(len(path) - 1):
            vals[i], taus[i] = self.segment_max(path[i], path[i + 1])
        return vals, taus


def mountain_pass(spec: ProblemSpec, z0: LoopPath, z1: LoopPath,
                  opts: SolveOptions | None = None,
                  sphere: GradientSphere | None = None) -> SolveReport:
    """Locate a critical point at the minimax level between two low endpoints.

    Both endpoints must have nonpositive functional value, and the derivative
    sphere (default radius: half the far endpoint's derivative norm) must
    separate them; otherwise the geometry carries no barrier and the solve
    raises :class:`PathCollapseError` up front.  Mid-run collapse is reported
    as a ``hypothesis_violation`` termination instead, so partial diagnostics
    survive.

    Each sweep finds the path maximum over segment interiors, snaps the
    nearest interior node onto it, moves it one preconditioned descent step,
    and accepts the step only when the maxima of the two modified segments
    show sufficient decrease; interior nodes are then re-equidistributed in
    loop-space arc length unless that would raise the level estimate.  The
    recorded level estimates are therefore non-increasing by construction.
    """
    opts = opts or SolveOptions()
    f0, f1 = action(z0, spec), action(z1, spec)
    if f0 > 0.0 or f1 > 0.0:
        raise PathCollapseError(
            f"endpoints must have nonpositive values, got {f0:.6g} and {f1:.6g}"
        )
    if sphere is None:
        sphere = GradientSphere(0.5 * speed(z1))
    ok, cert = separation_check(z0, z1, sphere, spec)
    if not ok:
        raise PathCollapseError(f"derivative sphere does not separate the endpoints: {cert}")

    m = opts.path_points
    base = max(f0, f1)
    collapse_tol = 1e-9 * (1.0 + abs(base))
    path = [(1.0 - s) * z0.nodes + s * z1.nodes for s in np.linspace(0.0, 1.0, m + 1)]
    pmax = _PathMax(spec)
    seg_vals, seg_taus = pmax.refresh(path)

    trace: list[CpsRecord] = []
    gammas: list[float] = []
    drift_max = 0.0
    step = 1.0

    def report(loop, f_value, termination, iterations, message=""):
        return SolveReport(route="mountain_pass", loop=loop, f_value=f_value,
                           termination=termination, trace=trace,
                           iterations=iterations, message=message,
                           max_symmetry_drift=drift_max, gamma_history=gammas,
                           endpoints=(z0, z1))

    for sweep in range(opts.max_iterations + 1):
        i = int(np.argmax(seg_vals))
        gamma = float(seg_vals[i])
        tau = seg_taus[i]
        gammas.append(gamma)
        top = (1.0 - tau) * path[i] + tau * path[i + 1]
        u = LoopPath(top)
        if gamma <= base + collapse_tol:
            return report(u, gamma, "hypothesis_violation", sweep,
                          "E_COLLAPSE: path maximum fell to the endpoint level; "
                          "separation failed numerically")
        grad = action_gradient(u, spec)
        rec = cps_append(trace, u, spec, sphere, sweep, grad)
        if rec.weighted_gradient <= opts.gradient_tolerance:
            if speed(u) < NONCONSTANT_SPEED:
                return report(u, gamma, "hypothesis_violation", sweep,
                              "stationary point is constant")
            return report(u, gamma, "converged", sweep)
        if sweep == opts.max_iterations:
            break

        # The path maximum becomes a node: replace the nearest interior one.
        j = i if tau < 0.5 else i + 1
        j = min(max(j, 1), m - 1)

        direction = sobolev_precondition(grad)
        slope = _dot(grad, direction)
        t = step
        accepted = False
        while t > _MIN_STEP:
            raw = top - t * direction
            try:
                drift = symmetry_defect(raw, spec.symmetry)
                moved = project_symmetric(LoopPath(raw), spec.symmetry).nodes
            except (DomainError, ValueError):
                t *= opts.step_shrink
                continue
            left = pmax.segment_max(path[j - 1], moved)
            right = pmax.segment_max(moved, path[j + 1])
            hi = max(left[0], right[0])
            if math.isfinite(hi) and hi <= gamma - opts.armijo * t * slope:
                accepted = True
                break
            t *= opts.step_shrink
        if not accepted:
            return report(u, gamma, "max_iter", sweep,
                          "line search stalled at the path maximum")
        drift_max = max(drift_max, drift)
        path[j] = moved
        seg_vals[j - 1], seg_taus[j - 1] = left
        seg_vals[j], seg_taus[j] = right
        step = min(t * 2.0, 1e6)

        # Arc-length re-equidistribution, skipped if it would raise the max.
        candidate = _redistribute(path)
        cand_vals, cand_taus = pmax.refresh(candidate)
        if cand_vals.max() <= seg_vals.max():
            path, seg_vals, seg_taus = candidate, cand_vals, cand_taus

    i = int(np.argmax(seg_vals))
    tau = seg_taus[i]
    top = (1.0 - tau) * path[i] + tau * path[i + 1]
    return report(LoopPath(top), float(seg_vals[i]), "max_iter",
                  opts.max_iterations, "sweep budget exhausted")
