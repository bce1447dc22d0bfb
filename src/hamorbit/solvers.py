"""The two critical-point routes, which share one Armijo search
(:func:`_trials`): its direction, backtracking sequence, acceptance bound
and step rule.  Each route keeps only how it evaluates a trial, how it
reports a search that fails and, for the constrained route, where its
searches start.  They also share one safeguarded Newton step
(:func:`_newton_step`), which ends both: each route passes its own
retraction and acceptance window.  An iterate of either route is a
:class:`~hamorbit.functional.PotentialPass`, which measures its loop once;
the routes, the Newton step, the record and the gate all read it, and none
of them hands a level or a gradient to another.

Constrained minimization: preconditioned descent of the loop functional on
the ray constraint inside a symmetry subspace.  The ray constraint is the
Nehari set of the functional, so the full gradient needs no projection: each
iterate moves along the preconditioned gradient and is symmetrized and
rescaled back onto the set along its ray (a retraction).  The rescaling
hands back the potential pass at the point it lands on, and the trial's
functional value, the next gradient and the record's constraint residual
all come from that pass: a trial costs one potential pass per root
evaluation and nothing more.  The route measures its steps in the H^1
metric of its direction: the direction d solves (I - L) d = g for the
nodewise gradient g, and the package's H^1 inner product is
(1/N) u.(I - L) v, so the gradient's Riesz representative is N d and the
first search starts at its unit step t = N.  Each later search starts at
the long Barzilai-Borwein step in that metric,
<s, (I - L) s> / s.y, whose curvature estimate is that of the last step
itself.  The Nehari set is a natural constraint, so a critical point on it
is a free critical point of the functional, and once the weighted gradient
is small the route finishes with Newton steps on the gradient, each landed
back on the set along its ray.

Mountain pass: deform a discrete path between two low points separated by
the derivative sphere {||u'||_{L2} = r}, which is passed as its radius r.
The path is one (m+1, N, n) array from the first sweep to the last.  Each
sweep locates the path maximum over segment interiors (node-only
evaluation could tunnel through the barrier).  On a segment the Dirichlet
energy is a quadratic in closed form, so only the mean energy gap needs
the potential: every segment's grid takes one potential call, both bracket
ends of every segment one batched value-and-gradient pass, and each
bracketed top is located by Illinois regula falsi on the closed-form
slope.  The closed forms steer; each segment's maximum is the exact
functional at its located top.  The sweep relaxes the maximum one
preconditioned descent step accepted on the modified segments' maxima, and
re-equidistributes the interior points in loop-space arc length when that
does not raise the maximum, which keeps the level estimates monotone.  The
re-spacing measures every segment in one stacked pass
(:func:`~hamorbit.loopspace.stacked_h1_norm`, built on the periodic shift
and Dirichlet sum whose one home is :mod:`hamorbit.loopspace`) and moves
every interior point in one expression.  A re-equidistributed candidate is
tested in slices of its node list, the three segments around the top first,
and most candidates are rejected there, without evaluating the others; the
decisions, and so every result, are those of evaluating each candidate in
full.

Before its descent step, each sweep tries a Newton step from the path's
top.  The Newton step of both routes (Deuflhard 2004) is taken on the exact
Hessian, solved by MINRES (Paige & Saunders 1975) with the Sobolev map as
preconditioner, and kept only when it at least halves the weighted
gradient with the level inside the route's window.  Kept steps go on as
iterations of their own; a rejected one changes nothing.
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
from .expressions import point_norms
from .functional import (
    CpsRecord,
    PotentialPass,
    ProblemSpec,
    _gaps,
    _illinois,
    action,
    cps_append,
    potential_pass,
    ray_landing,
    scaling_root,  # noqa: F401  (a binding perfbench's tracer test expects)
)
from .loopspace import (
    LoopPath,
    check_grid,
    circle_loop,
    integrate,
    is_nonconstant,
    periodic_shift,
    project_symmetric,
    random_loop,
    sobolev_precondition,
    speed,
    stacked_dirichlet_cross,
    stacked_dirichlet_energy,
    stacked_h1_norm,
)

_MIN_STEP = 1e-18
_MAX_STEP = 1e6
_STEP_SHRINK = 0.5  # backtracking factor
_ARMIJO = 1e-4  # sufficient-decrease constant
_CLASS_RTOL = 1e-12  # sup |z - P z| over sup |z| of an endpoint in its class
_NEWTON_RTOL = 1e-6  # MINRES stops at this share of the gradient's dual norm
_NEWTON_MAXITER = 50  # at most this many Hessian-vector products per Newton step
_NEWTON_START = 0.1  # the Nehari route tries Newton at this weighted gradient and below
_NEWTON_RISE = 1e-12  # a Nehari Newton step may raise the level by this share of it

INITIAL_LOOPS = ("circle", "random_bandlimited")


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6
    path_points: int = 16
    seed: int = 0
    initial_loop: str = "circle"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be positive")
        if self.path_points < 8:
            raise ValueError("path_points must be >= 8")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.initial_loop not in INITIAL_LOOPS:
            raise ValueError(f"initial_loop must be one of {INITIAL_LOOPS}")


@dataclass
class SolveReport:
    loop: LoopPath | None  # None when the solver raised before it had one
    f_value: float
    termination: str  # converged | max_iter | hypothesis_violation
    trace: list[CpsRecord] = field(default_factory=list)
    iterations: int = 0
    message: str = ""
    gamma_history: list[float] | None = None

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


def _stop(rec: CpsRecord, u: LoopPath, opts: SolveOptions):
    """The one stationarity gate of both routes: how a solve ends at the
    iterate ``u`` whose record is ``rec``, as (termination, message), or
    None while the solve goes on; the record carries the level and the
    iteration.

    The iterate is stationary when its Cerami-weighted gradient is at most
    the tolerance.  A stationary iterate is ``converged`` only when it is a
    nonconstant loop at a positive level, the solution the method looks
    for; otherwise the solve ends with a ``hypothesis_violation``.  A
    nonstationary iterate ends the solve as ``max_iter`` once the iteration
    budget is used up.
    """
    if rec.weighted_gradient <= opts.gradient_tolerance:
        if rec.f_value <= 0.0 or not is_nonconstant(u.nodes):
            return "hypothesis_violation", "stationary point is constant or has nonpositive level"
        return "converged", ""
    if rec.iteration == opts.max_iterations:
        return "max_iter", "iteration budget exhausted"
    return None


def _trials(x: np.ndarray, grad: np.ndarray, step: float, symmetry: str, level: float):
    """The one Armijo search of both routes from x, whose gradient is
    ``grad`` and whose level is ``level``.  Yields (next_step, trial, bound)
    for t = step, step * _STEP_SHRINK, ... above _MIN_STEP: trial is
    x - t * d projected onto the symmetry class, d the preconditioned
    gradient.  The caller accepts the trial when its level is at most
    bound = level - _ARMIJO * t * slope, slope being grad . d, and starts its
    next search at next_step = min(2 t, _MAX_STEP), unless the constrained
    route has a Barzilai-Borwein step.  d is 1/N of the gradient's Riesz
    representative in the H^1 metric (:func:`sobolev_precondition`), so
    t = N is the unit step there: the constrained route starts at it, the
    mountain pass at 1.  A trial that is no loop is skipped.
    """
    direction = sobolev_precondition(grad)
    slope = _dot(grad, direction)
    t = step
    while t > _MIN_STEP:
        try:
            trial = project_symmetric(LoopPath(x - t * direction), symmetry)
        except ValueError:
            pass
        else:
            yield min(2.0 * t, _MAX_STEP), trial, level - _ARMIJO * t * slope
        t *= _STEP_SHRINK


def minimize_on_nehari(spec: ProblemSpec, opts: SolveOptions | None = None,
                       n_nodes: int = 256, initial: LoopPath | None = None) -> SolveReport:
    """Minimize the loop functional on the ray constraint in a symmetry class.

    The symmetry class must be e1 or e2: constants are then excluded from the
    constraint set, which is what makes the minimal level positive.  The ray
    constraint is the Nehari set of the functional (grad f(u).u vanishes on
    it), so each step descends along the preconditioned full gradient and
    the ray projection retracts each trial back onto the set.  The first
    search starts at t = N, the unit step in the H^1 metric of the direction
    (see :func:`_trials`).  Each later one starts at the long
    Barzilai-Borwein step in that metric,
    <s, (I - L) s> / s.y = (sum |s_k|^2 + N^2 sum |s_{k+1} - s_k|^2) / s.y,
    s and y the last changes of the nodes and of the gradient, clamped to
    [1e-8, ``_MAX_STEP``], when s.y > 0, and else at twice the last accepted
    step.  The long step takes the curvature along s itself; the short one,
    s.y / y.(I - L)^-1 y, falls short of the step the search accepts and
    needs a Sobolev solve of its own, where this one needs only the
    direction's.  Each iterate goes through the stationarity gate
    :func:`_stop`.

    Once an iterate's weighted gradient is at most ``_NEWTON_START``, a
    Newton step from it is tried first (:func:`_newton_step`), retracted by
    :func:`ray_landing` and kept only with its level in
    (0, f (1 + ``_NEWTON_RISE``)], f the iterate's.  A kept step is the next
    iterate, an iteration of its own through the gate.  A rejected try, and
    a model without ``hessian``, leave the descent step and everything
    after it as they would be without the try.
    """
    opts = opts or SolveOptions()
    if spec.symmetry not in ("e1", "e2"):
        raise ValueError("constrained minimization needs symmetry e1 or e2")

    if initial is None:
        u = make_initial_loop(spec, opts, n_nodes)
    else:
        u = project_symmetric(initial, spec.symmetry)
    if not is_nonconstant(u.nodes):
        raise ZeroLoopError("initial loop vanishes after symmetry projection")

    trace: list[CpsRecord] = []

    def report(loop, f_value, iterations, termination, message=""):
        return SolveReport(loop, f_value, termination, trace, iterations, message)

    try:
        here = ray_landing(u, spec)
    except NoBracketError as err:
        return report(u, action(u, spec), 0, "hypothesis_violation", err.reason())

    step = float(u.N)  # the unit step in the H^1 metric of the direction
    prev_nodes = prev_grad = None
    while True:
        u, f_cur, grad = here.loop, here.action, here.action_gradient
        rec = cps_append(trace, here)
        end = _stop(rec, u, opts)
        if end:
            return report(u, f_cur, rec.iteration, *end)

        # Near the set's critical point, a Newton step is an iteration of its own.
        if rec.weighted_gradient <= _NEWTON_START and (there := _newton_step(
                here, ray_landing, 0.0, f_cur * (1.0 + _NEWTON_RISE))):
            here = there
            continue

        if prev_nodes is not None:
            s = u.nodes - prev_nodes
            sy = _dot(s, grad - prev_grad)
            if sy > 0.0:  # the long Barzilai-Borwein step <s, (I - L) s> / s.y
                ds = periodic_shift(s, 1) - s
                step = min(max((_dot(s, s) + u.N**2 * _dot(ds, ds)) / sy, 1e-8), _MAX_STEP)
        prev_nodes, prev_grad = u.nodes, grad

        bracket_failure = None
        for next_step, trial, bound in _trials(u.nodes, grad, step, spec.symmetry, f_cur):
            try:
                landing = ray_landing(trial, spec)
                f_new = landing.action
            except NoBracketError as err:
                bracket_failure = err
                continue
            except (DomainError, ZeroLoopError, ValueError):
                continue
            if f_new <= bound:
                break
        else:
            if bracket_failure is not None:
                return report(u, f_cur, rec.iteration, "hypothesis_violation",
                              bracket_failure.reason())
            return report(u, f_cur, rec.iteration, "max_iter",
                          "line search stalled below machine step")
        here, step = landing, next_step


def build_endpoint(spec: ProblemSpec, base: LoopPath) -> LoopPath:
    """Inflate a loop bounded away from the origin until the mean energy gap
    is nonpositive, making it a valid far endpoint for the pass geometry.

    Doubles the scale from 1 upward and returns the first R with
    mean(h - V(R * base)) <= 0, so action(R * base) <= 0.
    """
    radii = point_norms(base.nodes)
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


def separation_check(z0: LoopPath, z1: LoopPath, radius: float):
    """Check that the derivative sphere {||u'||_{L2} = radius} separates the
    endpoints.

    Returns (ok, certificate), the certificate holding the two derivative
    norms and the radius.
    """
    s0, s1 = speed(z0), speed(z1)
    lo, hi = min(s0, s1), max(s0, s1)
    return bool(lo < radius < hi), {"speed_z0": s0, "speed_z1": s1, "radius": radius}


def _redistribute(path: np.ndarray) -> np.ndarray:
    """Re-space the interior points of an (m+1, N, n) path uniformly in
    loop-space arc length, every segment measured by ``h1_norm`` of its
    difference in one stacked pass.  A non-finite difference is no loop and
    raises ``ValueError``."""
    diffs = path[1:] - path[:-1]
    if not np.all(np.isfinite(diffs)):
        raise ValueError("loop nodes must be finite")
    seg = stacked_h1_norm(diffs)
    total = seg.sum()
    if total <= 0.0:
        return path
    m = len(seg)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = total * np.arange(1, m) / m
    i = np.minimum(np.searchsorted(cum, target, side="right") - 1, m - 1)
    t = np.divide(target - cum[i], seg[i], out=np.zeros(m - 1), where=seg[i] != 0.0)[:, None, None]
    return np.concatenate((path[:1], (1.0 - t) * path[i] + t * path[i + 1], path[m:]))


def _bernstein(A0, D, A1, t):
    """The Dirichlet energy (1-t)^2 A0 + 2 t (1-t) D + t^2 A1 of the loop
    (1-t) a + t b, from A0 = A(a), A1 = A(b) and the cross term D of a and
    b; t = 0 and t = 1 give A0 and A1 to the bit."""
    s = 1.0 - t
    return s * s * A0 + 2.0 * t * s * D + t * t * A1


def _bernstein_slope(A0, D, A1, t):
    """d/dt of :func:`_bernstein`: 2 ((t-1) A0 + (1-2t) D + t A1)."""
    return 2.0 * ((t - 1.0) * A0 + (1.0 - 2.0 * t) * D + t * A1)


def _coefficients(nodes: np.ndarray):
    """(A(a), D(a, b), A(b)) of every segment [a, b] of an (m+1, N, n) node
    list, each of shape (m,): one Dirichlet sum per node and one cross-term
    sum per segment."""
    A = stacked_dirichlet_energy(nodes)
    return A[:-1], stacked_dirichlet_cross(nodes[:-1], nodes[1:]), A[1:]


def _gap_pass(loops: np.ndarray, spec: ProblemSpec):
    """(B, grad V) of each loop of an (L, N, n) stack, B its mean energy gap,
    from one ``value_and_gradient`` call of the potential."""
    L, N, n = loops.shape
    values, grads = spec.potential.value_and_gradient(loops.reshape(L * N, n))
    return zip(_gaps(loops, spec, values), grads.reshape(L, N, n))


class _PathMax:
    """Continuous maximization of the functional along a piecewise-linear path.

    Node-only evaluation lets a coarse path tunnel through the barrier (two
    adjacent nodes in different components, both with low values), the classic
    degeneracy of discrete minimax descent.  Maximizing over segment interiors
    sees every barrier crossing, so the level estimate cannot collapse while
    the endpoints stay separated.

    On a segment (1-t) a + t b the functional is f(t) = A(t) B(t), and its
    Dirichlet energy A(t) is a quadratic in closed form (:func:`_bernstein`)
    from the node energies and the segment's cross term
    (:func:`~hamorbit.loopspace.stacked_dirichlet_cross`), taken once per
    node list.  Only the mean energy gap B(t) needs the potential.

    :meth:`segment_max` treats a whole node list at once.  A coarse grid on
    every segment, with V once per node and once per interior point, all in
    one potential call, localizes each maximum.  One batched
    ``value_and_gradient`` pass then gives the slope
    f'(t) = A'(t) B(t) + A(t) B'(t), B'(t) = -mean grad V . (b - a), at both
    ends of the bracket around every segment's grid maximum.  When the slope
    changes sign across the bracket, Illinois regula falsi on it (the loop
    of :func:`scaling_root`), one top at a time, pins the interior maximum
    to machine precision in about ten slope passes (value-only refinement
    could not get closer than the square root of rounding near a flat
    maximum, which would leave a spurious gradient floor at the located
    top).  Otherwise the grid maximum itself is the answer: any other grid
    point is already in the grid and no higher.

    The closed forms steer the search: the grid's values and the slopes
    agree with :func:`action` and with the tangential component of
    :func:`action_gradient` to a few ulp.  Each value returned is exact: one
    Dirichlet sum over the located tops, times the B of the pass that
    located each top, has the bits of :func:`action` there.  Every value and
    slope of a segment depends only on its two ends, not on the other
    segments it is evaluated with.

    :meth:`refresh` tests a candidate path against a ceiling on the
    segments around the top before the rest.
    """

    GRID = np.linspace(0.0, 1.0, 9)

    def __init__(self, spec):
        self.spec = spec

    def _each(self, form, loops) -> list:
        """``form(stack, spec)`` for the loops in ``loops`` (shape (..., N, n)),
        one entry per loop in one call.  A batch that raises is redone one
        leading index at a time, down to single loops, so only the loops
        outside the domain give None."""
        while loops.ndim > 2 and len(loops) == 1:
            loops = loops[0]
        try:
            return list(form(loops.reshape(-1, *loops.shape[-2:]), self.spec))
        except (DomainError, ValueError):
            if loops.ndim == 2:
                return [None]
            return [x for part in loops for x in self._each(form, part)]

    def _grid(self, nodes, coefficients):
        """(f, B) at the grid points (1-t) a + t b of every segment [a, b] of
        a node list whose ``coefficients`` are (A(a), D(a, b), A(b)), each
        of shape (segments, len(GRID)): V once at each node and once at each
        interior point, in one call.  Outside the domain f is -inf and B
        nan."""
        m = len(nodes) - 1
        t = self.GRID[1:-1, None, None]
        inner = (1.0 - t) * nodes[:-1, None] + t * nodes[1:, None]
        gaps = self._each(_gaps, np.concatenate((nodes, inner.reshape(-1, *nodes.shape[1:]))))
        gaps = np.array([np.nan if g is None else g for g in gaps])
        B = np.column_stack((gaps[:m], gaps[m + 1:].reshape(m, -1), gaps[1:m + 1]))
        f = _bernstein(*(c[:, None] for c in coefficients), self.GRID) * B
        return np.where(np.isnan(B), -np.inf, f), B

    def grids(self, nodes) -> np.ndarray:
        """The closed-form functional at the grid points of every segment of
        a node list, shape (segments, len(GRID)); -inf outside the domain."""
        nodes = np.asarray(nodes)
        return self._grid(nodes, _coefficients(nodes))[0]

    def _slopes(self, a, b, coefficients, s, t) -> list:
        """(f'(t), B(t)) at (1-t) a[s] + t b[s] for the segments s of a node
        list with ends a, b and ``coefficients``, one t each, from one
        ``value_and_gradient`` pass; None outside the domain."""
        tt = t[:, None, None]
        passes = self._each(_gap_pass, (1.0 - tt) * a[s] + tt * b[s])
        A0, D, A1 = (c[s] for c in coefficients)
        energy, rate = _bernstein(A0, D, A1, t), _bernstein_slope(A0, D, A1, t)
        N = a.shape[-2]
        return [None if p is None else
                (rate[i] * p[0] + energy[i] * (-_dot(p[1], b[j] - a[j]) / N), p[0])
                for i, (j, p) in enumerate(zip(s, passes))]

    def segment_max(self, nodes):
        """(values, taus) of the max of the functional on each segment
        [nodes[i], nodes[i+1]] of a node list, tau locating it at
        (1 - tau) nodes[i] + tau nodes[i+1].  A segment whose Dirichlet sums
        leave the float range has maximum -inf at tau 0."""
        nodes = np.asarray(nodes)
        try:
            return self._closed_form_max(nodes)
        except DomainError:  # a Dirichlet sum out of the float range
            if len(nodes) == 2:
                return np.array([-np.inf]), np.zeros(1)
            values, taus = zip(*(self.segment_max(nodes[i:i + 2])
                                 for i in range(len(nodes) - 1)))
            return np.concatenate(values), np.concatenate(taus)

    def _closed_form_max(self, nodes):
        """:meth:`segment_max` of a node list; a Dirichlet sum out of the
        float range raises :class:`DomainError`."""
        a, b = nodes[:-1], nodes[1:]
        coefficients = _coefficients(nodes)
        coarse, gaps = self._grid(nodes, coefficients)
        segments = np.arange(len(a))
        k = np.argmax(coarse, axis=1)
        best, taus, gap = coarse[segments, k], self.GRID[k], gaps[segments, k]
        lo = self.GRID[np.maximum(k - 1, 0)]
        hi = self.GRID[np.minimum(k + 1, len(self.GRID) - 1)]
        # f rising from lo and falling into hi bracket an interior top.
        ends = self._slopes(a, b, coefficients, np.concatenate((segments, segments)),
                            np.concatenate((lo, hi)))
        for s, (elo, ehi) in enumerate(zip(ends[:len(a)], ends[len(a):])):
            if elo is None or ehi is None or not elo[0] > 0.0 > ehi[0]:
                continue
            located = {hi[s]: ehi[1]}  # B at each point the search made a pass

            def dval(t, s=s):
                end = self._slopes(a, b, coefficients, [s], np.array([t]))[0]
                if end is None:
                    return None
                located[t] = end[1]
                return end[0]

            tau = _illinois(dval, lo[s], elo[0], hi[s], ehi[0], min_step=1e-14)
            if not best[s] > _bernstein(*(c[s] for c in coefficients), tau) * located[tau]:
                taus[s], gap[s] = tau, located[tau]
        # The exact action at each top: its Dirichlet sum times its pass's B.
        t = taus[:, None, None]
        values = stacked_dirichlet_energy((1.0 - t) * a + t * b) * gap
        return np.where(np.isnan(gap), -np.inf, values), taus

    def refresh(self, path, top, ceiling):
        """Per-segment maxima (values, taus) of a candidate path that must
        not raise the maximum above ``ceiling``; None rejects it.

        The node list goes in three slices: first the window
        path[lo:hi+1] of the segments top - 1, top and top + 1 (those on the
        path), then path[:lo+1] before it, then path[hi:] after it.  A
        maximum above the ceiling in a slice rejects the candidate without
        evaluating the slices after it.  A segment's maximum depends only on
        its two ends, so the order decides how many segments are evaluated,
        never a value or the outcome.
        """
        m = len(path) - 1
        lo, hi = max(top - 1, 0), min(top + 2, m)
        values, taus = np.empty(m), np.empty(m)
        for i, j in ((lo, hi), (0, lo), (hi, m)):  # the segments i to j - 1
            if i < j:
                values[i:j], taus[i:j] = self.segment_max(path[i:j + 1])
                if not values[i:j].max() <= ceiling:
                    return None
        return values, taus


def _minres(apply, b: np.ndarray, precondition, rtol: float, maxiter: int) -> np.ndarray:
    """Preconditioned MINRES (Paige & Saunders 1975) for apply(x) = b, apply
    symmetric and possibly indefinite or singular, precondition symmetric
    positive definite (it applies M^-1).  From x = 0, it stops once the
    residual's M^-1 norm is at most rtol times b's, the Lanczos process
    ends, or after maxiter products.  Each iteration takes one product, one
    preconditioner solve and the Givens rotation that updates the
    least-squares residual norm (``phibar``)."""
    x = np.zeros_like(b)
    r1 = r2 = b
    y = precondition(b)
    beta1 = beta = math.sqrt(max(_dot(b, y), 0.0))
    phibar = beta1
    oldb = dbar = epsln = sn = 0.0
    cs = -1.0
    w = w2 = np.zeros_like(b)
    for k in range(maxiter):
        if not phibar > rtol * beta1 or beta == 0.0:
            break
        v = y / beta
        y = apply(v)
        if k:
            y = y - (beta / oldb) * r1
        alpha = _dot(v, y)
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        y = precondition(r2)
        oldb, beta = beta, math.sqrt(max(_dot(r2, y), 0.0))
        # Apply the last rotation, then make the next one from (gbar, beta).
        oldeps, epsln = epsln, sn * beta
        delta, gbar = cs * dbar + sn * alpha, sn * dbar - cs * alpha
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
    return x


def _newton_step(here: PotentialPass, retract, floor: float, ceiling: float):
    """The one safeguarded Newton step of both routes, from the iterate
    ``here``: H delta = -grad solved by MINRES with the Sobolev
    preconditioner, on the exact Hessian
    (:meth:`~hamorbit.functional.PotentialPass.action_hessian`).  The loop
    u + delta is projected into the class and handed to
    ``retract(loop, spec)``, which returns the pass the step ends at:
    :func:`~hamorbit.functional.potential_pass` for the mountain pass,
    :func:`~hamorbit.functional.ray_landing` for the Nehari route.  Returns
    that pass, or None unless the pass and the solve are finite, the
    weighted gradient at least halves and the level lies in
    (floor, ceiling].  A model without ``hessian``, a point where it is
    undefined, or a retraction that raises, gives None."""
    try:
        with np.errstate(all="ignore"):  # a non-finite outcome is rejected below
            delta = _minres(here.action_hessian(), -here.action_gradient, sobolev_precondition,
                            _NEWTON_RTOL, _NEWTON_MAXITER)
            loop = project_symmetric(LoopPath(here.loop.nodes + delta), here.spec.symmetry)
            there = retract(loop, here.spec)
            kept = floor < there.action <= ceiling and \
                there.weighted_gradient <= 0.5 * here.weighted_gradient
    except (NotImplementedError, DomainError, NoBracketError, ZeroLoopError, ValueError):
        return None
    return there if kept else None


def mountain_pass(spec: ProblemSpec, z0: LoopPath, z1: LoopPath,
                  opts: SolveOptions | None = None,
                  radius: float | None = None) -> SolveReport:
    """Locate a critical point at the minimax level between two low endpoints.

    Both endpoints must have nonpositive functional value, and the derivative
    sphere {||u'||_{L2} = radius} (default radius: half the far endpoint's
    derivative norm) must separate them; otherwise the geometry carries no barrier and the solve
    raises :class:`PathCollapseError` up front.  Mid-run collapse is reported
    as a ``hypothesis_violation`` termination instead, so partial diagnostics
    survive.  A grid that cannot hold a loop of the symmetry class raises
    :class:`OddNodeCountError` before any sweep (:func:`check_grid`), and an
    endpoint outside the class raises ``ValueError``: the path between such
    endpoints leaves the class, and so could its critical point.

    Each sweep finds the path maximum over segment interiors, passes it
    through the stationarity gate :func:`_stop`, snaps the
    nearest interior node onto it, moves it one preconditioned descent step,
    and accepts the step only when the maxima of the two modified segments
    show sufficient decrease; interior nodes are then re-equidistributed in
    loop-space arc length unless that would raise the level estimate.  The
    recorded level estimates are therefore non-increasing by construction.
    The re-equidistributed candidate's segments around the current top are
    evaluated first, and a maximum above the level there rejects it without
    the other segments (:meth:`_PathMax.refresh`); the results are those of
    evaluating every candidate in full, bit for bit.

    Before the descent step, a Newton step from the top is tried
    (:func:`_newton_step`), retracted by :func:`potential_pass` at the
    projected loop itself, with the endpoints' level plus the collapse
    tolerance as its floor and the path maximum as its ceiling.  Each kept
    step is an iteration through the gate, and the steps go on until one is
    rejected; the sweep then takes its descent step from the path's top, as
    if no step had been tried.  ``gamma_history`` holds the path maxima
    only, one per sweep.
    """
    opts = opts or SolveOptions()
    check_grid(z0.N, spec.symmetry)
    for name, z in (("z0", z0), ("z1", z1)):
        defect = np.abs(z.nodes - project_symmetric(z, spec.symmetry).nodes).max()
        if not defect <= _CLASS_RTOL * np.abs(z.nodes).max():
            raise ValueError(f"mountain-pass endpoint {name} is not in the symmetry "
                             f"class {spec.symmetry}")
    f0, f1 = action(z0, spec), action(z1, spec)
    if f0 > 0.0 or f1 > 0.0:
        raise PathCollapseError(
            f"endpoints must have nonpositive values, got {f0:.6g} and {f1:.6g}"
        )
    if radius is None:
        radius = 0.5 * speed(z1)
    ok, cert = separation_check(z0, z1, radius)
    if not ok:
        raise PathCollapseError(f"derivative sphere does not separate the endpoints: {cert}")

    m = opts.path_points
    base = max(f0, f1)
    collapse_tol = 1e-9 * (1.0 + abs(base))
    path = np.array([(1.0 - s) * z0.nodes + s * z1.nodes for s in np.linspace(0.0, 1.0, m + 1)])
    pmax = _PathMax(spec)
    seg_vals, seg_taus = pmax.segment_max(path)

    trace: list[CpsRecord] = []
    gammas: list[float] = []
    step = 1.0

    def report(loop, f_value, iterations, termination, message=""):
        return SolveReport(loop, f_value, termination, trace, iterations, message,
                           gamma_history=gammas)

    while True:
        i = int(np.argmax(seg_vals))
        gamma = float(seg_vals[i])
        tau = seg_taus[i]
        gammas.append(gamma)
        top = (1.0 - tau) * path[i] + tau * path[i + 1]
        u = LoopPath(top)
        if gamma <= base + collapse_tol:
            return report(u, gamma, len(trace), "hypothesis_violation", PathCollapseError(
                "path maximum fell to the endpoint level; separation failed numerically").reason())
        # The top, then the Newton steps kept from it, each an iteration; the
        # path stays as it is.
        here = there = potential_pass(u, spec)
        while there:
            rec = cps_append(trace, there, radius)
            end = _stop(rec, there.loop, opts)
            if end:
                return report(there.loop, there.action, rec.iteration, *end)
            there = _newton_step(there, potential_pass, base + collapse_tol, gamma)

        # The path maximum becomes a node: replace the nearest interior one.
        j = i if tau < 0.5 else i + 1
        j = min(max(j, 1), m - 1)

        trials = _trials(top, here.action_gradient, step, spec.symmetry, gamma)
        for next_step, trial, bound in trials:
            vals, taus = pmax.segment_max([path[j - 1], trial.nodes, path[j + 1]])
            hi = vals.max()
            if math.isfinite(hi) and hi <= bound:
                break
        else:
            return report(u, gamma, rec.iteration, "max_iter",
                          "line search stalled at the path maximum")
        path[j] = trial.nodes
        seg_vals[j - 1:j + 1], seg_taus[j - 1:j + 1] = vals, taus
        step = next_step

        # Arc-length re-equidistribution, skipped if it would raise the max.
        candidate = _redistribute(path)
        maxima = pmax.refresh(candidate, int(np.argmax(seg_vals)), seg_vals.max())
        if maxima is not None:
            path, (seg_vals, seg_taus) = candidate, maxima
