"""The fixed-energy loop functional, its exact discrete gradient, the ray
constraint, and convergence diagnostics.

For a loop u and energy level h the objective is the product

    action(u) = dirichlet_energy(u) * mean_k (h - V(u_k)),

whose positive critical points become periodic orbits after time rescaling.
The gradient here is the exact derivative of that discretized quantity
(differentiate-the-discretization), so finite-difference checks and monotone
line searches hold to rounding, not just asymptotically.

The ray constraint fixes mean_k (V(u_k) + grad V(u_k).u_k / 2) = h; under the
radial nondegeneracy hypothesis every open ray {a u : a > 0} crosses it
exactly once, so projection is a one-dimensional root find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBracketError, ZeroLoopError
from .loopspace import (
    LoopPath,
    check_symmetry,
    dirichlet_energy,
    h1_norm,
    integrate,
    speed,
)
from .potentials import PotentialModel, hessian_ray

ROOT_SCALE_MIN = 1e-8
ROOT_SCALE_MAX = 1e8
ROOT_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class ProblemSpec:
    """A fixed-energy problem: potential, dimension, energy level, growth
    parameters, and the symmetry class the solve is restricted to."""

    potential: PotentialModel
    n: int
    h: float
    mu1: float
    mu2: float = 0.0
    symmetry: str = "none"

    def __post_init__(self):
        check_symmetry(self.symmetry)
        if self.n != self.potential.n:
            raise ValueError(
                f"spec dimension {self.n} does not match potential dimension {self.potential.n}"
            )
        if self.mu1 <= 0 or self.mu2 < 0:
            raise ValueError("growth parameters need mu1 > 0 and mu2 >= 0")
        # Strict admissibility; equality degenerates the ray scaling.
        if not self.h > self.mu2 / self.mu1:
            raise ValueError(
                f"h must exceed mu2/mu1 (h={self.h}, mu2/mu1={self.mu2 / self.mu1})"
            )


def action(u: LoopPath, spec: ProblemSpec) -> float:
    """dirichlet_energy(u) times the mean energy gap mean(h - V(u))."""
    gap = integrate(spec.h - spec.potential.value(u.nodes))
    return dirichlet_energy(u) * gap


def action_gradient(u: LoopPath, spec: ProblemSpec) -> np.ndarray:
    """Exact nodewise gradient of :func:`action` as an (N, n) array.

    grad_k = B * N (2u_k - u_{k+1} - u_{k-1}) - (A/N) grad V(u_k), with
    A the Dirichlet energy and B the mean energy gap.
    """
    nodes = u.nodes
    A = dirichlet_energy(u)
    B = integrate(spec.h - spec.potential.value(nodes))
    lap = 2.0 * nodes - np.roll(nodes, -1, axis=0) - np.roll(nodes, 1, axis=0)
    return B * u.N * lap - (A / u.N) * spec.potential.gradient(nodes)


def constraint_value(u: LoopPath, spec: ProblemSpec) -> float:
    """Mean of V(u) + grad V(u).u / 2 over the loop."""
    nodes = u.nodes
    vals = spec.potential.value(nodes)
    radial = np.sum(spec.potential.gradient(nodes) * nodes, axis=1)
    return integrate(vals + 0.5 * radial)


def constraint_gradient(u: LoopPath, spec: ProblemSpec) -> np.ndarray:
    """Nodewise gradient of :func:`constraint_value`.

    The Hessian-times-ray term uses the same central difference rule as the
    radial second derivative, so no user Hessian is ever needed.
    """
    nodes = u.nodes
    grad = spec.potential.gradient(nodes)
    return (1.5 * grad + 0.5 * hessian_ray(spec.potential, nodes)) / u.N


def root_tolerance(spec: ProblemSpec) -> float:
    """How close g(u) must come to h for u to count as on the ray constraint."""
    return 1e-12 * (1.0 + abs(spec.h))


def scaling_root(u: LoopPath, spec: ProblemSpec) -> float:
    """Scale a > 0 placing a*u on the ray constraint g(a u) = h, by a
    one-way bracket and bisection.

    Under B2-B4, a -> g(a u) increases: at each node d/dr g is
    (r^3 dV/dr)' / (2 r^2), B4 makes r^3 dV/dr strictly monotone from 0, and
    were it to fall, grad V.q < 0 and B2 would give V < mu2/mu1 < h on the
    whole ray, which B3 rules out.  So the sign of g(u) - h picks the
    direction: the bracket doubles a from 1 while g < h and halves it while
    g > h, within [1e-8, 1e8]; bisection then meets
    |g(a u) - h| <= :func:`root_tolerance`.  :class:`NoBracketError` holds the
    probes of the one direction searched.
    """
    if not np.any(u.nodes):
        raise ZeroLoopError("ray scaling is undefined for the zero loop")
    tol = root_tolerance(spec)

    def phi(a: float) -> float:
        return constraint_value(LoopPath(a * u.nodes), spec) - spec.h

    f1 = phi(1.0)
    samples = [(1.0, f1 + spec.h)]
    if abs(f1) <= tol:
        return 1.0

    direction = 2.0 if f1 < 0.0 else 0.5
    a = b = 1.0
    fb = f1
    while (fb < 0.0) == (f1 < 0.0):
        a, b = b, b * direction
        if not ROOT_SCALE_MIN <= b <= ROOT_SCALE_MAX:
            raise NoBracketError(
                "no sign change of the constraint along the ray in [1e-8, 1e8]; "
                "growth hypotheses likely fail for this potential",
                samples,
            )
        fb = phi(b)
        samples.append((b, fb + spec.h))
        if abs(fb) <= tol:
            return b

    lo, hi = min(a, b), max(a, b)
    for _ in range(ROOT_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        fm = phi(mid)
        if abs(fm) <= tol:
            break
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


# ---------------------------------------------------------------------------
# constraint-set descriptors and diagnostics

@dataclass(frozen=True)
class GradientSphere:
    """The derivative sphere {u : ||u'||_{L2} = radius}."""

    radius: float


def constraint_distance(u: LoopPath, where: GradientSphere | None,
                        spec: ProblemSpec) -> float:
    """Computable stand-in for the distance from u to the constraint set.

    ``where=None`` is the ray constraint {u : mean(V(u) + grad V(u).u / 2) = h};
    the stand-in is the gap along the ray, |1 - scaling_root(u)| * ||u||, an
    upper bound that vanishes exactly on the set.  For a derivative sphere it
    is the exact radial gap.
    """
    if where is not None:
        return abs(speed(u) - where.radius)
    return abs(1.0 - scaling_root(u, spec)) * h1_norm(u)


def gradient_dual_norm(grad: np.ndarray) -> float:
    """Discrete L2 norm of a nodewise gradient rescaled by N.

    Nodewise partials shrink like 1/N as the grid refines; this scaling
    recovers the L2 norm of the underlying gradient field so tolerances mean
    the same thing at every resolution.
    """
    g = np.asarray(grad, dtype=float)
    return math.sqrt(g.shape[0] * math.fsum((g * g).ravel()))


def weighted_gradient_norm(u: LoopPath, grad: np.ndarray) -> float:
    """(1 + ||u||) times the dual gradient norm: the Cerami-weighted quantity."""
    return (1.0 + h1_norm(u)) * gradient_dual_norm(grad)


@dataclass(frozen=True)
class CpsRecord:
    """One diagnostic snapshot along a solve."""

    iteration: int
    f_value: float
    loop_norm: float
    weighted_gradient: float
    distance_proxy: float
    constraint_residual: float

    def __post_init__(self):
        vals = (self.f_value, self.loop_norm, self.weighted_gradient,
                self.distance_proxy, self.constraint_residual)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("diagnostic record has non-finite entries")


def cps_append(trace: list, u: LoopPath, spec: ProblemSpec, where: GradientSphere | None,
               iteration: int, grad: np.ndarray) -> CpsRecord:
    """Append a diagnostic record for the current iterate and return it;
    ``grad`` is the iterate's :func:`action_gradient`, which the solver holds."""
    if trace and iteration <= trace[-1].iteration:
        raise ValueError("iteration indices must be strictly increasing")
    residual = abs(constraint_value(u, spec) - spec.h)
    if where is None and residual <= root_tolerance(spec) and np.any(u.nodes):
        proxy = 0.0  # on the set already: scaling_root would return 1
    else:
        try:
            proxy = constraint_distance(u, where, spec)
        except ZeroLoopError:
            proxy = residual  # ray projection undefined at 0; fall back
    rec = CpsRecord(
        iteration=iteration,
        f_value=action(u, spec),
        loop_norm=h1_norm(u),
        weighted_gradient=weighted_gradient_norm(u, grad),
        distance_proxy=proxy,
        constraint_residual=residual,
    )
    trace.append(rec)
    return rec
