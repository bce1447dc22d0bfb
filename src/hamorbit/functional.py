"""The fixed-energy loop functional, its exact discrete gradient and
Hessian-vector product, the ray constraint, and convergence diagnostics.

For a loop u and energy level h the objective is the product

    action(u) = dirichlet_energy(u) * mean_k (h - V(u_k)),

whose positive critical points become periodic orbits after time rescaling.
The gradient here is the exact derivative of that discretized quantity
(differentiate-the-discretization), so finite-difference checks and monotone
line searches hold to rounding, not just asymptotically.

The ray constraint fixes mean_k (V(u_k) + grad V(u_k).u_k / 2) = h; under the
radial nondegeneracy hypothesis every open ray {a u : a > 0} crosses it
exactly once, so projection is a one-dimensional root find (Illinois regula
falsi on a one-way bracket).  Each probe of the bracket is the root of the
growth model g(s u) - c = s^mu1 (g(u) - c), c = mu2/mu1, from the probe
before, within one doubling of it.  The model is exact for the power law: a
power-law landing takes two passes, at u and at the root, plus one per
doubling past the first.

Each constraint evaluation is one fused potential pass (V and grad V at
every node, :meth:`PotentialModel.value_and_gradient`), kept as a
:class:`PotentialPass`.  The root search hands back the pass at the point
it lands on (:func:`ray_landing`), and the functional, its gradient and the
constraint value there come from that pass, with the bits of
:func:`action`, :func:`action_gradient` and :func:`constraint_value`; so a
solver on the ray constraint makes one pass per root evaluation and no
other.

A pass is also the solvers' iterate.  It measures its loop once, on first
read: its factors, level, gradient, loop norm and Cerami-weighted gradient.
The diagnostic record (:func:`cps_append`), the stationarity gate and the
Newton step all read those, so an iterate takes one Dirichlet sum however
many of them read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NoBracketError, ZeroLoopError
from .loopspace import (
    LoopPath,
    check_symmetry,
    exact_sums,
    h1_norm,
    integrate,
    periodic_shift,
    speed,
    stacked_dirichlet_energy,
)
from .potentials import PotentialModel, hessian_ray

ROOT_SCALE_MIN = 1e-8
ROOT_SCALE_MAX = 1e8
ROOT_MAX_STEPS = 200


@dataclass(frozen=True)
class ProblemSpec:
    """A fixed-energy problem: potential, dimension, energy level, growth
    parameters, and the symmetry class the solve is restricted to.  A growth
    parameter left as None is the potential's own (``potential.mu1``,
    ``potential.mu2``)."""

    potential: PotentialModel
    n: int
    h: float
    mu1: float | None = None
    mu2: float | None = None
    symmetry: str = "none"

    def __post_init__(self):
        check_symmetry(self.symmetry)
        for name in ("mu1", "mu2"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, getattr(self.potential, name))
        if self.n != self.potential.n:
            raise ValueError(
                f"spec dimension {self.n} does not match potential dimension {self.potential.n}"
            )
        for name in ("h", "mu1", "mu2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu1 <= 0 or self.mu2 < 0:
            raise ValueError("growth parameters need mu1 > 0 and mu2 >= 0")
        # Strict admissibility; equality degenerates the ray scaling.
        if not self.h > self.mu2 / self.mu1:
            raise ValueError(
                f"h must exceed mu2/mu1 (h={self.h}, mu2/mu1={self.mu2 / self.mu1})"
            )


def _factors(loops: np.ndarray, spec: ProblemSpec, values=None):
    """Dirichlet energies A and mean energy gaps B of an (L, N, n) stack of
    loops, with one potential call unless ``values`` holds V at its L * N
    nodes; each pair has the bits of
    :func:`~hamorbit.loopspace.dirichlet_energy` and ``integrate(h - V)`` on
    that loop alone."""
    return stacked_dirichlet_energy(loops), _gaps(loops, spec, values)


def _gaps(loops: np.ndarray, spec: ProblemSpec, values=None) -> np.ndarray:
    """The mean energy gaps B = mean_k (h - V) of an (L, N, n) stack, shape
    (L,), exactly rounded per loop, with one potential call unless
    ``values`` holds V at its L * N nodes."""
    L, N, n = loops.shape
    if values is None:
        values = spec.potential.value(loops.reshape(L * N, n))
    return exact_sums(spec.h - values.reshape(L, N)) / N


def _gradient(x: np.ndarray, A, B, grads: np.ndarray) -> np.ndarray:
    """grad_k = B * N (2x_k - x_{k+1} - x_{k-1}) - (A/N) grad V(x_k) for a
    loop x with Dirichlet energy A and mean energy gap B, or for an
    (L, N, n) stack with A and B of shape (L,); ``grads`` holds grad V at
    the nodes."""
    N = x.shape[-2]
    A, B = np.asarray(A)[..., None, None], np.asarray(B)[..., None, None]
    return B * N * _laplacian(x) - A / N * grads.reshape(x.shape)


def stacked_action(loops: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """:func:`action` of each loop in an (L, N, n) stack, shape (L,), with
    one potential call; each entry has the bits of the single-loop call."""
    A, B = _factors(loops, spec)
    return A * B


def stacked_action_gradient(loops: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """:func:`action_gradient` of each loop in an (L, N, n) stack, shape
    (L, N, n), with one ``value_and_gradient`` call of the potential (see
    :func:`_gradient`); each entry has the bits of the single-loop call."""
    L, N, n = loops.shape
    values, grads = spec.potential.value_and_gradient(loops.reshape(L * N, n))
    return _gradient(loops, *_factors(loops, spec, values), grads)


def _laplacian(x: np.ndarray) -> np.ndarray:
    """2 x_k - x_{k+1} - x_{k-1} along the node axis of a loop or a stack."""
    return 2.0 * x - periodic_shift(x, 1) - periodic_shift(x, -1)


def action(u: LoopPath, spec: ProblemSpec) -> float:
    """dirichlet_energy(u) times the mean energy gap mean(h - V(u))."""
    return float(stacked_action(u.nodes[None], spec)[0])


def action_gradient(u: LoopPath, spec: ProblemSpec) -> np.ndarray:
    """Exact nodewise gradient of :func:`action` as an (N, n) array; see
    :func:`stacked_action_gradient`."""
    return stacked_action_gradient(u.nodes[None], spec)[0]


@dataclass(frozen=True, eq=False)
class PotentialPass:
    """The loop ``scale * u`` with the one potential pass made at its nodes,
    V (``values``), grad V (``grads``) and the constraint value ``g``: an
    iterate of either route.

    What the solvers read of the iterate is measured from the pass on first
    read and kept: its Dirichlet energy and mean energy gap (``factors``,
    one :func:`_factors` call), then its level ``action``, its gradient
    ``action_gradient``, its ``speed`` and its ``loop_norm``, with the bits
    of :func:`action`, :func:`action_gradient`,
    :func:`~hamorbit.loopspace.speed` and :func:`~hamorbit.loopspace.h1_norm`,
    and its ``weighted_gradient``.  So an iterate takes one Dirichlet sum,
    whoever reads it."""

    spec: ProblemSpec
    scale: float
    loop: LoopPath
    values: np.ndarray
    grads: np.ndarray
    g: float

    @cached_property
    def factors(self) -> tuple[float, float]:
        A, B = _factors(self.loop.nodes[None], self.spec, self.values)
        return float(A[0]), float(B[0])

    @cached_property
    def action(self) -> float:
        A, B = self.factors
        return A * B

    @cached_property
    def action_gradient(self) -> np.ndarray:
        return _gradient(self.loop.nodes, *self.factors, self.grads)

    @cached_property
    def speed(self) -> float:
        return math.sqrt(2.0 * self.factors[0])

    @cached_property
    def loop_norm(self) -> float:
        return h1_norm(self.loop, self.speed)

    @cached_property
    def weighted_gradient(self) -> float:
        """Cerami's weighted gradient (1 + ``loop_norm``) times the
        :func:`gradient_dual_norm` of the gradient: what the stationarity
        gate reads."""
        return (1.0 + self.loop_norm) * gradient_dual_norm(self.action_gradient)

    def action_hessian(self):
        """The Hessian of :func:`action` at the loop as a map v -> H v on
        (N, n) directions, from the pass and one ``hessian`` call of the
        potential (which a model without one raises from):

            H v = B N lap(v) - (A/N) V''(u_k) v_k + grad A (grad B . v)
                  + grad B (grad A . v),

        with grad A = N lap(u) and grad B = -grad V(u_k) / N."""
        nodes = self.loop.nodes
        N = len(nodes)
        hess = self.spec.potential.hessian(nodes)
        A, B = self.factors
        dA, dB = N * _laplacian(nodes), -self.grads / N

        def product(v):
            return (B * N * _laplacian(v) - (A / N) * (hess @ v[:, :, None])[:, :, 0]
                    + dA * float(np.vdot(dB, v)) + dB * float(np.vdot(dA, v)))

        return product


def potential_pass(u: LoopPath, spec: ProblemSpec, scale: float = 1.0) -> PotentialPass:
    """One ``value_and_gradient`` call at the nodes of ``scale * u``."""
    loop = u if scale == 1.0 else LoopPath(scale * u.nodes)
    values, grads = spec.potential.value_and_gradient(loop.nodes)
    g = integrate(values + 0.5 * np.sum(grads * loop.nodes, axis=1))
    return PotentialPass(spec, scale, loop, values, grads, g)


def constraint_value(u: LoopPath, spec: ProblemSpec) -> float:
    """Mean of V(u) + grad V(u).u / 2 over the loop."""
    return potential_pass(u, spec).g


def constraint_gradient(u: LoopPath, spec: ProblemSpec) -> np.ndarray:
    """Nodewise gradient of :func:`constraint_value`, exact: its
    Hessian-times-ray term is :func:`~hamorbit.potentials.hessian_ray`."""
    nodes = u.nodes
    grad = spec.potential.gradient(nodes)
    return (1.5 * grad + 0.5 * hessian_ray(spec.potential, nodes)) / u.N


def root_tolerance(spec: ProblemSpec) -> float:
    """How close g(u) must come to h for u to count as on the ray constraint."""
    return 1e-12 * (1.0 + abs(spec.h))


def scaling_root(u: LoopPath, spec: ProblemSpec) -> float:
    """Scale a > 0 placing a*u on the ray constraint g(a u) = h; the scale
    of :func:`ray_landing`."""
    return ray_landing(u, spec).scale


def ray_landing(u: LoopPath, spec: ProblemSpec) -> PotentialPass:
    """The :class:`PotentialPass` at a u, a > 0 placing a*u on the ray
    constraint g(a u) = h, found by a one-way bracket and Illinois regula
    falsi (Dowell & Jarratt 1971).  Each evaluation of g is one
    :func:`potential_pass`, and the landing is the last of them.

    Under B2-B4, a -> g(a u) increases: at each node d/dr g is
    (r^3 dV/dr)' / (2 r^2), B4 makes r^3 dV/dr strictly monotone from 0, and
    were it to fall, grad V.q < 0 and B2 would give V < mu2/mu1 < h on the
    whole ray, which B3 rules out.  So the sign of g(u) - h picks the
    direction: the bracket grows a while g < h and shrinks it while g > h,
    within [1e-8, 1e8].  Each probe b is aimed from the pass just made, at
    scale a with constraint value g: b is a times the growth model's root
    from g where that lies strictly between 1 and 2 (or 1/2), else 2a (or
    a/2); see :func:`_model_probe`.  So each probe lies within one doubling
    (halving) of the last, and the k-th no farther out than 2^k (or in than
    2^-k).  The model is exact for the power law, so a power-law landing costs
    two passes once the root lies within one doubling, and one more per
    doubling past the first.  Regula falsi then runs until
    |g(a u) - h| <= :func:`root_tolerance` or its next point is not strictly
    inside the bracket.  :class:`NoBracketError` holds the probes of the one
    direction searched.
    """
    if not np.any(u.nodes):
        raise ZeroLoopError("ray scaling is undefined for the zero loop")
    tol = root_tolerance(spec)
    landing = None
    samples = []

    def phi(a: float) -> float:
        nonlocal landing
        landing = potential_pass(u, spec, a)
        samples.append((a, landing.g))
        return landing.g - spec.h

    f1 = phi(1.0)
    if abs(f1) <= tol:
        return landing

    direction = 2.0 if f1 < 0.0 else 0.5
    a, fa, b = 1.0, f1, _model_probe(landing.g, spec, direction)
    while True:
        if not ROOT_SCALE_MIN <= b <= ROOT_SCALE_MAX:
            raise NoBracketError(
                "no sign change of the constraint along the ray in [1e-8, 1e8]; "
                "growth hypotheses likely fail for this potential",
                samples,
            )
        fb = phi(b)
        if abs(fb) <= tol:
            return landing
        if (fb < 0.0) != (f1 < 0.0):
            break
        a, fa, b = b, fb, b * _model_probe(landing.g, spec, direction)

    _illinois(phi, a, fa, b, fb, tol=tol)  # its b is the last scale phi took
    residual = abs(landing.g - spec.h)
    if not residual <= tol:
        raise DomainError(f"ray landing ended off the constraint: |g - h| = {residual:.3g}")
    return landing


def _model_probe(g: float, spec: ProblemSpec, direction: float) -> float:
    """The factor from a probe u, where the constraint value is g = g(u), to
    the next probe: the root s* = ((h - c) / (g - c))^(1/mu1) of the growth
    model g(s u) - c = s^mu1 (g(u) - c), c = mu2/mu1, when g > c and s* lies
    strictly between 1 and ``direction`` (2 or 1/2); else ``direction``.
    The model is exact for the power law a |q|^mu1 + mu2/mu1.  Each factor
    lies between 1 and ``direction``, so the k-th probe of a bracket lies
    between 1 and ``direction``^k, never farther along the ray than
    doubling from 1."""
    c = spec.mu2 / spec.mu1
    if g > c:
        try:
            s = ((spec.h - c) / (g - c)) ** (1.0 / spec.mu1)
        except OverflowError:  # far past ``direction``
            return direction
        if min(1.0, direction) < s < max(1.0, direction):
            return s
    return direction


def _illinois(phi, a, fa, b, fb, tol):
    """Illinois regula falsi (Dowell & Jarratt 1971), the root search of
    :func:`ray_landing`, on a bracket [a, b] of a sign change of phi, b
    being the newest point: the value stored at an end kept twice in a row
    is halved.  At most ROOT_MAX_STEPS steps; stops once |phi(b)| <= tol or
    the next point is not strictly inside the bracket.  Returns b, the last
    point phi took."""
    for _ in range(ROOT_MAX_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            break
        fc = phi(c)
        if (fc < 0.0) != (fb < 0.0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
        if abs(fb) <= tol:
            break
    return b


# ---------------------------------------------------------------------------
# constraint-set diagnostics

def constraint_distance(u: LoopPath, radius: float | None, spec: ProblemSpec,
                        loop_speed: float | None = None) -> float:
    """Computable stand-in for the distance from u to the constraint set.

    ``radius=None`` is the ray constraint {u : mean(V(u) + grad V(u).u / 2) = h};
    the stand-in is the gap along the ray, |1 - scaling_root(u)| * ||u||, an
    upper bound that vanishes exactly on the set.  A radius r names the
    derivative sphere {u : ||u'||_{L2} = r}, and the stand-in is the exact
    radial gap |speed(u) - r|.  ``loop_speed``, speed(u), spares the
    Dirichlet sum.
    """
    if loop_speed is None:
        loop_speed = speed(u)
    if radius is not None:
        return abs(loop_speed - radius)
    return abs(1.0 - scaling_root(u, spec)) * h1_norm(u, loop_speed)


def gradient_dual_norm(grad: np.ndarray) -> float:
    """Discrete L2 norm of a nodewise gradient rescaled by N.

    Nodewise partials shrink like 1/N as the grid refines; this scaling
    recovers the L2 norm of the underlying gradient field so tolerances mean
    the same thing at every resolution.
    """
    g = np.asarray(grad, dtype=float)
    return math.sqrt(g.shape[0] * exact_sums((g * g).ravel()))


@dataclass(frozen=True)
class CpsRecord:
    """One diagnostic snapshot along a solve."""

    iteration: int
    f_value: float
    loop_norm: float
    weighted_gradient: float  # see PotentialPass.weighted_gradient: Cerami's weight
    distance_proxy: float
    constraint_residual: float

    def __post_init__(self):
        vals = (self.f_value, self.loop_norm, self.weighted_gradient,
                self.distance_proxy, self.constraint_residual)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("diagnostic record has non-finite entries")


def cps_append(trace: list, here: PotentialPass, radius: float | None = None) -> CpsRecord:
    """Append a diagnostic record for the iterate ``here`` and return it.

    The record's iteration is its index in ``trace``; its level, loop norm
    and weighted gradient are the pass's own, and its constraint residual is
    |g - h| from the pass's constraint value.  ``radius`` is the derivative
    sphere's, or None for the ray constraint (see
    :func:`constraint_distance`).  The distance proxy reads the pass's
    speed, so the record takes no Dirichlet sum of its own.
    """
    spec, u = here.spec, here.loop
    residual = abs(here.g - spec.h)
    if radius is None and residual <= root_tolerance(spec) and np.any(u.nodes):
        proxy = 0.0  # on the set already: scaling_root would return 1
    else:
        try:
            proxy = constraint_distance(u, radius, spec, here.speed)
        except ZeroLoopError:
            proxy = residual  # ray projection undefined at 0; fall back
    rec = CpsRecord(iteration=len(trace), f_value=here.action, loop_norm=here.loop_norm,
                    weighted_gradient=here.weighted_gradient, distance_proxy=proxy,
                    constraint_residual=residual)
    trace.append(rec)
    return rec
