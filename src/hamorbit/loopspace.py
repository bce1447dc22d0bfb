"""Discrete unit-period loops and the basic operations on them.

A loop is N uniformly spaced samples of a map R/Z -> R^n.  The derivative is
the forward difference scaled by N and the quadrature is the rectangle rule
(which coincides with the trapezoid rule on a uniform periodic grid).  With
these choices the Dirichlet energy is an exact quadratic form whose gradient
is the periodic three-point Laplacian, so descent steps see a derivative that
is consistent with the discretized objective, not just with its continuum
limit.

This module is the one home of four rules that the rest of the package
applies to loops and to (L, N, n) stacks of them.  Nodes run along axis -2,
and :func:`periodic_shift` is the one circular shift, x_{k+j} with k + j
taken mod N; the time-shifted loop u(t + j/N) is
``LoopPath(periodic_shift(u.nodes, j))``.  :func:`stacked_dirichlet_energy` is the one Dirichlet sum:
(N/2) * sum |x_{k+1} - x_k|^2 per loop, exactly rounded; beside it,
:func:`stacked_dirichlet_cross` is its bilinear form on two loops, which
gives the Dirichlet energy along a whole segment between them.

:func:`exact_sums` is the one exactly rounded sum (``math.fsum``), and every
sum that feeds an invariant (quadrature, Dirichlet energy, norms) goes
through it, a whole stack of rows per call.  An exactly rounded sum does not
depend on the order of its terms, so these quantities are invariant to the
bit under circular shifts and reversal of the samples.  It hands ``fsum``
each row as a ``memoryview``, which yields Python floats straight from the
buffer: iterating a numpy array would build one numpy scalar per element,
and ``tolist`` a list of them, for the same bits.

:func:`split_rows` is the one batch-fault rule: it finds the rows of a
batched call that raise, for the checker's samples, the mountain pass's
segments and grid loops, and the closure ladder's rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OddNodeCountError

SYMMETRY_CLASSES = ("none", "e1", "e2")
NONCONSTANT_SPEED = 1e-6  # acceptance gate on ||u'||_{L2}
MIN_NODES = 8  # the fewest samples a loop may have
RANDOM_LOOP_MODES = 4  # Fourier modes of random_loop


@dataclass(frozen=True)
class LoopPath:
    """N samples of a 1-periodic path in R^n; row k holds u(k/N)."""

    nodes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.nodes, dtype=float)
        if arr.ndim != 2:
            raise ValueError("nodes must be an (N, n) array")
        if arr.shape[0] < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ValueError("spatial dimension must be >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("loop nodes must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "nodes", arr)

    @property
    def N(self) -> int:
        return self.nodes.shape[0]


def check_symmetry(tag: str) -> str:
    if tag not in SYMMETRY_CLASSES:
        raise ValueError(f"unknown symmetry class {tag!r}; use one of {SYMMETRY_CLASSES}")
    return tag


def check_grid(n_nodes: int, symmetry: str) -> None:
    """The one parity rule: the ``e1`` class needs an even node count, so
    t + 1/2 lands on the grid; a grid of ``n_nodes`` that cannot hold a
    loop of the class raises :class:`OddNodeCountError`."""
    if symmetry == "e1" and n_nodes % 2:
        raise OddNodeCountError(f"half-period symmetry needs an even node count, got {n_nodes}")


def periodic_shift(x: np.ndarray, j: int) -> np.ndarray:
    """x_{k+j}, k + j mod N, along the node axis (-2) of an (N, n) loop or an
    (L, N, n) stack, joined from two slices: bit for bit a circular roll
    by -j."""
    j %= x.shape[-2]
    return np.concatenate((x[..., j:, :], x[..., :j, :]), axis=-2)


def exact_sums(rows: np.ndarray):
    """The exactly rounded sum (``math.fsum``) of each row of a 2-D float
    array, shape (L,); a 1-D array is one row, and gives a float.  Finite
    terms whose partial sums leave the float range raise
    :class:`DomainError`."""
    try:
        if rows.ndim == 1:
            return math.fsum(memoryview(rows))
        return np.fromiter(map(math.fsum, map(memoryview, rows)), float, len(rows))
    except OverflowError as err:
        raise DomainError(f"exact sum out of the float range ({err})") from None


def split_rows(evaluate, rows, failed=None):
    """One entry per row of ``rows``, in order: that row's part of
    ``evaluate(rows)``, or the :class:`DomainError` or ``ValueError`` the row
    raises alone; a row must raise or not whatever batch it is in.
    ``failed``, the error ``evaluate(rows)`` raised, spares that call.  A
    batch is one call, and a batch that raises is halved, down to single
    rows.  A right half whose left half came back clean holds its parent's
    failure, so it inherits the parent's error without a call of its own:
    a caller that stops at the first error makes at most ceil(log2 M) + 1
    more calls on M rows.  The generator returns True when its batch came
    back clean."""
    if failed is None:
        try:
            entries = evaluate(rows)
        except (DomainError, ValueError) as err:
            failed = err
        else:
            yield from entries
            return True
    if len(rows) == 1:
        yield failed
    else:
        clean = yield from split_rows(evaluate, rows[:len(rows) // 2])
        yield from split_rows(evaluate, rows[len(rows) // 2:], failed if clean else None)


def integrate(samples) -> float:
    """Rectangle-rule integral of scalar samples over one period (their mean).

    Uses an exactly rounded sum, so the result is bit-identical under any
    circular shift of the samples.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError("integrate expects a flat sequence of scalars")
    return exact_sums(arr) / len(arr)


def stacked_dirichlet_energy(loops: np.ndarray) -> np.ndarray:
    """:func:`dirichlet_energy` of each loop in an (L, N, n) stack, shape (L,).

    Evaluates the exact quadratic form (N/2) * sum |u_{k+1} - u_k|^2 with an
    exactly rounded sum per loop; shift-invariant and even in u to the last
    bit, and independent of the other loops in the stack.
    """
    L, N, _ = loops.shape
    d = periodic_shift(loops, 1) - loops
    return 0.5 * N * exact_sums((d * d).reshape(L, -1))


def stacked_dirichlet_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Dirichlet cross term (N/2) * sum (a_{k+1} - a_k).(b_{k+1} - b_k)
    of each pair of loops in two (L, N, n) stacks, shape (L,), exactly
    rounded per pair; on a segment (1-t) a + t b the Dirichlet energy is
    (1-t)^2 A(a) + 2 t (1-t) D(a, b) + t^2 A(b)."""
    L, N, _ = a.shape
    da, db = periodic_shift(a, 1) - a, periodic_shift(b, 1) - b
    return 0.5 * N * exact_sums((da * db).reshape(L, -1))


def dirichlet_energy(u: LoopPath) -> float:
    """Half the integrated squared speed, (1/2) * int |u'|^2 dt; see
    :func:`stacked_dirichlet_energy`."""
    return float(stacked_dirichlet_energy(u.nodes[None])[0])


def speed(u: LoopPath) -> float:
    """L2 norm of the derivative, ||u'||_{L2} = sqrt(2 * dirichlet_energy(u))."""
    return math.sqrt(2.0 * dirichlet_energy(u))


def is_nonconstant(nodes: np.ndarray) -> bool:
    """The one rule for a nonconstant loop: the loop with these (N, n) nodes
    has :func:`speed` at least ``NONCONSTANT_SPEED``, to the bit of
    ``speed``."""
    return math.sqrt(2.0 * stacked_dirichlet_energy(nodes[None])[0]) >= NONCONSTANT_SPEED


def stacked_h1_norm(loops: np.ndarray, speeds=None) -> np.ndarray:
    """:func:`h1_norm` of each loop in an (L, N, n) stack, shape (L,), each
    with the bits of the single-loop call; the means are exactly rounded.
    ``speeds``, the loops' :func:`speed`, spares the Dirichlet sums."""
    L, N, n = loops.shape
    means = exact_sums(np.swapaxes(loops, 1, 2).reshape(L * n, N)).reshape(L, n) / N
    if speeds is None:
        speeds = np.sqrt(2.0 * stacked_dirichlet_energy(loops))
    return np.asarray(speeds, dtype=float) + [np.linalg.norm(m) for m in means]


def h1_norm(u: LoopPath, loop_speed: float | None = None) -> float:
    """Loop-space norm: L2 norm of the derivative plus length of the mean.

    On the antisymmetric subspaces the mean vanishes and this reduces to the
    derivative seminorm, which is a genuine norm there.  ``loop_speed``,
    :func:`speed` of u, spares the Dirichlet sum.
    """
    speeds = None if loop_speed is None else [loop_speed]
    return float(stacked_h1_norm(u.nodes[None], speeds)[0])


def project_symmetric(u: LoopPath, symmetry: str) -> LoopPath:
    """Orthogonal projection onto a symmetry subspace of loop space.

    ``e1`` keeps the half-period antisymmetric part w(t) = (u(t) - u(t+1/2))/2
    and needs an even node count (:func:`check_grid`); ``e2`` keeps
    the odd part w(t) = (u(t) - u(-t))/2.  ``none`` is the identity.  Both
    projections are idempotent exactly in floating point.
    """
    check_symmetry(symmetry)
    if symmetry == "none":
        return u
    if symmetry == "e1":
        check_grid(u.N, symmetry)
        return LoopPath(0.5 * (u.nodes - periodic_shift(u.nodes, u.N // 2)))
    return LoopPath(0.5 * (u.nodes - u.nodes[-np.arange(u.N) % u.N]))


def symmetry_defect(nodes: np.ndarray, projected: np.ndarray) -> float:
    """Sup-norm distance of raw nodes from their symmetry projection."""
    return float(np.abs(nodes - projected).max())


def sobolev_precondition(g: np.ndarray) -> np.ndarray:
    """Solve (I - L) w = g where L is the periodic second difference.

    L acts componentwise as N^2 (w_{k+1} - 2 w_k + w_{k-1}) with indices mod
    N.  The operator is symmetric positive definite, so the solve is a linear,
    symmetric, positive-definite map.  The package's H^1 inner product
    (that of :func:`speed` and :func:`h1_norm`) carries the quadrature
    weight 1/N, (1/N) u.(I - L) v, so w is 1/N of the Riesz representative
    of a nodewise gradient g there, and a step of N w is the unit step
    along it.  The operator is circulant,
    so the discrete Fourier modes diagonalize it: mode m is divided by its
    eigenvalue 1 + 4 N^2 sin^2(pi m / N).
    """
    g = np.asarray(g, dtype=float)
    N = g.shape[0]
    lam = _sobolev_symbol(N).reshape((-1,) + (1,) * (g.ndim - 1))
    return np.fft.irfft(np.fft.rfft(g, axis=0) / lam, n=N, axis=0)


@functools.lru_cache(maxsize=None)
def _sobolev_symbol(N: int) -> np.ndarray:
    """The eigenvalues 1 + 4 N^2 sin^2(pi m / N), m = 0 .. N/2, of the
    operator :func:`sobolev_precondition` inverts, made once per N and
    read-only."""
    lam = 1.0 + 4.0 * N * N * np.sin(np.pi * np.arange(N // 2 + 1) / N) ** 2
    lam.flags.writeable = False
    return lam


def resample(u: LoopPath, new_n_nodes: int) -> LoopPath:
    """Periodic piecewise-linear resampling to a different node count."""
    pos = np.arange(new_n_nodes) * (u.N / new_n_nodes)
    k = np.floor(pos).astype(int) % u.N
    theta = (pos - np.floor(pos))[:, None]
    nxt = (k + 1) % u.N
    return LoopPath((1.0 - theta) * u.nodes[k] + theta * u.nodes[nxt])


def circle_loop(n_nodes: int, dim: int) -> LoopPath:
    """Unit-frequency unit circle in the first two coordinates (cosine wave if dim == 1)."""
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.zeros((n_nodes, dim))
    nodes[:, 0] = np.cos(t)
    if dim >= 2:
        nodes[:, 1] = np.sin(t)
    return LoopPath(nodes)


def zero_loop(n_nodes: int, dim: int) -> LoopPath:
    return LoopPath(np.zeros((n_nodes, dim)))


def random_loop(n_nodes, dim, rng) -> LoopPath:
    """Random band-limited loop with zero mean: the first RANDOM_LOOP_MODES
    Fourier modes with seeded normal coefficients decaying like 1/m."""
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.zeros((n_nodes, dim))
    for m in range(1, RANDOM_LOOP_MODES + 1):
        a = rng.standard_normal(dim) / m
        b = rng.standard_normal(dim) / m
        nodes += np.outer(np.cos(m * t), a) + np.outer(np.sin(m * t), b)
    return LoopPath(nodes)
