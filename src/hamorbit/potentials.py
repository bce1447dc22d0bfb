"""Potential models V: R^n -> R and samplers for the growth hypotheses.

Two model kinds share one interface: a built-in radial power law
V(q) = a |q|^mu1 + mu2/mu1, and a parsed expression over q1..qn.  Each
writes its text with ``describe()``, which :func:`parse_potential` reads
back, and carries the growth exponents mu1, mu2 of the bound
grad V(q).q >= mu1 V(q) - mu2 that a problem takes unless told otherwise.
Both evaluate value and gradient on batches of points, and both give the pair
from one pass, ``value_and_gradient``, with the bits of the two separate
calls: the power law takes |q| once, and the expression kind takes the
values that its first-order forward pass already carries.  A model that
defines only ``value`` and ``gradient`` inherits a pair entry that calls
the two.  Both kinds also give exact Hessian blocks, ``hessian``: the power
law in closed form, the expression kind from the same forward pass run to
order 2, whose values and gradient are the pair's;
:func:`hessian_ray` and check B4 rest on it.

The hypothesis checkers are sampling-based: "pass" means no counterexample
was found at the configured tolerance, never a proof.  Given the same seed
they are fully deterministic.  The one tolerance plays a different role in
each check, so loosening it loosens only some of them:

- B1 (evenness) and B2 (superlinearity): a slack on the residual, so a
  wider tolerance can only turn fail into pass;
- B3 (coercivity): ignored;
- B4 (radial nondegeneracy): a floor the scaled residual must reach, so a
  wider tolerance can only turn pass into fail;
- B5 (loop sphere): a dead band of tolerance * (1 + |h|) around zero, so a
  wider tolerance can only turn pass or fail into inconclusive.

B1, B2 and B4 read one point sample: one value-and-gradient pass, the
values at the mirrored points -q, and the Hessian ray, and one verdict rule
picks each one's worst sample.  B3 samples spheres and B5 loops.  Every
potential call of the checker goes through one batch rule: a batch that
raises :class:`DomainError` is halved down to its first point that raises
alone, and the error names that point, so a failure at a mirror -q names
-q.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import expressions
from .errors import DomainError
from .loopspace import exact_sums, random_loop, stacked_dirichlet_energy


class PotentialModel:
    """Shared interface: ``value(q)``, ``gradient(q)`` and their pair
    ``value_and_gradient(q)`` on points or batches, the optional
    ``hessian(q)``, and the growth exponents mu1, mu2 (those of an
    expression unless a model sets its own)."""

    n = 0
    mu1 = 2.0
    mu2 = 0.0

    def value(self, q):
        raise NotImplementedError

    def gradient(self, q):
        raise NotImplementedError

    def value_and_gradient(self, q):
        """``(value(q), gradient(q))``; a model that can share work between
        the two overrides this with one pass of the same bits."""
        return self.value(q), self.gradient(q)

    def hessian(self, q):
        """Exact Hessian blocks, (n, n) at a point or (M, n, n) on a batch.
        Optional: a model without it raises ``NotImplementedError``, and the
        mountain pass then takes descent steps only."""
        raise NotImplementedError(f"{type(self).__name__} has no hessian")

    def describe(self) -> str:
        raise NotImplementedError


def _batched(q, n):
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        if q.shape[0] != n:
            raise ValueError(f"point has dimension {q.shape[0]}, potential expects {n}")
        return q[None, :], True
    if q.ndim != 2 or q.shape[1] != n:
        raise ValueError(f"expected points of dimension {n}, got shape {q.shape}")
    return q, False


class PowerLawPotential(PotentialModel):
    """Radial power law a |q|^mu1 + mu2/mu1 with closed-form derivatives."""

    def __init__(self, a: float, mu1: float, mu2: float = 0.0, n: int = 2):
        if not n >= 1:
            raise ValueError("power law needs dimension n >= 1")
        if not 0 < a < math.inf:
            raise ValueError(f"power law needs finite a > 0, got {a}")
        if not 2 <= mu1 < math.inf:
            raise ValueError(f"power law needs finite mu1 >= 2, got {mu1}")
        if not 0 <= mu2 < math.inf:
            raise ValueError(f"power law needs finite mu2 >= 0, got {mu2}")
        self.a = float(a)
        self.mu1 = float(mu1)
        self.mu2 = float(mu2)
        self.n = int(n)

    def _values(self, r):
        return self.a * r**self.mu1 + self.mu2 / self.mu1

    def _gradients(self, pts, r):
        # r**(mu1-2) is 1 at r=0 when mu1 == 2 and 0 when mu1 > 2; both give
        # the correct limit once multiplied by q.
        coef = self.a * self.mu1 * r ** (self.mu1 - 2.0)
        return coef[:, None] * pts

    def value(self, q):
        pts, single = _batched(q, self.n)
        out = self._values(expressions.point_norms(pts))
        return float(out[0]) if single else out

    def hessian(self, q):
        """a mu1 r^(mu1-2) (I + (mu1-2) q q^T / r^2): 2a I at the origin when
        mu1 == 2, and 0 there when mu1 > 2."""
        pts, single = _batched(q, self.n)
        r = expressions.point_norms(pts)
        coef = self.a * self.mu1 * r ** (self.mu1 - 2.0)
        out = coef[:, None, None] * np.eye(self.n)
        if self.mu1 != 2.0:
            off = r > 0.0
            unit = pts[off] / r[off, None]
            out[off] += ((self.mu1 - 2.0) * coef[off])[:, None, None] \
                * (unit[:, :, None] * unit[:, None, :])
        return out[0] if single else out

    def gradient(self, q):
        pts, single = _batched(q, self.n)
        out = self._gradients(pts, expressions.point_norms(pts))
        return out[0] if single else out

    def value_and_gradient(self, q):
        pts, single = _batched(q, self.n)
        r = expressions.point_norms(pts)
        val, grad = self._values(r), self._gradients(pts, r)
        return (float(val[0]), grad[0]) if single else (val, grad)

    def describe(self) -> str:
        return (
            f"power_law(a={format(self.a, '.17g')},"
            f"mu1={format(self.mu1, '.17g')},mu2={format(self.mu2, '.17g')})"
        )


class ExpressionPotential(PotentialModel):
    """Potential defined by parsed source text over variables q1..qn and |q|."""

    def __init__(self, source: str, n: int):
        self.source = source
        self.n = int(n)
        self.program = expressions.parse_expression(source, self.n)

    def value(self, q):
        pts, single = _batched(q, self.n)
        out = expressions.evaluate(self.program, pts)
        return float(out[0]) if single else out

    def gradient(self, q):
        pts, single = _batched(q, self.n)
        out = expressions.evaluate_gradient(self.program, pts)
        return out[0] if single else out

    def value_and_gradient(self, q):
        pts, single = _batched(q, self.n)
        val, grad = expressions.evaluate_value_and_gradient(self.program, pts)
        return (float(val[0]), grad[0]) if single else (val, grad)

    def hessian(self, q):
        pts, single = _batched(q, self.n)
        out = expressions.evaluate_hessian(self.program, pts)
        return out[0] if single else out

    def describe(self) -> str:
        return self.source


_POWER_LAW_RE = re.compile(r"power_law\s*\((.*)\)\s*\Z")


def parse_potential(text: str, n: int) -> PotentialModel:
    """The potential over q1..qn that ``text`` names: the inverse of
    ``describe()``, so it also reads a report's ``potential =`` line.

    ``power_law(a=...,mu1=...,mu2=...)`` selects the built-in, and a
    parameter without a name takes a, mu1 or mu2 by its position; anything
    else is parsed as expression source.  Surrounding whitespace is dropped.
    """
    text = text.strip()
    m = _POWER_LAW_RE.match(text)
    if text.startswith("power_law") and m is None:
        raise ValueError("power_law potential must look like power_law(a=...,mu1=...,mu2=...)")
    if m is None:
        return ExpressionPotential(text, n)
    params = {}
    body = m.group(1).strip()
    for i, part in enumerate(body.split(",") if body else []):
        key, named, val = part.partition("=")
        if not named:
            if i >= 3:
                raise ValueError("too many positional power_law parameters")
            key, val = ("a", "mu1", "mu2")[i], part
        key = key.strip()
        if key in params:
            raise ValueError(f"repeated power_law parameter {key!r}")
        params[key] = val
    try:
        a = float(params.pop("a"))
        mu1 = float(params.pop("mu1"))
        mu2 = float(params.pop("mu2", 0.0))
    except KeyError as err:
        raise ValueError(f"power_law is missing parameter {err}") from None
    except ValueError as err:
        raise ValueError(f"bad power_law parameter: {err}") from None
    if params:
        raise ValueError(f"unknown power_law parameters: {sorted(params)}")
    return PowerLawPotential(a, mu1, mu2, n=n)


def hessian_ray(p: PotentialModel, q) -> np.ndarray:
    """Hessian applied to the position ray, V''(q) q, from the model's exact
    ``hessian`` on the rows away from the origin; zero rows at the origin."""
    pts, single = _batched(q, p.n)
    out = np.zeros_like(pts)
    mask = expressions.point_norms(pts) > 0.0
    if np.any(mask):
        sub = pts[mask]
        out[mask] = (p.hessian(sub) @ sub[:, :, None])[:, :, 0]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# hypothesis checking

# The loop-sphere check (B5) scans this many derivative-norm levels with
# band-limited loops on this many nodes.
SPHERE_RADII = 16
LOOP_NODES = 64


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling plan for the hypothesis checkers.

    ``samples`` points are drawn with uniform random directions and radii
    uniform in [r_min, r_max]; the coercivity scan uses ``radii`` concentric
    spheres; the loop-sphere check draws ``samples`` loops.
    """

    samples: int = 200
    r_min: float = 0.1
    r_max: float = 10.0
    radii: int = 128
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1 or self.radii < 2:
            raise ValueError("sampler counts must be positive (radii >= 2)")
        for name in ("r_min", "r_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class HypothesisReport:
    hypothesis: str  # B1..B5
    verdict: str  # pass | fail | inconclusive
    residual: float
    samples_used: int
    tolerance: float
    witness: np.ndarray | None = None
    radius: float | None = None
    detail: str = ""

    def line(self) -> str:
        parts = [f"{self.hypothesis}: {self.verdict}", f"residual={self.residual:.6g}"]
        if self.radius is not None:
            parts.append(f"radius={self.radius:.6g}")
        if self.witness is not None:
            coords = ",".join(format(x, ".6g") for x in np.atleast_1d(self.witness))
            parts.append(f"witness=({coords})")
        parts.append(f"samples={self.samples_used}")
        parts.append(f"tol={self.tolerance:.3g}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


def _unit_directions(rng, count, dim):
    dirs = rng.standard_normal((count, dim))
    norms = expressions.point_norms(dirs)
    norms[norms == 0.0] = 1.0
    return dirs / norms[:, None]


def _sampled(evaluate, pts):
    """``evaluate(pts)``: the checker's one way to call the potential.  On a
    :class:`DomainError` it halves the batch down to the first point that
    raises alone, at most ceil(log2 M) more calls, and raises the batch's
    error at that point."""
    try:
        return evaluate(pts)
    except DomainError as err:
        lo, hi = 0, len(pts)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                evaluate(pts[lo:mid])
                lo = mid
            except DomainError:
                hi = mid
        coords = ",".join(format(x, ".6g") for x in pts[lo])
        raise DomainError(f"{err} at sample ({coords})") from err


def _worst_sample(name, resid, sense, floor, pts, tol, raw=None):
    """B1, B2 and B4's one verdict rule: the worst sample is the one where
    ``sense * resid`` is least, and the check passes if that reaches
    ``floor``.  The report gives the residual and the sample."""
    worst = int(np.argmin(sense * resid))
    verdict = "pass" if sense * resid[worst] >= floor else "fail"
    return HypothesisReport(name, verdict, float(resid[worst]), len(pts), tol, pts[worst],
                            detail="" if raw is None else f"raw={raw[worst]:.6g}")


def _check_coercivity(p, h, rng, cfg):
    radii = np.linspace(cfg.r_min, cfg.r_max, cfg.radii)
    dirs = _unit_directions(rng, cfg.radii * cfg.samples, p.n)
    pts = dirs.reshape(cfg.radii, cfg.samples, p.n) * radii[:, None, None]
    vals = _sampled(p.value, pts.reshape(-1, p.n)).reshape(cfg.radii, cfg.samples)
    rows = np.arange(cfg.radii)
    j = np.argmin(vals, axis=1)
    minima, worst_pts = vals[rows, j], pts[rows, j]
    ok = minima >= h
    # The smallest tested radius beyond which every sampled sphere stays >= h;
    # the largest tested radius (index -1) when no such radius exists.
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(ok)))
    i = int(np.argmax(suffix_ok)) if ok[-1] else -1
    return HypothesisReport(
        "B3", "pass" if ok[-1] else "fail", float(minima[i] - h), cfg.radii * cfg.samples,
        cfg.tolerance, worst_pts[i], radius=float(radii[i]),
        detail="threshold radius; not certified beyond r_max" if ok[-1]
        else "min V below h at the largest tested radius",
    )


def _check_loop_sphere(p, h, rng, cfg):
    """Monte-Carlo lower bound for the mean energy gap on derivative spheres.

    Draws zero-mean band-limited loops, rescales each to derivative norm r,
    and records the worst mean of h - V(u) per r.  Pass needs some tested r
    with a clearly positive estimate; fail needs every tested r clearly
    negative; anything else is inconclusive.
    """
    margin = cfg.tolerance * (1.0 + abs(h))
    radii = np.linspace(cfg.r_min, cfg.r_max, SPHERE_RADII)
    drawn = np.array([random_loop(LOOP_NODES, p.n, rng).nodes for _ in range(cfg.samples)])
    speeds = np.sqrt(2.0 * stacked_dirichlet_energy(drawn))
    moving = speeds > 0.0
    base_loops = drawn[moving] / speeds[moving, None, None]
    loops = radii[:, None, None, None] * base_loops
    values = _sampled(p.value, loops.reshape(-1, p.n))
    gaps = (h - values).reshape(-1, LOOP_NODES)
    try:
        means = exact_sums(gaps) / LOOP_NODES
    except DomainError as err:  # name the first loop whose sum overflows
        for i, row in enumerate(gaps):
            try:
                exact_sums(row)
            except DomainError:
                r, j = divmod(i, len(base_loops))
                raise DomainError(f"{err} at sample (radius {radii[r]:.6g}, "
                                  f"draw {np.flatnonzero(moving)[j]})") from err
    minima = means.reshape(SPHERE_RADII, len(base_loops)).min(axis=1)
    best = int(np.argmax(minima))
    best_est = float(minima[best])
    verdict = "pass" if best_est > margin else "fail" if best_est < -margin else "inconclusive"
    return HypothesisReport(
        "B5", verdict, best_est, len(base_loops) * len(radii), cfg.tolerance, None,
        radius=float(radii[best]), detail=f"worst_over_r={minima.min():.6g}",
    )


def check_hypotheses(p: PotentialModel, h: float, mu1: float, mu2: float,
                     cfg: SamplerConfig | None = None) -> list[HypothesisReport]:
    """Run the five sampling-based hypothesis checks, in order B1..B5.  B1,
    B2 and B4 share one sample and its value-and-gradient pass."""
    cfg = cfg or SamplerConfig()
    tol = cfg.tolerance
    rng = np.random.default_rng(cfg.seed)
    pts = _unit_directions(rng, cfg.samples, p.n) \
        * rng.uniform(cfg.r_min, cfg.r_max, size=cfg.samples)[:, None]
    vals, grads = _sampled(p.value_and_gradient, pts)
    gap = np.abs(vals - _sampled(p.value, -pts))
    radial = np.sum(grads * pts, axis=1)
    coercivity = _check_coercivity(p, h, rng, cfg)
    raw = 3.0 * radial + np.sum(_sampled(lambda x: hessian_ray(p, x), pts) * pts, axis=1)
    scaled = np.abs(raw) / (1.0 + expressions.point_norms(pts) ** mu1)
    return [
        _worst_sample("B1", gap, -1.0, -tol, pts, tol),
        _worst_sample("B2", radial - mu1 * vals + mu2, 1.0, -tol, pts, tol),
        coercivity,
        _worst_sample("B4", scaled, 1.0, tol, pts, tol, raw),
        _check_loop_sphere(p, h, rng, cfg),
    ]
