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


def _sample_points(rng, count, dim, r_min, r_max):
    dirs = _unit_directions(rng, count, dim)
    return dirs * rng.uniform(r_min, r_max, size=count)[:, None]


def _check_evenness(p, pts, tol):
    gap = np.abs(p.value(pts) - p.value(-pts))
    worst = int(np.argmax(gap))
    verdict = "pass" if gap[worst] <= tol else "fail"
    return HypothesisReport("B1", verdict, float(gap[worst]), len(pts), tol, pts[worst])


def _check_superlinearity(pts, vals, grads, mu1, mu2, tol):
    resid = np.sum(grads * pts, axis=1) - mu1 * vals + mu2
    worst = int(np.argmin(resid))
    verdict = "pass" if resid[worst] >= -tol else "fail"
    return HypothesisReport("B2", verdict, float(resid[worst]), len(pts), tol, pts[worst])


def _check_coercivity(p, h, rng, cfg):
    radii = np.linspace(cfg.r_min, cfg.r_max, cfg.radii)
    dirs = _unit_directions(rng, cfg.radii * cfg.samples, p.n)
    pts = dirs.reshape(cfg.radii, cfg.samples, p.n) * radii[:, None, None]
    vals = p.value(pts.reshape(-1, p.n)).reshape(cfg.radii, cfg.samples)
    rows = np.arange(cfg.radii)
    j = np.argmin(vals, axis=1)
    minima, worst_pts = vals[rows, j], pts[rows, j]
    ok = minima >= h
    # Smallest tested radius beyond which every sampled sphere stays >= h.
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(ok)))
    if not suffix_ok.any():
        return HypothesisReport(
            "B3", "fail", float(minima[-1] - h), cfg.radii * cfg.samples,
            cfg.tolerance, worst_pts[-1], radius=float(radii[-1]),
            detail="min V below h at the largest tested radius",
        )
    i0 = int(np.argmax(suffix_ok))
    return HypothesisReport(
        "B3", "pass", float(minima[i0] - h), cfg.radii * cfg.samples,
        cfg.tolerance, worst_pts[i0], radius=float(radii[i0]),
        detail="threshold radius; not certified beyond r_max",
    )


def _check_radial_nondegeneracy(p, pts, grads, mu1, tol):
    raw = 3.0 * np.sum(grads * pts, axis=1) + np.sum(hessian_ray(p, pts) * pts, axis=1)
    scale = 1.0 + expressions.point_norms(pts) ** mu1
    scaled = np.abs(raw) / scale
    worst = int(np.argmin(scaled))
    verdict = "pass" if scaled[worst] >= tol else "fail"
    return HypothesisReport(
        "B4", verdict, float(scaled[worst]), len(pts), tol, pts[worst],
        detail=f"raw={raw[worst]:.6g}",
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
    values = p.value(loops.reshape(-1, p.n))
    means = exact_sums((h - values).reshape(-1, LOOP_NODES)) / LOOP_NODES
    best_r, best_est = None, -np.inf
    worst_overall = np.inf
    for r, row in zip(radii, means.reshape(SPHERE_RADII, len(base_loops)).tolist()):
        est = min(row, default=np.inf)
        if est > best_est:
            best_r, best_est = float(r), est
        worst_overall = min(worst_overall, est)
    if best_est > margin:
        verdict = "pass"
    elif best_est < -margin:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return HypothesisReport(
        "B5", verdict, float(best_est), len(base_loops) * len(radii),
        cfg.tolerance, None, radius=best_r,
        detail=f"worst_over_r={worst_overall:.6g}",
    )


def _first_offending_sample(p, pts):
    for q in pts:
        try:
            p.value(q)
            p.value(-q)
            p.gradient(q)
        except DomainError:
            return q
    return None


def check_hypotheses(p: PotentialModel, h: float, mu1: float, mu2: float,
                     cfg: SamplerConfig | None = None) -> list[HypothesisReport]:
    """Run the five sampling-based hypothesis checks, in order B1..B5."""
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    pts = _sample_points(rng, cfg.samples, p.n, cfg.r_min, cfg.r_max)
    try:
        evenness = _check_evenness(p, pts, cfg.tolerance)
        vals, grads = p.value_and_gradient(pts)  # shared by B2 and B4
        return [
            evenness,
            _check_superlinearity(pts, vals, grads, mu1, mu2, cfg.tolerance),
            _check_coercivity(p, h, rng, cfg),
            _check_radial_nondegeneracy(p, pts, grads, mu1, cfg.tolerance),
            _check_loop_sphere(p, h, rng, cfg),
        ]
    except DomainError as err:
        offender = _first_offending_sample(p, pts)
        if offender is not None:
            coords = ",".join(format(x, ".6g") for x in offender)
            raise DomainError(f"{err} at sample ({coords})") from err
        raise
