"""Potential models V: R^n -> R and samplers for the growth hypotheses.

Two model kinds share one interface: a built-in radial power law
V(q) = a |q|^mu1 + mu2/mu1, and a parsed expression over q1..qn.  Both
evaluate value and gradient on batches of points; the expression kind
differentiates with one forward dual-number pass.

The hypothesis checkers are sampling-based: "pass" means no counterexample
was found at the configured tolerance, never a proof.  Given the same seed
they are fully deterministic, and loosening the tolerance can only turn
fail into pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions
from .errors import DomainError
from .loopspace import integrate, random_loop, speed


class PotentialModel:
    """Shared interface: ``value(q)`` and ``gradient(q)`` on points or batches."""

    kind = "abstract"
    n = 0

    def value(self, q):
        raise NotImplementedError

    def gradient(self, q):
        raise NotImplementedError

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

    kind = "power_law"

    def __init__(self, a: float, mu1: float, mu2: float = 0.0, n: int = 2):
        if not a > 0:
            raise ValueError("power law needs a > 0")
        if not mu1 >= 2:
            raise ValueError("power law needs mu1 >= 2")
        if not mu2 >= 0:
            raise ValueError("power law needs mu2 >= 0")
        self.a = float(a)
        self.mu1 = float(mu1)
        self.mu2 = float(mu2)
        self.n = int(n)

    def value(self, q):
        pts, single = _batched(q, self.n)
        r = np.linalg.norm(pts, axis=1)
        out = self.a * r**self.mu1 + self.mu2 / self.mu1
        return float(out[0]) if single else out

    def gradient(self, q):
        pts, single = _batched(q, self.n)
        r = np.linalg.norm(pts, axis=1)
        # r**(mu1-2) is 1 at r=0 when mu1 == 2 and 0 when mu1 > 2; both give
        # the correct limit once multiplied by q.
        coef = self.a * self.mu1 * r ** (self.mu1 - 2.0)
        out = coef[:, None] * pts
        return out[0] if single else out

    def describe(self) -> str:
        return (
            f"power_law(a={format(self.a, '.17g')},"
            f"mu1={format(self.mu1, '.17g')},mu2={format(self.mu2, '.17g')})"
        )


class ExpressionPotential(PotentialModel):
    """Potential defined by parsed source text over variables q1..qn and |q|."""

    kind = "expression"

    def __init__(self, source: str, n: int):
        self.source = source
        self.n = int(n)
        self.program = expressions.compile_expression(
            expressions.parse_expression(source, self.n))

    def value(self, q):
        pts, single = _batched(q, self.n)
        out = expressions.evaluate(self.program, pts)
        return float(out[0]) if single else out

    def gradient(self, q):
        pts, single = _batched(q, self.n)
        out = expressions.evaluate_gradient(self.program, pts)
        return out[0] if single else out

    def describe(self) -> str:
        return self.source


def parse_potential(src: str, n: int) -> ExpressionPotential:
    """Parse expression source into a potential model over q1..qn."""
    return ExpressionPotential(src, n)


def hessian_ray(p: PotentialModel, q) -> np.ndarray:
    """Hessian applied to the position ray, V''(q) q; zero rows at the origin.

    Central finite difference of s -> grad V(q + s q) at s = 0, with the
    spatial step 1e-4 * (1 + |q|).
    """
    pts, single = _batched(q, p.n)
    r = np.linalg.norm(pts, axis=1)
    out = np.zeros_like(pts)
    mask = r > 0.0
    if np.any(mask):
        sub = pts[mask]
        s = 1e-4 * (1.0 + r[mask]) / r[mask]
        gp = p.gradient(sub * (1.0 + s)[:, None])
        gm = p.gradient(sub * (1.0 - s)[:, None])
        out[mask] = (gp - gm) / (2.0 * s)[:, None]
    return out[0] if single else out


def second_radial(p: PotentialModel, q) -> float:
    """Directional second derivative along the ray, (V''(q) q) . q, from
    :func:`hessian_ray`.  Undefined at the origin."""
    pts, single = _batched(q, p.n)
    if np.any(np.linalg.norm(pts, axis=1) == 0.0):
        raise DomainError("radial second derivative is undefined at the origin")
    out = np.sum(hessian_ray(p, pts) * pts, axis=1)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# hypothesis checking

@dataclass(frozen=True)
class SamplerConfig:
    """Sampling plan for the hypothesis checkers.

    ``samples`` points are drawn with uniform random directions and radii
    uniform in [r_min, r_max]; the coercivity scan uses ``radii`` concentric
    spheres; the loop-sphere check draws band-limited loops on ``loop_nodes``
    nodes and scans ``sphere_radii`` derivative-norm levels.
    """

    samples: int = 200
    r_min: float = 0.1
    r_max: float = 10.0
    radii: int = 128
    sphere_radii: int = 16
    loop_nodes: int = 64
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1 or self.radii < 2 or self.sphere_radii < 1:
            raise ValueError("sampler counts must be positive (radii >= 2)")
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


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
    norms = np.linalg.norm(dirs, axis=1)
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


def _check_superlinearity(p, pts, mu1, mu2, tol):
    resid = np.sum(p.gradient(pts) * pts, axis=1) - mu1 * p.value(pts) + mu2
    worst = int(np.argmin(resid))
    verdict = "pass" if resid[worst] >= -tol else "fail"
    return HypothesisReport("B2", verdict, float(resid[worst]), len(pts), tol, pts[worst])


def _check_coercivity(p, h, rng, cfg):
    radii = np.linspace(cfg.r_min, cfg.r_max, cfg.radii)
    minima = np.empty(cfg.radii)
    worst_pts = np.empty((cfg.radii, p.n))
    for i, r in enumerate(radii):
        pts = _unit_directions(rng, cfg.samples, p.n) * r
        vals = p.value(pts)
        j = int(np.argmin(vals))
        minima[i] = vals[j]
        worst_pts[i] = pts[j]
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


def _check_radial_nondegeneracy(p, pts, mu1, tol):
    raw = 3.0 * np.sum(p.gradient(pts) * pts, axis=1) + second_radial(p, pts)
    scale = 1.0 + np.linalg.norm(pts, axis=1) ** mu1
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
    radii = np.linspace(cfg.r_min, cfg.r_max, cfg.sphere_radii)
    base_loops = []
    for _ in range(cfg.samples):
        u = random_loop(cfg.loop_nodes, p.n, rng)
        s = speed(u)
        if s > 0.0:
            base_loops.append(u.nodes / s)
    best_r, best_est = None, -np.inf
    worst_overall = np.inf
    for r in radii:
        est = np.inf
        for nodes in base_loops:
            gap = integrate(h - p.value(r * nodes))
            est = min(est, gap)
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
        return [
            _check_evenness(p, pts, cfg.tolerance),
            _check_superlinearity(p, pts, mu1, mu2, cfg.tolerance),
            _check_coercivity(p, h, rng, cfg),
            _check_radial_nondegeneracy(p, pts, mu1, cfg.tolerance),
            _check_loop_sphere(p, h, rng, cfg),
        ]
    except DomainError as err:
        offender = _first_offending_sample(p, pts)
        if offender is not None:
            coords = ",".join(format(x, ".6g") for x in offender)
            raise DomainError(f"{err} at sample ({coords})") from err
        raise
