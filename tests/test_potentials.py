import math
import re
import sys

import numpy as np
import pytest

from hamorbit import (
    DomainError,
    PotentialModel,
    PowerLawPotential,
    SamplerConfig,
    check_hypotheses,
    hessian_ray,
    parse_potential,
)


def test_power_law_parameter_validation():
    with pytest.raises(ValueError):
        PowerLawPotential(0.0, 2, 0)
    with pytest.raises(ValueError):
        PowerLawPotential(1.0, 1.5, 0)
    with pytest.raises(ValueError):
        PowerLawPotential(1.0, 2, -1.0)
    for a, mu1, mu2, name in [(math.inf, 2, 0, "a"), (1.0, math.inf, 0, "mu1"),
                              (1.0, 2, math.inf, "mu2")]:
        with pytest.raises(ValueError, match=f"power law needs finite {name} .*, got inf"):
            PowerLawPotential(a, mu1, mu2)


@pytest.mark.parametrize("model", [PowerLawPotential(0.5, 3, 0.25, n=3),
                                   parse_potential("0.5*|q|^2 + 0.1*q1^4", 2)],
                         ids=["power_law", "expression"])
def test_parse_potential_reads_what_describe_writes(model):
    again = parse_potential(model.describe(), model.n)
    assert type(again) is type(model) and again.describe() == model.describe()
    assert (again.mu1, again.mu2) == (model.mu1, model.mu2)
    pts = np.random.default_rng(3).standard_normal((40, model.n))
    for got, want in zip(again.value_and_gradient(pts), model.value_and_gradient(pts)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mu1", [2.0, 3.0])
def test_power_law_value_and_gradient_has_the_bits_of_both(mu1):
    p = PowerLawPotential(0.7, mu1, 0.3, n=3)
    pts = np.random.default_rng(8).standard_normal((50, 3))
    pts[:2] = 0.0  # r = 0, where r**(mu1 - 2) is 1 or 0
    val, grad = p.value_and_gradient(pts)
    assert val.tobytes() == p.value(pts).tobytes()
    assert grad.tobytes() == p.gradient(pts).tobytes()
    for q in pts[:4]:
        v, g = p.value_and_gradient(q)
        assert type(v) is float and float.hex(v) == float.hex(p.value(q))
        assert g.shape == (3,) and g.tobytes() == p.gradient(q).tobytes()


def test_power_law_values_and_gradient():
    p = PowerLawPotential(0.25, 4, 0, n=2)
    assert p.value(np.array([1.0, 0.0])) == pytest.approx(0.25)
    assert np.allclose(p.gradient(np.array([1.0, 0.0])), [1.0, 0.0], atol=1e-14)
    assert np.all(p.gradient(np.zeros(2)) == 0.0)
    with_offset = PowerLawPotential(1.0, 2, 3.0, n=1)
    assert with_offset.value(np.zeros(1)) == pytest.approx(1.5)


def test_power_law_growth_identity():
    rng = np.random.default_rng(11)
    for a, mu1, mu2 in [(0.5, 2.0, 0.0), (0.25, 4.0, 0.0), (1.3, 3.0, 2.0)]:
        p = PowerLawPotential(a, mu1, mu2, n=3)
        q = rng.uniform(-3, 3, size=(200, 3))
        lhs = np.sum(p.gradient(q) * q, axis=1)
        rhs = mu1 * (p.value(q) - mu2 / mu1)
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())


def test_gradient_matches_finite_differences_both_kinds():
    rng = np.random.default_rng(13)
    models = [
        PowerLawPotential(0.7, 3, 0.5, n=2),
        parse_potential("0.5*|q|^2 + 0.1*q1^4", 2),
    ]
    pts = rng.uniform(0.3, 2.0, size=(100, 2))
    for p in models:
        grad = p.gradient(pts)
        for i in range(2):
            plus = pts.copy()
            plus[:, i] += 1e-5
            minus = pts.copy()
            minus[:, i] -= 1e-5
            fd = (p.value(plus) - p.value(minus)) / 2e-5
            assert np.abs(grad[:, i] - fd).max() / (1 + np.abs(fd).max()) < 1e-6


def test_second_radial_power_laws():
    # The ray second derivative (V''(q) q) . q, taken from hessian_ray.
    p2 = PowerLawPotential(1.0, 2, 0, n=2)
    q = np.array([1.0, 1.0])
    assert np.sum(hessian_ray(p2, q) * q, axis=-1) == pytest.approx(4.0, abs=1e-15)
    p4 = PowerLawPotential(0.25, 4, 0, n=2)
    q = np.array([1.0, 0.0])
    assert np.sum(hessian_ray(p4, q) * q, axis=-1) == pytest.approx(3.0, abs=1e-15)


def test_second_radial_general_formula():
    # For a |q|^mu the ray second derivative is a mu (mu-1) |q|^mu.
    rng = np.random.default_rng(29)
    p = PowerLawPotential(0.8, 3, 1.0, n=3)
    q = rng.uniform(0.5, 2.0, size=(20, 3))
    r = np.linalg.norm(q, axis=1)
    expected = 0.8 * 3 * 2 * r**3
    got = np.sum(hessian_ray(p, q) * q, axis=-1)
    assert np.abs(got - expected).max() / np.abs(expected).max() < 1e-14


@pytest.mark.parametrize("p", [PowerLawPotential(0.8, 3, 1.0, n=2),
                               parse_potential("0.5*|q|^2 + 0.1*q1^4", 2)])
def test_hessian_ray_has_zero_rows_at_the_origin(p):
    # The ray is the zero vector there; the other rows keep their own bits.
    q = np.array([[0.0, 0.0], [1.2, -0.7], [0.0, 0.0]])
    rows = hessian_ray(p, q)
    assert np.all(rows[[0, 2]] == 0.0)
    assert np.array_equal(rows[1], hessian_ray(p, q[1]))
    assert np.all(hessian_ray(p, np.zeros(2)) == 0.0)


def _central_hessian(p, pts, step=1e-6):
    """Central differences of the exact gradient, one column per coordinate."""
    out = np.empty(pts.shape + pts.shape[-1:])
    for j in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[j] = step
        out[:, :, j] = (p.gradient(pts + e) - p.gradient(pts - e)) / (2.0 * step)
    return out


# One source per Hessian rule: + - * / with q on either
# side or both, a folded power (square, integer, fractional, 1), a variable
# exponent over q and over a constant, each function, and |q|.
HESSIAN_SOURCES = [
    "0.5*|q|^2 + 0.1*q1^4",
    "q1*q2 - 3*q2 + q2*3 + q1/2 - 2/q2 + q1/q2 - (1 - q1) + (q2 - 1)",
    "q1^3 - q2^1 + (q1*q2)^2.5 + q1^-2",
    "q1^q2 + 2^q1 + q2^(q1*q1)",
    "exp(q1*q2) + log(q1 + q2) + sin(q1)*cos(q2)",
    "sqrt(q1*q2) + abs(q1 - 2*q2) + |q|^3 - -|q|",
]


@pytest.mark.parametrize("source", HESSIAN_SOURCES)
def test_expression_hessian_matches_differences_of_the_gradient(source):
    p = parse_potential(source, 2)
    pts = np.random.default_rng(31).uniform(0.3, 1.6, size=(40, 2))
    hess = p.hessian(pts)
    assert hess.shape == (40, 2, 2)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))
    fd = _central_hessian(p, pts)
    assert np.abs(hess - fd).max() <= 1e-8 * (1.0 + np.abs(fd).max())
    for q, block in zip(pts[:3], hess):
        assert np.array_equal(p.hessian(q), block)


@pytest.mark.parametrize("source", ["7", "q2", "-q1"])
def test_affine_expressions_have_zero_hessians(source):
    hess = parse_potential(source, 2).hessian(np.ones((3, 2)))
    assert hess.shape == (3, 2, 2) and np.all(hess == 0.0)


@pytest.mark.parametrize("source, point, message", [
    ("|q|^2", (0.0, 0.0), "|q| not twice differentiable at the origin"),
    ("abs(q1)", (0.0, 1.0), "abs not twice differentiable at zero"),
    ("q1^1.5", (0.0, 1.0), "power not twice differentiable here"),
    ("sqrt(q1)", (0.0, 1.0), "sqrt not differentiable at zero"),
    ("log(q1)", (-1.0, 1.0), "log of a non-positive value"),
    ("q1/q2", (1.0, 0.0), "division by zero"),
    ("q1^q2", (-1.0, 1.0), "power with variable exponent needs positive base"),
])
def test_expression_hessian_raises_where_not_twice_differentiable(source, point, message):
    # As under the CLI, numpy's warnings are off: the gate is the error.
    p = parse_potential(source, 2)
    with np.errstate(all="ignore"), pytest.raises(DomainError, match=re.escape(message)):
        p.hessian(np.array(point))


@pytest.mark.parametrize("mu1", [2.0, 3.0, 4.5])
def test_power_law_hessian_matches_differences_with_origin_rows(mu1):
    p = PowerLawPotential(0.7, mu1, 0.2, n=3)
    pts = np.random.default_rng(37).standard_normal((30, 3))
    pts[[0, 7]] = 0.0
    hess = p.hessian(pts)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))
    # At the origin: 2a I for mu1 = 2 and 0 beyond, where differences of the
    # gradient a mu1 r^(mu1-2) q err by O(step^(mu1-2)).
    origin = 2.0 * 0.7 * np.eye(3) if mu1 == 2.0 else np.zeros((3, 3))
    assert np.array_equal(hess[0], origin) and np.array_equal(hess[7], origin)
    away = np.ones(30, dtype=bool)
    away[[0, 7]] = False
    fd = _central_hessian(p, pts[away])
    assert np.abs(hess[away] - fd).max() <= 1e-8 * (1.0 + np.abs(fd).max())
    assert np.array_equal(p.hessian(pts[3]), hess[3])


def test_a_model_without_hessian_says_so():
    with pytest.raises(NotImplementedError, match="PotentialModel has no hessian"):
        PotentialModel().hessian(np.zeros(2))


def _cfg(**kw):
    base = dict(samples=200, r_min=0.1, r_max=10.0, radii=128, seed=0)
    base.update(kw)
    return SamplerConfig(**base)


def test_harmonic_hypotheses_pass_with_equality_case():
    p = PowerLawPotential(0.5, 2, 0, n=2)
    reports = {r.hypothesis: r for r in check_hypotheses(p, 1.0, 2.0, 0.0, _cfg())}
    assert reports["B1"].verdict == "pass"
    assert reports["B2"].verdict == "pass"
    assert abs(reports["B2"].residual) <= 1e-12
    assert reports["B4"].verdict == "pass"
    # V = |q|^2/2 >= 1 exactly outside radius sqrt(2)
    step = (10.0 - 0.1) / 127
    assert reports["B3"].verdict == "pass"
    assert abs(reports["B3"].radius - math.sqrt(2.0)) <= step
    assert reports["B5"].verdict == "pass"


def test_odd_potential_fails_evenness():
    p = parse_potential("q1", 2)
    reports = {r.hypothesis: r for r in check_hypotheses(p, 1.0, 2.0, 0.0, _cfg())}
    rep = reports["B1"]
    assert rep.verdict == "fail"
    assert rep.residual == pytest.approx(2.0 * abs(rep.witness[0]), rel=1e-12)


def test_quartic_radial_nondegeneracy_value():
    # 3 grad V . q + V''(q) q . q = a mu (mu + 2) |q|^mu = 6 |q|^4 here.
    p = PowerLawPotential(0.25, 4, 0, n=2)
    q = np.array([1.0, 0.0])
    total = 3.0 * float(np.dot(p.gradient(q), q)) + np.sum(hessian_ray(p, q) * q, axis=-1)
    assert total == pytest.approx(6.0, abs=1e-15)
    reports = {r.hypothesis: r for r in check_hypotheses(p, 0.75, 4.0, 0.0, _cfg())}
    assert reports["B4"].verdict == "pass"


def test_checker_takes_the_sample_gradient_once(monkeypatch):
    # B2 and B4 share one pass, and B4's ray term is one exact hessian call.
    callers = {"gradient": [], "hessian": []}
    for name in callers:
        real = getattr(PowerLawPotential, name)

        def recorded(self, q, name=name, real=real):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return real(self, q)

        monkeypatch.setattr(PowerLawPotential, name, recorded)
    check_hypotheses(PowerLawPotential(0.5, 3, 0, n=3), 1.0, 3.0, 0.0, _cfg())
    assert callers == {"gradient": [], "hessian": ["hessian_ray"]}


def test_checker_determinism():
    p = PowerLawPotential(0.5, 2, 0, n=2)
    a = check_hypotheses(p, 1.0, 2.0, 0.0, _cfg(seed=42))
    b = check_hypotheses(p, 1.0, 2.0, 0.0, _cfg(seed=42))
    for ra, rb in zip(a, b):
        assert ra.verdict == rb.verdict
        assert ra.residual == rb.residual


def test_checker_tolerance_monotonicity():
    p = PowerLawPotential(0.5, 2, 0, n=2)
    # relaxing means larger tol for the inequality checks ...
    for tol in (1e-12, 1e-9, 1e-6):
        reports = {r.hypothesis: r for r in check_hypotheses(p, 1.0, 2.0, 0.0, _cfg(tolerance=tol))}
        assert reports["B1"].verdict == "pass"
        assert reports["B2"].verdict == "pass"
    # ... and smaller tol for the nondegeneracy floor
    for tol in (1e-6, 1e-9, 1e-12):
        reports = {r.hypothesis: r for r in check_hypotheses(p, 1.0, 2.0, 0.0, _cfg(tolerance=tol))}
        assert reports["B4"].verdict == "pass"


@pytest.mark.parametrize("key", ["r_min", "r_max"])
def test_sampler_radii_must_be_finite(key):
    with pytest.raises(ValueError, match=f"{key} must be finite, got inf"):
        _cfg(**{key: math.inf})


def test_coercivity_fails_for_bounded_potential():
    p = parse_potential("1/(1 + |q|^2)", 2)
    reports = {r.hypothesis: r for r in check_hypotheses(p, 1.0, 2.0, 0.0, _cfg())}
    assert reports["B3"].verdict == "fail"


@pytest.mark.parametrize("method, args", [("value", (np.zeros(2),)),
                                          ("gradient", (np.zeros(2),)), ("describe", ())])
def test_the_base_model_leaves_each_method_to_its_models(method, args):
    with pytest.raises(NotImplementedError):
        getattr(PotentialModel(), method)(*args)


def test_models_check_the_shape_of_their_points():
    p = PowerLawPotential(0.5, 2, 0, n=2)
    with pytest.raises(ValueError, match="point has dimension 3, potential expects 2"):
        p.value(np.zeros(3))
    for shape in ((4, 3), (2, 4, 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"expected points of dimension 2, got shape {shape}")):
            p.value(np.zeros(shape))


COUNTS = "sampler counts must be positive (radii >= 2)"
RADII = "need 0 < r_min < r_max"


@pytest.mark.parametrize("kw, message", [
    (dict(samples=0), COUNTS), (dict(radii=1), COUNTS),
    (dict(r_min=0.0, r_max=1.0), RADII), (dict(r_min=-1.0, r_max=1.0), RADII),
    (dict(r_min=2.0, r_max=2.0), RADII), (dict(r_min=3.0, r_max=2.0), RADII),
])
def test_sampler_config_refuses_bad_counts_and_radii(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _cfg(**kw)
