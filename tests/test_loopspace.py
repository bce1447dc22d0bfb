import math

import numpy as np
import pytest

from hamorbit import (
    DomainError,
    LoopPath,
    OddNodeCountError,
    circle_loop,
    dirichlet_energy,
    h1_norm,
    integrate,
    project_symmetric,
    resample,
    sobolev_precondition,
)
from hamorbit import orbit, solvers
from hamorbit.loopspace import (
    MIN_NODES,
    NONCONSTANT_SPEED,
    exact_sums,
    is_nonconstant,
    periodic_shift,
    speed,
    split_rows,
    stacked_dirichlet_cross,
    stacked_dirichlet_energy,
    stacked_h1_norm,
)


def test_loop_validation():
    with pytest.raises(ValueError):
        LoopPath(np.zeros((4, 2)))  # too few nodes
    with pytest.raises(ValueError):
        LoopPath(np.zeros(16))  # wrong rank
    bad = np.zeros((16, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError):
        LoopPath(bad)
    with pytest.raises(ValueError, match="spatial dimension must be >= 1"):
        LoopPath(np.zeros((16, 0)))


def test_unknown_symmetry_class_is_refused():
    with pytest.raises(ValueError, match="unknown symmetry class 'e3'; use one of"):
        project_symmetric(circle_loop(16, 2), "e3")


def test_integrate_takes_only_a_flat_sequence():
    with pytest.raises(ValueError, match="integrate expects a flat sequence of scalars"):
        integrate(np.ones((16, 2)))


def test_fewest_nodes_a_loop_may_have():
    assert LoopPath(np.zeros((MIN_NODES, 2))).N == MIN_NODES == 8
    with pytest.raises(ValueError, match="need at least 8 nodes, got 7"):
        LoopPath(np.zeros((MIN_NODES - 1, 2)))


def test_nonconstant_rule_is_speed_reaching_the_gate():
    # Circles scaled across the gate and a constant: the rule is speed's, bit
    # for bit.
    u = circle_loop(16, 2)
    loops = [LoopPath(s * u.nodes / speed(u))
             for s in np.linspace(0.5, 1.5, 11) * NONCONSTANT_SPEED]
    loops += [LoopPath(np.tile([0.3, -0.1], (16, 1))), circle_loop(64, 3)]
    for v in loops:
        assert is_nonconstant(v.nodes) is (speed(v) >= NONCONSTANT_SPEED)
    assert not is_nonconstant(loops[0].nodes) and is_nonconstant(loops[-1].nodes)
    # The solver and the orbit check read the rule; neither keeps the gate.
    assert not hasattr(solvers, "NONCONSTANT_SPEED") and not hasattr(orbit, "NONCONSTANT_SPEED")


def test_integrate_examples():
    assert integrate(np.full(10, 3.0)) == pytest.approx(3.0, abs=0)
    k = np.arange(64)
    assert abs(integrate(np.sin(2 * np.pi * k / 64))) < 1e-13
    assert integrate(np.sin(2 * np.pi * k / 64) ** 2) == pytest.approx(0.5, abs=1e-13)


def test_integrate_shift_invariant_exactly():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(37)
    base = integrate(s)
    for j in (1, 5, 17, 36):
        assert integrate(np.roll(s, j)) == base


def test_dirichlet_energy_circle_and_scaling():
    N = 256
    u = circle_loop(N, 2)
    expected = 2.0 * N**2 * math.sin(math.pi / N) ** 2
    val = dirichlet_energy(u)
    assert val == pytest.approx(expected, rel=1e-12)
    assert abs(val - 2 * math.pi**2) / (2 * math.pi**2) < 1e-4
    rng = np.random.default_rng(1)
    w = LoopPath(rng.standard_normal((24, 3)))
    assert dirichlet_energy(LoopPath(3.0 * w.nodes)) == pytest.approx(
        9.0 * dirichlet_energy(w), rel=1e-14
    )
    assert dirichlet_energy(LoopPath(np.zeros((16, 2)))) == 0.0


def test_dirichlet_energy_shift_and_parity_exact():
    rng = np.random.default_rng(2)
    u = LoopPath(rng.standard_normal((40, 2)))
    base = dirichlet_energy(u)
    for j in (1, 7, 39):
        assert dirichlet_energy(LoopPath(periodic_shift(u.nodes, j))) == base
    assert dirichlet_energy(LoopPath(-u.nodes)) == base


@pytest.mark.parametrize("j", [1, -1, 20, 43, -41])  # 1, -1, N/2, N+3, -N-1 at N=40
def test_periodic_shift_is_a_roll_bit_for_bit(j):
    rng = np.random.default_rng(12)
    loop = rng.standard_normal((40, 3))
    stack = rng.standard_normal((5, 40, 3))
    assert periodic_shift(loop, j).tobytes() == np.roll(loop, -j, axis=0).tobytes()
    assert periodic_shift(stack, j).tobytes() == np.roll(stack, -j, axis=1).tobytes()


def test_stacked_forms_are_the_single_loop_calls_bit_for_bit():
    rng = np.random.default_rng(13)
    stack = rng.standard_normal((6, 24, 2)) + rng.standard_normal((6, 1, 2))
    stack[2] = 0.0
    energies, norms = stacked_dirichlet_energy(stack), stacked_h1_norm(stack)
    assert energies.tolist() == [dirichlet_energy(LoopPath(x)) for x in stack]
    assert norms.tolist() == [h1_norm(LoopPath(x)) for x in stack]
    # Reference forms: a rolled difference and per-column exact means.
    for x, energy, norm in zip(stack, energies, norms):
        d = np.roll(x, -1, axis=0) - x
        assert energy == 0.5 * len(x) * math.fsum((d * d).ravel().tolist())
        mean = np.array([math.fsum(c) for c in x.T.tolist()]) / len(x)
        assert norm == math.sqrt(2.0 * energy) + float(np.linalg.norm(mean))


def test_exact_sums_are_fsum_of_each_row_bit_for_bit():
    rng = np.random.default_rng(21)
    stack = rng.standard_normal((7, 96)) * 10.0 ** rng.integers(-8, 9, (7, 96))
    special = np.ones((3, 16))
    special[0, 3], special[1, 5], special[2, 7] = np.inf, -np.inf, np.nan
    cases = [stack, stack[:, ::3], stack[::-1, ::-1], stack.T, stack[:1], special]
    for rows in cases:
        sums = exact_sums(rows)
        assert sums.shape == (len(rows),)
        assert sums.tobytes() == np.array([math.fsum(r.tolist()) for r in rows]).tobytes()
        for row in rows:  # one row, as a strided or reversed view too
            one = exact_sums(row)
            assert type(one) is float
            assert np.float64(one).tobytes() == np.float64(math.fsum(row.tolist())).tobytes()
    # Finite terms whose partial sums leave the float range.
    with pytest.raises(DomainError, match="out of the float range"):
        exact_sums(np.full(4, 1e308))
    with pytest.raises(DomainError, match="out of the float range"):
        exact_sums(np.array([[1.0, 2.0], [1e308, 1e308]]))


def _failure_masks():
    """(M, failing rows): hand-picked masks with failures at both ends and
    on adjacent rows, then seeded random ones."""
    masks = [(1, [0]), (2, [0]), (2, [1]), (2, [0, 1]), (3, [2]), (5, [0, 4]),
             (8, [3, 4]), (9, [0, 1, 7, 8]), (16, [15]), (17, [0]), (33, [10, 11, 12])]
    rng = np.random.default_rng(53)
    for _ in range(24):
        size = int(rng.integers(1, 70))
        bad = np.flatnonzero(rng.random(size) < rng.uniform(0.02, 0.6))
        masks.append((size, bad.tolist() or [int(rng.integers(size))]))
    return masks


@pytest.mark.parametrize("size, bad", _failure_masks())
def test_split_rows_gives_each_row_what_it_gives_alone(size, bad):
    rows = np.arange(size, dtype=float)[:, None]
    calls = []

    def evaluate(batch):
        # Each failing row raises its own error, named after the row; a
        # batch raises the error of its first failing row.
        calls.append(len(batch))
        failing = [int(x) for x in batch[:, 0] if x in bad]
        if failing:
            kind = ValueError if failing[0] % 3 == 0 else DomainError
            raise kind(f"row {failing[0]} is outside")
        return 2.0 * batch[:, 0] + 1.0

    entries = list(split_rows(evaluate, rows))
    assert len(entries) == size
    for row, entry in zip(rows, entries):
        try:
            alone = evaluate(row[None])[0]
        except (DomainError, ValueError) as err:
            assert type(entry) is type(err) and str(entry) == str(err)
        else:
            assert entry == alone
    messages = [str(entry) for entry in entries if isinstance(entry, Exception)]
    assert messages == [f"row {i} is outside" for i in bad]

    # A caller that stops at the first error, after its own whole-batch call.
    calls.clear()
    with pytest.raises((DomainError, ValueError)) as caught:
        evaluate(rows)
    first = next(entry for entry in split_rows(evaluate, rows, caught.value)
                 if isinstance(entry, Exception))
    assert str(first) == f"row {bad[0]} is outside"
    assert calls[0] == size
    assert len(calls) - 1 <= math.ceil(math.log2(size)) + 1


def test_split_rows_makes_one_call_on_a_clean_batch():
    calls = []

    def evaluate(batch):
        calls.append(len(batch))
        return batch[:, 0] * 3.0

    rows = np.arange(12, dtype=float)[:, None]
    assert list(split_rows(evaluate, rows)) == (3.0 * np.arange(12)).tolist()
    assert calls == [12]


def test_dirichlet_cross_term_is_the_bilinear_form_of_the_energy():
    rng = np.random.default_rng(22)
    a, b = rng.standard_normal((2, 5, 24, 2))
    cross = stacked_dirichlet_cross(a, b)
    assert cross.tolist() == stacked_dirichlet_cross(b, a).tolist()
    assert stacked_dirichlet_cross(a, a).tolist() == stacked_dirichlet_energy(a).tolist()
    for x, y, c in zip(a, b, cross):
        dx, dy = np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y
        assert c == 0.5 * len(x) * math.fsum((dx * dy).ravel().tolist())
    # Along a segment the energy is the quadratic in Bernstein form.
    ea, eb = stacked_dirichlet_energy(a), stacked_dirichlet_energy(b)
    for t in (0.25, 0.5, 0.875):
        along = stacked_dirichlet_energy((1.0 - t) * a + t * b)
        closed = (1.0 - t) ** 2 * ea + 2.0 * t * (1.0 - t) * cross + t**2 * eb
        assert np.allclose(closed, along, rtol=1e-14, atol=0.0)


def test_dirichlet_energy_convergence_order():
    # error against 2 pi^2 shrinks like N^-2
    errs = {}
    for N in (64, 128, 256):
        errs[N] = 2 * math.pi**2 - dirichlet_energy(circle_loop(N, 2))
    assert 3.6 < errs[64] / errs[128] < 4.4
    assert 3.6 < errs[128] / errs[256] < 4.4


def test_project_circle_already_antiperiodic():
    u = circle_loop(64, 2)
    w = project_symmetric(u, "e1")
    assert np.allclose(w.nodes, u.nodes, atol=1e-12)


def test_project_kills_constants():
    u = LoopPath(np.tile([2.0, -1.0, 0.5], (32, 1)))
    assert np.all(project_symmetric(u, "e1").nodes == 0.0)


@pytest.mark.parametrize("sym", ["e1", "e2"])
def test_projection_idempotent_exactly(sym):
    rng = np.random.default_rng(3)
    u = LoopPath(rng.standard_normal((48, 2)))
    once = project_symmetric(u, sym)
    twice = project_symmetric(once, sym)
    assert np.array_equal(once.nodes, twice.nodes)


@pytest.mark.parametrize("sym", ["e1", "e2"])
def test_projection_norm_nonincreasing(sym):
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = LoopPath(rng.standard_normal((32, 3)))
        assert h1_norm(project_symmetric(u, sym)) <= h1_norm(u) + 1e-12


def test_project_e1_needs_even_nodes():
    u = LoopPath(np.random.default_rng(5).standard_normal((9, 2)))
    with pytest.raises(OddNodeCountError):
        project_symmetric(u, "e1")
    # e2 is fine on odd grids
    project_symmetric(u, "e2")


def test_symmetry_subspace_membership():
    rng = np.random.default_rng(6)
    u = LoopPath(rng.standard_normal((32, 2)))
    w1 = project_symmetric(u, "e1").nodes
    assert np.allclose(w1, -np.roll(w1, -16, axis=0), atol=1e-14)
    w2 = project_symmetric(u, "e2").nodes
    idx = (-np.arange(32)) % 32
    assert np.allclose(w2, -w2[idx], atol=1e-14)


def _dense_operator(N):
    s = float(N * N)
    A = np.eye(N) * (1 + 2 * s)
    for k in range(N):
        A[k, (k + 1) % N] -= s
        A[k, (k - 1) % N] -= s
    return A


def test_precondition_trivial_inputs():
    assert np.all(sobolev_precondition(np.zeros((16, 2))) == 0.0)
    w = sobolev_precondition(np.full(16, 2.5))
    assert np.allclose(w, 2.5, atol=1e-12)


def test_precondition_cosine_eigenvector():
    N = 16
    g = np.cos(2 * np.pi * np.arange(N) / N)
    w = sobolev_precondition(g)
    lam = 1.0 + 4.0 * N**2 * math.sin(math.pi / N) ** 2
    assert np.allclose(w, g / lam, atol=1e-12)
    dense = np.linalg.solve(_dense_operator(N), g)
    assert np.allclose(w, dense, atol=1e-12)


@pytest.mark.parametrize("N", [8, 63, 64, 256, 1024])
def test_precondition_residual(N):
    rng = np.random.default_rng(N)
    g = rng.standard_normal((N, 2))
    w = sobolev_precondition(g)
    s = float(N * N)
    lap = s * (np.roll(w, -1, axis=0) - 2 * w + np.roll(w, 1, axis=0))
    resid = np.abs(w - lap - g).max()
    assert resid <= 1e-10 * np.abs(g).max()


def test_precondition_linear_symmetric_positive():
    rng = np.random.default_rng(9)
    N = 32
    g1 = rng.standard_normal(N)
    g2 = rng.standard_normal(N)
    w = sobolev_precondition(2.0 * g1 + g2)
    assert np.allclose(w, 2.0 * sobolev_precondition(g1) + sobolev_precondition(g2),
                       atol=1e-12)
    assert np.vdot(g2, sobolev_precondition(g1)) == pytest.approx(
        np.vdot(g1, sobolev_precondition(g2)), rel=1e-10
    )
    assert np.vdot(g1, sobolev_precondition(g1)) > 0.0


def test_resample_circle():
    u = circle_loop(64, 2)
    fine = resample(u, 128)
    assert fine.N == 128
    # piecewise-linear samples sit inside the unit circle, close to it
    radii = np.linalg.norm(fine.nodes, axis=1)
    assert radii.max() <= 1.0 + 1e-12
    assert radii.min() > 1.0 - 2e-3
    # exact at the shared nodes
    assert np.allclose(fine.nodes[::2], u.nodes, atol=1e-12)
