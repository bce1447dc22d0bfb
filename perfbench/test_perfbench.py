"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from hamorbit import cli, functional, solvers  # noqa: E402

COUNTS = ("potentials.value.calls", "potentials.value.points", "potentials.gradient.points",
          "potentials.hessian_ray.points", "functional.scaling_root.calls",
          "functional.constraint_value.calls", "functional.action_gradient.calls",
          "solvers.line_search.trials", "orbit.closure_gap.steps", "trace.spans")


def _small_cases(seed):
    """The power-law workload's drawn random start (N=64, cheap)."""
    fixed = workloads.WORKLOADS["nehari-powerlaw"].fixed
    return workloads.cases("nehari-powerlaw", seed)[len(fixed):]


def _traced_pass(case_list, workdir, tag):
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        runs = [workloads.run_case(cli, c, workdir, tag) for c in case_list]
    iterations = sum(r.iterations for r in runs)
    wall = sum(r.solve_s + r.verify_s for r in runs)
    return runs, tracer.layer_metrics(spans, iterations, wall), spans


def test_same_seed_gives_identical_counts(tmp_path):
    first, m1, _ = _traced_pass(_small_cases(5), tmp_path, "a")
    second, m2, _ = _traced_pass(_small_cases(5), tmp_path, "b")
    assert all(r.verified for r in first + second)
    assert [r.iterations for r in first] == [r.iterations for r in second]
    assert [r.digest for r in first] == [r.digest for r in second]
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    assert m1["potentials.value.calls"] > 0 and m1["trace.spans"] > 0


def test_seed_changes_starts_but_not_levels(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        a, b = workloads.cases(name, 1), workloads.cases(name, 2)
        k = len(w.fixed)
        assert a[:k] == b[:k] == list(w.fixed)
        assert len(a) == k + w.drawn_count
        assert all(x.start_seed != y.start_seed for x, y in zip(a[k:], b[k:]))
        assert [dataclasses.replace(x, start_seed=0) for x in a] == \
            [dataclasses.replace(y, start_seed=0) for y in b]
        assert workloads.cases(name, 1) == a
    runs = [workloads.run_case(cli, _small_cases(seed)[0], tmp_path, f"s{seed}")
            for seed in (1, 2)]
    assert runs[0].digest != runs[1].digest  # a different start ...
    assert all(r.verified for r in runs)  # ... reaches the pinned level


def test_wrappers_restore_every_attribute():
    before = tracer.snapshot()
    original = functional.scaling_root
    with pytest.raises(RuntimeError):
        with tracer.instrument(tracer.Tracer()):
            assert functional.scaling_root is not original
            assert solvers.scaling_root is functional.scaling_root  # every binding
            assert tracer.snapshot() != before
            raise RuntimeError("restore on error too")
    assert functional.scaling_root is original
    assert tracer.snapshot() == before


def test_traced_run_writes_identical_files(tmp_path):
    case = _small_cases(3)[0]
    plain = workloads.run_case(cli, case, tmp_path, "plain")
    (traced,), _, _ = _traced_pass([case], tmp_path, "traced")
    assert plain.digest == traced.digest
    for suffix in ("report", "csv"):
        assert (tmp_path / f"{case.label}.plain.{suffix}").read_bytes() == \
            (tmp_path / f"{case.label}.traced.{suffix}").read_bytes()


def test_self_times_account_for_the_traced_wall(tmp_path):
    _, m, spans = _traced_pass(_small_cases(4)[:1], tmp_path, "t")
    roots = [(spans.names[n], e - s) for n, p, s, e in
             zip(spans.name, spans.parent, spans.start, spans.end) if p < 0]
    assert [name for name, _ in roots] == ["cli.main", "cli.main"]  # solve, verify
    selfs = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert selfs == pytest.approx(sum(d for _, d in roots), rel=1e-9)
    assert 0.0 <= m["trace.remainder_s"] < 0.05 * m["trace.wall_s"]
    assert m["expressions.evaluate.s"] == 0.0  # closed-form potential


def test_pass_times_are_scaled_by_the_calibration(tmp_path):
    runs = run.run_pass(cli, _small_cases(6), tmp_path, "c")
    assert all(0.0 < r.scale < 10.0 for r in runs)
    raw, scaled = run.pass_totals(runs, scaled=False), run.pass_totals(runs)
    assert raw["wall_s"] == pytest.approx(sum(r.solve_s + r.verify_s for r in runs))
    assert scaled["wall_s"] == pytest.approx(
        sum((r.solve_s + r.verify_s) * r.scale for r in runs))


@pytest.mark.parametrize("base,change,better,bound,expected", [
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [8] * 10, "lower", 0.1, "better"),
    ([10] * 10, [12] * 10, "lower", 0.1, "worse"),
    ([5, 15, 8, 12, 10, 6, 14, 9, 11, 10], [10] * 10, "lower", 0.1, "unresolved"),
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [10.05] * 10, "lower", 0.1, "same"),
])
def test_compare_verdicts(base, change, better, bound, expected):
    assert compare.verdict(base, change, better, bound)[0] == expected
