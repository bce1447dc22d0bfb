"""Solve-then-verify benchmark of the hamorbit CLI.

    python3 perfbench/run.py --workload nehari-expr --seed 1 --seconds 30 --trace 0

One process runs the workload's cases one after another (a closed loop with
one client), calling ``hamorbit.cli.main`` in-process for ``solve`` and then
``verify``, with BLAS pinned to one thread.  The run has four phases:

1. set-up, timed in fresh interpreters (``setup_probe.py``), median of five;
2. untimed warm-up of one small case in this process;
3. untraced passes over the case list, repeated while ``--seconds`` allows;
   end-to-end timings are the median over these passes;
4. one traced pass (``tracer.py``) that gives counts and per-layer times.

Reported times are scaled to a reference host speed measured next to each
case (``workloads.REFERENCE_KERNEL_S``); the record keeps the raw ones.
Every case must pass the gate in ``workloads.py``, and the traced pass must
write reports and orbit files byte-identical to the untraced ones.  The last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.  The full record, with the environment, start seeds
and per-case times, goes to ``perfbench/out/results/``; ``compare.py``
compares two sets of such records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
# A traced pass takes at most this many untraced passes; the pass loop keeps
# room for it inside --seconds.
TRACED_PASS_COST = 1.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, case_list) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "start_seeds": {c.label: c.start_seed for c in case_list},
    }


def measure_setup(workload: str, workdir: Path) -> list[dict]:
    """Set-up seconds, scaled and raw, of SETUP_REPEATS fresh interpreters,
    one at a time; they inherit the pinned thread counts."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(cli, case_list, workdir, tag):
    """Run every case once, with the calibration kernel before the first case
    and after each; a case's scale uses the mean of the kernels around it."""
    kernels = [workloads.calibration_kernel()]
    runs = []
    for case in case_list:
        runs.append(workloads.run_case(cli, case, workdir, tag))
        kernels.append(workloads.calibration_kernel())
    for r, before, after in zip(runs, kernels, kernels[1:]):
        r.scale = workloads.REFERENCE_KERNEL_S / (0.5 * (before + after))
    return runs


def pass_totals(runs, scaled=True) -> dict:
    solve = sum(r.solve_s * (r.scale if scaled else 1.0) for r in runs)
    verify = sum(r.verify_s * (r.scale if scaled else 1.0) for r in runs)
    return {"wall_s": solve + verify, "solve_s": solve, "verify_s": verify}


def tail_percentile(samples: list[float]) -> dict:
    """Median, and the highest whole percentile with at least ten samples
    above it when there are more than ten."""
    n = len(samples)
    out = {"samples": n, "median": statistics.median(samples)}
    if n > 10:
        pct = 100 * (n - 10) // n
        out[f"p{pct}"] = sorted(samples)[math.ceil(pct * n / 100) - 1]
    return out


def check(runs_by_pass, traced) -> list[str]:
    """Problems that make the run incorrect: unverified cases, and any case
    whose reports, orbit files or counts differ between passes."""
    problems = []
    for p, runs in enumerate(runs_by_pass + [traced]):
        name = "traced pass" if p == len(runs_by_pass) else f"pass {p}"
        for r in runs:
            if not r.verified:
                problems.append(f"{name}: {r.label} not verified (solve={r.solve_rc!r}, "
                                f"verify={r.verify_rc!r}, f_star={r.f_star!r})")
    reference = runs_by_pass[0]
    for runs in runs_by_pass[1:] + [traced]:
        for a, b in zip(reference, runs):
            if a.digest != b.digest or a.iterations != b.iterations:
                tag = "traced" if runs is traced else "untraced"
                problems.append(f"{a.label}: {tag} outputs differ from the first pass")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hamorbit" / "cli.py").is_file():
        print(f"error: no hamorbit sources under {SRC}", file=sys.stderr)
        return 2
    workloads.pin_threads()
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    started_at = time.time()

    setup_samples = measure_setup(args.workload, workdir)

    sys.path.insert(0, str(SRC))
    from hamorbit import cli

    import tracer  # imports numpy, so only after pin_threads

    case_list = workloads.cases(args.workload, args.seed)
    workloads.run_case(cli, workloads.warmup_case(args.workload), workdir, "warmup")

    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(cli, case_list, workdir, "plain"))
        last = time.perf_counter() - p0
        if time.perf_counter() - t0 + last * (1.0 + TRACED_PASS_COST) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    before = tracer.snapshot()
    spans = tracer.Tracer()
    with tracer.instrument(spans):
        traced = run_pass(cli, case_list, workdir, "traced")
    restored = tracer.snapshot() == before

    problems = check(passes, traced)
    if not restored:
        problems.append("tracing left hamorbit attributes changed")

    totals = [pass_totals(runs) for runs in passes]
    iterations = sum(r.iterations for r in passes[0])
    traced_totals = pass_totals(traced)
    layers = tracer.layer_metrics(spans, iterations, pass_totals(traced, scaled=False)["wall_s"])
    end_to_end = {key: statistics.median(t[key] for t in totals)
                  for key in ("wall_s", "solve_s", "verify_s")}
    attempted = sum(len(runs) for runs in passes) + len(traced)
    failed = sum(not r.verified for runs in passes + [traced] for r in runs)
    end_to_end.update({
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "iterations": iterations,
        "potential_points": layers["potentials.points"],
        "verified_frac": (attempted - failed) / attempted,
    })
    layers["trace.overhead_s"] = traced_totals["wall_s"] - end_to_end["wall_s"]

    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    source = layers if args.trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_at": started_at,
        "environment": environment(args, case_list),
        "passes": len(passes),
        "setup_samples": setup_samples,
        "pass_totals": totals,
        "raw_pass_totals": [pass_totals(runs, scaled=False) for runs in passes],
        "case_wall_s": tail_percentile([(r.solve_s + r.verify_s) * r.scale
                                        for runs in passes for r in runs]),
        "end_to_end": end_to_end,
        "per_layer": layers,
        "cases": [vars(r) for r in passes[0]],
        "problems": problems,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    tail = ", ".join(f"{k} {v:.4g}" for k, v in record["case_wall_s"].items())
    print(f"# {args.workload} seed={args.seed}: {len(case_list)} cases, "
          f"{len(passes)} untraced passes; per-case wall_s: {tail}")
    for key, value in {**end_to_end, **layers}.items():
        print(f"{key} = {value:.6g} {units.get(key, '')}".rstrip())
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
