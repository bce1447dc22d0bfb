"""Compare two sets of benchmark results, run in alternating-order pairs.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*.json`` records that ``run.py`` writes to
``perfbench/out/results/`` (copy them out of each checkout).  Records pair up
by (workload, seed, trace); every record carries both the end-to-end and the
per-layer metrics, whichever of them its run printed.  Run the two sides
alternately, flipping which goes first from one pair to the next; the
``order`` column shows the share of pairs in which the base ran first, so
0.5 means alternation held.

One row per (workload, metric): each side's median and quartiles, the ratio
change/base with its base value, and the share of pairs the change won
(ties count for neither).  The verdict follows the benchmark's rule:

* ``better``: the change wins at least 9 pairs in 10 and the medians differ
  by more than the base's own quartile spread;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved``: either side's quartile spread exceeds the bound, unless
  every change run beats every base run;
* ``same`` otherwise.  Per-layer metrics have no bound: they are ``better``
  or ``-``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> dict:
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, change, better, bound) -> tuple[str, float]:
    """Verdict and pair-win share of the change for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    share = wins / len(base)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if share >= 0.9 and abs(mc - mb) > q3 - q1 and sign * (mc - mb) > 0:
        return "better", share
    if bound is None:
        return "-", share
    if mb and sign * (mb - mc) / abs(mb) > bound:
        return "worse", share
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", share
    return "same", share


def compare(base_dir, change_dir, out=sys.stdout) -> int:
    spec = json.loads(BENCHMARK.read_text())
    metrics = [(m, "end_to_end") for m in spec["end_to_end"]] + \
              [(m, "per_layer") for m in spec["per_layer"]]
    base, change = load(base_dir), load(change_dir)
    keys = sorted(set(base) & set(change))
    if not keys:
        print("no (workload, seed, trace) record present on both sides", file=out)
        return 2
    header = (f"{'workload':<20} {'metric':<48} {'base q1/med/q3':<32} "
              f"{'change q1/med/q3':<32} {'change/base (base)':<28} "
              f"{'wins':>5} {'order':>5} verdict")
    print(header, file=out)
    for workload in sorted({k[0] for k in keys}):
        for m, part in metrics:
            pairs = [k for k in keys if k[0] == workload]
            b = [base[k][part][m["name"]] for k in pairs]
            c = [change[k][part][m["name"]] for k in pairs]
            base_first = sum(base[k]["started_at"] < change[k]["started_at"] for k in pairs)
            v, share = verdict(b, c, m["better"], m.get("bound"))
            qb, qc = quartiles(b), quartiles(c)
            ratio = f"{qc[1] / qb[1]:.3f} ({qb[1]:.4g} {m['unit']})" if qb[1] else \
                f"- ({qb[1]:.4g} {m['unit']})"
            print(f"{workload:<20} {m['name']:<48} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):<32} "
                  f"{'/'.join(f'{x:.4g}' for x in qc):<32} {ratio:<28} "
                  f"{share:>5.2f} {base_first / len(pairs):>5.2f} {v}  n={len(pairs)}",
                  file=out)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
