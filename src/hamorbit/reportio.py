"""Plain-text report and orbit-table serialization.

Report format (documented in the README): a version header line, then
``[section]`` blocks of ``key = value`` pairs.  The diagnostics trace is its
own section with one whitespace-separated record per line.  All floats are
written with 17 significant digits, which round-trips IEEE doubles exactly,
so identical runs produce byte-identical files.

Orbit table: a CSV with header ``t,q1,...,qn`` and N+1 rows; row k holds the
sample at t_k = k T / N and the closing row repeats the t = 0 sample at t = T
with byte-identical number formatting.  This module is the one home of that
layout: the writer derives the time column from the period, and the reader
checks it against k T / N and the closing row against row 0.
"""

from __future__ import annotations

import numpy as np

from .errors import OrbitFileError
from .loopspace import MIN_NODES

REPORT_HEADER = "# hamorbit report v1"
TRACE_COLUMNS = ("iteration", "f_value", "loop_norm", "weighted_gradient",
                 "distance_proxy", "constraint_residual")


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_report(sections, trace=None, gamma_history=None) -> str:
    """Render ordered (name, items) sections, an optional trace, and an
    optional level-estimate history into the report text."""
    lines = [REPORT_HEADER]
    for name, items in sections:
        lines.append(f"[{name}]")
        for key, value in items:
            lines.append(f"{key} = {fmt(value)}")
    if gamma_history is not None:
        lines.append("[gamma_history]")
        lines.append(" ".join(map(fmt, gamma_history)))
    if trace is not None:
        lines.append("[cps_trace]")
        lines.append("# " + " ".join(TRACE_COLUMNS))
        for rec in trace:
            lines.append(" ".join(fmt(getattr(rec, c)) for c in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Parse report text back into {section: {key: str}} plus trace rows.

    The trace comes back as a list of dicts keyed by column name; the level
    history as a list of floats.  Values stay strings for everything else.
    """
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = [] if current in ("cps_trace", "gamma_history") else {}
            continue
        if current == "cps_trace":
            parts = line.split()
            sections[current].append(dict(zip(TRACE_COLUMNS, parts)))
        elif current == "gamma_history":
            sections[current].extend(float(p) for p in line.split())
        elif current is not None and "=" in line:
            key, _, value = line.partition("=")
            sections[current][key.strip()] = value.strip()
    return sections


def write_orbit_table(path, positions, period: float) -> None:
    """Write the orbit sample table: row k at t_k = k T / N, then the closing
    row, row 0's sample at t = T."""
    q = np.asarray(positions, dtype=float)
    N, n = q.shape
    times = np.append(np.arange(N) * (period / N), period)
    template = ",".join(["%.17g"] * (n + 1))  # "%.17g" writes format(x, ".17g")'s bytes
    table = np.column_stack((times, np.vstack((q, q[:1])))).tolist()
    rows = ["t," + ",".join(f"q{i + 1}" for i in range(n))]
    rows += [template % tuple(values) for values in table]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _reject_rows(bad, message):
    """Raise :class:`OrbitFileError` at the first data row flagged in ``bad``
    (row 0 is line 2)."""
    if bad.any():
        raise OrbitFileError(message, line=int(np.argmax(bad)) + 2)


def _table_body(body, n):
    """The data lines as one float array, one row per line: one conversion
    of the whole body when every line holds n commas and every field
    parses.  Otherwise the lines are read one by one, which raises
    :class:`OrbitFileError` at the first line with a bad field count or an
    unparsable number."""
    if all(line.count(",") == n for line in body):
        try:
            return np.array(",".join(body).split(","), dtype=float).reshape(len(body), n + 1)
        except ValueError:
            pass
    data = []
    for lineno, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != n + 1:
            raise OrbitFileError(
                f"expected {n + 1} fields, got {len(parts)}", line=lineno
            )
        try:
            data.append([float(p) for p in parts])
        except ValueError:
            raise OrbitFileError("unparsable number", line=lineno) from None
    return np.array(data)


def read_orbit_table(path):
    """Read an orbit table back as (positions (N, n), period).

    Raises :class:`OrbitFileError` with the offending 1-based line number on
    any structural problem, on a time more than 1e-9 T from k T / N, and on a
    closing row whose coordinates differ from row 0's.
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as err:
        raise OrbitFileError(f"cannot read orbit file: {err}") from None
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise OrbitFileError("empty orbit file", line=1)
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 2:
        raise OrbitFileError("header must be t,q1,...,qn", line=1)
    for i, name in enumerate(header[1:], start=1):
        if name != f"q{i}":
            raise OrbitFileError(f"bad column name {name!r}", line=1)
    arr = _table_body(lines[1:], len(header) - 1)
    if len(arr) < MIN_NODES + 1:
        raise OrbitFileError(f"need at least {MIN_NODES + 1} sample rows "
                             f"({MIN_NODES} nodes + closing row)",
                             line=len(lines))
    times, positions = arr[:-1, 0], arr[:-1, 1:]
    period = arr[-1, 0]
    _reject_rows(~np.isfinite(arr).all(axis=1), "non-finite entries in orbit table")
    if period <= 0.0:
        raise OrbitFileError("closing row must carry the positive period",
                             line=len(lines))
    N = len(times)
    _reject_rows(np.abs(times - np.arange(N) * (period / N)) > 1e-9 * period,
                 "times must be t_k = k T / N")
    if np.any(arr[-1, 1:] != positions[0]):
        raise OrbitFileError("closing row must repeat the first sample", line=len(lines))
    return positions, period
