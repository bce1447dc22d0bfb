import math

import numpy as np
import pytest

from hamorbit.errors import OrbitFileError
from hamorbit.loopspace import MIN_NODES
from hamorbit.reportio import read_orbit_table, write_orbit_table


@pytest.mark.parametrize("T", [1.0, 2 * math.pi], ids=["T1", "T2pi"])
@pytest.mark.parametrize("N", [8, 64, 100, 1024])
def test_orbit_table_round_trip(tmp_path, N, T):
    path = tmp_path / "orbit.csv"
    q = np.random.default_rng(N).standard_normal((N, 3))
    write_orbit_table(path, q, T)
    positions, period = read_orbit_table(path)
    assert np.array_equal(positions, q) and period == T
    rows = path.read_text().splitlines()
    assert rows[0] == "t,q1,q2,q3" and len(rows) == N + 2
    times = np.array([float(row.split(",")[0]) for row in rows[1:-1]])
    assert np.array_equal(times, np.arange(N) * (T / N))
    assert rows[-1].split(",")[1:] == rows[1].split(",")[1:]


def table_text(q, T, digits=17):
    """An orbit table whose time column is written with ``digits`` digits."""
    N = len(q)
    rows = ["t,q1,q2"]
    for k in range(N + 1):
        t = format(k * T / N if k < N else T, f".{digits}g")
        rows.append(",".join([t] + [format(x, ".17g") for x in q[k % N]]))
    return "\n".join(rows) + "\n"


def test_twelve_digit_times_read_back(tmp_path):
    N, T = 64, 2 * math.pi
    q = np.random.default_rng(1).standard_normal((N, 2))
    path = tmp_path / "orbit.csv"
    path.write_text(table_text(q, T, digits=12))
    positions, period = read_orbit_table(path)
    assert np.array_equal(positions, q) and period == float(format(T, ".12g"))


def good_rows(N=16):
    return table_text(np.random.default_rng(2).standard_normal((N, 2)), 1.0).splitlines()


def edited(rows, lineno, text):
    """``rows`` with 1-based line ``lineno`` replaced by ``text``."""
    return rows[:lineno - 1] + [text] + rows[lineno:]


def reject_cases():
    rows = good_rows()
    last = len(rows)
    return {
        "empty": ([], 1, "empty orbit file"),
        "header": (["time,q1,q2"] + rows[1:], 1, "header must be t,q1,...,qn"),
        "column_name": (["t,q1,q3"] + rows[1:], 1, "bad column name 'q3'"),
        "field_count": (edited(rows, 5, "0.25,1.0"), 5, "expected 3 fields, got 2"),
        "inf_entry": (edited(rows, 7, "0.3125,inf,1.0"), 7, "non-finite entries in orbit table"),
        "period": (edited(rows, last, "-1," + rows[1].split(",", 1)[1]), last,
                   "closing row must carry the positive period"),
        "too_few_rows": (good_rows(MIN_NODES - 1), MIN_NODES + 1,
                         "need at least 9 sample rows (8 nodes + closing row)"),
    }


@pytest.mark.parametrize("case", list(reject_cases()))
def test_reader_rejects_with_the_line(tmp_path, case):
    rows, line, message = reject_cases()[case]
    path = tmp_path / "orbit.csv"
    path.write_text("".join(row + "\n" for row in rows))
    with pytest.raises(OrbitFileError) as err:
        read_orbit_table(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_reader_takes_the_fewest_nodes_a_loop_may_have(tmp_path):
    path = tmp_path / "orbit.csv"
    path.write_text("".join(row + "\n" for row in good_rows(MIN_NODES)))
    positions, period = read_orbit_table(path)
    assert positions.shape == (MIN_NODES, 2) and period == 1.0


def test_reader_drops_trailing_blank_lines(tmp_path):
    rows = good_rows()
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("".join(row + "\n" for row in rows))
    padded.write_text("".join(row + "\n" for row in rows) + "\n  \n\n")
    (q, T), (q_padded, T_padded) = read_orbit_table(plain), read_orbit_table(padded)
    assert np.array_equal(q_padded, q) and T_padded == T


@pytest.mark.parametrize("token", ["1_0", "infinity", " 1.5 ", "1.5\r", "0x10", "1e", ""])
def test_whole_table_conversion_reads_a_field_as_float_does(tmp_path, token):
    # The reader converts the whole table in one numpy cast and falls back to
    # float() line by line only to name a bad line; the two must accept the
    # same tokens with the same value, or the fast read could pass a table
    # the line-by-line read rejects, or the reverse.
    try:
        expected = float(token)
    except ValueError:
        expected = None
    try:
        cast = float(np.array([token], dtype=float)[0])
    except ValueError:
        cast = None
    assert cast == expected
    rows = good_rows()
    rows[4] = rows[4].rsplit(",", 1)[0] + "," + token  # row 3's q2, on line 5
    path = tmp_path / "orbit.csv"
    path.write_bytes("".join(row + "\n" for row in rows).encode())
    if expected is None:
        with pytest.raises(OrbitFileError, match="^line 5: unparsable number$"):
            read_orbit_table(path)
    elif not math.isfinite(expected):
        with pytest.raises(OrbitFileError, match="^line 5: non-finite entries in orbit table$"):
            read_orbit_table(path)
    else:
        positions, _ = read_orbit_table(path)
        assert positions[3, 1] == expected
