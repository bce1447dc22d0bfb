import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hamorbit
from hamorbit.cli import ConfigError, main, make_potential
from hamorbit.reportio import parse_report, read_orbit_table, write_orbit_table


def run(*argv):
    return main(list(argv))

HARMONIC = ["--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "2", "--energy", "1"]


def test_make_potential_forms():
    p, mu1, mu2 = make_potential("power_law(a=0.5,mu1=2,mu2=0)", 2)
    assert p.kind == "power_law" and mu1 == 2.0 and mu2 == 0.0
    p, mu1, mu2 = make_potential("power_law(0.25, 4)", 3)
    assert p.a == 0.25 and p.mu1 == 4.0 and p.mu2 == 0.0 and p.n == 3
    p, mu1, mu2 = make_potential("0.5*|q|^2", 2)
    assert p.kind == "expression" and mu1 == 2.0
    with pytest.raises(ConfigError):
        make_potential("power_law(a=0.5)", 2)
    with pytest.raises(ConfigError):
        make_potential("power_law(1,2,3,4)", 2)


def test_check_exit_codes(capsys):
    assert run("check", *HARMONIC) == 0
    out = capsys.readouterr().out
    assert "B1: pass" in out and "B4: pass" in out
    assert run("check", "--potential", "q1", "--n", "2", "--energy", "1", "--mu1", "2") == 1
    assert run("check", "--potential", "power_law(a=0.5,mu1=2,mu2=0)",
               "--n", "2", "--energy", "0") == 2


def test_parse_error_exits_2(capsys):
    code = run("check", "--potential", "0.5*(|q|^2", "--n", "2", "--energy", "1")
    assert code == 2
    assert "position" in capsys.readouterr().err


def test_domain_failure_prints_only_its_error_line():
    # exp overflows at the sampled points: the cause is named once, with no
    # numpy RuntimeWarning and source line ahead of it on stderr.
    src = os.path.dirname(os.path.dirname(hamorbit.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "hamorbit.cli", "check", "--potential",
         "exp(0.5*q1^4) + q2^2", "--n", "2", "--energy", "1"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: E_DOMAIN: "), out.stderr


def test_solve_report_and_verify_roundtrip(tmp_path, capsys):
    rep = tmp_path / "report.txt"
    orb = tmp_path / "orbit.csv"
    code = run("solve", *HARMONIC, "--symmetry", "e1", "--route", "constrained_min",
               "--nodes", "256", "--no-timestamp",
               "--report", str(rep), "--orbit", str(orb))
    assert code == 0
    doc = parse_report(rep.read_text())
    assert doc["run"]["route"] == "constrained_min"
    assert doc["run"]["termination"] == "converged"
    assert abs(float(doc["run"]["f_star"]) - np.pi**2) < 1e-2
    assert abs(float(doc["run"]["period"]) - 2 * np.pi) < 1e-2
    assert float(doc["run"]["ode_sup"]) <= 1e-2
    assert doc["run"]["nonconstant"] == "true"
    assert len(doc["cps_trace"]) >= 1
    times, positions, period = read_orbit_table(orb)
    assert positions.shape == (256, 2)
    capsys.readouterr()
    assert run("verify", str(orb), *HARMONIC) == 0


def test_solve_expression_potential(tmp_path):
    rep = tmp_path / "r.txt"
    code = run("solve", "--potential", "0.5*|q|^2", "--n", "2", "--energy", "1",
               "--symmetry", "e1", "--nodes", "64", "--no-timestamp",
               "--report", str(rep))
    assert code == 0
    doc = parse_report(rep.read_text())
    assert doc["problem"]["potential"] == "0.5*|q|^2"


def test_solve_mountain_pass_route(tmp_path):
    rep = tmp_path / "mp.txt"
    orb = tmp_path / "mp.csv"
    code = run("solve", *HARMONIC, "--route", "mountain_pass", "--nodes", "128",
               "--no-timestamp", "--report", str(rep), "--orbit", str(orb))
    assert code == 0
    doc = parse_report(rep.read_text())
    assert doc["run"]["route"] == "mountain_pass"
    assert "gamma_history" in doc
    assert abs(float(doc["run"]["f_star"]) - np.pi**2) < 0.1


def test_solve_collapse_reports_and_fails(tmp_path, capsys):
    rep = tmp_path / "bad.txt"
    code = run("solve", *HARMONIC, "--route", "mountain_pass", "--nodes", "64",
               "--mp-radius", "50", "--no-timestamp", "--report", str(rep))
    assert code == 1
    doc = parse_report(rep.read_text())
    assert doc["run"]["termination"] == "hypothesis_violation"
    assert "E_COLLAPSE" in doc["run"]["message"]


def test_solve_nonconvergence_exits_1(tmp_path):
    code = run("solve", *HARMONIC, "--symmetry", "e1", "--init", "random_bandlimited",
               "--seed", "3", "--nodes", "64", "--max-iterations", "1",
               "--no-timestamp", "--report", str(tmp_path / "r.txt"))
    assert code == 1


def test_determinism_byte_identical(tmp_path):
    args = ["solve", *HARMONIC, "--symmetry", "e1", "--nodes", "64", "--seed", "9",
            "--init", "random_bandlimited", "--no-timestamp"]
    r1, o1 = tmp_path / "r1.txt", tmp_path / "o1.csv"
    r2, o2 = tmp_path / "r2.txt", tmp_path / "o2.csv"
    assert run(*args, "--report", str(r1), "--orbit", str(o1)) == 0
    assert run(*args, "--report", str(r2), "--orbit", str(o2)) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert o1.read_bytes() == o2.read_bytes()


def test_verify_rejects_scaled_orbit(tmp_path, capsys):
    orb = tmp_path / "orbit.csv"
    assert run("solve", *HARMONIC, "--symmetry", "e1", "--nodes", "256",
               "--no-timestamp", "--orbit", str(orb),
               "--report", str(tmp_path / "r.txt")) == 0
    times, positions, period = read_orbit_table(orb)
    write_orbit_table(orb, times, 1.1 * positions, period)
    capsys.readouterr()
    assert run("verify", str(orb), *HARMONIC) == 1
    out = capsys.readouterr().out
    energy_sup = float(out.split("energy_sup=")[1].split()[0])
    assert energy_sup >= 0.05


def test_verify_truncated_file_exits_2(tmp_path, capsys):
    orb = tmp_path / "orbit.csv"
    assert run("solve", *HARMONIC, "--symmetry", "e1", "--nodes", "64",
               "--no-timestamp", "--orbit", str(orb),
               "--report", str(tmp_path / "r.txt")) == 0
    lines = orb.read_text().splitlines()
    (tmp_path / "broken.csv").write_text("\n".join(lines[:5]) + "\n")
    assert run("verify", str(tmp_path / "broken.csv"), *HARMONIC) == 2
    (tmp_path / "mangled.csv").write_text(
        "\n".join(lines[:10] + ["0.5,not_a_number,1.0"]) + "\n"
    )
    assert run("verify", str(tmp_path / "mangled.csv"), *HARMONIC) == 2
    err = capsys.readouterr().err
    assert "line 11" in err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"potential": "power_law(a=0.5,mu1=2,mu2=0)", "n": 2, "energy": 1,'
        ' "symmetry": "e1", "nodes": 64, "no_timestamp": true}'
    )
    rep = tmp_path / "r.txt"
    assert run("solve", "--config", str(cfg), "--nodes", "128",
               "--report", str(rep)) == 0
    doc = parse_report(rep.read_text())
    assert doc["problem"]["nodes"] == "128"
    assert "created" not in doc["run"]


def test_config_file_errors(tmp_path):
    assert run("solve", "--config", str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": 64, "bogus_key": 1}')
    assert run("solve", "--config", str(bad)) == 2
    assert run("solve", "--nodes", "64") == 2  # no potential given


def test_config_unknown_initial_loop_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"potential": "power_law(a=0.5,mu1=2,mu2=0)", "n": 2, "energy": 1,'
        ' "nodes": 64, "init": "user"}'
    )
    rep = tmp_path / "r.txt"
    assert run("solve", "--config", str(cfg), "--no-timestamp", "--report", str(rep)) == 2
    assert not rep.exists()


def test_solve_potential_that_overflows_far_out(tmp_path):
    # exp overflows far out on every ray; the ray search must not go there.
    argv = ["--potential", "exp(0.5*|q|^2) - 1", "--n", "2", "--energy", "1"]
    rep, orb = tmp_path / "r.txt", tmp_path / "o.csv"
    assert run("solve", *argv, "--nodes", "64", "--no-timestamp",
               "--report", str(rep), "--orbit", str(orb)) == 0
    assert parse_report(rep.read_text())["run"]["termination"] == "converged"
    assert run("verify", str(orb), *argv) == 0


@pytest.mark.parametrize("argv, codes", [
    (["--potential", "0.5*|q|^2 - 0.1*|q|^4", "--n", "2", "--energy", "1"],
     ("E_NO_BRACKET",)),
    (["--potential", "log(q1)", "--n", "2", "--energy", "1"], ("E_DOMAIN",)),
    ([*HARMONIC, "--route", "mountain_pass", "--mp-radius", "50"], ("E_COLLAPSE",)),
], ids=["no_bracket", "domain_error", "collapse"])
def test_solve_failure_names_every_cause(tmp_path, capsys, argv, codes):
    rep = tmp_path / "r.txt"
    assert run("solve", *argv, "--nodes", "64", "--no-timestamp", "--report", str(rep)) == 1
    run_section = parse_report(rep.read_text())["run"]
    message = run_section["message"]
    err = capsys.readouterr().err
    for text in (message, err):
        where = [text.find(code) for code in codes]
        assert min(where) >= 0 and where == sorted(where), (codes, text)
        # A failed solve leaves no candidate orbit, so nothing is integrated.
        assert "E_BLOWUP" not in text
    assert math.isnan(float(run_section["period"]))
