import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hamorbit
from conftest import count_calls
from hamorbit import cli
from hamorbit.cli import build_parser, main, make_potential
from hamorbit.errors import BlowupError, OrbitFileError, PathCollapseError
from hamorbit.potentials import ExpressionPotential, PowerLawPotential
from hamorbit.reportio import parse_report, read_orbit_table, write_orbit_table


def run(*argv):
    return main(list(argv))

HARMONIC = ["--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "2", "--energy", "1"]


def test_make_potential_forms():
    # The CLI reads a potential with the library's one parser.
    assert make_potential is hamorbit.parse_potential
    p = make_potential("power_law(a=0.5,mu1=2,mu2=0)", 2)
    assert isinstance(p, PowerLawPotential) and (p.mu1, p.mu2) == (2.0, 0.0)
    p = make_potential("power_law(0.25, 4)", 3)
    assert p.a == 0.25 and p.mu1 == 4.0 and p.mu2 == 0.0 and p.n == 3
    p = make_potential(" 0.5*|q|^2\n", 2)
    assert isinstance(p, ExpressionPotential) and (p.mu1, p.mu2) == (2.0, 0.0)
    assert p.describe() == "0.5*|q|^2"
    with pytest.raises(ValueError):
        make_potential("power_law(a=0.5)", 2)
    with pytest.raises(ValueError):
        make_potential("power_law(1,2,3,4)", 2)


def test_check_exit_codes(capsys):
    assert run("check", *HARMONIC) == 0
    out = capsys.readouterr().out
    assert "B1: pass" in out and "B4: pass" in out
    assert run("check", "--potential", "q1", "--n", "2", "--energy", "1", "--mu1", "2") == 1
    assert run("check", "--potential", "power_law(a=0.5,mu1=2,mu2=0)",
               "--n", "2", "--energy", "0") == 2


def test_check_tolerance_is_a_floor_for_b4_and_a_dead_band_for_b5(capsys):
    # The same samples: a wide tolerance fails B4's floor (scaled residual
    # 0.101) and puts B5's estimate inside its dead band, while B1-B3 pass.
    verdicts = []
    for extra in ((), ("--tolerance", "10")):
        code = run("check", *HARMONIC, *extra)
        lines = capsys.readouterr().out.splitlines()
        verdicts.append((code, [line.split(" ", 2)[1] for line in lines]))
    assert verdicts == [(0, ["pass"] * 5), (1, ["pass", "pass", "pass", "fail", "inconclusive"])]


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
    positions, period = read_orbit_table(orb)
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


COLLAPSE_MESSAGE = ("E_COLLAPSE: derivative sphere does not separate the endpoints: "
                    "{'speed_z0': 0.0, 'speed_z1': 12.561324627819012, 'radius': 50.0}")
COLLAPSE_REPORT = f"""# hamorbit report v1
[run]
command = solve
route = mountain_pass
termination = hypothesis_violation
iterations = 0
message = {COLLAPSE_MESSAGE}
f_star = nan
period = nan
ode_sup = nan
energy_sup = nan
closure = nan
closure_err = nan
nonconstant = false
ode_tol = 0.01
energy_tol = 0.01
[problem]
potential = power_law(a=0.5,mu1=2,mu2=0)
n = 2
energy = 1
mu1 = 2
mu2 = 0
symmetry = e1
nodes = 64
[options]
seed = 0
max_iterations = 5000
gradient_tolerance = 9.9999999999999995e-07
path_points = 16
init = circle
mp_radius = 50
[cps_trace]
# iteration f_value loop_norm weighted_gradient distance_proxy constraint_residual
"""


def test_solve_collapse_reports_and_fails(tmp_path, capsys):
    rep = tmp_path / "bad.txt"
    code = run("solve", *HARMONIC, "--route", "mountain_pass", "--nodes", "64",
               "--mp-radius", "50", "--no-timestamp", "--report", str(rep))
    assert code == 1
    doc = parse_report(rep.read_text())
    assert doc["run"]["termination"] == "hypothesis_violation"
    assert "E_COLLAPSE" in doc["run"]["message"]
    # A solver that raises leaves no loop: no level, no trace, no orbit.
    assert rep.read_text() == COLLAPSE_REPORT
    assert capsys.readouterr().err == f"failed: {COLLAPSE_MESSAGE}\n"


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


def test_closure_err_reported_after_closure(tmp_path, capsys):
    rep, orb = tmp_path / "r.txt", tmp_path / "o.csv"
    assert run("solve", *HARMONIC, "--nodes", "64", "--no-timestamp",
               "--report", str(rep), "--orbit", str(orb)) == 0
    run_section = parse_report(rep.read_text())["run"]
    keys = list(run_section)
    assert keys[keys.index("closure") + 1] == "closure_err"
    closure, closure_err = float(run_section["closure"]), float(run_section["closure_err"])
    assert 0.0 <= closure_err <= 1e-3 * closure
    capsys.readouterr()
    assert run("verify", str(orb), *HARMONIC) == 0
    out = capsys.readouterr().out
    assert float(out.split("closure_err=")[1].split()[0]) == pytest.approx(closure_err,
                                                                           rel=1e-5)
    # No orbit, no closure and no estimate.
    assert run("solve", *HARMONIC, "--route", "mountain_pass", "--nodes", "64",
               "--mp-radius", "50", "--no-timestamp", "--report", str(rep)) == 1
    run_section = parse_report(rep.read_text())["run"]
    assert math.isnan(float(run_section["closure"]))
    assert math.isnan(float(run_section["closure_err"]))


def test_verify_rejects_scaled_orbit(tmp_path, capsys):
    orb = tmp_path / "orbit.csv"
    assert run("solve", *HARMONIC, "--symmetry", "e1", "--nodes", "256",
               "--no-timestamp", "--orbit", str(orb),
               "--report", str(tmp_path / "r.txt")) == 0
    positions, period = read_orbit_table(orb)
    write_orbit_table(orb, 1.1 * positions, period)
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


def test_verify_dimension_mismatch_exits_2(tmp_path, capsys):
    orb = tmp_path / "orbit.csv"
    assert run("solve", *HARMONIC, "--nodes", "64", "--no-timestamp", "--orbit", str(orb)) == 0
    capsys.readouterr()
    argv = ["--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "3", "--energy", "1"]
    assert run("verify", str(orb), *argv) == 2
    assert capsys.readouterr().err == ("error: E_ORBIT_FILE: line 1: "
                                       "orbit has dimension 2, spec has 3\n")


def test_verify_closure_tolerance_gates_the_exit(tmp_path, capsys):
    orb = tmp_path / "orbit.csv"
    assert run("solve", *HARMONIC, "--nodes", "64", "--no-timestamp", "--orbit", str(orb)) == 0
    capsys.readouterr()
    assert run("verify", str(orb), *HARMONIC, "--closure-tol", "1e-300") == 1
    closure = float(capsys.readouterr().out.split("closure=")[1].split()[0])
    assert closure == pytest.approx(0.00504, abs=1e-5)
    assert run("verify", str(orb), *HARMONIC, "--closure-tol", "1") == 0


def test_verify_closure_tol_settles_the_ladder_early(tmp_path, capsys, monkeypatch):
    # The N=256 cubic orbit from random start 0 climbs to 16 steps without a
    # tolerance; a loose or a tight one settles its verdict at 8.
    cubic = ["--potential", "power_law(a=0.5,mu1=3)", "--n", "3", "--energy", "1"]
    orb = tmp_path / "orbit.csv"
    assert run("solve", *cubic, "--symmetry", "e2", "--nodes", "256", "--init",
               "random_bandlimited", "--no-timestamp", "--orbit", str(orb)) == 0
    calls = count_calls(monkeypatch, PowerLawPotential, "gradient")
    counts = {}
    for closure_tol, code in (((), 0), (("--closure-tol", "1"), 0),
                              (("--closure-tol", "1e-300"), 1)):
        calls.clear()
        assert run("verify", str(orb), *cubic, *closure_tol) == code
        counts[closure_tol[1:]] = len(calls)
    assert counts == {(): 12 * 16, ("1",): 12 * 8, ("1e-300",): 12 * 8}


@pytest.mark.parametrize("closure_tol", [(), ("--closure-tol", "1e-3")])
def test_verify_rejects_a_constant_equilibrium(tmp_path, capsys, closure_tol):
    # q = (sqrt(2.5), 0) is an equilibrium of V = |q|^2/2 - |q|^4/10 at
    # energy 0.625: every residual vanishes, but a constant is no orbit.
    orb = tmp_path / "constant.csv"
    write_orbit_table(orb, np.tile([math.sqrt(2.5), 0.0], (64, 1)), 3.0)
    argv = ["--potential", "0.5*|q|^2 - 0.1*|q|^4", "--n", "2", "--energy", "0.625"]
    assert run("verify", str(orb), *argv, *closure_tol) == 1
    assert capsys.readouterr().out.startswith("period=3 ode_sup=2.22045e-16 energy_sup=0 ")


def test_solve_report_timestamp_is_its_only_difference(tmp_path):
    plain, stamped = tmp_path / "plain.txt", tmp_path / "stamped.txt"
    assert run("solve", *HARMONIC, "--nodes", "64", "--no-timestamp", "--report", str(plain)) == 0
    assert run("solve", *HARMONIC, "--nodes", "64", "--report", str(stamped)) == 0
    lines = stamped.read_text().splitlines()
    created = [line for line in lines if line.startswith("created = ")]
    assert len(created) == 1
    assert re.fullmatch(r"created = \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", created[0])
    assert "created" in parse_report(stamped.read_text())["run"]
    lines.remove(created[0])
    assert lines == plain.read_text().splitlines()


def test_solve_report_in_a_missing_directory_exits_2(tmp_path, capsys):
    rep = tmp_path / "missing" / "r.txt"
    assert run("solve", *HARMONIC, "--nodes", "64", "--report", str(rep)) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")


def test_verify_missing_orbit_file_exits_2(tmp_path, capsys):
    assert run("verify", str(tmp_path / "missing.csv"), *HARMONIC) == 2
    assert capsys.readouterr().err.startswith("error: E_ORBIT_FILE: cannot read orbit file")


def test_mountain_pass_without_symmetry(tmp_path, monkeypatch):
    # The harmonic level is reached at once.  On the anisotropic quartic the
    # sphere carries no barrier without a symmetry: descent alone collapses
    # the path, and Newton steps from its top reach the e1 orbit's level
    # (7.966701380757451 at N=32) before it does.
    rep = tmp_path / "r.txt"
    argv = ["--route", "mountain_pass", "--symmetry", "none", "--nodes", "32",
            "--no-timestamp", "--report", str(rep)]
    assert run("solve", *HARMONIC, *argv) == 0
    run_section = parse_report(rep.read_text())["run"]
    assert (run_section["termination"], run_section["iterations"]) == ("converged", "0")
    assert float(run_section["f_star"]) == pytest.approx(9.83793643354601, rel=1e-14)
    expression = ["--potential", "0.5*|q|^2 + 0.1*q1^4", "--n", "2", "--energy", "1"]
    assert run("solve", *expression, *argv) == 0
    run_section = parse_report(rep.read_text())["run"]
    assert (run_section["termination"], run_section["iterations"]) == ("converged", "14")
    assert float(run_section["f_star"]) == pytest.approx(7.966701380757451, rel=1e-12)
    monkeypatch.setattr(hamorbit.solvers, "_newton_step", lambda *args: None)
    assert run("solve", *expression, *argv) == 1
    run_section = parse_report(rep.read_text())["run"]
    assert run_section["termination"] == "hypothesis_violation"
    assert run_section["message"].startswith("E_COLLAPSE: ")


@pytest.mark.parametrize("potential, nodes", [("power_law(a=0.5,mu1=2,mu2=0)", "9"),
                                             ("0.5*|q|^2 + 0.1*q1^4", "33")],
                         ids=["harmonic_N9", "expression_N33"])
def test_mountain_pass_on_an_odd_e1_grid_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 potential, nodes):
    endpoints = count_calls(monkeypatch, cli, "build_endpoint")
    rep = tmp_path / "r.txt"
    assert run("solve", "--potential", potential, "--n", "2", "--energy", "1",
               "--route", "mountain_pass", "--symmetry", "e1", "--nodes", nodes,
               "--report", str(rep)) == 2
    assert capsys.readouterr().err == ("error: E_ODD_N: half-period symmetry needs an even "
                                       f"node count, got {nodes}\n")
    assert endpoints == [] and not rep.exists()


def test_mountain_pass_in_the_odd_class_exits_2_naming_it(tmp_path, capsys):
    # The pass starts from the circle, which is not odd: without the refusal
    # it "converged" to the circle orbit, whose e2 defect is 0.93.
    rep = tmp_path / "r.txt"
    assert run("solve", "--potential", "power_law(a=0.5,mu1=3)", "--n", "3", "--energy", "1",
               "--route", "mountain_pass", "--symmetry", "e2", "--nodes", "64",
               "--report", str(rep)) == 2
    assert capsys.readouterr().err == ("error: mountain-pass endpoint z1 is not in the "
                                       "symmetry class e2\n")
    assert not rep.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_mountain_pass_with_a_random_start_exits_2_before_any_work(tmp_path, capsys, no_solve,
                                                                   how):
    # The pass always starts from the circle; a random start would be ignored.
    settings = ["--route", "mountain_pass", "--init", "random_bandlimited", "--seed", "3"]
    if how == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"route": "mountain_pass", "init": "random_bandlimited", "seed": 3}')
        settings = ["--config", str(cfg)]
    rep = tmp_path / "r.txt"
    assert run("solve", *HARMONIC, *settings, "--nodes", "32", "--report", str(rep)) == 2
    assert capsys.readouterr().err == (
        "error: --init random_bandlimited sets the constrained route's start; "
        "the mountain pass always starts from the circle\n")
    assert not rep.exists()


def test_start_projected_to_rounding_noise_is_a_zero_loop(tmp_path, capsys):
    # The odd part of the 1-D circle cos t is rounding noise (max 3.1e-16):
    # the start vanishes, which is no failure of the growth hypotheses.
    rep = tmp_path / "r.txt"
    assert run("solve", "--potential", "0.5*q1^2+0.1*q1^4", "--n", "1", "--energy", "1",
               "--nodes", "16", "--symmetry", "e2", "--no-timestamp", "--report", str(rep)) == 1
    message = "E_ZERO_LOOP: initial loop vanishes after symmetry projection"
    assert parse_report(rep.read_text())["run"]["message"] == message
    assert capsys.readouterr().err == f"failed: {message}\n"


def test_solve_odd_nodes_with_half_period_symmetry_exits_2(tmp_path, capsys):
    rep = tmp_path / "r.txt"
    assert run("solve", *HARMONIC, "--symmetry", "e1", "--nodes", "63",
               "--report", str(rep)) == 2
    assert capsys.readouterr().err.startswith("error: E_ODD_N: ")
    assert not rep.exists()


def test_failed_synthesis_still_writes_the_report(tmp_path, capsys, monkeypatch):
    def blowup(loop, spec):
        raise BlowupError("orbit left every bound")

    monkeypatch.setattr(cli, "synthesize", blowup)
    rep = tmp_path / "r.txt"
    assert run("solve", *HARMONIC, "--nodes", "64", "--no-timestamp", "--report", str(rep)) == 1
    run_section = parse_report(rep.read_text())["run"]
    assert run_section["termination"] == "converged"
    assert run_section["message"] == "E_BLOWUP: orbit left every bound"
    assert math.isnan(float(run_section["period"]))
    assert "E_BLOWUP: orbit left every bound" in capsys.readouterr().err


def test_check_report_writes_the_hypotheses(tmp_path, capsys):
    rep = tmp_path / "r.txt"
    assert run("check", *HARMONIC, "--no-timestamp", "--report", str(rep)) == 0
    doc = parse_report(rep.read_text())
    assert doc["run"] == {"command": "check"}
    # check samples no loop: no symmetry and no node count.
    assert doc["problem"] == {"potential": "power_law(a=0.5,mu1=2,mu2=0)", "n": "2",
                              "energy": "1", "mu1": "2", "mu2": "0"}
    assert list(doc["hypotheses"]) == ["B1", "B2", "B3", "B4", "B5"]
    assert all(v.startswith("pass residual=") for v in doc["hypotheses"].values())


# Each source's [hypotheses] lines, B4 from the exact Hessian blocks.
CHECK_REPORTS = [
    ("0.5*|q|^2 + 0.1*q1^4", 0, [
        "B1 = pass residual=2.8421709430404007e-14",
        "B2 = pass residual=1.2406121427943617e-06",
        "B3 = pass residual=0.015593031225680898",
        "B4 = pass residual=0.10208366740467657",
        "B5 = pass residual=0.99989584720536684",
    ]),
    ("exp(0.5*|q|^2) - 1", 0, [
        "B1 = pass residual=0",
        "B2 = pass residual=0.00017007061219758562",
        "B3 = pass residual=0.03326689886412737",
        "B4 = pass residual=0.10323788866350707",
        "B5 = pass residual=0.99989584459313408",
    ]),
    ("1/(1 + |q|^2) + 0.5*|q|^2", 1, [
        "B1 = pass residual=0",
        "B2 = fail residual=-1.998718587839341",
        "B3 = pass residual=0.018657972138474754",
        "B4 = pass residual=0.08625768423597889",
        "B5 = pass residual=0.022739965463384117",
    ]),
    ("power_law(a=0.5,mu1=3)", 0, [
        "B1 = pass residual=0",
        "B2 = pass residual=-4.5474735088646412e-13",
        "B3 = pass residual=0.0224779565149682",
        "B4 = pass residual=0.031256716428294425",
        "B5 = pass residual=0.999998272876781",
    ]),
    ("q1^3 + |q|^2", 1, [
        "B1 = fail residual=1959.2928822692747",
        "B2 = fail residual=-938.81833488716711",
        "B3 = fail residual=-900.97278416609663",
        "B4 = pass residual=0.16453048018199046",
        "B5 = pass residual=0.99979192101808378",
    ]),
]


@pytest.mark.parametrize("source,code,lines", CHECK_REPORTS)
def test_check_report_pins_the_hypothesis_lines(tmp_path, capsys, source, code, lines):
    rep = tmp_path / "r.txt"
    assert run("check", "--potential", source, "--n", "2", "--energy", "1",
               "--no-timestamp", "--report", str(rep)) == code
    text = rep.read_text().split("[hypotheses]\n")[1]
    assert text.splitlines() == lines


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
    # The start's ray landing ends off the set (see test_functional's
    # test_ray_landing_that_ends_off_the_set_raises).
    (["--potential", "power_law(a=0.5,mu1=700)", "--n", "2", "--energy", "1", "--mu1", "2",
      "--init", "random_bandlimited", "--seed", "3"], ("E_DOMAIN",)),
], ids=["no_bracket", "domain_error", "collapse", "non_finite_record"])
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


PROBLEM_DESTS = ["potential", "n", "energy", "mu1", "mu2", "config"]
RUN_DESTS = ["seed", "report", "no_timestamp"]


def test_subcommand_flags_are_the_ones_read():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {name: [a.dest for a in sub._actions if a.dest != "help"]
             for name, sub in subparsers.choices.items()}
    assert dests == {
        "check": PROBLEM_DESTS + RUN_DESTS + ["samples", "r_min", "r_max", "radii",
                                              "tolerance"],
        "solve": PROBLEM_DESTS + RUN_DESTS + [
            "symmetry", "route", "nodes", "max_iterations", "gradient_tolerance",
            "path_points", "init", "mp_radius", "orbit", "ode_tol", "energy_tol"],
        "verify": ["orbit_file", "potential", "n", "energy", "config",
                   "ode_tol", "energy_tol", "closure_tol"],
    }


def test_main_reuses_its_parser_and_runs_the_bound_command(monkeypatch):
    built = count_calls(monkeypatch, cli, "build_parser")
    ran = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: ran.append(args.orbit_file) or 0)
    assert main(["verify", "a.csv", *HARMONIC]) == 0
    assert main(["verify", "b.csv", *HARMONIC]) == 0
    assert built == [] and ran == ["a.csv", "b.csv"]


@pytest.mark.parametrize("argv", [
    ["verify", "o.csv", *HARMONIC, "--report", "r.txt"],
    ["verify", "o.csv", *HARMONIC, "--seed", "1"],
    ["verify", "o.csv", *HARMONIC, "--no-timestamp"],
    ["verify", "o.csv", *HARMONIC, "--mu1", "2"],
    ["verify", "o.csv", *HARMONIC, "--mu2", "0"],
    ["solve", *HARMONIC, "--armijo", "0.1"],
    ["solve", *HARMONIC, "--step-shrink", "0.3"],
], ids=["verify_report", "verify_seed", "verify_no_timestamp", "verify_mu1", "verify_mu2",
        "armijo", "step_shrink"])
def test_removed_flags_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert not (tmp_path / "r.txt").exists()


def test_removed_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"potential": "power_law(a=0.5,mu1=2,mu2=0)", "n": 2, "energy": 1,'
                   ' "armijo": 0.1}')
    assert run("solve", "--config", str(cfg), "--nodes", "64") == 2
    assert "armijo" in capsys.readouterr().err


@pytest.mark.parametrize("argv, setting", [
    (["check", *HARMONIC, "--tolerance", "nan"], "tolerance"),
    (["solve", *HARMONIC, "--gradient-tolerance", "nan"], "gradient_tolerance"),
    (["solve", "--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "2",
      "--energy", "inf"], "h must be finite"),
    (["check", "--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "2",
      "--energy", "1", "--mu1", "nan"], "mu1 must be finite"),
    (["solve", "--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "0",
      "--energy", "1"], "dimension n"),
], ids=["check_tolerance_nan", "gradient_tolerance_nan", "energy_inf", "mu1_nan",
        "power_law_n0"])
def test_invalid_settings_exit_2_naming_them(tmp_path, capsys, argv, setting):
    rep = tmp_path / "r.txt"
    assert run(*argv, "--nodes" if argv[0] == "solve" else "--samples", "64",
               "--report", str(rep)) == 2
    assert setting in capsys.readouterr().err
    assert not rep.exists()


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if a solve starts."""
    def solve(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli, "_solve_route", solve)


@pytest.mark.parametrize("flag, value", [("--ode-tol", "nan"), ("--energy-tol", "0"),
                                         ("--mp-radius", "nan"), ("--mp-radius", "-1")])
def test_solve_nonpositive_tolerance_exits_2_before_solving(tmp_path, capsys, no_solve,
                                                             flag, value):
    rep = tmp_path / "r.txt"
    assert run("solve", *HARMONIC, "--route", "mountain_pass", "--nodes", "64",
               flag, value, "--report", str(rep)) == 2
    assert f"{flag[2:].replace('-', '_')} must be positive" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("setting, value", [("ode_tol", "nan"), ("energy_tol", "-1"),
                                            ("closure_tol", "nan"), ("closure_tol", "0")])
def test_verify_nonpositive_tolerance_exits_2(tmp_path, capsys, setting, value):
    orb = tmp_path / "orbit.csv"
    assert run("solve", *HARMONIC, "--nodes", "64", "--no-timestamp", "--orbit", str(orb)) == 0
    capsys.readouterr()
    assert run("verify", str(orb), *HARMONIC, f"--{setting.replace('_', '-')}", value) == 2
    assert f"{setting} must be positive" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{setting}": {value}}}'.replace("nan", "NaN"))
    assert run("verify", str(orb), *HARMONIC, "--config", str(cfg)) == 2
    assert f"{setting} must be positive" in capsys.readouterr().err


@pytest.fixture(scope="module")
def harmonic_table(tmp_path_factory):
    """The rows of a harmonic N=64 orbit table written by ``solve``."""
    orb = tmp_path_factory.mktemp("harmonic") / "orbit.csv"
    assert run("solve", *HARMONIC, "--nodes", "64", "--no-timestamp", "--orbit", str(orb)) == 0
    return orb.read_text().splitlines()


def with_times(rows, times):
    return [rows[0]] + [",".join([format(t, ".17g"), row.split(",", 1)[1]])
                        for t, row in zip(times, rows[1:])]


def test_verify_accepts_twelve_digit_times(tmp_path, capsys, harmonic_table):
    rows = harmonic_table
    times = [float(format(float(row.split(",")[0]), ".12g")) for row in rows[1:]]
    orb = tmp_path / "orbit.csv"
    orb.write_text("\n".join(with_times(rows, times)) + "\n")
    positions, period = read_orbit_table(orb)
    assert positions.shape == (64, 2) and period == times[-1]
    assert run("verify", str(orb), *HARMONIC) == 0


def edited_tables(rows):
    """(rows, line) of three edits that leave every residual as it was."""
    N = len(rows) - 2
    T = float(rows[-1].split(",")[0])
    times = [float(row.split(",")[0]) for row in rows[1:]]
    moved = times[:5] + [times[5] + 1e-6 * T] + times[6:]
    squared = [T * (k / N) ** 2 for k in range(N)] + [T]
    t, q1, q2 = rows[-1].split(",")
    closing = rows[:-1] + [",".join([t, q1, format(float(q2) + 1e-3, ".17g")])]
    return {"moved_time": (with_times(rows, moved), 7),
            "squared_times": (with_times(rows, squared), 3),
            "closing_row": (closing, N + 2)}


@pytest.mark.parametrize("case, message", [
    ("moved_time", "times must be t_k = k T / N"),
    ("squared_times", "times must be t_k = k T / N"),
    ("closing_row", "closing row must repeat the first sample"),
])
def test_verify_rejects_an_edited_table(tmp_path, capsys, harmonic_table, case, message):
    rows, line = edited_tables(harmonic_table)[case]
    orb = tmp_path / "orbit.csv"
    orb.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert run("verify", str(orb), *HARMONIC) == 2
    assert capsys.readouterr().err == f"error: E_ORBIT_FILE: line {line}: {message}\n"


@pytest.mark.parametrize("potential, message", [
    ("power_law(a=0.5,mu1=2",
     "power_law potential must look like power_law(a=...,mu1=...,mu2=...)"),
    ("power_law(a=0.5,mu1=2,b=1)", "unknown power_law parameters: ['b']"),
    ("power_law(a=x,mu1=2)", "bad power_law parameter: could not convert string to float: 'x'"),
    ("q1 q2", "E_PARSE: unexpected 'q2' at position 4 (expected end of input, operator)"),
    ("|x|", "E_PARSE: unexpected 'x' at position 2 (expected 'q')"),
    ("power_law(a=0.5,mu1=2,a=3)", "repeated power_law parameter 'a'"),
    ("power_law(0.5,a=1,mu1=2)", "repeated power_law parameter 'a'"),
], ids=["unclosed", "unknown_parameter", "bad_number", "two_terms", "norm_of_x",
        "repeated_name", "named_after_position"])
def test_bad_potential_text_exits_2(capsys, potential, message):
    assert run("check", "--potential", potential, "--n", "2", "--energy", "1") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("config, argv, message", [
    ("[1, 2]", ["solve"], "config file must hold a JSON object"),
    ('{"route": "sideways"}', ["solve", *HARMONIC], "unknown route 'sideways'"),
    ("{}", ["check", "--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--energy", "1"],
     "dimension --n and energy --energy are required"),
], ids=["json_array", "unknown_route", "check_without_n"])
def test_bad_config_or_flags_exit_2(tmp_path, capsys, config, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert run(*argv, "--config", str(cfg)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_infinite_power_law_parameter_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                            harmonic_table):
    orb = tmp_path / "orbit.csv"
    orb.write_text("\n".join(harmonic_table) + "\n")
    work = {name: count_calls(monkeypatch, cli, name)
            for name in ("check_hypotheses", "_solve_route", "read_orbit_table")}
    rep = tmp_path / "r.txt"
    argv = ["--potential", "power_law(a=inf,mu1=2)", "--n", "2", "--energy", "1"]
    for command in (["check", *argv, "--report", str(rep)],
                    ["solve", *argv, "--nodes", "64", "--report", str(rep)],
                    ["verify", str(orb), *argv]):
        assert run(*command) == 2
        assert capsys.readouterr().err == "error: power law needs finite a > 0, got inf\n"
    assert work == {name: [] for name in work} and not rep.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_check_infinite_sampling_radius_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                                source):
    checks = count_calls(monkeypatch, cli, "check_hypotheses")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"r_max": "inf"}')
    extra = ["--r-max", "inf"] if source == "flag" else ["--config", str(cfg)]
    assert run("check", *HARMONIC, *extra) == 2
    assert capsys.readouterr().err == "error: r_max must be finite, got inf\n"
    assert checks == []


def test_check_b5_fails_when_v_exceeds_h_on_every_sphere(capsys):
    assert run("check", "--potential", "5 + 0*q1", "--n", "2", "--energy", "1") == 1
    out, err = capsys.readouterr()
    assert "B5: fail residual=-4 " in out and err == ""


def test_check_b5_inside_the_margin_is_inconclusive_and_warned(capsys):
    # A tolerance this wide also fails B4, whose floor it raises.
    assert run("check", *HARMONIC, "--tolerance", "10") == 1
    out, err = capsys.readouterr()
    assert "B5: inconclusive " in out
    assert err == "warning: inconclusive checks: B5\n"


def test_check_names_the_first_offending_sample(capsys):
    argv = ["--potential", "exp(0.5*q1^4) + q2^2", "--n", "2", "--energy", "1"]
    assert run("check", *argv) == 1
    assert capsys.readouterr().err == ("error: E_DOMAIN: expression evaluated to a non-finite "
                                       "value at sample (-7.94708,5.36455)\n")


def test_check_report_names_the_domain_error_and_has_no_verdicts(tmp_path, capsys):
    rep = tmp_path / "r.txt"
    assert run("check", "--potential", "q1^2.5 + q2^2", "--n", "2", "--energy", "1",
               "--no-timestamp", "--report", str(rep)) == 1
    reason = "E_DOMAIN: negative base with non-integer exponent at sample (-7.94708,5.36455)"
    assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert rep.read_text() == (
        "# hamorbit report v1\n[run]\ncommand = check\n"
        f"message = {reason}\n"
        "[problem]\npotential = q1^2.5 + q2^2\nn = 2\nenergy = 1\nmu1 = 2\nmu2 = 0\n")


def test_check_on_a_huge_finite_potential_is_a_domain_error(tmp_path, capsys):
    # Every sampled V is finite, but B5's exactly rounded mean of h - V
    # overflows: an error line and a report that name the first loop where
    # it does, by its sphere radius and draw index, and no traceback.
    overflow = "E_DOMAIN: exact sum out of the float range (intermediate overflow in fsum)"
    for a, loop in (("1e308", "radius 2, draw 0"), ("2e307", "radius 2.6, draw 156")):
        rep = tmp_path / f"r{a}.txt"
        assert run("check", "--potential", f"power_law(a={a},mu1=2)", "--n", "2", "--energy",
                   "1", "--r-min", "2", "--r-max", "3", "--no-timestamp",
                   "--report", str(rep)) == 1
        reason = f"{overflow} at sample ({loop})"
        assert capsys.readouterr() == ("", f"error: {reason}\n")
        assert parse_report(rep.read_text())["run"]["message"] == reason


def test_solved_orbit_scales_with_the_energy(tmp_path):
    # V = |q|^3 / 2 at h = 1 and at h = 8 = 2^3: the orbit table scales by 2
    # in q and by 2^(-1/2) in time, and the level by 8^(5/3) = 32.  The
    # energy residual scales with h, and so does the tolerance given here.
    solved = []
    for h in (1, 8):
        rep, orb = tmp_path / f"r{h}.txt", tmp_path / f"o{h}.txt"
        assert run("solve", "--potential", "power_law(a=0.5,mu1=3)", "--n", "3",
                   "--energy", str(h), "--energy-tol", str(0.01 * h), "--symmetry", "e2",
                   "--nodes", "64", "--no-timestamp", "--report", str(rep),
                   "--orbit", str(orb)) == 0
        doc = parse_report(rep.read_text())
        solved.append((float(doc["run"]["f_star"]), *read_orbit_table(orb)))
    (f1, q1, t1), (f8, q8, t8) = solved
    assert abs(f8 / (32.0 * f1) - 1.0) <= 4 * np.finfo(float).eps
    assert t8 / t1 * math.sqrt(2.0) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert np.max(np.abs(q8 - 2.0 * q1)) <= 1e-12 * np.max(np.abs(2.0 * q1))


def test_mountain_pass_without_growth_reports_b3_fail(tmp_path, capsys):
    # V stays below 1/2, so no inflation of the circle reaches the level h = 1.
    rep = tmp_path / "r.txt"
    assert run("solve", "--route", "mountain_pass", "--potential", "0.5*(1 - exp(-|q|^2))",
               "--n", "2", "--energy", "1", "--nodes", "16", "--no-timestamp",
               "--report", str(rep)) == 1
    message = ("E_B3_FAIL: no scale up to 2^60 drives the mean energy gap nonpositive; "
               "the potential does not dominate the energy level at infinity")
    assert capsys.readouterr().err == f"failed: {message}\n"
    doc = parse_report(rep.read_text())
    assert doc["run"]["termination"] == "hypothesis_violation"
    assert doc["run"]["message"] == message
    assert doc["run"]["f_star"] == "nan"


CONFIG_PROBLEM = {"potential": "power_law(a=0.5,mu1=2,mu2=0)", "n": 2, "energy": 1, "nodes": 64}


@pytest.mark.parametrize("key, value", [
    ("ode_tol", None), ("nodes", None), ("no_timestamp", "false"), ("max_iterations", True),
    ("path_points", 9.7), ("seed", 1.5), ("nodes", 64.9), ("n", 2.7), ("report", 1),
    ("nodes", 64.0), ("max_iterations", 1e3), ("energy", [1]), ("symmetry", {"e1": 1}),
    ("init", "user"),
], ids=["ode_tol_null", "nodes_null", "no_timestamp_string", "max_iterations_true",
        "path_points_fraction", "seed_fraction", "nodes_fraction", "n_fraction",
        "report_number", "nodes_float", "max_iterations_exponent", "energy_list",
        "symmetry_object", "unknown_init"])
def test_config_value_is_read_as_its_flag_reads_it(tmp_path, capsys, monkeypatch, no_solve,
                                                    key, value):
    monkeypatch.chdir(tmp_path)
    config = {**CONFIG_PROBLEM, key: value}
    if key != "nodes":
        del config["nodes"]  # from the flag, unless the case is about nodes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = ["solve", "--config", str(cfg)] + ([] if key == "nodes" else ["--nodes", "64"])
    if key != "report":
        argv += ["--report", "r.txt"]
    assert run(*argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and key in out.err and out.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


SOLVE_SETTINGS = {
    "potential": "power_law(a=0.5,mu1=2,mu2=0)", "n": 2, "energy": 1.0, "mu1": 2.0, "mu2": 0.0,
    "seed": 4, "no_timestamp": True, "symmetry": "e2", "route": "constrained_min", "nodes": 64,
    "max_iterations": 300, "gradient_tolerance": 1e-07, "path_points": 12,
    "init": "random_bandlimited", "mp_radius": 2.5, "ode_tol": 0.02, "energy_tol": 0.03,
}
CHECK_SETTINGS = {
    "potential": "power_law(a=0.5,mu1=2,mu2=0)", "n": 2, "energy": 1.0, "mu1": 2.0, "mu2": 0.0,
    "seed": 5, "no_timestamp": True, "samples": 40, "r_min": 0.5, "r_max": 4.0, "radii": 16,
    "tolerance": 1e-08,
}


def as_flags(settings):
    argv = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


@pytest.mark.parametrize("command, settings, files", [
    ("solve", SOLVE_SETTINGS, ("report", "orbit")),
    ("check", CHECK_SETTINGS, ("report",)),
])
def test_config_file_and_flags_give_identical_files(tmp_path, command, settings, files):
    outputs = {}
    for how in ("flags", "config"):
        paths = {name: str(tmp_path / f"{how}.{name}") for name in files}
        if how == "flags":
            argv = as_flags({**settings, **paths})
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**settings, **paths}))
            argv = ["--config", str(cfg)]
        assert run(command, *argv) in (0, 1)
        outputs[how] = [(tmp_path / f"{how}.{name}").read_bytes() for name in files]
    assert outputs["flags"] == outputs["config"]


@pytest.mark.parametrize("command, extra", [
    ("check", []), ("solve", ["--init", "random_bandlimited", "--nodes", "64"]),
])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, command, extra, how):
    if how == "flag":
        argv = ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1}')
        argv = ["--config", str(cfg)]
    rep = tmp_path / "r.txt"
    assert run(command, *HARMONIC, *extra, *argv, "--report", str(rep)) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not rep.exists()


@pytest.mark.parametrize("nodes", ["-2", "0", "7"])
def test_too_few_nodes_exit_2_before_solving(tmp_path, capsys, no_solve, nodes):
    rep = tmp_path / "r.txt"
    assert run("solve", *HARMONIC, "--nodes", nodes, "--report", str(rep)) == 2
    assert capsys.readouterr().err == f"error: nodes must be at least 8, got {nodes}\n"
    assert not rep.exists()


def test_verify_needs_no_growth_parameters(tmp_path, capsys):
    # The circle of radius 2 solves q'' = -grad V for V = |q|^2/2 - 5 at
    # energy -1, below every mu2/mu1 >= 0 that a variational problem admits.
    orb = tmp_path / "circle.csv"
    t = 2.0 * np.pi * np.arange(64) / 64
    write_orbit_table(orb, 2.0 * np.stack([np.cos(t), np.sin(t)], axis=1), 2.0 * np.pi)
    argv = ["--potential", "0.5*|q|^2 - 5", "--n", "2", "--energy", "-1"]
    assert run("verify", str(orb), *argv) == 0
    assert capsys.readouterr().out.startswith(
        "period=6.28318531 ode_sup=0.00160586 energy_sup=0.00641727 ")
    assert run("verify", str(orb), *argv[:-1], "nan") == 2
    assert capsys.readouterr().err == "error: h must be finite, got nan\n"


def test_failure_text_is_code_and_message():
    assert PathCollapseError("no barrier").reason() == "E_COLLAPSE: no barrier"
    assert OrbitFileError("bad row", line=3).reason() == "E_ORBIT_FILE: line 3: bad row"


def test_check_report_ignores_solve_settings_in_the_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nodes": 5, "symmetry": "e2"}')
    plain, configured = tmp_path / "plain.txt", tmp_path / "configured.txt"
    assert run("check", *HARMONIC, "--no-timestamp", "--report", str(plain)) == 0
    assert run("check", *HARMONIC, "--no-timestamp", "--report", str(configured),
               "--config", str(cfg)) == 0
    assert configured.read_bytes() == plain.read_bytes()
    assert "symmetry" not in plain.read_text() and "nodes" not in plain.read_text()


# A valid value, not its default, for every setting of any subcommand.
OTHER_VALUES = {
    "potential": "power_law(a=0.25,mu1=4)", "n": 3, "energy": 2.0, "mu1": 3.0, "mu2": 0.5,
    "seed": 9, "report": "other.txt", "no_timestamp": True, "samples": 40, "r_min": 0.5,
    "r_max": 4.0, "radii": 16, "tolerance": 1e-3, "symmetry": "e2", "route": "mountain_pass",
    "nodes": 32, "max_iterations": 7, "gradient_tolerance": 1e-3, "path_points": 12,
    "init": "random_bandlimited", "mp_radius": 2.5, "orbit": "other.csv", "ode_tol": 1e-9,
    "energy_tol": 1e-9, "closure_tol": 1e-300,
}
SCOPE_RUNS = {
    "check": ["check", *HARMONIC, "--no-timestamp", "--report", "r.txt"],
    "solve": ["solve", *HARMONIC, "--nodes", "64", "--no-timestamp", "--report", "r.txt",
              "--orbit", "o.csv"],
    "verify": ["verify", "o.csv", *HARMONIC],
}


@pytest.mark.parametrize("command", ["check", "solve", "verify"])
def test_settings_of_other_subcommands_are_ignored(tmp_path, capsys, monkeypatch, command):
    assert set(OTHER_VALUES) == set(cli._SETTINGS)
    own = {a.dest for a in cli._SUBCOMMANDS[command]._actions}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in OTHER_VALUES.items() if k not in own}))
    monkeypatch.chdir(tmp_path)
    outputs = []
    for config in ([], ["--config", str(cfg)]):
        assert run(*SCOPE_RUNS["solve"]) == 0  # the table verify reads
        capsys.readouterr()
        code = run(*SCOPE_RUNS[command], *config)
        files = [p.read_bytes() for p in (tmp_path / "r.txt", tmp_path / "o.csv")]
        outputs.append((code, capsys.readouterr(), files))
    assert outputs[0] == outputs[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "o.csv", "r.txt"]
