"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from hamorbit import (
    PowerLawPotential,
    ProblemSpec,
    SamplerConfig,
    SolveOptions,
    action_gradient,
    build_endpoint,
    check_hypotheses,
    circle_loop,
    minimize_on_nehari,
    mountain_pass,
    parse_potential,
    scaling_root,
    synthesize,
    zero_loop,
)
from hamorbit.cli import main
from hamorbit.orbit import orbit_residuals
from hamorbit.reportio import read_orbit_table, write_orbit_table
from conftest import fd_action_gradient, random_admissible_spec, random_loop_with_mean

PI2 = math.pi**2
TWO_PI = 2 * math.pi


def _line(num, label, ok, detail):
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def harmonic():
    return ProblemSpec(PowerLawPotential(0.5, 2, 0, n=2), 2, 1.0, 2.0, 0.0, "e1")


@pytest.fixture(scope="module")
def quartic():
    return ProblemSpec(PowerLawPotential(0.25, 4, 0, n=2), 2, 0.75, 4.0, 0.0, "e1")


@pytest.fixture(scope="module")
def harmonic_min(harmonic):
    start = time.monotonic()
    rep = minimize_on_nehari(harmonic, SolveOptions(), n_nodes=256)
    elapsed = time.monotonic() - start
    orb = synthesize(rep.loop, harmonic)
    return rep, orb, elapsed


@pytest.fixture(scope="module")
def quartic_min(quartic):
    start = time.monotonic()
    rep = minimize_on_nehari(quartic, SolveOptions(), n_nodes=256)
    elapsed = time.monotonic() - start
    orb = synthesize(rep.loop, quartic)
    return rep, orb, elapsed


@pytest.fixture(scope="module")
def harmonic_pass(harmonic):
    start = time.monotonic()
    z0 = zero_loop(256, 2)
    z1 = build_endpoint(harmonic, circle_loop(256, 2))
    rep = mountain_pass(harmonic, z0, z1, SolveOptions())
    elapsed = time.monotonic() - start
    orb = synthesize(rep.loop, harmonic)
    return rep, orb, elapsed


@pytest.fixture(scope="module")
def harmonic_min_random(harmonic):
    rep = minimize_on_nehari(
        harmonic, SolveOptions(initial_loop="random_bandlimited", seed=7), n_nodes=256
    )
    return rep


def test_criterion_1_harmonic_end_to_end(harmonic_min):
    rep, orb, elapsed = harmonic_min
    ok = (
        rep.converged
        and abs(rep.f_value - PI2) <= 1e-2
        and abs(orb.period - TWO_PI) <= 1e-2
        and orb.ode_sup <= 1e-2
        and orb.energy_sup <= 1e-2
        and orb.closure <= 1e-3 * orb.period
        and elapsed <= 10.0
    )
    _line(1, "harmonic constrained minimization",
          ok,
          f"f*={rep.f_value:.6f} T={orb.period:.6f} ode={orb.ode_sup:.2e} "
          f"energy={orb.energy_sup:.2e} closure={orb.closure:.2e} time={elapsed:.2f}s")


def test_criterion_2_quartic_end_to_end(quartic_min):
    rep, orb, elapsed = quartic_min
    ok = (
        rep.converged
        and abs(orb.period - TWO_PI) <= 5e-2
        and orb.ode_sup <= 1e-2
        and orb.energy_sup <= 1e-2
        and orb.closure <= 1e-3 * orb.period
        and elapsed <= 10.0
    )
    _line(2, "quartic constrained minimization",
          ok,
          f"f*={rep.f_value:.6f} T={orb.period:.6f} ode={orb.ode_sup:.2e} "
          f"energy={orb.energy_sup:.2e} closure={orb.closure:.2e} time={elapsed:.2f}s")


def test_criterion_3_mountain_pass(harmonic_min, harmonic_pass):
    min_rep, _, _ = harmonic_min
    rep, orb, elapsed = harmonic_pass
    ok = (
        rep.converged
        and rep.trace[-1].weighted_gradient <= 1e-4
        and abs(rep.f_value - min_rep.f_value) <= 1e-1
        and orb.ode_sup <= 1e-2
        and orb.energy_sup <= 1e-2
        and orb.closure <= 1e-3 * orb.period
        and elapsed <= 60.0
    )
    _line(3, "mountain pass on the harmonic case",
          ok,
          f"gamma={rep.f_value:.6f} wgrad={rep.trace[-1].weighted_gradient:.2e} "
          f"time={elapsed:.2f}s")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        spec = random_admissible_spec(rng)
        u = random_loop_with_mean(16, spec.n, rng, 0.3)
        grad = action_gradient(u, spec)
        fd = fd_action_gradient(u, spec)
        rel = np.abs(grad - fd).max() / (np.abs(grad).max() + 1e-12)
        worst = max(worst, rel)
    _line(4, "gradient vs finite differences (50 pairs)", worst <= 1e-6,
          f"worst relative deviation {worst:.2e}")


def test_criterion_5_scaling_roots(harmonic, quartic):
    u = circle_loop(256, 2)
    h4 = ProblemSpec(harmonic.potential, 2, 4.0, 2.0, 0.0, "e1")
    a1 = scaling_root(u, h4)
    h12 = ProblemSpec(quartic.potential, 2, 12.0, 4.0, 0.0, "e1")
    a2 = scaling_root(u, h12)
    ok = abs(a1 - 2.0) <= 1e-10 and abs(a2 - 2.0) <= 1e-10
    _line(5, "scaling-root closed forms", ok,
          f"harmonic h=4: {a1:.12f}, quartic h=12: {a2:.12f}")


def test_criterion_6_residual_convergence_order(harmonic):
    p = harmonic.potential
    sup = {}
    for N in (64, 128, 256):
        t = TWO_PI * np.arange(N) / N
        q = np.stack([np.cos(t), np.sin(t)], axis=1)
        sup[N], _ = orbit_residuals(q, TWO_PI, p, 1.0)
    r1 = sup[64] / sup[128]
    r2 = sup[128] / sup[256]
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    _line(6, "verifier residual convergence order", ok,
          f"ratios {r1:.3f}, {r2:.3f}")


def test_criterion_7_hypothesis_checkers(harmonic):
    cfg = SamplerConfig(seed=0)
    reports = {r.hypothesis: r for r in
               check_hypotheses(harmonic.potential, 1.0, 2.0, 0.0, cfg)}
    step = (cfg.r_max - cfg.r_min) / (cfg.radii - 1)
    b2_ok = reports["B2"].verdict == "pass" and abs(reports["B2"].residual) <= 1e-12
    b3_ok = (reports["B3"].verdict == "pass"
             and abs(reports["B3"].radius - math.sqrt(2)) <= step)
    odd = {r.hypothesis: r for r in
           check_hypotheses(parse_potential("q1", 2), 1.0, 2.0, 0.0, cfg)}
    b1_ok = odd["B1"].verdict == "fail"
    try:
        ProblemSpec(PowerLawPotential(1.0, 2.0, 2.0, n=2), 2, 1.0, 2.0, 2.0)
        gate_ok = False
    except ValueError:
        gate_ok = True
    ok = b2_ok and b3_ok and b1_ok and gate_ok
    _line(7, "hypothesis checkers", ok,
          f"B2 residual={reports['B2'].residual:.2e} "
          f"B3 radius={reports['B3'].radius:.4f} (step {step:.4f}) "
          f"B1-fail={b1_ok} admissibility-gate={gate_ok}")


def test_criterion_8_cps_diagnostics(harmonic_min, quartic_min, harmonic_pass,
                                     harmonic_min_random):
    runs = {
        "harmonic_min": harmonic_min[0],
        "quartic_min": quartic_min[0],
        "harmonic_pass": harmonic_pass[0],
        "harmonic_min_random": harmonic_min_random,
    }
    details = []
    ok = True
    for name, rep in runs.items():
        final = rep.trace[-1].weighted_gradient
        first = rep.trace[0].weighted_gradient
        good = rep.converged and final <= 1e-6 and final <= first
        ok = ok and good
        details.append(f"{name}: final={final:.2e} first={first:.2e}")
    _line(8, "Cerami-weighted gradient diagnostics", ok, "; ".join(details))


def test_criterion_9_determinism(tmp_path):
    args = ["solve", "--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "2",
            "--energy", "1", "--symmetry", "e1", "--nodes", "128", "--seed", "7",
            "--init", "random_bandlimited", "--no-timestamp"]
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    code1 = main(args + ["--report", str(r1), "--orbit", str(o1)])
    code2 = main(args + ["--report", str(r2), "--orbit", str(o2)])
    ok = (code1 == 0 and code2 == 0
          and r1.read_bytes() == r2.read_bytes()
          and o1.read_bytes() == o2.read_bytes())
    _line(9, "seeded determinism, byte-identical artifacts", ok,
          f"report {len(r1.read_bytes())} bytes, orbit {len(o1.read_bytes())} bytes")


def test_criterion_10_impostor_rejection(tmp_path, capsys):
    orb = tmp_path / "orbit.csv"
    base_args = ["--potential", "power_law(a=0.5,mu1=2,mu2=0)", "--n", "2",
                 "--energy", "1"]
    assert main(["solve", *base_args, "--symmetry", "e1", "--nodes", "256",
                 "--no-timestamp", "--report", str(tmp_path / "r.txt"),
                 "--orbit", str(orb)]) == 0
    positions, period = read_orbit_table(orb)
    write_orbit_table(orb, 1.1 * positions, period)
    capsys.readouterr()
    code = main(["verify", str(orb), *base_args])
    out = capsys.readouterr().out
    energy_sup = float(out.split("energy_sup=")[1].split()[0])
    ok = code != 0 and energy_sup >= 0.05
    _line(10, "verifier rejects a 1.1-scaled orbit", ok,
          f"exit={code} energy_sup={energy_sup:.4f}")
