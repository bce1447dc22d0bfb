import math

import numpy as np
import pytest

from hamorbit import (
    BlowupError,
    LoopPath,
    NonpositiveActionError,
    circle_loop,
    closure_gap,
    dirichlet_energy,
    integrate,
    orbit_period,
    parse_potential,
    scaling_root,
    synthesize,
)
from hamorbit.orbit import orbit_residuals
from conftest import mode_one_loop


def exact_harmonic_samples(N):
    t = 2 * np.pi * np.arange(N) / N
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def test_period_harmonic_circle(harmonic_spec):
    T = orbit_period(circle_loop(256, 2), harmonic_spec)
    assert abs(T - 2 * math.pi) / (2 * math.pi) < 1e-3


def test_period_quartic_circle(quartic_spec):
    T = orbit_period(circle_loop(256, 2), quartic_spec)
    assert abs(T - 2 * math.pi) / (2 * math.pi) < 1e-3


def test_period_requires_positive_factors(harmonic_spec):
    with pytest.raises(NonpositiveActionError):
        orbit_period(LoopPath(np.tile([0.3, 0.1], (16, 1))), harmonic_spec)
    # mean energy gap negative: big loop at small h
    big = LoopPath(3.0 * circle_loop(64, 2).nodes)
    with pytest.raises(NonpositiveActionError):
        orbit_period(big, harmonic_spec)


def test_period_self_consistency(harmonic_spec):
    u = LoopPath(0.7 * circle_loop(64, 2).nodes + 0.1)
    T = orbit_period(u, harmonic_spec)
    A = dirichlet_energy(u)
    B = integrate(harmonic_spec.h - harmonic_spec.potential.value(u.nodes))
    assert A / T**2 == pytest.approx(B, rel=1e-12)


def test_synthesize_harmonic(harmonic_spec):
    orb = synthesize(circle_loop(256, 2), harmonic_spec)
    assert orb.ode_sup <= 1e-3
    assert orb.energy_sup <= 1e-3
    assert orb.closure <= 1e-3 * orb.period
    assert orb.nonconstant
    assert orb.times[0] == 0.0
    assert len(orb.times) == 256


def test_synthesize_quartic(quartic_spec):
    orb = synthesize(circle_loop(256, 2), quartic_spec)
    assert orb.ode_sup <= 1e-3
    assert orb.energy_sup <= 1e-3
    assert abs(orb.period - 2 * math.pi) / (2 * math.pi) < 1e-3


def test_verifier_rejects_quartic_impostor(quartic_spec):
    # 2:1 ellipse scaled onto the constraint is not a quartic orbit
    ellipse = mode_one_loop(256, (2.0, 1.0))
    on_set = LoopPath(scaling_root(ellipse, quartic_spec) * ellipse.nodes)
    orb = synthesize(on_set, quartic_spec)
    assert orb.ode_sup >= 0.1


def test_harmonic_ellipse_is_a_true_orbit(harmonic_spec):
    # For the isotropic oscillator every correctly scaled first-mode ellipse
    # solves the dynamics at the right energy, so the verifier accepts it.
    ellipse = mode_one_loop(256, (2.0, 1.0))
    on_set = LoopPath(scaling_root(ellipse, harmonic_spec) * ellipse.nodes)
    orb = synthesize(on_set, harmonic_spec)
    assert orb.ode_sup <= 1e-9
    assert orb.energy_sup <= 1e-3


def test_closure_examples(harmonic_spec):
    p = harmonic_spec.potential
    assert closure_gap((1.0, 0.0), (0.0, 1.0), 2 * math.pi, p) <= 1e-6
    half = closure_gap((1.0, 0.0), (0.0, 1.0), math.pi, p)
    assert half == pytest.approx(4.0, abs=1e-3)
    assert closure_gap((0.0, 0.0), (0.0, 0.0), 2 * math.pi, p) == 0.0


def test_closure_blowup():
    runaway = parse_potential("0 - |q|^2", 2)
    with pytest.raises(BlowupError):
        closure_gap((1.0, 0.0), (0.0, 0.0), 16.0, runaway, steps=512)


def test_residual_convergence_order(harmonic_spec):
    p = harmonic_spec.potential
    odes, ens = {}, {}
    for N in (64, 128, 256):
        odes[N], ens[N] = orbit_residuals(exact_harmonic_samples(N), 2 * math.pi, p, 1.0)
    assert 3.5 <= odes[64] / odes[128] <= 4.5
    assert 3.5 <= odes[128] / odes[256] <= 4.5
    assert 3.5 <= ens[64] / ens[128] <= 4.5
    assert 3.5 <= ens[128] / ens[256] <= 4.5


def test_cross_oracle_agreement_on_accepted_orbits(harmonic_spec, quartic_spec):
    # orbits passing the differencing gate also pass the return-map test
    gate = 1e-2
    for spec in (harmonic_spec, quartic_spec):
        orb = synthesize(circle_loop(256, 2), spec)
        assert orb.ode_sup <= gate
        assert orb.closure <= 10.0 * gate * orb.period
