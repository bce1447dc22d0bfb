import numpy as np
import pytest

from hamorbit import (
    LoopPath,
    PowerLawPotential,
    ProblemSpec,
    action,
    parse_potential,
    random_loop,
)


@pytest.fixture
def harmonic_spec():
    return ProblemSpec(PowerLawPotential(0.5, 2, 0, n=2), 2, 1.0, 2.0, 0.0, "e1")


@pytest.fixture
def quartic_spec():
    return ProblemSpec(PowerLawPotential(0.25, 4, 0, n=2), 2, 0.75, 4.0, 0.0, "e1")


@pytest.fixture
def expression_spec():
    return ProblemSpec(parse_potential("0.5*|q|^2 + 0.1*q1^4", 2), 2, 1.0, 2.0, 0.0, "e1")


@pytest.fixture
def cubic_spec():
    return ProblemSpec(PowerLawPotential(0.5, 3, 0, n=3), 3, 1.0, 3.0, 0.0, "e2")


def fd_action_gradient(u, spec, step=1e-6):
    """Central finite differences of the loop functional, node by node."""
    return fd_gradient(action, u, spec, step)


def fd_gradient(fn, u, spec, step=1e-6):
    """Central finite differences of ``fn(loop, spec)``, node by node."""
    nodes = np.array(u.nodes)
    out = np.zeros_like(nodes)
    for k in range(nodes.shape[0]):
        for i in range(nodes.shape[1]):
            h = step * (1.0 + abs(nodes[k, i]))
            plus = nodes.copy()
            plus[k, i] += h
            minus = nodes.copy()
            minus[k, i] -= h
            out[k, i] = (fn(LoopPath(plus), spec) - fn(LoopPath(minus), spec)) / (2 * h)
    return out


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call; returns the call list."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def random_admissible_spec(rng, dim=None):
    """Random power-law or expression spec with h safely above mu2/mu1."""
    n = int(dim if dim is not None else rng.integers(1, 4))
    if rng.random() < 0.5:
        a = float(rng.uniform(0.2, 2.0))
        mu1 = float(rng.choice([2.0, 3.0, 4.0]))
        mu2 = float(rng.uniform(0.0, 1.0))
        pot = PowerLawPotential(a, mu1, mu2, n=n)
    else:
        c1 = float(rng.uniform(0.2, 1.5))
        c2 = float(rng.uniform(0.1, 0.8))
        pot = parse_potential(f"{c1}*|q|^2 + {c2}*q1^4", n)
        mu1, mu2 = 2.0, 0.0
    h = mu2 / mu1 + float(rng.uniform(0.5, 2.0))
    return ProblemSpec(pot, n, h, mu1, mu2, symmetry="none")


def random_loop_with_mean(n_nodes, dim, rng, mean_scale):
    """``random_loop`` shifted by mean_scale times a standard normal vector,
    drawn from ``rng`` after the modes."""
    u = random_loop(n_nodes, dim, rng)
    return LoopPath(u.nodes + mean_scale * rng.standard_normal(dim))


def mode_one_loop(n_nodes, amplitudes, phase=0.0):
    """Pure first-Fourier-mode loop with the given per-axis amplitudes."""
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes + phase
    cols = []
    for i, amp in enumerate(amplitudes):
        cols.append(amp * (np.cos(t) if i % 2 == 0 else np.sin(t)))
    return LoopPath(np.stack(cols, axis=1))
