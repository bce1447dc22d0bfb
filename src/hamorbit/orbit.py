"""Turn a critical loop into a physical orbit and verify it independently.

The period comes from the rescaling identity 1/T^2 = B/A with A the
Dirichlet energy and B the mean energy gap; q(t) = u(t/T) then solves the
equations of motion at the prescribed energy.  Verification deliberately
uses central differences (second order, distinct from the solver's forward
differencing) plus a fixed-step Runge-Kutta return-map test, so a solution
is only accepted when two unrelated discretizations agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, NonpositiveActionError
from .functional import ProblemSpec
from .loopspace import NONCONSTANT_SPEED, LoopPath, dirichlet_energy, integrate, speed
from .potentials import PotentialModel

BLOWUP_LIMIT = 1e8
RK_STEPS_PER_NODE = 8


@dataclass(frozen=True)
class OrbitResult:
    """A sampled periodic orbit with its verification residuals."""

    period: float
    times: np.ndarray  # (N,), t_k = k T / N
    positions: np.ndarray  # (N, n)
    ode_sup: float
    energy_sup: float
    closure: float
    nonconstant: bool


def orbit_period(u: LoopPath, spec: ProblemSpec) -> float:
    """Physical period T = sqrt(A/B); requires both factors positive."""
    A = dirichlet_energy(u)
    B = integrate(spec.h - spec.potential.value(u.nodes))
    if A <= 0.0 or B <= 0.0:
        raise NonpositiveActionError(
            f"period rescaling needs positive factors, got A={A:.6g}, B={B:.6g}"
        )
    return math.sqrt(A / B)


def orbit_residuals(positions: np.ndarray, period: float, potential: PotentialModel,
                    h: float) -> tuple[float, float]:
    """Sup-norm residuals of the sampled orbit against the dynamics.

    ode_sup: |D2 q + grad V(q)| with the periodic central second difference
    at step T/N.  energy_sup: ||Dq|^2/2 + V(q) - h| with the centered first
    difference.  Both are second-order in the grid for smooth orbits.
    """
    q = np.asarray(positions, dtype=float)
    N = q.shape[0]
    dt = period / N
    fwd, bwd = np.roll(q, -1, axis=0), np.roll(q, 1, axis=0)
    acc = (fwd - 2.0 * q + bwd) / dt**2
    ode = np.linalg.norm(acc + potential.gradient(q), axis=1)
    vel = (fwd - bwd) / (2.0 * dt)
    energy = 0.5 * np.sum(vel * vel, axis=1) + potential.value(q) - h
    return float(ode.max()), float(np.abs(energy).max())


def closure_gap(q0, v0, period: float, potential: PotentialModel,
                steps: int = 2048) -> float:
    """Return-map gap |q(T) - q(0)| + |v(T) - v(0)| of the true dynamics.

    Integrates q'' = -grad V(q) with the classical fourth-order one-step
    scheme at fixed step T/steps from the given initial data.  The phase
    point must stay below norm 1e8 or the test aborts as a blowup.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    q = np.asarray(q0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    q_start, v_start = q.copy(), v.copy()
    dt = period / steps

    def acc(point):
        return -potential.gradient(point)

    for _ in range(steps):
        k1q, k1v = v, acc(q)
        k2q, k2v = v + 0.5 * dt * k1v, acc(q + 0.5 * dt * k1q)
        k3q, k3v = v + 0.5 * dt * k2v, acc(q + 0.5 * dt * k2q)
        k4q, k4v = v + dt * k3v, acc(q + dt * k3q)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if max(np.abs(q).max(), np.abs(v).max()) > BLOWUP_LIMIT:
            raise BlowupError("trajectory escaped during the closure integration")
    return float(np.linalg.norm(q - q_start) + np.linalg.norm(v - v_start))


def verify_orbit(positions: np.ndarray, period: float, potential: PotentialModel,
                 h: float) -> tuple[float, float, float]:
    """(ode_sup, energy_sup, closure) of a sampled orbit q_k = q(k T / N).

    The closure test starts from (q_0, central-difference velocity at q_0)
    and takes 8N integrator steps, so the integrator error sits well below
    the differencing error being certified.
    """
    q = np.asarray(positions, dtype=float)
    N = q.shape[0]
    ode_sup, energy_sup = orbit_residuals(q, period, potential, h)
    v0 = (q[1] - q[-1]) / (2.0 * period / N)
    closure = closure_gap(q[0], v0, period, potential, steps=RK_STEPS_PER_NODE * N)
    return ode_sup, energy_sup, closure


def synthesize(u: LoopPath, spec: ProblemSpec) -> OrbitResult:
    """Build the physical orbit from a critical loop and verify it.

    Samples q_k = u_k at times k T / N and runs :func:`verify_orbit` on them.
    """
    T = orbit_period(u, spec)
    q = np.array(u.nodes)
    ode_sup, energy_sup, closure = verify_orbit(q, T, spec.potential, spec.h)
    return OrbitResult(
        period=T,
        times=np.arange(u.N) * (T / u.N),
        positions=q,
        ode_sup=ode_sup,
        energy_sup=energy_sup,
        closure=closure,
        nonconstant=speed(u) >= NONCONSTANT_SPEED,
    )
