"""Turn a critical loop into a physical orbit and verify it independently.

The period comes from the rescaling identity 1/T^2 = B/A with A the
Dirichlet energy and B the mean energy gap; q(t) = u(t/T) then solves the
equations of motion at the prescribed energy.  Verification deliberately
uses central differences (second order, distinct from the solver's forward
differencing) plus a Runge-Kutta return-map test, so a solution is only
accepted when two unrelated discretizations agree.

The return map is integrated by fixed-step RK4 (:func:`closure_gap`) on a
ladder of step counts 32, 64, 128, ... that doubles until two successive
rungs agree.  Their difference over 2^4 - 1 estimates the error of the finer
closure (Richardson extrapolation, Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, II.4); the ladder stops once that
estimate is at most 1e-3 of the closure, or at the cap of 8 steps per node.
All rungs are integrated together, each as a row of one batched RK4 state
with its own step, so an iteration costs four ``gradient`` calls however many
rungs are still running; rungs are read in order as they finish, the stop
rule is applied to each, and the rows above the stopping rung are dropped.
Every value is bit for bit the one a rung integrated alone would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, DomainError, NonpositiveActionError
from .functional import ProblemSpec
from .loopspace import NONCONSTANT_SPEED, LoopPath, dirichlet_energy, integrate, speed
from .potentials import PotentialModel

BLOWUP_LIMIT = 1e8
RK_STEPS_PER_NODE = 8  # the ladder's cap: its finest rung
RK_FIRST_RUNG = 32
RK_ORDER = 4
CLOSURE_REL_ERR = 1e-3  # the ladder stops at closure_err <= this * closure


@dataclass(frozen=True)
class OrbitResult:
    """A sampled periodic orbit with its verification residuals."""

    period: float
    times: np.ndarray  # (N,), t_k = k T / N
    positions: np.ndarray  # (N, n)
    ode_sup: float
    energy_sup: float
    closure: float
    closure_err: float  # estimated integrator error of ``closure``
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


def _rungs(cap: int) -> list[int]:
    """Step counts of the closure ladder: min(32, cap // 2), doubling, ending on the cap."""
    steps = min(RK_FIRST_RUNG, cap // 2)
    rungs = [steps]
    while steps < cap:
        steps = min(2 * steps, cap)
        rungs.append(steps)
    return rungs


def _rung_closures(q0, v0, period: float, potential: PotentialModel, rungs):
    """Yield (steps, closure) for each of the increasing step counts ``rungs``.

    Every rung is one row of a single (R, 2n) RK4 integration with its own
    step T/steps, so one iteration makes four ``gradient`` calls for all the
    rows still running.  Row r finishes after rungs[r] iterations and is
    yielded then, in rung order, so a consumer that stops early stops the
    integration.  The arithmetic is elementwise and in the order of a single
    row, so each closure has the bits of ``closure_gap(steps=s)``.

    A row whose phase point passes norm 1e8 is frozen at the start (its step
    set to 0) and yields nan, except on the last rung, where it raises
    :class:`BlowupError`.  A batch that raises ``DomainError`` or
    ``ValueError`` is redone row by row, so such an error surfaces only when
    its own rung is reached.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    q = np.asarray(q0, dtype=float)
    n = q.shape[0]
    start = np.concatenate((q, np.asarray(v0, dtype=float)))
    dt = period / np.array(rungs, dtype=float)[:, None]
    half, sixth = 0.5 * dt, dt / 6.0
    y = np.tile(start, (len(rungs), 1))
    escaped = set()  # rows frozen after a blowup, as indices into ``rungs``
    lo = 0  # rows lo: are still running; y, dt, half and sixth hold only them

    def rate(y):  # (q, v)' = (v, -grad V(q)), row by row
        return np.concatenate((y[:, n:], -potential.gradient(y[:, :n])), axis=1)

    for it in range(1, rungs[-1] + 1):
        try:
            k1 = rate(y)
            k2 = rate(y + half * k1)
            k3 = rate(y + half * k2)
            k4 = rate(y + dt * k3)
        except (DomainError, ValueError):
            if lo == len(rungs) - 1:
                raise
            for r in range(lo, len(rungs)):
                try:
                    yield from _rung_closures(q0, v0, period, potential, rungs[r:r + 1])
                except BlowupError:
                    if r == len(rungs) - 1:
                        raise
                    yield rungs[r], math.nan
            return
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.abs(y).max() > BLOWUP_LIMIT:
            for j in np.flatnonzero(np.abs(y).max(axis=1) > BLOWUP_LIMIT):
                escaped.add(lo + j)
                y[j], dt[j], half[j], sixth[j] = start, 0.0, 0.0, 0.0
        while lo < len(rungs) and (lo in escaped or rungs[lo] == it):
            if lo in escaped:
                if lo == len(rungs) - 1:
                    raise BlowupError("trajectory escaped during the closure integration")
                closure = math.nan
            else:
                gap = y[0] - start
                closure = float(np.linalg.norm(gap[:n]) + np.linalg.norm(gap[n:]))
            yield rungs[lo], closure
            y, dt, half, sixth = y[1:], dt[1:], half[1:], sixth[1:]
            lo += 1


def closure_gap(q0, v0, period: float, potential: PotentialModel,
                steps: int = 2048) -> float:
    """Return-map gap |q(T) - q(0)| + |v(T) - v(0)| of the true dynamics.

    Integrates q'' = -grad V(q) with the classical fourth-order one-step
    scheme at fixed step T/steps from the given initial data: the ladder's
    integrator with the single rung ``steps``.  The phase point must stay
    below norm 1e8 or the test aborts as a blowup.
    """
    ((_, closure),) = _rung_closures(q0, v0, period, potential, [steps])
    return closure


def verify_orbit(positions: np.ndarray, period: float, potential: PotentialModel,
                 h: float) -> tuple[float, float, float, float]:
    """(ode_sup, energy_sup, closure, closure_err) of a sampled orbit
    q_k = q(k T / N).

    The closure test starts from (q_0, central-difference velocity at q_0).
    Its rungs run ``min(32, cap // 2)`` steps and double, never past the cap
    of 8N steps; all of them are integrated together, as the rows of one
    batch, and read in rung order.  After each rung with a finite
    predecessor, closure_err = |c(s) - c(s')| / ((s/s')^4 - 1), which is
    over 15 for a doubling, estimates the integrator error of c(s); the
    ladder stops when closure_err <= 1e-3 c(s), or at the cap, and the rows
    above stop with it.  A blowup below the cap moves on to the next rung,
    one at the cap propagates.  A nan closure never passes, and closure_err
    is nan when the cap rung has no finite predecessor.  Values and errors
    are those of running :func:`closure_gap` at each rung in turn.
    """
    q = np.asarray(positions, dtype=float)
    N = q.shape[0]
    ode_sup, energy_sup = orbit_residuals(q, period, potential, h)
    v0 = (q[1] - q[-1]) / (2.0 * period / N)
    cap = RK_STEPS_PER_NODE * N
    coarse, coarse_steps = math.nan, 0
    for steps, closure in _rung_closures(q[0], v0, period, potential, _rungs(cap)):
        closure_err = math.nan
        if coarse_steps:
            closure_err = abs(closure - coarse) / ((steps / coarse_steps) ** RK_ORDER - 1.0)
        if steps >= cap or closure_err <= CLOSURE_REL_ERR * closure:
            return ode_sup, energy_sup, closure, closure_err
        coarse, coarse_steps = closure, steps


def synthesize(u: LoopPath, spec: ProblemSpec) -> OrbitResult:
    """Build the physical orbit from a critical loop and verify it.

    Samples q_k = u_k at times k T / N and runs :func:`verify_orbit` on them.
    """
    T = orbit_period(u, spec)
    q = np.array(u.nodes)
    ode_sup, energy_sup, closure, closure_err = verify_orbit(q, T, spec.potential, spec.h)
    return OrbitResult(
        period=T,
        times=np.arange(u.N) * (T / u.N),
        positions=q,
        ode_sup=ode_sup,
        energy_sup=energy_sup,
        closure=closure,
        closure_err=closure_err,
        nonconstant=speed(u) >= NONCONSTANT_SPEED,
    )
