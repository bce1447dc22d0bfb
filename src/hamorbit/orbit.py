"""Turn a critical loop into a physical orbit and verify it independently.

The period comes from the rescaling identity 1/T^2 = B/A with A the
Dirichlet energy and B the mean energy gap; q(t) = u(t/T) then solves the
equations of motion at the prescribed energy.  Verification deliberately
uses central differences (second order, distinct from the solver's forward
differencing) plus a Runge-Kutta return-map test, so a solution is only
accepted when two unrelated discretizations agree.  :func:`verify_orbit`
returns the one result of that check, an :class:`OrbitResult`, whether the
samples come from a solve (:func:`synthesize`) or from an orbit table.

The return map is integrated at a fixed step by the 12-stage 8th-order
formula of Prince & Dormand (DOP853; Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, II.5) in :func:`closure_gap`, on a ladder
of step counts 6, 8, 12, 16, 32, 64, ... that climbs until two successive
rungs agree.  Since q'' = -grad V(q) is of second order, the formula runs in
its Nystrom form (ibid. II.14): the same method as on the first-order system
(q, v)' = (v, -grad V(q)), with coefficients c, A^2, bA and b derived from
the tableau, and no stage sums for v.  The difference of two rungs over
(s/s')^4 - 1, for a rung of s steps above one of s', estimates the error of
the finer closure (Richardson extrapolation, ibid. II.4): 175/81 for 8
against 6, 65/16 for 12 against 8, 175/81 for 16 against 12 and 15 for a
doubling.  The ladder stops once that estimate is at most 1e-3 of the
closure, once it settles which side of a given closure tolerance the closure
lies on, or at the cap of 2 steps per node.  The 6-step rung is never the
stop, since it has no estimate: it is there only to give rung 8 one, at no
extra ``gradient`` call.  The estimate assumes 4th order, not the tableau's
8th: potentials need only be C^2 at the origin, and on orbits through it
the error falls far slower than h^8, so an 8th-order divisor would
understate it.  All rungs are integrated together, each as a row of one
batched state with its own step, so an iteration costs twelve ``gradient``
calls however many rungs are still running; rungs are read in order as
they finish, the stop rules are applied to each, and the rows above the
stopping rung are dropped.  Every value is bit for bit the one a rung
integrated alone would give.  One fault rule serves every row: a row whose
gradient raises or whose phase point escapes is frozen with its first
error, which counts only when its rung is reached, and never on the bottom
rung, whose closure only feeds an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, DomainError, NonpositiveActionError
from .functional import ProblemSpec, _factors
from .loopspace import MIN_NODES, LoopPath, is_nonconstant, periodic_shift
from .potentials import PotentialModel

BLOWUP_LIMIT = 1e8
RK_STEPS_PER_NODE = 2  # the ladder's cap: its finest rung
RK_LOW_RUNGS = (6, 8, 12, 16)  # the ladder's first rungs; above them it doubles
RK_ESTIMATE_ORDER = 4  # the order the Richardson estimate assumes
CLOSURE_REL_ERR = 1e-3  # the ladder stops at closure_err <= this * closure

# Dormand & Prince's 8th-order solution (DOP853): stage i is evaluated at
# y + dt * sum_j a_ij k_j and the step is y + dt * sum_j b_j k_j, each row
# written as its nonzero (j, a_ij) pairs.
RK_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2),
     (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2),
     (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1),
     (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2),
     (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2),
     (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2),
     (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2),
     (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1),
     (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1),
     (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1),
     (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1),
     (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1),
     (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1),
     (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1),
     (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1),
     (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654),
     (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1),
     (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762),
     (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449),
     (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444),
     (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1),
     (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258),
     (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
)
RK_B = (
    (0, 5.42937341165687622380535766363e-2),
    (5, 4.45031289275240888144113950566),
    (6, 1.89151789931450038304281599044),
    (7, -5.8012039600105847814672114227),
    (8, 3.1116436695781989440891606237e-1),
    (9, -1.52160949662516078556178806805e-1),
    (10, 2.01365400804030348374776537501e-1),
    (11, 4.47106157277725905176885569043e-2),
)


def _nystrom_tableau():
    """The tableau in Nystrom form for q'' = f(q): the nodes c = A 1, A^2,
    bA and b, from the rows of ``RK_A`` and ``RK_B``."""
    A = np.zeros((len(RK_A), len(RK_A)))
    for i, row in enumerate(RK_A):
        for j, a in row:
            A[i, j] = a
    b = np.zeros(len(RK_A))
    for j, weight in RK_B:
        b[j] = weight
    return A.sum(axis=1), A @ A, b @ A, b


NYSTROM_C, NYSTROM_A2, NYSTROM_BA, NYSTROM_B = _nystrom_tableau()
# The weights of dt v, and of each stage's dt^2-scaled acceleration, in the
# 13 sums of one step: stage points 1..11 (sum k is stage point k + 1), then
# q and dt v after the step.  Stage i enters sums i onwards: the stage
# points above it, and the step.
_DV_WEIGHTS = np.concatenate((NYSTROM_C[1:], [1.0, 1.0]))[:, None, None]
_STAGE_WEIGHTS = [
    np.concatenate((NYSTROM_A2[i + 1:, i], [NYSTROM_BA[i], NYSTROM_B[i]]))[:, None, None]
    for i in range(len(RK_A))]


@dataclass(frozen=True)
class OrbitResult:
    """A sampled periodic orbit, q_k = q(k T / N), with its verification
    residuals: the one result of :func:`verify_orbit`, and :meth:`accepts`,
    the one gate that decides whether it is a solution."""

    period: float
    positions: np.ndarray  # (N, n)
    ode_sup: float
    energy_sup: float
    closure: float
    closure_err: float  # estimated integrator error of ``closure``
    nonconstant: bool

    def accepts(self, ode_tol: float, energy_tol: float, closure_tol: float | None = None) -> bool:
        """The one orbit gate of ``solve`` and ``verify``: a nonconstant orbit
        whose residuals are within ``ode_tol`` and ``energy_tol``, and whose
        closure is within ``closure_tol`` when one is given (a nan closure
        never is)."""
        return (self.nonconstant and self.ode_sup <= ode_tol and self.energy_sup <= energy_tol
                and (closure_tol is None or self.closure <= closure_tol))


def orbit_period(u: LoopPath, spec: ProblemSpec) -> float:
    """Physical period T = sqrt(A/B), with the Dirichlet energy A and mean
    energy gap B of the functional's factors; requires both positive."""
    (A,), (B,) = _factors(u.nodes[None], spec)
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
    fwd, bwd = periodic_shift(q, 1), periodic_shift(q, -1)
    values, grads = potential.value_and_gradient(q)
    acc = (fwd - 2.0 * q + bwd) / dt**2
    ode = np.linalg.norm(acc + grads, axis=1)
    vel = (fwd - bwd) / (2.0 * dt)
    energy = 0.5 * np.sum(vel * vel, axis=1) + values - h
    return float(ode.max()), float(np.abs(energy).max())


def _rungs(cap: int) -> list[int]:
    """Step counts of the closure ladder below a cap of at least 16: 6, 8,
    12, 16, then doubling, ending on the cap.  Each rung's estimate divides
    by (s/s')^4 - 1 against the rung below: 175/81, 65/16, 175/81, then 15."""
    rungs = [s for s in RK_LOW_RUNGS if s < cap]
    while rungs[-1] < cap:
        rungs.append(min(2 * rungs[-1], cap))
    return rungs


def _rung_closures(q0, v0, period: float, potential: PotentialModel, rungs):
    """Yield (steps, closure) for each of the increasing step counts ``rungs``.

    Every rung is one row of a single (R, n) DOP853 integration in Nystrom
    form with its own step dt = T/steps, so one iteration makes twelve
    ``gradient`` calls, one per stage, for all the rows still running.  A
    row holds q and dt v; stage i's point is q + c_i dt v plus the
    dt^2-scaled accelerations of the earlier stages weighted by row i of A^2,
    and the step adds the weights 1 and bA to q and 1 and b to dt v.  Each
    acceleration is added to every sum it enters as soon as it is known
    (``_STAGE_WEIGHTS``), so each sum is taken left to right, in the same
    order in every row.  Row r finishes after rungs[r] iterations and is
    yielded then, in rung order, so a consumer that stops early stops the
    integration.  The arithmetic is elementwise, so each closure has the bits
    of ``closure_gap(steps=s)``.

    One fault rule covers every row.  A row whose gradient raises
    ``DomainError`` or ``ValueError`` at a stage, or whose phase point passes
    norm 1e8 or stops being finite after a step, keeps its first such error
    in ``faults`` and is frozen at the start (its step set to 0, so it never
    moves); a batched ``gradient`` call that raises is redone row by row to
    find the failing rows.  When a faulted row's rung is reached, a blowup
    below the last rung yields nan, and so does any fault on the first of
    several rungs, which the ladder never reports; any other fault is raised,
    so an error surfaces only when its own rung is reached.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = q0.shape[0]
    dt = period / np.array(rungs, dtype=float)[:, None]
    q, w, scale = np.tile(q0, (len(rungs), 1)), dt * v0, -(dt * dt)  # w = dt v
    faults = {}  # the first error of each faulted running row, by index into ``rungs``
    lo = 0  # rows lo: are still running; q, w, dt and scale hold only them

    def scaled_acceleration(x):  # dt^2 q'' = -dt^2 grad V(x), row by row if the batch raises
        try:
            g = potential.gradient(x)
        except (DomainError, ValueError):
            g = np.zeros((len(x), n))
            for j in range(len(x)):
                try:
                    g[j] = potential.gradient(x[j:j + 1])[0]
                except (DomainError, ValueError) as err:
                    faults.setdefault(lo + j, err)
        return scale * g

    for it in range(1, rungs[-1] + 1):
        sums = _DV_WEIGHTS * w  # stage points 1..11, then q and dt v after the step
        sums[:-1] += q
        for i, weights in enumerate(_STAGE_WEIGHTS):
            sums[i:] += weights * scaled_acceleration(q if i == 0 else sums[i - 1])
        q, w = sums[-2], sums[-1]
        inside = ((np.abs(q) <= BLOWUP_LIMIT).all(axis=1)
                  & (np.abs(w) <= BLOWUP_LIMIT * dt).all(axis=1))
        for j in np.flatnonzero(~inside):
            faults.setdefault(lo + j, BlowupError(
                "trajectory escaped during the closure integration"))
        for r in faults:
            q[r - lo], w[r - lo], dt[r - lo], scale[r - lo] = q0, 0.0, 0.0, 0.0
        while lo < len(rungs) and (lo in faults or rungs[lo] == it):
            fault = faults.pop(lo, None)
            if fault is None:  # never frozen, so dt > 0
                closure = float(np.linalg.norm(q[0] - q0) + np.linalg.norm(w[0] / dt[0] - v0))
            elif lo < len(rungs) - 1 and (lo == 0 or isinstance(fault, BlowupError)):
                closure = math.nan
            else:
                raise fault
            yield rungs[lo], closure
            q, w, dt, scale = q[1:], w[1:], dt[1:], scale[1:]
            lo += 1


def closure_gap(q0, v0, period: float, potential: PotentialModel, steps: int) -> float:
    """Return-map gap |q(T) - q(0)| + |v(T) - v(0)| of the true dynamics.

    Integrates q'' = -grad V(q) with the 8th-order Dormand-Prince formula
    (``RK_A``, ``RK_B``) in Nystrom form at fixed step T/steps from the given
    initial data: the ladder's integrator with the single rung ``steps``.
    The phase point must stay finite and below norm 1e8 or the test aborts
    as a blowup.
    """
    ((_, closure),) = _rung_closures(q0, v0, period, potential, [steps])
    return closure


def verify_orbit(positions: np.ndarray, period: float, potential: PotentialModel,
                 h: float, closure_tol: float | None = None) -> OrbitResult:
    """Verify a sampled orbit q_k = q(k T / N) and return it as an
    :class:`OrbitResult`.

    The residuals come from :func:`orbit_residuals`; the orbit is
    nonconstant when its positions, as a loop, pass
    :func:`~hamorbit.loopspace.is_nonconstant`, and like a loop they need at
    least ``MIN_NODES`` rows (``ValueError`` otherwise).

    The closure test starts from (q_0, central-difference velocity at q_0).
    Its rungs (:func:`_rungs`) run 6, 8, 12 and 16 steps and then double,
    never past the cap of 2N steps; all of them are integrated together, as
    the rows of one batch, and read in rung order.  After each rung with a
    finite predecessor, closure_err = |c(s) - c(s')| / ((s/s')^4 - 1), which
    is over 175/81, 65/16, 175/81 and then 15, estimates the integrator
    error of c(s): the exponent is ``RK_ESTIMATE_ORDER``, below the
    tableau's 8, so that the estimate still bounds the error where the
    potential is only C^2.  The ladder stops when closure_err <= 1e-3 c(s),
    or at the cap, and the rows above stop with it.  Given ``closure_tol``,
    it also stops once |c(s) - closure_tol| >= closure_err: the verdict
    c <= closure_tol of :meth:`OrbitResult.accepts` is then the same
    anywhere within the estimate.  ``verify`` passes its tolerance;
    ``solve`` passes none, so its report keeps the relative rule.  Below the
    cap, a nan closure_err stops neither rule, so the 6-step rung, which has
    none, is never the stop.  A blowup below the cap moves on to the next
    rung; one at the cap, and a gradient error at any reached rung above 6,
    propagates.  Any fault at 6 only leaves rung 8 without an estimate, and
    the ladder climbs as if it began at 8.  A nan closure never passes
    :meth:`OrbitResult.accepts`, and closure_err is nan when the cap rung
    has no finite predecessor.  Above the 6-step rung, values and errors are
    those of running :func:`closure_gap` at each rung in turn.
    """
    q = np.asarray(positions, dtype=float)
    N = q.shape[0]
    if N < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {N}")
    ode_sup, energy_sup = orbit_residuals(q, period, potential, h)
    v0 = (q[1] - q[-1]) / (2.0 * period / N)
    cap = RK_STEPS_PER_NODE * N
    coarse, coarse_steps = math.nan, 0
    for steps, closure in _rung_closures(q[0], v0, period, potential, _rungs(cap)):
        closure_err = math.nan
        if coarse_steps:
            closure_err = abs(closure - coarse) / ((steps / coarse_steps) ** RK_ESTIMATE_ORDER - 1.0)
        if (steps >= cap or closure_err <= CLOSURE_REL_ERR * closure
                or (closure_tol is not None and abs(closure - closure_tol) >= closure_err)):
            break
        coarse, coarse_steps = closure, steps
    return OrbitResult(period, q, ode_sup, energy_sup, closure, closure_err, is_nonconstant(q))


def synthesize(u: LoopPath, spec: ProblemSpec) -> OrbitResult:
    """Build the physical orbit from a critical loop and verify it.

    Samples q_k = u_k at times k T / N, with T from :func:`orbit_period`, and
    runs :func:`verify_orbit` on them.
    """
    return verify_orbit(np.array(u.nodes), orbit_period(u, spec), spec.potential, spec.h)
