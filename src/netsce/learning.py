"""Adaptive conjecture dynamics driven by payoff feedback.

Each period every agent best-responds to its current conjecture about its
externality aggregate. Agents who played a positive action invert their
realized payoff to the exact aggregate and adopt it as next period's
conjecture; agents who sat out learn nothing and keep their conjecture
frozen. Inactivity is therefore absorbing, and the trajectory of inactive
sets is weakly increasing.

Runs are classified as converged, diverged, oscillating (a recurring state
or a recurring increment pattern riding on a drift), or max-iter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CapBindingWarning, UsageError
from .game import GameSpec, best_reply, invert_feedback, realized_payoff
from .equilibrium import (
    ACTIVE_TOL,
    _solve_supports,
    _subsets,
    interior_conditions,
    is_sce,
    make_record,
)
from .network import spectral_radius, submatrix

__all__ = [
    "AnalyticStability",
    "EmpiricalStability",
    "StabilityReport",
    "StableFamily",
    "StepResult",
    "Trajectory",
    "analytic_stability",
    "learn_step",
    "probe_stability",
    "run_learning",
    "stability_report",
    "stable_sce_family",
]

#: Ring-buffer length for recurrence detection.
RING = 64
#: Tolerance for declaring two states (or increments) recurrent.
RECUR_TOL = 1e-9
#: Margin below the action cap that triggers the cap warning.
CAP_WARN_MARGIN = 1e-6


@dataclass(frozen=True)
class StepResult:
    """One period of the dynamics."""

    actions: np.ndarray
    payoffs: np.ndarray
    conjectures_next: np.ndarray
    capped: tuple  # agents whose action pressed the cap
    clamped: tuple  # agents whose updated conjecture had to be clipped


def learn_step(spec: GameSpec, conjectures) -> StepResult:
    """Advance the dynamics one period from the given conjectures."""
    xh = np.asarray(conjectures, dtype=float)
    a = best_reply(spec, xh)
    m = realized_payoff(spec, a)

    capped = tuple(int(i) for i in np.flatnonzero(a >= spec.a_max - CAP_WARN_MARGIN))
    if capped:
        warnings.warn(
            f"actions of agents {list(capped)} are within {CAP_WARN_MARGIN:g} of the "
            "action cap; results likely reflect the cap, not the game",
            CapBindingWarning,
            stacklevel=2,
        )

    nxt = xh.copy()
    active = a > 0
    if np.any(active):
        nxt[active] = invert_feedback(spec.alpha[active], a[active], m[active])
    clipped = np.clip(nxt, spec.x_lo, spec.x_hi)
    clamped = tuple(int(i) for i in np.flatnonzero(clipped != nxt))
    return StepResult(
        actions=a, payoffs=m, conjectures_next=clipped, capped=capped, clamped=clamped
    )


@dataclass(frozen=True)
class Trajectory:
    """A full run of the dynamics.

    ``conjectures`` has one more row than ``actions``/``payoffs`` (the
    initial condition). ``period``/``period_kind``/``cycle_agents`` are set
    only for the oscillating classification; ``limit`` (an equilibrium
    record built from the final state) only for the converged one.
    """

    conjectures: np.ndarray
    actions: np.ndarray
    payoffs: np.ndarray
    classification: str  # converged | diverged | oscillating | max-iter
    period: Optional[int] = None
    period_kind: Optional[str] = None  # state | increment
    cycle_agents: Optional[tuple] = None
    limit: Optional[object] = None
    limit_is_sce: Optional[bool] = None
    clamp_events: tuple = ()
    cap_events: tuple = ()

    @property
    def steps(self) -> int:
        return self.actions.shape[0]


def _varying(rows: np.ndarray, tol: float) -> tuple:
    """Indices of columns that are not constant across ``rows``."""
    span = rows.max(axis=0) - rows.min(axis=0)
    return tuple(int(i) for i in np.flatnonzero(span > tol))


def _find_recurrence(recent: list, tol: float) -> Optional[int]:
    """Smallest lag >= 2 at which the newest entry repeats, else None.

    A true cycle of this piecewise-linear map is hit exactly once the
    transient dies, so its recurrence defect sits many orders below the
    cycle amplitude. A geometrically decaying tail also produces small
    lag differences (alternating modes shrink them below any absolute
    tolerance while still converging), but there the defect stays a fixed
    FRACTION of the window amplitude. Hence the two-sided test: the defect
    must be below ``tol`` absolutely and a millionth of the window span,
    and the window itself must not be flat (that would be convergence).
    """
    m = len(recent)
    if m < 3:
        return None
    arr = np.asarray(recent)
    # diffs[idx] compares the newest entry against arr[idx]; lag = m - 1 - idx.
    diffs = np.max(np.abs(arr[: m - 2] - arr[-1]), axis=1)
    for idx in np.flatnonzero(diffs <= tol)[::-1]:
        lag = m - 1 - int(idx)
        window = arr[-lag:]
        span = float(np.max(window.max(axis=0) - window.min(axis=0)))
        if span > tol and diffs[idx] <= 1e-6 * span:
            return lag
    return None


def run_learning(
    spec: GameSpec,
    initial,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    window: int = 3,
    divergence_cap: float = 1e9,
) -> Trajectory:
    """Iterate the feedback dynamics from initial conjectures.

    Stops on the first of: ``window`` consecutive sup-norm conjecture
    changes below ``tol`` (converged); an action or conjecture beyond
    ``divergence_cap`` in magnitude (diverged); a state recurring within the
    last 64 periods, or a conjecture increment recurring while the state
    drifts (oscillating, smallest period at least 2); ``max_iter`` periods.

    The limit record of a converged run keeps the trajectory's own final
    conjectures as witnesses, so frozen beliefs of agents who dropped out
    along the way are preserved. Its selfconfirming check runs at
    ``max(1e-9, 100 * tol)`` to absorb the stopping slack.
    """
    if max_iter < 1:
        raise UsageError("max_iter must be at least 1")
    if window < 1:
        raise UsageError("window must be at least 1")
    xh = np.asarray(initial, dtype=float).copy()
    if xh.shape != (spec.n,):
        raise UsageError(f"initial conjectures must have length {spec.n}")
    if np.any(xh < spec.x_lo - 1e-12) or np.any(xh > spec.x_hi + 1e-12):
        i = int(np.flatnonzero((xh < spec.x_lo - 1e-12) | (xh > spec.x_hi + 1e-12))[0])
        raise UsageError(
            f"initial conjecture for agent {i} lies outside its admissible range"
        )

    conj_hist = [xh.copy()]
    act_hist, pay_hist = [], []
    clamp_events, cap_events = [], []
    recent_states: list = [xh.copy()]
    recent_incr: list = []
    quiet = 0
    classification = "max-iter"
    period = None
    period_kind = None
    cycle_agents = None
    pending: Optional[Tuple[str, int, int]] = None  # (kind, lag, confirmations)

    for t in range(max_iter):
        step = learn_step(spec, xh)
        act_hist.append(step.actions)
        pay_hist.append(step.payoffs)
        conj_hist.append(step.conjectures_next)
        clamp_events.extend((t, i) for i in step.clamped)
        cap_events.extend((t, i) for i in step.capped)

        new = step.conjectures_next
        incr = new - xh
        change = float(np.max(np.abs(incr)))
        xh = new

        recent_states.append(new.copy())
        del recent_states[:-RING]
        recent_incr.append(incr.copy())
        del recent_incr[:-RING]

        if change < tol:
            quiet += 1
            if quiet >= window:
                classification = "converged"
                break
        else:
            quiet = 0

        if (
            float(np.max(np.abs(step.actions))) > divergence_cap
            or float(np.max(np.abs(new))) > divergence_cap
        ):
            classification = "diverged"
            break

        hit = None
        lag = _find_recurrence(recent_states, RECUR_TOL)
        if lag is not None:
            hit = ("state", lag)
        else:
            lag = _find_recurrence(recent_incr, RECUR_TOL)
            if lag is not None and change >= tol:
                hit = ("increment", lag)

        if hit is None:
            pending = None
            continue
        if pending is not None and pending[:2] == hit:
            pending = (hit[0], hit[1], pending[2] + 1)
        else:
            pending = (hit[0], hit[1], 1)
        if pending[2] >= 2:
            classification = "oscillating"
            period_kind, period = pending[0], pending[1]
            ring = recent_states if period_kind == "state" else recent_incr
            cycle_agents = _varying(np.asarray(ring[-period:]), RECUR_TOL)
            break

    conjectures = np.asarray(conj_hist)
    actions = np.asarray(act_hist)
    payoffs = np.asarray(pay_hist)

    limit = None
    limit_is_sce = None
    if classification == "converged":
        a_inf = best_reply(spec, xh)
        declared = frozenset(
            int(i) for i in np.flatnonzero(a_inf <= ACTIVE_TOL)
        )
        limit = make_record(
            spec, a_inf, declared_inactive=declared, conjectures=xh, validate=False
        )
        limit_is_sce = is_sce(spec, a_inf, xh, tol=max(1e-9, 100 * tol)).ok

    return Trajectory(
        conjectures=conjectures,
        actions=actions,
        payoffs=payoffs,
        classification=classification,
        period=period,
        period_kind=period_kind,
        cycle_agents=cycle_agents,
        limit=limit,
        limit_is_sce=limit_is_sce,
        clamp_events=tuple(clamp_events),
        cap_events=tuple(cap_events),
    )


@dataclass(frozen=True)
class AnalyticStability:
    """Spectral local-stability test at an equilibrium record.

    Stable when the active-submatrix spectral radius is below one AND every
    inactive agent's witness conjecture keeps it strictly out (margin
    -alpha_i - x_hat_i > 0). Anything else is inconclusive: the test is
    one-sided.
    """

    verdict: str  # stable | inconclusive
    rho_active: float
    rho_ok: bool
    margin: Optional[float]
    margin_ok: bool


def analytic_stability(spec: GameSpec, record) -> AnalyticStability:
    active = sorted(record.active_set)
    sub = spec.net.z[np.ix_(active, active)] if active else np.zeros((0, 0))
    rho = spectral_radius(sub)
    rho_ok = rho < 1.0

    inactive = [i for i in range(spec.n) if i not in record.active_set]
    if inactive:
        margins = [-spec.alpha[i] - record.conjectures[i] for i in inactive]
        margin = float(min(margins))
        margin_ok = margin > 0.0
    else:
        margin, margin_ok = None, True

    verdict = "stable" if (rho_ok and margin_ok) else "inconclusive"
    return AnalyticStability(
        verdict=verdict, rho_active=float(rho), rho_ok=bool(rho_ok),
        margin=margin, margin_ok=bool(margin_ok),
    )


@dataclass(frozen=True)
class EmpiricalStability:
    """Monte-Carlo return-probe around an equilibrium record.

    ``return_fraction`` counts probes whose limit actions match the record
    within 1e-6; ``belief_stay_fraction`` counts probes whose final
    conjectures stay within epsilon + 1e-6 of the witnesses (inactive
    beliefs are frozen at their perturbed values, so this is the natural
    notion of belief return).
    """

    epsilon: float
    samples: int
    seed: int
    return_fraction: float
    belief_stay_fraction: float
    nonconverged: int


def probe_stability(
    spec: GameSpec,
    record,
    epsilon: float = 1e-3,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 20_000,
) -> EmpiricalStability:
    """Perturb witness conjectures and count returns to the record."""
    if samples < 1:
        raise UsageError("probe needs at least one sample")
    returned = stayed = nonconv = 0
    for k in range(samples):
        rng = np.random.default_rng((seed, k))
        x0 = record.conjectures + rng.uniform(-epsilon, epsilon, spec.n)
        x0 = np.clip(x0, spec.x_lo, spec.x_hi)
        traj = run_learning(spec, x0, tol=tol, max_iter=max_iter)
        if traj.classification != "converged":
            nonconv += 1
            continue
        if float(np.max(np.abs(traj.limit.actions - record.actions))) <= 1e-6:
            returned += 1
        if float(np.max(np.abs(traj.limit.conjectures - record.conjectures))) <= epsilon + 1e-6:
            stayed += 1
    return EmpiricalStability(
        epsilon=epsilon,
        samples=samples,
        seed=seed,
        return_fraction=returned / samples,
        belief_stay_fraction=stayed / samples,
        nonconverged=nonconv,
    )


@dataclass(frozen=True)
class StabilityReport:
    analytic: AnalyticStability
    empirical: Optional[EmpiricalStability]


def stability_report(
    spec: GameSpec,
    record,
    probe: bool = True,
    epsilon: float = 1e-3,
    samples: int = 100,
    seed: int = 0,
) -> StabilityReport:
    """Run the spectral test and, optionally, the Monte-Carlo probe."""
    ana = analytic_stability(spec, record)
    emp = (
        probe_stability(spec, record, epsilon=epsilon, samples=samples, seed=seed)
        if probe
        else None
    )
    return StabilityReport(analytic=ana, empirical=emp)


@dataclass(frozen=True)
class StableFamily:
    """Records obtained by shutting down subsets of a stable active set.

    When the active submatrix passes at least one interior-equilibrium
    condition and dropped agents can strictly justify inactivity, every
    subset of the active set supports a locally stable equilibrium; the
    members carry their own stability verdicts so the claim is checkable.
    """

    applicable: bool
    why: Optional[str]
    members: tuple  # (EquilibriumRecord, AnalyticStability)
    skipped: tuple  # (frozenset of agents, reason)


def stable_sce_family(spec: GameSpec, record) -> StableFamily:
    """Construct the family of equilibria on subsets of a record's active set."""
    active = sorted(record.active_set)
    subsets = list(_subsets(active))
    report = interior_conditions(submatrix(spec.net, active)) if active else None
    if active and not report.any_holds():
        return StableFamily(
            applicable=False,
            why="no interior-equilibrium condition holds on the active submatrix",
            members=(),
            skipped=(),
        )

    # Each member is its own fully active solve: one solve per subset.
    found, _ = _solve_supports(spec, subsets)
    solved = dict(found)
    everyone = frozenset(range(spec.n))
    members, skipped = [], []
    for j in subsets:
        if j not in solved:
            skipped.append((frozenset(j), "no fully active solution"))
            continue
        declared = everyone - frozenset(j)
        rec = make_record(spec, solved[j], declared_inactive=declared, validate=False)
        members.append((rec, analytic_stability(spec, rec)))
    return StableFamily(applicable=True, why=None, members=tuple(members), skipped=tuple(skipped))
