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
from typing import Optional

import numpy as np

from .errors import CapBindingWarning, NumericError, UsageError
from .game import _RANGE_SLACK, GameSpec, _check_stopping, aggregate, best_reply
# invert_feedback, realized_payoff and spectral_radius are not called here;
# perfbench's span tracer wraps them under this module's names.
from .game import invert_feedback, realized_payoff  # noqa: F401
from .equilibrium import (
    ACTIVE_TOL,
    _records,
    _solve_supports,
    _subset_runs,
    interior_conditions,
    is_sce,
    make_record,
)
from .network import spectral_radius, submatrix  # noqa: F401

__all__ = [
    "AnalyticStability",
    "EmpiricalStability",
    "StableFamily",
    "StepResult",
    "Trajectory",
    "analytic_stability",
    "learn_step",
    "probe_stability",
    "run_learning",
    "stable_sce_family",
]

#: Ring-buffer length for recurrence detection.
RING = 64
#: Tolerance for declaring two states (or increments) recurrent.
RECUR_TOL = 1e-9
#: Margin below the action cap that triggers the cap warning.
CAP_WARN_MARGIN = 1e-6
#: Default quiet-window length of a run.
WINDOW = 3
#: A run whose action or conjecture exceeds this in magnitude has diverged.
DIVERGENCE_CAP = 1e9
#: Probe rows, (record, sample) pairs, advanced together, and samples drawn
#: at a time. Bounds the probe's memory whatever the sample and record
#: counts: a ring of 4 * RING * PROBE_BLOCK * n floats.
PROBE_BLOCK = 128
#: Most probe runs, records times samples, one probe call may start: about
#: 20 s of `stability` on 2^10 records of 10 agents with 100 samples each.
_MAX_PROBE_RUNS = 1 << 17


@dataclass(frozen=True)
class StepResult:
    """One period of the dynamics."""

    actions: np.ndarray
    payoffs: np.ndarray
    conjectures_next: np.ndarray
    capped: tuple  # agents (or (row, agent) pairs) whose action pressed the cap
    clamped: tuple  # agents (or pairs) whose updated conjecture had to be clipped


def _step(spec: GameSpec, xh: np.ndarray, cap_at: np.ndarray) -> tuple:
    """One period from conjectures ``xh``, one profile or a (k, n) stack.

    Returns the actions, payoffs and clipped next conjectures, and the masks
    of entries whose action reached ``cap_at`` (capped) and whose updated
    conjecture had to be clipped (clamped). Inactive entries keep their
    conjecture; active ones take ``invert_feedback``'s ``m/a - alpha + a/2``.
    """
    a = (spec.alpha + xh).clip(0.0, spec.a_max)
    m = spec.alpha * a - 0.5 * a * a + a * np.matvec(spec.net.z, a)
    active = a > 0
    # The placeholder divisor 1 only feeds entries np.where discards.
    learned = m / np.where(active, a, 1.0) - spec.alpha + a / 2.0
    nxt = np.where(active, learned, xh)
    clipped = nxt.clip(spec.x_lo, spec.x_hi)
    return a, m, clipped, a >= cap_at, clipped != nxt


def _warn_cap(capped: np.ndarray, stacklevel: int) -> None:
    """Warn that the agents with a true entry in ``capped`` press the cap.

    ``stacklevel`` counts from the caller, as in :func:`warnings.warn`.
    """
    agents = np.flatnonzero(np.atleast_2d(capped).any(axis=0)).tolist()
    warnings.warn(
        f"actions of agents {agents} are within {CAP_WARN_MARGIN:g} of the "
        "action cap; results likely reflect the cap, not the game",
        CapBindingWarning,
        stacklevel=stacklevel + 1,
    )


def learn_step(spec: GameSpec, conjectures) -> StepResult:
    """Advance the dynamics one period from the given conjectures.

    ``conjectures`` is one profile of shape (n,) or a stack of profiles of
    shape (k, n), each advanced on its own. For a stack, ``capped`` and
    ``clamped`` hold (row, agent) pairs instead of agents.
    """
    xh = np.asarray(conjectures, dtype=float)
    a, m, clipped, capped, clamped = _step(spec, xh, spec.a_max - CAP_WARN_MARGIN)
    if np.count_nonzero(capped):
        _warn_cap(capped, stacklevel=2)
    return StepResult(
        actions=a,
        payoffs=m,
        conjectures_next=clipped,
        capped=_where(capped),
        clamped=_where(clamped),
    )


def _where(mask: np.ndarray) -> tuple:
    """True entries of a mask: agents for one row, (row, agent) pairs for a stack."""
    if not np.count_nonzero(mask):
        return ()
    if mask.ndim == 1:
        return tuple(int(i) for i in np.flatnonzero(mask))
    return tuple((int(r), int(i)) for r, i in np.argwhere(mask))


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


def _varying(hist: np.ndarray, tol: float) -> tuple:
    """Agents whose entries in ``hist`` (n, m), one column per period, vary."""
    span = hist.max(axis=1) - hist.min(axis=1)
    return tuple(int(i) for i in np.flatnonzero(span > tol))


def _recurrence(win: np.ndarray) -> Optional[np.ndarray]:
    """Per row, the smallest lag >= 2 at which the newest entry of ``win``
    repeats (0 where none does), or None when it repeats in no row.

    ``win`` holds up to ``RING`` entries per row and agent, oldest first
    along the last axis: (k, n, m). An entry holding NaN never matches.
    A true cycle of this piecewise-linear map is hit exactly once the
    transient dies, so its recurrence defect sits many orders below the
    cycle amplitude. A geometrically decaying tail also produces small lag
    differences (alternating modes shrink them below any absolute tolerance
    while still converging), but there the defect stays a fixed FRACTION of
    the window amplitude. Hence the two-sided test: the defect must be below
    ``RECUR_TOL`` absolutely and a millionth of the window span, and the
    window itself must not be flat (that would be convergence).
    """
    m = win.shape[2]
    if m < 3:
        return None
    # Column j of the (k, m - 2) tables below is lag j + 2.
    defect = np.abs(win[:, :, :-2] - win[:, :, -1:]).max(axis=1)[:, ::-1]
    near = defect <= RECUR_TOL
    if not np.count_nonzero(near):
        return None
    k = len(near)
    rows = np.flatnonzero(near.any(axis=1))
    if len(rows) < k:
        win, defect, near = win[rows], defect[rows], near[rows]
    # Lag j's window is the j newest entries, so no window reaches past the
    # m - 1 newest: when those are flat in every row, no lag passes the span
    # test. Their running extremes, newest first, give every window's span.
    back = win[:, :, :0:-1]
    if (back.max(axis=2) - back.min(axis=2)).max() <= RECUR_TOL:
        return None
    span = np.maximum.accumulate(back, axis=2) - np.minimum.accumulate(back, axis=2)
    span = span.max(axis=1)[:, 1:]
    ok = near & (span > RECUR_TOL) & (defect <= 1e-6 * span)
    found = ok.any(axis=1)
    if not np.count_nonzero(found):
        return None
    lags = np.zeros(k, dtype=int)
    lags[rows[found]] = ok[found].argmax(axis=1) + 2
    return lags


class _Ring:
    """The last ``RING`` states and increments of a (k, n) stack.

    The buffer is (2k, n, 2 * RING): rows [0, k) hold the states, rows
    [k, 2k) the increments that led to them, so one recurrence scan covers
    both, and periods run along the last axis. Each entry is stored twice,
    RING slots apart, so the newest ``m`` entries always sit contiguously,
    oldest first.
    """

    def __init__(self, x0: np.ndarray):
        k, n = x0.shape
        self.buf = np.empty((2 * k, n, 2 * RING))
        # The first state has no increment: NaN never matches, as if the
        # increment window were one entry shorter.
        self.buf[:k, :, 0] = self.buf[:k, :, RING] = x0
        self.buf[k:, :, 0] = self.buf[k:, :, RING] = np.nan
        self.count = 1

    def push(self, state: np.ndarray, incr: np.ndarray) -> None:
        i = self.count % RING
        k = len(state)
        self.buf[:k, :, i] = self.buf[:k, :, i + RING] = state
        self.buf[k:, :, i] = self.buf[k:, :, i + RING] = incr
        self.count += 1

    def last(self, m: int = RING) -> np.ndarray:
        m = min(m, self.count)
        end = (self.count - 1) % RING + RING + 1
        return self.buf[:, :, end - m : end]

    def keep(self, rows: np.ndarray) -> None:
        self.buf = self.buf[np.concatenate((rows, rows))]


@dataclass(frozen=True)
class _Runs:
    """Per-row outcome of :func:`_advance`."""

    classification: list
    steps: list
    oscillation: list  # (period_kind, period, cycle_agents) where oscillating, else None
    final: np.ndarray  # last conjectures, (k, n)


def _advance(spec, x0, tol, max_iter, window, on_step=None) -> _Runs:
    """Run the dynamics from every row of ``x0`` (k, n) at once.

    Each period advances all live rows with one :func:`_step` call, warns
    once if any action presses its cap, and then applies the stopping rules
    row by row, in order: ``window`` consecutive sup-norm changes below
    ``tol`` (converged); an action or conjecture beyond ``DIVERGENCE_CAP``
    in magnitude (diverged); the same state recurrence, or else increment
    recurrence while the state still moves, found in two consecutive
    periods (oscillating). A row leaves the stack the period it stops; rows
    live after ``max_iter`` periods are max-iter. ``on_step(t, actions,
    payoffs, conjectures_next, capped, clamped)`` sees every step of the
    live stack, the last two as masks.
    """
    k, n = x0.shape
    classification = ["max-iter"] * k
    steps = [max_iter] * k
    oscillation = [None] * k
    final = x0.copy()
    cap_at = spec.a_max - CAP_WARN_MARGIN
    # Actions stay in [0, a_max] and conjectures in [x_lo, x_hi]: when those
    # bounds are within the cap no run can diverge.
    can_diverge = max(spec.a_max.max(), -spec.x_lo.min(), spec.x_hi.max()) > DIVERGENCE_CAP

    live = np.arange(k)
    xh = x0.copy()
    ring = _Ring(xh)
    quiet = np.zeros(k, dtype=int)
    # Pending recurrence per row: +lag for a state recurrence, -lag for an
    # increment one, 0 for none, and how many consecutive periods found it.
    code = np.zeros(k, dtype=int)
    seen = np.zeros(k, dtype=int)

    for t in range(max_iter):
        a, m, new, capped, clamped = _step(spec, xh, cap_at)
        if np.count_nonzero(capped):
            _warn_cap(capped, stacklevel=1)
        if on_step is not None:
            on_step(t, a, m, new, capped, clamped)
        incr = new - xh
        change = np.abs(incr).max(axis=1)
        xh = new
        ring.push(new, incr)

        moving = change >= tol
        quiet += 1
        quiet[moving] = 0
        converged = quiet >= window
        stop = converged
        diverged = None
        if can_diverge:
            diverged = ~converged & (
                (np.abs(a).max(axis=1) > DIVERGENCE_CAP)
                | (np.abs(new).max(axis=1) > DIVERGENCE_CAP)
            )
            stop = stop | diverged
        stopping = np.count_nonzero(stop)

        # Rows stopping anyway need no recurrence test; a frozen state (change
        # below tol) has no increment pattern, so without a moving row the
        # scan covers the states alone.
        live_k = len(live)
        if stopping < live_k:
            win = ring.last()
            lags = _recurrence(win if np.count_nonzero(moving) else win[:live_k])
            if lags is not None:
                hit = lags[:live_k]
                if len(lags) > live_k:
                    hit = np.where(hit > 0, hit, np.where(moving, -lags[live_k:], 0))
                seen = (np.where(hit == code, seen, 0) + 1) * (hit != 0)
                code = hit
                stop = stop | (seen >= 2)
                stopping = np.count_nonzero(stop)
            else:
                seen.fill(0)

        if not stopping:
            continue
        for r in np.flatnonzero(stop):
            row = int(live[r])
            steps[row] = t + 1
            final[row] = xh[r]
            if converged[r]:
                classification[row] = "converged"
            elif diverged is not None and diverged[r]:
                classification[row] = "diverged"
            else:
                classification[row] = "oscillating"
                period = abs(int(code[r]))
                is_state = code[r] > 0
                oscillation[row] = (
                    "state" if is_state else "increment",
                    period,
                    _varying(ring.last(period)[r if is_state else live_k + r], RECUR_TOL),
                )
        if stopping == live_k:
            break
        keep = ~stop
        live, xh, quiet = live[keep], xh[keep], quiet[keep]
        code, seen = code[keep], seen[keep]
        ring.keep(keep)
    else:  # rows still live after max_iter periods
        final[live] = xh

    return _Runs(
        classification=classification, steps=steps, oscillation=oscillation, final=final
    )


def run_learning(
    spec: GameSpec,
    initial,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    window: int = WINDOW,
) -> Trajectory:
    """Iterate the feedback dynamics from initial conjectures.

    Stops on the first of: ``window`` consecutive sup-norm conjecture
    changes below ``tol`` (converged); an action or conjecture beyond
    ``DIVERGENCE_CAP`` in magnitude (diverged); a state recurring within the
    last 64 periods, or a conjecture increment recurring while the state
    drifts (oscillating, smallest period at least 2); ``max_iter`` periods.

    The limit record of a converged run keeps the trajectory's own final
    conjectures as witnesses, so frozen beliefs of agents who dropped out
    along the way are preserved. Its selfconfirming check runs at
    ``max(1e-9, 100 * tol)`` to absorb the stopping slack.
    """
    _check_stopping(tol, max_iter)
    if window < 1:
        raise UsageError("window must be at least 1")
    xh = np.asarray(initial, dtype=float).copy()
    if xh.shape != (spec.n,):
        raise UsageError(f"initial conjectures must have length {spec.n}")
    outside = (xh < spec.x_lo - _RANGE_SLACK) | (xh > spec.x_hi + _RANGE_SLACK)
    if np.any(outside):
        i = int(np.flatnonzero(outside)[0])
        raise UsageError(
            f"initial conjecture for agent {i} lies outside its admissible range"
        )

    conj_hist = [xh]
    act_hist, pay_hist = [], []
    clamp_events, cap_events = [], []

    def record(t, a, m, new, capped, clamped):
        act_hist.append(a[0])
        pay_hist.append(m[0])
        conj_hist.append(new[0])
        if np.count_nonzero(clamped):
            clamp_events.extend((t, i) for i in np.flatnonzero(clamped).tolist())
        if np.count_nonzero(capped):
            cap_events.extend((t, i) for i in np.flatnonzero(capped).tolist())

    runs = _advance(spec, xh[None], tol, max_iter, window, record)
    classification = runs.classification[0]
    period_kind, period, cycle_agents = runs.oscillation[0] or (None, None, None)

    limit = None
    limit_is_sce = None
    if classification == "converged":
        final = runs.final[0]
        a_inf = best_reply(spec, final)
        declared = frozenset(
            int(i) for i in np.flatnonzero(a_inf <= ACTIVE_TOL)
        )
        limit = make_record(
            spec, a_inf, declared_inactive=declared, conjectures=final, validate=False
        )
        limit_is_sce = is_sce(spec, a_inf, final, tol=max(1e-9, 100 * tol)).ok

    return Trajectory(
        conjectures=np.asarray(conj_hist),
        actions=np.asarray(act_hist),
        payoffs=np.asarray(pay_hist),
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
    return _analytic(spec, [record])[0]


def _analytic(spec: GameSpec, records) -> list:
    """:func:`analytic_stability` for every record of ``records`` at once.

    The active submatrices of one size go through one stacked ``eigvals``,
    whose eigenvalues per matrix are those of its own call. A record's
    margin is its first smallest inactive entry, as ``min`` picks it.
    """
    count, n = len(records), spec.n
    active = np.zeros((count, n), dtype=bool)
    for r, rec in enumerate(records):
        active[r, list(rec.active_set)] = True
    sizes = active.sum(axis=1)
    rho = np.zeros(count)
    for m in set(sizes.tolist()) - {0}:
        rows = np.flatnonzero(sizes == m)
        idx = np.nonzero(active[rows])[1].reshape(len(rows), m)
        try:
            ev = np.linalg.eigvals(spec.net.z[idx[:, :, None], idx[:, None, :]])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
            raise NumericError(f"eigenvalue computation failed: {exc}") from exc
        rho[rows] = np.abs(ev).max(axis=1)
    conj = np.array([rec.conjectures for rec in records]).reshape(count, n)
    gap = np.where(active, np.inf, -spec.alpha - conj)
    margins = gap[np.arange(count), gap.argmin(axis=1)]
    out = []
    for rho_r, margin, m in zip(rho.tolist(), margins.tolist(), sizes.tolist()):
        if m == n:  # nobody is inactive
            margin = None
        margin_ok = margin is None or margin > 0.0
        out.append(
            AnalyticStability(
                verdict="stable" if (rho_r < 1.0 and margin_ok) else "inconclusive",
                rho_active=rho_r,
                rho_ok=rho_r < 1.0,
                margin=margin,
                margin_ok=margin_ok,
            )
        )
    return out


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
    """Perturb witness conjectures and count returns to the record.

    Sample k starts from the witnesses plus uniform noise in
    [-epsilon, epsilon] drawn by ``default_rng((seed, k))``, clipped into
    the conjecture ranges, and runs as :func:`run_learning` would with the
    given ``tol`` and ``max_iter``. Samples are advanced together in blocks
    of ``PROBE_BLOCK`` rows; each one's verdict is that of its own run.
    """
    return _probe(spec, [record], epsilon, samples, seed, tol, max_iter)[0]


def _probe(spec, records, epsilon, samples, seed, tol, max_iter) -> list:
    """:func:`probe_stability` for every record of ``records`` at once.

    Samples go in chunks of at most ``PROBE_BLOCK``. Within a chunk, rows
    are (record, sample) pairs in record-major order, advanced by
    :func:`_advance` in blocks of at most ``PROBE_BLOCK`` rows, so a
    block holds consecutive samples of few records, and the runs of one
    record stop at nearly the same period. Sample k's noise does not depend on the record: each chunk
    draws its samples' noise once, and row (r, k) starts from
    ``clip(witness_r + noise_k, x_lo, x_hi)``, the start probe_stability
    gives sample k of record r on its own. Raises before any draw when
    records times samples exceeds ``_MAX_PROBE_RUNS``.
    """
    if samples < 1:
        raise UsageError("probe needs at least one sample")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise UsageError("epsilon must be a finite positive number")
    _check_stopping(tol, max_iter)
    count = len(records)
    if count * samples > _MAX_PROBE_RUNS:
        raise UsageError(
            f"probing {count} records with {samples} samples each needs "
            f"{count * samples} runs; limit is {_MAX_PROBE_RUNS}"
        )
    if not count:
        return []
    witnesses = np.array([rec.conjectures for rec in records]).reshape(count, spec.n)
    targets = np.array([rec.actions for rec in records]).reshape(count, spec.n)
    returned = np.zeros(count, dtype=int)
    stayed = np.zeros(count, dtype=int)
    nonconv = np.zeros(count, dtype=int)
    for first in range(0, samples, PROBE_BLOCK):
        chunk = min(PROBE_BLOCK, samples - first)
        noise = np.array([
            np.random.default_rng((seed, k)).uniform(-epsilon, epsilon, spec.n)
            for k in range(first, first + chunk)
        ])
        for lo in range(0, count * chunk, PROBE_BLOCK):
            rec, sample = np.divmod(np.arange(lo, min(lo + PROBE_BLOCK, count * chunk)), chunk)
            x0 = np.clip(witnesses[rec] + noise[sample], spec.x_lo, spec.x_hi)
            runs = _advance(spec, x0, tol, max_iter, WINDOW)
            converged = np.array([c == "converged" for c in runs.classification])
            nonconv += np.bincount(rec[~converged], minlength=count)
            final, rec = runs.final[converged], rec[converged]
            limit = best_reply(spec, final)
            back = np.abs(limit - targets[rec]).max(axis=1) <= 1e-6
            stay = np.abs(final - witnesses[rec]).max(axis=1) <= epsilon + 1e-6
            returned += np.bincount(rec[back], minlength=count)
            stayed += np.bincount(rec[stay], minlength=count)
    return [
        EmpiricalStability(
            epsilon=epsilon,
            samples=samples,
            seed=seed,
            return_fraction=int(returned[r]) / samples,
            belief_stay_fraction=int(stayed[r]) / samples,
            nonconverged=int(nonconv[r]),
        )
        for r in range(count)
    ]


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
    runs = list(_subset_runs(active))
    report = interior_conditions(submatrix(spec.net, active)) if active else None
    if active and not report.any_holds():
        return StableFamily(
            applicable=False,
            why="no interior-equilibrium condition holds on the active submatrix",
            members=(),
            skipped=(),
        )

    # Each member is its own fully active solve: one solve per subset.
    acts, _ = _solve_supports(spec, runs)
    found = {rec.active_set: rec for rec in _records(spec, acts, aggregate(spec, acts))}
    members, skipped = [], []
    for j in (frozenset(row) for run in runs for row in run.tolist()):
        if j not in found:
            skipped.append((j, "no fully active solution"))
            continue
        members.append(found[j])
    return StableFamily(
        applicable=True,
        why=None,
        members=tuple(zip(members, _analytic(spec, members))),
        skipped=tuple(skipped),
    )
