"""Adaptive conjecture dynamics driven by payoff feedback.

Each period every agent best-responds to its current conjecture about its
externality aggregate. Agents who played a positive action invert their
realized payoff to the exact aggregate and adopt it as next period's
conjecture; agents who sat out learn nothing and keep their conjecture
frozen. Inactivity is therefore absorbing, and the trajectory of inactive
sets is weakly increasing.

Runs are classified as converged, diverged, oscillating (a recurring state
or a recurring increment pattern riding on a drift), or max-iter. The
engine steps a stack of runs a block of periods at a time and then applies
the stopping rules to the whole block in one pass, period by period, so a
run stops, warns and records exactly as one stepped a period at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapBindingWarning, UsageError
from .game import _RANGE_SLACK, GameSpec, _check_count, _check_stopping, best_reply
# invert_feedback and realized_payoff are not called here; perfbench's span
# tracer wraps them under this module's names.
from .game import invert_feedback, realized_payoff  # noqa: F401
from .equilibrium import (
    ACTIVE_TOL,
    _U,
    _active_records,
    _check_agents,
    _subset_runs,
    _weights,
    interior_conditions,
    is_sce,
    make_record,
)
from .network import spectral_radius, submatrix

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

#: Recurrence window: the newest entries a period's recurrence scan compares.
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
#: counts: a history of 4 * RING * PROBE_BLOCK * n floats.
PROBE_BLOCK = 128
#: Periods of a stack's first block, and most periods of any block: the
#: stopping rules take each block in one pass.
_FIRST_BLOCK = 8
_BLOCK = 32
#: Most elements of one temporary of a block's recurrence scan, 2 k n
#: (RING - 2) per period of k rows of n agents: it caps the block length.
_SCAN_BUDGET = 1 << 16
#: Most periods of one probe run: the ``stability`` command's budget and
#: the default of :func:`probe_stability`.
PROBE_MAX_ITER = 20_000
#: Most probe runs, uncertified records times samples, one probe call may
#: start. On 2^10 records of 10 agents with 100 samples each, `stability`
#: takes about 15 s on a 2-vCPU VM when every record runs; a certified
#: record runs none.
_MAX_PROBE_RUNS = 1 << 17
#: The clip ufunc that ``ndarray.clip`` calls, without its Python wrapper.
_clip = np._core.umath.clip


@dataclass(frozen=True)
class StepResult:
    """One period of the dynamics."""

    actions: np.ndarray
    payoffs: np.ndarray
    conjectures_next: np.ndarray
    capped: tuple  # agents whose action pressed the cap
    clamped: tuple  # agents whose updated conjecture had to be clipped


def _step(spec: GameSpec, xh: np.ndarray, cap_at: np.ndarray, out=None) -> tuple:
    """Periods of the dynamics from conjectures ``xh``, one profile or a
    (k, n) stack: the engine's one step kernel.

    ``out`` is a block's (actions, payoffs, states, learned, flags): four
    float stacks (periods, *xh.shape) and one bool stack of that shape.
    Period p is stepped from the states of period p - 1, ``xh`` for the
    first, and written in place: its actions, payoffs, clipped next
    conjectures and, in ``learned``, next conjectures before the clip;
    ``flags[p]`` holds its active mask until the block ends. Returns the
    actions, payoffs and states, and the masks of entries whose action
    reached ``cap_at`` (capped) and whose next conjecture had to be clipped
    (clamped). Without ``out`` it steps one period and returns that
    period's five arrays.

    A period from conjectures x is one matvec, Z a, and twelve elementwise
    operations, in this order:

    1. alpha + x, 2. a = clip(that, 0, a_max), 3. h = a * 0.5, which
    equals a / 2 exactly, 4. alpha * a, 5. h * a, 6. (4) - (5), 7. a * (Z a),
    8. m = (6) + (7); then, only where a > 0, 9. m / a, 10. (9) - alpha,
    11. l = (10) + h, which is ``invert_feedback``, while the other entries
    keep x; 12. the state clip(l, x_lo, x_hi).

    h lives in the state's slot until 12 and each intermediate in the
    block's own arrays, so nothing is allocated per period. Both clips call
    the clip ufunc itself, which keeps a -0.0 that ``np.maximum`` would turn
    into +0.0, and no 0/0 is evaluated.
    """
    one = out is None
    if one:
        out = (*np.empty((4, 1) + xh.shape), np.empty((1,) + xh.shape, dtype=bool))
    acts, pays, states, learned, flags = out
    alpha = spec.alpha
    for a, m, x, nxt, active in zip(acts, pays, states, learned, flags):
        h = x  # the state's slot holds a / 2 until the final clip
        np.add(alpha, xh, out=a)
        _clip(a, 0.0, spec.a_max, out=a)
        np.multiply(a, 0.5, out=h)
        np.multiply(alpha, a, out=m)
        np.multiply(h, a, out=nxt)
        np.subtract(m, nxt, out=m)
        np.matvec(spec.net.z, a, out=nxt)
        np.multiply(a, nxt, out=nxt)
        np.add(m, nxt, out=m)
        np.greater(a, 0.0, out=active)
        nxt[...] = xh
        np.divide(m, a, out=nxt, where=active)
        np.subtract(nxt, alpha, out=nxt, where=active)
        np.add(nxt, h, out=nxt, where=active)
        _clip(nxt, spec.x_lo, spec.x_hi, out=x)
        xh = x
    result = acts, pays, states, acts >= cap_at, np.not_equal(states, learned, out=flags)
    return tuple(v[0] for v in result) if one else result


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
    """Advance the dynamics one period from one profile of finite conjectures."""
    xh = np.asarray(conjectures, dtype=float)
    _check_agents(spec, conjectures=xh)
    if not np.isfinite(xh).all():
        raise UsageError("conjectures must be finite")
    a, m, clipped, capped, clamped = _step(spec, xh, spec.a_max - CAP_WARN_MARGIN)
    if np.count_nonzero(capped):
        _warn_cap(capped, stacklevel=2)
    return StepResult(
        actions=a,
        payoffs=m,
        conjectures_next=clipped,
        capped=tuple(np.flatnonzero(capped).tolist()),
        clamped=tuple(np.flatnonzero(clamped).tolist()),
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


def _varying(hist: np.ndarray, tol: float) -> tuple:
    """Agents whose entries in ``hist`` (n, m), one column per period, vary."""
    span = hist.max(axis=1) - hist.min(axis=1)
    return tuple(int(i) for i in np.flatnonzero(span > tol))


def _lags(win: np.ndarray) -> Optional[np.ndarray]:
    """Per row and period, the smallest lag >= 2 at which the newest entry
    of ``win`` repeats (0 where none does), or None when it repeats nowhere.

    ``win`` is (rows, n, periods, m): each period's window of its m <=
    ``RING`` newest entries, oldest first. An entry holding NaN never
    matches. A true cycle of this piecewise-linear map is hit exactly once
    the transient dies, so its recurrence defect sits many orders below the
    cycle amplitude. A geometrically decaying tail also produces small lag
    differences (alternating modes shrink them below any absolute tolerance
    while still converging), but there the defect stays a fixed FRACTION of
    the window amplitude. Hence the two-sided test: the defect must be below
    ``RECUR_TOL`` absolutely and a millionth of the window span, and the
    window itself must not be flat (that would be convergence).
    """
    count, _, size, m = win.shape
    # Column j of the (rows, periods, m - 2) tables below is lag j + 2. A lag
    # is near only where each agent's entries are; one agent per row, the
    # one that moved most into the newest entry, screens them first.
    probe = np.abs(win[:, :, -1, -1] - win[:, :, -1, -2]).argmax(axis=1)
    one = win[np.arange(count), probe]
    rows, periods, cols = np.nonzero(np.abs(one[..., -3::-1] - one[..., -1:]) <= RECUR_TOL)
    if not len(rows):
        return None
    gap = np.abs(win[rows, :, periods, m - 3 - cols] - win[rows, :, periods, m - 1]).max(axis=1)
    near = np.zeros((count, size, m - 2), dtype=bool)
    near[rows, periods, cols] = gap <= RECUR_TOL
    if not np.count_nonzero(near):
        return None
    defect = np.zeros((count, size, m - 2))
    defect[rows, periods, cols] = gap
    rows, periods = np.nonzero(near.any(axis=2))
    # Lag j's window is the j newest entries, so no lag past the longest
    # near one needs more. Their running extremes, newest first, give every
    # window's span.
    longest = int(np.flatnonzero(near.any(axis=(0, 1)))[-1]) + 2
    back = win[rows, :, periods, : -longest - 1 : -1]
    span = np.maximum.accumulate(back, axis=2) - np.minimum.accumulate(back, axis=2)
    span = span.max(axis=1)[:, 1:]
    defect = defect[rows, periods, : longest - 1]
    ok = near[rows, periods, : longest - 1] & (span > RECUR_TOL) & (defect <= 1e-6 * span)
    found = ok.any(axis=1)
    if not np.count_nonzero(found):
        return None
    lags = np.zeros(win.shape[::2], dtype=int)
    lags[rows[found], periods[found]] = ok[found].argmax(axis=1) + 2
    return lags


@dataclass(frozen=True)
class _Runs:
    """Per-row outcome of :func:`_advance`."""

    classification: list
    steps: list
    oscillation: list  # (period_kind, period, cycle_agents) where oscillating, else None
    final: np.ndarray  # last conjectures, (k, n)


def _settling(change, quiet, tol, window) -> float:
    """Periods until every row meets the quiet rule if its sup-norm change
    keeps shrinking by the ratio of its last two, ``change`` (k, periods)
    and the rows' quiet runs ``quiet``: inf when a moving row's change does
    not shrink or a block is one period."""
    c = change[:, -1]
    calm = c < tol
    need = np.where(calm, window - quiet, np.inf)
    if change.shape[1] > 1:
        c0 = change[:, -2]
        shrink = ~calm & (c <= 0.999 * c0)
        c, c0 = c[shrink], c0[shrink]
        need[shrink] = np.floor((np.log(tol) - np.log(c)) / np.log(c / c0)) + window
    return need.max()


def _advance(spec, x0, tol, max_iter, window, on_block=None) -> _Runs:
    """Run the dynamics from every row of ``x0`` (k, n) at once.

    The live stack steps a block of periods in one :func:`_step` call,
    which writes them into the block's stacks, and then applies the
    stopping rules to the whole block in one pass, per row and period in
    order: ``window`` consecutive sup-norm changes below ``tol``
    (converged); an action or conjecture beyond ``DIVERGENCE_CAP`` in
    magnitude (diverged); the same state recurrence, or else increment
    recurrence while the state still moves, found in two consecutive
    periods (oscillating). A row stops at its first such period and leaves
    the stack after the block; rows live after ``max_iter`` periods are
    max-iter. Periods a row steps past its stop leave no trace: they warn
    of no cap and reach no caller.

    The first block is ``_FIRST_BLOCK`` periods. Each later one is at most
    twice the last and ``_BLOCK`` long, and no longer than the slowest row
    needs to settle at its latest rate (:func:`_settling`), so a converging
    run steps few periods past its stop. Where the game's bounds or
    intercepts would let a run diverge or overflow, blocks are one period;
    a block is also cut to keep the recurrence scan's temporaries within
    ``_SCAN_BUDGET`` elements, one period at least.

    ``on_block(t, actions, payoffs, conjectures_next, capped, clamped)``
    sees each block from its first period ``t`` up to the period its last
    row stops, as (periods, k, n) stacks, the last two as masks.
    """
    k, n = x0.shape
    classification = ["max-iter"] * k
    steps = [max_iter] * k
    oscillation = [None] * k
    final = x0.copy()
    cap_at = spec.a_max - CAP_WARN_MARGIN
    # Actions stay in [0, a_max] and conjectures in [x_lo, x_hi]: when those
    # bounds are within the cap no run can diverge. When alpha is within it
    # too, no period a row steps past its stop can overflow.
    bound = max(spec.a_max.max(), -spec.x_lo.min(), spec.x_hi.max())
    can_diverge = bound > DIVERGENCE_CAP
    longest = 1 if max(bound, np.abs(spec.alpha).max()) > DIVERGENCE_CAP else _BLOCK

    live = np.arange(k)
    xh = x0
    # States in rows [0, k) and the increments that led to them in rows
    # [k, 2k), periods along the last axis; column ``end`` takes the next
    # state, and the RING - 1 columns before it hold the preceding entries,
    # NaN before x0 and in x0's own increment: NaN never matches.
    hist = np.full((2 * k, n, 2 * RING), np.nan)
    end = RING - 1
    hist[:k, :, end - 1] = x0
    quiet = np.zeros(k, dtype=int)
    # Recurrence hit of each row's latest period: +lag for a state
    # recurrence, -lag for an increment one, 0 for none.
    last = np.zeros(k, dtype=int)

    t = 0
    size = min(_FIRST_BLOCK, longest)
    while t < max_iter:
        k = len(live)
        size = min(size, max_iter - t, max(1, _SCAN_BUDGET // (2 * k * n * RING)))
        if end + size > hist.shape[2]:
            hist[:, :, : RING - 1] = hist[:, :, end - RING + 1 : end]
            end = RING - 1
        block = (*np.empty((4, size, k, n)), np.empty((size, k, n), dtype=bool))
        acts, pays, states, caps, clamps = _step(spec, xh, cap_at, block)
        xh = states[-1]
        new = hist[:k, :, end : end + size]
        new[...] = states.transpose(1, 2, 0)
        incr = hist[k:, :, end : end + size]
        np.subtract(new, hist[:k, :, end - 1 : end + size - 1], out=incr)
        change = np.abs(incr).max(axis=1)
        moving = change >= tol

        idx = np.arange(size)
        if np.count_nonzero(moving) == moving.size:
            quiet = np.zeros(k, dtype=int)
            converged = np.zeros((k, size), dtype=bool)
        else:
            # The quiet run ending at each period, continued from the last block.
            mark = np.maximum.accumulate(np.where(moving, idx, -1), axis=1)
            run = np.where(mark >= 0, idx - mark, quiet[:, None] + idx + 1)
            quiet = run[:, -1]
            converged = run >= window
        stop = converged
        diverged = None
        if can_diverge:
            diverged = ~converged & (
                (np.abs(acts).max(axis=2).T > DIVERGENCE_CAP)
                | (np.abs(new).max(axis=1) > DIVERGENCE_CAP)
            )
            stop = stop | diverged
        # Rows stopping at the block's first period anyway need no recurrence
        # test; a frozen state (change below tol) has no increment pattern,
        # so without a moving row the scan covers the states alone.
        hit = None
        if np.count_nonzero(stop[:, 0]) < k:
            scanned = 2 * k if np.count_nonzero(moving) else k
            # The last period's window needs no entry before x0: t + size + 1.
            width = min(RING, t + size + 1)
            # Window p of row r is hist[r, :, end + p - width + 1 : end + p + 1];
            # a view made by hand, without sliding_window_view's overhead.
            s0, s1, s2 = hist.strides
            win = np.ndarray((scanned, n, size, width), hist.dtype, hist,
                             (end - width + 1) * s2, (s0, s1, s2, s2))
            lags = _lags(win)
            if lags is not None:
                hit = lags[:k]
                if scanned > k:
                    hit = np.where(hit > 0, hit, np.where(moving, -lags[k:], 0))
                # Two consecutive periods with the same hit confirm it.
                before = np.concatenate((last[:, None], hit[:, :-1]), axis=1)
                stop = stop | ((hit != 0) & (hit == before))
                last = hit[:, -1]
            else:
                last = np.zeros(k, dtype=int)

        done = stop.any(axis=1)
        stopping = np.count_nonzero(done)
        first = np.where(done, stop.argmax(axis=1), size)
        if np.count_nonzero(caps):
            pressed = caps & (idx[:, None] <= first)[:, :, None]
            for p in np.flatnonzero(pressed.any(axis=(1, 2))).tolist():
                _warn_cap(pressed[p], stacklevel=1)
        if on_block is not None:
            shown = min(size, int(first.max()) + 1)
            on_block(t, acts[:shown], pays[:shown], states[:shown], caps[:shown],
                     clamps[:shown])
        if stopping:
            for r in np.flatnonzero(done).tolist():
                p = int(first[r])
                row = int(live[r])
                steps[row] = t + p + 1
                final[row] = states[p, r]
                if converged[r, p]:
                    classification[row] = "converged"
                elif diverged is not None and diverged[r, p]:
                    classification[row] = "diverged"
                else:
                    classification[row] = "oscillating"
                    code = int(hit[r, p])
                    period = abs(code)
                    cycle = win[r if code > 0 else k + r, :, p, -period:]
                    oscillation[row] = ("state" if code > 0 else "increment", period,
                                        _varying(cycle, RECUR_TOL))
            if stopping == k:
                break
            keep = ~done
            live, xh, quiet, last = live[keep], xh[keep], quiet[keep], last[keep]
            change = change[keep]
            hist = hist[np.concatenate((keep, keep))]
        end += size
        t += size
        # Each block is at most twice as long as the last, and no longer
        # than the slowest row needs to settle at its latest rate.
        size = int(min(2 * size, longest, _settling(change, quiet, tol, window)))
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
    The run advances in blocks of periods; the trajectory, events and cap
    warnings end at the period it stops.

    The limit record of a converged run keeps the trajectory's own final
    conjectures as witnesses, so frozen beliefs of agents who dropped out
    along the way are preserved. Its selfconfirming check runs at
    ``max(1e-9, 100 * tol)`` to absorb the stopping slack.
    """
    _check_stopping(tol, max_iter)
    _check_count(window, "window")
    xh = np.asarray(initial, dtype=float).copy()
    _check_agents(spec, **{"initial conjectures": xh})
    # "Not inside" rather than "below or above": a NaN start is outside.
    outside = ~((xh >= spec.x_lo - _RANGE_SLACK) & (xh <= spec.x_hi + _RANGE_SLACK))
    if np.any(outside):
        i = int(np.flatnonzero(outside)[0])
        raise UsageError(
            f"initial conjecture for agent {i} lies outside its admissible range"
        )

    conj_hist, act_hist, pay_hist = [xh[None]], [], []
    clamp_events, cap_events = [], []

    def record(t, a, m, new, capped, clamped):
        act_hist.append(a[:, 0])
        pay_hist.append(m[:, 0])
        conj_hist.append(new[:, 0])
        for events, mask in ((clamp_events, clamped), (cap_events, capped)):
            periods, agents = np.nonzero(mask[:, 0])
            events.extend(zip((periods + t).tolist(), agents.tolist()))

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
        conjectures=np.concatenate(conj_hist),
        actions=np.concatenate(act_hist),
        payoffs=np.concatenate(pay_hist),
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


def _stacks(spec: GameSpec, records) -> tuple:
    """Witnesses and actions of ``records`` from this game: two (count, n) stacks."""
    for rec in records:
        _check_agents(spec, actions=rec.actions, conjectures=rec.conjectures)
    return (np.array([rec.conjectures for rec in records]).reshape(-1, spec.n),
            np.array([rec.actions for rec in records]).reshape(-1, spec.n))


def _analytic(spec: GameSpec, records) -> list:
    """:func:`analytic_stability` for every record of ``records`` at once.

    The active submatrices of one size go through one stacked
    ``spectral_radius``, whose radius per matrix is that of its own call. A
    record's margin is its first smallest inactive entry, as ``min`` picks
    it.
    """
    conj = _stacks(spec, records)[0]
    count, n = len(records), spec.n
    active = np.zeros((count, n), dtype=bool)
    for r, rec in enumerate(records):
        active[r, list(rec.active_set)] = True
    sizes = active.sum(axis=1)
    rho = np.zeros(count)
    for m in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == m)
        idx = np.nonzero(active[rows])[1].reshape(len(rows), m)
        rho[rows] = spectral_radius(spec.net.z[idx[:, :, None], idx[:, None, :]])
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
    max_iter: int = PROBE_MAX_ITER,
) -> EmpiricalStability:
    """Perturb witness conjectures and count returns to the record.

    Sample k starts from the witnesses plus uniform noise in
    [-epsilon, epsilon] drawn by ``default_rng((seed, k))``, clipped into
    the conjecture ranges, and runs as :func:`run_learning` would with the
    given ``tol`` and ``max_iter``. Samples are advanced together in blocks
    of ``PROBE_BLOCK`` rows; each one's verdict is that of its own run. When
    a contraction certificate proves that every start within epsilon
    returns, within ``max_iter`` and clear of the cap, all samples count
    as returned and stayed, and none is drawn or run.
    """
    return _probe(spec, [record], epsilon, samples, seed, tol, max_iter)[0]


def _certificate(spec, witnesses, targets, epsilon, tol, max_iter):
    """Per record, whether every start x0 = clip(w + noise, x_lo, x_hi) with
    |noise| <= epsilon converges, returns and stays within ``max_iter``,
    clear of the cap. For w in [x_lo, x_hi] the clip only moves x0 closer
    to w, so err = epsilon + 2u (|w| + epsilon), u the unit roundoff,
    bounds |x0 - w| and its computed value: twice the rounding of w + noise.

    Why. Let S be the record's active agents (a* > 0) and e = x - w on S.
    An agent with alpha + x <= 0 plays 0, learns nothing and stays out, so
    while each active action stays in (0, a_max - CAP_WARN_MARGIN) and each
    active belief in [x_lo, x_hi], a period is e <- Z_SS e + g, where g
    holds the record's own residuals and the rounding of :func:`_step`.
    Any weights v > 0 give the norm |e|_v = max |e_i| / v_i, in which Z_SS
    contracts by q, the largest (|Z_SS| v_S)_i / v_i, and |g|_v <= d. One
    solve gives them, the Nash certificate's: v = (I - |Z|)^-1 1 when that
    is finite and positive (``equilibrium._weights``), else v = 1. So
    |e_t|_v <= q^t |e_0|_v + d / (1 - q). With lo and hi the least and
    largest v on S, a record certifies only when (2 to 5 and 7 each with a
    safety factor of 2):

    1. q < 1;
    2. no false recurrence: (1 - q^2) lo / (2 hi) bounds a lag's defect
       over the window span from below, for states and increments alike;
       it exceeds 2e-6, and the rounding cannot lift a span above
       ``RECUR_TOL``;
    3. the quiet rule fires by ``max_iter``: every change is below tol / 2
       from period max_iter - WINDOW on;
    4. the stopping error passes the return test: at a change below tol
       the state is within hi (q tol / lo + d) / (1 - q) of the witnesses,
       and that plus the record's action residual is at most 1e-6 / 2;
    5. the rounding floor of a change, 2 hi d / (1 - q), is at most tol / 4;
    6. err over v on S, plus the drift d / (1 - q), fits the room: the
       distance of a*_S to 0 and to the cap margin, less the record's
       action residual c = |alpha + w - a*|, and of w_S to the belief
       bounds, each over v;
    7. each inactive agent has w in [x_lo, x_hi], an action 0 below the cap
       margin and alpha + w + err + 2u (|alpha| + |w|) <= 0, twice the
       rounding of that sum, so alpha + x0 <= 0; and |x0 - w| <= err passes
       the stay test for every w and epsilon the divergence gate admits.

    The rounding of a period is taken as (n + 12) u times the record's
    scale, over active agents only: n for the matvec, a dozen for the
    twelve elementwise operations :func:`_step` lists. No record
    certifies in a game whose bounds would let ``_advance`` test for
    divergence.
    """
    n = spec.n
    z = np.abs(spec.net.z)
    v = _weights(z)
    if v is None:
        v = np.ones(n)
    # q >= 1 overflows q ** t and 1 - q can vanish: such records fail a test.
    with np.errstate(all="ignore"):
        on = targets > 0
        inv_v = np.where(on, 1.0 / v, 0.0)

        def over_s(values):
            """Per record, the largest of ``values`` over its active agents, or 0."""
            return np.where(on, values, 0.0).max(axis=1)

        q = over_s(on @ (z * v).T * inv_v) * (1.0 + 4 * n * _U)
        hi = over_s(v)
        lo = np.where(on, v, np.inf).min(axis=1)
        empty = hi == 0.0
        lo[empty] = hi[empty] = 1.0
        scale = over_s(np.abs(spec.alpha) + np.abs(witnesses) + 2 * targets + 2 * (targets @ z.T))
        c = over_s(np.abs(spec.alpha + witnesses - targets)) + _U * scale
        d = (over_s(np.abs(targets @ spec.net.z.T - witnesses)) + q * c
             + 2 * (n + 12) * _U * scale) / lo
        cap_at = spec.a_max - CAP_WARN_MARGIN
        room = np.minimum(np.minimum(targets, cap_at - targets) - c[:, None],
                          np.minimum(witnesses - spec.x_lo, spec.x_hi - witnesses))
        room = np.where(on, room * inv_v, np.inf).min(axis=1)
        room[empty] = 0.0
        gate = max_iter >= WINDOW and (
            max(spec.a_max.max(), -spec.x_lo.min(), spec.x_hi.max()) <= DIVERGENCE_CAP
        )
        drift = d / (1.0 - q)
        lim = room * (1.0 - 1e-9) - drift
        ratio = (1.0 - q * q) * lo / (2.0 * hi)
        reach = hi * drift
        err = epsilon + 2 * _U * (np.abs(witnesses) + epsilon)
        asleep = (
            (np.clip(witnesses, spec.x_lo, spec.x_hi) == witnesses)
            & (cap_at > 0)
            & (spec.alpha + witnesses + err
               + 2 * _U * (np.abs(spec.alpha) + np.abs(witnesses)) <= 0)
        )
        return (
            gate
            & (q < 1.0)
            & (ratio > 2e-6)
            & (2.0 * reach * (4.0 / ratio + 2.0) <= RECUR_TOL / 2)
            & (hi * ((1.0 + q) * q ** max(max_iter - WINDOW, 0) * lim + 2.0 * drift) <= tol / 2)
            & (hi * (q * tol / lo + d) / (1.0 - q) + c <= 0.5e-6)
            & (2.0 * reach <= tol / 4)
            & ((err * inv_v).max(axis=1) <= lim)
            & (on | asleep).all(axis=1)
        )


def _probe(spec, records, epsilon, samples, seed, tol, max_iter) -> list:
    """:func:`probe_stability` for every record of ``records`` at once.

    A record that :func:`_certificate` decides counts every sample as
    returned and stayed, with no draw and no run. The other records' samples
    go in chunks of at most ``PROBE_BLOCK``, each sample drawn once: row (r,
    k) starts from ``clip(witness_r + noise_k, x_lo, x_hi)``, the start
    probe_stability gives sample k of record r alone. A chunk's rows run
    record-major in blocks of at most ``PROBE_BLOCK`` rows, one
    :func:`_advance` call each, so a block's runs stop at nearly the same
    period. Raises before the certificate when ``samples`` is not an
    integer of at least 1 or ``seed`` one of at least 0, and before any
    draw when the uncertified records times samples exceed
    ``_MAX_PROBE_RUNS``.
    """
    _check_count(samples, "samples")
    _check_count(seed, "seed", 0)
    # The draws span [-epsilon, epsilon], whose width must be finite too.
    if not (epsilon > 0 and np.isfinite(2 * epsilon)):
        raise UsageError("epsilon must be positive, and 2 * epsilon finite")
    _check_stopping(tol, max_iter)
    witnesses, targets = _stacks(spec, records)
    certified = _certificate(spec, witnesses, targets, epsilon, tol, max_iter)
    todo = np.flatnonzero(~certified)
    count = len(todo)
    if count * samples > _MAX_PROBE_RUNS:
        raise UsageError(
            f"probing {count} uncertified records with {samples} samples each "
            f"needs {count * samples} runs; limit is {_MAX_PROBE_RUNS}"
        )
    witnesses, targets = witnesses[todo], targets[todo]
    returned, stayed, nonconv = np.zeros((3, count), dtype=int)
    for first in range(0, samples if count else 0, PROBE_BLOCK):
        chunk = min(PROBE_BLOCK, samples - first)
        noise = np.array([np.random.default_rng((seed, k)).uniform(-epsilon, epsilon, spec.n)
                          for k in range(first, first + chunk)])
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
    # Python ints: a certified record counts samples itself, of any size.
    simulated = iter(zip(returned.tolist(), stayed.tolist(), nonconv.tolist()))
    counts = [(samples, samples, 0) if ok else next(simulated) for ok in certified.tolist()]
    return [EmpiricalStability(epsilon, samples, seed, back / samples, stay / samples, missed)
            for back, stay, missed in counts]


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
    if not interior_conditions(submatrix(spec.net, active)).any_holds():
        return StableFamily(
            applicable=False,
            why="no interior-equilibrium condition holds on the active submatrix",
            members=(),
            skipped=(),
        )

    # Each member is its own fully active solve: one solve per subset.
    found = {rec.active_set: rec for rec in _active_records(spec, runs)[0]}
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
