"""The batched learning engine against the one-run-at-a-time loops.

``reference_run_learning`` and ``reference_probe`` are the scalar loops the
engine replaced: one learn step per period on one conjecture vector, a
Python scan over lags for recurrences, and one full run per probe sample.
Every trajectory field, event list, limit record and probe statistic must
come out bit for bit the same from ``run_learning`` and ``probe_stability``.
"""

import warnings
from typing import Optional

import numpy as np
import pytest

from netsce import (
    CapBindingWarning,
    UsageError,
    WeightedNetwork,
    enumerate_sce,
    is_sce,
    make_game,
    make_record,
    probe_stability,
    run_learning,
)
from netsce.equilibrium import ACTIVE_TOL
from netsce.game import best_reply, invert_feedback
from netsce.learning import CAP_WARN_MARGIN, PROBE_BLOCK, RECUR_TOL, RING

from conftest import ADJ4, MIXED4


# --------------------------------------------------------------- references


def reference_step(spec, xh):
    a = best_reply(spec, xh)
    m = spec.alpha * a - 0.5 * a * a + a * (spec.net.z @ a)
    capped = tuple(int(i) for i in np.flatnonzero(a >= spec.a_max - CAP_WARN_MARGIN))
    nxt = xh.copy()
    active = a > 0
    if np.any(active):
        nxt[active] = invert_feedback(spec.alpha[active], a[active], m[active])
    clipped = np.clip(nxt, spec.x_lo, spec.x_hi)
    clamped = tuple(int(i) for i in np.flatnonzero(clipped != nxt))
    return a, m, clipped, capped, clamped


def reference_find_recurrence(recent: list, tol: float) -> Optional[int]:
    m = len(recent)
    if m < 3:
        return None
    arr = np.asarray(recent)
    diffs = np.max(np.abs(arr[: m - 2] - arr[-1]), axis=1)
    for idx in np.flatnonzero(diffs <= tol)[::-1]:
        lag = m - 1 - int(idx)
        window = arr[-lag:]
        span = float(np.max(window.max(axis=0) - window.min(axis=0)))
        if span > tol and diffs[idx] <= 1e-6 * span:
            return lag
    return None


def reference_varying(rows, tol):
    span = rows.max(axis=0) - rows.min(axis=0)
    return tuple(int(i) for i in np.flatnonzero(span > tol))


def reference_run_learning(spec, initial, tol=1e-10, max_iter=100_000, window=3,
                           divergence_cap=1e9):
    xh = np.asarray(initial, dtype=float).copy()
    conj_hist = [xh.copy()]
    act_hist, pay_hist = [], []
    clamp_events, cap_events = [], []
    recent_states = [xh.copy()]
    recent_incr = []
    quiet = 0
    classification = "max-iter"
    period = period_kind = cycle_agents = None
    pending = None

    for t in range(max_iter):
        a, m, new, capped, clamped = reference_step(spec, xh)
        act_hist.append(a)
        pay_hist.append(m)
        conj_hist.append(new)
        clamp_events.extend((t, i) for i in clamped)
        cap_events.extend((t, i) for i in capped)

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
            float(np.max(np.abs(a))) > divergence_cap
            or float(np.max(np.abs(new))) > divergence_cap
        ):
            classification = "diverged"
            break

        hit = None
        lag = reference_find_recurrence(recent_states, RECUR_TOL)
        if lag is not None:
            hit = ("state", lag)
        else:
            lag = reference_find_recurrence(recent_incr, RECUR_TOL)
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
            cycle_agents = reference_varying(np.asarray(ring[-period:]), RECUR_TOL)
            break

    limit = limit_is_sce = None
    if classification == "converged":
        a_inf = best_reply(spec, xh)
        declared = frozenset(int(i) for i in np.flatnonzero(a_inf <= ACTIVE_TOL))
        limit = make_record(spec, a_inf, declared_inactive=declared, conjectures=xh,
                            validate=False)
        limit_is_sce = is_sce(spec, a_inf, xh, tol=max(1e-9, 100 * tol)).ok
    return dict(
        conjectures=np.asarray(conj_hist),
        actions=np.asarray(act_hist),
        payoffs=np.asarray(pay_hist),
        classification=classification,
        period=period,
        period_kind=period_kind,
        cycle_agents=cycle_agents,
        steps=len(act_hist),
        limit=limit,
        limit_is_sce=limit_is_sce,
        clamp_events=tuple(clamp_events),
        cap_events=tuple(cap_events),
    )


def reference_probe(spec, record, epsilon, samples, seed, tol=1e-10, max_iter=20_000):
    returned = stayed = nonconv = 0
    for k in range(samples):
        rng = np.random.default_rng((seed, k))
        x0 = record.conjectures + rng.uniform(-epsilon, epsilon, spec.n)
        x0 = np.clip(x0, spec.x_lo, spec.x_hi)
        traj = reference_run_learning(spec, x0, tol=tol, max_iter=max_iter)
        if traj["classification"] != "converged":
            nonconv += 1
            continue
        if float(np.max(np.abs(traj["limit"].actions - record.actions))) <= 1e-6:
            returned += 1
        if float(np.max(np.abs(traj["limit"].conjectures - record.conjectures))) <= epsilon + 1e-6:
            stayed += 1
    return (returned / samples, stayed / samples, nonconv)


# ------------------------------------------------------------------ battery


def _hand_cases():
    """Games chosen to reach each stopping rule and each event kind."""
    two = lambda w: WeightedNetwork(z=np.array([[0.0, w], [w, 0.0]]))  # noqa: E731
    return [
        (make_game(WeightedNetwork(z=0.9 * ADJ4), alpha=0.1), [0.01, 0.02, 0.03, 0.04], 100_000),
        (make_game(WeightedNetwork(z=1.0 * ADJ4), alpha=0.1), [0.01, 0.02, 0.03, 0.04], 2000),
        (make_game(two(-1.0), alpha=1.0), [-0.3, -0.3], 100_000),
        (make_game(two(2.0), alpha=1.0, a_max=1e12, x_lo=-4e12, x_hi=4e12), [0.5, 0.5], 100_000),
        (make_game(two(1.0), alpha=0.1), [0.0, 0.0], 50),
        (make_game(WeightedNetwork(z=MIXED4), alpha=0.1), [0.2, 0.2, -0.05, 0.2], 100_000),
        (make_game(two(0.5), alpha=0.9, a_max=1.0), [0.5, 0.5], 100_000),
        # alternating decay by 1 - 2.5e-6 a period: the lag-2 defect is below
        # RECUR_TOL but not a millionth of the window span, so no cycle
        (make_game(two(-(1 - 2.5e-6)), alpha=1.0), [-0.5 + 1e-4, -0.5], 200),
        # tight ranges: the inverted aggregate of a capped agent can land one
        # rounding step outside its range and is clamped back
        (make_game(two(0.323), alpha=0.953, a_max=1.0, x_lo=-0.323, x_hi=0.323),
         [0.323, 0.323], 100_000),
    ]


def _random_cases(count=120, seed=2024):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        z = rng.uniform(-1.0, 1.0, (n, n)) * rng.choice([0.3, 0.8, 1.2, 2.0])
        if rng.random() < 0.4:
            z = np.abs(z)
        np.fill_diagonal(z, 0.0)
        alpha = rng.uniform(-0.2, 0.5, n)
        a_max = None if rng.random() < 0.5 else rng.uniform(0.2, 2.0, n)
        game = make_game(WeightedNetwork(z=z), alpha=alpha, a_max=a_max)
        x0 = rng.uniform(game.x_lo, game.x_hi) * rng.choice([1e-3, 0.1, 1.0])
        cases.append((game, x0, int(rng.choice([40, 400, 5000]))))
    return cases


BATTERY = _hand_cases() + _random_cases()


def _run_both(game, x0, max_iter):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapBindingWarning)
        new = run_learning(game, np.asarray(x0, dtype=float), max_iter=max_iter)
        ref = reference_run_learning(game, x0, max_iter=max_iter)
    return new, ref


def test_run_learning_matches_scalar_loop_bit_for_bit():
    seen = set()
    for game, x0, max_iter in BATTERY:
        new, ref = _run_both(game, x0, max_iter)
        for name in ("classification", "period", "period_kind", "cycle_agents", "steps",
                     "limit_is_sce", "clamp_events", "cap_events"):
            assert getattr(new, name) == ref[name], name
        for name in ("conjectures", "actions", "payoffs"):
            assert getattr(new, name).tobytes() == ref[name].tobytes(), name
            assert getattr(new, name).shape == ref[name].shape, name
        if ref["limit"] is None:
            assert new.limit is None
        else:
            for name in ("active_set", "declared_inactive", "kind"):
                assert getattr(new.limit, name) == getattr(ref["limit"], name)
            assert new.limit.actions.tobytes() == ref["limit"].actions.tobytes()
            assert new.limit.conjectures.tobytes() == ref["limit"].conjectures.tobytes()
        seen.add(ref["classification"] if ref["period_kind"] is None
                 else f"oscillating-{ref['period_kind']}")
        seen.update(name for name in ("clamp_events", "cap_events") if ref[name])
    # the battery must reach every stopping rule and both event kinds
    assert seen >= {"converged", "diverged", "oscillating-state", "oscillating-increment",
                    "max-iter", "clamp_events", "cap_events"}, seen


def _probe_cases():
    knife = make_game(WeightedNetwork(z=0.2 * ADJ4), alpha=0.1, a_max=1.0, x_lo=-0.1, x_hi=0.6)
    zero = make_record(knife, np.zeros(4), declared_inactive=frozenset(range(4)))
    cases = [(knife, zero, 1e-3, PROBE_BLOCK + 9, 7, 2000)]
    # agent 0 at its dropout threshold: a sample cycles when agent 0 wakes
    # up and agent 1 turns more pessimistic, and settles otherwise, so
    # rows stop at different periods with different verdicts
    knife2 = make_game(WeightedNetwork(z=-(np.ones((2, 2)) - np.eye(2))), alpha=1.0)
    edge = make_record(knife2, np.array([0.0, 1.0]), conjectures=np.array([-1.0, 0.0]))
    cases.append((knife2, edge, 1e-3, 40, 0, 200))
    # beliefs around a start from which runs drift or cycle instead of settling
    for z, x in ((1.0 * ADJ4, [0.01, 0.02, 0.03, 0.04]),
                 (-(np.ones((2, 2)) - np.eye(2)), [-0.3, -0.3])):
        game = make_game(WeightedNetwork(z=z), alpha=0.1)
        start = make_record(game, best_reply(game, np.array(x)), conjectures=np.array(x),
                            validate=False)
        cases.append((game, start, 1e-3, 25, 3, 300))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-0.5, 0.5, (4, 4))
        np.fill_diagonal(z, 0.0)
        game = make_game(WeightedNetwork(z=z), alpha=0.1, a_max=rng.choice([None, 0.3]))
        for rec in enumerate_sce(game)[0][:3]:
            cases.append((game, rec, 1e-2, 20, seed, 500))
    return cases


def test_probe_matches_per_sample_loop():
    fractions = set()
    blocks = []
    mixed = False
    for game, rec, eps, samples, seed, max_iter in _probe_cases():
        blocks.append(samples > PROBE_BLOCK)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapBindingWarning)
            new = probe_stability(game, rec, epsilon=eps, samples=samples, seed=seed,
                                  max_iter=max_iter)
            ref = reference_probe(game, rec, eps, samples, seed, max_iter=max_iter)
        assert (new.epsilon, new.samples, new.seed) == (eps, samples, seed)
        assert (new.return_fraction, new.belief_stay_fraction, new.nonconverged) == ref
        fractions.add((0.0 < ref[0] < 1.0, ref[2] > 0))
        mixed = mixed or 0 < ref[2] < samples
    # one probe spans several blocks, one mixes settling and unsettled
    # runs; some return only partly, some have runs that never settle
    assert any(blocks) and mixed
    assert (True, False) in fractions and any(nonconv for _, nonconv in fractions)


# ----------------------------------------------------------- probe arguments


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -1e-3},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"tol": 0.0},
        {"tol": -1e-10},
        {"max_iter": 0},
        {"samples": 0},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_probe_rejects_bad_arguments_before_any_run(positive_game, kwargs, monkeypatch):
    from netsce import learning

    def no_runs(*args, **kw):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(learning, "learn_step", no_runs)
    rec = enumerate_sce(positive_game)[0][0]
    with pytest.raises(UsageError):
        probe_stability(positive_game, rec, **kwargs)
