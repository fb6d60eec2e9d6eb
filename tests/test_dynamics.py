"""The batched learning engine against the one-run-at-a-time loops.

``reference_run_learning`` and ``reference_probe`` are the scalar loops the
engine replaced: one learn step per period on one conjecture vector, a
Python scan over lags for recurrences, and one full run per probe sample.
Every trajectory field, event list, limit record and probe statistic must
come out bit for bit the same from ``run_learning`` and ``probe_stability``.
``reference_analytic_stability`` holds the stacked spectral test to one
``spectral_radius`` per record the same way. The engine's private step
kernel is held to ``reference_step`` the same way, row by row, on single
rows and stacks.
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
    learn_step,
    make_game,
    make_record,
    probe_stability,
    run_learning,
)
from netsce.equilibrium import ACTIVE_TOL, EquilibriumRecord
from netsce.game import best_reply, invert_feedback
from netsce.learning import (
    CAP_WARN_MARGIN,
    PROBE_BLOCK,
    RECUR_TOL,
    RING,
    _analytic,
    _probe,
    _step,
    analytic_stability,
)
from netsce.network import spectral_radius
from netsce.scenario import load_scenario

from conftest import ADJ4, CAPPED4, MIXED4, SCENARIO_DIR, SIGNED4, reference_record


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
        limit = reference_record(spec, a_inf, declared_inactive=declared, conjectures=xh,
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


def _zero_network_cases(count=300, seed=0):
    """Games without links: the default conjecture range is [0, 0], whose
    lower end must be +0.0 for the engine's clip to match the scalar loop."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        game = make_game(WeightedNetwork(z=np.zeros((n, n))), alpha=rng.uniform(-0.5, 0.5, n))
        cases.append((game, np.zeros(n), 400))
    return cases


BATTERY = _hand_cases() + _random_cases() + _zero_network_cases()


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


def _probe_groups():
    """The games of ``_probe_cases`` with several records probed at once.

    Each game keeps the records ``_probe_cases`` probes on it, then two of
    its own SCE records; the random games are also probed with 60 samples.
    A capped game with signed weights adds all eleven of its records.
    """
    groups = {}
    for game, rec, eps, samples, seed, max_iter in _probe_cases():
        groups.setdefault(id(game), (game, [], eps, samples, seed, max_iter))[1].append(rec)
    cases = []
    for game, recs, eps, samples, seed, max_iter in groups.values():
        recs = recs + enumerate_sce(game)[0][:2]
        cases.append((game, recs, eps, samples, seed, max_iter))
        if len(recs) == 5:
            cases.append((game, recs, eps, 60, seed, max_iter))
    capped = make_game(WeightedNetwork(z=SIGNED4), **CAPPED4)
    cases.append((capped, enumerate_sce(capped)[0], 0.1, 30, 5, 2000))
    return cases


def test_shared_probe_matches_per_record_loop(rng_calls):
    seen = set()
    for game, recs, eps, samples, seed, max_iter in _probe_groups():
        before = rng_calls[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CapBindingWarning)
            new = _probe(game, recs, eps, samples, seed, 1e-10, max_iter)
        draws = rng_calls[0] - before
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapBindingWarning)
            refs = [reference_probe(game, rec, eps, samples, seed, max_iter=max_iter)
                    for rec in recs]
        assert len(new) == len(recs)
        for emp, ref in zip(new, refs):
            assert (emp.epsilon, emp.samples, emp.seed) == (eps, samples, seed)
            assert (emp.return_fraction, emp.belief_stay_fraction, emp.nonconverged) == ref
        # each sample is drawn once, whatever the records and blocks
        assert draws == samples
        # a chunk of samples is cut into blocks of record-major rows: a
        # block edge that is not a record edge splits one record's samples
        chunks = [min(PROBE_BLOCK, samples - first) for first in range(0, samples, PROBE_BLOCK)]
        seen.update(name for name, hit in (
            ("several", len(recs) > 1),
            ("capped", any(w.category is CapBindingWarning for w in caught)),
            ("uneven", PROBE_BLOCK % len(recs)),
            ("split", any(edge % chunk for chunk in chunks
                          for edge in range(PROBE_BLOCK, chunk * len(recs), PROBE_BLOCK))),
            ("long", samples > PROBE_BLOCK),
            ("mixed", len(set(refs)) > 1),
        ) if hit)
    assert seen == {"several", "capped", "uneven", "split", "long", "mixed"}, seen

    game = _probe_cases()[0][0]
    before = rng_calls[0]
    assert _probe(game, [], 1e-3, 10, 0, 1e-10, 100) == []
    assert rng_calls[0] == before


def test_probe_rows_run_record_major_in_sample_chunks(monkeypatch):
    """Samples go in chunks of PROBE_BLOCK; each chunk's (record, sample)
    rows run record by record, cut into blocks of PROBE_BLOCK rows."""
    from netsce import learning

    game, recs, eps, _, seed, _ = _probe_groups()[0]
    recs, samples = recs[:2], 2 * PROBE_BLOCK - 56
    blocks = []

    def recording(spec, x0, *args):
        blocks.append(x0.copy())
        return advance(spec, x0, *args)

    advance = learning._advance
    monkeypatch.setattr(learning, "_advance", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapBindingWarning)
        _probe(game, recs, eps, samples, seed, 1e-10, 50)
    # 2 x 128 rows, then 2 x 72: one block mixes the records, one is short
    assert [len(b) for b in blocks] == [PROBE_BLOCK, PROBE_BLOCK, PROBE_BLOCK, 16]
    pairs = []
    for first in range(0, samples, PROBE_BLOCK):
        chunk = range(first, min(first + PROBE_BLOCK, samples))
        pairs += [(r, k) for r in range(len(recs)) for k in chunk]
    assert pairs[2 * PROBE_BLOCK - 1] == (1, PROBE_BLOCK - 1)
    assert pairs[3 * PROBE_BLOCK - 1] == (1, PROBE_BLOCK + 55)
    expected = np.array([
        np.clip(recs[r].conjectures
                + np.random.default_rng((seed, k)).uniform(-eps, eps, game.n),
                game.x_lo, game.x_hi)
        for r, k in pairs
    ])
    assert np.concatenate(blocks).tobytes() == expected.tobytes()


def reference_analytic_stability(spec, record):
    """``analytic_stability`` as it was before the stacked spectral test:
    one ``spectral_radius`` and a Python ``min`` per record."""
    active = sorted(record.active_set)
    sub = spec.net.z[np.ix_(active, active)] if active else np.zeros((0, 0))
    rho = spectral_radius(sub)
    rho_ok = rho < 1.0
    inactive = [i for i in range(spec.n) if i not in record.active_set]
    if inactive:
        margin = float(min(-spec.alpha[i] - record.conjectures[i] for i in inactive))
        margin_ok = margin > 0.0
    else:
        margin, margin_ok = None, True
    verdict = "stable" if (rho_ok and margin_ok) else "inconclusive"
    return (verdict, repr(float(rho)), bool(rho_ok), repr(margin), bool(margin_ok))


def _analytic_key(report):
    return (report.verdict, repr(report.rho_active), report.rho_ok, repr(report.margin),
            report.margin_ok)


def _analytic_cases():
    """(game, records): the local scenarios, neg8, random games, and signed
    zero margins in both orders beside empty and full active sets."""
    cases = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scn = load_scenario(path)
        if scn.mode == "local":
            cases.append((scn.game, enumerate_sce(scn.game)[0]))
    rng = np.random.default_rng(7)
    z = -rng.uniform(0.0, 1.0, (8, 8))
    np.fill_diagonal(z, 0.0)
    neg8 = make_game(WeightedNetwork(z=z * 0.9 / spectral_radius(np.abs(z))), alpha=1.0)
    cases.append((neg8, enumerate_sce(neg8)[0]))
    for game, _, _ in _random_cases(count=60, seed=11):
        cases.append((game, enumerate_sce(game)[0]))
    tie = make_game(WeightedNetwork(z=0.3 * (np.ones((3, 3)) - np.eye(3))),
                    alpha=np.array([0.0, 0.0, 0.1]))
    made = [
        EquilibriumRecord(np.zeros(3), np.array(x), frozenset(on), frozenset(), "NE")
        for on, x in (
            ((2,), [0.0, -0.0, 0.0]),
            ((2,), [-0.0, 0.0, 0.0]),
            ((), [0.0, 0.0, -0.1]),
            ((), [0.0, -0.0, -0.1]),
            ((0, 1, 2), [0.0, 0.0, 0.0]),
            ((0, 2), [0.0, -0.0, 0.0]),
        )
    ]
    cases.append((tie, made))
    return cases


def test_stacked_analytic_matches_per_record_reference():
    seen = set()
    for game, records in _analytic_cases():
        got = [_analytic_key(r) for r in _analytic(game, records)]
        assert got == [_analytic_key(analytic_stability(game, rec)) for rec in records]
        assert got == [reference_analytic_stability(game, rec) for rec in records]
        sizes = {len(rec.active_set) for rec in records}
        seen.update(name for name, hit in (
            ("empty", 0 in sizes),
            ("full", game.n in sizes),
            ("sizes", len(sizes) > 2),
            ("zero", "0.0" in {key[3] for key in got}),
            ("negative zero", "-0.0" in {key[3] for key in got}),
            ("inconclusive", "inconclusive" in {key[0] for key in got}),
        ) if hit)
    assert seen == {"empty", "full", "sizes", "zero", "negative zero", "inconclusive"}, seen
    assert _analytic(_analytic_cases()[0][0], []) == []


# -------------------------------------------------------------- step kernel


def _kernel_cases(seed=77):
    """Games n = 1..12 with stacks of 1 to PROBE_BLOCK conjecture rows.

    Conjectures are drawn past both ends of each range, so inactive agents
    keep out-of-range beliefs that the clip must pull back; some sit at the
    indifference point -alpha exactly, some put the action on the cap
    warning margin. Caps are small often enough to bind.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for n in range(1, 13):
        for rows in (1, 2, 7, PROBE_BLOCK):
            z = rng.uniform(-1.0, 1.0, (n, n)) * rng.choice([0.2, 1.0])
            np.fill_diagonal(z, 0.0)
            alpha = rng.uniform(-0.3, 0.6, n)
            a_max = None if rng.random() < 0.3 else rng.uniform(0.05, 1.0, n)
            game = make_game(WeightedNetwork(z=z), alpha=alpha, a_max=a_max)
            lo, hi = game.x_lo, game.x_hi
            if rng.random() < 0.5:  # beliefs at the scale of the game, not of the range
                lo, hi = np.maximum(lo, -2.0), np.minimum(hi, 2.0)
            xh = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), (rows, n))
            tie = rng.random((rows, n))
            indifferent = np.broadcast_to(-game.alpha, (rows, n))
            on_margin = np.broadcast_to(game.a_max - CAP_WARN_MARGIN - game.alpha, (rows, n))
            xh[tie < 0.1] = indifferent[tie < 0.1]
            xh[tie > 0.9] = on_margin[tie > 0.9]
            cases.append((game, xh))
    return cases


def test_step_kernel_matches_reference_step():
    seen = set()
    for game, xh in _kernel_cases():
        a, m, new, capped, clamped = _step(game, xh, game.a_max - CAP_WARN_MARGIN)
        assert a.shape == m.shape == new.shape == capped.shape == clamped.shape == xh.shape
        # On a stack of one-agent rows np.clip sees its (1,) bounds broadcast
        # along the rows, and its zero results can then differ from a single
        # row's in sign alone; learn_step has always clipped stacks this way.
        # Adding +0.0 maps -0.0 to 0.0 and leaves every other float as is.
        unsign = 0.0 if game.n == 1 and len(xh) > 1 else -0.0
        for r in range(len(xh)):
            ra, rm, rnew, rcapped, rclamped = reference_step(game, xh[r])
            assert a[r].tobytes() == ra.tobytes()
            assert m[r].tobytes() == rm.tobytes()
            assert (new[r] + unsign).tobytes() == (rnew + unsign).tobytes()
            assert tuple(np.flatnonzero(capped[r]).tolist()) == rcapped
            assert tuple(np.flatnonzero(clamped[r]).tolist()) == rclamped
            on_margin = np.any(ra == game.a_max - CAP_WARN_MARGIN)
            seen.update(name for name, hit in (("zero", np.any(ra == 0)), ("capped", rcapped),
                                               ("clamped", rclamped), ("margin", on_margin)) if hit)
        seen.add(f"rows={len(xh)}")
    assert seen >= {"zero", "capped", "clamped", "margin", "rows=1", f"rows={PROBE_BLOCK}"}, seen


def _cap_message(agents):
    return (f"actions of agents {sorted(agents)} are within {CAP_WARN_MARGIN:g} of the "
            "action cap; results likely reflect the cap, not the game")


def test_learn_step_events_match_reference_step():
    warned = 0
    for game, xh in _kernel_cases(seed=78)[::3]:
        refs = [reference_step(game, row) for row in xh]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            one = learn_step(game, xh[0])
            stack = learn_step(game, xh)
        assert one.capped == refs[0][3] and one.clamped == refs[0][4]
        assert one.conjectures_next.tobytes() == refs[0][2].tobytes()
        assert stack.capped == tuple((r, i) for r, ref in enumerate(refs) for i in ref[3])
        assert stack.clamped == tuple((r, i) for r, ref in enumerate(refs) for i in ref[4])
        expected = [_cap_message(agents) for agents in
                    (refs[0][3], {i for ref in refs for i in ref[3]}) if agents]
        assert [str(w.message) for w in caught] == expected
        warned += len(expected)
    assert warned


def test_run_learning_warns_like_reference_loop():
    cases = 0
    for game, x0, max_iter in BATTERY:
        ref = reference_run_learning(game, x0, max_iter=max_iter)
        if not ref["cap_events"]:
            continue
        cases += 1
        by_period = {}
        for t, i in ref["cap_events"]:
            by_period.setdefault(t, []).append(i)
        expected = [_cap_message(agents) for _, agents in sorted(by_period.items())]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_learning(game, np.asarray(x0, dtype=float), max_iter=max_iter)
        assert [str(w.message) for w in caught] == expected
        assert all(w.category is CapBindingWarning for w in caught)
    assert cases


def test_small_cycles_are_caught_like_reference_loop():
    # The recurrence scan skips windows whose span is within RECUR_TOL; a
    # cycle a millionth of the usual scale is far wider than that and must
    # still be found, with the period the scalar loop finds.
    two = WeightedNetwork(z=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    kinds = set()
    for scale in (1e-3, 1e-6):
        for game, x0 in (
            (make_game(two, alpha=scale), np.array([-0.3, -0.3]) * scale),
            (make_game(WeightedNetwork(z=1.0 * ADJ4), alpha=0.1 * scale),
             np.array([0.01, 0.02, 0.03, 0.04]) * scale),
        ):
            new, ref = _run_both(game, x0, 2000)
            for name in ("classification", "period", "period_kind", "cycle_agents", "steps"):
                assert getattr(new, name) == ref[name], name
            kinds.add(ref["period_kind"])
    assert kinds == {"state", "increment"}


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

    monkeypatch.setattr(learning, "_step", no_runs)
    rec = enumerate_sce(positive_game)[0][0]
    with pytest.raises(UsageError):
        probe_stability(positive_game, rec, **kwargs)
