"""The batched learning engine against the one-run-at-a-time loops.

``reference_run_learning`` and ``reference_probe`` are the scalar loops the
engine replaced: one learn step per period on one conjecture vector, a
Python scan over lags for recurrences, and one full run per probe sample.
Every trajectory field, event list, limit record and probe statistic must
come out bit for bit the same from ``run_learning`` and ``probe_stability``.
``reference_analytic_stability`` holds the stacked spectral test to one
``spectral_radius`` per record the same way. The engine's private step
kernel is held to ``reference_step`` the same way, row by row, on single
rows and stacks, one period at a time and over a whole block. Each probe row that the certificate decides without a run
is held to its own full reference run.
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
    PROBE_MAX_ITER,
    RING,
    _analytic,
    _certificate,
    _probe,
    _stacks,
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


def reference_probe_row(spec, record, x0, epsilon, tol, max_iter):
    """One sample of ``reference_probe`` from the start ``x0``: (converged,
    returned, stayed, pressed the cap)."""
    traj = reference_run_learning(spec, x0, tol=tol, max_iter=max_iter)
    converged = traj["classification"] == "converged"
    returned = stayed = False
    if converged:
        returned = float(np.max(np.abs(traj["limit"].actions - record.actions))) <= 1e-6
        stayed = (float(np.max(np.abs(traj["limit"].conjectures - record.conjectures)))
                  <= epsilon + 1e-6)
    return converged, returned, stayed, bool(traj["cap_events"])


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


def test_shared_probe_matches_per_record_loop(rng_calls, monkeypatch):
    from netsce import learning

    simulated = []

    def counting(spec, x0, *args):
        simulated.append(len(x0))
        return advance(spec, x0, *args)

    advance = learning._advance
    monkeypatch.setattr(learning, "_advance", counting)
    seen = set()
    for game, recs, eps, samples, seed, max_iter in _probe_groups():
        simulated.clear()
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
        # a record runs all its samples or none; each sample is drawn once
        # when any record runs, whatever the records and blocks, and never
        # when every record certifies
        assert sum(simulated) % samples == 0
        assert draws == (samples if simulated else 0)
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
            # rows the certificate decides, and rows it leaves to _advance
            ("certified", sum(simulated) < len(recs) * samples),
            ("simulated", sum(simulated) > 0),
        ) if hit)
    assert seen == {"several", "capped", "uneven", "split", "long", "mixed", "certified",
                    "simulated"}, seen

    game = _probe_cases()[0][0]
    before = rng_calls[0]
    assert _probe(game, [], 1e-3, 10, 0, 1e-10, 100) == []
    assert rng_calls[0] == before


def _drifting_starts():
    """Two fully active starts in a game whose weights have spectral radius
    1 and row sums up to 3: no weighting makes them contract, so the
    certificate refuses every probe row of them."""
    game = make_game(WeightedNetwork(z=1.0 * ADJ4), alpha=0.1)
    recs = [make_record(game, best_reply(game, x), conjectures=x, validate=False)
            for x in (np.array([0.01, 0.02, 0.03, 0.04]), np.array([0.04, 0.03, 0.02, 0.01]))]
    return game, recs


def _start_rows(game, recs, eps, samples, seed):
    """Every probe row's (record, sample) and start, in the probe's order."""
    pairs = []
    for first in range(0, samples, PROBE_BLOCK):
        chunk = range(first, min(first + PROBE_BLOCK, samples))
        pairs += [(r, k) for r in range(len(recs)) for k in chunk]
    starts = np.array([
        np.clip(recs[r].conjectures
                + np.random.default_rng((seed, k)).uniform(-eps, eps, game.n),
                game.x_lo, game.x_hi)
        for r, k in pairs
    ])
    return pairs, starts


def test_probe_rows_run_record_major_in_sample_chunks(monkeypatch):
    """Samples go in chunks of PROBE_BLOCK; each chunk's (record, sample)
    rows run record by record, cut into blocks of PROBE_BLOCK rows."""
    from netsce import learning

    game, recs = _drifting_starts()
    eps, seed, samples = 1e-3, 7, 2 * PROBE_BLOCK - 56
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
    pairs, expected = _start_rows(game, recs, eps, samples, seed)
    assert pairs[2 * PROBE_BLOCK - 1] == (1, PROBE_BLOCK - 1)
    assert pairs[3 * PROBE_BLOCK - 1] == (1, PROBE_BLOCK + 55)
    assert np.concatenate(blocks).tobytes() == expected.tobytes()


def test_certified_records_make_no_draw_and_no_row(monkeypatch, rng_calls):
    """A record the certificate decides makes no draw and sends no row to
    ``_advance``; the other records' rows go in record-major blocks as if
    they were probed alone.

    The knife game's interior Nash record contracts fast and far from every
    bound, so it certifies. Its all-inactive record's witnesses sit at
    x_lo = -alpha, where a perturbed belief may wake an agent, so it is
    simulated in full.
    """
    from netsce import learning

    knife = _probe_cases()[0][0]
    recs = enumerate_sce(knife)[0]
    inner = [r for r in recs if len(r.active_set) == knife.n][0]
    asleep = [r for r in recs if not r.active_set][0]
    eps, seed, samples, max_iter = 1e-3, 7, 2 * PROBE_BLOCK - 56, 2000
    blocks = []

    def recording(spec, x0, *args):
        blocks.append(x0.copy())
        return advance(spec, x0, *args)

    advance = learning._advance
    monkeypatch.setattr(learning, "_advance", recording)
    before = rng_calls[0]
    alone = _probe(knife, [inner], eps, samples, seed, 1e-10, max_iter)
    assert (blocks, rng_calls[0]) == ([], before)
    assert [(e.return_fraction, e.belief_stay_fraction, e.nonconverged) for e in alone] == [
        (1.0, 1.0, 0)]
    got = _probe(knife, [inner, asleep, inner], eps, samples, seed, 1e-10, max_iter)
    assert rng_calls[0] == before + samples
    starts = _start_rows(knife, [asleep], eps, samples, seed)[1]
    assert [b.tobytes() for b in blocks] == [
        starts[lo:lo + PROBE_BLOCK].tobytes() for lo in range(0, samples, PROBE_BLOCK)]
    refs = [reference_probe(knife, rec, eps, samples, seed, max_iter=max_iter)
            for rec in (inner, asleep, inner)]
    assert [(e.return_fraction, e.belief_stay_fraction, e.nonconverged) for e in got] == refs
    assert 0.0 < refs[1][0] < 1.0


def _near_miss_games(count=150, seed=17):
    """(kind, game, records, epsilon, tol, max_iter) near the certificate's
    edges, a few records each, and one false recurrence.

    "rho": Z scaled to spectral radius in [0.95, 0.9999]; "nonnormal":
    strictly upper triangular weights up to 300 with a faint lower part;
    "cap": a cap within 1e-6 + [0, 1e-5] of the largest action; "tiny":
    caps of at most 2e-6 and actions near them; "bound": conjecture ranges
    1e-6 to 1e-2 outside the attainable aggregates, so witnesses sit within
    epsilon of a bound. tol reaches 1e-4 and max_iter falls to 3.
    "asleep": every inactive witness of a record at -alpha - epsilon (1 +
    delta), delta one of -1e-9, 0, 1e-12 and 1e-6, so a start at the edge
    of the epsilon-ball wakes an agent about when delta <= 0; alpha falls
    to 1e-5, below epsilon, where alpha + w rounds. In the last game an
    alternating mode decays by 1 - 5e-7 a period, so the recurrence scan
    fires on a converging run; every other condition holds.
    """
    rng = np.random.default_rng(seed)
    kinds = ("rho", "nonnormal", "cap", "tiny", "bound")
    cases = []
    for g in range(count):
        kind = kinds[g % len(kinds)]
        n = int(rng.integers(2, 6))
        eps = float(rng.choice([1e-6, 1e-4, 1e-3, 1e-2]))
        tol = float(rng.choice([1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4]))
        max_iter = int(rng.choice([3, 4, 10, 60, 400]))
        alpha = rng.uniform(0.05, 0.5, n)
        if kind == "nonnormal":
            z = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) * rng.choice([3.0, 30.0, 300.0])
            z += np.tril(rng.uniform(-0.01, 0.01, (n, n)), -1)
            np.fill_diagonal(z, 0.0)
        else:
            z = rng.uniform(-1.0, 1.0, (n, n))
            if rng.random() < 0.4:
                z = np.abs(z) * rng.choice([-1.0, 1.0])
            np.fill_diagonal(z, 0.0)
            target = rng.uniform(0.95, 0.9999) if kind == "rho" else rng.uniform(0.2, 0.9)
            z *= target / spectral_radius(z)
        net = WeightedNetwork(z=z)
        if kind == "tiny":
            alpha *= 10 ** rng.uniform(-7.0, -5.7)
            game = make_game(net, alpha=alpha, a_max=float(rng.uniform(0.3e-6, 2e-6)))
            eps = float(rng.choice([1e-8, 1e-7, 1e-6]))
            tol = float(rng.choice([1e-14, 1e-12, 1e-10]))
        elif kind == "cap":
            top = max(float(r.actions.max()) for r in enumerate_sce(make_game(net, alpha))[0])
            game = make_game(net, alpha=alpha,
                             a_max=top + 1e-6 + float(rng.choice([0.0, 1e-8, 3e-7, 1e-6, 1e-5])))
            eps = float(rng.choice([1e-7, 1e-6, 1e-5]))
        elif kind == "bound":
            cap = np.full(n, rng.uniform(0.5, 2.0))
            pad = 10 ** rng.uniform(-6.0, -2.0, n)
            lo = np.minimum(z, 0.0) @ cap - pad
            weak = rng.random(n) < 0.5
            lo[weak] = np.minimum(lo[weak], -alpha[weak] - 10 ** rng.uniform(-6.0, -2.0))
            game = make_game(net, alpha=alpha, a_max=cap, x_lo=lo,
                             x_hi=np.maximum(z, 0.0) @ cap + pad)
            eps = float(rng.choice([1e-5, 1e-4, 1e-3]))
        else:
            game = make_game(net, alpha=alpha)
        recs = enumerate_sce(game)[0]
        recs = [recs[i] for i in rng.permutation(len(recs))[:3]]
        if recs:
            cases.append((kind, game, recs, eps, tol, max_iter))
    for _ in range(count // 5):
        n = int(rng.integers(2, 6))
        z = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(z, 0.0)
        z *= rng.uniform(0.2, 0.9) / spectral_radius(z)
        alpha = rng.uniform(0.05, 0.5, n) * 10 ** rng.uniform(-4.0, 0.0)
        game = make_game(WeightedNetwork(z=z), alpha=alpha)
        eps = float(rng.choice([1e-4, 1e-3, 1e-2]))
        recs = [r for r in enumerate_sce(game)[0] if len(r.active_set) < n]
        for i in rng.permutation(len(recs))[:3]:
            off = recs[i].actions <= 0
            w = recs[i].conjectures.copy()
            w[off] = -alpha[off] - eps * (1.0 + rng.choice([-1e-9, 0.0, 1e-12, 1e-6]))
            cases.append(("asleep", game, [make_record(game, recs[i].actions, conjectures=w,
                                                       validate=False)],
                          eps, float(rng.choice([1e-10, 1e-8])), int(rng.choice([60, 400]))))
    swing = make_game(WeightedNetwork(z=-(1 - 5e-7) * np.array([[0.0, 1.0], [1.0, 0.0]])),
                      alpha=2e-8)
    cases.append(("recurrence", swing, enumerate_sce(swing)[0], 8e-9, 5e-15, 10**9))
    return cases


def test_certified_rows_match_their_full_runs(monkeypatch):
    """Every row of a record the certificate decides, and the two corners
    w + epsilon and w - epsilon of its ball of starts, runs alone and in
    full to a converged limit that returns and stays, and never presses the
    cap (so running none of them changes no warning). A record runs all its
    rows or none. Each kind of near miss has records on both sides, and the
    last game's fully active record is refused."""
    from netsce import learning

    blocks = []

    def recording(spec, x0, *args):
        blocks.append(x0.copy())
        k = len(x0)
        return learning._Runs(["max-iter"] * k, [1] * k, [None] * k, x0.copy())

    monkeypatch.setattr(learning, "_advance", recording)
    samples, seed = 8, 3
    sides = {}
    for kind, game, recs, eps, tol, max_iter in [*_near_miss_games(), *_drift_scenarios()]:
        blocks.clear()
        _probe(game, recs, eps, samples, seed, tol, max_iter)
        simulated = {row.tobytes() for block in blocks for row in block}
        pairs, starts = _start_rows(game, recs, eps, samples, seed)
        for r, rec in enumerate(recs):
            rows = starts[[k for k, (row, _) in enumerate(pairs) if row == r]]
            ran = {x0.tobytes() in simulated for x0 in rows}
            assert len(ran) == 1, (kind, r)
            certified = not ran.pop()
            sides.setdefault(kind, set()).add(certified)
            if certified:
                corners = [np.clip(rec.conjectures + sign * eps, game.x_lo, game.x_hi)
                           for sign in (1.0, -1.0)]
                for x0 in [*rows, *corners]:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", CapBindingWarning)
                        verdict = reference_probe_row(game, rec, x0, eps, tol, max_iter)
                    assert verdict == (True, True, True, False), (kind, r, verdict)
            elif kind == "recurrence":
                assert len(rec.active_set) == 2
    assert sides == {kind: {True, False} for kind in
                     ("rho", "nonnormal", "cap", "tiny", "bound", "asleep", "recurrence",
                      "learn_contracting", "learn_drifting")}, sides


def _drift_scenarios():
    """(name, game, records, epsilon, tol, max_iter) of the shipped
    ``learn_contracting`` and ``learn_drifting`` files, as ``netsce
    stability`` probes them. Each has records on both sides of the
    certificate."""
    cases = []
    for name in ("learn_contracting", "learn_drifting"):
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        cases.append((name, scn.game, enumerate_sce(scn.game)[0], scn.epsilon, scn.tol,
                      PROBE_MAX_ITER))
    return cases


def reference_weights(az):
    """The probe certificate's weights before it shared the Nash
    certificate's: v = (I - az / s)^-1 1 with s = (1 + rho(az)) / 2 when
    rho(az) < 1 and that v is finite and positive, else None (v = 1)."""
    n = len(az)
    with np.errstate(all="ignore"):
        rho = np.abs(np.linalg.eigvals(az)).max()
        if not rho < 1.0:
            return None
        try:
            v = np.linalg.solve(np.eye(n) - az / ((1.0 + rho) / 2.0), np.ones(n))
        except np.linalg.LinAlgError:
            return None
    return v if np.all((v > 0) & np.isfinite(v)) else None


def _neg_game(n):
    """``neg{n}``: z_ij = -U(0, 1) from ``default_rng(7)``, scaled so that
    rho(|Z|) = 0.9, alpha = 1 and table1's other keys; 2^n records."""
    z = -np.random.default_rng(7).uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(z, 0.0)
    return make_game(WeightedNetwork(z=z * 0.9 / spectral_radius(np.abs(z))), alpha=1.0)


def _stability_like_games(seed, blocks=17):
    """Games built as ``perfbench``'s ``stability_cli`` seeds its own: signed
    Z of n = 3..6, caps of 1, conjecture ranges just around the attainable
    aggregates, and 0 to 2 "weak" agents that can justify inactivity."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(blocks):
        for n, m in ((3, 0), (4, 1), (4, 1), (5, 2), (5, 2), (6, 1)):
            span = rng.uniform(0.4, 0.7)
            z = rng.uniform(-span / n, span / n, (n, n))
            np.fill_diagonal(z, 0.0)
            cap = np.ones(n)
            lo = np.minimum(z, 0.0) @ cap
            hi = np.maximum(z, 0.0) @ cap + 0.01
            alpha = rng.uniform(0.05, 0.5, n)
            weak = rng.choice(n, size=m, replace=False)
            strong = np.setdiff1d(np.arange(n), weak)
            alpha[strong] += 0.02 - lo[strong]
            lo -= 0.01
            lo[weak] = np.minimum(lo[weak], -alpha[weak] - 0.01)
            games.append(make_game(WeightedNetwork(z=z), alpha=alpha, a_max=cap, x_lo=lo,
                                   x_hi=hi))
    return games


def _certificate_batteries():
    """(battery, game, records, epsilon, tol, max_iter): the near-miss
    battery, the analytic cases, neg8-neg12, the shipped local scenarios and
    stability_cli-like games of seeds 0-3, the last four probed at the
    ``stability`` defaults."""
    defaults = (1e-3, 1e-10, PROBE_MAX_ITER)
    for kind, *case in _near_miss_games():
        yield ("near-miss", *case)
    for game, records in _analytic_cases():
        yield ("analytic", game, records, *defaults)
    for n in range(8, 13):
        game = _neg_game(n)
        yield ("neg", game, enumerate_sce(game)[0], *defaults)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scn = load_scenario(path)
        if scn.mode == "local":
            yield (path.stem, scn.game, enumerate_sce(scn.game)[0], scn.epsilon, scn.tol,
                   PROBE_MAX_ITER)
    for seed in range(4):
        for game in _stability_like_games(seed):
            yield ("stability_cli", game, enumerate_sce(game)[0], *defaults)


def test_shared_weights_certify_every_record_the_scaled_weights_did(monkeypatch):
    """The probe certificate on the Nash certificate's weights decides at
    least every record it decided on the older s-scaled weights, on every
    battery; on ``learn_contracting`` it decides 14 of 16 records instead
    of 12."""
    from netsce import learning

    counts = {}
    for battery, game, records, eps, tol, max_iter in _certificate_batteries():
        if not records:
            continue
        witnesses, targets = _stacks(game, records)
        new = _certificate(game, witnesses, targets, eps, tol, max_iter)
        with monkeypatch.context() as patch:
            patch.setattr(learning, "_weights", reference_weights)
            old = _certificate(game, witnesses, targets, eps, tol, max_iter)
        assert not (old & ~new).any(), (battery, np.flatnonzero(old & ~new))
        seen = counts.setdefault(battery, [0, 0, 0])
        seen[0] += int(old.sum())
        seen[1] += int(new.sum())
        seen[2] += len(records)
    assert counts["learn_contracting"] == [12, 14, 16]
    assert counts["learn_drifting"] == [6, 6, 12]
    assert all(old > 0 for old, _, _ in counts.values()), counts


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
        period = _step(game, xh, game.a_max - CAP_WARN_MARGIN, _block(1, xh.shape))
        a, m, new, capped, clamped = (v[0] for v in period)
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


def _block(periods, shape):
    """A block's stacks for ``_step``: four float ones and one bool one."""
    return (*np.empty((4, periods) + shape), np.empty((periods,) + shape, dtype=bool))


def test_block_kernel_matches_one_period_calls_and_reference_step():
    """One ``_step`` call over a 32-period block writes what 32 one-period
    calls fed back return, and each period is ``reference_step`` of the
    block's previous state, row by row: bytes and masks. Warnings are
    errors, so a 0/0 evaluated at an inactive agent fails."""
    periods = 32
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for game, xh in _kernel_cases(seed=79):
            if len(xh) not in (1, PROBE_BLOCK) and game.n > 1:
                continue
            cap_at = game.a_max - CAP_WARN_MARGIN
            # A one-row case also runs as one profile, the shape learn_step passes.
            for start in (xh, xh[0]) if len(xh) == 1 else (xh,):
                out = _step(game, start, cap_at, _block(periods, start.shape))
                assert all(v.shape == (periods,) + start.shape for v in out)
                rows = np.atleast_2d
                unsign = 0.0 if game.n == 1 and len(xh) > 1 else -0.0
                x = start
                for p in range(periods):
                    one = [v[0] for v in _step(game, x, cap_at, _block(1, x.shape))]
                    for got, want in zip(out, one):
                        assert got[p].tobytes() == want.tobytes()
                    for r, prev in enumerate(rows(start if p == 0 else out[2][p - 1])):
                        ra, rm, rnew, rcapped, rclamped = reference_step(game, prev)
                        assert rows(out[0][p])[r].tobytes() == ra.tobytes()
                        assert rows(out[1][p])[r].tobytes() == rm.tobytes()
                        assert (rows(out[2][p])[r] + unsign).tobytes() == (rnew + unsign).tobytes()
                        assert tuple(np.flatnonzero(rows(out[3][p])[r]).tolist()) == rcapped
                        assert tuple(np.flatnonzero(rows(out[4][p])[r]).tolist()) == rclamped
                        seen.update(name for name, hit in (
                            ("zero", np.any(ra == 0)), ("capped", rcapped), ("clamped", rclamped),
                            ("margin", np.any(ra == cap_at))) if hit)
                    x = one[2]
                seen.add(f"shape={start.shape if len(xh) == 1 else len(xh)}")
    assert seen >= {"zero", "capped", "clamped", "margin", f"shape={PROBE_BLOCK}"}, seen
    assert {"shape=(1, 1)", "shape=(1,)"} <= seen, seen


def test_the_kernel_runs_once_per_block(monkeypatch):
    """``_advance`` steps each block in one kernel call, looked up by its
    module name; ``learn_step`` makes exactly one, on a one-period block."""
    from netsce import learning

    kernel, advance = learning._step, learning._advance
    calls, blocks = [], []

    def counting(*args, **kw):
        calls.append(args[3] if len(args) > 3 else kw.get("out"))
        return kernel(*args, **kw)

    def watching(spec, x0, tol, max_iter, window, on_block=None):
        def seen(t, *stacks):
            blocks.append(len(stacks[0]))
            on_block(t, *stacks)
        return advance(spec, x0, tol, max_iter, window, seen)

    monkeypatch.setattr(learning, "_step", counting)
    monkeypatch.setattr(learning, "_advance", watching)
    kinds = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapBindingWarning)
        for game, x0, max_iter in BATTERY:
            calls.clear()
            blocks.clear()
            traj = run_learning(game, np.asarray(x0, dtype=float), max_iter=max_iter)
            assert len(calls) == len(blocks) > 0
            assert all(out is not None for out in calls)
            assert sum(blocks) >= traj.steps
            kinds.add(traj.classification)
        calls.clear()
        learn_step(game, np.asarray(x0, dtype=float))
    assert len(calls) == 1 and len(calls[0][0]) == 1
    assert kinds == {"converged", "diverged", "oscillating", "max-iter"}, kinds


def _cap_message(agents):
    return (f"actions of agents {sorted(agents)} are within {CAP_WARN_MARGIN:g} of the "
            "action cap; results likely reflect the cap, not the game")


def test_learn_step_events_match_reference_step():
    warned = 0
    for game, xh in _kernel_cases(seed=78)[::3]:
        ref = reference_step(game, xh[0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            one = learn_step(game, xh[0])
        assert one.capped == ref[3] and one.clamped == ref[4]
        assert one.conjectures_next.tobytes() == ref[2].tobytes()
        expected = [_cap_message(ref[3])] if ref[3] else []
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


# --------------------------------------------------------- block boundaries


def _assert_same_run(game, x0, **kw):
    """``run_learning`` against ``reference_run_learning``, bit for bit, and
    its warnings: one ``CapBindingWarning`` per capped period of the
    reference run, naming that period's agents, and nothing else (no
    floating-point warning either). Returns the reference run."""
    ref = reference_run_learning(game, x0, **kw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = run_learning(game, np.asarray(x0, dtype=float), **kw)
    for name in ("classification", "period", "period_kind", "cycle_agents", "steps",
                 "limit_is_sce", "clamp_events", "cap_events"):
        assert getattr(new, name) == ref[name], (name, kw)
    for name in ("conjectures", "actions", "payoffs"):
        assert getattr(new, name).shape == ref[name].shape, (name, kw)
        assert getattr(new, name).tobytes() == ref[name].tobytes(), (name, kw)
    if ref["limit"] is None:
        assert new.limit is None
    else:
        assert new.limit.actions.tobytes() == ref["limit"].actions.tobytes()
        assert new.limit.conjectures.tobytes() == ref["limit"].conjectures.tobytes()
    by_period = {}
    for t, i in ref["cap_events"]:
        by_period.setdefault(t, []).append(i)
    assert [(w.category, str(w.message)) for w in caught] == [
        (CapBindingWarning, _cap_message(agents)) for _, agents in sorted(by_period.items())]
    return ref


def _late_cycles(kind, count=8):
    """Games whose cycle is confirmed at ``count`` consecutive periods: a
    two-agent cycle (kind "state") or the drifting ``ADJ4`` head of the
    battery (kind "increment"), beside a decoupled pair that decays by half
    a period from d = 2.5e-3 / 2^j, j = 3, 4, ...; the recurrence holds
    only once the pair has settled within ``RECUR_TOL``."""
    if kind == "state":
        head, x_head, a_head = -(np.ones((2, 2)) - np.eye(2)), [-0.3, -0.3], [1.0, 1.0]
    else:
        head, x_head, a_head = 1.0 * ADJ4, [0.01, 0.02, 0.03, 0.04], [0.1] * 4
    m = len(head)
    z = np.zeros((m + 2, m + 2))
    z[:m, :m] = head
    z[m:, m:] = [[0.0, 0.5], [0.5, 0.0]]
    game = make_game(WeightedNetwork(z=z), alpha=a_head + [0.1, 0.1])
    # x = 0.5 (0.1 + x) is the pair's rest point
    return [(game, np.concatenate([x_head, 0.1 + 2.5e-3 * 2.0 ** -j * np.array([1.0, -1.0])]))
            for j in range(3, 3 + count)]


def test_stopping_rules_fire_at_every_offset_of_a_block(monkeypatch):
    """With blocks of B = ``_FIRST_BLOCK`` periods, every stopping rule
    fires at every offset of a block, each run bit for bit like the scalar
    loop. ``max_iter`` sweeps 1..3B+1 and ``window`` 1..4 on battery games
    that converge at assorted periods, cycle, drift, clamp and press the
    cap, so quiet runs and cap warnings cross block edges; the late cycles
    are confirmed at every offset, offset 0 with the first of their two
    periods in the previous block. Games that can diverge step one period
    a block, so their stops have no offset to sweep."""
    from netsce import learning

    block = learning._FIRST_BLOCK
    monkeypatch.setattr(learning, "_BLOCK", block)
    monkeypatch.setattr(learning, "_settling", lambda *args: np.inf)
    two = WeightedNetwork(z=np.array([[0.0, 2.0], [2.0, 0.0]]))
    fast = make_game(two, alpha=1.0, a_max=1e12, x_lo=-4e12, x_hi=4e12)
    swept = [BATTERY[i][:2] for i in (0, 1, 2, 5, 6, 8, 17, 38, 44, 45)] + [(fast, [1e6, 1e6])]
    offsets = {}
    for cases, windows, budgets in (
        (swept, range(1, 5), range(1, 3 * block + 2)),
        (_late_cycles("state") + _late_cycles("increment"), (3,), (3 * block + 1,)),
        ([BATTERY[3][:2]], (3,), (100_000,)),
    ):
        for game, x0 in cases:
            for window in windows:
                for max_iter in budgets:
                    ref = _assert_same_run(game, x0, max_iter=max_iter, window=window)
                    rule = ref["classification"] + (f"-{ref['period_kind']}"
                                                     if ref["period_kind"] else "")
                    offsets.setdefault(rule, set()).add((ref["steps"] - 1) % block)
    # a game that can diverge steps one period a block: no offset to sweep
    assert offsets.pop("diverged")
    assert offsets == {rule: set(range(block)) for rule in (
        "converged", "max-iter", "oscillating-state", "oscillating-increment")}, offsets


def test_cycles_at_the_longest_lag_of_the_window_are_caught():
    """Cyclic shifts of 7 and 9 agents recur after lcm(7, 9) = 63 = RING - 1
    periods, the longest lag the window holds: the states themselves with
    alpha = 0, their increments while the states drift with alpha = 0.1."""
    z = np.zeros((16, 16))
    for first, size in ((0, 7), (7, 9)):
        for i in range(size):
            z[first + i, first + (i + 1) % size] = 1.0
    x0 = np.random.default_rng(1).uniform(0.0, 0.3, 16)
    assert RING - 1 == 63
    for alpha, kind in ((0.0, "state"), (0.1, "increment")):
        ref = _assert_same_run(make_game(WeightedNetwork(z=z), alpha=alpha), x0, max_iter=400)
        assert (ref["classification"], ref["period_kind"], ref["period"]) == (
            "oscillating", kind, RING - 1)


def _fuzz_cases(count=400, seed=26):
    """(game, start, stopping rule): contracting and drifting games,
    near-complete negative graphs, games capped at 1e12 and games at 1e-6
    scale, in turn. Drifting games are bipartite with nonnegative weights
    at spectral radius 1 (eigenvalues 1 and -1), so increments recur while
    the state drifts; negative ones are complete graphs less a matching,
    regular at spectral radius 1, so states cycle; the capped ones have
    spectral radius 1.1 to 2 and bounds past ``DIVERGENCE_CAP``. Starts are
    drawn as the battery's are, nonnegative in drifting games and
    nonpositive in negative ones so that agents start active."""
    rng = np.random.default_rng(seed)
    kinds = ("contracting", "drifting", "negative", "capped", "tiny")
    cases = []
    for g in range(count):
        kind = kinds[g % len(kinds)]
        n = int(rng.integers(2, 7))
        alpha = rng.uniform(-0.2, 0.5, n)
        bounds = {}
        if kind in ("contracting", "tiny", "capped"):
            z = rng.uniform(-1.0, 1.0, (n, n))
            np.fill_diagonal(z, 0.0)
            rho = rng.uniform(1.1, 2.0) if kind == "capped" else rng.uniform(0.3, 0.95)
            z *= rho / spectral_radius(z)
        if kind == "drifting":
            m = n // 2
            z = np.zeros((n, n))
            z[:m, m:] = rng.uniform(0.5, 1.0, (m, n - m))
            z[m:, :m] = rng.uniform(0.5, 1.0, (n - m, m))
            z /= spectral_radius(z)
            alpha = rng.uniform(0.05, 0.5, n)
            bounds = dict(a_max=100.0)
        elif kind == "negative":
            z = 1.0 - np.eye(n)
            pairs = rng.permutation(n)[: 2 * (n // 2 - 1)].reshape(-1, 2)
            z[pairs[:, 0], pairs[:, 1]] = z[pairs[:, 1], pairs[:, 0]] = 0.0
            z /= -spectral_radius(z)
            alpha = np.full(n, rng.uniform(0.5, 1.5))
            bounds = dict(a_max=1.5 * alpha)
        elif kind == "capped":
            bounds = dict(a_max=1e12, x_lo=2e12 * np.minimum(z, 0.0).sum(axis=1) - 1.0,
                          x_hi=2e12 * np.maximum(z, 0.0).sum(axis=1) + 1.0)
        elif kind == "tiny":
            alpha *= 1e-6
            bounds = dict(a_max=1e-6)
        game = make_game(WeightedNetwork(z=z), alpha=alpha, **bounds)
        x0 = rng.uniform(game.x_lo, game.x_hi) * rng.choice([1e-3, 0.1, 1.0])
        if kind == "drifting":
            x0 = np.abs(x0)
        elif kind == "negative":
            x0 = -np.abs(x0)
        rule = dict(tol=float(rng.choice([1e-10, 1e-6, 1e-3])), window=int(rng.integers(1, 6)),
                    max_iter=int(rng.choice([3, 10, 40, 200, 2000], p=[0.15, 0.2, 0.3, 0.25, 0.1])))
        cases.append((game, x0, rule))
    return cases


def test_run_learning_matches_scalar_loop_on_seeded_fuzz():
    """Seeded differential fuzz of ``run_learning`` against the scalar loop
    at the default block schedule: bytes, events, limits and warnings."""
    seen = set()
    for game, x0, rule in _fuzz_cases():
        ref = _assert_same_run(game, x0, **rule)
        seen.add(ref["classification"] + (f"-{ref['period_kind']}" if ref["period_kind"] else ""))
    assert seen == {"converged", "diverged", "oscillating-state", "oscillating-increment",
                    "max-iter"}, seen


def test_probe_stack_warns_only_for_rows_not_yet_stopped(monkeypatch):
    """Each ``_advance`` call of a probe warns in each period with the
    union of the capped agents of the rows still live in it, as its rows'
    reference runs press the cap, and its statistics are the reference
    probe's. In the capped game, rows of the record (0, 0, 0, 0.08) stop at
    different periods of one block: one settles on the cap at period 6
    while a row live after it presses the cap only from period 15, so a
    stopped row's later presses cannot hide in a live row's."""
    from netsce import learning

    calls = []

    def recording(spec, x0, *args):
        calls.append(x0.copy())
        return advance(spec, x0, *args)

    advance = learning._advance
    monkeypatch.setattr(learning, "_advance", recording)
    game = make_game(WeightedNetwork(z=SIGNED4), **CAPPED4)
    recs = enumerate_sce(game)[0]
    hidden = 0
    for group in ([recs[7]], recs[7:10]):
        calls.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _probe(game, group, 0.1, 12, 5, 1e-10, 2000)
        expected = []
        for x0 in calls:
            refs = [reference_run_learning(game, row, max_iter=2000) for row in x0]
            by_period = {}
            for ref in refs:
                for t, i in ref["cap_events"]:
                    by_period.setdefault(t, set()).add(i)
            expected += [_cap_message(agents) for _, agents in sorted(by_period.items())]
            stops = [ref["steps"] for ref in refs]
            for ref in refs:
                last = {i for t, i in ref["cap_events"] if t == ref["steps"] - 1}
                hidden += bool(last and max(stops) > ref["steps"] + 1
                               and not last <= by_period.get(ref["steps"], set()))
        assert [(w.category, str(w.message)) for w in caught] == [
            (CapBindingWarning, message) for message in expected]
        assert len(calls) == 1 and sum(map(len, calls)) == 12 * len(group)
        assert [(e.return_fraction, e.belief_stay_fraction, e.nonconverged) for e in got] == [
            reference_probe(game, rec, 0.1, 12, 5, max_iter=2000) for rec in group]
    assert hidden


# ----------------------------------------------------------- probe arguments


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -1e-3},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"epsilon": 1e308},  # the draws' width 2e308 overflows
        {"tol": 0.0},
        {"tol": -1e-10},
        {"tol": True},
        {"tol": False},
        {"max_iter": 0},
        {"samples": 0},
        {"samples": 2.5},
        {"samples": "3"},
        {"samples": None},
        {"seed": 1.5},
        {"seed": -1},
        {"seed": None},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_probe_rejects_bad_arguments_before_any_run(positive_game, kwargs, monkeypatch):
    """Bad arguments are usage errors before the certificate decides any
    record, so a certified record and an uncertified one fail alike."""
    from netsce import learning

    def no_runs(*args, **kw):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(learning, "_step", no_runs)
    monkeypatch.setattr(learning, "_certificate", no_runs)
    knife2, edge = _probe_cases()[1][:2]
    for game, rec in ((positive_game, enumerate_sce(positive_game)[0][0]), (knife2, edge)):
        with pytest.raises(UsageError):
            probe_stability(game, rec, **kwargs)
