"""The shared active-set enumeration engine against per-caller loops.

``solve_auxiliary_ne``, ``enumerate_sce`` and ``stable_sce_family`` all run
through one private engine in ``netsce.equilibrium``. The reference
functions below are the independent loops each caller used to carry
(solve, positivity, cap, dedupe, record), including the family's one
``solve_auxiliary_ne`` call per subset. The engine must reproduce their
records, diagnostics and family output bit for bit. Their records come
from ``conftest.reference_record``, the per-profile builder that
``make_record`` was before it became the one-row case of the engine's
stacked builder.
"""

import ast
import itertools
import pathlib

import numpy as np
import pytest

from netsce import (
    UsageError,
    WeightedNetwork,
    aggregate,
    enumerate_sce,
    interior_conditions,
    make_game,
    make_record,
    solve_auxiliary_ne,
    solve_full_ne,
    stable_sce_family,
)
from netsce import equilibrium
from netsce.equilibrium import ACTIVE_TOL, CAP_MARGIN, SolveDiagnostics
from netsce.game import justifiable_inactivity_set
from netsce.learning import analytic_stability
from netsce.network import submatrix

from conftest import _solve_active, by_active, reference_record

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netsce"

# ------------------------------------------------------------ reference loops


def _ref_embed(spec, k, sol):
    a = np.zeros(spec.n)
    for pos, i in enumerate(sorted(k)):
        a[i] = sol[pos]
    return a


def _ref_auxiliary_ne(spec, candidates):
    j = sorted(set(int(i) for i in candidates))
    declared = frozenset(range(spec.n)) - frozenset(j)
    records, singular, cap_hits = [], [], []
    seen = set()
    examined = 0
    for r in range(len(j) + 1):
        for k in itertools.combinations(j, r):
            examined += 1
            sol, fail = _solve_active(spec, k)
            if fail is not None:
                singular.append((frozenset(k), fail))
                continue
            if np.any(sol <= ACTIVE_TOL):
                continue
            caps = spec.a_max[list(k)] if k else np.zeros(0)
            if np.any(sol > caps - CAP_MARGIN):
                cap_hits.append(frozenset(k))
                continue
            a = _ref_embed(spec, k, sol)
            x = aggregate(spec, a)
            rest = [i for i in j if i not in k]
            if any(spec.alpha[i] + x[i] > ACTIVE_TOL for i in rest):
                continue
            key = tuple(np.round(a, 12))
            if key in seen:
                continue
            seen.add(key)
            records.append(reference_record(spec, a, declared_inactive=declared, validate=False))
    records.sort(key=lambda rec: rec.bitmask)
    diags = SolveDiagnostics(
        examined=examined, singular=tuple(singular), cap_hits=tuple(cap_hits)
    )
    return records, diags


def _ref_enumerate_sce(spec):
    i0 = sorted(justifiable_inactivity_set(spec))
    records, singular, cap_hits = [], [], []
    seen = set()
    examined = 0
    all_agents = frozenset(range(spec.n))
    for r in range(len(i0) + 1):
        for s in itertools.combinations(i0, r):
            examined += 1
            active = sorted(all_agents - frozenset(s))
            sol, fail = _solve_active(spec, active)
            if fail is not None:
                singular.append((frozenset(active), fail))
                continue
            if np.any(sol <= ACTIVE_TOL):
                continue
            caps = spec.a_max[active] if active else np.zeros(0)
            if np.any(sol > caps - CAP_MARGIN):
                cap_hits.append(frozenset(active))
                continue
            a = _ref_embed(spec, active, sol)
            key = tuple(np.round(a, 12))
            if key in seen:
                continue
            seen.add(key)
            records.append(
                reference_record(spec, a, declared_inactive=frozenset(s), validate=False)
            )
    records.sort(key=lambda rec: rec.bitmask)
    diags = SolveDiagnostics(
        examined=examined, singular=tuple(singular), cap_hits=tuple(cap_hits)
    )
    return records, diags


def _ref_family(spec, record):
    """(applicable, members, skipped) by one auxiliary solve per subset."""
    active = sorted(record.active_set)
    report = interior_conditions(submatrix(spec.net, active)) if active else None
    if active and not report.any_holds():
        return False, (), ()
    members, skipped = [], []
    for r in range(len(active) + 1):
        for j in itertools.combinations(active, r):
            recs, _ = _ref_auxiliary_ne(spec, j)
            full = [rec for rec in recs if rec.active_set == frozenset(j)]
            if not full:
                skipped.append((frozenset(j), "no fully active solution"))
                continue
            rec = full[0]
            members.append((rec, analytic_stability(spec, rec)))
    return True, tuple(members), tuple(skipped)


# ------------------------------------------------------------ seeded battery


def _battery(games=140, seed=20240611):
    """Games with n = 1..7 cycling, signed/negative/positive weights, caps
    on half of them, and on some a unit reciprocal pair z_ij = z_ji = 1
    whose support {i, j} is singular (continuum when alpha_j = -alpha_i,
    inconsistent otherwise)."""
    rng = np.random.default_rng(seed)
    for t in range(games):
        n = 1 + t % 7
        sign = ("signed", "negative", "positive")[(t // 7) % 3]
        m = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        np.fill_diagonal(m, 0.0)
        if sign == "signed":
            m *= rng.choice([-1.0, 1.0], size=(n, n))
        elif sign == "negative":
            m = -m
        top = np.abs(m).sum(axis=1).max()
        z = m * (rng.uniform(0.2, 1.3) / top) if top > 0 else m
        alpha = rng.uniform(0.05, 1.0, n)
        if n > 1 and rng.uniform() < 0.4:
            i, j = rng.choice(n, size=2, replace=False)
            z[i, j] = z[j, i] = 1.0
            if rng.uniform() < 0.5:
                alpha[j] = -alpha[i]
        if rng.uniform() < 0.15:
            alpha[rng.integers(n)] *= -1.0
        a_max = rng.uniform(0.1, 3.0, n) if t % 2 else np.full(n, 1e6)
        lo = np.minimum(z, 0.0) @ a_max
        hi = np.maximum(z, 0.0) @ a_max
        # about half the agents can justify inactivity (x_lo <= -alpha)
        x_lo = np.minimum(lo, -alpha) - rng.uniform(0.0, 0.5, n) * (rng.uniform(size=n) < 0.5)
        x_lo = np.where(rng.uniform(size=n) < 0.5, lo - 0.01, x_lo)
        yield make_game(WeightedNetwork(z=z), alpha=alpha, a_max=a_max, x_lo=x_lo, x_hi=hi + 0.5)


def _same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.bitmask == w.bitmask
        assert g.kind == w.kind
        assert g.declared_inactive == w.declared_inactive
        assert g.actions.tobytes() == w.actions.tobytes()
        assert g.conjectures.tobytes() == w.conjectures.tobytes()


def _same_diags(got, want):
    assert got.examined == want.examined
    assert got.singular == want.singular
    assert got.cap_hits == want.cap_hits


def test_engine_matches_reference_loops():
    seen = {"singular": 0, "cap_hits": 0, "ne": 0, "sce_non_ne": 0, "families": 0, "skips": 0}
    kinds = set()
    for spec in _battery():
        ne, ne_diag = solve_full_ne(spec)
        ref_ne, ref_ne_diag = _ref_auxiliary_ne(spec, range(spec.n))
        _same_records(ne, ref_ne)
        _same_diags(ne_diag, ref_ne_diag)

        half = range(0, spec.n, 2)
        aux, aux_diag = solve_auxiliary_ne(spec, half)
        ref_aux, ref_aux_diag = _ref_auxiliary_ne(spec, half)
        _same_records(aux, ref_aux)
        _same_diags(aux_diag, ref_aux_diag)

        sce, sce_diag = enumerate_sce(spec)
        ref_sce, ref_sce_diag = _ref_enumerate_sce(spec)
        _same_records(sce, ref_sce)
        _same_diags(sce_diag, ref_sce_diag)

        seen["singular"] += len(ne_diag.singular) + len(sce_diag.singular)
        kinds.update(why for _, why in ne_diag.singular)
        seen["cap_hits"] += len(ne_diag.cap_hits) + len(sce_diag.cap_hits)
        seen["ne"] += len(ne)
        seen["sce_non_ne"] += sum(rec.kind == "SCE-non-NE" for rec in sce)

        for rec in sce:
            family = stable_sce_family(spec, rec)
            applicable, members, skipped = _ref_family(spec, rec)
            assert family.applicable == applicable
            _same_records([m for m, _ in family.members], [m for m, _ in members])
            assert [s for _, s in family.members] == [s for _, s in members]
            assert family.skipped == skipped
            seen["families"] += applicable
            seen["skips"] += len(skipped)

    # the battery must reach every branch it is meant to compare
    assert all(count > 0 for count in seen.values()), seen
    assert kinds == {"continuum", "inconsistent"}


def _built(build, spec, a, declared, conj, validate):
    """(record, None) or (None, the UsageError text)."""
    try:
        return build(spec, a, declared, conj, validate), None
    except UsageError as exc:
        return None, str(exc)


def test_make_record_matches_reference_record():
    """make_record, the one-row case of the stacked builder, against the
    per-profile reference on about four SCE profiles per battery game,
    spread through bitmask order, and a scaled copy of each (mostly not
    selfconfirming): default and explicit conjectures, declared sets empty,
    own-inactive, everyone and one holding an active agent, with
    validation off, passing and raising the same message."""
    seen = {"passed": 0, "raised": 0, "holds_active": 0}
    for spec in _battery():
        everyone = frozenset(range(spec.n))
        records = enumerate_sce(spec)[0]
        for rec in records[:: max(1, len(records) // 4)]:
            for a in (rec.actions, 1.5 * rec.actions + 0.01):
                own = frozenset(np.flatnonzero(a <= ACTIVE_TOL).tolist())
                top = frozenset({int(np.argmax(a))})
                seen["holds_active"] += a.max() > ACTIVE_TOL
                for declared in (frozenset(), own, everyone, own | top):
                    for conj in (None, rec.conjectures):
                        for validate in (False, True):
                            args = (spec, a, declared, conj, validate)
                            got, err = _built(make_record, *args)
                            want, ref_err = _built(reference_record, *args)
                            assert err == ref_err
                            if want is None:
                                seen["raised"] += 1
                                continue
                            seen["passed"] += validate
                            assert got.active_set == want.active_set
                            _same_records([got], [want])
                            assert not got.actions.flags.writeable
                            assert not got.conjectures.flags.writeable
    assert all(count > 0 for count in seen.values()), seen


def _count_solves(monkeypatch):
    """Every support system that reaches the stacked kernel, once per call
    that solves it. A system is named by its row's address in the gathered
    stack, which is kept alive here so no address is reused; a halved
    block's rows keep the addresses of the rows they view."""
    calls, stacks = [], []
    kernel = equilibrium._solve_block

    def stacked(sub, rhs):
        stacks.append(sub)
        calls.extend(sub.ctypes.data + r * sub.strides[0] for r in range(len(sub)))
        return kernel(sub, rhs)

    monkeypatch.setattr(equilibrium, "_solve_block", stacked)
    return calls


def _lstsq_calls(monkeypatch):
    """The (matrix, right-hand side) bytes of every ``np.linalg.lstsq``
    call."""
    calls = []
    real = np.linalg.lstsq

    def counted(a, b, *args, **kwargs):
        calls.append((np.asarray(a).tobytes(), np.asarray(b).tobytes()))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_family_solves_each_subset_once(positive_game, monkeypatch):
    """2^4 = 16 solves for a four-agent active set, not 3^4 = 81."""
    ne = by_active(enumerate_sce(positive_game)[0], [0, 1, 2, 3])
    calls = _count_solves(monkeypatch)
    family = stable_sce_family(positive_game, ne)
    assert len(family.members) == 16
    assert len(calls) == 16
    assert len(set(calls)) == 16


# ------------------------------------------------------------ stacked kernel


def _ref_solve_supports(spec, supports):
    """One _solve_active per support, then the positivity and cap filters."""
    found, singular, cap_hits = [], [], []
    examined = 0
    for k in supports:
        examined += 1
        sol, fail = _solve_active(spec, k)
        if fail is not None:
            singular.append((frozenset(k), fail))
            continue
        if np.any(sol <= ACTIVE_TOL):
            continue
        idx = np.array(k, dtype=int)
        if np.any(sol > spec.a_max[idx] - CAP_MARGIN):
            cap_hits.append(frozenset(k))
            continue
        a = np.zeros(spec.n)
        a[idx] = sol
        found.append((k, a))
    diags = SolveDiagnostics(
        examined=examined, singular=tuple(singular), cap_hits=tuple(cap_hits)
    )
    return found, diags


def _kernel_battery(games=40, seed=20261018):
    """Games with n = 1..14 once, then n = 1..9 cycling; signed, negative or
    positive weights; caps on half of them. Some games with n <= 9 carry
    unit reciprocal pairs, whose support is exactly singular (continuum
    when alpha_j = -alpha_i, inconsistent otherwise; on game 8k+3 one of
    each), or a pair at 1 - 1e-12, which LAPACK solves but the residual
    guard rejects."""
    rng = np.random.default_rng(seed)
    for t in range(games):
        n = 1 + t if t < 14 else 1 + t % 9
        m = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        np.fill_diagonal(m, 0.0)
        sign = ("signed", "negative", "positive")[t % 3]
        if sign == "signed":
            m *= rng.choice([-1.0, 1.0], size=(n, n))
        elif sign == "negative":
            m = -m
        top = np.abs(m).sum(axis=1).max()
        z = m * (rng.uniform(0.2, 1.3) / top) if top > 0 else m
        alpha = rng.uniform(0.05, 1.0, n)
        if rng.uniform() < 0.15:
            alpha[rng.integers(n)] *= -1.0
        pairs = rng.permutation(n)
        if t % 8 == 3 and 4 <= n <= 9:
            (i, j), (k, l) = pairs[:2], pairs[2:4]
            z[i, j] = z[j, i] = z[k, l] = z[l, k] = 1.0
            alpha[j] = -alpha[i]
        elif 2 <= n <= 9 and t % 4 == 1:
            i, j = pairs[:2]
            z[i, j] = z[j, i] = 1.0
            if rng.uniform() < 0.5:
                alpha[j] = -alpha[i]
        elif 2 <= n <= 9 and t % 4 == 2:
            i, j = pairs[:2]
            z[i, j] = z[j, i] = 1.0 - 1e-12
        a_max = rng.uniform(0.1, 3.0, n) if t % 2 else np.full(n, 1e6)
        yield make_game(WeightedNetwork(z=z), alpha=alpha, a_max=a_max)


def _as_runs(supports):
    """Supports in the order given as one (C, m) index array per size."""
    runs = []
    for m, run in itertools.groupby(supports, key=len):
        run = list(run)
        runs.append(np.array(run, dtype=np.intp).reshape(len(run), m))
    return runs


def test_stacked_kernel_matches_per_support_loop(monkeypatch):
    """found and diagnostics bit for bit against one solve per support, at
    the default block size and, up to n = 10, at blocks of 3, fed subsets
    as the NE path does and, up to n = 10, complements as enumerate_sce
    does, each as one index array per support size."""
    rows = []  # rows per kernel call
    fallbacks = []  # labels of lone systems the kernel solved by lstsq
    kernel = equilibrium._solve_block
    lstsq = _lstsq_calls(monkeypatch)

    def stacked(sub, rhs):
        rows.append(len(sub))
        before = len(lstsq)
        sol, bad, why = kernel(sub, rhs)
        # A one-row call never halves, so any lstsq call in it is its own.
        if len(sub) == 1 and len(lstsq) > before:
            fallbacks.append(why[0])
        return sol, bad, why

    monkeypatch.setattr(equilibrium, "_solve_block", stacked)
    seen = {"guarded": 0, "cap_hits": 0, "empty": 0, "split": 0}
    default = equilibrium._SOLVE_BLOCK
    for spec in _kernel_battery():
        orders = [
            [k for r in range(spec.n + 1) for k in itertools.combinations(range(spec.n), r)]
        ]
        blocks = [default]
        if spec.n <= 10:
            everyone = frozenset(range(spec.n))
            orders.append([tuple(sorted(everyone - frozenset(s))) for s in orders[0]])
            blocks.append(3)
        for supports in orders:
            ref_found, ref_diags = _ref_solve_supports(spec, supports)
            for block in blocks:
                monkeypatch.setattr(equilibrium, "_SOLVE_BLOCK", block)
                start, labels = len(rows), len(fallbacks)
                acts, diags = equilibrium._solve_supports(spec, iter(_as_runs(supports)))
                # A kept row is above ACTIVE_TOL on its support, 0 elsewhere.
                assert acts.shape == (len(ref_found), spec.n)
                assert [np.flatnonzero(a).tolist() for a in acts] == [
                    list(k) for k, _ in ref_found
                ]
                for a, (_, b) in zip(acts, ref_found):
                    assert a.tobytes() == b.tobytes()
                _same_diags(diags, ref_diags)
                assert max(rows[start:]) <= block
                seen["split"] += len(rows) - start > len({len(k) for k in supports})
                seen["guarded"] += len(diags.singular) - (len(fallbacks) - labels)
                seen["cap_hits"] += len(diags.cap_hits)
                seen["empty"] += not acts.any(axis=1).all()
    assert all(count > 0 for count in seen.values()), seen
    assert set(fallbacks) == {"continuum", "inconsistent"}


def _pairs_game():
    """Eight agents with weak random links and four unit-like reciprocal
    pairs: {0, 1} is exactly singular with a continuum (alpha_1 = -alpha_0),
    {2, 3} and {4, 5} exactly singular and inconsistent, and {6, 7} at
    1 - 1e-12, which LAPACK solves but the residual guard rejects."""
    rng = np.random.default_rng(5)
    z = rng.uniform(0.0, 0.1, (8, 8))
    np.fill_diagonal(z, 0.0)
    for i, w in ((0, 1.0), (2, 1.0), (4, 1.0), (6, 1.0 - 1e-12)):
        z[i, i + 1] = z[i + 1, i] = w
    alpha = rng.uniform(0.1, 1.0, 8)
    alpha[1] = -alpha[0]
    return make_game(WeightedNetwork(z=z), alpha=alpha)


def test_singular_blocks_are_halved(monkeypatch):
    """Singular supports first, in the middle and last in a block, and a
    block of singular supports only: labels in the reference's order,
    ``lstsq`` only on the exactly singular supports' systems, in the
    reference's order, and at most 2s - 1 stacked calls for a block of s
    supports, every one of them seen by a wrapper of the module's name."""
    spec = _pairs_game()
    singular = [(0, 1), (2, 3), (4, 5)]
    blocks = [
        [(0, 1), (0, 2), (6, 7), (1, 3)],
        [(0, 2), (2, 4), (2, 3), (3, 5)],
        [(0, 7), (1, 6), (2, 5), (4, 5)],
        singular,
    ]
    calls = []
    kernel = equilibrium._solve_block
    alone = _lstsq_calls(monkeypatch)

    def stacked(sub, rhs):
        calls.append(len(sub))
        return kernel(sub, rhs)

    def system(k):
        idx = np.array(k)
        sub = np.eye(len(idx)) - spec.net.z[np.ix_(idx, idx)]
        return sub.tobytes(), spec.alpha[idx].tobytes()

    def halving(flags):
        """Rows per kernel call: a block with an exactly singular member
        is split in ``np.array_split`` order, each half solved again."""
        if len(flags) == 1 or not any(flags):
            return [len(flags)]
        h = len(flags) - len(flags) // 2
        return [len(flags)] + halving(flags[:h]) + halving(flags[h:])

    monkeypatch.setattr(equilibrium, "_solve_block", stacked)
    for block in blocks:
        ref_found, ref_diags = _ref_solve_supports(spec, block)
        calls.clear()
        alone.clear()
        acts, diags = equilibrium._solve_supports(spec, [np.array(block, dtype=np.intp)])
        _same_diags(diags, ref_diags)
        assert [a.tobytes() for a in acts] == [a.tobytes() for _, a in ref_found]
        assert alone == [system(k) for k in block if k in singular]
        assert len(calls) <= 2 * len(block) - 1
        assert calls == halving([k in singular for k in block])
    # the blocks as one run, cut at four rows
    monkeypatch.setattr(equilibrium, "_SOLVE_BLOCK", 4)
    supports = [k for block in blocks for k in block]
    acts, diags = equilibrium._solve_supports(spec, [np.array(supports, dtype=np.intp)])
    _same_diags(diags, _ref_solve_supports(spec, supports)[1])
    labels = dict(diags.singular)
    assert labels[frozenset({0, 1})] == "continuum"
    assert labels[frozenset({2, 3})] == labels[frozenset({6, 7})] == "inconsistent"


def _chunk_edges(block):
    """(pair, supports of ``_pairs_game``) for each of its singular and
    1 - 1e-12 pairs: the pair first and last in the first chunk of
    ``block`` rows and alone in the final chunk, around fillers whose size
    changes every three supports."""
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    by_size = [
        [k for k in itertools.combinations(range(8), r) if not any(set(p) <= set(k) for p in pairs)]
        for r in (1, 2, 3)
    ]
    fillers = [k for t in range(0, 24, 3) for run in by_size for k in run[t : t + 3]] * 3
    for pair in pairs:
        head = [pair] + fillers[: block - 2] + [pair] if block > 1 else [pair]
        yield pair, head + fillers[-block:] + [pair]


def test_chunks_cut_inside_and_across_sizes(monkeypatch):
    """At blocks of 1, 2, 5, 7 and 64 supports, chunks cut size runs and
    hold several sizes: the kept rows' bytes and the diagnostics equal one
    solve per support, on subsets (the Nash order) and complements (the
    selfconfirming order) of the kernel battery's games up to n = 9 and on
    ``_pairs_game``'s singular and guarded pairs placed at chunk edges,
    and on its subsets with agent 7 capped below CAP_MARGIN, which only
    the supports holding 7 may hit. Every chunk but the last holds exactly
    ``_SOLVE_BLOCK`` rows, the supports in order."""
    cuts = []  # the supports of each chunk
    chunker = equilibrium._chunks

    def chunks(runs):
        for chunk in chunker(runs):
            cuts.append([tuple(row) for piece in chunk for row in piece.tolist()])
            yield chunk

    monkeypatch.setattr(equilibrium, "_chunks", chunks)
    battery = []
    for spec in _kernel_battery():
        if spec.n <= 9:
            subsets = [k for r in range(spec.n + 1) for k in itertools.combinations(range(spec.n), r)]
            everyone = frozenset(range(spec.n))
            complements = [tuple(sorted(everyone - frozenset(k))) for k in subsets]
            battery += [(spec, subsets), (spec, complements)]
    pairs = _pairs_game()
    tiny = make_game(pairs.net, pairs.alpha, a_max=np.r_[np.full(7, 1e6), 0.5 * CAP_MARGIN])
    battery.append((tiny, [k for r in range(9) for k in itertools.combinations(range(8), r)]))
    refs = {}
    seen = {"mixed": 0, "spanning": 0, "singular": 0, "cap_hits": 0}
    for block in (1, 2, 5, 7, 64):
        monkeypatch.setattr(equilibrium, "_SOLVE_BLOCK", block)
        edges = list(_chunk_edges(block))
        for t, (spec, supports) in enumerate(battery + [(pairs, s) for _, s in edges]):
            key = t if t < len(battery) else (block, t)
            if key not in refs:
                refs[key] = _ref_solve_supports(spec, supports)
            ref_found, ref_diags = refs[key]
            cuts.clear()
            acts, diags = equilibrium._solve_supports(spec, iter(_as_runs(supports)))
            assert [a.tobytes() for a in acts] == [a.tobytes() for _, a in ref_found]
            assert diags == ref_diags
            assert [k for cut in cuts for k in cut] == list(supports)
            assert all(len(cut) == block for cut in cuts[:-1]) and 0 < len(cuts[-1]) <= block
            if t >= len(battery):
                pair = edges[t - len(battery)][0]
                assert cuts[0][0] == cuts[0][-1] == pair and cuts[-1] == [pair]
            sizes = [{len(k) for k in cut} for cut in cuts]
            seen["mixed"] += sum(len(s) > 1 for s in sizes)
            seen["spanning"] += sum(bool(a & b) for a, b in zip(sizes, sizes[1:]))
            seen["singular"] += len(diags.singular)
            seen["cap_hits"] += len(diags.cap_hits)
    assert all(count > 0 for count in seen.values()), seen


def test_nash_boundary_test_runs_per_chunk(monkeypatch):
    """``solve_auxiliary_ne`` drops each chunk's non-Nash profiles before
    the next chunk, so between chunks it holds only the Nash profiles found
    so far. At every ``_SOLVE_BLOCK`` its records and diagnostics equal,
    bit for bit, those of one boundary test on the whole kept stack (the
    filter as it ran after enumeration), on the kernel battery's games up to
    n = 9 with all agents and with every other agent as candidates. The
    certificate is off, so every candidate set enumerates."""
    monkeypatch.setattr(equilibrium, "_certified_ne", lambda spec, j: None)
    solve, chunker = equilibrium._solve_supports, equilibrium._chunks
    held, chunks = [], []  # rows passing the test, and chunks, per call

    def tested(spec, runs, keep=None):
        def counted(rows):
            mask = keep(rows)
            held.append(int(mask.sum()))
            return mask

        return solve(spec, runs, counted)

    def counted_chunks(runs):
        for chunk in chunker(runs):
            chunks.append(chunk)
            yield chunk

    def whole_stack(spec, j):
        acts, diags = solve(spec, equilibrium._subset_runs(j))
        x = aggregate(spec, acts)
        outside = np.isin(np.arange(spec.n), j) & (acts == 0.0)
        keep = ~((spec.alpha + x > equilibrium.BOUNDARY_TOL) & outside).any(axis=1)
        declared = frozenset(range(spec.n)) - frozenset(j)
        records = equilibrium._records(spec, acts[keep], x[keep], declared)
        return records, diags, int((~keep).sum())

    monkeypatch.setattr(equilibrium, "_solve_supports", tested)
    monkeypatch.setattr(equilibrium, "_chunks", counted_chunks)
    seen = {"records": 0, "dropped": 0, "singular": 0, "cap_hits": 0}
    for spec in _kernel_battery():
        if spec.n > 9:
            continue
        for j in (list(range(spec.n)), list(range(0, spec.n, 2))):
            want, want_diags, dropped = whole_stack(spec, j)
            for block in (1, 2, 5, 7, 64):
                monkeypatch.setattr(equilibrium, "_SOLVE_BLOCK", block)
                held.clear()
                chunks.clear()
                got, diags = solve_auxiliary_ne(spec, j)
                _same_records(got, want)
                assert diags == want_diags
                assert len(held) == len(chunks) == -(-2 ** len(j) // block)
                assert sum(held) == len(got)
            monkeypatch.setattr(equilibrium, "_SOLVE_BLOCK", 4096)
            seen["records"] += len(want)
            seen["dropped"] += dropped
            seen["singular"] += len(want_diags.singular)
            seen["cap_hits"] += len(want_diags.cap_hits)
    assert all(count > 0 for count in seen.values()), seen


def test_one_support_solver():
    """``src/netsce`` solves supports on one path: no per-support
    ``_solve_active`` or ``_solve_halving``, one ``lstsq`` call and one
    residual guard (the 1e-7 literal)."""
    defined, lstsq, guards = set(), 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                lstsq += name == "lstsq"
            elif isinstance(node, ast.Constant) and node.value == 1e-7:
                guards += 1
    assert not defined & {"_solve_active", "_solve_halving"}
    assert "_solve_block" in defined
    assert lstsq == 1
    assert guards == 1


def test_one_spectral_kernel_and_one_weight_rule():
    """``src/netsce`` calls ``np.linalg.eigvals`` once, inside
    ``spectral_radius``, and ``np.linalg.eigvalsh`` twice, in the network
    analysis's ``_spectrum`` and in ``Decomposition.lambda_max``; both
    contraction certificates, ``_certified_ne`` and the probe's
    ``_certificate``, take their weights from ``_weights``."""
    eigvals, eigvalsh, weights = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "eigvals":
                        eigvals.append(fn.name)
                    elif name == "eigvalsh":
                        eigvalsh.append(fn.name)
                    elif name == "_weights":
                        weights.add(fn.name)
    assert eigvals == ["spectral_radius"]
    assert sorted(eigvalsh) == ["_spectrum", "lambda_max"]
    assert weights == {"_certified_ne", "_certificate"}


def _runs_against_itertools(n, agents):
    """_subset_runs and _complement_runs of the sorted ``agents`` against
    itertools: one intp array per size, rows in subset order and each
    complement sorted."""
    subsets = [k for r in range(len(agents) + 1) for k in itertools.combinations(agents, r)]
    complements = [tuple(i for i in range(n) if i not in k) for k in subsets]
    for runs, want in (
        (equilibrium._subset_runs(agents), subsets),
        (equilibrium._complement_runs(n, agents), complements),
    ):
        runs = list(runs)
        assert [run.dtype for run in runs] == [np.dtype(np.intp)] * (len(agents) + 1)
        assert [run.ndim for run in runs] == [2] * (len(agents) + 1)
        rows = [tuple(row) for run in runs for row in run.tolist()]
        assert rows == want
        assert all(list(row) == sorted(row) for row in rows)


def test_runs_follow_subset_order():
    """_subset_runs and _complement_runs against itertools, one index array
    per size, for agent sets with gaps and for no agents at all. The
    complements are the subset runs read backwards and merged with the
    agents outside J, since complementing within J reverses lexicographic
    order: checked for every J of range(n), n <= 6, and for seeded random J
    of range(n), n = 7..12, with J empty and J everyone among them."""
    for n, agents in ((7, [0, 2, 5, 6]), (5, list(range(5))), (3, [])):
        _runs_against_itertools(n, agents)
    for n in range(7):
        for r in range(n + 1):
            for agents in itertools.combinations(range(n), r):
                _runs_against_itertools(n, list(agents))
    rng = np.random.default_rng(20261021)
    for n in range(7, 13):
        picks = [[], list(range(n))]
        picks += [sorted(rng.choice(n, size=rng.integers(1, n), replace=False).tolist())
                  for _ in range(4)]
        for agents in picks:
            _runs_against_itertools(n, agents)


def _lapack_calls(monkeypatch):
    """Wrap ``np.array_split`` and ``np.linalg.lstsq``, which the kernel
    calls only after LAPACK has rejected a stack (to halve it, or to label
    a lone system), and return the list their calls append to."""
    calls = []
    for owner, name in ((np, "array_split"), (np.linalg, "lstsq")):
        real = getattr(owner, name)

        def wrapped(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_lapack_entry_matches_numpy_solve(monkeypatch):
    """Whatever LAPACK entry ``_solve_block`` uses gives the bits of
    ``np.linalg.solve`` on every stack the kernel battery's enumerations
    hand it (all subsets, n = 1..14), and is rejected on exactly the stacks
    ``np.linalg.solve`` rejects: the battery's singular ones, each of
    ``_pairs_game``'s exactly singular pairs alone and in stacks, and
    one-row stacks. The residual rows are ``sub @ sol - rhs``."""
    stacks = []
    kernel = equilibrium._solve_block

    def captured(sub, rhs):
        stacks.append((sub.copy(), rhs.copy()))
        return kernel(sub, rhs)

    monkeypatch.setattr(equilibrium, "_solve_block", captured)
    for spec in _kernel_battery():
        equilibrium._solve_supports(spec, equilibrium._subset_runs(range(spec.n)))
    monkeypatch.setattr(equilibrium, "_solve_block", kernel)
    spec = _pairs_game()
    w = np.eye(8) - spec.net.z
    for block in ([(0, 1)], [(2, 3)], [(6, 7)], [(0, 5)], [(0, 2), (2, 3), (6, 7)],
                  [(0, 1), (2, 3), (4, 5)]):
        k = np.array(block, dtype=np.intp)
        stacks.append((w[k[:, :, None], k[:, None, :]], spec.alpha[k]))
    stacks += [(sub[i : i + 1], rhs[i : i + 1]) for sub, rhs in stacks[:60] for i in (0, -1)]
    calls = _lapack_calls(monkeypatch)
    seen = {"solved": 0, "rejected": 0, "rejected_rows": 0, "one_row": 0}
    for sub, rhs in stacks:
        try:
            want = np.linalg.solve(sub, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            want = None
        calls.clear()
        sol, res, why = kernel(sub, rhs)
        assert len(why) == len(sub)
        # The kernel halves or labels a stack only once LAPACK rejects it.
        assert bool(calls) == (want is None)
        seen["one_row"] += len(sub) == 1
        if want is None:
            seen["rejected"] += 1
            seen["rejected_rows"] += len(sub) == 1
            continue
        seen["solved"] += 1
        assert sol.tobytes() == want.tobytes()
        assert res.tobytes() == (np.matvec(sub, want) - rhs).tobytes()
    assert all(count > 0 for count in seen.values()), seen


# ------------------------------------------------------------ enumeration limit


@pytest.fixture
def no_solves(monkeypatch):
    return _count_solves(monkeypatch)


def _free_game(n):
    """n independent agents, every one able to justify inactivity."""
    return make_game(WeightedNetwork(z=np.zeros((n, n))), alpha=0.1, x_lo=-1.0, x_hi=1.0)


def test_full_ne_limit_raises_before_solving(no_solves):
    with pytest.raises(UsageError, match="2\\^21"):
        solve_full_ne(_free_game(21))
    assert no_solves == []


def test_sce_limit_raises_before_solving(no_solves):
    spec = _free_game(21)
    assert len(justifiable_inactivity_set(spec)) == 21
    with pytest.raises(UsageError, match="2\\^21"):
        enumerate_sce(spec)
    assert no_solves == []


def test_family_limit_raises_before_solving(no_solves):
    spec = _free_game(21)
    rec = make_record(spec, np.full(21, 0.1))
    assert len(rec.active_set) == 21
    with pytest.raises(UsageError, match="2\\^21"):
        stable_sce_family(spec, rec)
    assert no_solves == []
