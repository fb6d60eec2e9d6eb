import copy
import re
import pickle

import numpy as np
import pytest

from netsce import (
    EquilibriumRecord,
    UsageError,
    WeightedNetwork,
    aggregate,
    enumerate_sce,
    interior_conditions,
    is_sce,
    make_game,
    make_record,
    solve_auxiliary_ne,
    solve_full_ne,
)
from netsce import equilibrium

from conftest import ADJ4, by_active, reference_record


def profiles(records):
    return {tuple(np.round(r.actions, 10)) for r in records}


# ---------------------------------------------------------------- full tables


def test_positive_table(positive_game):
    """gamma = 0.2: sixteen equilibria, one of them Nash."""
    records, diag = enumerate_sce(positive_game)
    assert len(records) == 16
    assert len(profiles(records)) == 16
    kinds = [r for r in records if r.kind == "NE"]
    assert len(kinds) == 1
    ne = kinds[0]
    assert ne.active_set == frozenset({0, 1, 2, 3})
    assert np.allclose(ne.actions, [31 / 240, 0.175, 0.1, 7 / 48], atol=1e-9)
    assert not diag.singular

    # spot-check three partial columns (hand solves of the restricted system)
    assert np.allclose(by_active(records, [0, 1, 3]).actions, [0.125, 0.15, 0, 0.125], atol=1e-9)
    assert np.allclose(by_active(records, [0, 1, 2]).actions, [0.1, 0.14, 0.1, 0], atol=1e-9)
    assert np.allclose(by_active(records, [1, 2, 3]).actions, [0, 0.144, 0.1, 0.12], atol=1e-9)
    assert np.allclose(by_active(records, [2]).actions, [0, 0, 0.1, 0], atol=1e-12)


def test_negative_table(negative_game):
    """gamma = -0.6 keeps thirteen of the sixteen candidate solves."""
    records, _ = enumerate_sce(negative_game)
    assert len(records) == 13
    actives = {tuple(sorted(r.active_set)) for r in records}
    # the three subsets whose restricted solve goes negative are gone
    assert (0, 1, 2) not in actives
    assert (0, 2, 3) not in actives
    assert (0, 1, 2, 3) not in actives

    assert np.allclose(by_active(records, [0, 1, 3]).actions, [0.0625, 0.025, 0, 0.0625], atol=1e-9)
    assert np.allclose(by_active(records, [1, 2, 3]).actions, [0, 0.016, 0.1, 0.04], atol=1e-9)
    assert np.allclose(by_active(records, [0, 3]).actions, [0.0625, 0, 0, 0.0625], atol=1e-9)

    # agent 2 feels no externality, so every profile leaving it inactive is
    # refutable in the Nash sense; only {0, 2} best-replies all around.
    nash = [r for r in records if r.kind == "NE"]
    assert [sorted(r.active_set) for r in nash] == [[0, 2]]
    assert np.allclose(nash[0].actions, [0.1, 0, 0.1, 0], atol=1e-12)


def test_negative_table_has_no_all_active_solution(negative_game):
    records, _ = solve_auxiliary_ne(negative_game, range(4))
    assert all(r.active_set != frozenset(range(4)) for r in records)


def test_mixed_table(mixed_game):
    records, _ = enumerate_sce(mixed_game)
    assert len(records) == 16
    nash = [r for r in records if r.kind == "NE"]
    assert len(nash) == 1
    assert np.allclose(
        nash[0].actions, [16.6 / 131, 21 / 131, 5.4 / 131, 17.5 / 131], atol=1e-9
    )
    assert np.allclose(by_active(records, [1, 2]).actions, [0, 3 / 26, 1 / 13, 0], atol=1e-9)
    assert np.allclose(
        by_active(records, [0, 1, 2]).actions, [0.1, 7 / 52, 19 / 260, 0], atol=1e-9
    )
    assert np.allclose(by_active(records, [0, 2, 3]).actions, [0.128, 0, 0.072, 0.14], atol=1e-9)


# ------------------------------------------------------- records and witnesses


def test_record_witnesses(positive_game):
    records, _ = enumerate_sce(positive_game)
    for rec in records:
        x = aggregate(positive_game, rec.actions)
        for i in range(4):
            if i in rec.active_set:
                assert rec.conjectures[i] == pytest.approx(x[i], abs=1e-9)
            else:
                assert rec.conjectures[i] == positive_game.x_lo[i]
        check = is_sce(positive_game, rec.actions, rec.conjectures)
        assert check.ok, check.violations


def test_record_bitmask(positive_game):
    records, _ = enumerate_sce(positive_game)
    masks = [r.bitmask for r in records]
    assert masks == sorted(masks)
    assert masks[0] == 0 and masks[-1] == 0b1111


def test_records_past_62_agents_come_in_bitmask_order():
    """n = 70 with agents 1, 40 and 68 able to justify inactivity: eight
    records whose bitmasks overflow int64, each equal to the reference
    record on its profile."""
    n = 70
    rng = np.random.default_rng(12)
    z = rng.uniform(0.0, 0.5 / n, (n, n))
    np.fill_diagonal(z, 0.0)
    alpha = rng.uniform(0.05, 0.3, n)
    x_lo = -0.5 * alpha
    x_lo[[1, 40, 68]] = -1.0
    spec = make_game(WeightedNetwork(z=z), alpha, a_max=1.0, x_lo=x_lo, x_hi=1.0)
    records, _ = enumerate_sce(spec)
    assert len(records) == 8
    masks = [rec.bitmask for rec in records]
    assert masks == sorted(masks) and max(masks) >= 1 << 69
    want = sorted(
        (
            reference_record(spec, rec.actions, rec.declared_inactive, validate=False)
            for rec in records
        ),
        key=lambda rec: rec.bitmask,
    )
    assert {rec.kind for rec in records} == {"NE", "SCE-non-NE"}
    for got, ref in zip(records, want):
        assert got.active_set == ref.active_set
        assert got.declared_inactive == ref.declared_inactive
        assert got.kind == ref.kind
        assert got.actions.tobytes() == ref.actions.tobytes()
        assert got.conjectures.tobytes() == ref.conjectures.tobytes()
        assert not got.actions.flags.writeable
        assert not got.conjectures.flags.writeable


def test_records_take_one_aggregate_per_call(monkeypatch):
    """Seven strong substitutes: every nonempty active set is a Nash
    equilibrium, so the two calls build 127 and 128 records from one
    stacked aggregate each."""
    n = 7
    spec = make_game(WeightedNetwork(z=-1.5 * (np.ones((n, n)) - np.eye(n))), alpha=0.1)
    calls = []

    def counted(spec, actions):
        calls.append(np.shape(actions))
        return aggregate(spec, actions)

    monkeypatch.setattr(equilibrium, "aggregate", counted)
    ne, _ = solve_full_ne(spec)
    assert len(ne) == 127 and calls == [(128, n)]
    sce, _ = enumerate_sce(spec)
    assert len(sce) == 128 and calls == [(128, n)] * 2


def test_solve_full_ne_single_agent():
    game = make_game(WeightedNetwork(z=np.zeros((1, 1))), alpha=0.1)
    records, _ = solve_full_ne(game)
    assert len(records) == 1 and records[0].actions[0] == pytest.approx(0.1)

    game = make_game(WeightedNetwork(z=np.zeros((1, 1))), alpha=-0.1, x_lo=-1.0, x_hi=1.0)
    records, _ = solve_full_ne(game)
    assert len(records) == 1 and records[0].actions[0] == 0.0


def test_boundary_tie_counts_as_nash():
    z = np.array([[0.0, -1.0], [-2.0, 0.0]])
    game = make_game(WeightedNetwork(z=z), alpha=np.array([0.1, 0.2]))
    records, _ = enumerate_sce(game)
    rec = by_active(records, [0])
    # agent 1 faces alpha + x = 0.2 - 2 * 0.1 = 0 exactly: weakly best replies
    assert rec.kind == "NE"
    assert by_active(records, [1]).kind == "NE"
    assert by_active(records, []).kind == "SCE-non-NE"
    assert len(records) == 3  # restricted all-active solve hits a zero, dropped


def test_degenerate_solve_diagnostics():
    z = np.array([[0.0, 1.0], [1.0, 0.0]])
    # rhs in the range of the singular system: a whole line of solutions
    game = make_game(WeightedNetwork(z=z), alpha=np.array([0.1, -0.1]))
    records, diag = solve_auxiliary_ne(game, [0, 1])
    assert diag.examined == 4
    assert (frozenset({0, 1}), "continuum") in diag.singular

    # rhs off the range: no solution at all
    game = make_game(WeightedNetwork(z=z), alpha=0.1)
    _, diag = solve_auxiliary_ne(game, [0, 1])
    assert (frozenset({0, 1}), "inconsistent") in diag.singular


def test_cap_binding_solutions_are_rejected():
    # an isolated agent whose unconstrained reply exceeds the cap
    game = make_game(WeightedNetwork(z=np.zeros((1, 1))), alpha=2.0, a_max=1.0,
                     x_lo=-5.0, x_hi=5.0)
    records, diag = solve_full_ne(game)
    assert records == []
    assert diag.cap_hits


def test_is_sce_detail(positive_game):
    zero = np.zeros(4)
    ok = is_sce(positive_game, zero, positive_game.x_lo)
    assert ok.ok
    bad = is_sce(positive_game, zero, np.zeros(4))
    assert not bad.ok
    assert all(kind == "rationality" for _, kind, _ in bad.violations)
    # active agent with a lying conjecture: feedback refutes it
    records, _ = enumerate_sce(positive_game)
    ne = by_active(records, [0, 1, 2, 3])
    wrong = ne.conjectures.copy()
    wrong[0] += 0.05
    bad = is_sce(positive_game, ne.actions, wrong)
    assert not bad.ok
    kinds = {kind for _, kind, _ in bad.violations}
    assert kinds == {"rationality", "confirmation"}


def test_make_record_requires_rationality(positive_game):
    with pytest.raises(UsageError):
        make_record(positive_game, np.array([5.0, 0, 0, 0]), declared_inactive=frozenset({1, 2, 3}),
                    conjectures=np.zeros(4))


@pytest.mark.parametrize("entry", [-1, 7])
def test_make_record_rejects_declared_entries_that_are_not_agents(entry):
    """On three agents, -1 would silently mark agent 2 and 7 would fail
    with a bare IndexError; both name the entry in a UsageError instead."""
    game = make_game(WeightedNetwork(z=np.zeros((3, 3))), alpha=0.1, x_lo=-1.0, x_hi=1.0)
    with pytest.raises(UsageError, match=f"declared_inactive holds {entry}: "):
        make_record(game, np.array([0.1, 0.1, 0.0]), declared_inactive=frozenset({entry}))


@pytest.mark.parametrize(
    "entry", [1.7, True, "1", np.float64(2.0), -1, 3],
    ids=["float", "bool", "str", "float64", "negative", "past-n"],
)
def test_auxiliary_ne_rejects_candidates_that_are_not_agents(entry, monkeypatch):
    """On three agents, [0, 1.7] used to solve {0, 1}, [True, 2] {1, 2} and
    ["1"] {1}: each entry that is not an int or np.integer in range(n), or
    is a bool, now raises the make_record rule's UsageError, before any
    solve, whatever its place among the candidates."""
    game = make_game(WeightedNetwork(z=np.zeros((3, 3))), alpha=0.1, x_lo=-1.0, x_hi=1.0)
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
    for candidates in ([0, entry], [entry, 2], [entry]):
        with pytest.raises(UsageError, match=re.escape(f"candidates holds {entry!r}: not an agent")):
            solve_auxiliary_ne(game, candidates)
    with pytest.raises(UsageError, match=re.escape(f"declared_inactive holds {entry!r}: ")):
        make_record(game, np.array([0.1, 0.1, 0.0]), declared_inactive=[entry])
    assert solves == []


def test_auxiliary_ne_takes_numpy_integer_candidates(mixed_game):
    """np.integer entries and duplicates name the same candidate set."""
    want = solve_auxiliary_ne(mixed_game, [0, 2])
    got = solve_auxiliary_ne(mixed_game, np.array([2, 0, 2]))
    assert got[1] == want[1]
    assert [r.actions.tobytes() for r in got[0]] == [r.actions.tobytes() for r in want[0]]
    assert all(type(i) is int for rec in got[0] for i in rec.declared_inactive)


# ---------------------------------------------------------- record sharing


def test_records_of_a_call_are_views_of_one_frozen_stack(mixed_game):
    records, _ = enumerate_sce(mixed_game)
    assert len(records) > 1
    for name in ("actions", "conjectures"):
        stack = getattr(records[0], name).base
        assert not stack.flags.writeable
        for rec in records:
            arr = getattr(rec, name)
            assert np.shares_memory(arr, stack)
            with pytest.raises(ValueError):
                arr[0] = 1.0


def test_make_record_copies_what_its_caller_can_write(positive_game):
    rec = enumerate_sce(positive_game)[0][5]
    a, c = rec.actions.copy(), rec.conjectures.copy()
    made = make_record(positive_game, a, rec.declared_inactive, conjectures=c)
    listed = make_record(positive_game, a.tolist(), rec.declared_inactive, conjectures=c.tolist())
    a[:] = -1.0
    c[:] = -1.0
    for got in (made, listed):
        assert got.actions.tobytes() == rec.actions.tobytes()
        assert got.conjectures.tobytes() == rec.conjectures.tobytes()
        assert not np.shares_memory(got.actions, a)
        assert not np.shares_memory(got.conjectures, c)


def test_record_copies_read_only_view_of_writable_array():
    writable = np.array([0.5, 0.0])
    view = writable[:]
    view.flags.writeable = False
    frozen = writable.copy()
    frozen.flags.writeable = False
    over_bytes = np.frombuffer(writable.tobytes())
    rec = EquilibriumRecord(
        actions=view,
        conjectures=frozen,
        active_set=frozenset({0}),
        declared_inactive=frozenset({1}),
        kind="NE",
    )
    writable[0] = 9.0
    assert rec.actions[0] == 0.5
    assert not np.shares_memory(rec.actions, writable)
    # read-only but owning its memory, so its holder could make it writable
    # again: copied
    assert not np.shares_memory(rec.conjectures, frozen)
    frozen.flags.writeable = True
    frozen[0] = 9.0
    assert rec.conjectures[0] == 0.5
    # over an immutable bytes object: kept as given
    kept = EquilibriumRecord(over_bytes, over_bytes[:], frozenset({0}), frozenset({1}), "NE")
    assert kept.actions is over_bytes
    assert kept.conjectures.base is over_bytes


def test_record_arrays_cannot_be_made_writable(positive_game):
    """Turning the write flag back on fails on a record's arrays and on the
    stack they view, so no holder can change the records of a call."""
    records, _ = enumerate_sce(positive_game)
    made = make_record(positive_game, records[1].actions, records[1].declared_inactive,
                       conjectures=records[1].conjectures.copy())
    direct = EquilibriumRecord([0.5, 0.0], np.zeros(2), frozenset({0}), frozenset({1}), "NE")
    before = [rec.actions.tobytes() + rec.conjectures.tobytes() for rec in records]
    for rec in records[:2] + [made, direct]:
        for arr in (rec.actions, rec.conjectures):
            for target in (arr, arr.base):
                with pytest.raises(ValueError):
                    target.flags.writeable = True
    assert [rec.actions.tobytes() + rec.conjectures.tobytes() for rec in records] == before


def _unpickled(rec):
    return pickle.loads(pickle.dumps(rec))


@pytest.mark.parametrize("route", [_unpickled, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copied_records_stay_frozen(mixed_game, route):
    """A pickled or deep-copied record equals its original field by field
    and byte for byte, and its arrays cannot be made writable either."""
    for rec in enumerate_sce(mixed_game)[0]:
        got = route(rec)
        assert type(got) is EquilibriumRecord
        assert (got.active_set, got.declared_inactive, got.kind) == (
            rec.active_set, rec.declared_inactive, rec.kind
        )
        for name in ("actions", "conjectures"):
            arr = getattr(got, name)
            assert arr.tobytes() == getattr(rec, name).tobytes()
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True


# ------------------------------------------------------------ interior report


def test_interior_conditions_bounded():
    z = 0.2 * (np.ones((4, 4)) - np.eye(4))
    report = interior_conditions(WeightedNetwork(z=z))
    byname = {c.name: c for c in report.conditions}
    assert byname["bounded"].holds
    assert report.positive
    assert not report.degenerate
    assert np.all(report.solution > 0)


def test_interior_conditions_negative_limited():
    # strictly negative complete network with spectral radius 0.45
    z = -0.15 * (np.ones((4, 4)) - np.eye(4))
    report = interior_conditions(WeightedNetwork(z=z))
    byname = {c.name: c for c in report.conditions}
    assert byname["negative-limited"].holds
    assert report.positive
    assert np.allclose(report.solution, 1.0 / 1.45)


def test_interior_conditions_strictness_matters():
    # zeros off the diagonal break strict negativity, and rightly so: this
    # solution has negative entries even though the spectral radius is 0.6
    report = interior_conditions(WeightedNetwork(z=-0.6 * ADJ4))
    byname = {c.name: c for c in report.conditions}
    assert not byname["negative-limited"].holds
    assert not report.any_holds()
    assert not report.positive


def test_interior_conditions_zero_matrix():
    report = interior_conditions(WeightedNetwork(z=np.zeros((3, 3))))
    byname = {c.name: c for c in report.conditions}
    assert byname["bounded"].holds
    assert byname["symmetrizable-limited"].holds
    assert not byname["negative-limited"].holds  # zeros are not strictly negative
    assert np.allclose(report.solution, 1.0)


def test_interior_conditions_degenerate():
    z = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = interior_conditions(WeightedNetwork(z=z))
    assert report.degenerate
    assert report.solution is None


def test_interior_conditions_none_hold():
    z = np.array([[0.0, 1.2], [1.1, 0.0]])
    report = interior_conditions(WeightedNetwork(z=z))
    assert not report.any_holds()


def test_interior_conditions_heavy_row():
    # strictly negative with spectral radius 0.14, but row 0 sums to -1.8:
    # agent 0 is priced out, a = (-0.796, 0.998, 0.998)
    z = np.array([[0.0, -0.9, -0.9], [-0.01, 0.0, -0.01], [-0.01, -0.01, 0.0]])
    report = interior_conditions(WeightedNetwork(z=z))
    byname = {c.name: c for c in report.conditions}
    assert byname["negative-limited"].witness["rho"] < 0.15
    assert byname["negative-limited"].witness["row_sum"] == pytest.approx(1.8)
    assert report.positive is False
    assert not report.any_holds()


def test_interior_conditions_mixed_sign_bounded():
    # every |z_ij| < 1/5, yet agent 0 is inhibited by a mutually reinforcing
    # clique of agents 1-4: a_0 = 1 - 4 * 0.19 * a_1 with a_1 = 1 / (1 - 3 * 0.19)
    z = np.zeros((5, 5))
    z[1:, 1:] = 0.19
    z[0, 1:] = -0.19
    np.fill_diagonal(z, 0.0)
    report = interior_conditions(WeightedNetwork(z=z))
    assert report.solution[0] == pytest.approx(1 - 4 * 0.19 / (1 - 3 * 0.19))
    assert report.positive is False
    assert not report.any_holds()


def test_interior_conditions_negative_star():
    # symmetric, lambda_max = 0.7 * sqrt(2) = 0.990 < 1, solution (-20, 15, 15)
    z = np.array([[0.0, -0.7, -0.7], [-0.7, 0.0, 0.0], [-0.7, 0.0, 0.0]])
    report = interior_conditions(WeightedNetwork(z=z))
    byname = {c.name: c for c in report.conditions}
    assert byname["symmetrizable-limited"].witness["lambda_max"] == pytest.approx(0.7 * np.sqrt(2))
    assert np.allclose(report.solution, (-20.0, 15.0, 15.0))
    assert report.positive is False
    assert not report.any_holds()


def test_interior_conditions_negative_limited_needs_common_intercept():
    z = np.array([[0.0, -0.5], [-0.5, 0.0]])
    common = interior_conditions(WeightedNetwork(z=z))
    assert {c.name for c in common.conditions if c.holds} == {"negative-limited"}
    assert common.positive
    # the certificate covers alpha = s * 1 only; unequal intercepts can
    # price an agent out
    skewed = np.linalg.solve(np.eye(2) - z, [1.0, 100.0])
    assert skewed[0] < 0
