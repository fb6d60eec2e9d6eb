"""Cross-cutting invariants on randomly drawn games.

Hypothesis is used for the pointwise algebraic properties; the game-level
batteries use seeded numpy draws so failures reproduce verbatim.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from netsce import (
    WeightedNetwork,
    best_reply,
    enumerate_sce,
    invert_feedback,
    make_game,
    run_learning,
    solve_full_ne,
)

finite = dict(allow_nan=False, allow_infinity=False)


# -------------------------------------------------------- pointwise algebra


@seed(7)
@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=-5.0, max_value=5.0, **finite),
    action=st.floats(min_value=1e-3, max_value=1e3, **finite),
    x=st.floats(min_value=-100.0, max_value=100.0, **finite),
)
def test_payoff_inversion_round_trip(alpha, action, x):
    a = np.array([action])
    m = alpha * a - 0.5 * a * a + a * x
    back = invert_feedback(np.array([alpha]), a, m)
    assert back[0] == pytest.approx(x, abs=1e-8, rel=1e-9)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(min_value=-1e3, max_value=1e3, **finite),
    x2=st.floats(min_value=-1e3, max_value=1e3, **finite),
)
def test_best_reply_monotone_and_nonexpansive(x1, x2):
    spec = make_game(
        WeightedNetwork(z=np.zeros((1, 1))), alpha=0.3, a_max=10.0,
        x_lo=-1e3, x_hi=1e3,
    )
    b1 = best_reply(spec, np.array([x1]))[0]
    b2 = best_reply(spec, np.array([x2]))[0]
    if x1 <= x2:
        assert b1 <= b2
    else:
        assert b1 >= b2
    assert abs(b1 - b2) <= abs(x1 - x2) + 1e-12


# ------------------------------------------------------- seeded game batteries


def draw_game(rng, n, span, lo=None):
    """A game with |z entries| <= span/n, alpha in [0.05, 0.5]."""
    z = rng.uniform(-span / n, span / n, (n, n)) if lo is None else rng.uniform(
        lo / n, span / n, (n, n)
    )
    np.fill_diagonal(z, 0.0)
    alpha = rng.uniform(0.05, 0.5, n)
    return make_game(WeightedNetwork(z=z), alpha=alpha)


def test_every_nash_is_selfconfirming():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        spec = draw_game(rng, n, span=0.9)
        nash, _ = solve_full_ne(spec)
        sces, _ = enumerate_sce(spec)
        for ne in nash:
            hits = [
                r for r in sces
                if np.max(np.abs(r.actions - ne.actions)) <= 1e-9
            ]
            assert hits, f"Nash profile {ne.actions} missing from the SCE set"
            assert all(r.kind == "NE" for r in hits)


def test_positive_spillovers_fill_the_subset_lattice():
    # nonnegative weights below the contraction bound: every subset supports
    # exactly one equilibrium and only the full set is Nash
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        spec = draw_game(rng, n, span=0.8, lo=0.05)
        records, diag = enumerate_sce(spec)
        assert len(records) == 2 ** n
        assert diag.singular == () and diag.cap_hits == ()
        kinds = [r.kind for r in records]
        assert kinds.count("NE") == 1
        assert records[-1].active_set == frozenset(range(n))
        assert records[-1].kind == "NE"


def test_optimistic_floor_kills_inactivity():
    # with conjectures bounded below by zero nobody can justify sitting out,
    # so the lattice collapses to the single interior equilibrium
    rng = np.random.default_rng(512)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        z = rng.uniform(0.05 / n, 0.8 / n, (n, n))
        np.fill_diagonal(z, 0.0)
        spec = make_game(
            WeightedNetwork(z=z),
            alpha=rng.uniform(0.05, 0.5, n),
            a_max=1.0,
            x_lo=0.0,
            x_hi=float(n),
        )
        records, _ = enumerate_sce(spec)
        assert len(records) == 1
        assert records[0].kind == "NE"
        assert records[0].active_set == frozenset(range(n))


def test_learning_invariants_hold_on_random_games():
    # sup-norm contraction scale: every run settles, dropout never reverses,
    # and settled limits pass the selfconfirming check
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        spec = draw_game(rng, n, span=0.7)
        x0 = rng.uniform(-0.5, 0.5, n)
        traj = run_learning(spec, x0, max_iter=3000)
        assert traj.classification == "converged"
        active = traj.actions > 1e-9
        assert np.all(active[1:] <= active[:-1])
        assert traj.limit_is_sce
        assert traj.clamp_events == ()


def test_positive_contraction_finds_the_nash():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        spec = draw_game(rng, n, span=0.8, lo=0.05)
        traj = run_learning(spec, np.zeros(n), max_iter=3000)
        assert traj.classification == "converged"
        assert traj.limit.kind == "NE"
        assert traj.limit.active_set == frozenset(range(n))
        nash, _ = solve_full_ne(spec)
        target = [r for r in nash if r.active_set == frozenset(range(n))]
        assert len(target) == 1
        assert np.allclose(traj.limit.actions, target[0].actions, atol=1e-7)
