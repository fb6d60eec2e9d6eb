import copy
import pickle

import numpy as np
import pytest

from netsce import (
    UsageError,
    WeightedNetwork,
    aggregate,
    best_reply,
    invert_feedback,
    justifiable_inactivity_set,
    make_game,
    payoff,
    realized_payoff,
)

from netsce.game import _DEFAULT_ACTION_CAP, GameSpec

from conftest import ADJ4


def test_game_defaults():
    game = make_game(WeightedNetwork(z=0.2 * ADJ4), alpha=0.1)
    assert np.all(game.a_max == _DEFAULT_ACTION_CAP)
    assert np.all(game.alpha == 0.1)
    # default conjecture range: twice the largest attainable aggregate
    # magnitude (row sum 0.6 times the cap) on either side
    assert np.all(game.x_lo == -2 * 0.6 * _DEFAULT_ACTION_CAP)
    assert np.all(game.x_hi == 2 * 0.6 * _DEFAULT_ACTION_CAP)


def test_game_rejects_uncontained_range():
    net = WeightedNetwork(z=0.2 * ADJ4)
    with pytest.raises(UsageError, match="does not contain"):
        make_game(net, alpha=0.1, a_max=1.0, x_lo=-10.0, x_hi=0.3)


def test_game_rejects_bad_caps_and_bounds():
    net = WeightedNetwork(z=np.zeros((2, 2)))
    with pytest.raises(UsageError, match=r"a_max\[0\] must be positive"):
        make_game(net, alpha=0.1, a_max=0.0)
    with pytest.raises(UsageError, match="exceeds"):
        make_game(net, alpha=0.1, x_lo=1.0, x_hi=-1.0)
    with pytest.raises(UsageError, match="both"):
        make_game(net, alpha=0.1, x_lo=-1.0)


def test_game_rejects_no_agents():
    """A 0-agent network makes no game, by default or with every field
    given, while the empty network itself stays valid."""
    net = WeightedNetwork(z=np.zeros((0, 0)))
    empty = np.zeros(0)
    with pytest.raises(UsageError, match="at least one agent"):
        make_game(net, alpha=0.1)
    with pytest.raises(UsageError, match="at least one agent"):
        GameSpec(net=net, alpha=empty, a_max=empty, x_lo=empty, x_hi=empty)


@pytest.mark.parametrize("route", [None, lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["built", "pickle", "deepcopy"])
def test_game_vectors_cannot_be_made_writable(route):
    """A game's four vectors and its network's z sit over immutable bytes,
    also after a pickle or deep-copy, so no holder can slip a nan into a
    validated game."""
    game = make_game(WeightedNetwork(z=0.2 * ADJ4), alpha=[0.1, 0.2, 0.3, 0.4], a_max=5.0)
    got = game if route is None else route(game)
    for name in ("alpha", "a_max", "x_lo", "x_hi"):
        arr = getattr(got, name)
        assert arr.tobytes() == getattr(game, name).tobytes()
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    with pytest.raises(ValueError):
        got.net.z.setflags(write=True)


def test_aggregate_values(positive_game):
    assert np.all(aggregate(positive_game, np.zeros(4)) == 0.0)
    a = np.array([31 / 240, 0.175, 0.1, 7 / 48])
    x = aggregate(positive_game, a)
    assert x[1] == pytest.approx(0.075, abs=1e-12)
    assert x[2] == 0.0  # no incoming links


def test_best_reply_branches(positive_game):
    xh = np.array([0.05, -0.2, 1.2e6, -0.1])
    a = best_reply(positive_game, xh)
    assert a[0] == pytest.approx(0.15)
    assert a[1] == 0.0
    assert a[2] == _DEFAULT_ACTION_CAP
    assert a[3] == 0.0  # exact tie alpha + xhat = 0 resolves to zero


def test_best_reply_monotone_piecewise():
    game = make_game(WeightedNetwork(z=np.zeros((1, 1))), alpha=0.3, a_max=2.0,
                     x_lo=-50.0, x_hi=50.0)
    grid = np.linspace(-5, 5, 2001)
    replies = np.array([best_reply(game, np.array([v]))[0] for v in grid])
    assert np.all(np.diff(replies) >= -1e-15)
    slopes = np.diff(replies) / np.diff(grid)
    assert set(np.round(slopes, 6)) <= {0.0, 1.0}


def test_payoff_values(positive_game):
    a = np.array([31 / 240, 0.175, 0.1, 7 / 48])
    x = aggregate(positive_game, a)
    v = payoff(positive_game, a, x)
    assert v[2] == pytest.approx(0.005, abs=1e-12)
    zero = payoff(positive_game, np.zeros(4), x)
    assert np.all(zero == 0.0)


def test_payoff_single_agent():
    game = make_game(WeightedNetwork(z=np.zeros((1, 1))), alpha=0.1)
    assert realized_payoff(game, np.array([0.1]))[0] == pytest.approx(0.005)


def test_payoff_concave_in_own_action(positive_game):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0, 1, size=4)
        h = 0.01
        i = int(rng.integers(4))
        lo, mid, hi = a.copy(), a.copy(), a.copy()
        lo[i] -= h
        hi[i] += h
        second = (
            realized_payoff(positive_game, hi)[i]
            - 2 * realized_payoff(positive_game, mid)[i]
            + realized_payoff(positive_game, lo)[i]
        )
        assert second < 0


def test_feedback_inversion_identity(positive_game):
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rng.uniform(0.01, 2.0, size=4)
        m = realized_payoff(positive_game, a)
        x = invert_feedback(positive_game.alpha, a, m)
        assert np.allclose(x, aggregate(positive_game, a), atol=1e-12)


def test_feedback_inversion_rejects_inactive(positive_game):
    with pytest.raises(UsageError):
        invert_feedback(positive_game.alpha, np.array([0.0, 1, 1, 1]), np.zeros(4))


def test_justifiable_inactivity():
    net = WeightedNetwork(z=np.zeros((2, 2)))
    game = make_game(net, alpha=0.1, x_lo=-10.0, x_hi=10.0)
    assert justifiable_inactivity_set(game) == frozenset({0, 1})
    game = make_game(net, alpha=np.array([0.5, 0.5]), x_lo=np.array([-1.0, 0.0]),
                     x_hi=np.array([1.0, 1.0]))
    assert justifiable_inactivity_set(game) == frozenset({0})
    game = make_game(net, alpha=0.5, x_lo=0.0, x_hi=1.0)
    assert justifiable_inactivity_set(game) == frozenset()
