import json
import pathlib

import numpy as np
import pytest

from netsce import WeightedNetwork, make_game

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# Shared 4-agent adjacency: agent 1 listens to 0, 2, 3; agent 0 and 3 to each
# other and to 2's action; agent 2 listens to nobody.
ADJ4 = np.array(
    [
        [0, 0, 0, 1],
        [1, 0, 1, 1],
        [0, 0, 0, 0],
        [1, 0, 1, 0],
    ],
    dtype=float,
)

# Mixed-sign variant: agent 2 is hurt by 1 and 3 instead of unaffected.
MIXED4 = np.array(
    [
        [0.0, 0.0, 0.0, 0.2],
        [0.2, 0.0, 0.2, 0.2],
        [0.0, -0.2, 0.0, -0.2],
        [0.2, 0.0, 0.2, 0.0],
    ]
)

# Signed 4-agent weights; with CAPPED4's caps and intercepts, probes of
# width 0.1 press the cap and return to only some records.
SIGNED4 = np.array(
    [
        [0.0, 0.3, -0.2, 0.1],
        [0.25, 0.0, 0.2, -0.3],
        [-0.2, 0.3, 0.0, 0.2],
        [0.2, -0.25, 0.3, 0.0],
    ]
)
CAPPED4 = {"alpha": [0.1, 0.05, 0.12, 0.08], "a_max": 0.13}

LINE3 = 0.2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
COMPLETE3 = 0.2 * (np.ones((3, 3)) - np.eye(3))


@pytest.fixture
def positive_game():
    """gamma = 0.2 positive spillovers, alpha = 0.1 everywhere."""
    return make_game(WeightedNetwork(z=0.2 * ADJ4), alpha=0.1)


@pytest.fixture
def negative_game():
    return make_game(WeightedNetwork(z=-0.6 * ADJ4), alpha=0.1)


@pytest.fixture
def mixed_game():
    return make_game(WeightedNetwork(z=MIXED4), alpha=0.1)


@pytest.fixture
def rng_calls(monkeypatch):
    """A one-item list counting the calls to ``np.random.default_rng``."""
    calls = [0]
    real = np.random.default_rng

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return calls


def by_active(records, active):
    """The unique record with the given active set, or fail loudly."""
    wanted = frozenset(active)
    hits = [r for r in records if r.active_set == wanted]
    assert len(hits) == 1, f"expected one record with active set {sorted(wanted)}, got {len(hits)}"
    return hits[0]


def load_json(name):
    return json.loads((SCENARIO_DIR / name).read_text())
