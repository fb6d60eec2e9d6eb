import json
import pathlib
from typing import Sequence

import numpy as np
import pytest

from netsce import UsageError, WeightedNetwork, aggregate, is_sce, make_game
from netsce.equilibrium import ACTIVE_TOL, BOUNDARY_TOL, EquilibriumRecord
from netsce.game import GameSpec

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


def reference_record(
    spec, actions, declared_inactive=frozenset(), conjectures=None, validate=True
):
    """``make_record`` as it was before it became the one-row case of the
    stacked record builder, kept as an independent reference: one profile,
    one aggregate, a Python loop for the declared conjectures and the Nash
    test."""
    a = np.asarray(actions, dtype=float)
    x = aggregate(spec, a)
    active = frozenset(int(i) for i in np.flatnonzero(a > ACTIVE_TOL))
    if conjectures is None:
        conj = x.copy()
        for i in declared_inactive:
            conj[i] = spec.x_lo[i]
    else:
        conj = np.asarray(conjectures, dtype=float)
    if validate:
        chk = is_sce(spec, a, conj)
        if not chk.ok:
            worst = ", ".join(
                f"agent {i}: {why} off by {gap:.3g}" for i, why, gap in chk.violations[:3]
            )
            raise UsageError(f"profile and conjectures are not selfconfirming ({worst})")
    inactive = [i for i in range(spec.n) if i not in active]
    is_ne = all(spec.alpha[i] + x[i] <= BOUNDARY_TOL for i in inactive)
    return EquilibriumRecord(
        actions=a,
        conjectures=conj,
        active_set=active,
        declared_inactive=frozenset(declared_inactive),
        kind="NE" if is_ne else "SCE-non-NE",
    )


def _solve_active(spec: GameSpec, k: Sequence[int]):
    """Solve the interior conditions on active set k.

    Returns (solution, None) or (None, "continuum" | "inconsistent") when
    the restricted system is singular. The per-support solver the engine's
    stacked kernel replaced, kept as its reference.
    """
    if not k:
        return np.zeros(0), None
    idx = np.array(sorted(k), dtype=int)
    sub = np.eye(len(idx)) - spec.net.z[np.ix_(idx, idx)]
    rhs = spec.alpha[idx]
    try:
        sol = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        lsq = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        resid = np.max(np.abs(sub @ lsq - rhs)) if len(idx) else 0.0
        return None, ("continuum" if resid <= 1e-9 else "inconsistent")
    # Guard against silent blow-ups of near-singular systems.
    if not np.all(np.isfinite(sol)) or np.max(np.abs(sub @ sol - rhs)) > 1e-7 * max(
        1.0, float(np.max(np.abs(rhs)))
    ):
        return None, "inconsistent"
    return sol, None
