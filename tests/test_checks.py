"""The masked selfconfirming checks against their per-agent loops.

``loop_is_sce`` and ``loop_check_global_sce`` walk the agents one at a time
as the checks used to. On seeded profiles that break every condition, the
masked checks must return the same violation tuples in the same order.
"""

import numpy as np
import pytest

from netsce import (
    GlobalConjecture,
    UsageError,
    WeightedNetwork,
    aggregate,
    check_global_sce,
    is_sce,
    make_game,
    make_global_game,
    make_record,
)
from netsce.equilibrium import ACTIVE_TOL


def loop_is_sce(spec, a, xh, tol=1e-9):
    x = aggregate(spec, a)
    bad = []
    for i in range(spec.n):
        if a[i] < -tol or a[i] > spec.a_max[i] + tol:
            bad.append((i, "range", float(a[i])))
        if xh[i] < spec.x_lo[i] - tol or xh[i] > spec.x_hi[i] + tol:
            bad.append((i, "range", float(xh[i])))
        br = min(max(spec.alpha[i] + xh[i], 0.0), spec.a_max[i])
        if abs(a[i] - br) > tol:
            bad.append((i, "rationality", float(abs(a[i] - br))))
        if a[i] > ACTIVE_TOL and abs(xh[i] - x[i]) > tol:
            bad.append((i, "confirmation", float(abs(xh[i] - x[i]))))
    return tuple(bad)


def loop_check_global_sce(g, a, xh, yh, tol=1e-9):
    x = aggregate(g.base, a)
    y = g.beta * (a.sum() - a)
    spec = g.base
    bad = []
    for i in range(g.n):
        if a[i] < -tol or a[i] > spec.a_max[i] + tol:
            bad.append((i, "range", float(a[i])))
        if xh[i] < spec.x_lo[i] - tol or xh[i] > spec.x_hi[i] + tol:
            bad.append((i, "range", float(xh[i])))
        if yh[i] < g.y_lo[i] - tol or yh[i] > g.y_hi[i] + tol:
            bad.append((i, "range", float(yh[i])))
        if a[i] > 0:
            br = min(max(spec.alpha[i] + xh[i], 0.0), spec.a_max[i])
            if abs(a[i] - br) > tol:
                bad.append((i, "rationality", float(abs(a[i] - br))))
            gap = yh[i] - (y[i] + a[i] * (x[i] - xh[i]))
            if abs(gap) > tol:
                bad.append((i, "confirmation", float(abs(gap))))
        else:
            if spec.alpha[i] + xh[i] > tol:
                bad.append((i, "rationality", float(spec.alpha[i] + xh[i])))
            if abs(yh[i] - y[i]) > tol:
                bad.append((i, "confirmation", float(abs(yh[i] - y[i]))))
    return tuple(bad)


def _mostly_consistent(rng, n, exact, noisy):
    """Exact values with a random subset replaced by noisy ones."""
    out = np.array(exact, dtype=float)
    flip = rng.random(n) < 0.3
    out[flip] = noisy[flip]
    return out


def test_is_sce_matches_agent_loop():
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(300):
        n = int(rng.integers(1, 7))
        z = rng.uniform(-0.4, 0.4, (n, n))
        np.fill_diagonal(z, 0.0)
        spec = make_game(WeightedNetwork(z=z), alpha=rng.uniform(-0.3, 0.5, n),
                         a_max=rng.uniform(0.5, 2.0, n))
        # actions and conjectures near a selfconfirming pair, some pushed
        # out of range, off the best reply or off the true aggregate
        xh = rng.uniform(spec.x_lo, spec.x_hi)
        a = np.clip(spec.alpha + xh, 0.0, spec.a_max)
        a = _mostly_consistent(rng, n, a, rng.uniform(-0.5, 1.2, n) * spec.a_max)
        xh = _mostly_consistent(rng, n, aggregate(spec, a), xh)
        xh = _mostly_consistent(rng, n, xh, rng.uniform(2, 3, n) * spec.x_hi)
        chk = is_sce(spec, a, xh)
        ref = loop_is_sce(spec, a, xh)
        assert chk.violations == ref
        assert chk.ok == (ref == ())
        kinds.update((reason, a[i] < 0 or a[i] > spec.a_max[i]) for i, reason, _ in ref)
        kinds.add(("ok", chk.ok))
    assert kinds >= {("range", True), ("range", False), ("rationality", False),
                     ("confirmation", False), ("ok", True)}, kinds


def test_check_global_sce_matches_agent_loop():
    rng = np.random.default_rng(12)
    kinds = set()
    for _ in range(300):
        n = int(rng.integers(2, 7))
        z = rng.uniform(0.0, 0.3, (n, n))
        np.fill_diagonal(z, 0.0)
        beta = float(rng.uniform(0.01, 0.05))
        base = make_game(WeightedNetwork(z=z), alpha=0.1, a_max=rng.uniform(0.5, 2.0, n))
        c = rng.uniform(0.1, 1.0, n) * z.sum(axis=1) / beta
        g = make_global_game(base, beta, c)
        a = rng.uniform(-0.3, 1.2, n) * base.a_max
        a[rng.random(n) < 0.3] = 0.0
        x, y = aggregate(base, a), g.beta * (a.sum() - a)
        xh = _mostly_consistent(rng, n, x, rng.uniform(base.x_lo, 2 * base.x_hi))
        xh[a == 0] = _mostly_consistent(rng, n, np.full(n, -0.2), xh)[a == 0]
        yh = _mostly_consistent(rng, n, y + a * (x - xh), rng.uniform(-1, 2, n) * g.y_hi)
        yh[a == 0] = _mostly_consistent(rng, n, y, yh)[a == 0]
        chk = check_global_sce(g, a, GlobalConjecture(xh, yh))
        ref = loop_check_global_sce(g, a, xh, yh)
        assert chk.violations == ref
        assert chk.ok == (ref == ())
        kinds.update((reason, bool(a[i] > 0)) for i, reason, _ in ref)
        kinds.add(("ok", chk.ok))
    assert kinds >= {("range", True), ("range", False), ("rationality", True),
                     ("rationality", False), ("confirmation", True),
                     ("confirmation", False), ("ok", True)}, kinds


# ------------------------------------------------------------ tolerance


def _tol_cases():
    """A 3-agent game and a = (5, -3, 0.7) with zero conjectures: out of
    range and off the best reply, so no tolerance >= 0 passes it; the same
    profile for the two-channel check."""
    z = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.3], [0.1, 0.3, 0.0]])
    spec = make_game(WeightedNetwork(z=z), alpha=0.1, a_max=1.0)
    g = make_global_game(spec, 0.05, 0.5)
    a, zero = np.array([5.0, -3.0, 0.7]), np.zeros(3)
    return {
        "is_sce": lambda tol: is_sce(spec, a, zero, tol=tol),
        "check_global_sce": lambda tol: check_global_sce(g, a, GlobalConjecture(zero, zero), tol=tol),
    }


@pytest.mark.parametrize("check", ["is_sce", "check_global_sce"])
@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9, None, "1e-9", [1e-9], True],
                         ids=["nan", "inf", "-inf", "negative", "None", "str", "list", "bool"])
def test_checks_reject_a_tolerance_that_is_not_finite_and_nonnegative(check, tol):
    """nan and inf used to pass the out-of-range, off-reply profile, None
    or a string ended in a bare TypeError, and True ran as a tolerance of
    1."""
    with pytest.raises(UsageError, match="tol must be a finite number >= 0"):
        _tol_cases()[check](tol)


@pytest.mark.parametrize("check", ["is_sce", "check_global_sce"])
def test_checks_take_zero_and_finite_tolerances(check):
    """0 is an exact test; every finite tolerance still fails the profile,
    with the same range violations."""
    run = _tol_cases()[check]
    verdicts = [run(tol) for tol in (0, 0.0, np.float64(1e-9), 1e-9, 1)]
    assert not any(chk.ok for chk in verdicts)
    for chk in verdicts:
        assert {(i, why) for i, why, _ in chk.violations} >= {(0, "range"), (1, "range")}


# ------------------------------------------------------------------ NaN


def test_nan_entries_are_range_violations():
    """An all-NaN profile used to pass both checks with no violation, so
    make_record(..., validate=True) built a NaN record. Every NaN entry is
    now a "range" violation, each check listing its entries by agent."""
    z = np.array([[0.0, 0.5], [0.5, 0.0]])
    spec = make_game(WeightedNetwork(z=z), alpha=0.1)
    g = make_global_game(spec, 0.05, 0.5)
    nan = np.full(2, np.nan)
    chk = is_sce(spec, nan, nan)
    assert not chk.ok
    assert [(i, why) for i, why, _ in chk.violations] == [(0, "range")] * 2 + [(1, "range")] * 2
    chk = check_global_sce(g, nan, GlobalConjecture(nan, nan))
    assert not chk.ok
    assert [(i, why) for i, why, _ in chk.violations] == [(0, "range")] * 3 + [(1, "range")] * 3
    with pytest.raises(UsageError, match="not selfconfirming .agent 0: range off by nan"):
        make_record(spec, nan, conjectures=nan)
    # One NaN conjecture beside a selfconfirming entry: only its agent fails.
    a = np.array([0.2, 0.2])
    chk = is_sce(spec, a, np.array([np.nan, 0.1]))
    assert [(i, why) for i, why, _ in chk.violations] == [(0, "range")]
