"""Global-spillover games: split conjectures, rest points, centrality maps."""

import numpy as np
import pytest

from netsce import (
    GlobalConjecture,
    UsageError,
    WeightedNetwork,
    bonacich,
    check_global_sce,
    check_homeo2,
    global_learn_step,
    make_game,
    make_global_game,
    phi_map,
    residual,
    solve_global_sce,
    true_centrality,
)
from netsce.global_ext import _newton_point, _seidel, _spillover

from conftest import COMPLETE3, LINE3
from test_global_solver import reference_damped


@pytest.fixture
def line_game():
    return make_game(WeightedNetwork(z=LINE3), alpha=0.1)


@pytest.fixture
def complete_game():
    return make_game(WeightedNetwork(z=COMPLETE3), alpha=0.1)


# -------------------------------------------------------------- construction


def test_spec_validation(line_game):
    with pytest.raises(UsageError):
        make_global_game(line_game, beta=0.0, c=0.1)
    with pytest.raises(UsageError):
        make_global_game(line_game, beta=1.0, c=0.0)
    # the end agents' weight row sums to 0.2, so 0.25 is not a believable split
    with pytest.raises(UsageError):
        make_global_game(line_game, beta=1.0, c=0.25)

    def message(base=line_game, beta=1.0, c=0.1):
        with pytest.raises(UsageError) as err:
            make_global_game(base, beta=beta, c=c)
        return str(err.value)

    for beta in (0.0, -1.0, float("nan"), float("inf")):
        assert message(beta=beta) == "beta must be positive and finite"
    assert message(c=[0.1, 0.0, -1.0]) == "c[1] must be strictly positive"
    assert message(c=-0.5) == "c[0] must be strictly positive"
    # rows sum to 0.2, 0.4 and 0.2; over beta = 0.5 the bounds are 0.4, 0.8, 0.4
    assert message(beta=0.5, c=[0.1, 0.9, 0.5]) == (
        "c[1]=0.9 exceeds the admissible bound 0.8 (row weight sum over beta)"
    )
    assert message(c=[0.1, 0.1, 0.25]) == (
        "c[2]=0.25 exceeds the admissible bound 0.2 (row weight sum over beta)"
    )
    assert message(c=[0.1, 0.1]) == "c must be a scalar or length-3 vector"
    assert message(c=np.full((3, 1), 0.1)) == "c must be a scalar or length-3 vector"
    assert message(c=[0.1, float("nan"), 0.1]) == "c must be finite"
    assert message(c=float("inf")) == "c must be finite"
    # each agent's y_hi sums the other two caps, 2e308, past the floats
    huge = make_game(WeightedNetwork(z=LINE3), alpha=0.1, a_max=1e308)
    with np.errstate(over="ignore"):
        assert message(base=huge) == "y_hi must be finite"
        assert message(base=huge, c=[0.1, 0.1]) == "c must be a scalar or length-3 vector"


def test_spillover_range_is_derived_and_read_only():
    base = make_game(WeightedNetwork(z=LINE3), alpha=0.1, a_max=[1.0, 2.5, 4.0])
    beta = 0.3
    g = make_global_game(base, beta=beta, c=0.1)
    assert np.array_equal(g.y_lo, np.zeros(3))
    assert np.array_equal(g.y_hi, beta * (base.a_max.sum() - base.a_max))
    with pytest.raises(ValueError):
        g.y_hi[0] = 0.0
    with pytest.raises(ValueError):
        g.y_lo[0] = -1.0
    with pytest.raises(AttributeError):
        g.y_hi = np.ones(3)
    with pytest.raises(TypeError):
        make_global_game(base, beta, 0.1, y_lo=np.zeros(3), y_hi=np.ones(3))


def test_spillover_and_payoff():
    base = make_game(
        WeightedNetwork(z=0.1 * (np.ones((3, 3)) - np.eye(3))), alpha=0.1, a_max=10.0
    )
    g = make_global_game(base, beta=0.5, c=0.2)
    a = np.array([1.0, 2.0, 3.0])
    assert np.allclose(_spillover(g, a), [2.5, 2.0, 1.5])


def test_updating_regime_is_guarded(line_game):
    uneven = make_game(WeightedNetwork(z=LINE3), alpha=np.array([0.1, 0.2, 0.1]))
    with pytest.raises(UsageError):
        solve_global_sce(make_global_game(uneven, beta=1.0, c=0.1))
    # a negative link with still-positive row sums: constructible, not solvable
    z = np.array([[0.0, 0.3, -0.1], [0.3, 0.0, 0.1], [0.1, 0.1, 0.0]])
    signed = make_game(WeightedNetwork(z=z), alpha=0.1, a_max=1.0)
    g = make_global_game(signed, beta=1.0, c=0.05)
    with pytest.raises(UsageError):
        solve_global_sce(g)
    # an all-negative row caps the believable split below zero outright
    with pytest.raises(UsageError):
        make_global_game(
            make_game(WeightedNetwork(z=-LINE3), alpha=0.1, a_max=1.0),
            beta=1.0,
            c=0.05,
        )


# ------------------------------------------------------------------ updating


def test_one_step_from_ignorance(line_game):
    g = make_global_game(line_game, beta=1.0, c=0.2)
    step = global_learn_step(g, np.zeros(3))
    assert np.allclose(step.actions, 0.1)
    # total externality 0.202 (ends) and 0.204 (middle), re-split along c
    assert np.allclose(step.x_hat_next, [0.0404 / 1.02, 0.04, 0.0404 / 1.02])
    assert np.allclose(step.y_hat_next, [0.202 / 1.02, 0.2, 0.202 / 1.02])
    # the split always satisfies x_hat = c * y_hat
    assert np.allclose(step.x_hat_next, g.c * step.y_hat_next)


def test_step_requires_active_profile(line_game):
    g = make_global_game(line_game, beta=1.0, c=0.2)
    with pytest.raises(UsageError):
        global_learn_step(g, np.array([-0.2, 0.0, 0.0]))


# --------------------------------------------------------------- rest points


def test_complete_network_correct_beliefs(complete_game):
    # c = 0.2 equals the realized ratio on the complete triangle, so the
    # rest point is the plain aggregate-game equilibrium
    g = make_global_game(complete_game, beta=1.0, c=0.2)
    out = solve_global_sce(g)
    assert out.converged
    assert np.allclose(out.actions, 1 / 6, atol=1e-9)
    assert np.allclose(out.x_hat, 1 / 15, atol=1e-9)
    assert np.allclose(out.y_hat, 1 / 3, atol=1e-9)
    assert out.residual < 1e-10
    chk = check_global_sce(g, out.actions, GlobalConjecture(out.x_hat, out.y_hat))
    assert chk.ok


def test_complete_network_modest_beliefs(complete_game):
    # symmetric reduction: the common action solves a scalar quadratic
    g = make_global_game(complete_game, beta=1.0, c=0.1)
    out = solve_global_sce(g)
    assert out.converged
    a = out.actions
    assert np.allclose(a, a[0])
    assert abs(0.06 * a[0] ** 2 + 0.79 * a[0] - 0.1) < 1e-9


def test_line_rest_point(line_game):
    g = make_global_game(line_game, beta=1.0, c=0.2)
    out = solve_global_sce(g)
    assert out.converged
    assert out.residual < 1e-10
    assert np.allclose(out.actions, [0.16519901, 0.16607960, 0.16519901], atol=1e-7)
    assert np.allclose(residual(g, out.actions), 0.0, atol=1e-10)


def test_methods_agree_inside_contraction_window(line_game):
    g = make_global_game(line_game, beta=1.0, c=np.array([0.08, 0.15, 0.08]))
    window = check_homeo2(g)
    assert window.holds
    assert np.all(window.lhs < window.row_sums)
    kernels = (_newton_point, reference_damped, _seidel)
    runs = [kernel(g, 0.1, 1e-10, 100_000)[:3] for kernel in kernels]
    assert all(ok for _, _, ok in runs)
    pts = [a for a, _, _ in runs]
    for other in pts[1:]:
        assert np.allclose(pts[0], other, atol=1e-8)
    assert all(np.max(np.abs(residual(g, a))) < 1e-8 for a in pts)
    assert solve_global_sce(g).method == "newton"  # the solve starts with Newton


def test_newton_on_a_hot_network():
    # Dense positive spillovers with perceived centralities near the edge of
    # solvability; the update map averaged with the identity stalls here
    # while Newton lands in a few steps. The converging kernels must agree
    # on the rest point.
    z = np.array(
        [
            [0.0, 0.2661, 0.6581, 0.7264],
            [0.1456, 0.0, 0.4757, 0.2427],
            [0.6776, 0.3077, 0.0, 0.516],
            [0.3234, 0.2381, 0.5675, 0.0],
        ]
    )
    base = make_game(WeightedNetwork(z=z), alpha=np.full(4, 0.25), a_max=50.0)
    g = make_global_game(base, beta=1.0, c=np.array([0.3381, 0.2372, 0.1415, 0.1347]))
    newton, iterations, ok = _newton_point(g, 0.25, 1e-10, 2500)[:3]
    assert ok
    assert np.max(np.abs(residual(g, newton))) < 1e-9
    assert iterations <= 40
    assert np.allclose(newton, [1.120544, 0.854195, 0.714, 0.662016], atol=1e-5)
    seidel, _, ok = _seidel(g, 0.25, 1e-10, 2500)
    assert ok
    assert np.max(np.abs(residual(g, seidel))) < 1e-10 * np.max(seidel)
    assert np.allclose(seidel, newton, atol=1e-8)


def test_solver_rejects_nonpositive_rest_points():
    # This instance has an algebraic zero of the defect with negative
    # actions; the update rule is only defined on positive profiles, so the
    # solver must not bless it.
    z = np.array(
        [
            [0.0, 0.62, 0.55, 0.48],
            [0.33, 0.0, 0.29, 0.24],
            [0.5, 0.45, 0.0, 0.55],
            [0.38, 0.34, 0.41, 0.0],
        ]
    )
    base = make_game(WeightedNetwork(z=z), alpha=np.full(4, 0.25), a_max=50.0)
    g = make_global_game(base, beta=1.0, c=0.42)
    out = solve_global_sce(g, max_iter=2500)
    assert not out.converged


def test_window_fails_on_complete_triangle(complete_game):
    # lhs equals the row sum exactly: strictness matters, window is closed
    g = make_global_game(complete_game, beta=1.0, c=0.2)
    assert not check_homeo2(g).holds


def test_violations_reported(complete_game):
    g = make_global_game(complete_game, beta=1.0, c=0.2)
    out = solve_global_sce(g)
    bad = check_global_sce(
        g, out.actions, GlobalConjecture(out.x_hat + 0.01, out.y_hat)
    )
    assert not bad.ok
    assert {kind for _, kind, _ in bad.violations} == {"rationality", "confirmation"}


def _right(n=3):
    return GlobalConjecture(np.zeros(n), np.zeros(n))


@pytest.mark.parametrize(
    "call, name, length",
    [
        (lambda g: check_global_sce(g, np.ones(2), _right()), "actions", 2),
        (lambda g: check_global_sce(g, np.ones(3), GlobalConjecture(np.zeros(2), np.zeros(3))),
         "x_hat", 2),
        (lambda g: check_global_sce(g, np.ones(3), GlobalConjecture(np.zeros(3), np.zeros(4))),
         "y_hat", 4),
        (lambda g: true_centrality(g, np.ones(2)), "actions", 2),
        (lambda g: global_learn_step(g, np.zeros(2)), "x_hat", 2),
        (lambda g: residual(g, np.ones(4)), "actions", 4),
    ],
    ids=["check_global_sce-actions", "check_global_sce-x_hat", "check_global_sce-y_hat",
         "true_centrality", "global_learn_step", "residual"],
)
def test_wrong_global_lengths_are_named_with_the_agent_count(line_game, call, name, length):
    """A vector of the wrong length is a usage error that names its length
    and the game's, raised before any aggregate is formed."""
    g = make_global_game(line_game, beta=1.0, c=0.2)
    with pytest.raises(UsageError, match=f"^{name} have length {length}; the game has 3 agents$"):
        call(g)


# ------------------------------------------------------- centrality analysis


def test_bonacich_profiles(line_game, complete_game):
    assert np.allclose(bonacich(line_game.net, 0.1), [3 / 23, 7 / 46, 3 / 23])
    assert np.allclose(bonacich(complete_game.net, 0.1), 1 / 6)


@pytest.mark.parametrize(
    "alpha, why",
    [
        (np.full(2, 0.1), "a scalar or length-3 vector"),
        (np.full((3, 1), 0.1), "a scalar or length-3 vector"),
        (np.nan, "finite"),
        ([0.1, np.inf, 0.1], "finite"),
    ],
    ids=["short", "column", "nan", "inf-entry"],
)
def test_bonacich_rejects_a_bad_intercept(line_game, alpha, why):
    with pytest.raises(UsageError, match=f"^alpha must be {why}$"):
        bonacich(line_game.net, alpha)


def test_true_centrality_at_network_equilibrium(line_game):
    g = make_global_game(line_game, beta=1.0, c=0.2)
    tc = true_centrality(g, bonacich(line_game.net, 0.1))
    assert np.all(tc.defined)
    assert np.allclose(tc.values, [7 / 65, 0.2, 7 / 65])
    assert np.all(tc.admissible)


def test_correct_beliefs_recover_network_equilibrium(line_game):
    # When perceived centralities equal the true ones, the rest point is the
    # plain network equilibrium itself.
    g = make_global_game(line_game, beta=1.0, c=np.array([7 / 65, 0.2, 7 / 65]))
    out = solve_global_sce(g)
    assert out.converged
    assert np.allclose(out.actions, bonacich(line_game.net, 0.1), atol=1e-8)


def test_true_centrality_undefined_at_zero(line_game):
    g = make_global_game(line_game, beta=1.0, c=0.2)
    tc = true_centrality(g, np.zeros(3))
    assert not np.any(tc.defined)
    assert not np.any(tc.admissible)
    assert np.all(np.isnan(tc.values))


def test_phi_map_monotone_on_triangle(complete_game):
    entries = phi_map(complete_game, beta=1.0, c_grid=[0.1, 0.2])
    assert all(e.solve.converged for e in entries)
    low, high = entries[0].solve.actions, entries[1].solve.actions
    assert np.all(high > low)  # stronger perceived centrality, larger actions
    assert np.allclose(entries[1].c, 0.2)
