"""Feedback dynamics: stepping, classification, stability probes."""

import numpy as np
import pytest

from netsce import (
    CapBindingWarning,
    UsageError,
    WeightedNetwork,
    aggregate,
    analytic_stability,
    enumerate_sce,
    is_sce,
    load_scenario,
    learn_step,
    make_game,
    make_global_game,
    make_record,
    probe_stability,
    run_learning,
    stable_sce_family,
    true_centrality,
)

from conftest import ADJ4, COMPLETE3, MIXED4, SCENARIO_DIR, by_active

X0 = np.array([0.01, 0.02, 0.03, 0.04])


# ----------------------------------------------------------------- one step


def test_step_reveals_aggregate_to_active_agents(positive_game):
    step = learn_step(positive_game, np.full(4, 0.05))
    assert np.allclose(step.actions, 0.15)
    # payoff inversion hands every active agent its exact externality
    assert np.allclose(step.conjectures_next, aggregate(positive_game, step.actions))
    assert step.capped == () and step.clamped == ()


def test_step_freezes_dropouts(positive_game):
    xh = np.array([-0.5, 0.05, 0.05, 0.05])
    step = learn_step(positive_game, xh)
    assert step.actions[0] == 0.0
    assert step.conjectures_next[0] == -0.5  # no experimentation, no news
    assert np.all(step.actions[1:] > 0)


def test_step_warns_when_cap_binds():
    game = make_game(
        WeightedNetwork(z=np.array([[0.0, 0.5], [0.5, 0.0]])), alpha=0.9, a_max=1.0
    )
    with pytest.warns(CapBindingWarning):
        step = learn_step(game, np.array([0.5, 0.5]))
    assert step.capped == (0, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_a_non_finite_conjecture(positive_game, bad):
    """A NaN conjecture used to come back as a NaN action."""
    with pytest.raises(UsageError, match="conjectures must be finite"):
        learn_step(positive_game, [0.0, bad, 0.0, 0.0])


# ------------------------------------------------------------- trajectories


def test_contracting_run_converges_to_nash():
    game = make_game(WeightedNetwork(z=0.9 * ADJ4), alpha=0.1)
    traj = run_learning(game, X0)
    assert traj.classification == "converged"
    assert traj.steps == 209
    assert traj.conjectures.shape == (traj.steps + 1, 4)
    assert traj.actions.shape == traj.payoffs.shape == (traj.steps, 4)
    assert np.allclose(
        traj.limit.actions, [271 / 190, 2.8, 0.1, 28 / 19], atol=1e-8
    )
    assert traj.limit.kind == "NE"
    assert traj.limit_is_sce
    assert traj.clamp_events == ()


def test_drifting_run_oscillates():
    # spectral radius exactly one: a two-period increment pattern rides on
    # an unbounded drift, and the repeat-offender pair is flagged
    game = make_game(WeightedNetwork(z=1.0 * ADJ4), alpha=0.1)
    traj = run_learning(game, X0, max_iter=2000)
    assert traj.classification == "oscillating"
    assert traj.period == 2
    assert traj.period_kind == "increment"
    assert traj.cycle_agents == (0, 3)
    assert traj.steps == 5
    assert traj.limit is None


def test_state_cycle_is_caught_exactly():
    game = make_game(WeightedNetwork(z=np.array([[0.0, -1.0], [-1.0, 0.0]])), alpha=1.0)
    traj = run_learning(game, np.array([-0.3, -0.3]))
    assert traj.classification == "oscillating"
    assert traj.period_kind == "state"
    assert traj.period == 2
    assert traj.cycle_agents == (0, 1)


def test_explosive_run_diverges():
    game = make_game(
        WeightedNetwork(z=np.array([[0.0, 2.0], [2.0, 0.0]])),
        alpha=1.0,
        a_max=1e12,
        x_lo=-4e12,
        x_hi=4e12,
    )
    traj = run_learning(game, np.array([0.5, 0.5]))
    assert traj.classification == "diverged"


def test_pure_drift_is_not_oscillation():
    # constant increments with zero spread: runs to the iteration budget
    # instead of being misread as a cycle
    game = make_game(WeightedNetwork(z=np.array([[0.0, 1.0], [1.0, 0.0]])), alpha=0.1)
    traj = run_learning(game, np.zeros(2), max_iter=50)
    assert traj.classification == "max-iter"
    assert traj.steps == 50


def test_dropout_is_absorbing():
    game = make_game(WeightedNetwork(z=MIXED4), alpha=0.1)
    traj = run_learning(game, np.array([0.2, 0.2, -0.05, 0.2]))
    assert traj.classification == "converged"
    active = traj.actions > 1e-9
    assert np.all(active[1:] <= active[:-1])  # nobody re-enters
    assert np.allclose(traj.limit.actions, [0.125, 0.15, 0.0, 0.125], atol=1e-8)
    assert traj.limit.declared_inactive == frozenset({2})
    assert traj.limit_is_sce


def test_run_learning_validations(positive_game):
    with pytest.raises(UsageError, match="initial conjectures have length 3; the game has 4"):
        run_learning(positive_game, np.zeros(3))
    with pytest.raises(UsageError):
        run_learning(positive_game, np.full(4, 1e9))
    with pytest.raises(UsageError):
        run_learning(positive_game, np.zeros(4), max_iter=0)
    with pytest.raises(UsageError):
        run_learning(positive_game, np.zeros(4), window=0)


@pytest.mark.parametrize("start, agent", [([np.nan, 0.0], 0), ([0.0, np.nan], 1),
                                          ([np.inf, 0.0], 0), ([0.0, -np.inf], 1)])
def test_run_learning_rejects_a_non_finite_start_before_any_step(start, agent, monkeypatch):
    """A NaN start used to pass the range test and, its change read as
    quiet, converge after 3 steps to an all-NaN limit with limit_is_sce."""
    from netsce import learning

    def no_steps(*args, **kw):
        raise AssertionError("a step ran before the start was checked")

    monkeypatch.setattr(learning, "_step", no_steps)
    game = make_game(WeightedNetwork(z=np.array([[0.0, 0.5], [0.5, 0.0]])), alpha=0.1)
    with pytest.raises(UsageError, match=f"conjecture for agent {agent} lies outside"):
        run_learning(game, start)



@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": float("inf")},
        {"tol": float("nan")},
        {"tol": 0.0},
        {"tol": None},
        {"tol": "1e-10"},
        {"tol": 1e-10 + 0j},
        {"tol": np.array([1e-10, 1e-10])},
        {"tol": True},
        {"tol": False},
        {"max_iter": 0},
        {"max_iter": 2.5},
        {"max_iter": np.float64(3.0)},
        {"max_iter": None},
        {"window": 0},
        {"window": 2.5},
        {"window": float("nan")},
        {"window": np.float64(3.0)},
        {"window": "3"},
        {"window": None},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_run_learning_checks_stopping_rule_before_any_step(positive_game, kwargs, monkeypatch):
    from netsce import learning

    def no_steps(*args, **kw):
        raise AssertionError("a step ran before the arguments were checked")

    monkeypatch.setattr(learning, "_step", no_steps)
    with pytest.raises(UsageError, match="tol must be a finite|max_iter must be|window must be"):
        run_learning(positive_game, np.zeros(4), **kwargs)


def test_probe_rejects_infinite_tol(positive_game, monkeypatch):
    from netsce import learning

    def no_steps(*args, **kw):
        raise AssertionError("a step ran before the arguments were checked")

    monkeypatch.setattr(learning, "_step", no_steps)
    rec = enumerate_sce(positive_game)[0][0]
    with pytest.raises(UsageError, match="tol must be a finite positive number"):
        probe_stability(positive_game, rec, tol=float("inf"))


def test_probe_rejects_a_non_integral_budget_on_a_certified_record(monkeypatch):
    """The certificate decides every table1 record without a run, so only
    the argument check stands between a fractional budget and a verdict."""
    from netsce import learning

    def no_runs(*args, **kw):
        raise AssertionError("a certified record ran")

    monkeypatch.setattr(learning, "_advance", no_runs)
    game = load_scenario(SCENARIO_DIR / "table1.json").game
    rec = enumerate_sce(game)[0][-1]
    assert probe_stability(game, rec, max_iter=20000).return_fraction == 1.0
    with pytest.raises(UsageError, match="max_iter must be an integer"):
        probe_stability(game, rec, max_iter=20000.5)


def test_records_of_another_game_are_usage_errors(positive_game, monkeypatch):
    """A record, profile or conjecture vector of the wrong length is named,
    with the game's agent count, before any work."""
    from netsce import learning

    def no_work(*args, **kw):
        raise AssertionError("work started before the lengths were checked")

    three = make_game(WeightedNetwork(z=0.2 * ADJ4[:3, :3]), alpha=0.1)
    rec = enumerate_sce(three)[0][-1]
    monkeypatch.setattr(learning, "_certificate", no_work)
    monkeypatch.setattr(learning, "_advance", no_work)
    message = "actions have length 3; the game has 4 agents"
    with pytest.raises(UsageError, match=message):
        probe_stability(positive_game, rec)
    with pytest.raises(UsageError, match=message):
        analytic_stability(positive_game, rec)
    with pytest.raises(UsageError, match=message):
        make_record(positive_game, np.zeros(3))
    with pytest.raises(UsageError, match="conjectures have length 5; the game has 4 agents"):
        make_record(positive_game, np.zeros(4), conjectures=np.zeros(5))


@pytest.mark.parametrize("actions, conjectures, name", [
    ([np.nan, np.nan], [np.nan, np.nan], "witness"),
    ([0.1, np.nan], [0.0, 0.0], "action"),
], ids=["witness", "action"])
def test_non_finite_records_are_usage_errors(monkeypatch, actions, conjectures, name):
    """A record with a non-finite witness or action, which
    ``make_record(..., validate=False)`` builds, raises before the
    certificate and any draw: the probe would read every nan run as quiet
    and the analytic test would report a nan margin."""
    from netsce import learning

    def no_work(*args, **kw):
        raise AssertionError("work started before the values were checked")

    game = make_game(WeightedNetwork(z=np.array([[0.0, 0.2], [0.2, 0.0]])), alpha=0.5)
    rec = make_record(game, actions, conjectures=conjectures, validate=False)
    monkeypatch.setattr(learning, "_certificate", no_work)
    monkeypatch.setattr(learning, "_advance", no_work)
    monkeypatch.setattr(np.random, "default_rng", no_work)
    for call in (lambda: probe_stability(game, rec, samples=3),
                 lambda: analytic_stability(game, rec)):
        with pytest.raises(UsageError, match=f"^record 0 has a non-finite {name} for agent"):
            call()


def _global3():
    return make_global_game(make_game(WeightedNetwork(z=COMPLETE3), alpha=0.1), beta=1.0, c=0.1)


@pytest.mark.parametrize(
    "call, name, length, agents",
    [
        (lambda g: is_sce(g, np.zeros(3), np.zeros(3)), "actions", 3, 4),
        (lambda g: is_sce(g, np.zeros(4), np.zeros(5)), "conjectures", 5, 4),
        (lambda g: learn_step(g, np.zeros(3)), "conjectures", 3, 4),
        (lambda g: learn_step(g, np.zeros((2, 4))), "conjectures", 8, 4),
        (lambda g: learn_step(g, np.zeros((2, 2, 4))), "conjectures", 16, 4),
        (lambda g: true_centrality(_global3(), np.ones(2)), "actions", 2, 3),
    ],
    ids=["is_sce-actions", "is_sce-conjectures", "learn_step-profile", "learn_step-2d",
         "learn_step-3d", "true_centrality"],
)
def test_wrong_lengths_are_named_with_the_agent_count(positive_game, call, name, length, agents):
    """A profile or an action vector of the wrong length, or anything but one
    profile (learn_step takes no stack), is a usage error that names its
    size and the game's agent count, not a NumPy error."""
    with pytest.raises(UsageError, match=f"^{name} have length {length}; the game has {agents} "):
        call(positive_game)


def test_cap_events_recorded():
    game = make_game(
        WeightedNetwork(z=np.array([[0.0, 0.5], [0.5, 0.0]])), alpha=0.9, a_max=1.0
    )
    with pytest.warns(CapBindingWarning):
        traj = run_learning(game, np.array([0.5, 0.5]))
    assert traj.classification == "converged"
    assert traj.cap_events  # every period pressed the cap


# ---------------------------------------------------------------- stability


def test_analytic_stability_at_interior_nash(positive_game):
    records, _ = enumerate_sce(positive_game)
    report = analytic_stability(positive_game, by_active(records, [0, 1, 2, 3]))
    assert report.verdict == "stable"
    assert report.rho_active == pytest.approx(0.2)
    assert report.margin is None  # nobody is inactive

    lone = analytic_stability(positive_game, by_active(records, [2]))
    assert lone.verdict == "stable"
    assert lone.margin > 0


def test_analytic_stability_margin_tie_is_inconclusive():
    game = make_game(
        WeightedNetwork(z=np.zeros((2, 2))),
        alpha=np.array([0.1, -0.2]),
        x_lo=-1.0,
        x_hi=1.0,
    )
    rec = make_record(game, np.array([0.1, 0.0]), conjectures=np.array([0.0, 0.2]))
    report = analytic_stability(game, rec)
    assert report.verdict == "inconclusive"
    assert report.margin == 0.0
    assert report.rho_ok


def test_analytic_stability_spectral_failure_is_inconclusive():
    game = make_game(
        WeightedNetwork(z=1.0 * ADJ4), alpha=np.array([0.0, -0.5, 0.5, -0.5])
    )
    rec = make_record(game, np.array([1.0, 2.0, 0.5, 1.0]))
    assert rec.kind == "NE"  # a Nash equilibrium on a radius-one network
    report = analytic_stability(game, rec)
    assert report.verdict == "inconclusive"
    assert report.rho_active == pytest.approx(1.0)
    assert report.margin_ok


def test_probe_returns_to_contracting_nash(positive_game):
    records, _ = enumerate_sce(positive_game)
    ne = by_active(records, [0, 1, 2, 3])
    probe = probe_stability(positive_game, ne, epsilon=1e-3, samples=20, seed=1,
                            max_iter=800)
    assert probe.return_fraction == 1.0
    assert probe.belief_stay_fraction == 1.0
    assert probe.nonconverged == 0


def test_probe_detects_knife_edge():
    # pessimism bound exactly at the dropout threshold: perturbations that
    # cross it wake agents up and the run escapes to an interior equilibrium
    game = make_game(
        WeightedNetwork(z=0.2 * ADJ4), alpha=0.1, a_max=1.0, x_lo=-0.1, x_hi=0.6
    )
    zero = make_record(game, np.zeros(4), declared_inactive=frozenset(range(4)))
    probe = probe_stability(game, zero, epsilon=1e-3, samples=30, seed=7,
                            max_iter=2000)
    assert 0.0 < probe.return_fraction < 1.0
    assert probe.nonconverged == 0
    again = probe_stability(game, zero, epsilon=1e-3, samples=30, seed=7,
                            max_iter=2000)
    assert again == probe


# ------------------------------------------------------------ stable family


def test_stable_family_covers_every_subset(positive_game):
    records, _ = enumerate_sce(positive_game)
    ne = by_active(records, [0, 1, 2, 3])
    family = stable_sce_family(positive_game, ne)
    assert family.applicable
    assert len(family.members) == 16
    assert family.skipped == ()
    assert all(report.verdict == "stable" for _, report in family.members)
    sets = {rec.active_set for rec, _ in family.members}
    assert len(sets) == 16
    lone = [rec for rec, _ in family.members if rec.active_set == frozenset({2})][0]
    assert np.allclose(lone.actions, [0.0, 0.0, 0.1, 0.0])


def test_stable_family_not_applicable():
    game = make_game(
        WeightedNetwork(z=np.array([[0.0, 1.2], [1.1, 0.0]])),
        alpha=np.array([-0.1, -0.05]),
    )
    rec = make_record(game, np.array([0.5, 0.5]))
    family = stable_sce_family(game, rec)
    assert not family.applicable
    assert "no interior-equilibrium condition" in family.why
    assert family.members == ()
