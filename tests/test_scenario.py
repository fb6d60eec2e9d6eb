"""Scenario JSON: strict parsing, defaults, canonical round-trips."""

import json

import numpy as np
import pytest

from netsce import UsageError
from netsce.scenario import (
    emit_scenario,
    load_scenario,
    normalize_scenario,
    parse_scenario,
)

from conftest import SCENARIO_DIR

MINIMAL = {
    "mode": "local",
    "n": 2,
    "alpha": 0.1,
    "z": [[0.0, 0.2], [0.2, 0.0]],
}


def make(**overrides):
    obj = {**MINIMAL, **overrides}
    for key, val in list(obj.items()):
        if val is None:
            del obj[key]
    return obj


def test_minimal_local_scenario_defaults():
    scn = parse_scenario(json.dumps(MINIMAL))
    assert scn.mode == "local"
    assert scn.n == 2
    assert np.allclose(scn.game.alpha, 0.1)
    assert scn.beta is None and scn.c is None
    assert np.all(scn.initial_conjectures == 0.0)
    assert (scn.seed, scn.max_iter, scn.window, scn.samples) == (0, 100_000, 3, 100)
    assert scn.tol == 1e-10 and scn.epsilon == 1e-3


def test_global_scenario_builds_its_game():
    scn = load_scenario(SCENARIO_DIR / "global_line.json")
    assert scn.mode == "global"
    g = scn.global_game()
    assert g.beta == 1.0
    assert np.allclose(g.c, 0.2)


def test_local_scenario_rejects_global_ops():
    scn = parse_scenario(json.dumps(MINIMAL))
    with pytest.raises(UsageError, match="requires a global-mode scenario"):
        scn.global_game()


@pytest.mark.parametrize(
    "obj, message",
    [
        (make(mode=None), "mode must be"),
        (make(mode="mixed"), "mode must be"),
        (make(n=None), "n must be an integer"),
        (make(n=True), "n must be an integer"),
        (make(n=0), "n must be at least 1"),
        (make(alpha=None), "alpha is required"),
        (make(alpha=[0.1]), "alpha must be a number or a list of 2 numbers"),
        (make(alpha=[0.1, "x"]), r"alpha\[1\] must be a number"),
        (make(z=None), "z must be a list of 2 rows"),
        (make(z=[[0.0, 0.2]]), "z must be a list of 2 rows"),
        (make(z=[[0.0], [0.2, 0.0]]), r"z\[0\] must be a list of 2 numbers"),
        (make(z=[[0.0, 0.2], [0.2, 0.5]]), r"z\[1\]\[1\] must be 0"),
        (make(z=[[0.0, True], [0.2, 0.0]]), r"z\[0\]\[1\] must be a number"),
        (make(a_max=0.0), r"a_max\[0\] must be positive"),
        (make(x_bounds=[0.0, 1.0, 2.0]), "lo, hi"),
        (make(x_bounds=[[0.0, 1.0], [2.0]]), r"x_bounds\[1\] must be a \[lo, hi\] pair"),
        (make(x_bounds=[1.0, -1.0]), r"x_bounds\[0\]: lo exceeds hi"),
        (make(beta=1.0), "beta is only valid in global mode"),
        (make(c=0.1), "c is only valid in global mode"),
        (make(mode="global", c=0.1), "beta is required in global mode"),
        (make(mode="global", beta=1.0), "c is required in global mode"),
        (make(mode="global", beta=-1.0, c=0.1), "beta must be positive"),
        (make(tol=0.0), "tol must be positive"),
        (make(max_iter=0), "max_iter must be at least 1"),
        (make(seed=-1), "seed must be at least 0"),
        (make(extra=1), "unknown key 'extra'"),
        (make(initial_conjectures=[9e9, 0.0]), r"initial_conjectures\[0\] lies outside x_bounds"),
        (make(n=10**12, z=[]), "z must be a list of 1000000000000 rows"),
    ],
)
def test_strict_rejections(obj, message):
    with pytest.raises(UsageError, match=message):
        parse_scenario(json.dumps(obj))


def test_broken_json_and_wrong_root():
    with pytest.raises(UsageError, match="not valid JSON"):
        parse_scenario("{nope")
    with pytest.raises(UsageError, match="must be a JSON object"):
        parse_scenario("[1, 2]")


def test_text_nested_too_deep_is_a_usage_error(tmp_path):
    text = "[" * 100_000
    with pytest.raises(UsageError, match="nests too deeply"):
        parse_scenario(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(UsageError, match="cannot read scenario file .*deep.json: maximum recursion"):
        load_scenario(path)


def test_inadmissible_centrality_caught_at_parse_time():
    obj = make(mode="global", beta=1.0, c=2.0)
    with pytest.raises(UsageError, match="exceeds the admissible bound"):
        parse_scenario(json.dumps(obj))


def test_x_bounds_broadcast_and_explicit():
    scn = parse_scenario(json.dumps(make(a_max=1.0, x_bounds=[-1.0, 1.0])))
    assert np.allclose(scn.game.x_lo, -1.0)
    assert np.allclose(scn.game.x_hi, 1.0)
    scn = parse_scenario(json.dumps(make(a_max=1.0, x_bounds=[[-1.0, 1.0], [-2.0, 2.0]])))
    assert np.allclose(scn.game.x_lo, [-1.0, -2.0])


def test_missing_file():
    with pytest.raises(UsageError, match="cannot read scenario file"):
        load_scenario(SCENARIO_DIR / "no_such_scenario.json")


def test_normal_form_is_idempotent():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scn = load_scenario(path)
        canonical = emit_scenario(scn)
        again = emit_scenario(parse_scenario(canonical))
        assert again == canonical, path.name
        assert canonical.endswith("\n")


def test_zero_network_default_bounds_are_positive_zero():
    # make_game's default range is [0 - b, b]; with b = 0 it must emit 0.0, not -0.0
    for n in (1, 3):
        text = emit_scenario(parse_scenario(json.dumps(make(n=n, z=[[0.0] * n] * n))))
        assert json.loads(text)["x_bounds"] == [[0.0, 0.0]] * n
        assert "-0.0" not in text


def test_normal_form_materializes_defaults():
    out = normalize_scenario(parse_scenario(json.dumps(MINIMAL)))
    assert out["a_max"] == [1e6, 1e6]
    assert out["x_bounds"][0][0] == out["x_bounds"][1][0] < 0
    assert out["seed"] == 0
    assert out["samples"] == 100
    assert "beta" not in out
