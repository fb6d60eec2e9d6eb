"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload at its smallest size, timed and traced, checks the
output contract, checks that the correctness oracles reject wrong answers,
and checks that the benchmark refuses to run without the netsce sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import worker  # noqa: E402
from netsce import equilibrium, game, network  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace, timeout=120):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.3", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smallest_run_meets_contract(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(out["metrics"]) == [m["name"] for m in BENCH[kind]]
    for m in BENCH[kind]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "learn", 0, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_percentile_keeps_ten_ops_beyond():
    assert worker.tail(list(range(100))) == (89, 90)
    assert worker.tail(list(range(50))) == (37, 75)
    assert worker.tail(list(range(5)))[1] == 100


def _record(actions, conjectures, kind, active, declared=()):
    return SimpleNamespace(
        actions=np.array(actions, dtype=float), conjectures=np.array(conjectures, dtype=float),
        kind=kind, active_set=frozenset(active), declared_inactive=frozenset(declared),
        bitmask=sum(1 << i for i in active),
    )


def test_enumeration_oracle_rejects_wrong_kind_and_missing_ne():
    z = np.array([[0.0, -0.5], [-0.5, 0.0]])
    alpha = np.array([0.3, 0.1])
    a_max = np.full(2, 10.0)
    lo, hi = np.full(2, -20.0), np.full(2, 20.0)
    want = [*oracles.equilibrium_masks(z, alpha, a_max, lo, True),
            *oracles.equilibrium_masks(z, alpha, a_max, lo, False)]
    ne = _record([0.3, 0.0], [0.0, -0.15], "NE", [0])
    sce = [ne, _record([0.0, 0.0], [-20.0, -20.0], "SCE-non-NE", [], [0, 1]),
           _record([0.0, 0.1], [-20.0, 0.0], "SCE-non-NE", [1], [0])]
    ok = oracles.check_enumeration(z, alpha, a_max, lo, hi, ([ne], None), (sce, None), want)
    assert ok is None
    wrong = _record([0.3, 0.0], [0.0, -0.15], "SCE-non-NE", [0])
    assert oracles.check_enumeration(z, alpha, a_max, lo, hi, ([ne], None), ([wrong], None), want)
    assert oracles.check_enumeration(z, alpha, a_max, lo, hi, ([ne], None), (sce[1:], None), want)


def test_enumeration_oracle_catches_a_dropped_equilibrium():
    # Coordination game with two Nash equilibria: nobody active, both active.
    spec = game.make_game(network.WeightedNetwork(z=np.array([[0.0, 2.0], [2.0, 0.0]])),
                          alpha=[-0.1, -0.1])
    args = (spec.net.z, spec.alpha, spec.a_max, spec.x_lo, spec.x_hi)
    want = [*oracles.equilibrium_masks(*args[:4], True),
            *oracles.equilibrium_masks(*args[:4], False)]
    assert want[0] == {0, 3}
    (ne, nd), (sce, sd) = equilibrium.solve_full_ne(spec), equilibrium.enumerate_sce(spec)
    assert oracles.check_enumeration(*args, (ne, nd), (sce, sd), want) is None
    ne_cut = [r for r in ne if r.bitmask != 3]
    sce_cut = [r for r in sce if r.bitmask != 3]
    assert "missing" in oracles.check_enumeration(*args, (ne_cut, nd), (sce_cut, sd), want)
    assert "missing" in oracles.check_enumeration(*args, (ne_cut, nd), (sce, sd), want)


def test_stability_oracle_rejects_bad_rows():
    rows = [oracles.STABILITY_HEADER, ["1", "0", "NE", "stable", "0", "", "1", "1", "0"]]
    assert oracles.check_stability_csv(rows, {1}, set(), 4) is None
    assert oracles.check_stability_csv(rows, set(), {1}, 4) is None
    assert oracles.check_stability_csv(rows, {1, 3}, set(), 4)
    assert oracles.check_stability_csv(rows, set(), set(), 4)
    rows[1][6] = "1.5"
    assert oracles.check_stability_csv(rows, {1}, set(), 4)


def test_global_oracle_rejects_uncertified_convergence():
    z = np.array([[0.0, 0.5], [0.5, 0.0]])
    alpha, c = np.full(2, 0.2), np.full(2, 0.1)
    sol = SimpleNamespace(actions=np.array([0.4, 0.4]), converged=True)
    assert oracles.check_global(z, alpha, 1.0, c, sol, 1e-10)
    sol.converged = False
    assert oracles.check_global(z, alpha, 1.0, c, sol, 1e-10) is None
