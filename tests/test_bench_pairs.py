"""The summary of ``tools/bench_pairs.py`` on canned run.py output.

The script's runs spawn ``perfbench/run.py``; its summary is a pure
function of the kept results, checked here without any subprocess.
"""

import importlib.util
import json
import os
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_ms_p50": "lower"}


def _stdout(ops, p50, failed=0, correct=True, family_ms=1.0):
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
        },
    }
    return "\n".join([
        "workload=enumerate seed=1 size=full trace=0",
        "op_ms_tail                                  5.1 ms  (p90 of 117 ops, median of 5 passes)",
        f"  shipped: 5 ops, median {family_ms:.4g} ms",
        f"  certified-n6: 10 ops, median {2 * family_ms:.4g} ms",
        json.dumps(result),
    ])


def _runs(workload, values):
    """Runs of ``workload`` from (pair, side, stdout) triples, as the
    script keeps them."""
    runs = []
    for pair, side, stdout in values:
        families, result = bench_pairs.parse_output(stdout)
        runs.append({"workload": workload, "seed": 10 + pair, "side": side, "pair": pair,
                     "exit": 0, "families": families, "result": result})
    return runs


def test_pairs_alternate_parent_first_on_even_indexes():
    assert [bench_pairs.pair_order(p) for p in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_parse_output_keeps_the_last_line_and_the_family_lines():
    families, result = bench_pairs.parse_output(_stdout(300.0, 2.5, family_ms=1.25))
    assert families == "  shipped: 5 ops, median 1.25 ms;  certified-n6: 10 ops, median 2.5 ms;"
    assert result["metrics"]["op_ms_p50"]["value"] == 2.5
    assert bench_pairs.parse_output("perfbench: error: out of time\n") == ("", None)
    assert bench_pairs.parse_output("") == ("", None)


def test_summary_medians_quartiles_and_won_pairs():
    parent = [(300.0, 2.6), (310.0, 2.5), (290.0, 2.7), (305.0, 2.4)]
    change = [(350.0, 2.2), (340.0, 2.3), (280.0, 2.8), (360.0, 2.1)]
    triples = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        for side, (ops, p50) in sides if pair % 2 == 0 else sides[::-1]:
            triples.append((pair, side, _stdout(ops, p50)))
    summary = bench_pairs.summarize(_runs("enumerate", triples), BETTER)
    row = summary["enumerate"]
    assert list(row) == ["ops_per_s", "op_ms_p50", "failed_ops", "all_correct"]
    ops = row["ops_per_s"]
    # parent 290, 300, 305, 310: median 302.5, quartiles 297.5 and 306.25
    assert ops["parent_median"] == 302.5
    assert ops["parent_q1_q3"] == [297.5, 306.25]
    assert ops["parent_iqr"] == 8.75
    # change 280, 340, 350, 360: median 345
    assert ops["change_median"] == 345.0
    assert ops["change_q1_q3"] == [325.0, 352.5]
    assert ops["change_vs_parent"] == round(345.0 / 302.5 - 1.0, 4)
    assert (ops["change_better_pairs"], ops["pairs"]) == (3, 4)
    p50 = row["op_ms_p50"]
    assert p50["parent_median"] == 2.55
    assert p50["change_median"] == 2.25
    # lower is better for the latency: three pairs won, one lost
    assert (p50["change_better_pairs"], p50["pairs"]) == (3, 4)
    assert row["failed_ops"] == {"parent": 0, "change": 0}
    assert row["all_correct"] is True


def test_summary_skips_broken_pairs_and_counts_failures():
    triples = [
        (0, "parent", _stdout(100.0, 5.0)),
        (0, "change", _stdout(120.0, 4.0, failed=2, correct=False)),
        (1, "change", _stdout(130.0, 3.0)),
        (1, "parent", "perfbench: error: workload process exited with code 1"),
    ]
    runs = _runs("learn", triples) + _runs("global_sweep", [(0, "parent", _stdout(1.0, 1.0))])
    summary = bench_pairs.summarize(runs, BETTER)
    assert list(summary) == ["learn", "global_sweep"]
    learn = summary["learn"]
    # pair 1 lacks the parent's result, so only pair 0 is compared
    assert learn["ops_per_s"]["pairs"] == 1
    assert learn["ops_per_s"]["parent_q1_q3"] == [100.0, 100.0]
    assert learn["ops_per_s"]["change_better_pairs"] == 1
    assert learn["op_ms_p50"]["change_vs_parent"] == -0.2
    assert learn["failed_ops"] == {"parent": 0, "change": 2}
    assert learn["all_correct"] is False
    # a workload without a complete pair reports no metric
    assert summary["global_sweep"] == {"failed_ops": {"parent": 0, "change": 0},
                                       "all_correct": True}


@pytest.mark.parametrize("text", ["enumerate", "enumerate:", "enumerate:0", ":3", "learn:x"])
def test_workload_argument_needs_a_name_and_a_pair_count(text):
    with pytest.raises(Exception, match="NAME:PAIRS"):
        bench_pairs._workload_arg(text)
    assert bench_pairs._workload_arg("learn:12") == ("learn", 12)


def _traced(workload, side, values):
    result = {"correct": True, "attempted": 36, "failed": 0,
              "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}
    return {"workload": workload, "seed": 1, "side": side, "exit": 0, "result": result, "trace": 1}


def test_traced_rows_pair_each_per_layer_metric():
    runs = [
        _traced("global_sweep", "parent", {"network.check_assumption_s": 0.02,
                                           "global_ext.self_s": 0.5, "global_ext.solves": 36}),
        _traced("global_sweep", "change", {"network.check_assumption_s": 0.01,
                                           "global_ext.self_s": 0.4, "global_ext.solves": 36}),
        _traced("learn", "change", {"global_ext.solves": 0, "global_ext.self_s": 0.0}),
        _traced("learn", "parent", {"global_ext.solves": 0, "global_ext.self_s": 0.0}),
        {"workload": "enumerate", "seed": 1, "side": "parent", "exit": 1, "result": None},
        _traced("enumerate", "change", {"global_ext.solves": 0}),
    ]
    names = ["global_ext.solves", "global_ext.self_s", "network.check_assumption_s"]
    rows = bench_pairs.compare_traced(runs, names)
    assert list(rows) == ["global_sweep", "learn", "enumerate"]
    sweep = rows["global_sweep"]
    assert list(sweep) == names
    assert sweep["network.check_assumption_s"] == {
        "parent": 0.02, "change": 0.01, "change_vs_parent": -0.5}
    assert sweep["global_ext.self_s"]["change_vs_parent"] == -0.2
    assert sweep["global_ext.solves"]["change_vs_parent"] == 0.0
    # a zero parent has no relative change
    assert rows["learn"]["global_ext.self_s"] == {
        "parent": 0.0, "change": 0.0, "change_vs_parent": None}
    # a metric a run does not report, and a side without a result, read None
    assert rows["learn"]["network.check_assumption_s"] == {
        "parent": None, "change": None, "change_vs_parent": None}
    assert rows["enumerate"]["global_ext.solves"] == {
        "parent": None, "change": 0, "change_vs_parent": None}


def test_verdict_needs_ten_pairs_nine_tenths_won_and_more_than_the_parent_iqr():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    # nine wins out of ten, medians 110 against 100, parent IQR 2
    change = [110.0, 111.0, 109.0, 112.0, 108.0, 110.0, 111.0, 109.0, 95.0, 110.0]
    assert bench_pairs.verdict(parent, change, 1) == "better"
    # the same values read as a latency, lower being better
    assert bench_pairs.verdict(parent, change, -1) == "worse"
    assert bench_pairs.verdict(change, parent, -1) == "better"
    # eight wins are too few
    eight = change[:7] + [95.0, 95.0, 110.0]
    assert bench_pairs.verdict(parent, eight, 1) == "unresolved"
    # every pair won, but the medians differ by less than the parent's IQR
    close = [p + 0.5 for p in parent]
    assert bench_pairs.verdict(parent, close, 1) == "unresolved"
    # ties count for neither side
    assert bench_pairs.verdict(parent, list(parent), 1) == "unresolved"
    # nine pairs, all won, are too few for a verdict either way
    assert bench_pairs.verdict(parent[:9], [c + 50.0 for c in parent[:9]], 1) == "unresolved"
    assert bench_pairs.verdict(parent[:9], [c + 50.0 for c in parent[:9]], -1) == "unresolved"


def test_verdict_is_worse_past_the_bound_whatever_the_pairs():
    parent = [100.0, 100.0, 100.0, 100.0]
    change = [70.0, 70.0, 70.0, 140.0]  # three losses of four; median 70
    assert bench_pairs.verdict(parent, change, 1) == "unresolved"
    assert bench_pairs.verdict(parent, change, 1, bound=0.25) == "worse"
    assert bench_pairs.verdict(parent, change, 1, bound=0.35) == "unresolved"
    # a latency 30 % up is past a 25 % bound; 30 % down is not
    assert bench_pairs.verdict(parent, [130.0] * 3 + [60.0], -1, bound=0.25) == "worse"
    assert bench_pairs.verdict(parent, [70.0] * 3 + [140.0], -1, bound=0.25) == "unresolved"


def test_summary_reports_a_verdict_per_metric():
    parent = [(300.0 + i, 2.5) for i in range(10)]
    change = [(400.0 + i, 2.5 if i else 2.4) for i in range(10)]
    triples = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        for side, (ops, p50) in sides if pair % 2 == 0 else sides[::-1]:
            triples.append((pair, side, _stdout(ops, p50)))
    runs = _runs("enumerate", triples)
    row = bench_pairs.summarize(runs, BETTER, {"ops_per_s": 0.25, "op_ms_p50": 0.25})["enumerate"]
    assert row["ops_per_s"]["verdict"] == "better"
    assert row["op_ms_p50"]["verdict"] == "unresolved"
    assert bench_pairs.summarize(runs, BETTER)["enumerate"]["ops_per_s"]["verdict"] == "better"
    # a change 30 % slower on every pair is worse
    for run in runs:
        if run["side"] == "change":
            run["result"]["metrics"]["ops_per_s"]["value"] = 0.7 * 300.0
    row = bench_pairs.summarize(runs, BETTER, {"ops_per_s": 0.25})["enumerate"]
    assert row["ops_per_s"]["verdict"] == "worse"


def test_runs_read_and_write_no_bytecode_cache(monkeypatch):
    """Each run.py process compiles its checkout's sources: a cache left in
    one checkout only would make that side's set-up faster and its peak RSS
    lower."""
    seen = []

    class Done:
        returncode = 0
        stdout = "env nproc=2\n{}\n"

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append((cmd, cwd, env))
        return Done()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    code, stdout, env_line = bench_pairs._run(pathlib.Path("parent"), "learn", 7, 2.0)
    assert (code, env_line) == (0, "nproc=2")
    (cmd, cwd, env), = seen
    assert cmd[1:] == ["perfbench/run.py", "--workload", "learn", "--seed", "7", "--seconds",
                       "2.0", "--trace", "0"]
    assert cwd == pathlib.Path("parent")
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONPYCACHEPREFIX"] == os.devnull
