"""End-to-end command-line runs against the bundled scenarios."""

import csv
import inspect
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from netsce import (
    ASSUMPTIONS,
    CapBindingWarning,
    analytic_stability,
    check_assumption,
    emit_scenario,
    enumerate_sce,
    load_scenario,
    parse_scenario,
    phi_map,
    probe_stability,
    run_learning,
    solve_full_ne,
    solve_global_sce,
)
from netsce import cli
from netsce.cli import _COMMANDS, _build_parser, main
from netsce.learning import PROBE_MAX_ITER, _probe

from conftest import CAPPED4, SCENARIO_DIR, SIGNED4
from test_global_solver import _hot_corner_game


def run(tmp_path, command, scenario, *flags, out="out.csv"):
    """Invoke the CLI in-process; returns (exit_code, csv rows as dicts, out path)."""
    target = tmp_path / out
    code = main([command, "-i", str(SCENARIO_DIR / scenario), "-o", str(target), *flags])
    rows = []
    if target.exists():
        with open(target, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return code, rows, target


# ----------------------------------------------------------------- dispatch


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["frobnicate", "-i", "x.json"]) == 1
    assert main(["sce"]) == 1  # --input is required
    assert main(["sce", "-i", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "netsce: error:" in err


def test_parser_is_built_once_and_reused(capsys):
    """A usage error, then a good run, in one process print what two fresh
    processes print."""
    assert _build_parser() is _build_parser()
    runs = (["sce"], ["ne", "-i", str(SCENARIO_DIR / "table1.json")])
    for argv in runs:
        fresh = subprocess.run(
            [sys.executable, "-m", "netsce", *argv], capture_output=True, text=True
        )
        assert main(argv) == fresh.returncode
        assert capsys.readouterr() == (fresh.stdout, fresh.stderr)


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"mode": "local", "n": 1, "alpha": 0.5, "z": [[0]]} \xe9'.encode("latin-1"))
    return ["sce", "-i", str(path)], path


def _too_deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    return ["sce", "-i", str(path)], path


def _unwritable(command):
    def case(tmp_path):
        path = tmp_path / "missing-dir" / "out.csv"
        return [command, "-i", str(SCENARIO_DIR / "table1.json"), "-o", str(path)], path
    return case


def _summary_unwritable(tmp_path):
    out = tmp_path / "out.csv"
    path = tmp_path / "out.csv.summary.json"
    path.mkdir()  # learn writes the CSV, then cannot open its summary
    return ["learn", "-i", str(SCENARIO_DIR / "learn_contracting.json"), "-o", str(out)], path


@pytest.mark.parametrize(
    "case",
    [_not_utf8, _too_deep, _unwritable("sce"), _unwritable("learn"), _summary_unwritable],
    ids=["input-not-utf8", "input-nested-too-deep", "sce-output-unwritable",
         "learn-output-unwritable", "learn-summary-unwritable"],
)
def test_unreadable_input_and_unwritable_output_exit_one(tmp_path, case):
    argv, path = case(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "netsce", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("netsce: error:")
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr


def test_mode_guards(tmp_path, capsys):
    required = {"ne": "local", "sce": "local", "learn": "local", "stability": "local",
                "global-sce": "global", "phi-map": "global"}
    assert set(_COMMANDS) == set(required) | {"check"}
    wrong = {"local": "global_line.json", "global": "table1.json"}
    for command, mode in required.items():
        code = main([command, "-i", str(SCENARIO_DIR / wrong[mode])])
        assert code == 1, command
        assert f"requires a {mode}-mode scenario" in capsys.readouterr().err, command
    for scenario in wrong.values():  # check takes either mode
        out = str(tmp_path / "check.csv")
        assert main(["check", "-i", str(SCENARIO_DIR / scenario), "-o", out]) == 0, scenario


def test_flag_validation(tmp_path):
    scn = str(SCENARIO_DIR / "table1.json")
    assert main(["stability", "-i", scn, "--tol", "-1"]) == 1
    assert main(["stability", "-i", scn, "--samples", "0"]) == 1
    assert main(["stability", "-i", scn, "--seed", "-3"]) == 1
    assert main(["learn", "-i", scn, "--max-iter", "0"]) == 1
    assert main(["sce", "-i", scn, "--format", "json"]) == 1  # no --format flag: output is csv


# Per command: the scenario it runs on, the library call its handler makes
# (None when it takes no override) and the scenario keys that call reads.
OVERRIDES = {
    "check": ("table1.json", None, ()),
    "ne": ("table1.json", None, ()),
    "sce": ("table1.json", None, ()),
    "learn": ("learn_contracting.json", "run_learning", ("tol", "max_iter")),
    "stability": ("table1.json", "_probe", ("tol", "seed", "epsilon", "samples")),
    "global-sce": ("global_line.json", "solve_global_sce", ("tol", "max_iter")),
    "phi-map": ("global_line.json", "phi_map", ("tol", "max_iter", "samples")),
}
# A valid value of each override key that no shipped scenario holds.
KNOBS = {"tol": 1e-7, "max_iter": 17, "seed": 9, "epsilon": 0.02, "samples": 6}


class _Reached(Exception):
    """Raised by a patched library call once it has seen its arguments."""


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_takes_the_overrides_it_reads(tmp_path, capsys, monkeypatch, command):
    """A flag the command does not read is a usage error and writes nothing;
    the file's value of such a key changes no output byte; each flag it
    takes reaches its library call."""
    scenario, call, keys = OVERRIDES[command]
    assert _COMMANDS[command][2] == keys
    path = SCENARIO_DIR / scenario
    unread = [key for key in KNOBS if key not in keys]
    out = tmp_path / "out.csv"
    for key in unread:
        flag = "--" + key.replace("_", "-")
        assert main([command, "-i", str(path), "-o", str(out), flag, str(KNOBS[key])]) == 1
        err = capsys.readouterr().err
        assert err == f"netsce: error: unrecognized arguments: {flag} {KNOBS[key]}\n"
        assert not out.exists()

    code = main([command, "-i", str(path)])
    expected = capsys.readouterr()
    obj = json.loads(path.read_text())
    for key in unread:
        edited = tmp_path / f"{key}.json"
        edited.write_text(json.dumps({**obj, key: KNOBS[key]}))
        assert main([command, "-i", str(edited)]) == code, key
        assert capsys.readouterr() == expected, key

    if call is None:
        return
    seen = {}
    signature = inspect.signature(getattr(cli, call))

    def capture(*args, **kwargs):
        seen.update(signature.bind(*args, **kwargs).arguments)
        raise _Reached

    monkeypatch.setattr(cli, call, capture)
    flags = [arg for key in keys for arg in ("--" + key.replace("_", "-"), str(KNOBS[key]))]
    with pytest.raises(_Reached):
        main([command, "-i", str(path), *flags])
    if "c_grid" in seen:  # phi-map reads samples as the length of its grid
        seen["samples"] = len(seen["c_grid"])
    scn = load_scenario(path)
    for key in keys:
        assert getattr(scn, key) != KNOBS[key], key
        assert (type(seen[key]), seen[key]) == (type(KNOBS[key]), KNOBS[key]), key


@pytest.mark.parametrize(
    "command, edit, flags",
    [("ne", {"n": 10**12, "z": []}, []), ("stability", {}, ["--epsilon", "1e308"])],
    ids=["n-without-z-rows", "epsilon-overflows"],
)
def test_oversized_values_exit_one(tmp_path, capsys, command, edit, flags):
    """A z without n rows is rejected before any length-n array is made, and
    an epsilon whose draws span no finite width before any draw."""
    path = tmp_path / "table1.json"
    path.write_text(json.dumps({**json.loads((SCENARIO_DIR / "table1.json").read_text()), **edit}))
    out = tmp_path / "out.csv"
    assert main([command, "-i", str(path), "-o", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netsce: error:") and err.count("\n") == 1
    assert not out.exists()


def test_largest_epsilon_still_probes(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapBindingWarning)
        code, rows, _ = run(tmp_path, "stability", "table1.json", "--epsilon", "8e307",
                            "--samples", "2")
    assert (code, len(rows)) == (0, 16)


# ------------------------------------------------------------- equilibrium IO


def test_sce_writes_table1(tmp_path):
    code, rows, _ = run(tmp_path, "sce", "table1.json")
    assert code == 0
    assert len(rows) == 16
    masks = [int(r["bitmask"]) for r in rows]
    assert masks == sorted(masks)
    ne_rows = [r for r in rows if r["kind"] == "NE"]
    assert len(ne_rows) == 1
    ne = ne_rows[0]
    assert ne["active_set"] == "0|1|2|3"
    assert ne["declared_inactive"] == ""
    expected = [31 / 240, 0.175, 0.1, 7 / 48]
    for i in range(4):
        assert float(ne[f"a_{i}"]) == pytest.approx(expected[i], abs=1e-12)
        assert f"{expected[i]:.12g}" == ne[f"a_{i}"]  # 12 significant digits
    # active agents witness their true aggregate: a_i = alpha + xhat_i
    for i in range(4):
        assert float(ne[f"xhat_{i}"]) == pytest.approx(expected[i] - 0.1, abs=1e-12)


def test_ne_on_mixed_network(tmp_path):
    code, rows, _ = run(tmp_path, "ne", "table3.json")
    assert code == 0
    assert len(rows) == 1
    row = rows[0]
    assert row["bitmask"] == "15"
    assert float(row["a_0"]) == pytest.approx(16.6 / 131, abs=1e-12)
    assert float(row["a_1"]) == pytest.approx(21 / 131, abs=1e-12)


def test_check_reports_assumptions(tmp_path):
    code, rows, _ = run(tmp_path, "check", "table2.json")
    assert code == 0
    holds = {r["assumption"]: r["holds"] for r in rows}
    # zeros in the adjacency break the strict sign assumptions; the spectral
    # radius 0.6 keeps the limited one
    assert holds == {
        "bounded": "false",
        "same-sign": "false",
        "negative": "false",
        "limited": "true",
        "symmetrizable": "false",
        "symmetrizable-limited": "false",
    }
    limited = [r for r in rows if r["assumption"] == "limited"][0]
    assert "rho=0.6" in limited["witness"]


# ------------------------------------------------------------------ learning


def test_learn_converged_run(tmp_path):
    code, rows, target = run(tmp_path, "learn", "learn_contracting.json")
    assert code == 0
    assert len(rows) == 209 * 4
    assert list(rows[0]) == ["t", "agent", "conjecture", "action", "payoff"]
    assert rows[0]["t"] == "0" and rows[0]["conjecture"] == "0.01"
    summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
    assert summary["classification"] == "converged"
    assert summary["steps"] == 209
    assert summary["limit"]["kind"] == "NE"
    assert summary["limit"]["is_sce"] is True
    assert summary["limit"]["actions"] == pytest.approx(
        [271 / 190, 2.8, 0.1, 28 / 19], abs=1e-8
    )


def test_learn_oscillation_exits_two(tmp_path):
    code, rows, _ = run(tmp_path, "learn", "learn_drifting.json")
    assert code == 2
    assert rows  # diagnostics written despite the failure code
    summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
    assert summary["classification"] == "oscillating"
    assert summary["period"] == 2
    assert summary["period_kind"] == "increment"
    assert summary["cycle_agents"] == [0, 3]
    assert summary["limit_is_sce"] is None if "limit_is_sce" in summary else True


def test_learn_max_iter_cutoff(tmp_path):
    code, rows, _ = run(tmp_path, "learn", "learn_contracting.json", "--max-iter", "10")
    assert code == 2
    assert len(rows) == 10 * 4
    summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
    assert summary["classification"] == "max-iter"


def test_learn_stdout_and_stderr_split(capsys):
    code = main(["learn", "-i", str(SCENARIO_DIR / "learn_drifting.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("t,agent,conjecture,action,payoff\n")
    summary = json.loads(captured.err)
    assert summary["classification"] == "oscillating"


# ----------------------------------------------------------------- stability


def test_stability_table(tmp_path):
    code, rows, _ = run(tmp_path, "stability", "table1.json", "--samples", "4")
    assert code == 0
    assert len(rows) == 16
    assert all(r["verdict"] == "stable" for r in rows)
    assert all(r["return_fraction"] == "1" for r in rows)
    assert all(r["nonconverged"] == "0" for r in rows)
    full = [r for r in rows if r["bitmask"] == "15"][0]
    assert full["margin"] == ""  # no inactive agent, no margin
    assert float(full["rho_active"]) == pytest.approx(0.2)


def _per_record_stability_csv(path) -> bytes:
    """The stability CSV of one ``probe_stability`` call per record."""
    scn = load_scenario(path)
    fmt = "{:.12g}".format
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["bitmask", "active_set", "kind", "verdict", "rho_active", "margin",
                "return_fraction", "belief_stay_fraction", "nonconverged"])
    for rec in enumerate_sce(scn.game)[0]:
        ana = analytic_stability(scn.game, rec)
        emp = probe_stability(scn.game, rec, epsilon=scn.epsilon, samples=scn.samples,
                              seed=scn.seed, tol=scn.tol)
        w.writerow([rec.bitmask, "|".join(str(i) for i in sorted(rec.active_set)), rec.kind,
                    ana.verdict, fmt(ana.rho_active),
                    "" if ana.margin is None else fmt(ana.margin),
                    fmt(emp.return_fraction), fmt(emp.belief_stay_fraction), emp.nonconverged])
    return buf.getvalue().encode()


def _capped_signed_scenario(tmp_path):
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({"mode": "local", "n": 4, "z": SIGNED4.tolist(), **CAPPED4,
                                "epsilon": 0.1, "samples": 30, "seed": 5}))
    return path


@pytest.mark.parametrize("scenario", ["table1.json", "table2.json", "table3.json", "capped"])
def test_stability_csv_matches_per_record_probes(tmp_path, scenario):
    path = (_capped_signed_scenario(tmp_path) if scenario == "capped"
            else SCENARIO_DIR / scenario)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapBindingWarning)
        assert main(["stability", "-i", str(path), "-o", str(out)]) == 0
        expected = _per_record_stability_csv(path)
    assert out.read_bytes() == expected
    if scenario == "capped":  # some records see every probe return, some not
        assert len({line.split(b",")[6] for line in expected.splitlines()[1:]}) > 1


def test_cap_warnings_print_as_lines_without_a_path(tmp_path, capsys):
    """A capped ``stability`` run prints each distinct cap warning once, in
    the order the probe raises them, as one ``netsce: warning:`` line that
    names no source file; the library still raises CapBindingWarning."""
    path = _capped_signed_scenario(tmp_path)
    scn = load_scenario(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _probe(scn.game, enumerate_sce(scn.game)[0], scn.epsilon, scn.samples, scn.seed,
               scn.tol, PROBE_MAX_ITER)
    assert caught and all(w.category is CapBindingWarning for w in caught)
    messages = list(dict.fromkeys(str(w.message) for w in caught))
    assert len(messages) < len(caught)  # some message repeats
    for _ in range(2):  # a second call in the same process prints them again
        assert main(["stability", "-i", str(path), "-o", str(tmp_path / "out.csv")]) == 0
        err = capsys.readouterr().err
        assert ".py:" not in err
        assert [line for line in err.splitlines() if not line.startswith("netsce: note:")] == [
            f"netsce: warning: {m}" for m in messages
        ]


def test_stability_checks_max_iter_but_does_not_use_it(tmp_path):
    """stability probes with PROBE_MAX_ITER: it takes no --max-iter, and the
    file's max_iter passes the usual check but changes no CSV byte."""
    code, rows, out = run(tmp_path, "stability", "table2.json", "--max-iter", "5")
    assert (code, rows, out.exists()) == (1, [], False)
    _, _, default = run(tmp_path, "stability", "table2.json", "--samples", "5", out="a.csv")
    obj = json.loads((SCENARIO_DIR / "table2.json").read_text())
    edited = tmp_path / "edited.json"
    for max_iter, code in ((0, 1), (1, 0)):
        edited.write_text(json.dumps({**obj, "max_iter": max_iter}))
        short = tmp_path / f"{max_iter}.csv"
        assert main(["stability", "-i", str(edited), "-o", str(short), "--samples", "5"]) == code
    assert not (tmp_path / "0.csv").exists()
    assert short.read_bytes() == default.read_bytes()


def test_stability_draws_each_sample_once(tmp_path, rng_calls):
    """A certified record draws nothing: table1 certifies all 16 records and
    makes no draw; learn_drifting runs 6 of its 12 and draws each sample once."""
    code, rows, _ = run(tmp_path, "stability", "table1.json")
    assert (code, len(rows), rng_calls[0]) == (0, 16, 0)
    code, rows, _ = run(tmp_path, "stability", "learn_drifting.json")
    assert (code, len(rows), rng_calls[0]) == (0, 12, 100)  # the samples, not 6 x 100


def test_stability_refuses_runs_over_the_budget(tmp_path, capsys, rng_calls):
    """learn_drifting's 6 uncertified records x 21846 samples exceed 2^17
    runs: exit 1 before any probe, with no CSV. Certified records count no
    run, so table1's 16 x 8193 samples pass."""
    code, rows, out = run(tmp_path, "stability", "learn_drifting.json", "--samples", "21846")
    assert (code, rows, out.exists(), rng_calls[0]) == (1, [], False, 0)
    assert capsys.readouterr().err == NOTE % (0, 4, 0) + (
        "netsce: error: probing 6 uncertified records with 21846 samples each needs "
        "131076 runs; limit is 131072\n"
    )
    code, rows, _ = run(tmp_path, "stability", "table1.json", "--samples", "8193")
    assert (code, len(rows), rng_calls[0]) == (0, 16, 0)


def test_stability_counts_huge_samples_exactly(tmp_path, capsys, rng_calls):
    """10^19 samples, past int64: a certified record returns and stays in
    all of them, exactly; a record that needs runs hits the budget."""
    huge = str(10**19)
    code, rows, _ = run(tmp_path, "stability", "table1.json", "--samples", huge)
    assert (code, len(rows), rng_calls[0]) == (0, 16, 0)
    assert {(r["return_fraction"], r["belief_stay_fraction"], r["nonconverged"])
            for r in rows} == {("1", "1", "0")}
    code, rows, out = run(tmp_path, "stability", "learn_drifting.json", "--samples", huge,
                          out="drift.csv")
    assert (code, rows, out.exists(), rng_calls[0]) == (1, [], False, 0)
    assert capsys.readouterr().err == NOTE % (0, 4, 0) + (
        f"netsce: error: probing 6 uncertified records with {huge} samples each needs "
        f"{6 * 10**19} runs; limit is 131072\n"
    )


def test_probe_budget_admits_the_shipped_workloads(tmp_path, monkeypatch, rng_calls):
    """The budget holds neg10 (2^10 records x 100 samples) and every shipped
    scenario even if no record certified; at the limit of uncertified
    records times samples a probe runs, one run past it none does."""
    from netsce import learning

    assert 1024 * 100 <= learning._MAX_PROBE_RUNS == 1 << 17
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scn = load_scenario(path)
        if scn.mode == "local":
            assert len(enumerate_sce(scn.game)[0]) * scn.samples <= learning._MAX_PROBE_RUNS
    monkeypatch.setattr(learning, "_MAX_PROBE_RUNS", 12)
    assert run(tmp_path, "stability", "table1.json", "--samples", "100")[0] == 0
    assert rng_calls[0] == 0
    assert run(tmp_path, "stability", "learn_drifting.json", "--samples", "2")[0] == 0
    assert rng_calls[0] == 2
    assert run(tmp_path, "stability", "learn_drifting.json", "--samples", "3")[0] == 1
    assert rng_calls[0] == 2


def test_stability_without_records_writes_header(tmp_path):
    path = tmp_path / "none.json"
    # a lone agent whose reply always exceeds its cap and who cannot justify
    # inactivity: no selfconfirming equilibrium
    path.write_text(json.dumps({"mode": "local", "n": 1, "alpha": 2.0, "a_max": 1.0,
                                "z": [[0.0]], "x_bounds": [-1.0, 5.0]}))
    out = tmp_path / "out.csv"
    assert main(["stability", "-i", str(path), "-o", str(out)]) == 0
    assert out.read_bytes() == _per_record_stability_csv(path)
    assert out.read_text().count("\n") == 1


# --------------------------------------------------------------- number rule


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324, 1e300, -1e300,
     1e-300, -1e-300, 0.1 + 0.2, 1e16, np.float32(0.1), np.float64(1 / 3),
     np.float64(-2.5e-7), np.float64(-0.0), np.float64("nan")],
)
def test_fmt_gives_floats_12_significant_digits(value):
    assert cli._fmt(value) == "{:.12g}".format(float(value))


@pytest.mark.parametrize(
    "value, text",
    [(True, "true"), (False, "false"), (np.bool_(True), "true"), (np.bool_(False), "false"),
     (0, "0"), (-7, "-7"), (10**20, str(10**20)), (np.int64(-3), "-3"),
     (np.int64(2**62 + 1), str(2**62 + 1))],
)
def test_fmt_keeps_bools_and_integers_off_the_float_branch(value, text):
    assert cli._fmt(value) == text


# --------------------------------------------------------- reference tables
# Each command's CSV rebuilt from library results, one row at a time, with
# "{:.12g}".format per number and a csv.writer of its own.

_g = "{:.12g}".format


def _agents(agents) -> str:
    return "|".join(str(i) for i in sorted(agents))


def _true(flag) -> str:
    return "true" if flag else "false"


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def _check_table(scn):
    def text(v):
        if isinstance(v, tuple):
            return "|".join(text(x) for x in v)
        if v is None:
            return "none"
        return _g(v) if isinstance(v, float) else str(v)

    rows = []
    for name in ASSUMPTIONS:
        rep = check_assumption(scn.game.net, name)
        parts = []
        for key, value in rep.witness.items():
            if key != "decomposition":
                parts.append(f"{key}={text(value)}")
            elif value.kind == "diagonal":
                parts += [f"gamma_min={_g(min(value.gamma))}", f"gamma_max={_g(max(value.gamma))}"]
        rows.append([rep.assumption, _true(rep.holds), ";".join(parts)])
    return _csv_bytes(["assumption", "holds", "witness"], rows), 0, None


def _equilibrium_table(solve):
    def table(scn):
        n = scn.n
        header = (["bitmask", "active_set", "kind", "declared_inactive"]
                  + [f"a_{i}" for i in range(n)] + [f"xhat_{i}" for i in range(n)])
        rows = [[rec.bitmask, _agents(rec.active_set), rec.kind, _agents(rec.declared_inactive)]
                + [_g(v) for v in rec.actions] + [_g(v) for v in rec.conjectures]
                for rec in solve(scn.game)[0]]
        return _csv_bytes(header, rows), 0, None

    return table


def _learn_table(scn):
    traj = run_learning(scn.game, scn.initial_conjectures, tol=scn.tol,
                        max_iter=scn.max_iter, window=scn.window)
    rows = [[t, i, _g(traj.conjectures[t, i]), _g(traj.actions[t, i]), _g(traj.payoffs[t, i])]
            for t in range(traj.steps) for i in range(scn.n)]
    summary = {
        "classification": traj.classification,
        "steps": traj.steps,
        "period": traj.period,
        "period_kind": traj.period_kind,
        "cycle_agents": list(traj.cycle_agents) if traj.cycle_agents else None,
        "final_conjectures": traj.conjectures[-1].tolist(),
        "clamp_events": len(traj.clamp_events),
        "cap_events": len(traj.cap_events),
    }
    if traj.limit is not None:
        summary["limit"] = {"actions": traj.limit.actions.tolist(),
                            "active_set": sorted(traj.limit.active_set),
                            "kind": traj.limit.kind, "is_sce": traj.limit_is_sce}
    code = 0 if traj.classification == "converged" else 2
    table = _csv_bytes(["t", "agent", "conjecture", "action", "payoff"], rows)
    return table, code, json.dumps(summary, indent=2) + "\n"


def _solve_cells(sol):
    return [_g(sol.residual), sol.iterations, sol.method, _true(sol.converged)]


def _global_sce_table(scn):
    g = scn.global_game()
    sol = solve_global_sce(g, tol=scn.tol, max_iter=scn.max_iter)
    rows = [[i, _g(g.c[i]), _g(sol.actions[i]), _g(sol.x_hat[i]), _g(sol.y_hat[i])]
            + _solve_cells(sol) for i in range(scn.n)]
    header = ["agent", "c", "action", "x_hat", "y_hat", "residual", "iterations", "method",
              "converged"]
    return _csv_bytes(header, rows), 0 if sol.converged else 2, None


def _phi_map_table(scn):
    n, m = scn.n, scn.samples
    grid = [(k / m) * scn.c for k in range(1, m + 1)]
    entries = phi_map(scn.game, scn.beta, grid, tol=scn.tol, max_iter=scn.max_iter)
    rows = [[k, _g(k / m)] + [_g(v) for v in e.c] + [_g(v) for v in e.solve.actions]
            + _solve_cells(e.solve) for k, e in enumerate(entries, start=1)]
    header = (["k", "t"] + [f"c_{i}" for i in range(n)] + [f"a_{i}" for i in range(n)]
              + ["residual", "iterations", "method", "converged"])
    code = 0 if all(e.solve.converged for e in entries) else 2
    return _csv_bytes(header, rows), code, None


REFERENCE_TABLES = {
    "check": _check_table,
    "ne": _equilibrium_table(solve_full_ne),
    "sce": _equilibrium_table(enumerate_sce),
    "learn": _learn_table,
    "global-sce": _global_sce_table,
    "phi-map": _phi_map_table,
}


def _edited(scenario, **edit):
    def write(tmp_path):
        path = tmp_path / f"edited-{scenario}"
        path.write_text(json.dumps({**json.loads((SCENARIO_DIR / scenario).read_text()), **edit}))
        return path
    return write


def _local(name, n, z, **keys):
    def write(tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"mode": "local", "n": n, "z": z, **keys}))
        return path
    return write


# Scenario files beyond the shipped ones: the capped signed game; a game
# whose every positive support presses the cap, so ne yields no record; a
# weight matrix with a diagonal symmetrizing decomposition (check's gamma
# fields); learn and the global solver stopped by max_iter (exit 2).
EXTRA_SCENARIOS = {
    "capped": _capped_signed_scenario,
    "no-ne": _local("no-ne", 2, [[0.0, 0.0], [0.0, 0.0]], alpha=0.1, a_max=1e-9),
    "diagonal": _local("diagonal", 3, [[0.0, 0.1, 0.1], [0.2, 0.0, 0.2], [0.3, 0.3, 0.0]],
                       alpha=0.1),
    "learn-max-iter": _edited("learn_contracting.json", max_iter=10),
    "global-max-iter": _edited("global_line.json", max_iter=2),
}
_LOCAL = ["table1.json", "table2.json", "table3.json", "learn_contracting.json",
          "learn_drifting.json", "capped", "no-ne", "diagonal"]
_GLOBAL = ["global_line.json", "global_complete.json"]
REFERENCE_CASES = (
    [("check", s) for s in _LOCAL + _GLOBAL]
    + [(c, s) for c in ("ne", "sce") for s in _LOCAL]
    + [("learn", s) for s in _LOCAL + ["learn-max-iter"]]
    + [(c, s) for c in ("global-sce", "phi-map") for s in _GLOBAL + ["global-max-iter"]]
)


@pytest.mark.parametrize("command, scenario", REFERENCE_CASES)
def test_csv_matches_reference_table(tmp_path, capsys, command, scenario):
    """The CSV on stdout and in ``-o``, the exit code and learn's summary
    equal the table rebuilt from library results."""
    path = (EXTRA_SCENARIOS[scenario](tmp_path) if scenario in EXTRA_SCENARIOS
            else SCENARIO_DIR / scenario)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapBindingWarning)
        table, code, summary = REFERENCE_TABLES[command](load_scenario(path))
        assert main([command, "-i", str(path), "-o", str(out)]) == code
        capsys.readouterr()
        assert main([command, "-i", str(path)]) == code
    stdout, stderr = capsys.readouterr()
    assert out.read_bytes() == table
    assert stdout.encode() == table
    if summary is not None:
        assert (tmp_path / "out.csv.summary.json").read_text() == summary
        assert stderr == summary
    if scenario == "no-ne" and command == "ne":
        assert table.count(b"\n") == 1
    if scenario == "diagonal" and command == "check":
        assert b";gamma_min=" in table
    if scenario.endswith("max-iter"):  # a run stopped short still writes its table
        assert code == 2 and table.count(b"\n") > 1


# ---------------------------------------------------------- dropped supports

NOTE = "netsce: note: supports without a record: %d continuum, %d inconsistent, %d cap-bound\n"


@pytest.mark.parametrize("command", ["ne", "sce", "stability"])
def test_singular_supports_get_one_note(capsys, command):
    """learn_drifting has four inconsistent supports: one note on stderr,
    and the same exit code and CSV as without it."""
    argv = [command, "-i", str(SCENARIO_DIR / "learn_drifting.json")]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == NOTE % (0, 4, 0)
    assert out.startswith("bitmask,active_set,kind,")


def test_cap_bound_supports_get_one_note(tmp_path, capsys):
    """Every positive support presses a cap of 1e-9: no Nash equilibrium,
    three cap-bound supports, exit 0 and a header-only CSV."""
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({"mode": "local", "n": 2, "alpha": 0.1, "a_max": 1e-9,
                                "z": [[0.0, 0.0], [0.0, 0.0]]}))
    assert main(["ne", "-i", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 1
    assert err == NOTE % (0, 0, 3)


@pytest.mark.parametrize("command", ["ne", "sce"])
def test_no_note_when_nothing_is_dropped(capsys, command):
    assert main([command, "-i", str(SCENARIO_DIR / "table1.json")]) == 0
    assert capsys.readouterr().err == ""


# ------------------------------------------------------------ unsolved points

UNSOLVED = "netsce: note: unsolved points: %d with no rest point, %d undetermined\n"


def _hot_corner_scenario(tmp_path):
    """A 4-agent hot corner: Newton fails at t >= 3/4 of its ray of
    centralities, where the certificate proves that no rest point exists."""
    g = _hot_corner_game(np.random.default_rng(1))
    raw = {"mode": "global", "n": g.n, "z": g.base.net.z.tolist(),
           "alpha": float(g.base.alpha[0]), "a_max": 50.0, "beta": g.beta,
           "c": g.c.tolist(), "samples": 4}
    path = tmp_path / "hot.json"
    path.write_text(emit_scenario(parse_scenario(raw)))
    return path


@pytest.mark.parametrize(
    "command, scenario, counts",
    [
        ("global-sce", "hot", (1, 0)),
        ("phi-map", "hot", (2, 0)),
        ("global-sce", "global-max-iter", (0, 1)),
        ("global-sce", "global_line.json", (0, 0)),
        ("phi-map", "global_complete.json", (0, 0)),
    ],
)
def test_unsolved_points_get_one_note(tmp_path, capsys, command, scenario, counts):
    """One stderr note counts the points without a converged rest point by
    verdict; the CSV and exit code are those of the library's solves."""
    path = (_hot_corner_scenario(tmp_path) if scenario == "hot"
            else EXTRA_SCENARIOS[scenario](tmp_path) if scenario in EXTRA_SCENARIOS
            else SCENARIO_DIR / scenario)
    table, code, _ = REFERENCE_TABLES[command](load_scenario(path))
    assert main([command, "-i", str(path)]) == code
    out, err = capsys.readouterr()
    assert out.encode() == table
    assert err == (UNSOLVED % counts if any(counts) else "")
    assert code == (2 if any(counts) else 0)


# ------------------------------------------------------------- global & maps


def test_global_sce_fixed_point(tmp_path):
    code, rows, _ = run(tmp_path, "global-sce", "global_complete.json")
    assert code == 0
    assert len(rows) == 3
    for r in rows:
        assert float(r["action"]) == pytest.approx(1 / 6, abs=1e-9)
        assert float(r["x_hat"]) == pytest.approx(1 / 15, abs=1e-9)
        assert r["converged"] == "true"
        assert float(r["residual"]) < 1e-10


def test_phi_map_grid(tmp_path):
    code, rows, _ = run(tmp_path, "phi-map", "global_line.json", "--samples", "5")
    assert code == 0
    assert len(rows) == 5
    assert [r["t"] for r in rows] == ["0.2", "0.4", "0.6", "0.8", "1"]
    assert all(r["converged"] == "true" for r in rows)
    assert float(rows[-1]["c_0"]) == pytest.approx(0.2)
    a0 = [float(r["a_0"]) for r in rows]
    assert a0 == sorted(a0)  # actions grow along the ray of centralities
    assert a0[0] > 0.1  # and sit above the intercept


# --------------------------------------------------------------- determinism


def test_identical_runs_identical_bytes(tmp_path):
    _, _, first = run(tmp_path, "stability", "table1.json", "--samples", "3", out="a.csv")
    _, _, second = run(tmp_path, "stability", "table1.json", "--samples", "3", out="b.csv")
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "netsce", "ne",
         "-i", str(SCENARIO_DIR / "table1.json"), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    inproc = tmp_path / "inproc.csv"
    assert main(["ne", "-i", str(SCENARIO_DIR / "table1.json"), "-o", str(inproc)]) == 0
    assert out.read_bytes() == inproc.read_bytes()


# ---------------------------------------------------------- non-finite input


def _set(key, value):
    def edit(obj):
        obj[key] = value

    return edit


def _set_z01(value):
    def edit(obj):
        obj["z"][0][1] = value

    return edit


BIG = 10**400  # a 401-digit integer, beyond the float range


@pytest.mark.parametrize(
    "command, scenario, edit, flags",
    [
        ("global-sce", "global_line.json", _set("tol", float("inf")), []),
        ("global-sce", "global_line.json", None, ["--tol", "inf"]),
        ("learn", "learn_contracting.json", None, ["--tol", "inf"]),
        ("learn", "learn_contracting.json", None, ["--tol", "nan"]),
        ("global-sce", "global_line.json", _set("tol", BIG), []),
        ("sce", "table1.json", _set_z01(BIG), []),
    ],
    ids=["file-tol-inf", "flag-tol-inf", "learn-tol-inf", "learn-tol-nan",
         "file-tol-huge-int", "file-z-huge-int"],
)
def test_non_finite_numbers_exit_one(tmp_path, capsys, command, scenario, edit, flags):
    path = SCENARIO_DIR / scenario
    if edit is not None:
        obj = json.loads(path.read_text())
        edit(obj)
        path = tmp_path / scenario
        path.write_text(json.dumps(obj))
    assert main([command, "-i", str(path), "-o", str(tmp_path / "out.csv"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netsce: error:") and "finite" in err
