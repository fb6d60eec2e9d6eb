"""End-to-end command-line runs against the bundled scenarios."""

import csv
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from netsce import (
    CapBindingWarning,
    analytic_stability,
    enumerate_sce,
    load_scenario,
    probe_stability,
)
from netsce.cli import _COMMANDS, _build_parser, main

from conftest import CAPPED4, SCENARIO_DIR, SIGNED4


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
    assert main(["sce", "-i", scn, "--tol", "-1"]) == 1
    assert main(["stability", "-i", scn, "--samples", "0"]) == 1
    assert main(["stability", "-i", scn, "--seed", "-3"]) == 1
    assert main(["learn", "-i", scn, "--max-iter", "0"]) == 1
    assert main(["sce", "-i", scn, "--format", "json"]) == 1  # no --format flag: output is csv


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


def test_stability_checks_max_iter_but_does_not_use_it(tmp_path):
    _, _, default = run(tmp_path, "stability", "table2.json", "--samples", "5", out="a.csv")
    _, _, short = run(tmp_path, "stability", "table2.json", "--samples", "5",
                      "--max-iter", "1", out="b.csv")
    assert short.read_bytes() == default.read_bytes()
    assert main(["stability", "-i", str(SCENARIO_DIR / "table2.json"), "--max-iter", "0"]) == 1


def test_stability_draws_each_sample_once(tmp_path, rng_calls):
    code, rows, _ = run(tmp_path, "stability", "table1.json")
    assert code == 0 and len(rows) == 16
    assert rng_calls[0] == 100  # the scenario's samples, not 16 records x 100


def test_stability_refuses_runs_over_the_budget(tmp_path, capsys, rng_calls):
    """16 records x 8193 samples exceed 2^17 runs: exit 1 before any probe,
    with no CSV."""
    code, rows, out = run(tmp_path, "stability", "table1.json", "--samples", "8193")
    assert (code, rows, out.exists(), rng_calls[0]) == (1, [], False, 0)
    assert capsys.readouterr().err == (
        "netsce: error: probing 16 records with 8193 samples each needs 131088 runs; "
        "limit is 131072\n"
    )


def test_probe_budget_admits_the_shipped_workloads(tmp_path, monkeypatch, rng_calls):
    """The budget holds neg10 (2^10 records x 100 samples) and every shipped
    scenario; at the limit a probe runs, one run past it none does."""
    from netsce import learning

    assert 1024 * 100 <= learning._MAX_PROBE_RUNS == 1 << 17
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scn = load_scenario(path)
        if scn.mode == "local":
            assert len(enumerate_sce(scn.game)[0]) * scn.samples <= learning._MAX_PROBE_RUNS
    monkeypatch.setattr(learning, "_MAX_PROBE_RUNS", 32)
    assert run(tmp_path, "stability", "table1.json", "--samples", "2")[0] == 0
    assert rng_calls[0] == 2
    assert run(tmp_path, "stability", "table1.json", "--samples", "3")[0] == 1
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
