"""Command-line driver.

    netsce <command> --input scenario.json [--output out.csv] [options]

Commands
--------
check       structural tests of the weight matrix
ne          Nash equilibria of the scenario's game
sce         all selfconfirming equilibria
learn       run the conjecture dynamics from the scenario's initial beliefs
stability   spectral test plus Monte-Carlo return probe per equilibrium
global-sce  rest point of the split-belief dynamics (global mode)
phi-map     sweep the centrality-to-action map along t * c, t in (0, 1]

``stability`` probes every record with the same samples, seed and tol.
Each sample's perturbation is drawn once and added to every record's
witnesses. The probe takes the samples 128 at a time and runs their
(record, sample) rows record by record, in blocks of at most 128 rows.
It refuses, with exit 1 and before any probe, more than 131 072 runs
(records times samples). It checks max_iter (from the file or
--max-iter) but does not use it: each probe run stops after at most
20 000 periods. A cap warning on stderr covers one period of one probe
block, whose rows may belong to several records.

``ne``, ``sce`` and ``stability`` count on stderr, in one ``netsce: note:``
line, the supports that yield no record: singular (continuum or
inconsistent) or cap-bound. The note changes neither CSV nor exit code.

Exit codes: 0 success; 1 usage error (bad flags, malformed scenario, wrong
mode); 2 numeric failure (divergence, max-iter, non-convergence) — partial
diagnostics are still written in that case.

All numbers in CSV output carry 12 significant digits; equilibrium rows are
sorted by active-set bitmask (bit i = agent i active).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

import numpy as np

from .equilibrium import enumerate_sce, solve_full_ne
from .errors import NumericError, UsageError
from .global_ext import phi_map, solve_global_sce
from .learning import _analytic, _probe, run_learning
# The stability command tests and probes all records through _analytic and
# _probe; perfbench's span tracer still wraps analytic_stability and
# probe_stability under this module's names.
from .learning import analytic_stability, probe_stability  # noqa: F401
from .network import ASSUMPTIONS, check_assumption
from .scenario import Scenario, load_scenario, normalize_scenario, parse_scenario

__all__ = ["main"]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def _write_csv(path: Optional[str], header, rows):
    rendered = [[_fmt(v) for v in row] for row in rows]
    out = nullcontext(sys.stdout) if path is None else _open_output(path)
    with out as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rendered)


def _agents_str(agents) -> str:
    return "|".join(str(i) for i in sorted(agents))


def _witness_str(witness: dict) -> str:
    parts = []
    for key, value in witness.items():
        if key == "decomposition":
            dec = value
            if dec.kind == "diagonal":
                g = np.asarray(dec.gamma)
                parts.append(f"gamma_min={g.min():.12g}")
                parts.append(f"gamma_max={g.max():.12g}")
            continue
        if isinstance(value, tuple):
            parts.append(f"{key}=" + "|".join(_fmt(v) for v in value))
        elif value is None:
            parts.append(f"{key}=none")
        else:
            parts.append(f"{key}={_fmt(value)}")
    return ";".join(parts)


def _equilibrium_rows(records, n):
    for rec in records:
        yield (
            [rec.bitmask, _agents_str(rec.active_set), rec.kind,
             _agents_str(rec.declared_inactive)]
            + [rec.actions[i] for i in range(n)]
            + [rec.conjectures[i] for i in range(n)]
        )


def _equilibrium_header(n):
    return (
        ["bitmask", "active_set", "kind", "declared_inactive"]
        + [f"a_{i}" for i in range(n)]
        + [f"xhat_{i}" for i in range(n)]
    )


def _solved(solve, spec):
    """Records of ``solve``, with one stderr note counting the singular and
    cap-bound supports that yield none."""
    records, diags = solve(spec)
    singular = [why for _, why in diags.singular]
    counts = (singular.count("continuum"), singular.count("inconsistent"), len(diags.cap_hits))
    if any(counts):
        note = "supports without a record: %d continuum, %d inconsistent, %d cap-bound"
        print("netsce: note: " + note % counts, file=sys.stderr)
    return records


def _cmd_check(scn: Scenario, args) -> int:
    rows = []
    for name in ASSUMPTIONS:
        rep = check_assumption(scn.game.net, name)
        rows.append([rep.assumption, rep.holds, _witness_str(rep.witness)])
    _write_csv(args.output, ["assumption", "holds", "witness"], rows)
    return 0


def _cmd_equilibria(scn: Scenario, args) -> int:
    solve = solve_full_ne if args.command == "ne" else enumerate_sce
    records = _solved(solve, scn.game)
    _write_csv(args.output, _equilibrium_header(scn.n), _equilibrium_rows(records, scn.n))
    return 0


def _cmd_learn(scn: Scenario, args) -> int:
    traj = run_learning(
        scn.game,
        scn.initial_conjectures,
        tol=scn.tol,
        max_iter=scn.max_iter,
        window=scn.window,
    )
    rows = []
    for t in range(traj.steps):
        for i in range(scn.n):
            rows.append(
                [t, i, traj.conjectures[t, i], traj.actions[t, i], traj.payoffs[t, i]]
            )
    _write_csv(args.output, ["t", "agent", "conjecture", "action", "payoff"], rows)

    summary = {
        "classification": traj.classification,
        "steps": traj.steps,
        "period": traj.period,
        "period_kind": traj.period_kind,
        "cycle_agents": list(traj.cycle_agents) if traj.cycle_agents else None,
        "final_conjectures": [float(v) for v in traj.conjectures[-1]],
        "clamp_events": len(traj.clamp_events),
        "cap_events": len(traj.cap_events),
    }
    if traj.limit is not None:
        summary["limit"] = {
            "actions": [float(v) for v in traj.limit.actions],
            "active_set": sorted(traj.limit.active_set),
            "kind": traj.limit.kind,
            "is_sce": traj.limit_is_sce,
        }
    text = json.dumps(summary, indent=2) + "\n"
    if args.output is None:
        sys.stderr.write(text)
    else:
        with _open_output(args.output + ".summary.json") as fh:
            fh.write(text)
    return 0 if traj.classification == "converged" else 2


def _cmd_stability(scn: Scenario, args) -> int:
    records = _solved(enumerate_sce, scn.game)
    probes = _probe(scn.game, records, scn.epsilon, scn.samples, scn.seed, scn.tol, 20_000)
    rows = []
    for rec, ana, emp in zip(records, _analytic(scn.game, records), probes):
        rows.append(
            [
                rec.bitmask,
                _agents_str(rec.active_set),
                rec.kind,
                ana.verdict,
                ana.rho_active,
                "" if ana.margin is None else ana.margin,
                emp.return_fraction,
                emp.belief_stay_fraction,
                emp.nonconverged,
            ]
        )
    _write_csv(
        args.output,
        [
            "bitmask",
            "active_set",
            "kind",
            "verdict",
            "rho_active",
            "margin",
            "return_fraction",
            "belief_stay_fraction",
            "nonconverged",
        ],
        rows,
    )
    return 0


def _cmd_global_sce(scn: Scenario, args) -> int:
    g = scn.global_game()
    sol = solve_global_sce(g, tol=scn.tol, max_iter=scn.max_iter)
    rows = [
        [
            i,
            g.c[i],
            sol.actions[i],
            sol.x_hat[i],
            sol.y_hat[i],
            sol.residual,
            sol.iterations,
            sol.method,
            sol.converged,
        ]
        for i in range(scn.n)
    ]
    _write_csv(
        args.output,
        ["agent", "c", "action", "x_hat", "y_hat", "residual", "iterations", "method", "converged"],
        rows,
    )
    return 0 if sol.converged else 2


def _cmd_phi_map(scn: Scenario, args) -> int:
    m = scn.samples
    grid = [(k / m) * scn.c for k in range(1, m + 1)]
    entries = phi_map(scn.game, scn.beta, grid, tol=scn.tol, max_iter=scn.max_iter)
    n = scn.n
    rows = []
    all_ok = True
    for k, entry in enumerate(entries, start=1):
        sol = entry.solve
        all_ok &= sol.converged
        rows.append(
            [k, k / m]
            + [entry.c[i] for i in range(n)]
            + [sol.actions[i] for i in range(n)]
            + [sol.residual, sol.iterations, sol.method, sol.converged]
        )
    _write_csv(
        args.output,
        ["k", "t"]
        + [f"c_{i}" for i in range(n)]
        + [f"a_{i}" for i in range(n)]
        + ["residual", "iterations", "method", "converged"],
        rows,
    )
    return 0 if all_ok else 2


# name: (handler, scenario mode it requires or None for either, help text)
_COMMANDS = {
    "check": (_cmd_check, None, "test structural assumptions of the weight matrix"),
    "ne": (_cmd_equilibria, "local", "compute Nash equilibria"),
    "sce": (_cmd_equilibria, "local", "enumerate selfconfirming equilibria"),
    "learn": (_cmd_learn, "local", "run the conjecture dynamics"),
    "stability": (_cmd_stability, "local", "stability tests for every equilibrium"),
    "global-sce": (_cmd_global_sce, "global", "solve the global-spillover rest point"),
    "phi-map": (_cmd_phi_map, "global", "sweep the centrality-to-action map"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems are exit 1 here.
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args leaves it
    as it was."""
    parser = _Parser(prog="netsce", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", "-i", required=True, help="scenario JSON file")
        p.add_argument("--output", "-o", default=None, help="output CSV file (default stdout)")
        p.add_argument("--tol", type=float, default=None, help="override scenario tol")
        p.add_argument("--max-iter", type=int, default=None, help="override scenario max_iter")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--epsilon", type=float, default=None, help="override probe epsilon")
        p.add_argument("--samples", type=int, default=None, help="override sample count")
    return parser


def _apply_overrides(scn: Scenario, args) -> Scenario:
    """Overlay the knob flags on the scenario's normal form and parse it again,
    so flags pass the same checks as the file's keys."""
    keys = ("tol", "max_iter", "seed", "epsilon", "samples")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    return parse_scenario({**normalize_scenario(scn), **flags}) if flags else scn


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        handler, mode, _ = _COMMANDS[args.command]
        scn = load_scenario(args.input)
        if mode is not None and scn.mode != mode:
            raise UsageError(f"{args.command} requires a {mode}-mode scenario")
        return handler(_apply_overrides(scn, args), args)
    except UsageError as exc:
        print(f"netsce: error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"netsce: numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
