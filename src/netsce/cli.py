"""Command-line driver.

    netsce <command> --input scenario.json [--output out.csv] [overrides]

Commands, with the override flags each takes
--------------------------------------------
check       structural tests of the weight matrix
ne          Nash equilibria of the scenario's game
sce         all selfconfirming equilibria
learn       conjecture dynamics from the initial beliefs [--tol --max-iter]
stability   spectral test and Monte-Carlo return probe per equilibrium
            [--tol --seed --epsilon --samples]
global-sce  rest point of the split-belief dynamics [--tol --max-iter]
phi-map     rest points along t * c, t in (0, 1] [--tol --max-iter --samples]

An override replaces the scenario key of the same name and passes the same
checks. Any other override flag is a usage error.

``stability`` probes every record with the same samples, seed and tol,
each run for at most ``learning.PROBE_MAX_ITER`` (20 000) periods; a record
whose every start a contraction bound proves to return counts as returned
and stayed, with no draw or run. It refuses, with exit 1 and before any
probe, more than 131 072 runs (uncertified records times samples).

``learn`` and ``stability`` print each distinct cap warning once, as one
``netsce: warning:`` line on stderr. For ``stability`` a warning covers
one period of one probe block, whose rows may belong to several records.

``ne``, ``sce`` and ``stability`` count on stderr, in one ``netsce: note:``
line, the supports that yield no record: singular (continuum or
inconsistent) or cap-bound. ``global-sce`` and ``phi-map`` count, in one
such line, the points where the solver proved that no rest point exists
and those it left undetermined; the line is printed only when a count is
not zero. The notes change neither CSV nor exit code.

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
import warnings
from contextlib import nullcontext
from typing import Optional, Sequence

import numpy as np

from .equilibrium import enumerate_sce, solve_full_ne
from .errors import CapBindingWarning, NumericError, UsageError
from .global_ext import phi_map, solve_global_sce
from .learning import PROBE_MAX_ITER, _analytic, _probe, run_learning
# The stability command tests and probes all records through _analytic and
# _probe; perfbench's span tracer still wraps analytic_stability and
# probe_stability under this module's names.
from .learning import analytic_stability, probe_stability  # noqa: F401
from .network import ASSUMPTIONS, check_assumption
from .scenario import _DEFAULTS, Scenario, load_scenario, normalize_scenario, parse_scenario

__all__ = ["main"]


def _fmt(v) -> str:
    """The one number rule: floats to 12 significant digits, bools as
    true/false, integers in full."""
    if isinstance(v, (float, np.floating)):
        return "%.12g" % v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def _write_csv(path: Optional[str], columns):
    """Write (name, values) columns in order, each formatted in one pass. A
    (rows, n) array is the n columns name_0 ... name_{n-1}."""
    names, cells = [], []
    for name, values in columns:
        if isinstance(values, np.ndarray) and values.ndim == 2:
            names += [f"{name}_{i}" for i in range(values.shape[1])]
            cells += values.T.tolist()
        else:
            names.append(name)
            cells.append(values.tolist() if isinstance(values, np.ndarray) else values)
    out = nullcontext(sys.stdout) if path is None else _open_output(path)
    with out as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        w.writerows(zip(*[map(_fmt, col) for col in cells]))


def _agents_str(agents) -> str:
    return "|".join(str(i) for i in sorted(agents))


def _witness_str(witness: dict) -> str:
    parts = []
    for key, value in witness.items():
        if key == "decomposition":
            if value.kind == "diagonal":
                parts.append(f"gamma_min={_fmt(value.gamma.min())}")
                parts.append(f"gamma_max={_fmt(value.gamma.max())}")
        elif isinstance(value, tuple):
            parts.append(f"{key}=" + "|".join(_fmt(v) for v in value))
        elif value is None:
            parts.append(f"{key}=none")
        else:
            parts.append(f"{key}={_fmt(value)}")
    return ";".join(parts)


def _record_columns(records):
    """The columns ne, sce and stability open with."""
    return [
        ("bitmask", [rec.bitmask for rec in records]),
        ("active_set", [_agents_str(rec.active_set) for rec in records]),
        ("kind", [rec.kind for rec in records]),
    ]


def _solve_columns(sols):
    """The columns global-sce and phi-map close with, one solve per row."""
    return [
        ("residual", [sol.residual for sol in sols]),
        ("iterations", [sol.iterations for sol in sols]),
        ("method", [sol.method for sol in sols]),
        ("converged", [sol.converged for sol in sols]),
    ]


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


def _note_unsolved(sols):
    """One stderr note counting the rest-point solves that proved no rest
    point exists and those left undetermined, if any."""
    verdicts = [sol.verdict for sol in sols]
    counts = (verdicts.count("no_rest_point"), verdicts.count("undetermined"))
    if any(counts):
        note = "unsolved points: %d with no rest point, %d undetermined"
        print("netsce: note: " + note % counts, file=sys.stderr)


def _cmd_check(scn: Scenario, args) -> int:
    reports = [check_assumption(scn.game.net, name) for name in ASSUMPTIONS]
    _write_csv(args.output, [
        ("assumption", [rep.assumption for rep in reports]),
        ("holds", [rep.holds for rep in reports]),
        ("witness", [_witness_str(rep.witness) for rep in reports]),
    ])
    return 0


def _cmd_equilibria(scn: Scenario, args) -> int:
    solve = solve_full_ne if args.command == "ne" else enumerate_sce
    records = _solved(solve, scn.game)
    _write_csv(args.output, _record_columns(records) + [
        ("declared_inactive", [_agents_str(rec.declared_inactive) for rec in records]),
        ("a", np.reshape([rec.actions for rec in records], (-1, scn.n))),
        ("xhat", np.reshape([rec.conjectures for rec in records], (-1, scn.n))),
    ])
    return 0


def _cmd_learn(scn: Scenario, args) -> int:
    traj = run_learning(
        scn.game,
        scn.initial_conjectures,
        tol=scn.tol,
        max_iter=scn.max_iter,
        window=scn.window,
    )
    steps, n = traj.steps, scn.n
    _write_csv(args.output, [
        ("t", np.repeat(np.arange(steps), n)),
        ("agent", np.tile(np.arange(n), steps)),
        ("conjecture", traj.conjectures[:steps].ravel()),
        ("action", traj.actions[:steps].ravel()),
        ("payoff", traj.payoffs[:steps].ravel()),
    ])

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
    probes = _probe(scn.game, records, scn.epsilon, scn.samples, scn.seed, scn.tol, PROBE_MAX_ITER)
    analytic = _analytic(scn.game, records)
    _write_csv(args.output, _record_columns(records) + [
        ("verdict", [ana.verdict for ana in analytic]),
        ("rho_active", [ana.rho_active for ana in analytic]),
        ("margin", ["" if ana.margin is None else ana.margin for ana in analytic]),
        ("return_fraction", [emp.return_fraction for emp in probes]),
        ("belief_stay_fraction", [emp.belief_stay_fraction for emp in probes]),
        ("nonconverged", [emp.nonconverged for emp in probes]),
    ])
    return 0


def _cmd_global_sce(scn: Scenario, args) -> int:
    g = scn.global_game()
    sol = solve_global_sce(g, tol=scn.tol, max_iter=scn.max_iter)
    _note_unsolved([sol])
    _write_csv(args.output, [
        ("agent", range(scn.n)),
        ("c", g.c),
        ("action", sol.actions),
        ("x_hat", sol.x_hat),
        ("y_hat", sol.y_hat),
    ] + _solve_columns([sol] * scn.n))
    return 0 if sol.converged else 2


def _cmd_phi_map(scn: Scenario, args) -> int:
    m, n = scn.samples, scn.n
    ts = [k / m for k in range(1, m + 1)]
    entries = phi_map(scn.game, scn.beta, [t * scn.c for t in ts], tol=scn.tol,
                      max_iter=scn.max_iter)
    sols = [entry.solve for entry in entries]
    _note_unsolved(sols)
    _write_csv(args.output, [
        ("k", range(1, m + 1)),
        ("t", ts),
        ("c", np.reshape([entry.c for entry in entries], (m, n))),
        ("a", np.reshape([sol.actions for sol in sols], (m, n))),
    ] + _solve_columns(sols))
    return 0 if all(sol.converged for sol in sols) else 2


# name: (handler, scenario mode it requires or None for either, scenario
# keys it reads that a flag may override, help text)
_COMMANDS = {
    "check": (_cmd_check, None, (), "test structural assumptions of the weight matrix"),
    "ne": (_cmd_equilibria, "local", (), "compute Nash equilibria"),
    "sce": (_cmd_equilibria, "local", (), "enumerate selfconfirming equilibria"),
    "learn": (_cmd_learn, "local", ("tol", "max_iter"), "run the conjecture dynamics"),
    "stability": (_cmd_stability, "local", ("tol", "seed", "epsilon", "samples"),
                  "stability tests for every equilibrium"),
    "global-sce": (_cmd_global_sce, "global", ("tol", "max_iter"),
                   "solve the global-spillover rest point"),
    "phi-map": (_cmd_phi_map, "global", ("tol", "max_iter", "samples"),
                "sweep the centrality-to-action map"),
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
    for name, (_, _, keys, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", "-i", required=True, help="scenario JSON file")
        p.add_argument("--output", "-o", default=None, help="output CSV file (default stdout)")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), type=type(_DEFAULTS[key]),
                           help=f"override scenario {key}")
    return parser


def _apply_overrides(scn: Scenario, args, keys) -> Scenario:
    """Overlay the command's override flags on the scenario's normal form and
    parse it again, so flags pass the same checks as the file's keys."""
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    return parse_scenario({**normalize_scenario(scn), **flags}) if flags else scn


def _cap_warning_lines(show):
    """A ``warnings.showwarning`` that prints each distinct cap warning once,
    as one ``netsce: warning:`` line, and hands any other warning to
    ``show``."""
    printed = set()

    def showwarning(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, CapBindingWarning):
            show(message, category, filename, lineno, file, line)
        elif str(message) not in printed:
            printed.add(str(message))
            print(f"netsce: warning: {message}", file=sys.stderr)

    return showwarning


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    # Each call starts from the caller's warning filters with an empty
    # once-per-message registry, as a new process would.
    with warnings.catch_warnings():
        warnings.showwarning = _cap_warning_lines(warnings.showwarning)
        try:
            args = parser.parse_args(argv)
            if args.command is None:
                parser.print_usage(sys.stderr)
                return 1
            handler, mode, keys, _ = _COMMANDS[args.command]
            scn = load_scenario(args.input)
            if mode is not None and scn.mode != mode:
                raise UsageError(f"{args.command} requires a {mode}-mode scenario")
            return handler(_apply_overrides(scn, args, keys), args)
        except UsageError as exc:
            print(f"netsce: error: {exc}", file=sys.stderr)
            return 1
        except NumericError as exc:
            print(f"netsce: numeric failure: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
