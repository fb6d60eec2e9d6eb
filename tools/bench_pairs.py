"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload enumerate:10 \\
        --workload learn:5 --seed 3001 --seconds 20 --out BENCH_27.json --about "..."

PARENT_DIR and CHANGE_DIR are two checkouts (for example two ``git archive``
trees). Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once from the root of each checkout: the parent
first on even pair indexes, the change first on odd ones. The pairs of one
workload take consecutive seeds, and each workload continues where the
previous one stopped, so no seed is measured twice. Every run's last stdout
line, the JSON result, is kept with its per-family latency lines. Both
sides compile their sources afresh in every run: no bytecode cache is read
or written, so a ``__pycache__`` left in one checkout cannot make its
set-up faster or its peak RSS lower.

With ``--traced SEED``, the pairs are followed by one ``--trace 1`` run per
side and workload at SEED, the parent first on even workload indexes, for
the per-layer metrics.

The output file holds ``about``, ``machine`` (the first run's env line),
``runs`` and ``summary``: per workload and end-to-end metric, each side's
median and quartiles, the parent's IQR, the change's relative difference,
the pairs it won and a ``verdict``, with failed-op counts and whether
every run was correct. With ``--traced`` it also holds ``traced``: the
seed, the traced runs and, per workload and per-layer metric, each side's
value and the change's relative difference. Metric names, directions and
the bounds the verdicts read come from the change's ``BENCHMARK.json``.
Nothing in either checkout is written but run.py's ``.bench_work``
working directory, which holds its span files.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
FAMILY = re.compile(r"  \S+: \d+ ops, median ")  # run.py's per-family latency lines


def pair_order(pair: int):
    """The sides of pair ``pair`` in run order: parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def parse_output(stdout: str):
    """(families, result) of one run.py stdout: the per-family latency lines
    joined, and the last line's JSON object, or None when there is none."""
    lines = stdout.strip().splitlines()
    families = "".join(f"{line};" for line in lines if FAMILY.match(line))
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return families, result if isinstance(result, dict) else None


def _quartiles(values):
    """(q1, median, q3) with linear interpolation (NumPy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


#: Share of the pairs a side must win for a "better" or "worse" verdict,
#: and the fewest pairs that verdict needs (choosing-metrics, section 8).
WIN_SHARE = 0.9
MIN_PAIRS = 10


def verdict(parent, change, sign, bound=None) -> str:
    """"better", "worse" or "unresolved" for one metric's paired values,
    ``sign`` 1 when higher is better and -1 when lower is.

    "better" when at least MIN_PAIRS pairs ran, the change wins at least
    WIN_SHARE of them (ties count for neither side) and its median beats
    the parent's by more than the parent's IQR; "worse" by the same rule
    the other way, or, at any number of pairs, when the change's median is
    beyond ``bound``, a relative change from the parent's median in the bad
    direction; else "unresolved"."""
    (p1, pm, p3), (_, cm, _) = _quartiles(parent), _quartiles(change)
    gain = [sign * (c - p) for p, c in zip(parent, change)]
    need = WIN_SHARE * len(gain) if len(gain) >= MIN_PAIRS else float("inf")
    gap = sign * (cm - pm)
    if sum(g > 0 for g in gain) >= need and gap > p3 - p1:
        return "better"
    past_bound = bound is not None and pm and -gap > bound * abs(pm)
    if past_bound or (sum(g < 0 for g in gain) >= need and -gap > p3 - p1):
        return "worse"
    return "unresolved"


def summarize(runs, better, bounds=None) -> dict:
    """Per workload, in order of first appearance: for each metric of
    ``better`` (name -> "lower" | "higher", in report order) the medians and
    quartiles of both sides, the parent's IQR, the change's relative
    difference, the pairs it won and its ``verdict`` (with the metric's
    relative bound from ``bounds``, name -> bound, when given), over the
    pairs in which both runs produced a result; then failed ops per side
    and whether every run of the workload was correct. Values are rounded
    to 4 decimals."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [p for _, p in sorted(pairs.items()) if all(p.get(s) for s in SIDES)]
        row = {}
        for name, direction in better.items() if complete else ():
            vals = {s: [p[s]["metrics"][name]["value"] for p in complete] for s in SIDES}
            (p1, pm, p3), (c1, cm, c3) = (_quartiles(vals[s]) for s in SIDES)
            sign = 1 if direction == "higher" else -1
            row[name] = {
                "parent_median": round(pm, 4),
                "change_median": round(cm, 4),
                "change_vs_parent": round(cm / pm - 1.0, 4) if pm else None,
                "parent_q1_q3": [round(p1, 4), round(p3, 4)],
                "change_q1_q3": [round(c1, 4), round(c3, 4)],
                "parent_iqr": round(p3 - p1, 4),
                "change_better_pairs": sum(
                    sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"])
                ),
                "pairs": len(complete),
                "verdict": verdict(vals["parent"], vals["change"], sign,
                                   (bounds or {}).get(name)),
            }
        results = [side for p in pairs.values() for side in p.items()]
        row["failed_ops"] = {
            s: sum(r["failed"] for side, r in results if side == s and r) for s in SIDES
        }
        row["all_correct"] = all(r is not None and r.get("correct") for _, r in results)
        summary[workload] = row
    return summary


def compare_traced(runs, per_layer) -> dict:
    """Per workload of the traced ``runs``, in order of first appearance:
    for each metric of ``per_layer`` (names in report order) both sides'
    values and the change's relative difference, rounded to 4 decimals.
    A side without a result, or without the metric, reads None, and so does
    the difference then or when the parent's value is 0."""
    table = {}
    for run in runs:
        table.setdefault(run["workload"], {})[run["side"]] = (run["result"] or {}).get("metrics", {})
    out = {}
    for workload, sides in table.items():
        row = {}
        for name in per_layer:
            p, c = (sides.get(s, {}).get(name, {}).get("value") for s in SIDES)
            row[name] = {"parent": p, "change": c,
                         "change_vs_parent": round(c / p - 1.0, 4) if p and c is not None else None}
        out[workload] = row
    return out


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    environ = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=os.devnull)
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, env=environ)
    env = next((line[4:] for line in proc.stdout.splitlines() if line.startswith("env ")), None)
    return proc.returncode, proc.stdout, env


def _workload_arg(text: str):
    name, _, count = text.partition(":")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME:PAIRS, not {text!r}")
    return name, int(count)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", type=_workload_arg, action="append", required=True,
                    metavar="NAME:PAIRS", help="a workload and its number of pairs; repeatable")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=20.0, help="op time per run")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--about", default="", help="what was measured, for the file's about")
    ap.add_argument("--traced", type=int, metavar="SEED",
                    help="after the pairs, one traced run per side and workload at SEED")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
    runs, machine, seed = [], None, args.seed
    for workload, count in args.workload:
        for pair in range(count):
            for side in pair_order(pair):
                code, stdout, env = _run(checkouts[side], workload, seed, args.seconds)
                families, result = parse_output(stdout)
                machine = machine or env
                runs.append({"workload": workload, "seed": seed, "side": side, "pair": pair,
                             "exit": code, "families": families, "result": result,
                             "trace": 0, "seconds": args.seconds})
                print(f"{workload} pair {pair} seed {seed} {side}: exit {code}", file=sys.stderr)
            seed += 1
    out = {"about": args.about, "machine": machine, "runs": runs,
           "summary": summarize(runs, better, bounds)}
    if args.traced is not None:
        traced = []
        for index, workload in enumerate(dict.fromkeys(name for name, _ in args.workload)):
            for side in pair_order(index):
                code, stdout, _ = _run(checkouts[side], workload, args.traced, args.seconds, 1)
                traced.append({"workload": workload, "seed": args.traced, "side": side,
                               "exit": code, "result": parse_output(stdout)[1], "trace": 1,
                               "seconds": args.seconds})
                print(f"{workload} traced seed {args.traced} {side}: exit {code}", file=sys.stderr)
        per_layer = [m["name"] for m in bench["per_layer"]]
        out["traced"] = {"seed": args.traced, "runs": traced,
                         "metrics": compare_traced(traced, per_layer)}
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
