"""netsce benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Every workload runs in its own
single-threaded process with BLAS pinned to one thread. With ``--trace 0``
the output holds every end-to-end metric; set-up time is the median over
five processes that each import netsce and generate the seed's inputs.
Every time is normalized to machine speed (``SpeedGauge`` in worker.py).
With ``--trace 1`` it holds every per-layer metric of a separate traced run
and writes the spans to ``.bench_work/trace-<workload>-seed<seed>.csv``.

Report lines come first; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names,
units and their order come from ``BENCHMARK.json``; what each workload and
metric means, and the base of every ratio, is in ``perfbench/metrics.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enumerate", "learn", "stability_cli", "global_sweep")
SETUP_PROBES = 4  # set-up-only processes run before the measuring one
DEADLINE_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _spawn(args, env, deadline):
    """Run worker.py to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before all processes ran")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload process exceeded {DEADLINE_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(args):
    """Run the workload's processes; returns (result, report lines)."""
    if not (ROOT / "src" / "netsce" / "__init__.py").is_file():
        raise BenchError(f"no netsce sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "scenarios").is_dir():
        raise BenchError(f"no shipped scenarios under {ROOT / 'scenarios'}")
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--workdir", str(tmp)]
    try:
        if args.trace:
            trace_file = work / f"trace-{args.workload}-seed{args.seed}.csv"
            res = _spawn(common + ["--mode", "trace", "--trace-file", str(trace_file)], env, deadline)
            setups = [res["setup_s"]]
        else:
            probes = [_spawn(common + ["--mode", "setup"], env, deadline)
                      for _ in range(SETUP_PROBES)]
            res = _spawn(common + ["--mode", "timed", "--seconds", str(args.seconds)], env, deadline)
            probes.append(res)
            setups = [p["setup_s"] for p in probes]
            res["info"]["setup_raw_s"] = [p["setup_raw_s"] for p in probes]
            if len({p["inputs_sha256"] for p in probes}) != 1:
                res["info"].setdefault("problems", []).append("processes generated different inputs")
            res["metrics"]["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = res["info"]
    env_line = (f"nproc={os.cpu_count()} cpu=\"{_cpu_model()}\" python={platform.python_version()} "
                f"numpy={info['env']['numpy']} blas=\"{info['env']['blas']}\" commit={_git_commit()} "
                + " ".join(f"{k}={v}" for k, v in PINNED.items()))
    lines = [
        f"workload={args.workload} seed={args.seed} size={args.size} trace={int(args.trace)}",
        f"env {env_line}",
        f"inputs sha256={res['inputs_sha256']}",
        f"setup_s per process: {' '.join(f'{s:.4f}' for s in setups)}"
        + (f" (raw {' '.join(f'{s:.4f}' for s in info['setup_raw_s'])})" if "setup_raw_s" in info else ""),
    ]
    if "speed" in info:
        lines.append(f"speed factor {info['speed']:.4f} (times are scaled to an idle reference core;"
                     f" raw {info['raw_ops_per_s']:.4g} op runs/s over {info['timed_s']:.1f} s)")
    failed = len(res["failures"])
    lines.append(f"failed_frac {_fmt(failed / res['attempted'])} ({failed} of {res['attempted']} ops)")
    lines += [f"FAILED {f}" for f in res["failures"][:20]]
    lines += [f"PROBLEM {p}" for p in info.get("problems", [])]
    return res, lines


def report(args, res, lines) -> dict:
    """Metrics in BENCHMARK.json's names, units and order; ratio bases from metrics.json."""
    kind = "per_layer" if args.trace else "end_to_end"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))["metrics"]
    info = res["info"]
    metrics = {}
    for d in bench[kind]:
        value = res["metrics"][d["name"]]
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
        note = ""
        base = defs.get(d["name"], {}).get("base")
        if base is not None:
            shown = info["untraced_s"] if base == "untraced op time" else res["metrics"][base]
            note = f"  (base {base} = {_fmt(shown)})"
        elif d["name"] == "op_ms_tail":
            note = f"  (p{info['tail_percentile']} of {info['ops']} ops, median of {info['passes']} passes)"
        lines.append(f"{d['name']:36s} {_fmt(value):>14s} {d['unit']}{note}")
    for family, (ops, ms) in sorted(info.get("latency_by_family", {}).items()):
        lines.append(f"  {family}: {ops} ops, median {ms:.4g} ms")
    for family, row in sorted(info.get("families", {}).items()):
        share = f", probe share {row['probe_s'] / row['cli_s']:.3f}" if row["cli_s"] else ""
        lines.append(f"  {family}: {row['supports']} supports, {row['singular']} singular{share}")
    if "trace_file" in info:
        lines.append(f"spans written to {info['trace_file']}")
    failed = len(res["failures"])
    return {
        "correct": failed == 0 and not info.get("problems"),
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: smallest inputs, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        res, lines = measure(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    out = report(args, res, lines)
    for line in lines:
        print(line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
