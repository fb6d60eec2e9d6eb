"""One workload in its own single-threaded process.

Modes:

- ``setup``: import netsce, generate the seeded inputs, report set-up time
  and the inputs' sha256, exit. The launcher runs this several times.
- ``timed``: set up, then run whole passes over the ops back to back from
  one caller (closed loop) until ``--seconds`` of op time have elapsed,
  checking every output.
- ``trace``: set up with span recording on, then run the workload's fixed
  trace subset in TRACE_PAIRS pairs of untraced and traced passes.
- ``reference``: run every op of the reference seed once and store the
  verdicts in ``reference.json`` (regenerate only on purpose).

Prints one JSON object on its last stdout line for the launcher.
"""

import os

# BLAS threads are read once, when NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 0
MIN_PASSES = 3
TRACE_PAIRS = 4  # untraced/traced pass pairs in the traced run
GAUGE_EVERY_S = 0.25  # op time between two speed gauges
KERNEL_REF_S = 2.0e-3  # gauge kernel time on an idle core of the reference VM


def _clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedGauge:
    """Machine-speed factor from a fixed kernel timed next to the ops.

    On a shared VM the same code runs up to 1.8x slower while other tenants
    load the core, in phases lasting seconds to minutes; the ratio of an op's
    time to this kernel's time stays within about 10 %. Every time the
    benchmark reports is therefore multiplied by KERNEL_REF_S / (kernel time
    measured within GAUGE_EVERY_S of op time of it): seconds on an idle core
    of the reference machine. The kernel mixes small NumPy calls with Python
    loop overhead, as netsce does, and is never part of op time.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.factor = 1.0
        self.due = 0.0  # op time left until the next gauge
        self._kernel()  # first NumPy linalg calls pay one-off set-up

    def _kernel(self):
        np = self.np
        m = np.eye(6) - 0.05
        x = np.full(6, 0.1)
        for _ in range(150):
            x = np.linalg.solve(m, np.clip(0.2 + 0.1 * (m @ x), 0.0, 5.0))
        return x

    def measure(self) -> float:
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t)
        self.factor = KERNEL_REF_S / best
        return self.factor

    def run_pass(self, runner, ops, args, label=None):
        """Run ops once on their fresh arguments; returns their normalized times."""
        out = []
        for j, (op, arg) in enumerate(zip(ops, args)):
            if self.due <= 0.0:
                self.measure()
                self.due = GAUGE_EVERY_S
            if label is not None:
                label(j)
            dt = runner.run(op, arg)
            self.due -= dt
            out.append(dt * self.factor)
        return out


def tail(latencies):
    """(value, percentile): the highest of p90/p75/p50 with >= 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (90, 75, 50):
        rank = -(-pct * n // 100)  # nearest rank, ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def _reference(workload, size, seed, sha, problems):
    """Reference verdicts for this run, or None when they do not apply."""
    if seed != REFERENCE_SEED or size != "full":
        return None
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]
    if ref["inputs_sha256"] != sha:
        problems.append(f"reference.json was made from other inputs than seed {seed}'s")
        return None
    return ref["verdicts"]


class Runner:
    """Runs ops, times them, checks them and counts failures."""

    def __init__(self, inputs, verdicts):
        self.inputs = inputs
        self.verdicts = verdicts
        self.latencies = []
        self.failures = []
        self.csv_bytes = 0
        self.seen = {}  # op key -> verdict

    def run(self, op, arg):
        t = time.perf_counter()
        try:
            out = op.run(arg)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            dt = time.perf_counter() - t
            self.latencies.append(dt)
            self.failures.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return dt
        dt = time.perf_counter() - t
        self.latencies.append(dt)
        outcome = op.check(out)
        del out
        self.csv_bytes += outcome.csv_bytes
        self.seen[op.key] = outcome.verdict
        if outcome.error is None and self.verdicts is not None:
            want = self.verdicts.get(op.key)
            lost = want == "converged" and outcome.verdict != "converged"
            if lost if self.inputs.lower_only else want != outcome.verdict:
                outcome.error = f"verdict {outcome.verdict!r}, reference {want!r}"
        if outcome.error is not None:
            self.failures.append(f"{op.key}: {outcome.error}")
        return dt


def timed(inputs, seed, seconds, verdicts, gauge):
    """Whole passes over the seeded pool until ``seconds`` of op time have
    passed, and at least MIN_PASSES.

    Every op runs in every pass, on objects built anew for that pass, and
    is checked each time. Latency metrics use each op's median normalized
    time over the passes (SpeedGauge).
    """
    import numpy as np

    order = [inputs.ops[i] for i in np.random.default_rng(seed).permutation(len(inputs.ops))]
    runner = Runner(inputs, verdicts)
    passes = []
    while len(passes) < MIN_PASSES or sum(runner.latencies) < seconds:
        passes.append(gauge.run_pass(runner, order, [op.make() for op in order]))
    typical = [statistics.median(col) for col in zip(*passes)]
    value, pct = tail(typical)
    metrics = {
        "ops_per_s": len(typical) / sum(typical),
        "op_ms_p50": statistics.median(typical) * 1e3,
        "op_ms_tail": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_family = {}
    for op, dt in zip(order, typical):
        by_family.setdefault(op.family, []).append(dt)
    raw = runner.latencies
    info = {
        "tail_percentile": pct,
        "ops": len(typical),
        "passes": len(passes),
        "timed_s": sum(raw),
        "speed": sum(map(sum, passes)) / sum(raw),
        "raw_ops_per_s": len(raw) / sum(raw),
        "latency_by_family": {f: (len(v), statistics.median(v) * 1e3) for f, v in by_family.items()},
    }
    return runner, metrics, info


def traced(inputs, recorder, netsce, verdicts, gauge):
    import tracer

    ops = inputs.trace_ops
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    runner = Runner(inputs, verdicts)
    untraced, traced_, layers = [], [], []
    for p in range(2 * TRACE_PAIRS):
        on = p % 2 == 1
        args = [op.make() for op in ops]  # before install: building them is no span
        if on:
            recorder.install(netsce)
        bytes_before = runner.csv_bytes

        def label(j, p=p):
            recorder.op = f"p{p}:{j}"

        norm = gauge.run_pass(runner, ops, args, label)
        (traced_ if on else untraced).append(norm)
        if on:
            recorder.uninstall()
            totals = tracer.span_totals(recorder.spans, lambda op, p=p: str(op).startswith(f"p{p}:"))
            setup = tracer.span_totals(recorder.spans, lambda op: op == "setup")
            metrics = tracer.layer_metrics(totals, setup, netsce.global_ext.check_homeo2)
            speed = sum(norm) / sum(runner.latencies[-len(ops):])
            for k, u in units.items():
                if u in ("s", "ms", "us") and k in metrics:
                    metrics[k] *= speed
            metrics["cli.csv_bytes"] = runner.csv_bytes - bytes_before
            layers.append(metrics)
    first = layers[0]
    # Each op's median normalized untraced and traced time, as in the timed run.
    base = sum(map(lambda *c: statistics.median(c), *untraced))
    first["trace.overhead_frac"] = sum(map(lambda *c: statistics.median(c), *traced_)) / base - 1.0
    repeat = sorted({k for m in layers[1:] for k, u in units.items()
                     if u == "count" and k in m and m[k] != first[k]})
    info = {"ops": len(ops), "families": _family_counts(ops, recorder), "untraced_s": base}
    if repeat:
        info["problems"] = [f"counts differ between traced passes: {repeat}"]
    return runner, first, info


_FAMILY_SPANS = ("equilibrium.solve_auxiliary_ne", "equilibrium.enumerate_sce",
                 "cli.main", "learning.probe_stability")


def _family_counts(ops, recorder):
    """Per input family in the first traced pass: supports and singular
    supports of the enumerators, and seconds in cli.main and in
    probe_stability (the probe share of a stability call)."""
    import tracer

    fam = {f"p1:{j}": op.family.split("-")[0] for j, op in enumerate(ops)}
    out = {}
    for s in recorder.spans:
        f = fam.get(s[tracer.OP])
        name = s[tracer.NAME]
        if f is None or name not in _FAMILY_SPANS:
            continue
        row = out.setdefault(f, {"supports": 0, "singular": 0, "cli_s": 0.0, "probe_s": 0.0})
        if name == "cli.main":
            row["cli_s"] += s[tracer.END] - s[tracer.START]
        elif name == "learning.probe_stability":
            row["probe_s"] += s[tracer.END] - s[tracer.START]
        else:
            row["supports"] += s[tracer.OBS][0]
            row["singular"] += s[tracer.OBS][2]
    return out


def _write_reference(args, inputs, sha) -> int:
    if args.seed != REFERENCE_SEED or args.size != "full":
        raise SystemExit(f"reference verdicts are taken at --seed {REFERENCE_SEED}, full size")
    runner = Runner(inputs, None)
    for op in inputs.ops:
        runner.run(op, op.make())
    if runner.failures:
        raise SystemExit("ops failed; no reference written:\n" + "\n".join(runner.failures))
    path = HERE / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    verdicts = {k: v for k, v in runner.seen.items() if v is not None}
    ref[args.workload] = {"inputs_sha256": sha, "verdicts": verdicts}
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"setup_s": 0.0, "written": str(path), "ops": len(inputs.ops)}))
    return 0


def _numpy_env() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "timed", "trace", "reference"), required=True)
    ap.add_argument("--t0", type=float, help="launcher's monotonic clock at spawn")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)
    t0 = _clock() if args.t0 is None else args.t0
    args.workdir.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(ROOT / "src"))
    import netsce
    import tracer
    import workloads

    warnings.simplefilter("ignore", netsce.CapBindingWarning)
    recorder = tracer.Recorder(op="setup")
    if args.mode == "trace":
        recorder.install(netsce)
    inputs = workloads.build(args.workload, args.seed, args.size, ROOT, args.workdir)
    setup_s = _clock() - t0
    recorder.uninstall()
    gauge = SpeedGauge()
    sha = inputs.sha.hexdigest()
    result = {"setup_s": setup_s * gauge.measure(), "setup_raw_s": setup_s, "inputs_sha256": sha}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "reference":
        return _write_reference(args, inputs, sha)
    problems = []
    verdicts = _reference(args.workload, args.size, args.seed, sha, problems)
    if args.mode == "timed":
        runner, metrics, info = timed(inputs, args.seed, args.seconds, verdicts, gauge)
    else:
        runner, metrics, info = traced(inputs, recorder, netsce, verdicts, gauge)
        if args.trace_file is not None:
            recorder.write(args.trace_file)
            info["trace_file"] = str(args.trace_file)
    info["env"] = _numpy_env()
    info["problems"] = problems + info.get("problems", [])
    result.update(
        attempted=len(runner.latencies),
        failures=runner.failures,
        metrics=metrics,
        info=info,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
