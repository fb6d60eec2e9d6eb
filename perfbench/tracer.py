"""Span recorder for the traced benchmark run.

Public netsce functions are wrapped under the module attribute their caller
resolves them by (``netsce.learning.learn_step`` is what ``run_learning``
calls, ``netsce.cli.probe_stability`` is what the ``stability`` command
calls), so nothing under ``src/`` changes. Each call records one span:
name, start, end, parent span and op id. Spans stay in memory and are
written out once, after the run; layer self time is a span's duration minus
the durations of its direct children.

netsce is a single-threaded library with no queues, so no layer has a wait
time to record; busy time and counts are all there is.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# (module, attribute) of every wrapped call site. The span name is
# "<defining module>.<function>", whose prefix is the layer.
WRAPPED = (
    ("network", "spectral_radius"),
    ("equilibrium", "spectral_radius"),
    ("learning", "spectral_radius"),
    ("network", "check_assumption"),
    ("network", "random_symmetrizable"),
    ("game", "aggregate"),
    ("equilibrium", "aggregate"),
    ("global_ext", "aggregate"),
    ("learning", "best_reply"),
    ("learning", "realized_payoff"),
    ("learning", "invert_feedback"),
    ("equilibrium", "solve_full_ne"),
    ("equilibrium", "solve_auxiliary_ne"),
    ("equilibrium", "enumerate_sce"),
    ("cli", "enumerate_sce"),
    ("equilibrium", "make_record"),
    ("learning", "make_record"),
    ("equilibrium", "is_sce"),
    ("learning", "is_sce"),
    ("learning", "learn_step"),
    ("learning", "run_learning"),
    ("cli", "probe_stability"),
    ("cli", "analytic_stability"),
    ("global_ext", "phi_map"),
    ("global_ext", "solve_global_sce"),
    ("global_ext", "global_learn_step"),
    ("global_ext", "residual"),
    ("scenario", "emit_scenario"),
    ("cli", "load_scenario"),
    ("cli", "main"),
)


def _observe_enumeration(result, args, kwargs):
    records, diag = result
    return (diag.examined, len(records), len(diag.singular), len(diag.cap_hits))


def _observe_trajectory(result, args, kwargs):
    return (result.classification, result.steps)


def _observe_probe(result, args, kwargs):
    return result.samples


def _observe_global(result, args, kwargs):
    # The spec is kept so the attempt count can be derived after the run,
    # outside every span.
    return (result.method, result.converged, result.iterations, args[0])


OBSERVERS = {
    "equilibrium.solve_auxiliary_ne": _observe_enumeration,
    "equilibrium.enumerate_sce": _observe_enumeration,
    "learning.run_learning": _observe_trajectory,
    "learning.probe_stability": _observe_probe,
    "global_ext.solve_global_sce": _observe_global,
}

# Columns: name, start, end, parent span index (-1 at top), op id, observation.
NAME, START, END, PARENT, OP, OBS = range(6)


@dataclass
class Recorder:
    """In-memory span store; ``op`` labels spans with the op that caused them."""

    spans: list = field(default_factory=list)
    top: int = -1
    op: object = None
    _saved: list = field(default_factory=list)

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable]):
        spans = self.spans
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            parent = rec.top
            span = [name, clock(), 0.0, parent, rec.op, None]
            rec.top = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                rec.top = parent
            if observe is not None:
                span[OBS] = observe(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Replace every call site in WRAPPED with a span-recording wrapper."""
        for mod_name, attr in WRAPPED:
            module = getattr(package, mod_name)
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, OBSERVERS.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], f"{s[START]:.9f}", f"{s[END]:.9f}", s[PARENT], s[OP]])


def span_totals(spans, keep: Callable[[object], bool]):
    """Per span name: calls, inclusive seconds, self seconds, observations.

    Only spans whose op id passes ``keep`` are counted; children are always
    subtracted from their parent's self time.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    totals: dict = {}
    for i, s in enumerate(spans):
        if not keep(s[OP]):
            continue
        t = totals.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "obs": []})
        dur = s[END] - s[START]
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child[i]
        if s[OBS] is not None:
            t["obs"].append(s[OBS])
    return totals


def _sum(totals, names, key):
    return sum(totals[n][key] for n in names if n in totals)


def _layer_self(totals, layer):
    return sum(t["self_s"] for n, t in totals.items() if n.startswith(layer + "."))


def _ratio(num, base):
    return num / base if base else 0.0


def _attempts(method, converged, g, homeo2):
    """Methods solve_global_sce ran, from its documented "auto" order.

    Plain iteration runs only when check_homeo2 holds; the first method
    that converges ends the sequence, otherwise every method runs.
    """
    order = (["iterate"] if homeo2(g).holds else []) + ["damped", "seidel", "newton"]
    return order.index(method) + 1 if converged else len(order)


def layer_metrics(totals, setup_totals, homeo2) -> dict:
    """Every per-layer metric of the traced pass, by name."""
    enum = ("equilibrium.solve_auxiliary_ne", "equilibrium.enumerate_sce")
    eobs = [o for n in enum if n in totals for o in totals[n]["obs"]]
    supports = sum(o[0] for o in eobs)
    records = sum(o[1] for o in eobs)

    trajs = totals.get("learning.run_learning", {"obs": [], "s": 0.0, "self_s": 0.0})
    classes = [o[0] for o in trajs["obs"]]
    steps = sum(o[1] for o in trajs["obs"])
    samples = sum(totals.get("learning.probe_stability", {"obs": []})["obs"])

    solves = totals.get("global_ext.solve_global_sce", {"obs": [], "s": 0.0})
    gobs = solves["obs"]
    attempts = sum(_attempts(m, ok, g, homeo2) for m, ok, _, g in gobs)
    iterations = sum(o[2] for o in gobs)

    def calls(name):
        return _sum(totals, [name], "calls")

    def secs(name, src=totals):
        return _sum(src, [name], "s")

    out = {
        "equilibrium.supports": supports,
        "equilibrium.records": records,
        "equilibrium.records_per_support": _ratio(records, supports),
        "equilibrium.singular": sum(o[2] for o in eobs),
        "equilibrium.cap_hits": sum(o[3] for o in eobs),
        "equilibrium.self_s": _layer_self(totals, "equilibrium"),
        "equilibrium.us_per_support": _ratio(_sum(totals, enum, "s") * 1e6, supports),
        "equilibrium.make_record_s": secs("equilibrium.make_record"),
        "equilibrium.is_sce_calls": calls("equilibrium.is_sce"),
        "equilibrium.is_sce_s": secs("equilibrium.is_sce"),
        "learning.trajectories": len(classes),
        "learning.converged": classes.count("converged"),
        "learning.oscillating": classes.count("oscillating"),
        "learning.diverged": classes.count("diverged"),
        "learning.max_iter": classes.count("max-iter"),
        "learning.steps": steps,
        "learning.learn_step_s": secs("learning.learn_step"),
        "learning.us_per_step": _ratio(trajs["s"] * 1e6, steps),
        "learning.run_self_s": trajs["self_s"],
        "learning.run_self_us_per_step": _ratio(trajs["self_s"] * 1e6, steps),
        "learning.probe_samples": samples,
        "learning.ms_per_probe_sample": _ratio(secs("learning.probe_stability") * 1e3, samples),
        "learning.probe_share": _ratio(secs("learning.probe_stability"), secs("cli.main")),
        "learning.analytic_s": secs("learning.analytic_stability"),
        "game.best_reply_calls": calls("game.best_reply"),
        "game.realized_payoff_calls": calls("game.realized_payoff"),
        "game.invert_feedback_calls": calls("game.invert_feedback"),
        "game.aggregate_calls": calls("game.aggregate"),
        "game.self_s": _layer_self(totals, "game"),
        "global_ext.solves": len(gobs),
        "global_ext.attempts": attempts,
        "global_ext.solves_per_attempt": _ratio(len(gobs), attempts),
        "global_ext.iterations": iterations,
        "global_ext.us_per_iteration": _ratio(solves["s"] * 1e6, iterations),
        "global_ext.nonconverged": sum(1 for o in gobs if not o[1]),
        "global_ext.learn_step_calls": calls("global_ext.global_learn_step"),
        "global_ext.learn_step_s": secs("global_ext.global_learn_step"),
        "global_ext.residual_calls": calls("global_ext.residual"),
        "global_ext.residual_s": secs("global_ext.residual"),
        "global_ext.self_s": _layer_self(totals, "global_ext"),
        "network.check_assumption_s": secs("network.check_assumption"),
        "network.spectral_radius_calls": calls("network.spectral_radius"),
        "network.spectral_radius_s": secs("network.spectral_radius"),
        "network.random_symmetrizable_s": secs("network.random_symmetrizable", setup_totals),
        "scenario.load_calls": calls("scenario.load_scenario"),
        "scenario.load_s": secs("scenario.load_scenario"),
        "scenario.emit_s": secs("scenario.emit_scenario", setup_totals),
        "cli.calls": calls("cli.main"),
        "cli.main_s": secs("cli.main"),
        "cli.self_s": _layer_self(totals, "cli"),
    }
    for m in ("iterate", "damped", "seidel", "newton"):
        out[f"global_ext.method.{m}"] = sum(1 for o in gobs if o[0] == m)
    return out
