"""Scenario files: a strict JSON description of one game instance.

A scenario fixes the mode ("local" for pure network games, "global" when the
uniform spillover channel is present), the primitives, and the solver knobs.
Parsing is strict: unknown keys, wrong types, nonzero diagonals, and
mode/key mismatches are rejected with path-qualified messages. The
normal form materializes every default, so emit(parse(text)) is a canonical
representation and emit(parse(emit(parse(text)))) is byte-identical to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import UsageError
from .game import _RANGE_SLACK, GameSpec, make_game
from .global_ext import GlobalGameSpec, make_global_game
from .network import WeightedNetwork

__all__ = [
    "Scenario",
    "emit_scenario",
    "load_scenario",
    "normalize_scenario",
    "parse_scenario",
]

_DEFAULTS = {
    "seed": 0,
    "tol": 1e-10,
    "max_iter": 100_000,
    "window": 3,
    "epsilon": 1e-3,
    "samples": 100,
}

# Canonical key order for the normal form.
_EMIT_ORDER = (
    "mode",
    "n",
    "alpha",
    "z",
    "a_max",
    "x_bounds",
    "beta",
    "c",
    "initial_conjectures",
    "seed",
    "tol",
    "max_iter",
    "window",
    "epsilon",
    "samples",
)

_KNOWN_KEYS = frozenset(_EMIT_ORDER)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _num(obj, key) -> float:
    # json.loads accepts NaN and Infinity, and an integer can be too large
    # for a float; neither is a usable game primitive or solver knob.
    if not _is_num(obj):
        raise UsageError(f"{key} must be a number")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise UsageError(f"{key} must be finite")
    return value


def _int(obj, key, minimum) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise UsageError(f"{key} must be an integer")
    if obj < minimum:
        raise UsageError(f"{key} must be at least {minimum}")
    return obj


def _num_vector(obj, n, key) -> np.ndarray:
    if _is_num(obj):
        return np.full(n, _num(obj, key))
    if not isinstance(obj, list) or len(obj) != n:
        raise UsageError(f"{key} must be a number or a list of {n} numbers")
    return np.array([_num(v, f"{key}[{i}]") for i, v in enumerate(obj)], dtype=float)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario with its game objects already constructed."""

    mode: str
    game: GameSpec
    beta: Optional[float]
    c: Optional[np.ndarray]
    initial_conjectures: np.ndarray
    seed: int
    tol: float
    max_iter: int
    window: int
    epsilon: float
    samples: int

    @property
    def n(self) -> int:
        return self.game.n

    def global_game(self) -> GlobalGameSpec:
        if self.mode != "global":
            raise UsageError("this operation requires a global-mode scenario")
        return make_global_game(self.game, self.beta, self.c)


class _TooDeep(UsageError):
    """Scenario text nested past the interpreter's recursion limit."""


def parse_scenario(source: Union[str, dict]) -> Scenario:
    """Parse a scenario from a JSON string or an already-decoded dict."""
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise UsageError(f"scenario is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise _TooDeep(f"scenario nests too deeply to decode: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise UsageError("scenario must be a JSON object")

    unknown = sorted(set(obj) - _KNOWN_KEYS)
    if unknown:
        raise UsageError(f"unknown key {unknown[0]!r}")

    mode = obj.get("mode")
    if mode not in ("local", "global"):
        raise UsageError("mode must be 'local' or 'global'")

    n = _int(obj.get("n"), "n", minimum=1)
    # z's n rows bound n by the text's own size before any length-n array
    # is made.
    zraw = obj.get("z")
    if not isinstance(zraw, list) or len(zraw) != n:
        raise UsageError(f"z must be a list of {n} rows")

    if "alpha" not in obj:
        raise UsageError("alpha is required")
    alpha = _num_vector(obj["alpha"], n, "alpha")

    rows = []
    for i, row in enumerate(zraw):
        if not isinstance(row, list) or len(row) != n:
            raise UsageError(f"z[{i}] must be a list of {n} numbers")
        rows.append([_num(v, f"z[{i}][{j}]") for j, v in enumerate(row)])
    z = np.array(rows, dtype=float)

    a_max = _num_vector(obj["a_max"], n, "a_max") if "a_max" in obj else None

    x_lo = x_hi = None
    if "x_bounds" in obj:
        xb = obj["x_bounds"]
        if (
            isinstance(xb, list)
            and len(xb) == 2
            and all(_is_num(v) for v in xb)
        ):
            xb = [[_num(xb[0], "x_bounds[0]"), _num(xb[1], "x_bounds[1]")]] * n
        if not isinstance(xb, list) or len(xb) != n:
            raise UsageError(f"x_bounds must be a [lo, hi] pair or a list of {n} pairs")
        x_lo, x_hi = np.empty(n), np.empty(n)
        for i, pair in enumerate(xb):
            if not (
                isinstance(pair, list) and len(pair) == 2 and all(_is_num(v) for v in pair)
            ):
                raise UsageError(f"x_bounds[{i}] must be a [lo, hi] pair")
            x_lo[i] = _num(pair[0], f"x_bounds[{i}][0]")
            x_hi[i] = _num(pair[1], f"x_bounds[{i}][1]")
            if x_lo[i] > x_hi[i]:
                raise UsageError(f"x_bounds[{i}]: lo exceeds hi")

    beta = c = None
    if mode == "global":
        if "beta" not in obj:
            raise UsageError("beta is required in global mode")
        beta = _num(obj["beta"], "beta")
        if "c" not in obj:
            raise UsageError("c is required in global mode")
        c = _num_vector(obj["c"], n, "c")
    else:
        for key in ("beta", "c"):
            if key in obj:
                raise UsageError(f"{key} is only valid in global mode")

    initial = (
        _num_vector(obj["initial_conjectures"], n, "initial_conjectures")
        if "initial_conjectures" in obj
        else np.zeros(n)
    )

    knobs = {}
    for key, default in _DEFAULTS.items():
        if key not in obj:
            knobs[key] = default
        elif isinstance(default, int):
            knobs[key] = _int(obj[key], key, minimum=0 if key == "seed" else 1)
        else:
            knobs[key] = _num(obj[key], key)
            if knobs[key] <= 0:
                raise UsageError(f"{key} must be positive")

    net = WeightedNetwork(z=z)
    game = make_game(net, alpha, a_max=a_max, x_lo=x_lo, x_hi=x_hi)
    scn = Scenario(mode=mode, game=game, beta=beta, c=c, initial_conjectures=initial, **knobs)
    if mode == "global":
        scn.global_game()  # validate beta/c admissibility eagerly
    # Initial conjectures must be admissible for the learning commands.
    outside = (initial < game.x_lo - _RANGE_SLACK) | (initial > game.x_hi + _RANGE_SLACK)
    if np.any(outside):
        i = int(np.flatnonzero(outside)[0])
        raise UsageError(f"initial_conjectures[{i}] lies outside x_bounds")
    return scn


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file. A file that cannot be opened, is not
    UTF-8 or nests too deeply to decode is a usage error naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read scenario file {path}: {exc}") from exc
    except _TooDeep as exc:
        deep = exc.__cause__
        raise UsageError(f"cannot read scenario file {path}: {deep}") from deep


def normalize_scenario(scn: Scenario) -> dict:
    """The scenario as a plain dict with every default materialized."""
    game = scn.game
    out = {
        "mode": scn.mode,
        "n": scn.n,
        "alpha": [float(v) for v in game.alpha],
        "z": [[float(v) for v in row] for row in game.net.z],
        "a_max": [float(v) for v in game.a_max],
        "x_bounds": [[float(lo), float(hi)] for lo, hi in zip(game.x_lo, game.x_hi)],
    }
    if scn.mode == "global":
        out["beta"] = float(scn.beta)
        out["c"] = [float(v) for v in scn.c]
    out["initial_conjectures"] = [float(v) for v in scn.initial_conjectures]
    for key, default in _DEFAULTS.items():
        out[key] = type(default)(getattr(scn, key))
    assert list(out) == [k for k in _EMIT_ORDER if k in out]
    return out


def emit_scenario(scn: Scenario) -> str:
    """Canonical JSON text (two-space indent, trailing newline)."""
    return json.dumps(normalize_scenario(scn), indent=2) + "\n"
