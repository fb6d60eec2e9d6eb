"""Linear-quadratic games with action feedback on a weighted network.

Agent i chooses an action a_i in [0, a_max_i] and receives

    v_i = alpha_i * a_i - a_i**2 / 2 + a_i * x_i,

where x_i = sum_j z_ij * a_j is the externality aggregate. After play, an
agent observes only its own realized payoff; an active agent can invert that
payoff to the exact aggregate, an inactive agent learns nothing.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .network import WeightedNetwork, _freeze, _rebuild

__all__ = [
    "GameSpec",
    "aggregate",
    "best_reply",
    "invert_feedback",
    "justifiable_inactivity_set",
    "make_game",
    "payoff",
    "realized_payoff",
]

_DEFAULT_ACTION_CAP = 1e6

#: Slack allowed when checking that a value lies in an admissible range
#: (conjecture and spillover ranges, perceived centralities, start beliefs).
_RANGE_SLACK = 1e-12


def _vec(value, n, name) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise UsageError(f"{name} must be a scalar or length-{n} vector")
    if not np.isfinite(arr).all():
        raise UsageError(f"{name} must be finite")
    return _freeze(arr)


def _check_count(value, name, least=1) -> None:
    """Reject ``value`` unless it is an integer of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, not {value!r}") from None
    if value < least:
        raise UsageError(f"{name} must be at least {least}")


def _check_stopping(tol, max_iter) -> None:
    """Reject a stopping tolerance that is not a finite positive real
    scalar, or is a bool, or a step budget that is not an integer of at
    least one; shared by every iterative solver."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be a finite positive number, not {tol!r}")
    _check_count(max_iter, "max_iter")


def _check_tol(tol) -> None:
    """Reject a test tolerance that is not a finite real scalar >= 0 (0 asks
    for an exact test), or is a bool; shared by the pointwise checks."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol >= 0):
        raise UsageError(f"tol must be a finite number >= 0, not {tol!r}")


@dataclass(frozen=True)
class GameSpec:
    """A fully specified game: network, intercepts, caps, conjecture ranges.

    ``x_lo``/``x_hi`` bound each agent's conjecture about its aggregate and
    must contain every attainable aggregate value; violations raise at
    construction so downstream logic can rely on containment. The four
    vectors are stored over immutable bytes.
    """

    net: WeightedNetwork
    alpha: np.ndarray
    a_max: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray

    def __post_init__(self):
        n = self.net.n
        if n == 0:
            raise UsageError("a game needs at least one agent")
        object.__setattr__(self, "alpha", _vec(self.alpha, n, "alpha"))
        object.__setattr__(self, "a_max", _vec(self.a_max, n, "a_max"))
        object.__setattr__(self, "x_lo", _vec(self.x_lo, n, "x_lo"))
        object.__setattr__(self, "x_hi", _vec(self.x_hi, n, "x_hi"))
        if (self.a_max <= 0).any():
            i = int(np.flatnonzero(self.a_max <= 0)[0])
            raise UsageError(f"a_max[{i}] must be positive")
        if (self.x_lo > self.x_hi).any():
            i = int(np.flatnonzero(self.x_lo > self.x_hi)[0])
            raise UsageError(f"x_lo[{i}] exceeds x_hi[{i}]")
        z = self.net.z
        attain_lo = np.minimum(z, 0.0) @ self.a_max
        attain_hi = np.maximum(z, 0.0) @ self.a_max
        ok_lo = self.x_lo <= attain_lo + _RANGE_SLACK
        ok_hi = self.x_hi >= attain_hi - _RANGE_SLACK
        if not (ok_lo & ok_hi).all():
            i = int(np.flatnonzero(~(ok_lo & ok_hi))[0])
            raise UsageError(
                f"conjecture range for agent {i} does not contain all "
                f"attainable aggregates [{attain_lo[i]:.6g}, {attain_hi[i]:.6g}]"
            )

    __reduce__ = _rebuild

    @property
    def n(self) -> int:
        return self.net.n


def make_game(
    net: WeightedNetwork,
    alpha,
    a_max=None,
    x_lo=None,
    x_hi=None,
) -> GameSpec:
    """Build a :class:`GameSpec`, filling defaults.

    Action caps default to 1e6 (``_DEFAULT_ACTION_CAP``). Conjecture ranges
    are given as a pair or not at all; they default to the symmetric interval
    [-B, B] with B twice the largest attainable aggregate magnitude,
    ``2 * max_i sum_j |z_ij| * a_max_j``.
    """
    n = net.n
    a_cap = _vec(_DEFAULT_ACTION_CAP if a_max is None else a_max, n, "a_max")
    if (x_lo is None) != (x_hi is None):
        raise UsageError("give both conjecture bounds or neither")
    if x_lo is None:
        # initial=0.0 lets a 0-agent network reach GameSpec's check.
        b = 2.0 * float(np.max(np.abs(net.z) @ a_cap, initial=0.0))
        # 0.0 - b, not -b: a zero bound stays +0.0, so conjectures clipped
        # to it do not turn into -0.0.
        x_lo, x_hi = 0.0 - b, b
    return GameSpec(net=net, alpha=alpha, a_max=a_cap, x_lo=x_lo, x_hi=x_hi)


def aggregate(spec: GameSpec, actions: np.ndarray) -> np.ndarray:
    """Externality aggregates x = Z a.

    ``actions`` may also be a stack of profiles (k, n); each row's
    aggregate is bit-identical to the product for that row alone.
    """
    return np.matvec(spec.net.z, np.asarray(actions, dtype=float))


def best_reply(spec: GameSpec, conjectures: np.ndarray) -> np.ndarray:
    """Subjective best replies: alpha + x_hat truncated into [0, a_max].

    The indifference point alpha_i + x_hat_i = 0 resolves to exactly 0.
    """
    return np.clip(spec.alpha + np.asarray(conjectures, dtype=float), 0.0, spec.a_max)


def payoff(spec: GameSpec, actions, aggregates) -> np.ndarray:
    """Payoffs under given actions and (true or conjectured) aggregates."""
    a = np.asarray(actions, dtype=float)
    x = np.asarray(aggregates, dtype=float)
    return spec.alpha * a - 0.5 * a * a + a * x


def realized_payoff(spec: GameSpec, actions) -> np.ndarray:
    """The post-play message each agent receives: its own realized payoff."""
    return payoff(spec, actions, aggregate(spec, actions))


def invert_feedback(alpha, actions, messages):
    """Recover aggregates from payoffs: x = m/a - alpha + a/2.

    Exact for any strictly positive action, including capped ones. Raises
    for non-positive actions, whose payoff (zero) carries no information.
    """
    a = np.asarray(actions, dtype=float)
    if np.any(a <= 0):
        raise UsageError("feedback inversion needs strictly positive actions")
    return np.asarray(messages, dtype=float) / a - np.asarray(alpha, dtype=float) + a / 2.0


def justifiable_inactivity_set(spec: GameSpec) -> frozenset:
    """Agents whose conjecture range admits a belief rationalizing zero.

    Agent i qualifies iff x_lo_i <= -alpha_i: some admissible conjecture
    makes the unconstrained reply nonpositive.
    """
    return frozenset(int(i) for i in np.flatnonzero(spec.x_lo <= -spec.alpha))
