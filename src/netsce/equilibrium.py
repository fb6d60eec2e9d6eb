"""Nash and selfconfirming equilibrium computation.

A profile is selfconfirming when every agent best-responds to a conjecture
its own feedback cannot refute: active agents observe their aggregate
exactly (so their conjecture must be correct), inactive agents observe
nothing (so any conjecture in range that justifies staying out survives).

Candidate equilibria are found by active-set enumeration: for an active set
K the interior first-order conditions are the linear system
(I - Z_KK) a_K = alpha_K, and a candidate is kept when the solution is
strictly positive, clears the action caps, and no agent outside K wants in.
Supports travel as one index array per size, solved in stacked blocks; a
block with an exactly singular member is halved until that member stands
alone. The kept profiles come back as one stack, and every record is built
from a stack by one function: one aggregate, one mask for the Nash test
and one sort into bitmask order, whose frozen result each record views.
A single profile is a stack of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import UsageError
from .game import GameSpec, aggregate, justifiable_inactivity_set
from .network import WeightedNetwork, _try_symmetrize, check_assumption, spectral_radius

__all__ = [
    "ACTIVE_TOL",
    "BOUNDARY_TOL",
    "CAP_MARGIN",
    "ConditionEntry",
    "EquilibriumRecord",
    "InteriorReport",
    "SceCheck",
    "SolveDiagnostics",
    "enumerate_sce",
    "interior_conditions",
    "is_sce",
    "make_record",
    "solve_auxiliary_ne",
    "solve_full_ne",
]

#: An action counts as active only strictly above this.
ACTIVE_TOL = 1e-9
#: Candidates this close to the action cap are rejected as cap-bound.
CAP_MARGIN = 1e-6
#: Slack for the Nash boundary test on inactive agents.
BOUNDARY_TOL = 1e-9

_MAX_ENUM_BITS = 20
#: Supports solved per stacked LAPACK call (bounds the stack to a few MB).
_SOLVE_BLOCK = 4096


@dataclass(frozen=True)
class EquilibriumRecord:
    """One equilibrium: actions, witness conjectures, classification.

    ``kind`` is "NE" when every inactive agent's true incentive
    alpha_i + x_i is nonpositive (within tolerance), else "SCE-non-NE".
    ``declared_inactive`` lists agents whose zero action is justified by an
    unrefuted pessimistic conjecture rather than by true incentives.
    ``actions`` and ``conjectures`` are float64 arrays over an immutable
    ``bytes`` object, so no holder can make them writable again: one that
    is so already is kept as given (a row view of a solver's frozen stack),
    anything else is copied, so a record never shares memory with a
    writable array.
    """

    actions: np.ndarray
    conjectures: np.ndarray
    active_set: frozenset
    declared_inactive: frozenset
    kind: str

    def __post_init__(self):
        for name in ("actions", "conjectures"):
            arr = getattr(self, name)
            if not (type(arr) is np.ndarray and arr.dtype == np.float64 and _is_frozen(arr)):
                object.__setattr__(self, name, _freeze(np.asarray(arr, dtype=float)))

    @property
    def bitmask(self) -> int:
        return sum(1 << i for i in self.active_set)


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A copy of ``arr`` over an immutable ``bytes`` object: neither it nor
    any view of it can be made writable again."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


def _is_frozen(arr: np.ndarray) -> bool:
    """Whether ``arr`` is ``_freeze``'s result or a view of it."""
    owner = arr.base if isinstance(arr.base, np.ndarray) else arr
    return type(owner.base) is bytes


@dataclass(frozen=True)
class SolveDiagnostics:
    """Side information from an enumeration run."""

    examined: int = 0
    singular: tuple = ()  # (active-set frozenset, "continuum" | "inconsistent")
    cap_hits: tuple = ()  # active sets whose solution pressed the cap


def make_record(
    spec: GameSpec,
    actions: np.ndarray,
    declared_inactive: frozenset = frozenset(),
    conjectures: Optional[np.ndarray] = None,
    validate: bool = True,
) -> EquilibriumRecord:
    """Assemble a record for a given action profile.

    Default witness conjectures: the true aggregate for every agent except
    the declared-inactive ones, who are assigned their most pessimistic
    admissible conjecture x_lo. With ``validate`` the pair must pass is_sce;
    solvers that guarantee validity by construction switch it off. Every
    declared entry must be an agent index in range(n).
    """
    declared = frozenset(declared_inactive)
    for i in declared:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < spec.n:
            raise UsageError(
                f"declared_inactive holds {i!r}: not an agent index in range({spec.n})"
            )
    acts = np.asarray(actions, dtype=float)[None]
    witnesses = None if conjectures is None else np.asarray(conjectures, dtype=float)[None]
    rec = _records(spec, acts, aggregate(spec, acts), declared, witnesses)[0]
    if validate:
        chk = is_sce(spec, rec.actions, rec.conjectures)
        if not chk.ok:
            worst = ", ".join(
                f"agent {i}: {why} off by {gap:.3g}" for i, why, gap in chk.violations[:3]
            )
            raise UsageError(f"profile and conjectures are not selfconfirming ({worst})")
    return rec


def _solve_active(spec: GameSpec, k: Sequence[int]):
    """Solve the interior conditions on active set k.

    Returns (solution, None) or (None, "continuum" | "inconsistent") when
    the restricted system is singular.
    """
    if not k:
        return np.zeros(0), None
    idx = np.array(sorted(k), dtype=int)
    sub = np.eye(len(idx)) - spec.net.z[np.ix_(idx, idx)]
    rhs = spec.alpha[idx]
    try:
        sol = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        lsq = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        resid = np.max(np.abs(sub @ lsq - rhs)) if len(idx) else 0.0
        return None, ("continuum" if resid <= 1e-9 else "inconsistent")
    # Guard against silent blow-ups of near-singular systems.
    if not np.all(np.isfinite(sol)) or np.max(np.abs(sub @ sol - rhs)) > 1e-7 * max(
        1.0, float(np.max(np.abs(rhs)))
    ):
        return None, "inconsistent"
    return sol, None


def _subset_runs(agents: Sequence[int]):
    """Every subset of ``agents``, one (C, r) intp array per size r: by size
    and then lexicographically, so subsets of a sorted sequence have sorted
    rows.

    Raises before building anything when the count exceeds 2^_MAX_ENUM_BITS.
    """
    m = len(agents)
    if m > _MAX_ENUM_BITS:
        raise UsageError(
            f"enumerating subsets of {m} agents needs 2^{m} solves; limit is {_MAX_ENUM_BITS}"
        )
    return (
        np.fromiter(itertools.chain.from_iterable(itertools.combinations(agents, r)), np.intp)
        .reshape(math.comb(m, r), r)
        for r in range(m + 1)
    )


def _complement_runs(n: int, agents: Sequence[int]):
    """The sorted complements in range(n) of ``_subset_runs(agents)``."""

    def complement(run):
        keep = np.ones((len(run), n), dtype=bool)
        keep[np.arange(len(run))[:, None], run] = False
        return np.nonzero(keep)[1].reshape(len(run), n - run.shape[1])

    return map(complement, _subset_runs(agents))


def _solve_block(spec: GameSpec, idx: np.ndarray):
    """Interior solutions on the sorted supports in the rows of ``idx`` (s, m).

    One stacked LAPACK call solves all s systems. Returns (sol, bad): each
    row of ``sol`` is bit-identical to that support's ``_solve_active``
    solution, and ``bad`` marks the rows it calls "inconsistent"
    (non-finite, or failing the residual guard). Raises LinAlgError when
    any member is exactly singular.
    """
    m = idx.shape[1]
    sub = np.eye(m) - spec.net.z[idx[:, :, None], idx[:, None, :]]
    rhs = spec.alpha[idx]
    sol = np.linalg.solve(sub, rhs[:, :, None])[:, :, 0]
    bad = ~np.isfinite(sol).all(axis=1)
    # The residual guard runs on finite rows only, as in _solve_active; a
    # slice when every row is finite spares the stack three masked copies.
    ok = ~bad if bad.any() else slice(None)
    resid = np.abs(np.matvec(sub[ok], sol[ok]) - rhs[ok]).max(axis=1, initial=0.0)
    bad[ok] = resid > 1e-7 * np.maximum(1.0, np.abs(rhs[ok]).max(axis=1, initial=0.0))
    return sol, bad


def _solve_halving(spec: GameSpec, idx: np.ndarray):
    """``_solve_block``'s (sol, bad) and one label per bad row. A block that
    LAPACK rejects is halved, recursively (at most 2s - 1 stacked calls for
    s rows), and only a lone singular support goes to ``_solve_active``.
    """
    try:
        sol, bad = _solve_block(spec, idx)
        return sol, bad, ["inconsistent"] * int(np.count_nonzero(bad))
    except np.linalg.LinAlgError:
        if len(idx) == 1:
            _, fail = _solve_active(spec, idx[0].tolist())
            return np.zeros(idx.shape), np.ones(1, dtype=bool), [fail]
    (s0, b0, w0), (s1, b1, w1) = (_solve_halving(spec, h) for h in np.array_split(idx, 2))
    return np.concatenate([s0, s1]), np.concatenate([b0, b1]), w0 + w1


def _solve_supports(spec: GameSpec, runs: Iterable[np.ndarray]):
    """Interior solutions on the sorted supports in the rows of ``runs``,
    one (C, m) index array per size, each solved in blocks of at most
    _SOLVE_BLOCK rows by ``_solve_halving``.

    Returns (acts, diagnostics): the rows of ``acts`` (k, n) are the kept
    profiles in support order. A solution is kept when strictly positive
    (> ACTIVE_TOL) and clear of the caps (by CAP_MARGIN), so a kept row's
    active set is exactly its support and it is 0 elsewhere. Singular
    supports and cap-bound solutions, the only ones made frozensets, are
    reported in the diagnostics.
    """
    stacks, singular, cap_hits = [np.zeros((0, spec.n))], [], []
    examined = 0
    for run in runs:
        for start in range(0, len(run), _SOLVE_BLOCK):
            idx = run[start : start + _SOLVE_BLOCK]
            examined += len(idx)
            sol, bad, why = _solve_halving(spec, idx)
            low = (sol <= ACTIVE_TOL).any(axis=1)
            cap = (sol > spec.a_max[idx] - CAP_MARGIN).any(axis=1)
            singular.extend(
                (frozenset(idx[r].tolist()), w) for r, w in zip(np.flatnonzero(bad), why)
            )
            cap_hits.extend(frozenset(idx[r].tolist()) for r in np.flatnonzero(cap & ~low & ~bad))
            kept = np.flatnonzero(~(bad | low | cap))
            acts = np.zeros((len(kept), spec.n))
            acts[np.arange(len(kept))[:, None], idx[kept]] = sol[kept]
            stacks.append(acts)
    diags = SolveDiagnostics(
        examined=examined, singular=tuple(singular), cap_hits=tuple(cap_hits)
    )
    return np.concatenate(stacks), diags


def _records(
    spec: GameSpec, acts: np.ndarray, x: np.ndarray, declared=None, witnesses=None
):
    """Records for the profiles in the rows of ``acts`` (k, n), whose
    aggregates are the rows of ``x``, sorted by active-set bitmask; the one
    builder of EquilibriumRecord (``make_record`` is its one-row case).

    Witness conjectures are the rows of ``witnesses`` when given, else the
    aggregate with x_lo on ``declared``: the declared-inactive set every
    record shares, or None when each profile declares exactly its own
    inactive agents. The kind is "NE" when every inactive agent's
    alpha_i + x_i is at most BOUNDARY_TOL. Row r of a stacked ``aggregate``
    equals the product for that row alone, so a record does not depend on
    its stack. Without ``witnesses``, ``x`` is overwritten.
    Both stacks are sorted and frozen by one ``_freeze`` each, and each
    record holds row views of them: a record keeps its call's records'
    rows alive.
    """
    active = acts > ACTIVE_TOL
    is_ne = ((spec.alpha + x <= BOUNDARY_TOL) | active).all(axis=1)
    if witnesses is None:
        if declared is None:
            off = ~active
        else:
            off = np.zeros(spec.n, dtype=bool)
            off[list(declared)] = True
        np.copyto(x, spec.x_lo, where=off)
        witnesses = x
    # Agent n - 1, the top bit, is lexsort's last and so primary key: this
    # is bitmask order for any n, without forming the bitmasks.
    order = np.lexsort(active.T)
    acts, x = _freeze(acts[order]), _freeze(witnesses[order])
    agents = range(spec.n)
    everyone = frozenset(agents)
    records = []
    for a, xr, mask, ne in zip(acts, x, active[order].tolist(), is_ne[order].tolist()):
        on = frozenset(itertools.compress(agents, mask))
        records.append(
            EquilibriumRecord(
                actions=a,
                conjectures=xr,
                active_set=on,
                declared_inactive=everyone - on if declared is None else declared,
                kind="NE" if ne else "SCE-non-NE",
            )
        )
    return records


def solve_auxiliary_ne(spec: GameSpec, candidates: Iterable[int]):
    """All Nash equilibria of the game with agents outside ``candidates``
    clamped to zero.

    Enumerates active subsets K of the candidate set: the interior solution
    on K is accepted when strictly positive (> ACTIVE_TOL), clear of the
    caps (by CAP_MARGIN), and no candidate outside K has a positive
    incentive (> BOUNDARY_TOL) at the profile. Returns (records,
    diagnostics), records sorted by active-set bitmask.
    """
    j = sorted(set(int(i) for i in candidates))
    for i in j:
        if not 0 <= i < spec.n:
            raise UsageError(f"agent index {i} out of range")
    acts, diags = _solve_supports(spec, _subset_runs(j))
    x = aggregate(spec, acts)
    # A kept profile is zero exactly off its support.
    outside = np.isin(np.arange(spec.n), j) & (acts == 0.0)
    keep = ~((spec.alpha + x > BOUNDARY_TOL) & outside).any(axis=1)
    declared = frozenset(range(spec.n)) - frozenset(j)
    return _records(spec, acts[keep], x[keep], declared), diags


def solve_full_ne(spec: GameSpec):
    """All Nash equilibria of the unrestricted game (records, diagnostics)."""
    return solve_auxiliary_ne(spec, range(spec.n))


def enumerate_sce(spec: GameSpec):
    """All selfconfirming equilibria (records, diagnostics).

    For every subset S of the justifiable-inactivity set, clamp S to zero
    with pessimistic conjectures and keep the fully active interior solution
    on the rest when it is strictly positive and clear of the caps. Every
    Nash equilibrium reappears here (its inactive agents are always
    justifiable because conjecture ranges contain attainable aggregates), so
    the returned set contains the Nash set.
    """
    runs = _complement_runs(spec.n, sorted(justifiable_inactivity_set(spec)))
    acts, diags = _solve_supports(spec, runs)
    return _records(spec, acts, aggregate(spec, acts)), diags


@dataclass(frozen=True)
class SceCheck:
    """Verdict of a pointwise selfconfirming-equilibrium test."""

    ok: bool
    violations: tuple = ()  # (agent, reason, magnitude)


def is_sce(spec: GameSpec, actions, conjectures, tol: float = 1e-9) -> SceCheck:
    """Check subjective rationality and confirmation at a profile.

    Violations are reported per agent: "range" (action or conjecture out of
    bounds), "rationality" (action is not the best reply to the conjecture),
    "confirmation" (an active agent's conjecture differs from its true
    aggregate).
    """
    a = np.asarray(actions, dtype=float)
    xh = np.asarray(conjectures, dtype=float)
    x = aggregate(spec, a)
    gap = np.abs(a - np.clip(spec.alpha + xh, 0.0, spec.a_max))
    miss = np.abs(xh - x)
    bad = _violations(
        ("range", (a < -tol) | (a > spec.a_max + tol), a),
        ("range", (xh < spec.x_lo - tol) | (xh > spec.x_hi + tol), xh),
        ("rationality", gap > tol, gap),
        ("confirmation", (a > ACTIVE_TOL) & (miss > tol), miss),
    )
    return SceCheck(ok=not bad, violations=bad)


def _violations(*checks) -> tuple:
    """(agent, reason, magnitude) for every failed (reason, mask, magnitude)
    check, by agent and then in the order the checks are given."""
    failed = np.stack([mask for _, mask, _ in checks], axis=1)
    agents, which = np.nonzero(failed)  # row-major: agent first
    return tuple(
        (int(i), checks[c][0], float(checks[c][2][i])) for i, c in zip(agents, which)
    )


@dataclass(frozen=True)
class ConditionEntry:
    """One sufficient condition for an interior equilibrium."""

    name: str
    holds: bool
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InteriorReport:
    """Sufficient-condition scan for interior (all-active) equilibria.

    ``solution`` solves (I - Z) a = alpha; ``positive`` says whether it is
    strictly positive. Each entry in ``conditions`` alone guarantees that
    outcome: "bounded" and "symmetrizable-limited" for every positive
    intercept vector, "negative-limited" for every common positive intercept
    alpha = s * 1 (with unequal intercepts a strongly inhibited agent can be
    priced out: Z = [[0, -0.5], [-0.5, 0]], alpha = (1, 100) gives a_0 < 0).
    """

    conditions: tuple
    solution: Optional[np.ndarray]
    positive: Optional[bool]
    degenerate: bool

    def any_holds(self) -> bool:
        return any(c.holds for c in self.conditions)


def interior_conditions(net: WeightedNetwork, alpha=None) -> InteriorReport:
    """Evaluate the three sufficient conditions and the interior solution.

    Conditions: (i) nonnegative weights with entries bounded by 1/n in
    magnitude; (ii) strictly negative off-diagonal weights with every
    absolute row sum below one; (iii) nonnegative weights, diagonally
    symmetrizable, with largest symmetrized eigenvalue below one.

    Under (i) and (iii) the spectral radius of Z is below one (it is at most
    the largest row sum, resp. equals lambda_max), so (I - Z)^-1 = sum Z^k
    >= I. Under (ii) the map a -> 1 + Z a sends [0, 1]^n into
    [1 - r, 1]^n, r the largest row sum, and contracts in the sup norm, so
    its fixed point is strictly positive. A spectral radius below one is
    not enough once weights are negative: a single heavy row such as
    [0, -0.9, -0.9] beside rows of -0.01 has radius 0.14 yet a_0 < 0.
    """
    n = net.n
    z = net.z
    a_vec = np.ones(n) if alpha is None else np.asarray(alpha, dtype=float)

    off = ~np.eye(n, dtype=bool)
    max_off = float(z[off].max()) if n > 1 else -np.inf
    min_off = float(z[off].min()) if n > 1 else np.inf
    nonnegative = min_off >= 0.0

    bounded = check_assumption(net, "bounded")
    cond_bounded = ConditionEntry(
        "bounded",
        holds=bool(nonnegative and bounded.holds),
        witness={**bounded.witness, "min_offdiag": min_off},
    )

    row_sum = float(np.abs(z).sum(axis=1).max()) if n else 0.0
    cond_neg = ConditionEntry(
        "negative-limited",
        holds=bool(max_off < 0.0 and row_sum < 1.0),
        # rho is reported for comparison only: it does not decide (ii)
        witness={"max_offdiag": max_off, "row_sum": row_sum, "rho": spectral_radius(z)},
    )

    dec, failure = _try_symmetrize(net)
    if dec is None:
        cond_sym = ConditionEntry("symmetrizable-limited", holds=False, witness=failure)
    else:
        lam = dec.lambda_max()
        cond_sym = ConditionEntry(
            "symmetrizable-limited",
            holds=bool(nonnegative and abs(lam) < 1.0),
            witness={"lambda_max": lam, "min_offdiag": min_off},
        )

    try:
        sol = np.linalg.solve(np.eye(n) - z, a_vec)
        positive = bool(np.all(sol > 0))
        degenerate = False
    except np.linalg.LinAlgError:
        sol, positive, degenerate = None, None, True

    return InteriorReport(
        conditions=(cond_bounded, cond_neg, cond_sym),
        solution=sol,
        positive=positive,
        degenerate=degenerate,
    )
