"""Nash and selfconfirming equilibrium computation.

A profile is selfconfirming when every agent best-responds to a conjecture
its own feedback cannot refute: active agents observe their aggregate
exactly (so their conjecture must be correct), inactive agents observe
nothing (so any conjecture in range that justifies staying out survives).

Candidate equilibria are found by active-set enumeration: for an active set
K the interior first-order conditions are the linear system
(I - Z_KK) a_K = alpha_K, and a candidate is kept when the solution is
strictly positive, clears the action caps, and no agent outside K wants in.
Supports travel as one index array per size, in chunks of at most
_SOLVE_BLOCK: one stacked solve per size in a chunk, halved around an
exactly singular member, then one filter pass per chunk. One function
builds every record from a stack (one aggregate, Nash mask and sort into
bitmask order), and the records view its frozen rows, accepted as they
are. A single profile is a stack of one. A Nash problem whose candidates
provably contract (rho(|Z|) < 1, with margins) has one equilibrium, and a
certificate decides all its supports from one solved support.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import UsageError
from .game import GameSpec, _check_tol, aggregate, justifiable_inactivity_set
from .network import WeightedNetwork, _agent_set, _freeze, _rebuild, check_assumption
# spectral_radius is not called here; perfbench's span tracer wraps it under
# this module's name.
from .network import spectral_radius  # noqa: F401

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
#: A support solution whose residual exceeds this times max(1, |alpha_K|)
#: is "inconsistent" (``_solve_block``'s guard, read by the certificate too).
_RESIDUAL_GUARD = 1e-7
#: Unit roundoff of float64, and its dtype.
_U = np.finfo(float).eps / 2
_FLOAT = np.dtype(float)
#: Supports per chunk, so at most this many per stacked LAPACK call and per
#: filter pass (bounds the stacks to a few MB).
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
            # Frozen: over bytes, as ``_freeze``'s result and its views are.
            if not (type(arr) is np.ndarray and arr.dtype is _FLOAT
                    and type(getattr(arr.base, "base", arr.base)) is bytes):
                object.__setattr__(self, name, _freeze(np.asarray(arr, dtype=float)))

    __reduce__ = _rebuild

    @property
    def bitmask(self) -> int:
        return sum(1 << i for i in self.active_set)


@dataclass(frozen=True)
class SolveDiagnostics:
    """Side information from an enumeration run.

    ``examined`` counts the supports decided; ``certified`` says that a
    certificate decided them all from one solved support instead of one
    solve each (``solve_auxiliary_ne``).
    """

    examined: int = 0
    singular: tuple = ()  # (active-set frozenset, "continuum" | "inconsistent")
    cap_hits: tuple = ()  # active sets whose solution pressed the cap
    certified: bool = False


def _check_agents(spec: GameSpec, **arrays) -> None:
    """Raise unless each given array, None aside, holds one entry per agent:
    shape (n,)."""
    for name, value in arrays.items():
        shape = np.shape(value)
        if value is not None and shape != (spec.n,):
            length = shape[0] if len(shape) == 1 else np.size(value)
            raise UsageError(f"{name} have length {length}; the game has {spec.n} agents")


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
    declared entry must be an agent index in range(n), and the profile and
    conjectures must hold one entry per agent.
    """
    _check_agents(spec, actions=actions, conjectures=conjectures)
    declared = _agent_set(spec.n, declared_inactive, "declared_inactive")
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


def _solve_block(sub: np.ndarray, rhs: np.ndarray):
    """Interior solutions of the stacked systems ``sub`` (s, m, m) @ x =
    ``rhs`` (s, m): (sol, bad, why), with ``bad`` marking the rows that have
    none and ``why`` labelling those rows in order.

    One stacked LAPACK call solves all s systems; a non-finite solution, or
    one failing the residual guard, is "inconsistent". A block that LAPACK
    rejects, because a member is exactly singular, is halved into views of
    the same stack (``np.array_split`` order) and each half solved again,
    recursively: at most 2s - 1 stacked calls. A lone exactly singular
    system is labelled by its least-squares residual: "continuum" when it
    is at most 1e-9, else "inconsistent".
    """
    try:
        sol = np.linalg.solve(sub, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(sub) == 1:
            lsq = np.linalg.lstsq(sub[0], rhs[0], rcond=None)[0]
            resid = np.max(np.abs(sub[0] @ lsq - rhs[0]))
            why = "continuum" if resid <= 1e-9 else "inconsistent"
            return np.zeros(rhs.shape), np.ones(1, dtype=bool), [why]
        halves = zip(np.array_split(sub, 2), np.array_split(rhs, 2))
        (s0, b0, w0), (s1, b1, w1) = (_solve_block(*half) for half in halves)
        return np.concatenate([s0, s1]), np.concatenate([b0, b1]), w0 + w1
    bad = ~np.isfinite(sol).all(axis=1)
    # The residual guard runs on finite rows only; a slice when every row
    # is finite spares the stack three masked copies.
    ok = ~bad if bad.any() else slice(None)
    resid = np.abs(np.matvec(sub[ok], sol[ok]) - rhs[ok]).max(axis=1, initial=0.0)
    bad[ok] = resid > _RESIDUAL_GUARD * np.maximum(1.0, np.abs(rhs[ok]).max(axis=1, initial=0.0))
    return sol, bad, ["inconsistent"] * int(np.count_nonzero(bad))


def _chunks(runs: Iterable[np.ndarray]):
    """The rows of ``runs`` in order, as lists of row slices of at most
    _SOLVE_BLOCK rows in all: a size may span chunks."""
    chunk, room = [], _SOLVE_BLOCK
    for run in runs:
        while len(run):
            chunk.append(run[:room])
            run, room = run[room:], room - len(chunk[-1])
            if not room:
                yield chunk
                chunk, room = [], _SOLVE_BLOCK
    if chunk:
        yield chunk


def _solve_supports(spec: GameSpec, runs: Iterable[np.ndarray], keep=None):
    """Interior solutions on the sorted supports in the rows of ``runs``
    (one (C, m) index array per size), in ``_chunks``: per size in a chunk
    ``_solve_block`` solves the gathered I - Z_KK, alpha_K, then one pass
    per chunk scatters a profile stack and support mask and keeps the rows
    strictly positive (> ACTIVE_TOL) and clear of the caps (by CAP_MARGIN),
    and, when ``keep`` is given, whose row of ``keep(rows)`` is true: a
    row-wise test applied before the next chunk, so that what is held
    between chunks is only what passes it.

    Returns (acts, diagnostics): the kept profiles (k, n) in support order,
    each active exactly on its support and 0 elsewhere, and the singular
    and cap-bound supports, the only ones made frozensets.
    """
    n, z, top = spec.n, spec.net.z, spec.a_max - CAP_MARGIN
    stacks, singular, cap_hits, examined = [np.zeros((0, n))], [], [], 0
    for chunk in _chunks(runs):
        sols, bads, whys = zip(*(
            _solve_block(np.eye(k.shape[1]) - z[k[:, :, None], k[:, None, :]], spec.alpha[k])
            for k in chunk
        ))
        bad = np.concatenate(bads)
        examined += len(bad)
        # Supports are sorted, so row r's solution fills its row of ``on`` in order.
        width = np.repeat([k.shape[1] for k in chunk], [len(k) for k in chunk])
        acts, on = np.zeros((len(bad), n)), np.zeros((len(bad), n), dtype=bool)
        on[np.repeat(np.arange(len(bad)), width), np.concatenate(chunk, axis=None)] = True
        acts[on] = np.concatenate(sols, axis=None)
        low = ((acts <= ACTIVE_TOL) & on).any(axis=1)
        cap = ((acts > top) & on).any(axis=1)
        support = lambda r: frozenset(np.flatnonzero(on[r]).tolist())
        singular += zip(map(support, np.flatnonzero(bad)), itertools.chain(*whys))
        cap_hits += map(support, np.flatnonzero(cap & ~low & ~bad))
        rows = acts[~(bad | low | cap)]
        stacks.append(rows if keep is None else rows[keep(rows)])
    return np.concatenate(stacks), SolveDiagnostics(examined, tuple(singular), tuple(cap_hits))


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
    Both stacks are sorted and frozen by one ``_freeze`` each; a record
    holds row views of them, so it keeps its call's records' rows alive.
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
    return [
        EquilibriumRecord(
            a, xr, on := frozenset(itertools.compress(agents, mask)),
            everyone - on if declared is None else declared, "NE" if ne else "SCE-non-NE",
        )
        for a, xr, mask, ne in zip(acts, x, active[order].tolist(), is_ne[order].tolist())
    ]


def _active_records(spec: GameSpec, runs: Iterable[np.ndarray]):
    """(records, diagnostics) of the kept interior solutions on the
    supports in ``runs``: each record is fully active on its support and
    declares exactly its other agents inactive."""
    acts, diags = _solve_supports(spec, runs)
    return _records(spec, acts, aggregate(spec, acts)), diags


def _weights(az: np.ndarray) -> Optional[np.ndarray]:
    """v = (I - az)^-1 1 for a nonnegative square ``az`` when that is finite
    and positive, which holds exactly when rho(az) < 1 (Collatz-Wielandt:
    az v = v - 1 < v); else None. Both contraction certificates weigh their
    max-norm by v."""
    try:
        v = np.linalg.solve(np.eye(len(az)) - az, np.ones(len(az)))
    except np.linalg.LinAlgError:
        return None
    return v if np.isfinite(v).all() and (v > 0.0).all() else None


def _certified_ne(spec: GameSpec, j: Sequence[int]):
    """The one profile (1, n) that ``solve_auxiliary_ne`` keeps on the
    sorted candidates ``j``, and its aggregate, from one solved support; or
    None when the certificate below does not prove that enumerating all 2^m
    supports (m = len(j)) keeps exactly that support's profile and meets no
    singular or cap-bound support. The profile comes from the engine's own
    kernel and filters, so it is the one enumeration keeps, bit for bit.

    Why. Write Z for Z_JJ, |.| entrywise, |y|_v = max_i |y_i| / v_i for
    v = (I - |Z|)^-1 1 > 0 (``_weights``), and q for the largest
    (|Z| v)_i / v_i, inflated for rounding. q < 1 proves rho(|Z|) < 1, so
    I - Z is a P-matrix and a >= 0, w = a - alpha - Z a >= 0, a'w = 0 has
    exactly one solution a* (Cottle, Pang & Stone 1992). For every support K:

    1. its interior solution has |a_K| <= |Z_KK| |a_K| + |alpha_K|, so
       |a_K| <= B = v |alpha|_v / (1 - q);
    2. LAPACK solves (I - Z_KK + D) s = alpha_K with |D| <= gamma_3m |L||U|
       (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
       Thm 9.4), whose row sums are at most beta = gamma_3m m^2 2^(m-1)
       max(1, |z|) under partial pivoting's worst-case growth. With beta
       (max v / min v) / (1 - q) <= 1/2 the perturbed system is nonsingular,
       |s| <= 2B and the residual is at most 2 beta max B; that plus the
       rounding r of evaluating it stays below the residual guard, so no
       support is singular or inconsistent;
    3. a profile b that passes enumeration's filters (a kept support, no
       outside candidate above BOUNDARY_TOL) has natural residual
       min(b, b - alpha - Z b) at most eps = max(guard, BOUNDARY_TOL) + r,
       so |b - a*| <= |Z| |b - a*| + eps and |b - a*| <= E = v eps /
       (min v (1 - q)) (Chen & Xiang, *Math. Program.* 106, 2006). A kept
       support's solution lies within E of its interior solution the same
       way, so when B + E is below a_max - CAP_MARGIN no support presses
       the cap;
    4. the candidate passes when each of its actions exceeds ACTIVE_TOL +
       3E and each other candidate's -(alpha_i + x_i) exceeds BOUNDARY_TOL
       + 3E. Any other passing b is within 2E of it. So an agent active
       only in the candidate cannot play 0 in b. An agent active only in
       b needs alpha_i + (Z b)_i > -eps there, but that is at most -3E + r
       at the candidate and moves by at most 2qE, which leaves it below
       -eps. So enumeration keeps exactly the candidate.

    The candidate comes from an active-set loop of at most m + 2 small
    solves; any guess would do, since step 4 checks it.
    """
    m = len(j)
    if m == 0:
        return None
    idx = np.array(j, dtype=np.intp)
    z = spec.net.z[idx[:, None], idx]
    alpha = spec.alpha[idx]
    az = np.abs(z)
    v = _weights(az)
    if v is None:
        return None
    with np.errstate(all="ignore"):
        q = (az @ v / v).max() * (1.0 + 2 * (m + 2) * _U)
        if not q < 1.0:
            return None
        # One factor covers the rounding of every bound derived below.
        span = (1.0 + 16 * m * _U) / (1.0 - q)
        bound = v * ((np.abs(alpha) / v).max() * span)
        top = max(1.0, np.abs(alpha).max())
        gamma = 3 * m * _U / (1.0 - 3 * m * _U)
        beta = gamma * m * m * 2.0 ** (m - 1) * max(1.0, az.max())
        r = 2 * (spec.n + 2) * _U * (top + (1.0 + az.sum(axis=1).max()) * 2 * bound.max())
        eps = max(_RESIDUAL_GUARD * top, BOUNDARY_TOL) * (1.0 + 2 * _U) + r
        err = v * (eps / v.min() * span)
        if not (
            beta * v.max() / v.min() * span <= 0.5
            and 2 * beta * bound.max() + r <= _RESIDUAL_GUARD / 2
            and (bound + err < spec.a_max[idx] - CAP_MARGIN).all()
        ):
            return None
    on = alpha > 0
    for _ in range(m + 2):
        k = np.flatnonzero(on)
        a = np.zeros(m)
        a[k] = np.linalg.solve(np.eye(len(k)) - z[k[:, None], k], alpha[k])
        guess = np.where(on, a > 0, alpha + z @ a > 0)
        if (guess == on).all():
            break
        on = guess
    else:
        return None
    acts, _ = _solve_supports(spec, [idx[on][None]])
    if not len(acts):
        return None
    x = aggregate(spec, acts)
    clear = np.where(on, acts[0, idx] - ACTIVE_TOL, -(spec.alpha[idx] + x[0, idx]) - BOUNDARY_TOL)
    if not (clear > 3 * err).all():
        return None
    return acts, x


def solve_auxiliary_ne(spec: GameSpec, candidates: Iterable[int]):
    """All Nash equilibria of the game with agents outside ``candidates``
    clamped to zero.

    Enumerates active subsets K of the candidate set: the interior solution
    on K is accepted when strictly positive (> ACTIVE_TOL), clear of the
    caps (by CAP_MARGIN), and no candidate outside K has a positive
    incentive (> BOUNDARY_TOL) at the profile. Returns (records,
    diagnostics), records sorted by active-set bitmask.

    When ``_certified_ne`` proves that the game on the candidates has one
    equilibrium that enumeration would keep alone, with no singular or
    cap-bound support, that one support is solved instead of all of them;
    the result is the same, and ``diagnostics.certified`` says which path
    ran. A candidate that is not an agent index (an int or np.integer, not
    a bool, in range(n)) raises before any solve.
    """
    j = sorted(map(int, _agent_set(spec.n, candidates, "candidates")))
    runs = _subset_runs(j)  # raises past the enumeration limit, before any solve
    found = _certified_ne(spec, j)
    if found is not None:
        acts, x = found
        diags = SolveDiagnostics(examined=2 ** len(j), certified=True)
    else:
        candidate, kept_x = np.isin(np.arange(spec.n), j), [np.zeros((0, spec.n))]

        def is_nash(acts):
            # A kept profile is zero exactly off its support.
            x = aggregate(spec, acts)
            nash = ~((spec.alpha + x > BOUNDARY_TOL) & (acts == 0.0) & candidate).any(axis=1)
            kept_x.append(x[nash])
            return nash

        acts, diags = _solve_supports(spec, runs, is_nash)
        x = np.concatenate(kept_x)
    declared = frozenset(range(spec.n)) - frozenset(j)
    return _records(spec, acts, x, declared), diags


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
    return _active_records(spec, runs)


@dataclass(frozen=True)
class SceCheck:
    """Verdict of a pointwise selfconfirming-equilibrium test."""

    ok: bool
    violations: tuple = ()  # (agent, reason, magnitude)


def is_sce(spec: GameSpec, actions, conjectures, tol: float = 1e-9) -> SceCheck:
    """Check subjective rationality and confirmation at a profile, to within
    ``tol``: a finite real >= 0, where 0 asks for an exact test.

    Violations are reported per agent: "range" (action or conjecture out of
    bounds, or NaN), "rationality" (action is not the best reply to the
    conjecture), "confirmation" (an active agent's conjecture differs from
    its true aggregate).
    """
    _check_tol(tol)
    _check_agents(spec, actions=actions, conjectures=conjectures)
    a = np.asarray(actions, dtype=float)
    xh = np.asarray(conjectures, dtype=float)
    x = aggregate(spec, a)
    gap = np.abs(a - np.clip(spec.alpha + xh, 0.0, spec.a_max))
    miss = np.abs(xh - x)
    bad = _violations(
        ("range", ~((a >= -tol) & (a <= spec.a_max + tol)), a),
        ("range", ~((xh >= spec.x_lo - tol) & (xh <= spec.x_hi + tol)), xh),
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

    ``solution`` solves (I - Z) a = 1; ``positive`` says whether it is
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


def interior_conditions(net: WeightedNetwork) -> InteriorReport:
    """Evaluate the three sufficient conditions and solve (I - Z) a = 1.

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

    The ``bounded`` entry, the rho of ``negative-limited`` and the
    decomposition and lambda_max of ``symmetrizable-limited`` come from the
    network's cached analysis, as :func:`check_assumption` reads them: on
    symmetrizable Z rho is read off the symmetric spectrum.
    """
    n = net.n
    z = net.z

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
        witness={"max_offdiag": max_off, "row_sum": row_sum, "rho": net._spectrum[0]},
    )

    dec, failure = net._decomposition
    if dec is None:
        cond_sym = ConditionEntry("symmetrizable-limited", holds=False, witness=dict(failure))
    else:
        lam = net._spectrum[1]
        cond_sym = ConditionEntry(
            "symmetrizable-limited",
            holds=bool(nonnegative and abs(lam) < 1.0),
            witness={"lambda_max": lam, "min_offdiag": min_off},
        )

    try:
        sol = np.linalg.solve(np.eye(n) - z, np.ones(n))
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
