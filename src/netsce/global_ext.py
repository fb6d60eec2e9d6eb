"""Games with an unobservable-composition global spillover.

On top of the network payoff each agent receives y_i = beta * sum_{j!=i} a_j
regardless of links. Feedback still reveals only one number (the realized
payoff), so an active agent learns the TOTAL externality a_i*x_i + y_i but
not its split between the local and the global channel. Agents resolve the
ambiguity with a fixed perceived centrality c_i — the ratio x_hat/y_hat they
believe in — which pins the split: conjecture updates keep x_hat = c*y_hat.

The rest points of that updating rule in the all-active regime (common
alpha > 0, nonnegative weights) solve, per agent,

    H_i(a) = alpha + c_i (a_i x_i + y_i) / (1 + c_i a_i) - a_i = 0,

and the positive solution for one coordinate given the others is the
positive root of c a^2 + (1 - c(alpha + x)) a - (alpha + c y) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NumericError, UsageError
from .equilibrium import SceCheck, _check_agents, _violations
from .game import _RANGE_SLACK, GameSpec, _check_stopping, _check_tol, _vec, aggregate
from .network import WeightedNetwork, _freeze, _rebuild

__all__ = [
    "GlobalConjecture",
    "GlobalGameSpec",
    "GlobalSolve",
    "GlobalStep",
    "Homeo2Report",
    "PhiEntry",
    "TrueCentrality",
    "bonacich",
    "check_global_sce",
    "check_homeo2",
    "global_learn_step",
    "make_global_game",
    "phi_map",
    "residual",
    "solve_global_sce",
    "true_centrality",
]


@dataclass(frozen=True)
class GlobalGameSpec:
    """Base game plus global spillover rate and perceived centralities.

    Perceived centralities must be admissible: 0 < c_i <= rowsum_i / beta,
    where rowsum_i is agent i's total incoming weight. (A correct belief
    lies in that range whenever others' actions are nondecreasing in index
    order of magnitude; the upper end is the all-equal-actions ratio.)

    ``y_lo``/``y_hi``, derived and over immutable bytes as ``c`` is:
    [0, beta * sum_{j!=i} a_max_j].
    """

    base: GameSpec
    beta: float
    c: np.ndarray
    y_lo: np.ndarray = field(init=False)
    y_hi: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.base.n
        beta = float(self.beta)
        if not (math.isfinite(beta) and beta > 0):
            raise UsageError("beta must be positive and finite")
        object.__setattr__(self, "beta", beta)
        c = _vec(self.c, n, "c")
        object.__setattr__(self, "c", c)
        # a_max is the base game's checked (n,) vector: only its sum can
        # leave the floats.
        a_max = self.base.a_max
        y_hi = beta * (a_max.sum() - a_max)
        if not np.isfinite(y_hi).all():
            raise UsageError("y_hi must be finite")
        # n float zeros over immutable bytes, without a zeros array to copy
        object.__setattr__(self, "y_lo", np.frombuffer(bytes(8 * n)))
        object.__setattr__(self, "y_hi", _freeze(y_hi))
        low = c <= 0
        if low.any():
            i = int(low.argmax())
            raise UsageError(f"c[{i}] must be strictly positive")
        bound = self.base.net.z.sum(axis=1) / beta
        over = c > bound + _RANGE_SLACK
        if over.any():
            i = int(over.argmax())
            raise UsageError(
                f"c[{i}]={c[i]:.6g} exceeds the admissible bound "
                f"{bound[i]:.6g} (row weight sum over beta)"
            )

    __reduce__ = _rebuild

    @property
    def n(self) -> int:
        return self.base.n


def make_global_game(base: GameSpec, beta: float, c) -> GlobalGameSpec:
    """Build a :class:`GlobalGameSpec`, whose spillover range is derived."""
    return GlobalGameSpec(base=base, beta=beta, c=c)


def _spillover(g: GlobalGameSpec, a: np.ndarray) -> np.ndarray:
    """y_i = beta * sum of others' actions; callers check the length of a."""
    return g.beta * (a.sum() - a)


def _require_learning_regime(g: GlobalGameSpec) -> float:
    """The belief-update ops assume a common positive intercept and
    nonnegative weights; returns the scalar intercept."""
    alpha = g.base.alpha
    if not (np.abs(alpha - alpha[0]) <= 1e-12).all():
        raise UsageError("conjecture updating requires a common intercept alpha")
    if alpha[0] <= 0:
        raise UsageError("conjecture updating requires a positive intercept")
    if np.any(g.base.net.z < 0):
        raise UsageError("conjecture updating requires nonnegative weights")
    return float(alpha[0])


@dataclass(frozen=True)
class GlobalConjecture:
    """An agent-wise belief about the externality split."""

    x_hat: np.ndarray
    y_hat: np.ndarray


def check_global_sce(
    g: GlobalGameSpec, actions, conjecture: GlobalConjecture, tol: float = 1e-9
) -> SceCheck:
    """Selfconfirming test with the two-channel conjecture, to within
    ``tol`` (a finite real >= 0; 0 asks for an exact test).

    Active agents must best-respond to x_hat and believe a payoff equal to
    the realized one, which pins y_hat = y + a (x - x_hat). Inactive agents
    observe exactly y (their network term vanishes), so y_hat must equal y
    and x_hat must justify staying out. An entry outside its bounds, or
    NaN, is a "range" violation.
    """
    _check_tol(tol)
    _check_agents(g.base, actions=actions, x_hat=conjecture.x_hat, y_hat=conjecture.y_hat)
    a = np.asarray(actions, dtype=float)
    xh = np.asarray(conjecture.x_hat, dtype=float)
    yh = np.asarray(conjecture.y_hat, dtype=float)
    x = aggregate(g.base, a)
    y = _spillover(g, a)
    spec = g.base
    active = a > 0
    # Active agents best-respond to x_hat and must believe the realized
    # payoff; inactive ones must justify staying out and observe y exactly.
    rationality = np.where(
        active, np.abs(a - np.clip(spec.alpha + xh, 0.0, spec.a_max)), spec.alpha + xh
    )
    confirmation = np.abs(np.where(active, yh - (y + a * (x - xh)), yh - y))
    bad = _violations(
        ("range", ~((a >= -tol) & (a <= spec.a_max + tol)), a),
        ("range", ~((xh >= spec.x_lo - tol) & (xh <= spec.x_hi + tol)), xh),
        ("range", ~((yh >= g.y_lo - tol) & (yh <= g.y_hi + tol)), yh),
        ("rationality", rationality > tol, rationality),
        ("confirmation", confirmation > tol, confirmation),
    )
    return SceCheck(ok=not bad, violations=bad)


@dataclass(frozen=True)
class TrueCentrality:
    """Realized ratio x/y per agent, with definedness and admissibility."""

    values: np.ndarray  # nan where undefined
    defined: np.ndarray  # bool
    admissible: np.ndarray  # bool; False where undefined


def true_centrality(g: GlobalGameSpec, actions) -> TrueCentrality:
    _check_agents(g.base, actions=actions)
    a = np.asarray(actions, dtype=float)
    x = aggregate(g.base, a)
    y = _spillover(g, a)
    defined = y != 0.0
    values = np.full(g.n, np.nan)
    np.divide(x, y, out=values, where=defined)
    bound = g.base.net.z.sum(axis=1) / g.beta
    admissible = defined & (values > 0) & (values <= bound + _RANGE_SLACK)
    return TrueCentrality(values=values, defined=defined, admissible=admissible)


def bonacich(net: WeightedNetwork, alpha) -> np.ndarray:
    """Action-weighted network centrality: the solution of (I - Z) b = alpha."""
    try:
        return np.linalg.solve(np.eye(net.n) - net.z, _vec(alpha, net.n, "alpha"))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"centrality system is singular: {exc}") from exc


@dataclass(frozen=True)
class GlobalStep:
    actions: np.ndarray
    payoffs: np.ndarray
    x_hat_next: np.ndarray
    y_hat_next: np.ndarray


def _resplit(g: GlobalGameSpec):
    """The re-split map of g, its arrays bound once: at actions a it returns
    x = Z a, the total externality e = a x + y, the divisor d = 1 + c a and
    the local share c e / d. Callers check the learning regime first. ``a``
    may be a (k, n) stack of profiles; each row gets the bits of its own call."""
    z, c, beta, matvec, total = g.base.net.z, g.c, g.beta, np.matvec, np.add.reduce

    def at(a):
        x = matvec(z, a)
        e = a * x + beta * (total(a, -1, keepdims=True) - a)
        d = 1.0 + c * a
        return x, e, d, c * e / d

    return at


def global_learn_step(g: GlobalGameSpec, x_hat) -> GlobalStep:
    """One update of the split conjectures in the all-active regime.

    Agents play a = alpha + x_hat, observe total externality e = a x + y,
    and re-split it along their perceived centrality: the new conjectures
    solve x_hat' = c y_hat' and a x_hat' + y_hat' = e, i.e.
    x_hat' = c e / (1 + c a).
    """
    alpha = _require_learning_regime(g)
    _check_agents(g.base, x_hat=x_hat)
    xh = np.asarray(x_hat, dtype=float)
    a = alpha + xh
    if np.any(a <= 0):
        i = int(np.flatnonzero(a <= 0)[0])
        raise UsageError(
            f"conjecture x_hat[{i}]={xh[i]:.6g} drives agent {i} inactive; "
            "the updating rule is defined for active profiles only"
        )
    _, e, d, x_next = _resplit(g)(a)
    y_next = e / d
    v = g.base.alpha * a - 0.5 * a * a + e
    return GlobalStep(actions=a, payoffs=v, x_hat_next=x_next, y_hat_next=y_next)


def residual(g: GlobalGameSpec, actions) -> np.ndarray:
    """Fixed-point defect H(a) of the rest-point system, per agent."""
    alpha = _require_learning_regime(g)
    _check_agents(g.base, actions=actions)
    a = np.asarray(actions, dtype=float)
    return alpha + _resplit(g)(a)[3] - a


@dataclass(frozen=True)
class Homeo2Report:
    """Per-agent check of the contraction window of the update map.

    Agent i passes when 0 < c_i beta (n-1) < rowsum_i < 2. The report is a
    diagnostic of the game: no solver reads it.
    """

    lhs: np.ndarray  # c * beta * (n - 1)
    row_sums: np.ndarray
    per_agent: np.ndarray  # bool
    holds: bool


def check_homeo2(g: GlobalGameSpec) -> Homeo2Report:
    _require_learning_regime(g)
    lhs = g.c * g.beta * (g.n - 1)
    row_sums = g.base.net.z.sum(axis=1)
    per_agent = (lhs > 0) & (lhs < row_sums) & (row_sums < 2.0)
    return Homeo2Report(
        lhs=lhs, row_sums=row_sums, per_agent=per_agent, holds=bool(per_agent.all())
    )


@dataclass(frozen=True)
class GlobalSolve:
    """A solved (or best-effort) rest point of the split-belief dynamics.

    ``method`` names the kernel whose actions are returned: "newton" or
    "jacobi" (``_climb``); ``iterations`` sums every kernel that ran.
    ``verdict`` is "converged" when ``converged`` holds, "no_rest_point"
    when a certificate proved that no profile passes the acceptance rule
    (the solve then stops after Newton), and "undetermined" otherwise.
    """

    actions: np.ndarray
    x_hat: np.ndarray
    y_hat: np.ndarray
    residual: float
    iterations: int
    method: str
    converged: bool
    verdict: str


def _jacobian(g, a, x, e, d):
    """The Jacobian of H at a, from x, e and d of ``_resplit`` there:
    dH_i/da_j = c_i (a_i z_ij + beta) / d_i off the diagonal and
    c_i (x_i d_i - c_i e_i) / d_i^2 - 1 on it (z_ii = 0)."""
    c = g.c
    jac = (c / d)[:, None] * (a[:, None] * g.base.net.z + g.beta)
    jac.flat[:: g.n + 1] = c * (x * d - c * e) / (d * d) - 1.0
    return jac


#: 2^-1 .. 2^-40: the halvings t 2^-k of a step length t <= 1 pass 1e-12
#: by k = 40, and each is exact.
_HALVINGS = np.ldexp(1.0, -np.arange(1, 41))


def _newton_point(g, alpha, tol, max_iter, start=None):
    """Newton's method on H(a) = 0 with the analytic Jacobian, from a
    positive ``start`` or else the common base payoff intercept, which keeps
    it on the small-action branch when the system has several solutions.

    A step s starts at t0 = min(1, 0.99 / max_i(-s_i / a_i)), which keeps 1 %
    of every action, so a stays in the dynamics' domain a > 0. t halves from
    t0 while t > 1e-12 until f = |H|^2 / 2 passes Armijo's test
    f(a) - f(a + t s) > 2e-4 t f(a) (the slope of f along s is -2 f; an
    overflowed f passes no t), else the solve stops. t0 is tried alone; the
    other halvings are evaluated as one stack and the largest passing t wins.

    Returns every kernel's (a, iterations, ok), then ``_resplit``'s bits of
    (x, e, d, c e / d) and the defect H at a, for the solve and ``_climb``.
    """
    resplit, top, total = _resplit(g), np.maximum.reduce, np.add.reduce
    a = np.full(g.n, alpha) if start is None else start
    parts = resplit(a)
    x, e, d, x_next = parts
    h = alpha + x_next - a
    f = 0.5 * total(h * h, -1)
    for k in range(min(max_iter, 200)):
        if top(np.abs(h)) < tol * max(1.0, top(np.abs(a))):
            return a, k + 1, True, parts, h
        try:
            step = np.linalg.solve(_jacobian(g, a, x, e, d), -h)
        except np.linalg.LinAlgError:
            return a, k + 1, False, parts, h
        shrink = top(-step / a)
        t = 0.99 / shrink if shrink > 0.99 else 1.0
        if not t > 1e-12:
            return a, k + 1, False, parts, h
        cand = a + t * step
        cand_parts = resplit(cand)
        h_cand = alpha + cand_parts[3] - cand
        f_cand = 0.5 * total(h_cand * h_cand, -1)
        if not f - f_cand > 2e-4 * t * f:
            ts = t * _HALVINGS
            ts = ts[ts > 1e-12]
            cands = a + ts[:, None] * step
            stack = resplit(cands)
            hs = alpha + stack[3] - cands
            fs = 0.5 * total(hs * hs, -1)
            passed = f - fs > 2e-4 * ts * f
            if not passed.any():
                return a, k + 1, False, parts, h
            i = int(passed.argmax())
            cand, h_cand, f_cand = cands[i], hs[i], fs[i]
            cand_parts = tuple(p[i] for p in stack)
        a, h, f, parts = cand, h_cand, f_cand, cand_parts
        x, e, d, _ = parts
    return a, min(max_iter, 200), False, parts, h


#: Shifted power steps on Z^T that pick the certificate's weights u.
_POWER_STEPS = 20


@dataclass(frozen=True)
class _Proof:
    """The numbers behind a "no rest point" verdict; see ``_no_rest_point``.

    ``low`` is the last lower bound of the sweep chain and ``sweeps`` its
    length; with B <= 0 the chain is not needed, and ``intercept`` and
    ``low`` are None.
    """

    u: np.ndarray
    lam: float
    tol: float
    kappa: float
    bound: float
    intercept: float | None
    low: np.ndarray | None
    sweeps: int


def _sweep_down(g, p, low, gam):
    """One Jacobi sweep of the root map at intercept p from the lower bound
    ``low``, rounded down: each input and the root lose a relative gam, and
    b = 1 - c (p + x), which cancels, gains gam (1 + c (p + x)). The
    certificate calls it with its gam, the solver's ``_climb`` with gam = 0."""
    c, beta, down = g.c, g.beta, 1.0 - gam
    x = np.matvec(g.base.net.z, low) * down
    y = np.maximum(beta * (np.add.reduce(low) * down - low) * down, 0.0)
    cx = c * (p + x)
    b = (1.0 - cx) + gam * (1.0 + cx)
    k = (p + c * y) * down
    root = np.sqrt(b * b + 4.0 * c * k)
    # 2k / (b + root) and (root - b) / 2c are the same root; each adds only
    # nonnegative terms on its side of b = 0.
    s = np.where(b > 0.0, 2.0 * k / (b + root), (root - b) / (2.0 * c)) * down
    return np.maximum(low, s)


def _no_rest_point(g, alpha, tol, max_iter):
    """Prove that no profile passes ``solve_global_sce``'s acceptance rule:
    a > 0 whose float residual is below tol max(1, max a). Returns a
    ``_Proof``, or None when the check is undetermined.

    Let H(a) = h at such a profile, M = max a and eps = t max(1, M), where t
    is tol raised by the rounding of the float residual (below). Then
    |h_i| < eps, and with alpha'_i = alpha - h_i,

        a_i - x_i = alpha'_i - 1/c_i + (alpha'_i / c_i + y_i) / a_i.

    **Upper bound.** The last term is >= -t / c_i when t <= alpha and
    t <= beta c_i: it is >= 0 when h_i <= alpha; otherwise eps > alpha >= t,
    so M > 1, and either y_i >= beta M >= eps / c_i (i is not the largest
    agent) or a_i = M and the term is >= -eps / (c_i M) = -t / c_i. Take u > 0
    from a few power steps on Z^T and lam = min_j (u^T Z)_j / u_j, so that
    u^T Z >= lam u^T for this u (Collatz-Wielandt; no eigenvalue solve).
    Weighting by u, with a >= 0 and eps <= t (1 + u^T a / min u),

        kappa u^T a < B,  kappa = lam - 1 - t sum(u) / min(u),
                          B = sum_i u_i ((1 + t) / c_i - alpha + t).

    With kappa > 0, B <= 0 already contradicts u^T a > 0. Otherwise
    u^T a < B / kappa, hence M < B / (kappa min u) and eps < eps_max.

    **Lower bound.** The positive root of c s^2 + (1 - c (p + x_i)) s -
    (p + c y_i) rises with p, x_i and y_i, so the Jacobi root map is
    order-preserving. Every such profile is its fixed point at the agents'
    alpha'_i > p = alpha - eps_max > 0 and lies above p. The sweeps
    l_0 = p, l_{k+1} = max(l_k, root map at p of l_k), rounded down, are
    therefore lower bounds of every such profile (Ortega & Rheinboldt,
    1970, 13.2). The proof ends when kappa u^T l_k >= B.

    **Rounding.** gam = (n + 16) 2^-52 bounds twice over the relative error
    of any n-term sum of nonnegative terms followed by a few operations.
    Every quantity is rounded by gam towards the side the proof needs:
    u^T Z and lam down, t, B and eps_max up, kappa, p and u^T l_k down, and
    each sweep's inputs and root down. t adds to tol the error of the float
    residual at a positive profile, gam (alpha + 1 + max row sum of Z +
    n beta max c) max(1, M).

    Undetermined: t too large for the conditions above, kappa <= 0, p <= 0,
    a sweep that does not raise u^T l_k (the iterates stall below a rest
    point) or leaves the floats, or ``max_iter`` sweeps without a proof.
    """
    z, c, beta, n = g.base.net.z, g.c, g.beta, g.n
    gam = (n + 16) * 2.0**-52
    down, up = 1.0 - gam, 1.0 + gam
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = np.ones(n)
        for _ in range(_POWER_STEPS):
            u = u + np.matvec(z.T, u)  # (I + Z)^T u stays positive
            u /= np.maximum.reduce(u)
        lam = float(np.min(np.matvec(z.T, u) / u)) * down
        rows, cmax, cmin = float(np.max(z.sum(axis=1))), float(c.max()), float(c.min())
        t = (float(tol) + gam * (alpha + 1.0 + rows + n * beta * cmax)) * up
        if not (t <= alpha and t <= beta * cmin * down and lam < math.inf):
            return None
        umin, usum = float(u.min()), float(u.sum()) * up
        slack = t * usum / umin * up
        kappa = (lam - 1.0 - slack) - gam * (lam + 1.0 + slack)
        if not kappa > 0.0:
            return None
        terms = u * ((1.0 + t) / c - alpha + t)
        size = u * ((1.0 + t) / c + alpha + t)
        bound = float(terms.sum()) + gam * float(size.sum())
        if not bound < math.inf:
            return None
        if bound <= 0.0:
            return _Proof(u, lam, t, kappa, bound, None, None, 0)
        top = bound / kappa * up
        p = (alpha - t * max(1.0, top / umin * up) * up) * down
        if not p > 0.0:
            return None
        low = np.full(n, p)
        reached = float(u @ low) * down
        for k in range(max_iter):
            low = _sweep_down(g, p, low, gam)
            last, reached = reached, float(u @ low) * down
            if not (last < reached < math.inf):
                return None
            if reached >= top:
                return _Proof(u, lam, t, kappa, bound, p, low, k + 1)
    return None


def _climb(g, alpha, tol, max_iter):
    """The solve's fallback: Jacobi sweeps of the root map from alpha in
    blocks of 8, 16, 32, ... (each 8 more than all before it), each block
    followed by ``_newton_point`` from its last sweep. It stops at the first
    Newton point the solve accepts, at a sweep that leaves the floats or
    passes 1e12 (returning the sweep before), or when its sweeps reach
    ``max_iter``; ``iterations`` counts sweeps and Newton steps."""
    top, a = np.maximum.reduce, np.full(g.n, alpha)
    sweeps = steps = 0
    while sweeps < max_iter:
        with np.errstate(divide="ignore"):  # in the root branch np.where drops
            for _ in range(min(sweeps + 8, max_iter - sweeps)):
                nxt = _sweep_down(g, alpha, a, 0.0)
                sweeps += 1
                if not top(nxt) <= 1e12:
                    return a, sweeps + steps, False
                a = nxt
        point, k, _, _, h = _newton_point(g, alpha, tol, max_iter, a)
        steps += k
        if top(np.abs(h)) < tol * max(1.0, top(np.abs(point))):
            return point, sweeps + steps, True
    return point, sweeps + steps, False


def solve_global_sce(
    g: GlobalGameSpec, tol: float = 1e-10, max_iter: int = 100_000
) -> GlobalSolve:
    """Solve the rest-point system of the split-belief dynamics.

    A profile is accepted when it is strictly positive, the domain on which
    the update rule is defined, and its residual max |H_i| is below ``tol``
    scaled by the action size. Newton's method with the analytic Jacobian
    and a line search on the rest-point defect runs first (a few steps
    wherever it converges). When its point is not accepted, a certificate
    (``_no_rest_point``) tries to prove that no profile can be; if it does,
    the solve returns Newton's point with ``verdict="no_rest_point"``.
    Otherwise ``_climb``'s Jacobi root sweeps run from alpha, rising to the
    least rest point when one exists, with Newton from each block's last
    sweep. The solve stops at the first accepted point; unaccepted, it
    returns the kernel with the smaller residual. ``iterations`` sums both
    kernels (the certificate's sweeps are not counted).
    """
    _check_stopping(tol, max_iter)
    alpha = _require_learning_regime(g)
    top = np.maximum.reduce

    def scored(a, h):
        res = float(top(np.abs(h)))
        if not math.isfinite(res):
            res = math.inf
        return res, bool((a > 0.0).all()) and res < tol * max(1.0, float(top(np.abs(a))))

    with np.errstate(over="ignore", invalid="ignore"):
        a, total, _, parts, h = _newton_point(g, alpha, tol, max_iter)
        name, (res, accepted) = "newton", scored(a, h)
        proved = not accepted and _no_rest_point(g, alpha, tol, max_iter) is not None
        if not (accepted or proved):
            ja, iters, _ = _climb(g, alpha, tol, max_iter)
            total += iters
            jparts = _resplit(g)(ja)
            jres, jaccepted = scored(ja, alpha + jparts[3] - ja)
            if jaccepted or jres < res:
                name, a, parts, res, accepted = "jacobi", ja, jparts, jres, jaccepted
        _, e, d, x_hat = parts
        y_hat = e / d
    return GlobalSolve(
        actions=a,
        x_hat=x_hat,
        y_hat=y_hat,
        residual=res,
        iterations=total,
        method=name,
        converged=accepted,
        verdict="converged" if accepted else "no_rest_point" if proved else "undetermined",
    )


@dataclass(frozen=True)
class PhiEntry:
    """One point of the centrality-to-action map."""

    c: np.ndarray
    solve: GlobalSolve


def phi_map(
    base: GameSpec,
    beta: float,
    c_grid: Iterable,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple:
    """Solve the rest-point system along a grid of perceived centralities."""
    entries = []
    for c in c_grid:
        g = make_global_game(base, beta, c)
        entries.append(PhiEntry(c=g.c, solve=solve_global_sce(g, tol=tol, max_iter=max_iter)))
    return tuple(entries)
