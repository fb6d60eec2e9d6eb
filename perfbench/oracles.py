"""Independent re-derivations used to check every benchmark op.

Nothing here calls the netsce function under test: each check recomputes
the answer from the generated inputs (Z, alpha, caps, conjecture bounds,
beta, c) with plain NumPy and compares it with what the program returned.
A check returns None when the output is correct, else a short reason.
"""

from __future__ import annotations

import itertools

import numpy as np

ACTIVE = 1e-9  # an action counts as active strictly above this


def _tol(*arrays) -> float:
    scale = max([1.0] + [float(np.max(np.abs(a))) for a in arrays if np.size(a)])
    return 1e-8 * scale


def check_enumeration(z, alpha, a_max, x_lo, x_hi, ne_out, sce_out, want):
    """NE and SCE records: rationality, confirmation, ranges, kinds, and the
    active sets of both outputs against ``want``, the brute-force
    ``equilibrium_masks`` of the game: (NE sure, NE edge, SCE sure, SCE edge).
    """
    ne, _ = ne_out
    sce, _ = sce_out
    for label, recs in (("ne", ne), ("sce", sce)):
        if not recs:
            continue  # strong feedback can leave no equilibrium clear of the caps
        acts = np.array([r.actions for r in recs])
        conj = np.array([r.conjectures for r in recs])
        x = acts @ z.T
        tol = _tol(acts, conj, x)
        if np.any(acts < -tol) or np.any(acts > a_max + tol):
            return f"{label}: action out of [0, a_max]"
        if np.any(conj < x_lo - tol) or np.any(conj > x_hi + tol):
            return f"{label}: conjecture out of range"
        if np.any(np.abs(acts - np.clip(alpha + conj, 0.0, a_max)) > tol):
            return f"{label}: action is not the best reply to its conjecture"
        active = acts > ACTIVE
        if np.any(active & (np.abs(conj - x) > tol)):
            return f"{label}: active conjecture not confirmed"
        incentive = np.where(active, -np.inf, alpha + x)
        for r, row, act in zip(recs, incentive, active):
            if r.active_set != frozenset(np.flatnonzero(act).tolist()):
                return f"{label}: active set disagrees with actions"
            worst = float(np.max(row))
            if abs(worst - ACTIVE) > 1e-7 * (1.0 + abs(worst)):
                want_kind = "NE" if worst <= ACTIVE else "SCE-non-NE"
                if r.kind != want_kind:
                    return f"{label}: record {r.bitmask} is {r.kind}, expected {want_kind}"
        if len({r.bitmask for r in recs}) != len(recs):
            return f"{label}: duplicate bitmask"
    for label, recs, sure, edge in (("ne", ne, *want[:2]), ("sce", sce, *want[2:])):
        err = compare_masks(label, {r.bitmask for r in recs}, sure, edge)
        if err:
            return err
    if any(r.kind != "NE" or r.declared_inactive for r in ne):
        return "ne: a Nash record is not a plain NE"
    sce_ne = {r.bitmask for r in sce if r.kind == "NE"}
    ne_masks = {r.bitmask for r in ne}
    if ne_masks - sce_ne:
        return f"NE bitmask {min(ne_masks - sce_ne)} missing from the SCE output as kind NE"
    if sce_ne - ne_masks:
        return f"SCE record {min(sce_ne - ne_masks)} of kind NE missing from the NE output"
    return None


def compare_masks(label, got, sure, edge):
    """None when every sure mask was returned and nothing outside sure | edge."""
    if sure - got:
        return f"{label}: equilibrium with active-set bitmask {min(sure - got)} is missing"
    if got - sure - edge:
        return f"{label}: bitmask {min(got - sure - edge)} is not an equilibrium"
    return None


def check_trajectory(z, alpha, a_max, traj, tol, max_iter):
    """Monotone inactive sets; a converged limit's selfconfirmation re-derived."""
    acts = np.asarray(traj.actions)
    if traj.conjectures.shape[0] != acts.shape[0] + 1 or not 1 <= acts.shape[0] <= max_iter:
        return "history lengths inconsistent"
    if traj.classification == "max-iter" and acts.shape[0] != max_iter:
        return "max-iter run stopped early"
    active = acts > 0.0
    if not np.all(active[1:] <= active[:-1]):
        return "an inactive agent became active again"
    if traj.classification != "converged":
        return None
    xh = traj.conjectures[-1]
    a = np.clip(alpha + xh, 0.0, a_max)
    if np.any(np.abs(traj.limit.actions - a) > _tol(a)):
        return "limit actions are not the best reply to the final conjectures"
    gap = np.abs(xh - z @ a)[a > ACTIVE]
    slack = max(1e-9, 100 * tol)
    worst = float(gap.max()) if gap.size else 0.0
    if 0.5 * slack < worst < 2.0 * slack:
        return None  # on the tolerance edge either verdict is right
    if (worst <= slack) != bool(traj.limit_is_sce):
        return f"limit_is_sce={traj.limit_is_sce} but confirmation gap is {worst:.3g}"
    return None


EDGE = 1e-7  # a test this close to its threshold may go either way


def equilibrium_masks(z, alpha, a_max, x_lo, nash):
    """Active-set bitmasks of every NE (``nash``) or SCE, by brute force.

    NE: every active set K whose interior solution of (I - Z_KK) a_K =
    alpha_K is strictly positive, clear of the caps, and leaves no agent
    outside K a positive incentive. SCE: the same without the incentive
    test, over the complements of every subset of the agents that can
    justify inactivity (x_lo_i <= -alpha_i). Returns (sure, edge): the masks
    that pass with room to spare, and those within EDGE of a threshold,
    which a correct solver may keep or drop.
    """
    n = len(alpha)
    if nash:
        supports = [k for r in range(n + 1) for k in itertools.combinations(range(n), r)]
    else:
        i0 = [i for i in range(n) if x_lo[i] <= -alpha[i]]
        supports = [tuple(i for i in range(n) if i not in out)
                    for r in range(len(i0) + 1) for out in itertools.combinations(i0, r)]
    sure, edge = set(), set()
    for act in supports:
        a = np.zeros(n)
        margins = [np.inf]
        if act:
            idx = list(act)
            m = np.eye(len(idx)) - z[np.ix_(idx, idx)]
            try:
                sol = np.linalg.solve(m, alpha[idx])
            except np.linalg.LinAlgError:
                continue  # singular support: no isolated equilibrium
            if not np.all(np.isfinite(sol)) or np.max(np.abs(m @ sol - alpha[idx])) > 1e-7 * max(
                1.0, float(np.max(np.abs(alpha[idx])))
            ):
                continue
            a[idx] = sol
            margins += [float(np.min(sol)) - ACTIVE, float(np.min(a_max[idx] - 1e-6 - sol))]
        if nash and len(act) < n:
            out = [i for i in range(n) if i not in act]
            margins.append(ACTIVE - float(np.max(alpha[out] + z[out] @ a)))
        worst = min(margins)
        mask = sum(1 << i for i in act)
        if worst > EDGE:
            sure.add(mask)
        elif worst >= -EDGE:
            edge.add(mask)
    return sure, edge


STABILITY_HEADER = [
    "bitmask", "active_set", "kind", "verdict", "rho_active", "margin",
    "return_fraction", "belief_stay_fraction", "nonconverged",
]


def check_stability_csv(rows, sure, edge, samples):
    """Parsed ``stability`` CSV against the brute-force SCE set (sure, edge)."""
    if not rows or rows[0] != STABILITY_HEADER:
        return "unexpected CSV header"
    body = rows[1:]
    got = {int(r[0]) for r in body}
    if len(got) != len(body):
        return "duplicate row bitmask"
    err = compare_masks("stability", got, sure, edge)
    if err:
        return f"{len(body)} rows for {len(sure)} SCE records; {err}"
    for r in body:
        ret, stay, nonconv = float(r[6]), float(r[7]), int(r[8])
        if not (0.0 <= ret <= 1.0 and 0.0 <= stay <= 1.0 and 0 <= nonconv <= samples):
            return f"fraction out of [0, 1] in row {r[0]}"
    return None


def check_global(z, alpha, beta, c, sol, tol):
    """H(a) recomputed from the rest-point formula; converged points certified."""
    a = np.asarray(sol.actions, dtype=float)
    if not sol.converged:
        return None
    x = z @ a
    y = beta * (a.sum() - a)
    h = alpha + c * (a * x + y) / (1.0 + c * a) - a
    res = float(np.max(np.abs(h)))
    if not np.all(a > 0.0):
        return "converged point is not strictly positive"
    if not res < (tol + 1e-15) * max(1.0, float(np.max(np.abs(a)))):
        return f"converged point has residual {res:.3g}"
    return None
