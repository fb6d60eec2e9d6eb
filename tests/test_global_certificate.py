"""Soundness of the global solver's "no rest point" certificate.

``global_ext._no_rest_point`` may fire only where no profile passes the
solver's acceptance rule. Two checks hold it to that on every game here:

- it never fires on a game where one of four kernels converges (the
  solver's Newton and its root-map climb, and the tests' damped iteration
  and per-agent Seidel sweeps), on random games, hot corners, n = 20 and
  50, and a ladder around the fold of the rest-point branch;
- every proof it returns is re-derived in exact rational arithmetic
  (``fractions.Fraction``) from the floats the library used: u^T Z >=
  lam u^T, kappa, the bound B, the intercept, each sweep of the lower
  bounds by the sign of the exact quadratic, and the final comparison.
"""

from fractions import Fraction

import numpy as np

from netsce import global_ext, make_global_game
from netsce.global_ext import _climb, _newton_point, _no_rest_point

from test_global_solver import (
    _accepted,
    _battery_game,
    _hot_corner_game,
    reference_damped,
    reference_seidel,
)

KERNEL_BUDGET = 2000
SWEEP = global_ext._sweep_down


def _converges(g, tol):
    """Whether any kernel ends at a profile the solver accepts."""
    alpha = float(g.base.alpha[0])
    for kernel in (_newton_point, reference_damped, reference_seidel, _climb):
        with np.errstate(over="ignore", invalid="ignore"):
            a = kernel(g, alpha, tol, KERNEL_BUDGET)[0]
        if _accepted(g, a, tol):
            return True
    return False


def _certify(g, tol, max_iter, monkeypatch):
    """The certificate's proof of g and its sweeps as (input, output) pairs."""
    chain = []

    def recorded(g, p, low, gam):
        out = SWEEP(g, p, low, gam)
        chain.append((low, out))
        return out

    # Only the certificate's sweeps: the climb that _converges runs later
    # calls the same function.
    with monkeypatch.context() as m:
        m.setattr(global_ext, "_sweep_down", recorded)
        return _no_rest_point(g, float(g.base.alpha[0]), tol, max_iter), chain


def _exact_check(g, tol, proof, chain):
    """Re-derive the proof with exact rationals; every float the library
    rounded must lie on the side the argument needs."""
    n = g.n
    z = [[Fraction(v) for v in row] for row in g.base.net.z.tolist()]
    c = [Fraction(v) for v in g.c.tolist()]
    beta, alpha = Fraction(g.beta), Fraction(float(g.base.alpha[0]))
    u = [Fraction(v) for v in proof.u.tolist()]
    lam, t = Fraction(proof.lam), Fraction(proof.tol)
    kappa, bound = Fraction(proof.kappa), Fraction(proof.bound)
    assert min(u) > 0
    for j in range(n):
        assert sum(u[i] * z[i][j] for i in range(n)) >= lam * u[j]
    assert Fraction(tol) < t <= alpha and t <= beta * min(c)
    assert 0 < kappa <= lam - 1 - t * sum(u) / min(u)
    assert bound >= sum(ui * ((1 + t) / ci - alpha + t) for ui, ci in zip(u, c))
    if proof.low is None:
        assert bound <= 0 and not chain
        return
    assert bound > 0
    top = bound / kappa
    p = Fraction(proof.intercept)
    assert 0 < p <= alpha - t * max(1, top / min(u))
    assert len(chain) == proof.sweeps
    low = [p] * n
    for given, out in chain:
        assert [Fraction(v) for v in given.tolist()] == low
        total = sum(low)
        nxt = [Fraction(v) for v in out.tolist()]
        for i in range(n):
            x = sum(z[i][j] * low[j] for j in range(n))
            y = beta * (total - low[i])
            s = nxt[i]
            # s lies below the positive root: the convex quadratic, negative
            # at 0, is not positive at s
            assert s > 0
            assert c[i] * s * s + (1 - c[i] * (p + x)) * s - (p + c[i] * y) <= 0
        low = nxt
    assert low == [Fraction(v) for v in proof.low.tolist()]
    assert sum(ui * li for ui, li in zip(u, low)) >= top


def _games():
    rng = np.random.default_rng(2024)
    games = [_battery_game(rng, heterogeneous=False) for _ in range(160)]
    games += [_hot_corner_game(rng) for _ in range(30)]
    games += [_battery_game(rng, heterogeneous=False, n=(20, 50)[k % 2]) for k in range(6)]
    return games


def test_certificate_never_fires_where_a_kernel_converges(monkeypatch):
    fired = 0
    for k, g in enumerate(_games()):
        tol = (1e-10, 1e-6)[k % 2]
        proof, chain = _certify(g, tol, 1000, monkeypatch)
        if proof is None:
            continue
        fired += 1
        assert not _converges(g, tol), k
        _exact_check(g, tol, proof, chain)
    assert fired >= 60


def test_certificate_near_the_fold(monkeypatch):
    # Bisect t in c = t c0 on hot corners for the last t at which Newton
    # converges. Just below that fold a rest point exists, and the
    # certificate must not fire; just past it, it must prove that none does.
    rng = np.random.default_rng(3)
    below = past = 0
    for _ in range(5):
        g0 = _hot_corner_game(rng)

        def at(t):
            return make_global_game(g0.base, g0.beta, t * g0.c)

        alpha, lo, hi = float(g0.base.alpha[0]), 0.25, 1.0
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            a = _newton_point(at(mid), alpha, 1e-10, 200)[0]
            lo, hi = (mid, hi) if _accepted(at(mid), a, 1e-10) else (lo, mid)
        for t in (lo * (1 - 1e-6), lo * (1 + 1e-3)):
            g = at(t)
            proof, chain = _certify(g, 1e-10, 1000, monkeypatch)
            if _converges(g, 1e-10):
                assert proof is None
                below += 1
            elif proof is not None:
                _exact_check(g, 1e-10, proof, chain)
                past += 1
    assert below == 5 and past == 5
