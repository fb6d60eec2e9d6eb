"""The global rest-point solver against its per-step-validated predecessor.

``reference_solve`` is the earlier driver: every learn step and every
residual re-checks the learning regime, the re-split c e / (1 + c a) is
written out at each use, ``reference_seidel`` sweeps with NumPy scalars and
``reference_newton`` builds its Jacobian and runs its line search in plain
loops. ``solve_global_sce``, its two kernels, ``residual`` and
``global_learn_step`` must reproduce it bit for bit, warnings included, on
a seeded battery and through the CLI. ``reference_damped``, the update map
averaged with the identity, catches ``UsageError`` to stop; the library no
longer runs it, and it stays as a third kernel for the oracles that ask
whether any kernel converges.

When Newton fails, the reference asks the library's certificate
``_no_rest_point`` whether any rest point can pass, and stops after Newton
when it proves none, as the solver does; the certificate's soundness is
tested against the kernels and an exact rational re-derivation in
``test_global_certificate.py``, not here.

``parent_solve`` is the cascade as it was before Newton used the analytic
Jacobian and led: a quasi-Newton step, tried last, after plain iteration
inside the contraction window and damped iteration. Every game it solves
must still be solved, at the same rest point. Both drivers stop at the
first kernel whose point the solve accepts.
"""

import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from netsce import (
    UsageError,
    WeightedNetwork,
    check_homeo2,
    global_learn_step,
    make_game,
    make_global_game,
    residual,
    solve_global_sce,
)
from netsce import cli, global_ext
from netsce.cli import main
from netsce.game import aggregate
from netsce.global_ext import (
    GlobalSolve,
    GlobalStep,
    _jacobian,
    _newton_point,
    _no_rest_point,
    _require_learning_regime,
    _resplit,
    _seidel,
)

from conftest import SCENARIO_DIR


# --------------------------------------------------------------- references


def reference_spillover(g, a):
    return g.beta * (a.sum() - a)


def reference_learn_step(g, x_hat):
    alpha = _require_learning_regime(g)
    xh = np.asarray(x_hat, dtype=float)
    a = alpha + xh
    if np.any(a <= 0):
        i = int(np.flatnonzero(a <= 0)[0])
        raise UsageError(
            f"conjecture x_hat[{i}]={xh[i]:.6g} drives agent {i} inactive; "
            "the updating rule is defined for active profiles only"
        )
    x = aggregate(g.base, a)
    y = reference_spillover(g, a)
    e = a * x + y
    x_next = g.c * e / (1.0 + g.c * a)
    y_next = e / (1.0 + g.c * a)
    v = g.base.alpha * a - 0.5 * a * a + e
    return GlobalStep(actions=a, payoffs=v, x_hat_next=x_next, y_hat_next=y_next)


def reference_residual(g, actions):
    alpha = _require_learning_regime(g)
    a = np.asarray(actions, dtype=float)
    x = aggregate(g.base, a)
    y = reference_spillover(g, a)
    return alpha + g.c * (a * x + y) / (1.0 + g.c * a) - a


def reference_iterate(g, damping, tol, max_iter):
    xh = np.zeros(g.n)
    for k in range(max_iter):
        try:
            step = reference_learn_step(g, xh)
        except UsageError:
            return xh, k + 1, False
        new = (1.0 - damping) * xh + damping * step.x_hat_next
        if not np.all(np.isfinite(new)) or float(np.max(np.abs(new))) > 1e12:
            return xh, k + 1, False
        if float(np.max(np.abs(new - xh))) < tol:
            return new, k + 1, True
        xh = new
    return xh, max_iter, False


def reference_damped(g, alpha, tol, max_iter):
    xh, iters, ok = reference_iterate(g, 0.5, tol, max_iter)
    return alpha + xh, iters, ok


def reference_seidel(g, alpha, tol, max_iter):
    z = g.base.net.z
    a = np.full(g.n, alpha)
    for k in range(max_iter):
        prev = a.copy()
        for i in range(g.n):
            x_i = float(z[i] @ a)
            y_i = g.beta * (a.sum() - a[i])
            ci = g.c[i]
            b2 = 1.0 - ci * (alpha + x_i)
            const = alpha + ci * y_i
            disc = b2 * b2 + 4.0 * ci * const
            if not np.isfinite(disc) or disc < 0.0:
                return prev, k + 1, False
            a[i] = (-b2 + np.sqrt(disc)) / (2.0 * ci)
        if float(np.max(np.abs(a))) > 1e12:
            return a, k + 1, False
        if float(np.max(np.abs(a - prev))) < tol:
            return a, k + 1, True
    return a, max_iter, False


def reference_newton(g, alpha, tol, max_iter):
    z, c, beta = g.base.net.z, g.c, g.beta
    n = g.n
    a = np.full(n, alpha)
    h = reference_residual(g, a)
    f = 0.5 * np.add.reduce(h * h, -1)
    for k in range(min(max_iter, 200)):
        if float(np.max(np.abs(h))) < tol * max(1.0, float(np.max(np.abs(a)))):
            return a, k + 1, True
        x = aggregate(g.base, a)
        e = a * x + reference_spillover(g, a)
        d = 1.0 + c * a
        jac = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    jac[i, j] = c[i] * (x[i] * d[i] - c[i] * e[i]) / (d[i] * d[i]) - 1.0
                else:
                    jac[i, j] = c[i] / d[i] * (a[i] * z[i, j] + beta)
        try:
            step = np.linalg.solve(jac, -h)
        except np.linalg.LinAlgError:
            return a, k + 1, False
        shrink = np.max(-step / a)
        t = 0.99 / shrink if shrink > 0.99 else 1.0
        while t > 1e-12:
            cand = a + t * step
            h_cand = reference_residual(g, cand)
            f_cand = 0.5 * np.add.reduce(h_cand * h_cand, -1)
            if f - f_cand > 2e-4 * t * f:
                a, h, f = cand, h_cand, f_cand
                break
            t *= 0.5
        else:
            return a, k + 1, False
    return a, min(max_iter, 200), False


def parent_newton(g, alpha, tol, max_iter):
    z = g.base.net.z
    n = g.n
    a = np.full(n, alpha)
    h = reference_residual(g, a)
    for k in range(min(max_iter, 200)):
        norm = float(np.max(np.abs(h)))
        if norm < tol * max(1.0, float(np.max(np.abs(a)))):
            return a, k + 1, True
        x = aggregate(g.base, a)
        y = reference_spillover(g, a)
        e = a * x + y
        d = 1.0 + g.c * a
        jac = (g.c / (d * d))[:, None] * (a[:, None] * z + g.beta * (1.0 - np.eye(n)))
        jac += np.diag(g.c * (x * d - g.c * e) / (d * d) - 1.0)
        try:
            step = np.linalg.solve(jac, -h)
        except np.linalg.LinAlgError:
            return a, k + 1, False
        t = 1.0
        while t > 1e-12:
            cand = a + t * step
            if np.all(cand > 0.0):
                h_cand = reference_residual(g, cand)
                if float(np.max(np.abs(h_cand))) < norm:
                    a, h = cand, h_cand
                    break
            t *= 0.5
        else:
            return a, k + 1, False
    return a, min(max_iter, 200), False


def _cascade(g, tol, max_iter, order, newton, certify):
    alpha = _require_learning_regime(g)
    attempts = {
        "iterate": lambda: reference_iterate(g, 1.0, tol, max_iter),
        "damped": lambda: reference_damped(g, alpha, tol, max_iter),
        "seidel": lambda: reference_seidel(g, alpha, tol, max_iter),
        "newton": lambda: newton(g, alpha, tol, max_iter),
    }
    total = 0
    best = None
    proved = False
    for name in order:
        with np.errstate(over="ignore", invalid="ignore"):
            out, iters, _ = attempts[name]()
        total += iters
        a = alpha + out if name == "iterate" else out
        with np.errstate(invalid="ignore"):
            res = float(np.max(np.abs(reference_residual(g, a))))
        if not np.isfinite(res):
            res = float("inf")
        if best is None or res < best[1]:
            best = (a, res, name)
        if np.all(a > 0.0) and res < tol * max(1.0, float(np.max(np.abs(a)))):
            best = (a, res, name)
            break
        if certify and name == "newton" and _no_rest_point(g, alpha, tol, max_iter):
            proved = True
            break

    a, res, name = best
    x = aggregate(g.base, a)
    y = reference_spillover(g, a)
    e = a * x + y
    with np.errstate(invalid="ignore", over="ignore"):
        x_hat = g.c * e / (1.0 + g.c * a)
        y_hat = e / (1.0 + g.c * a)
    good = bool(np.all(a > 0.0)) and res < tol * max(1.0, float(np.max(np.abs(a))))
    return GlobalSolve(
        actions=a,
        x_hat=x_hat,
        y_hat=y_hat,
        residual=res,
        iterations=total,
        method=name,
        converged=good,
        verdict="converged" if good else "no_rest_point" if proved else "undetermined",
    )


def reference_solve(g, tol=1e-10, max_iter=100_000):
    order = ("newton", "seidel")
    return _cascade(g, tol, max_iter, order, reference_newton, certify=True)


def parent_solve(g, tol=1e-10, max_iter=100_000):
    window = check_homeo2(g).holds
    order = (["iterate"] if window else []) + ["damped", "seidel", "newton"]
    return _cascade(g, tol, max_iter, order, parent_newton, certify=False)


# Each kernel of the library's cascade and the reference kernel it must
# reproduce; all take (g, alpha, tol, max_iter) and return (a, iterations,
# ok) first (``_newton_point`` also returns its point's re-split and defect).
KERNELS = {
    "newton": (_newton_point, reference_newton),
    "seidel": (_seidel, reference_seidel),
}
METHODS = tuple(KERNELS)


# ------------------------------------------------------------------ battery


def _outcome(fn, *args, **kwargs):
    """(result or error text, warnings as (category, message) pairs)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except UsageError as exc:
            result = ("UsageError", str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _fields(value):
    if isinstance(value, GlobalSolve):
        return (
            value.actions.tobytes(),
            value.x_hat.tobytes(),
            value.y_hat.tobytes(),
            repr(value.residual),
            value.iterations,
            value.method,
            value.converged,
            value.verdict,
        )
    if isinstance(value, GlobalStep):
        return tuple(
            v.tobytes() for v in (value.actions, value.payoffs, value.x_hat_next, value.y_hat_next)
        )
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value


def _battery_game(rng, heterogeneous, n=None):
    """A nonnegative network of random density and heat with admissible c."""
    n = int(rng.integers(2, 7)) if n is None else n
    z = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.4, 1.0))
    np.fill_diagonal(z, 0.0)
    z[np.arange(n), (np.arange(n) + 1) % n] += 0.05  # every row sum positive
    z *= rng.uniform(0.1, 2.5) / z.sum(axis=1).max()
    alpha = float(rng.uniform(0.05, 1.0))
    if heterogeneous:
        alpha = alpha * (1.0 + rng.uniform(0.1, 1.0, n))
    base = make_game(WeightedNetwork(z=z), alpha=alpha, a_max=float(rng.choice([50.0, 1e6])))
    beta = float(rng.uniform(0.1, 1.5))
    c = rng.uniform(0.05, 1.0, n) * z.sum(axis=1) / beta
    return make_global_game(base, beta=beta, c=c)


def _hot_corner_game(rng):
    """A hot grid point of perfbench's global_sweep: n = 3..5, row sums in
    [0.8, 1.8] and c = u r / (n - 1) with u in [0.85, 0.98], where the
    rest-point branch folds and every method fails."""
    n = int(rng.integers(3, 6))
    r = rng.uniform(0.8, 1.8, n)
    w = rng.uniform(0.2, 1.0, (n, n))
    np.fill_diagonal(w, 0.0)
    z = w / w.sum(axis=1, keepdims=True) * r[:, None]
    base = make_game(WeightedNetwork(z=z), alpha=float(rng.uniform(0.05, 0.5)), a_max=50.0)
    return make_global_game(base, beta=1.0, c=rng.uniform(0.85, 0.98, n) * r / (n - 1))


def _compare(g, tol, max_iter):
    """The solve of g and each kernel's run on it against the reference;
    returns the reference solve and the reference kernel outcomes
    (a, iterations, ok) by name, none where the regime check fails."""
    got, got_warn = _outcome(solve_global_sce, g, tol=tol, max_iter=max_iter)
    solve, ref_warn = _outcome(reference_solve, g, tol=tol, max_iter=max_iter)
    assert _fields(got) == _fields(solve)
    assert got_warn == ref_warn
    if not isinstance(solve, GlobalSolve):
        return solve, {}
    alpha = _require_learning_regime(g)
    runs = {}
    for name, (kernel, ref_kernel) in KERNELS.items():
        # as in the solve, overflow and invalid values are the kernels' stop signals
        with np.errstate(over="ignore", invalid="ignore"):
            got, got_warn = _outcome(kernel, g, alpha, tol, max_iter)
            ref, ref_warn = _outcome(ref_kernel, g, alpha, tol, max_iter)
        assert (got[0].tobytes(),) + got[1:3] == (ref[0].tobytes(),) + ref[1:], name
        assert got_warn == ref_warn, name
        runs[name] = ref
    return solve, runs


def _accepted(g, a, tol):
    """The solve's verdict on a kernel's actions: a positive profile whose
    residual is below tol scaled by the action size."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.max(np.abs(reference_residual(g, a))))
    return bool(np.all(a > 0.0)) and res < tol * max(1.0, float(np.max(np.abs(a))))


def _compare_steps(g, rng):
    """The public per-step operations, at random profiles of both signs."""
    for _ in range(3):
        x_hat = rng.uniform(-0.5 * g.base.alpha[0] - 0.2, 2.0, g.n)
        for fn, ref_fn, arg in (
            (global_learn_step, reference_learn_step, x_hat),
            (residual, reference_residual, g.base.alpha[0] + x_hat),
        ):
            got, got_warn = _outcome(fn, g, arg)
            ref, ref_warn = _outcome(ref_fn, g, arg)
            assert _fields(got) == _fields(ref)
            assert got_warn == ref_warn


def _budget(method, max_iter):
    return min(max_iter, 200) if method == "newton" else max_iter


def test_solver_matches_reference_bit_for_bit():
    rng = np.random.default_rng(20240605)
    winners, nonconverged, exhausted, errors = Counter(), 0, 0, 0
    for k in range(240):
        g = _battery_game(rng, heterogeneous=k % 12 == 0)
        max_iter = (1, 3, 50, 1000)[k % 4]
        tol = (1e-10, 1e-6)[(k // 4) % 2]
        solve, runs = _compare(g, tol, max_iter)
        if not isinstance(solve, GlobalSolve):
            errors += 1
            assert "common intercept" in solve[1]
        elif solve.converged:
            winners[solve.method] += 1
        for name, (a, iters, _) in runs.items():
            if not _accepted(g, a, tol):
                if iters == _budget(name, max_iter):
                    exhausted += 1
                else:
                    nonconverged += 1
        _compare_steps(g, rng)
    assert winners == {"newton": 107, "seidel": 6}
    assert nonconverged > 0 and exhausted > 0
    assert errors == 20

    # Hot corners: every kernel fails, and each one also stops early
    # (blow-up, a bad discriminant, an exhausted line search) on some game.
    early = set()
    for k in range(24):
        g = _hot_corner_game(rng)
        max_iter = (50, 300)[k % 2]
        tol = (1e-10, 1e-6)[(k // 2) % 2]
        solve, runs = _compare(g, tol, max_iter)
        assert not solve.converged, k
        for name, (a, iters, _) in runs.items():
            assert not _accepted(g, a, tol), (k, name)
            if iters < _budget(name, max_iter):
                early.add(name)
    assert early >= set(METHODS)

    # n = 20 and 50: the profile sums run NumPy's blocked pairwise summation.
    for k in range(6):
        g = _battery_game(rng, heterogeneous=False, n=(20, 50)[k % 2])
        _compare(g, 1e-10, (3, 50)[(k // 2) % 2])

    # Weights near the float limit: the first step overflows to inf, or to
    # nan through inf / inf, and every kernel must stop on it. Newton alone
    # starts from the defect itself, which is still finite (about 1e149) at
    # weights of 1e150 and alpha = 1; there its first step lowers the
    # defect. The reference computes some overflowing terms twice (1 + c a
    # in its learn step, the winning re-split after its solve), so it warns
    # more often than the library; here values are compared with warnings
    # silenced.
    for k in range(8):
        g = _battery_game(rng, heterogeneous=False)
        scale = (1e150, 1e300)[k % 2]
        alpha = (1.0, 1e10, 1e100, 1e200)[k // 2]
        base = make_game(WeightedNetwork(z=g.base.net.z * scale), alpha=alpha, a_max=1.0)
        g = make_global_game(base, beta=g.beta, c=g.c * scale)
        with np.errstate(over="ignore", invalid="ignore"):
            solve, runs = _compare(g, 1e-10, 50)
            _compare_steps(g, rng)
            start = float(np.max(np.abs(reference_residual(g, np.full(g.n, alpha)))))
            newton_end = float(np.max(np.abs(reference_residual(g, runs["newton"][0]))))
        assert not solve.converged
        for name, (a, iters, _) in runs.items():
            assert not _accepted(g, a, 1e-10)
            if name == "newton" and np.isfinite(start):
                assert iters > 1 and newton_end < start
            else:
                assert iters == 1


def _central_differences(g, a):
    """Column j: (H(a + h_j e_j) - H(a - h_j e_j)) / (2 h_j), h_j = 1e-6 max(1, a_j)."""
    cols = []
    for j in range(g.n):
        h = 1e-6 * max(1.0, a[j])
        up, down = a.copy(), a.copy()
        up[j] += h
        down[j] -= h
        cols.append((residual(g, up) - residual(g, down)) / (up[j] - down[j]))
    return np.column_stack(cols)


def test_newton_matrix_is_the_jacobian():
    # Central differences err by O(h^2) from the third derivative and by
    # O(eps |H| / h) from rounding, both far below 1e-6 of the entries here;
    # a matrix with an extra 1 / d_i off the diagonal misses by about 0.26.
    rng = np.random.default_rng(31)
    games = [_battery_game(rng, heterogeneous=False) for _ in range(40)]
    games += [_hot_corner_game(rng) for _ in range(10)]
    for g in games:
        resplit = _resplit(g)
        for a in (np.full(g.n, g.base.alpha[0]), rng.uniform(0.05, 3.0, g.n)):
            jac = _jacobian(g, a, *resplit(a)[:3])
            gap = np.max(np.abs(jac - _central_differences(g, a)))
            assert gap <= 1e-6 * max(1.0, np.max(np.abs(jac)))


def test_no_rest_point_of_the_parent_cascade_is_lost():
    # Newton now leads auto; every game the quasi-Newton-last cascade solved
    # must still be solved, and at the same rest point: with J the Jacobian
    # at the new point and r the residuals, |a_new - a_old| is at most
    # 2 |J^-1| (r_old + r_new) in the max norm for nearby regular zeros.
    rng = np.random.default_rng(12345)
    games = [_battery_game(rng, heterogeneous=False) for _ in range(120)]
    rng = np.random.default_rng(7)
    games += [_hot_corner_game(rng) for _ in range(8)]
    solved = 0
    for g in games:
        old = parent_solve(g, max_iter=500)
        new = solve_global_sce(g, max_iter=500)
        if not old.converged:
            continue
        solved += 1
        assert new.converged
        jac = _jacobian(g, new.actions, *_resplit(g)(new.actions)[:3])
        bound = 2.0 * np.linalg.norm(np.linalg.inv(jac), np.inf) * (old.residual + new.residual)
        assert np.max(np.abs(new.actions - old.actions)) <= bound
    assert solved == 79


def test_resplit_stack_rows_equal_their_own_calls():
    # The line search evaluates its halvings as one (k, n) stack and takes a
    # row of it as the next iterate, so every row must carry the bits of its
    # own one-profile call, through matvec and NumPy's blocked pairwise sums.
    # _resplit reads only z, c and beta, so a bare namespace stands in for
    # the game and n = 1 is covered too.
    rng = np.random.default_rng(5)
    for n in range(1, 201):
        z = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(z, 0.0)
        g = SimpleNamespace(
            base=SimpleNamespace(net=SimpleNamespace(z=z)), c=rng.uniform(0.01, 1.0, n), beta=0.7
        )
        resplit = _resplit(g)
        a, step = rng.uniform(0.05, 3.0, n), rng.normal(0.0, 1.0, n)
        stack = a + np.array([0.5, 0.25, 0.125, 2.0**-39])[:, None] * step
        stack = np.vstack([stack, rng.uniform(0.05, 3.0, (3, n))])
        rows = resplit(stack)
        for i, profile in enumerate(stack):
            assert [part[i].tobytes() for part in rows] == [
                part.tobytes() for part in resplit(profile)
            ], (n, i)


def test_regime_is_checked_once_per_solve(monkeypatch):
    # The game of test_solver_rejects_nonpositive_rest_points: Newton fails
    # and the certificate proves that no rest point passes. In the second
    # game rho(Z) = 1.001, too close to 1 for the certificate to finish in
    # 1000 sweeps, so every kernel runs, none converges and the solve takes
    # hundreds of steps.
    z = np.array(
        [
            [0.0, 0.62, 0.55, 0.48],
            [0.33, 0.0, 0.29, 0.24],
            [0.5, 0.45, 0.0, 0.55],
            [0.38, 0.34, 0.41, 0.0],
        ]
    )
    base = make_game(WeightedNetwork(z=z), alpha=np.full(4, 0.25), a_max=50.0)
    proved = make_global_game(base, beta=1.0, c=0.42)
    base = make_game(WeightedNetwork(z=0.5005 * (np.ones((3, 3)) - np.eye(3))), alpha=0.12)
    open_game = make_global_game(base, beta=1.0, c=0.6)
    calls = []

    def counted(spec):
        calls.append(spec)
        return _require_learning_regime(spec)

    monkeypatch.setattr(global_ext, "_require_learning_regime", counted)
    out = solve_global_sce(proved, max_iter=1000)
    assert not out.converged and out.verdict == "no_rest_point"
    assert len(calls) == 1
    out = solve_global_sce(open_game, max_iter=1000)
    assert not out.converged and out.verdict == "undetermined"
    assert out.iterations > 100
    assert len(calls) == 2


def test_an_accepted_newton_point_at_its_budget_ends_the_solve(monkeypatch, capsys):
    # Newton can spend its last step landing on a point it never checks; the
    # solve accepts that point, so neither the certificate nor Seidel runs.
    calls = Counter()

    def counted(name):
        kernel = getattr(global_ext, name)

        def run(*args):
            calls[name] += 1
            return kernel(*args)

        return run

    for name in ("_no_rest_point", "_seidel"):
        monkeypatch.setattr(global_ext, name, counted(name))
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        g = _battery_game(rng, heterogeneous=False)
        alpha = float(g.base.alpha[0])
        _, steps, ok = _newton_point(g, alpha, 1e-10, 200)[:3]
        if not ok or steps < 2:
            continue
        a, iters, ok = _newton_point(g, alpha, 1e-10, steps - 1)[:3]
        assert not ok and iters == steps - 1 and _accepted(g, a, 1e-10)
        out = solve_global_sce(g, max_iter=steps - 1)
        assert (out.method, out.iterations, out.verdict) == ("newton", steps - 1, "converged")
        checked += 1
    assert checked >= 5

    code = main(["global-sce", "-i", str(SCENARIO_DIR / "global_line.json"), "--max-iter", "3"])
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert code == 0 and len(rows) == 3
    assert all(row[6:] == ["3", "newton", "true"] for row in rows)
    assert not calls

    # The counters see both when Newton's point is not accepted.
    base = make_game(WeightedNetwork(z=0.5005 * (np.ones((3, 3)) - np.eye(3))), alpha=0.12)
    solve_global_sce(make_global_game(base, beta=1.0, c=0.6), max_iter=50)
    assert calls == {"_no_rest_point": 1, "_seidel": 1}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-10},
        {"tol": float("inf")},
        {"tol": float("nan")},
        {"tol": None},
        {"tol": "1e-10"},
        {"tol": 1e-10 + 0j},
        {"tol": np.array([1e-10, 1e-10])},
        {"tol": True},
        {"tol": False},
        {"max_iter": 0},
        {"max_iter": 2.5},
        {"max_iter": np.float64(3.0)},
        {"max_iter": None},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_solver_rejects_bad_stopping_rule_before_any_work(kwargs, monkeypatch):
    base = make_game(WeightedNetwork(z=0.2 * (np.ones((3, 3)) - np.eye(3))), alpha=0.1)
    g = make_global_game(base, beta=1.0, c=0.1)

    def no_work(*args, **kw):
        raise AssertionError("the solver started before its arguments were checked")

    for name in ("_resplit", "_seidel", "_newton_point", "_no_rest_point"):
        monkeypatch.setattr(global_ext, name, no_work)
    with pytest.raises(UsageError):
        solve_global_sce(g, **kwargs)
    with pytest.raises(UsageError):
        global_ext.phi_map(base, beta=1.0, c_grid=[0.1], **kwargs)


@pytest.mark.parametrize("scenario", ["global_line.json", "global_complete.json"])
@pytest.mark.parametrize("command", ["global-sce", "phi-map"])
def test_cli_output_matches_reference_driver(command, scenario, tmp_path, monkeypatch, capsys):
    def run(name):
        out = tmp_path / name
        code = main([command, "-i", str(SCENARIO_DIR / scenario), "-o", str(out)])
        return code, out.read_bytes(), capsys.readouterr()

    got = run("got.csv")
    monkeypatch.setattr(cli, "solve_global_sce", reference_solve)
    monkeypatch.setattr(global_ext, "solve_global_sce", reference_solve)
    ref = run("ref.csv")
    assert got[1] and got == ref
