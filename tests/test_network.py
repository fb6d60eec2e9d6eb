import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from netsce import (
    ASSUMPTIONS,
    Decomposition,
    NotSymmetrizableError,
    RandomNetSpec,
    UsageError,
    WeightedNetwork,
    check_assumption,
    interior_conditions,
    make_game,
    random_symmetrizable,
    solve_auxiliary_ne,
    spectral_radius,
    submatrix,
    symmetrize_decompose,
)

from conftest import ADJ4, MIXED4


def test_network_requires_zero_diagonal():
    z = np.eye(3) * 0.5
    with pytest.raises(UsageError, match=r"z\[0\]\[0\] must be 0"):
        WeightedNetwork(z=z)


def test_network_rejects_nonsquare():
    with pytest.raises(UsageError):
        WeightedNetwork(z=np.zeros((2, 3)))


def test_network_arrays_are_read_only():
    net = WeightedNetwork(z=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        net.z[0, 1] = 1.0


def test_spectral_radius_known_value():
    # The 4-agent adjacency has a plain 2-cycle between agents 0 and 3, so
    # scaling it by 0.2 puts the spectral radius at exactly 0.2.
    assert spectral_radius(WeightedNetwork(z=0.2 * ADJ4)) == pytest.approx(0.2, abs=1e-12)


def test_spectral_radius_scales_linearly():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(5, 5))
    np.fill_diagonal(base, 0.0)
    r0 = spectral_radius(WeightedNetwork(z=base))
    for g in (0.3, 1.7, 42.0):
        assert spectral_radius(WeightedNetwork(z=g * base)) == pytest.approx(g * r0, rel=1e-10)


def test_spectral_radius_empty_submatrix_is_zero():
    net = WeightedNetwork(z=0.2 * ADJ4)
    sub = submatrix(net, [])
    assert sub.n == 0
    assert spectral_radius(sub) == 0.0


def test_spectral_radius_of_a_stack_is_each_matrix_own():
    """A (k, m, m) stack gives k radii, each the bits of one call on its
    own matrix, for every m down to 0."""
    rng = np.random.default_rng(17)
    for m in (0, 1, 2, 5, 9):
        stack = rng.uniform(-1.0, 1.0, (7, m, m)) * rng.choice([0.1, 1.0, 30.0], (7, 1, 1))
        got = spectral_radius(stack)
        assert got.shape == (7,)
        assert got.tobytes() == np.array([spectral_radius(z) for z in stack]).tobytes()


EMPTY = submatrix(WeightedNetwork(z=0.2 * ADJ4), [])


@pytest.mark.parametrize("name", [*ASSUMPTIONS, "interior_conditions", "symmetrize_decompose"])
def test_network_with_no_agents(name):
    """A 0-agent network passes every structural test vacuously: bounded by
    an infinite bound, uniformly symmetrizable with spectrum {}, and with
    all three interior conditions holding on an empty positive solution."""
    if name == "interior_conditions":
        report = interior_conditions(EMPTY)
        assert [c.holds for c in report.conditions] == [True, True, True]
        assert (report.solution.shape, report.positive, report.degenerate) == ((0,), True, False)
    elif name == "symmetrize_decompose":
        dec = symmetrize_decompose(EMPTY)
        assert (dec.kind, dec.z0.shape, dec.gamma.shape) == ("uniform", (0, 0), (0,))
        assert dec.lambda_max() == 0.0
    else:
        rep = check_assumption(EMPTY, name)
        witness = {k: v for k, v in rep.witness.items() if k != "decomposition"}
        assert rep.holds
        assert witness == {
            "bounded": {"bound": np.inf, "max_abs": 0.0, "argmax": None},
            "same-sign": {"violation": None},
            "negative": {"violation": None},
            "limited": {"rho": 0.0},
            "symmetrizable": {"kind": "uniform"},
            "symmetrizable-limited": {"lambda_max": 0.0, "rho": 0.0},
        }[name]


def test_submatrix_keeps_labels():
    net = WeightedNetwork(z=MIXED4)
    sub = submatrix(net, [1, 3])
    assert sub.z[0, 1] == pytest.approx(0.2)  # weight 1 <- 3 survives


@pytest.mark.parametrize(
    "bad", [1.7, np.float64(2.0), True, np.bool_(True), "1", -1, 4, np.int64(4)], ids=repr
)
def test_submatrix_takes_agent_indices_only(bad):
    """An entry that is not an int or np.integer in range(n), or is a bool,
    raises with the message of the equilibrium solvers' agent sets; nothing
    is truncated or coerced."""
    net = WeightedNetwork(z=MIXED4)
    message = r"^agents holds .*: not an agent index in range\(4\)$"
    with pytest.raises(UsageError, match=message) as got:
        submatrix(net, [0, bad])
    spec = make_game(net, alpha=0.1)
    with pytest.raises(UsageError) as ref:
        solve_auxiliary_ne(spec, [0, bad])
    assert str(got.value).replace("agents", "candidates", 1) == str(ref.value)
    same = submatrix(net, [np.int64(3), np.uint8(1), 3])
    assert same.z.tolist() == submatrix(net, [1, 3]).z.tolist()


def test_decompose_two_agent_example():
    z = np.array([[0.0, 0.4], [0.2, 0.0]])
    dec = symmetrize_decompose(WeightedNetwork(z=z))
    assert dec.kind == "diagonal"
    assert np.allclose(dec.gamma, [1.0, 0.5])
    assert dec.z0[0, 1] == pytest.approx(0.4)
    assert dec.z0[1, 0] == pytest.approx(0.4)
    assert np.allclose(dec.recompose(), z, atol=1e-12)


def test_decompose_symmetric_input_is_identity_scaling():
    z = np.array([[0.0, -0.3, 0.1], [-0.3, 0.0, 0.0], [0.1, 0.0, 0.0]])
    dec = symmetrize_decompose(WeightedNetwork(z=z))
    assert dec.kind == "uniform"
    assert np.allclose(dec.z0, z)
    assert np.allclose(dec.recompose(), z)


def test_decompose_rejects_sign_asymmetry():
    with pytest.raises(NotSymmetrizableError) as err:
        symmetrize_decompose(WeightedNetwork(z=0.2 * ADJ4))
    assert err.value.reason == "sign"
    assert err.value.detail == (0, 1)  # z_01 = 0 while z_10 > 0


def test_decompose_rejects_inconsistent_cycle():
    z = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    with pytest.raises(NotSymmetrizableError) as err:
        symmetrize_decompose(WeightedNetwork(z=z))
    assert err.value.reason == "cycle"


def test_decompose_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        gamma = rng.lognormal(sigma=0.7, size=n)
        z = gamma[:, None] * a
        dec = symmetrize_decompose(WeightedNetwork(z=z))
        assert np.allclose(dec.recompose(), z, atol=1e-12)
        # success implies the same-sign test cannot fail
        assert check_assumption(WeightedNetwork(z=z), "same-sign").holds


def test_symmetrized_form_is_similar():
    """sqrt(Gamma) z0 sqrt(Gamma) shares its spectrum with Gamma z0."""
    z = np.array([[0.0, 0.4], [0.2, 0.0]])
    net = WeightedNetwork(z=z)
    dec = symmetrize_decompose(net)
    sym = dec.symmetrized()
    assert np.allclose(sym, sym.T)
    assert dec.lambda_max() == pytest.approx(spectral_radius(net), rel=1e-10)


def test_decomposition_validation():
    with pytest.raises(UsageError):
        Decomposition(z0=np.array([[0.0, 1.0], [2.0, 0.0]]), gamma=np.ones(2))
    with pytest.raises(UsageError):
        Decomposition(z0=np.zeros((2, 2)), gamma=np.array([1.0, -1.0]))
    for gamma in ([1.0, math.inf], [1.0, math.nan], [1.0, 0.0]):
        with pytest.raises(UsageError, match="strictly positive and finite"):
            Decomposition(z0=np.zeros((2, 2)), gamma=np.array(gamma))
    for value in (math.inf, -math.inf):
        with pytest.raises(UsageError, match="z0 entries must be finite"):
            Decomposition(z0=np.array([[0.0, value], [value, 0.0]]), gamma=np.ones(2))


# ------------------------------------------- the symmetrization walk, differential


def _reference_decompose(z):
    """``symmetrize_decompose`` as it was written before its walk ran on
    Python floats: upper pairs from ``triu_indices``, one NumPy-scalar ratio
    per edge in ascending neighbour order, ``np.allclose`` for uniformity.
    A ratio or a new gamma off (0, inf), or a non-finite z0 entry (the first
    in row-major order), is a "range" fault; NumPy's warnings are silenced."""
    with np.errstate(all="ignore"):
        return _reference_walk(z)


def _reference_walk(z):
    n = len(z)
    iu, ju = np.triu_indices(n, k=1)
    a, b = z[iu, ju], z[ju, iu]
    bad = np.flatnonzero(((a == 0) != (b == 0)) | (a * b < 0))
    if bad.size:
        k = int(bad[0])
        raise NotSymmetrizableError("sign", (int(iu[k]), int(ju[k])))
    gamma = np.full(n, np.nan)
    for root in range(n):
        if not np.isnan(gamma[root]):
            continue
        gamma[root] = 1.0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(z[i]):
                ratio = z[i, j] / z[j, i]
                if not 0.0 < ratio < np.inf:
                    raise NotSymmetrizableError("range", (i, int(j)))
                if np.isnan(gamma[j]):
                    gamma[j] = gamma[i] / ratio
                    if not 0.0 < gamma[j] < np.inf:
                        raise NotSymmetrizableError("range", (i, int(j)))
                    stack.append(int(j))
                elif not math.isclose(gamma[i] / gamma[j], ratio, rel_tol=1e-9):
                    raise NotSymmetrizableError("cycle", (i, int(j)))
    z0 = z / gamma[:, None]
    z0 = (z0 + z0.T) / 2.0
    bad = np.argwhere(~np.isfinite(z0))
    if bad.size:
        raise NotSymmetrizableError("range", (int(bad[0, 0]), int(bad[0, 1])))
    if np.allclose(gamma, gamma[:1], rtol=1e-9, atol=0.0):
        return Decomposition(z0=z0 * gamma[:1], gamma=np.ones(n))
    return Decomposition(z0=z0, gamma=gamma)


def _decomposed(fn, z):
    """(kind, z0 bytes, gamma bytes) or the error's (type, reason, detail or
    message), and the warnings raised, as (category, message) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            dec = fn(z)
            out = (dec.kind, dec.z0.tobytes(), dec.gamma.tobytes())
        except NotSymmetrizableError as exc:
            out = ("NotSymmetrizableError", exc.reason, exc.detail)
        except UsageError as exc:
            out = ("UsageError", str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def _walk_battery(seed=20261020):
    """Named weight matrices: no agents and one; random symmetrizable ones,
    alone and as several components beside isolated agents, permuted;
    dense asymmetric ones; sign faults late in upper-triangle order;
    cycles broken by a 1e-6 ratio change (and kept by a 1e-12 one); and
    ratios or gammas that overflow or underflow."""
    rng = np.random.default_rng(seed)
    yield "empty", np.zeros((0, 0))
    yield "one", np.zeros((1, 1))
    nets = []
    for t in range(24):
        n = (2, 3, 4, 6, 9, 15, 30, 60)[t % 8]
        mu = rng.uniform(0.05, 2.0)
        sigma2 = (0.0, 0.1, 1.0)[t % 3] * mu * mu
        spec = RandomNetSpec(n=n, k=rng.uniform(0.5, min(n - 0.5, 6.0)), mu=mu, sigma2=sigma2,
                             seed=int(rng.integers(1 << 30)))
        z = random_symmetrizable(spec).z
        nets.append(z)
        yield f"random-{t}", z
    for t in range(8):
        parts = [nets[k] for k in rng.choice(len(nets) // 2, size=3)] + [np.zeros((2, 2))]
        size = sum(len(p) for p in parts)
        z, at = np.zeros((size, size)), 0
        for p in parts:
            z[at:at + len(p), at:at + len(p)] = p
            at += len(p)
        perm = rng.permutation(size)
        yield f"components-{t}", z[np.ix_(perm, perm)]
    for t in range(8):
        n = (3, 4, 5, 8)[t % 4]
        z = rng.uniform(0.1, 1.0, (n, n)) * rng.choice([-1.0, 1.0], size=(n, n)) ** (t % 2)
        np.fill_diagonal(z, 0.0)
        yield f"dense-{t}", z
    for t, z in enumerate(nets[8:16]):
        n = len(z)
        if n < 5:
            continue
        full = np.array(z) + 0.01 * (np.ones((n, n)) - np.eye(n))  # every pair an edge
        for name, value in (("one-sided", 0.0), ("opposite", -1.0)):
            # the last pair alone; then (1, n-1), first in upper-triangle order,
            # beside (n-3, n-2), first in lower-triangle order
            for faults in ([(n - 2, n - 1)], [(n - 3, n - 2), (1, n - 1)]):
                bad = full.copy()
                for i, j in faults:
                    bad[j, i] *= value
                yield f"{name}-{len(faults)}-{t}", bad
    for t, z in enumerate(nets[16:]):
        n = len(z)
        rows, cols = np.nonzero(np.triu(z))
        if len(rows) < 3:
            continue
        for eps in (1e-6, 1e-12):
            for k in (len(rows) // 2, len(rows) - 1):
                nudged = np.array(z)
                nudged[rows[k], cols[k]] *= 1.0 + eps
                yield f"nudged-{eps:g}-{t}-{k}", nudged
    big, tiny = 1e300, 1e-300
    yield "ratio-overflow", np.array([[0.0, big], [tiny, 0.0]])
    yield "ratio-underflow", np.array([[0.0, tiny], [big, 0.0]])
    chain = np.zeros((4, 4))
    for i in range(3):
        chain[i, i + 1], chain[i + 1, i] = 1e200, 1e-100
    yield "gamma-underflow", chain
    yield "gamma-overflow", chain.T.copy()
    # gamma_1 = 1e-200 and gamma_2 = 1e200: the check on edge (2, 1) divides
    # them past the floats
    yield "cycle-overflow", np.array([[0.0, 1e100, 1e-100], [1e-100, 0.0, 1.0],
                                      [1e100, 1.0, 0.0]])
    # gamma_2 = 1e-310, a subnormal that stays inside (0, inf)
    yield "subnormal", np.array([[0.0, 1e150, 0.0], [1e-150, 0.0, 1e5], [0.0, 1e-5, 0.0]])
    # gamma_2 = 1e-300 in range, but z0_12 = 1e10 / 1e-300 is not
    yield "z0-overflow", _Z0_OVERFLOW
    # gamma = 1 everywhere, but z0 = (z + z.T) / 2 overflows
    yield "symmetrization-overflow", np.array([[0.0, 1e308], [1e308, 0.0]])
    # max |z| / min gamma = 1e308 trips the z0 bound; every z0 entry is finite
    yield "z0-bound", np.array([[0.0, 5e307, 0.0, 0.0], [5e307, 0.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1.0, 0.0]])


_Z0_OVERFLOW = np.array([[0.0, 1e300, 0.0], [1.0, 0.0, 1e10], [0.0, 1e10, 0.0]])


def test_walk_matches_the_per_edge_walk():
    """``symmetrize_decompose`` gives the per-edge NumPy-scalar walk's gamma
    and z0 bytes, kind, error (reason and detail) and warnings on every
    matrix of the battery, whose outcomes cover all of them."""
    seen = set()
    for name, z in _walk_battery():
        net = WeightedNetwork(z=z)
        want = _decomposed(_reference_decompose, net.z)
        got = _decomposed(lambda _: symmetrize_decompose(net), net.z)
        assert got == want, name
        seen.add(want[0][1] if want[0][0] == "NotSymmetrizableError" else want[0][0])
        seen.add("warned" if want[1] else "quiet")
    assert seen == {"uniform", "diagonal", "sign", "cycle", "range", "quiet"}


def test_walk_is_silent_when_warnings_are_errors():
    """No battery network, out-of-range ones included, makes the
    decomposition or the six checks warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, z in _walk_battery():
            net = WeightedNetwork(z=z)
            try:
                symmetrize_decompose(net)
            except NotSymmetrizableError:
                pass
            for assumption in ASSUMPTIONS:
                check_assumption(net, assumption)


def _trees(seed=20261022):
    """Cycle-free supports: the battery's 4-agent chains, whose gammas leave
    (0, inf), a 2-agent pair whose ratio does, and seeded random trees with
    signed weights between 1e-3 and 1e3, permuted, beside isolated agents."""
    chain = np.zeros((4, 4))
    for i in range(3):
        chain[i, i + 1], chain[i + 1, i] = 1e200, 1e-100
    yield chain
    yield chain.T.copy()
    yield np.array([[0.0, 1e300], [1e-300, 0.0]])
    rng = np.random.default_rng(seed)
    for t in range(40):
        n = int(rng.integers(2, 25))
        z = np.zeros((n + 2, n + 2))
        for j in range(1, n):
            i, sign = int(rng.integers(j)), rng.choice([-1.0, 1.0])
            z[i, j], z[j, i] = sign * 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        perm = rng.permutation(n + 2)
        yield z[np.ix_(perm, perm)]


def test_a_cycle_free_support_never_yields_cycle():
    """Every check on a tree meets the edge it came in by, whose quotient is
    its ratio up to roundoff while the gammas stay normal: such a tree
    decomposes or is out of range."""
    outcomes = set()
    for z in _trees():
        try:
            outcomes.add(symmetrize_decompose(WeightedNetwork(z=z)).kind)
        except NotSymmetrizableError as exc:
            outcomes.add(exc.reason)
    assert outcomes == {"diagonal", "range"}


def test_limited_reads_the_general_spectrum_when_z0_overflows():
    """z0 would hold inf here, so the network is out of range: ``limited``
    takes rho from ``spectral_radius`` (1e150) instead of an ``eigvalsh`` of
    an infinite form, and the interior report says "range" too."""
    net = WeightedNetwork(z=_Z0_OVERFLOW)
    rep = check_assumption(net, "limited")
    assert rep.witness == {"rho": spectral_radius(_Z0_OVERFLOW)}
    assert rep.witness["rho"] == pytest.approx(1e150, rel=1e-12)
    for name in ("symmetrizable", "symmetrizable-limited"):
        assert check_assumption(net, name).witness == {"reason": "range", "detail": (1, 2)}
    cond = interior_conditions(net).conditions[2]
    assert (cond.holds, cond.witness) == (False, {"reason": "range", "detail": (1, 2)})


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("pair", [
    (_INF, _INF), (-_INF, -_INF), (_INF, -_INF), (_INF, 1.0), (1.0, -_INF),
    (_NAN, _NAN), (_NAN, 1.0), (_NAN, _INF), (1.0, 1.0 + 1e-10), (1.0, 1.0 + 1e-8),
    (1e308, -1e308), (0.0, -0.0), (0.0, 5e-324),
])
def test_decomposition_symmetry_check_is_allclose(pair):
    """``Decomposition`` refuses z0 as asymmetric exactly when
    ``np.allclose(z0, z0.T, rtol=1e-9, atol=0)`` does, with the same
    warnings, inf and nan included; a symmetric z0 that holds inf is then
    refused as non-finite."""
    z0 = np.zeros((3, 3))
    z0[0, 2], z0[2, 0] = pair
    z0[1, 1] = pair[0]  # a non-finite diagonal is compared with itself
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = np.allclose(z0, z0.T, rtol=1e-9, atol=0.0)
    expected = [(w.category, str(w.message)) for w in caught]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            Decomposition(z0=z0, gamma=np.ones(3))
            got = True
        except UsageError as exc:
            got = "symmetric z0" not in str(exc)
            assert got == ("z0 entries must be finite" in str(exc))
    assert got == want
    assert [(w.category, str(w.message)) for w in caught] == expected


def test_check_assumption_bounded():
    z = 0.2 * (np.ones((4, 4)) - np.eye(4))
    rep = check_assumption(WeightedNetwork(z=z), "bounded")
    assert rep.holds
    assert rep.witness["bound"] == pytest.approx(0.25)
    assert rep.witness["max_abs"] == pytest.approx(0.2)
    # 1/n is strict: weights exactly at the bound fail
    rep = check_assumption(WeightedNetwork(z=0.25 * (np.ones((4, 4)) - np.eye(4))), "bounded")
    assert not rep.holds


def test_check_assumption_same_sign_violation_witness():
    rep = check_assumption(WeightedNetwork(z=0.2 * ADJ4), "same-sign")
    assert not rep.holds
    assert rep.witness["violation"] == (0, 1)


def test_check_assumption_negative_and_limited():
    z = np.array([[0.0, -0.6], [-0.6, 0.0]])
    net = WeightedNetwork(z=z)
    assert check_assumption(net, "negative").holds
    rep = check_assumption(net, "limited")
    assert rep.holds
    assert rep.witness["rho"] == pytest.approx(0.6)
    # zeros are not strictly negative
    assert not check_assumption(WeightedNetwork(z=np.zeros((2, 2))), "negative").holds


def test_check_assumption_symmetrizable():
    z = np.array([[0.0, 0.4], [0.2, 0.0]])
    rep = check_assumption(WeightedNetwork(z=z), "symmetrizable")
    assert rep.holds
    rep = check_assumption(WeightedNetwork(z=0.2 * ADJ4), "symmetrizable")
    assert not rep.holds
    assert rep.witness["reason"] == "sign"
    assert rep.witness["detail"] == (0, 1)


def test_check_assumption_symmetrizable_limited():
    z = np.array([[0.0, 0.4], [0.2, 0.0]])
    rep = check_assumption(WeightedNetwork(z=z), "symmetrizable-limited")
    assert rep.holds
    lam = rep.witness["lambda_max"]
    assert lam == pytest.approx(np.sqrt(0.4 * 0.2), rel=1e-10)
    rep = check_assumption(WeightedNetwork(z=4.0 * z), "symmetrizable-limited")
    assert not rep.holds


def _symmetrizable_battery():
    """(sign, network): 80 seeded random symmetrizable networks, n = 2..39,
    each scaled by a random sign."""
    rng = np.random.default_rng(23)
    for _ in range(80):
        n = int(rng.integers(2, 40))
        net = random_symmetrizable(
            RandomNetSpec(n=n, k=float(rng.uniform(1, n - 1)), mu=float(rng.uniform(0.02, 0.5)),
                          sigma2=float(rng.choice([0.0, 1e-3])), seed=int(rng.integers(1 << 30)))
        )
        sign = float(rng.choice([-1.0, 1.0]))
        yield sign, WeightedNetwork(z=sign * net.z)


def test_symmetrizable_limited_reads_rho_off_the_symmetric_spectrum():
    """``symmetrizable-limited`` takes lambda_max and rho from one
    ``eigvalsh``: lambda_max is Decomposition's, bit for bit, and rho agrees
    with ``spectral_radius`` of the symmetrized form to 1e-12, with either
    end of the spectrum on top."""
    seen = set()
    for sign, net in _symmetrizable_battery():
        rep = check_assumption(net, "symmetrizable-limited")
        dec = rep.witness["decomposition"]
        rho = spectral_radius(dec.symmetrized())
        assert rep.witness["lambda_max"] == dec.lambda_max()
        assert rep.witness["rho"] == pytest.approx(rho, rel=1e-12)
        assert rep.holds == (rho < 1.0)
        seen.add((sign, rep.holds))
    assert seen == {(-1.0, True), (-1.0, False), (1.0, True), (1.0, False)}, seen


#: |rho - 1| below which ``limited`` read off the symmetric spectrum may
#: decide otherwise than ``spectral_radius``'s general ``eigvals`` (README,
#: "Network analysis").
LIMITED_MARGIN = 1e-9


def test_limited_on_symmetrizable_z_matches_the_general_spectrum():
    """On symmetrizable Z, ``limited`` reads rho off the symmetric spectrum:
    the same float as ``symmetrizable-limited``'s rho, within 1e-12 relative
    of ``spectral_radius(z)``, with the same verdict wherever |rho - 1|
    exceeds LIMITED_MARGIN. Games inside the margin are listed, not
    asserted."""
    seen, inside = set(), []
    for sign, net in _symmetrizable_battery():
        rep = check_assumption(net, "limited")
        rho, old = rep.witness["rho"], spectral_radius(net.z)
        assert rho == check_assumption(net, "symmetrizable-limited").witness["rho"]
        assert rho == pytest.approx(old, rel=1e-12)
        if abs(old - 1.0) > LIMITED_MARGIN:
            assert rep.holds == (old < 1.0)
        else:
            inside.append((sign, net.n, old))
        seen.add((sign, rep.holds))
    assert seen == {(-1.0, True), (-1.0, False), (1.0, True), (1.0, False)}, seen
    print(f"games within {LIMITED_MARGIN:g} of rho = 1: {inside}")


def test_check_assumption_unknown_name():
    with pytest.raises(UsageError):
        check_assumption(WeightedNetwork(z=np.zeros((2, 2))), "bogus")


def test_assumption_list_is_complete():
    net = WeightedNetwork(z=np.zeros((3, 3)))
    for name in ASSUMPTIONS:
        rep = check_assumption(net, name)
        assert rep.assumption == name


def test_random_net_spec_validation():
    with pytest.raises(UsageError):
        RandomNetSpec(n=1, k=0.5, mu=0.1, sigma2=0.0, seed=0)
    with pytest.raises(UsageError):
        RandomNetSpec(n=5, k=0.0, mu=0.1, sigma2=0.0, seed=0)
    with pytest.raises(UsageError):
        RandomNetSpec(n=5, k=5.0, mu=0.1, sigma2=0.0, seed=0)
    with pytest.raises(UsageError):
        RandomNetSpec(n=5, k=2.0, mu=0.0, sigma2=0.0, seed=0)
    for bad in (math.inf, math.nan):
        for field in ("k", "mu", "sigma2"):
            args = {"n": 5, "k": 2.0, "mu": 0.1, "sigma2": 0.01, "seed": 0, field: bad}
            with pytest.raises(UsageError):
                RandomNetSpec(**args)
    # mu**2 overflows; mu**2 underflows to 0; sigma2 / mu**2 overflows; sigma2 < 0
    for mu, sigma2 in ((1e300, 1e300), (1e-200, 1.0), (1e-100, 1e300), (0.1, -1e-300)):
        with pytest.raises(UsageError):
            RandomNetSpec(n=5, k=2.0, mu=mu, sigma2=sigma2, seed=0)
    # still accepted: no lognormal at sigma2 = 0, and a ratio that underflows
    for mu in (1e300, 1e-200):
        net = random_symmetrizable(RandomNetSpec(n=5, k=2.0, mu=mu, sigma2=0.0, seed=0))
        assert np.isin(net.z, (0.0, mu)).all()
    random_symmetrizable(RandomNetSpec(n=5, k=2.0, mu=1e100, sigma2=1e-300, seed=0))


def test_random_symmetrizable_is_deterministic():
    spec = RandomNetSpec(n=30, k=3.0, mu=0.05, sigma2=1e-4, seed=123)
    za = random_symmetrizable(spec).z
    zb = random_symmetrizable(spec).z
    assert np.array_equal(za, zb)
    zc = random_symmetrizable(RandomNetSpec(n=30, k=3.0, mu=0.05, sigma2=1e-4, seed=124)).z
    assert not np.array_equal(za, zc)


def test_random_symmetrizable_structure():
    spec = RandomNetSpec(n=40, k=4.0, mu=0.05, sigma2=1e-4, seed=5)
    net = random_symmetrizable(spec)
    dec = symmetrize_decompose(net)  # must not raise
    assert np.allclose(dec.recompose(), net.z, atol=1e-12)
    # support is undirected
    support = net.z != 0
    assert np.array_equal(support, support.T)


def test_random_symmetrizable_moments():
    """Empirical gamma mean/variance track the requested moments."""
    spec = RandomNetSpec(n=400, k=6.0, mu=0.05, sigma2=1e-4, seed=9)
    net = random_symmetrizable(spec)
    vals = net.z[net.z != 0]
    # every nonzero row weight equals that row's gamma
    gamma = np.array([row[row != 0][0] for row in net.z if np.any(row != 0)])
    assert abs(vals.mean() - 0.05) < 0.01
    assert gamma.mean() == pytest.approx(0.05, abs=0.005)
    assert gamma.var() == pytest.approx(1e-4, rel=0.5)


def test_random_symmetrizable_point_mass():
    net = random_symmetrizable(RandomNetSpec(n=20, k=3.0, mu=0.07, sigma2=0.0, seed=2))
    vals = net.z[net.z != 0]
    assert np.allclose(vals, 0.07)


def test_interlacing_on_submatrices():
    """Largest symmetrized eigenvalue can only shrink on a sub-network."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        net = random_symmetrizable(
            RandomNetSpec(n=n, k=float(rng.uniform(1, n - 1)), mu=0.4, sigma2=0.05,
                          seed=int(rng.integers(1 << 30)))
        )
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        lam_full = symmetrize_decompose(net).lambda_max()
        sub = submatrix(net, keep)
        lam_sub = symmetrize_decompose(sub).lambda_max() if sub.n else 0.0
        assert lam_sub <= lam_full + 1e-10


# ------------------------------------------------------------ cached analysis


def _analysis_nets():
    """(label, z): seeded symmetrizable networks of n = 0, 1, 4 and 50, with
    both signs, and non-symmetrizable ones of n = 4 and 50 that fail on the
    sign pattern and on a cycle."""
    rng = np.random.default_rng(31)
    yield "n0", np.zeros((0, 0))
    yield "n1", np.zeros((1, 1))
    for n in (4, 50):
        net = random_symmetrizable(RandomNetSpec(n=n, k=min(3.0, n - 1.0), mu=0.3,
                                                 sigma2=0.01, seed=int(rng.integers(1 << 30))))
        yield f"n{n}-sym", net.z
        yield f"n{n}-sym-neg", -net.z
        dense = rng.uniform(0.05, 0.4, (n, n))
        np.fill_diagonal(dense, 0.0)
        yield f"n{n}-cycle", dense
        signed = dense * rng.choice([-1.0, 1.0], (n, n))
        yield f"n{n}-sign", signed


def _same_report(got, want):
    """Reports equal field by field; a decomposition by its arrays' bytes."""
    assert (got.assumption, got.holds) == (want.assumption, want.holds)
    assert got.witness.keys() == want.witness.keys()
    for key, value in want.witness.items():
        if isinstance(value, Decomposition):
            other = got.witness[key]
            assert (other.z0.tobytes(), other.gamma.tobytes()) == (
                value.z0.tobytes(), value.gamma.tobytes())
        else:
            assert got.witness[key] == value, key


@pytest.mark.parametrize("label,z", list(_analysis_nets()), ids=lambda v: v if isinstance(v, str) else "")
def test_reports_do_not_depend_on_the_order_of_checks(label, z):
    """Each of the six reports equals the report of a fresh network, whether
    the round runs forward, in reverse or one check per network."""
    fresh = {name: check_assumption(WeightedNetwork(z=z), name) for name in ASSUMPTIONS}
    for order in (ASSUMPTIONS, ASSUMPTIONS[::-1]):
        net = WeightedNetwork(z=z)
        for name in order:
            _same_report(check_assumption(net, name), fresh[name])
    for name in ASSUMPTIONS:
        _same_report(check_assumption(WeightedNetwork(z=z), name), fresh[name])
    kinds = {"n0": True, "n1": True}
    assert fresh["symmetrizable"].holds == kinds.get(label, "sym" in label)


@pytest.fixture
def solves(monkeypatch):
    """Counts of decompositions and eigenvalue solves made from here on."""
    from netsce import network

    seen = {"decompose": 0, "eigen": 0}

    def counted(key, fn):
        def inner(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return inner

    monkeypatch.setattr(network, "symmetrize_decompose",
                        counted("decompose", network.symmetrize_decompose))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigen", np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigen", np.linalg.eigvalsh))
    return seen


@pytest.mark.parametrize("label,z", list(_analysis_nets()), ids=lambda v: v if isinstance(v, str) else "")
def test_a_round_analyses_z_once(label, z, solves):
    """A round of the six checks, repeated and followed by
    ``interior_conditions``, makes at most one decomposition and one
    eigenvalue solve; ``bounded`` alone makes neither."""
    check_assumption(WeightedNetwork(z=z), "bounded")
    assert solves == {"decompose": 0, "eigen": 0}
    net = WeightedNetwork(z=z)
    for _ in range(2):
        for name in ASSUMPTIONS:
            check_assumption(net, name)
    interior_conditions(net)
    assert solves["decompose"] == 1
    assert solves["eigen"] == (0 if label == "n0" else 1)


def test_underflowing_sign_pair_is_not_symmetrizable():
    """z_01 * z_10 underflows to -0.0 here; the sign pattern still sees the
    opposite signs, so both symmetrizable checks and the interior report say
    "sign" at (0, 1) as ``same-sign`` does, instead of raising."""
    net = WeightedNetwork(z=np.array([[0.0, 1e-200], [-1e-200, 0.0]]))
    assert check_assumption(net, "same-sign").witness["violation"] == (0, 1)
    for name in ("symmetrizable", "symmetrizable-limited"):
        rep = check_assumption(WeightedNetwork(z=net.z), name)
        assert (rep.holds, rep.witness) == (False, {"reason": "sign", "detail": (0, 1)})
    cond = interior_conditions(WeightedNetwork(z=net.z)).conditions[2]
    assert (cond.name, cond.holds) == ("symmetrizable-limited", False)
    assert cond.witness == {"reason": "sign", "detail": (0, 1)}
    with pytest.raises(NotSymmetrizableError) as exc:
        symmetrize_decompose(net)
    assert (exc.value.reason, exc.value.detail) == ("sign", (0, 1))


def test_a_failure_witness_is_a_copy():
    """Changing one report's failure witness leaves the next report as it was."""
    net = WeightedNetwork(z=0.2 * ADJ4)
    check_assumption(net, "symmetrizable").witness["detail"] = None
    assert check_assumption(net, "symmetrizable-limited").witness == {"reason": "sign", "detail": (0, 1)}


def _network_arrays():
    net = WeightedNetwork(z=np.array([[0.0, 0.4], [0.2, 0.0]]))
    dec = check_assumption(net, "symmetrizable").witness["decomposition"]
    return {"z": net.z, "z0": dec.z0, "gamma": dec.gamma}


@pytest.mark.parametrize("name", ["z", "z0", "gamma"])
def test_network_arrays_cannot_be_made_writable(name):
    arr = _network_arrays()[name]
    with pytest.raises(ValueError):
        arr.setflags(write=True)
    with pytest.raises(ValueError):
        arr[0] = 1.0


@pytest.mark.parametrize("route", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_copied_networks_stay_frozen(route):
    """A pickled or copied network or decomposition comes back through its
    constructor: equal bytes, frozen arrays and no cached analysis."""
    net = WeightedNetwork(z=np.array([[0.0, 0.4], [0.2, 0.0]]))
    for name in ASSUMPTIONS:
        check_assumption(net, name)
    dec = net._decomposition[0]
    got, got_dec = route(net), route(dec)
    assert type(got) is WeightedNetwork and type(got_dec) is Decomposition
    assert not {"_pattern", "_decomposition", "_spectrum"} & got.__dict__.keys()
    for arr, want in ((got.z, net.z), (got_dec.z0, dec.z0), (got_dec.gamma, dec.gamma)):
        assert arr.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    assert repr(got) == repr(net)
