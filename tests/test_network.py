import math
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


# ------------------------------------------- the symmetrization walk, differential


def _reference_decompose(z):
    """``symmetrize_decompose`` as it was written before its walk ran on
    Python floats: upper pairs from ``triu_indices``, one NumPy-scalar ratio
    per edge in ascending neighbour order, ``np.allclose`` for uniformity."""
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
                if np.isnan(gamma[j]):
                    gamma[j] = gamma[i] / ratio
                    stack.append(int(j))
                elif not math.isclose(gamma[i] / gamma[j], ratio, rel_tol=1e-9):
                    raise NotSymmetrizableError("cycle", (i, int(j)))
    z0 = z / gamma[:, None]
    z0 = (z0 + z0.T) / 2.0
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
    assert seen == {"uniform", "diagonal", "sign", "cycle", "UsageError", "warned", "quiet"}


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("pair", [
    (_INF, _INF), (-_INF, -_INF), (_INF, -_INF), (_INF, 1.0), (1.0, -_INF),
    (_NAN, _NAN), (_NAN, 1.0), (_NAN, _INF), (1.0, 1.0 + 1e-10), (1.0, 1.0 + 1e-8),
    (1e308, -1e308), (0.0, -0.0), (0.0, 5e-324),
])
def test_decomposition_symmetry_check_is_allclose(pair):
    """``Decomposition`` accepts z0 exactly when ``np.allclose(z0, z0.T,
    rtol=1e-9, atol=0)`` does, with the same warnings, inf and nan included."""
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
            assert "symmetric z0" in str(exc)
            got = False
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


def test_symmetrizable_limited_reads_rho_off_the_symmetric_spectrum():
    """``symmetrizable-limited`` takes lambda_max and rho from one
    ``eigvalsh``: lambda_max is Decomposition's, bit for bit, and rho agrees
    with ``spectral_radius`` of the symmetrized form to 1e-12, with either
    end of the spectrum on top."""
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(80):
        n = int(rng.integers(2, 40))
        net = random_symmetrizable(
            RandomNetSpec(n=n, k=float(rng.uniform(1, n - 1)), mu=float(rng.uniform(0.02, 0.5)),
                          sigma2=float(rng.choice([0.0, 1e-3])), seed=int(rng.integers(1 << 30)))
        )
        sign = float(rng.choice([-1.0, 1.0]))
        net = WeightedNetwork(z=sign * net.z)
        rep = check_assumption(net, "symmetrizable-limited")
        dec = rep.witness["decomposition"]
        rho = spectral_radius(dec.symmetrized())
        assert rep.witness["lambda_max"] == dec.lambda_max()
        assert rep.witness["rho"] == pytest.approx(rho, rel=1e-12)
        assert rep.holds == (rho < 1.0)
        seen.add((sign, rep.holds))
    assert seen == {(-1.0, True), (-1.0, False), (1.0, True), (1.0, False)}, seen


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
