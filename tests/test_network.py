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
    random_symmetrizable,
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
