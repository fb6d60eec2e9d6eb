"""The certified unique-NE path of ``solve_auxiliary_ne`` against full
enumeration.

When ``equilibrium._certified_ne`` proves that a game on the candidates has
one equilibrium that enumeration keeps alone, ``solve_auxiliary_ne`` solves
that one support instead of all 2^m. Every game below is solved both ways,
the forced enumeration by switching the certificate off, and the two must
agree bit for bit: records and the examined, singular and cap-hit
diagnostics. The games sit on both sides of every condition of the
certificate: contractions up to rho(|Z|) = 1 - 1e-6 and at the rounding
edge of 1, equilibria with an agent a hair above ACTIVE_TOL (where
enumeration keeps two Nash records), and caps below some support's
interior solution.
"""

import numpy as np
import pytest

from netsce import WeightedNetwork, make_game, solve_auxiliary_ne, solve_full_ne
from netsce import equilibrium
from netsce.network import spectral_radius


def _scaled(m, rho):
    top = spectral_radius(np.abs(m))
    return m * (rho / top) if top > 0 else m


def _random_games(rng):
    """n = 1..10 in signed, negative and nonnegative weights, each at six
    values of rho(|Z|), with default caps or tight ones on every other. The
    games past rho = 1 carry a unit reciprocal pair, whose support is
    singular."""
    t = 0
    for n in range(1, 11):
        for sign in ("signed", "negative", "nonnegative"):
            for rho in (0.3, 0.7, 0.9, 0.99, 1 - 1e-6, 1.3):
                m = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
                np.fill_diagonal(m, 0.0)
                if sign == "signed":
                    m *= rng.choice([-1.0, 1.0], size=(n, n))
                elif sign == "negative":
                    m = -m
                z = _scaled(m, rho)
                if rho > 1 and n > 1:
                    i, j = rng.choice(n, size=2, replace=False)
                    z[i, j] = z[j, i] = 1.0
                alpha = rng.uniform(-0.3, 1.0, n)
                a_max = rng.uniform(0.3, 3.0, n) if t % 2 else None
                t += 1
                yield make_game(WeightedNetwork(z=z), alpha=alpha, a_max=a_max)


def _near_misses(rng):
    """An equilibrium whose agent 1 plays a_bar: agents 0 and 1 are strong
    substitutes (z = -0.95 both ways, Schur factor 1 - 0.95^2 < 1), so at
    a_bar = 1.5e-9 and 1e-8 the support without agent 1 also passes
    enumeration's filters; at 5e-10 only that one does. Agents 2.. form a
    separate contracting block with inactive members."""
    for a_bar in (5e-10, 1.5e-9, 1e-8):
        for n in range(2, 7):
            z = np.zeros((n, n))
            z[0, 1] = z[1, 0] = -0.95
            rest = -rng.uniform(0.0, 1.0, (n - 2, n - 2))
            np.fill_diagonal(rest, 0.0)
            z[2:, 2:] = _scaled(rest, 0.5)
            a = np.concatenate([[1.0, a_bar], rng.uniform(0.2, 1.0, n - 2)])
            off = np.flatnonzero(rng.uniform(size=n) < 0.3)
            a[off[off > 1]] = 0.0
            alpha = a - z @ a
            alpha[a == 0.0] = -(z @ a)[a == 0.0] - rng.uniform(0.01, 0.5)
            yield make_game(WeightedNetwork(z=z), alpha=alpha)


def _capped(rng):
    """Substitutes whose lone supports would play alpha_i, above a cap that
    the equilibrium's smaller actions clear: enumeration reports those
    supports as cap hits."""
    for n in range(2, 8):
        m = -rng.uniform(0.5, 1.0, (n, n))
        np.fill_diagonal(m, 0.0)
        z = _scaled(m, 0.8)
        alpha = rng.uniform(0.5, 1.0, n)
        ne = np.linalg.solve(np.eye(n) - z, alpha)
        if (ne > 0).all():
            yield make_game(WeightedNetwork(z=z), alpha=alpha, a_max=(ne + alpha) / 2)


def _rounding_edge():
    """Two games at rho(|Z|) = 1 within rounding. In the first, rho(|Z|) =
    1 - 2^-53: q rounds up to 1, and with alpha = 1 both lone supports leave
    the other an incentive of 2^-53, inside BOUNDARY_TOL, so enumeration
    keeps three records. In the second (substitutes on a reducible |Z| whose
    cycle 1 -> 2 -> 1 has weight 1 within rounding) the computed weights v
    are positive but |Z| v exceeds v by 8 %, and enumeration labels the four
    supports holding that cycle inconsistent."""
    w = 1.0 - 2.0**-53
    yield make_game(WeightedNetwork(z=np.array([[0.0, -w], [-w, 0.0]])), alpha=1.0)
    z = np.zeros((4, 4))
    for (i, j), h in {
        (1, 0): "0x1.0d7356802b2eep+0",
        (1, 2): "0x1.0c91ceee7809dp+0",
        (1, 3): "0x1.fb9c94d92b9e3p-1",
        (2, 1): "0x1.e809951724764p-1",
        (3, 0): "0x1.3a9a01ef0b6aap-2",
    }.items():
        z[i, j] = -float.fromhex(h)
    alpha = [float.fromhex(h) for h in (
        "0x1.dfb1943262768p-1", "0x1.4a00566e72fe8p-2", "0x1.a7529d2f34864p-1",
        "0x1.434b4ced22c8cp-1",
    )]
    yield make_game(WeightedNetwork(z=z), alpha=alpha)


def _games():
    rng = np.random.default_rng(20261019)
    yield from (("random", g) for g in _random_games(rng))
    yield from (("near-miss", g) for g in _near_misses(rng))
    yield from (("capped", g) for g in _capped(rng))
    yield from (("edge", g) for g in _rounding_edge())


def _enumerated(monkeypatch, spec, candidates):
    with monkeypatch.context() as patch:
        patch.setattr(equilibrium, "_certified_ne", lambda spec, j: None)
        return solve_auxiliary_ne(spec, candidates)


def _same(got, want):
    (recs, diags), (ref, ref_diags) = got, want
    assert [
        (r.bitmask, r.kind, r.declared_inactive, r.actions.tobytes(), r.conjectures.tobytes())
        for r in recs
    ] == [
        (r.bitmask, r.kind, r.declared_inactive, r.actions.tobytes(), r.conjectures.tobytes())
        for r in ref
    ]
    assert (diags.examined, diags.singular, diags.cap_hits) == (
        ref_diags.examined, ref_diags.singular, ref_diags.cap_hits
    )
    assert not ref_diags.certified
    if diags.certified:
        assert len(ref) == 1 and not ref_diags.singular and not ref_diags.cap_hits


def test_certified_path_matches_full_enumeration(monkeypatch):
    seen = {"certified": 0, "fallback": 0, "two-ne": 0, "cap-hits": 0, "singular": 0}
    by_source = {}
    for source, spec in _games():
        for candidates in (range(spec.n), range(0, spec.n, 2), range(1, spec.n)):
            want = _enumerated(monkeypatch, spec, candidates)
            got = solve_auxiliary_ne(spec, candidates)
            _same(got, want)
            path = "certified" if got[1].certified else "fallback"
            seen[path] += 1
            if len(candidates) == spec.n:
                _same(solve_full_ne(spec), want)
                by_source.setdefault(source, set()).add(path)
            seen["two-ne"] += len(want[0]) == 2 and source == "near-miss"
            seen["cap-hits"] += bool(want[1].cap_hits)
            seen["singular"] += bool(want[1].singular)
    # Both paths run. On all candidates the near-miss, capped and edge games
    # fall back, as they are built to, and the random games take both paths.
    assert seen["certified"] >= 300 and seen["fallback"] >= 250, seen
    assert by_source == {
        "random": {"certified", "fallback"},
        "near-miss": {"fallback"},
        "capped": {"fallback"},
        "edge": {"fallback"},
    }
    # a_bar = 1.5e-9 and 1e-8 at n = 2..6 keep two Nash records each
    assert seen["two-ne"] == 10, seen
    assert seen["cap-hits"] >= 100 and seen["singular"] >= 40, seen


@pytest.mark.parametrize("n", [1, 2, 5])
def test_examined_counts_every_support_the_certificate_decides(n):
    z = -0.2 * (np.ones((n, n)) - np.eye(n))
    recs, diags = solve_full_ne(make_game(WeightedNetwork(z=z), alpha=1.0))
    assert diags.certified and diags.examined == 2**n
    assert len(recs) == 1 and recs[0].bitmask == 2**n - 1
    assert diags.singular == diags.cap_hits == ()
