"""Weighted directed networks of payoff externalities.

Agents are indexed 0..n-1. Entry ``z[i, j]`` is the weight with which agent
j's action enters agent i's aggregate; the diagonal is identically zero. All
structural tests used by the rest of the package (boundedness, sign symmetry,
spectral limits, diagonal symmetrizability) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .errors import NotSymmetrizableError, NumericError, UsageError

__all__ = [
    "ASSUMPTIONS",
    "AssumptionReport",
    "Decomposition",
    "RandomNetSpec",
    "WeightedNetwork",
    "check_assumption",
    "random_symmetrizable",
    "spectral_radius",
    "submatrix",
    "symmetrize_decompose",
]

ASSUMPTIONS = (
    "bounded",
    "same-sign",
    "negative",
    "limited",
    "symmetrizable",
    "symmetrizable-limited",
)

#: Relative tolerance for ratio-consistency and symmetry checks.
_REL_TOL = 1e-9


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _allclose(x: np.ndarray, y: np.ndarray) -> bool:
    """``np.allclose(x, y, rtol=_REL_TOL, atol=0.0)``: the same verdict on
    every input, inf and nan included, without its call overhead. Equal
    arrays, such as an exactly symmetric z0 and its transpose, settle it at
    once."""
    if (x == y).all():
        return True
    with np.errstate(invalid="ignore"):
        close = (np.abs(x - y) <= _REL_TOL * np.abs(y)) & np.isfinite(y)
    return bool((close | (x == y)).all())


@dataclass(frozen=True)
class WeightedNetwork:
    """A weighted externality network.

    Parameters
    ----------
    z : (n, n) array_like
        Weight matrix, zero diagonal, finite entries. ``z[i, j]`` multiplies
        agent j's action in agent i's aggregate.
    """

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise UsageError(f"weight matrix must be square, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise UsageError("weight matrix entries must be finite")
        if np.any(np.diag(z) != 0.0):
            i = int(np.flatnonzero(np.diag(z))[0])
            raise UsageError(f"z[{i}][{i}] must be 0")
        object.__setattr__(self, "z", _as_readonly(z))

    @property
    def n(self) -> int:
        return self.z.shape[0]


def spectral_radius(m: Union[WeightedNetwork, np.ndarray]) -> Union[float, np.ndarray]:
    """Largest eigenvalue modulus; 0 for an empty matrix.

    A (k, m, m) stack gives an array of k radii from one stacked
    ``eigvals``, each the bits of its own matrix's call.
    """
    z = m.z if isinstance(m, WeightedNetwork) else np.asarray(m, dtype=float)
    try:
        ev = np.linalg.eigvals(z)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc
    rho = np.abs(ev).max(axis=-1, initial=0.0)
    return float(rho) if z.ndim == 2 else rho


@dataclass(frozen=True)
class Decomposition:
    """A factorization Z = diag(gamma) @ z0 with a strictly positive vector
    gamma and symmetric z0.

    :attr:`kind` is ``"uniform"`` when every gamma is 1, so that z0 is Z
    itself, and ``"diagonal"`` otherwise.
    """

    z0: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z0", _as_readonly(self.z0))
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 1 or g.shape[0] != self.z0.shape[0]:
            raise UsageError("decomposition needs one gamma per agent")
        if np.any(g <= 0):
            raise UsageError("diagonal scaling must be strictly positive")
        object.__setattr__(self, "gamma", _as_readonly(g))
        if not _allclose(self.z0, self.z0.T):
            raise UsageError(f"{self.kind} decomposition needs a symmetric z0")

    @property
    def kind(self) -> str:
        return "uniform" if np.all(self.gamma == 1.0) else "diagonal"

    def recompose(self) -> np.ndarray:
        """The matrix this decomposition denotes."""
        return self.gamma[:, None] * self.z0

    def symmetrized(self) -> np.ndarray:
        """The similar symmetric matrix sqrt(G) Z0 sqrt(G).

        Entry (i, j) equals z0_ij * sqrt(gamma_i * gamma_j). Invariant under
        the rescaling (c*Gamma, Z0/c), so it is a property of Z itself.
        """
        d = np.sqrt(self.gamma)
        return d[:, None] * self.z0 * d[None, :]

    def lambda_max(self) -> float:
        """Algebraically largest eigenvalue of the symmetrized form."""
        zt = self.symmetrized()
        if zt.size == 0:
            return 0.0
        return float(np.linalg.eigvalsh(zt)[-1])


def _float_walk(z: np.ndarray):
    """gamma as a list, by a depth-first walk over the support of Z that
    sets gamma_j = gamma_i / (z_ij / z_ji) on reaching j and checks the
    ratio on every other edge; None when a ratio or gamma leaves (0, inf).

    Neighbours are taken in ascending order from row-major lists, and every
    number is a Python float, whose division rounds as NumPy's does; off
    (0, inf) NumPy's scalars warn, and its nan marks an agent unreached, so
    ``_scalar_walk`` decides those networks.
    """
    n = z.shape[0]
    rows, cols = np.nonzero(z)
    heads = np.searchsorted(rows, np.arange(n + 1)).tolist()
    js, fwd, back = cols.tolist(), z[rows, cols].tolist(), z[cols, rows].tolist()
    gamma, inf = [0.0] * n, math.inf  # 0.0: not reached
    for root in range(n):
        if gamma[root]:
            continue
        gamma[root] = 1.0
        stack = [root]
        while stack:
            i = stack.pop()
            gi = gamma[i]
            for k in range(heads[i], heads[i + 1]):
                j, ratio = js[k], fwd[k] / back[k]
                if not 0.0 < ratio < inf:
                    return None
                gj = gamma[j]
                if not gj:
                    gj = gamma[j] = gi / ratio
                    if not 0.0 < gj < inf:
                        return None
                    stack.append(j)
                elif not math.isclose(q := gi / gj, ratio, rel_tol=_REL_TOL):
                    if q == inf:
                        return None
                    raise NotSymmetrizableError("cycle", (i, j))
    return gamma


def _scalar_walk(z: np.ndarray) -> np.ndarray:
    """``_float_walk`` in NumPy scalars, with nan for an unreached agent,
    for the networks whose ratios or gammas overflow or underflow."""
    n = z.shape[0]
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
                elif not math.isclose(gamma[i] / gamma[j], ratio, rel_tol=_REL_TOL):
                    raise NotSymmetrizableError("cycle", (i, int(j)))
    return gamma


def symmetrize_decompose(net: WeightedNetwork) -> Decomposition:
    """Factor Z as diag(gamma) @ z0 with gamma > 0 and z0 symmetric.

    gamma is normalized to 1 at the first agent of each connected component
    (connectivity taken over the undirected support of Z). Raises
    :class:`NotSymmetrizableError` when the sign pattern is asymmetric or the
    weight ratios are inconsistent around a cycle.
    """
    z = net.z
    n = net.n
    # Sign-symmetric support is necessary: z_ij and z_ji must vanish together
    # and agree in sign. The mask is symmetric with a false diagonal, so its
    # first entry in row-major order is the first bad pair i < j.
    bad = ((z == 0) != (z.T == 0)) | (z * z.T < 0)
    if bad.any():
        raise NotSymmetrizableError("sign", divmod(int(bad.argmax()), n))

    # Propagate gamma ratios over the support graph: z = Gamma z0 with z0
    # symmetric forces gamma_i / gamma_j = z_ij / z_ji on every edge.
    gamma = _float_walk(z)
    gamma = _scalar_walk(z) if gamma is None else np.array(gamma, dtype=float)

    z0 = z / gamma[:, None]
    # The edge-by-edge ratio checks make z0 symmetric up to roundoff; equalize.
    z0 = (z0 + z0.T) / 2.0

    # gamma[:1] is empty with no agents, whose decomposition is uniform.
    if _allclose(gamma, gamma[:1]):
        return Decomposition(z0=z0 * gamma[:1], gamma=np.ones(n))
    return Decomposition(z0=z0, gamma=gamma)


def _try_symmetrize(net: WeightedNetwork) -> tuple:
    """``(decomposition, None)``, or ``(None, witness)`` when Z is not
    symmetrizable, with the failure's ``{"reason", "detail"}`` as witness."""
    try:
        return symmetrize_decompose(net), None
    except NotSymmetrizableError as exc:
        return None, {"reason": exc.reason, "detail": exc.detail}


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one structural test, with its numeric witness."""

    assumption: str
    holds: bool
    witness: dict = field(default_factory=dict)


def check_assumption(net: WeightedNetwork, assumption: str) -> AssumptionReport:
    """Test one named structural property of the network.

    Recognized names are listed in :data:`ASSUMPTIONS`. The witness dict
    carries the quantity that decides the test (spectral radius, violating
    pair, top eigenvalue of the symmetrized form, ...).
    """
    z = net.z
    n = net.n

    if assumption == "bounded":
        # With no agents the bound holds vacuously.
        bound = 1.0 / n if n else math.inf
        absz = np.abs(z)
        argmax = divmod(int(np.argmax(absz)), n) if n else None
        max_abs = float(absz[argmax]) if n else 0.0
        return AssumptionReport(
            assumption,
            holds=bool(max_abs < bound),
            witness={"bound": bound, "max_abs": max_abs, "argmax": argmax},
        )

    if assumption == "same-sign":
        s = np.sign(z)
        bad = np.argwhere((s != s.T) & ~np.eye(n, dtype=bool))
        if bad.size:
            i, j = (int(v) for v in bad[0])
            return AssumptionReport(
                assumption,
                holds=False,
                witness={"violation": (i, j), "values": (float(z[i, j]), float(z[j, i]))},
            )
        return AssumptionReport(assumption, holds=True, witness={"violation": None})

    if assumption == "negative":
        bad = np.argwhere((z >= 0) & ~np.eye(n, dtype=bool))
        if bad.size:
            i, j = (int(v) for v in bad[0])
            return AssumptionReport(
                assumption,
                holds=False,
                witness={"violation": (i, j), "value": float(z[i, j])},
            )
        return AssumptionReport(assumption, holds=True, witness={"violation": None})

    if assumption == "limited":
        rho = spectral_radius(z)
        return AssumptionReport(assumption, holds=bool(rho < 1.0), witness={"rho": rho})

    if assumption in ("symmetrizable", "symmetrizable-limited"):
        dec, failure = _try_symmetrize(net)
        if dec is None:
            return AssumptionReport(assumption, holds=False, witness=failure)
        if assumption == "symmetrizable":
            return AssumptionReport(
                assumption,
                holds=True,
                witness={"kind": dec.kind, "decomposition": dec},
            )
        # One symmetric spectrum, ascending, gives lambda_max as
        # Decomposition.lambda_max does, and rho.
        ev = np.linalg.eigvalsh(dec.symmetrized()) if n else np.zeros(1)
        lam, rho = float(ev[-1]), float(np.abs(ev).max())
        return AssumptionReport(
            assumption,
            holds=bool(rho < 1.0),
            witness={"lambda_max": lam, "rho": rho, "decomposition": dec},
        )

    raise UsageError(
        f"unknown assumption {assumption!r}; expected one of {', '.join(ASSUMPTIONS)}"
    )


def _agent_set(n: int, entries: Iterable, name: str) -> frozenset:
    """``entries`` as a frozenset; raise unless each is an agent index: an
    int or np.integer, not a bool, in range(n)."""
    entries = tuple(entries)
    for i in entries:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
            raise UsageError(f"{name} holds {i!r}: not an agent index in range({n})")
    return frozenset(entries)


def submatrix(net: WeightedNetwork, agents: Iterable[int]) -> WeightedNetwork:
    """Restriction of the network to ``agents``, each an agent index."""
    idx = sorted(_agent_set(net.n, agents, "agents"))
    return WeightedNetwork(z=net.z[np.ix_(idx, idx)])


@dataclass(frozen=True)
class RandomNetSpec:
    """Parameters for the random symmetrizable generator.

    n agents; an undirected link is present with probability k/(n-1) so the
    expected degree is k; per-agent sensitivities gamma_i are i.i.d.
    lognormal with mean ``mu`` and variance ``sigma2`` (a point mass at mu
    when sigma2 = 0).
    """

    n: int
    k: float
    mu: float
    sigma2: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("random network needs n >= 2")
        if not 0 < self.k < self.n:
            raise UsageError("expected degree k must lie in (0, n)")
        if self.mu <= 0:
            raise UsageError("mean sensitivity mu must be positive")
        if self.sigma2 < 0:
            raise UsageError("sensitivity variance must be nonnegative")


def random_symmetrizable(spec: RandomNetSpec) -> WeightedNetwork:
    """Draw Z = diag(gamma) @ A with A an undirected 0/1 graph.

    Deterministic for a given seed. The result decomposes by construction,
    so :func:`symmetrize_decompose` recovers a scaling and the symmetrized
    form whenever they are needed.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    p = spec.k / (n - 1)
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, k=1)
    a = (adj | adj.T).astype(float)

    if spec.sigma2 == 0:
        gamma = np.full(n, spec.mu)
    else:
        # Match the lognormal's mean and variance exactly.
        s2 = math.log1p(spec.sigma2 / spec.mu**2)
        m = math.log(spec.mu) - s2 / 2.0
        gamma = rng.lognormal(mean=m, sigma=math.sqrt(s2), size=n)

    dec = Decomposition(z0=a, gamma=gamma)
    return WeightedNetwork(z=dec.recompose())
