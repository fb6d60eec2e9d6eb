"""Weighted directed networks of payoff externalities.

Agents are indexed 0..n-1. Entry ``z[i, j]`` is the weight with which agent
j's action enters agent i's aggregate; the diagonal is identically zero. All
structural tests used by the rest of the package (boundedness, sign symmetry,
spectral limits, diagonal symmetrizability) live here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A copy of ``arr`` over an immutable ``bytes`` object: neither it nor
    any view of it can be made writable again."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


def _rebuild(self):
    """``__reduce__`` of a frozen dataclass: pickle and deep-copy through the
    constructor, whose ``__post_init__`` checks and freezes the copy's arrays
    and which carries nothing cached on the original."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _first(mask: np.ndarray):
    """The first true entry of a nonempty square mask in row-major order, as
    (i, j), or None."""
    k = int(mask.argmax())
    return divmod(k, mask.shape[0]) if mask.flat[k] else None


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
        agent j's action in agent i's aggregate. Stored over immutable bytes.

    The structural tests read one analysis of z in three parts, the entry
    pattern, the decomposition and the spectrum, each computed on its first
    read and cached in the instance ``__dict__``. It is not a field, so
    ``==``, ``repr`` and ``dataclasses.replace`` ignore it, and a pickled or
    copied network comes back without it.
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
        object.__setattr__(self, "z", _freeze(z))

    __reduce__ = _rebuild

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @functools.cached_property
    def _pattern(self) -> tuple:
        """(max |z_ij|, its first position, the first pair i < j whose signs
        differ, the first nonnegative off-diagonal entry); a position is
        (i, j) or None. Built from boolean masks, with no float temporary and
        no product z_ij * z_ji that could underflow to -0.0."""
        z, n = self.z, self.n
        if not n:
            return 0.0, None, None, None
        # Not argmax on z: on a read-only array NumPy's argmax is several
        # times slower than max, min or argmax on a fresh mask.
        big = max(float(z.max()), -float(z.min()))
        pos, neg = z > 0, z < 0
        nonneg = ~neg
        nonneg.flat[:: n + 1] = False
        asym = (pos != pos.T) | (neg != neg.T)
        return big, _first((z == big) | (z == -big)), _first(asym), _first(nonneg)

    @functools.cached_property
    def _decomposition(self) -> tuple:
        """``(symmetrize_decompose(self), None)``, or ``(None, {"reason",
        "detail"})`` when z is not symmetrizable; readers copy the dict."""
        try:
            return symmetrize_decompose(self), None
        except NotSymmetrizableError as exc:
            return None, {"reason": exc.reason, "detail": exc.detail}

    @functools.cached_property
    def _spectrum(self) -> tuple:
        """``(rho, lambda_max)``. On symmetrizable z both come from one
        ``eigvalsh`` of the similar symmetrized form (``lambda_max`` as
        :meth:`Decomposition.lambda_max` gives it); otherwise rho is
        :func:`spectral_radius` and ``lambda_max`` None."""
        dec = self._decomposition[0]
        if dec is None:
            return spectral_radius(self.z), None
        if not self.n:
            return 0.0, 0.0
        ev = np.linalg.eigvalsh(dec.symmetrized())
        return float(np.abs(ev).max()), float(ev[-1])


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
    """A factorization Z = diag(gamma) @ z0 with a strictly positive, finite
    vector gamma and a symmetric, finite z0.

    :attr:`kind` is ``"uniform"`` when every gamma is 1, so that z0 is Z
    itself, and ``"diagonal"`` otherwise. Both arrays are stored over
    immutable bytes.
    """

    z0: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z0", _freeze(np.asarray(self.z0, dtype=float)))
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 1 or g.shape[0] != self.z0.shape[0]:
            raise UsageError("decomposition needs one gamma per agent")
        if not np.all((g > 0) & (g < np.inf)):
            raise UsageError("diagonal scaling must be strictly positive and finite")
        object.__setattr__(self, "gamma", _freeze(g))
        if not _allclose(self.z0, self.z0.T):
            raise UsageError(f"{self.kind} decomposition needs a symmetric z0")
        if not np.isfinite(self.z0).all():
            raise UsageError("decomposition z0 entries must be finite")

    __reduce__ = _rebuild

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


def _float_walk(z: np.ndarray) -> list:
    """gamma as a list, by a depth-first walk over the support of Z that
    sets gamma_j = gamma_i / (z_ij / z_ji) on reaching j and checks the
    ratio on every other edge. Raises :class:`NotSymmetrizableError`, with
    reason "range" at an edge whose ratio or new gamma leaves (0, inf) and
    "cycle" at one whose quotient gamma_i / gamma_j, overflowing or not, is
    off its ratio by more than 1e-9.

    Neighbours are taken in ascending order from row-major lists, and every
    number is a Python float, whose division rounds as NumPy's does."""
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
                    raise NotSymmetrizableError("range", (i, j))
                gj = gamma[j]
                if not gj:
                    gj = gamma[j] = gi / ratio
                    if not 0.0 < gj < inf:
                        raise NotSymmetrizableError("range", (i, j))
                    stack.append(j)
                elif not math.isclose(gi / gj, ratio, rel_tol=_REL_TOL):
                    raise NotSymmetrizableError("cycle", (i, j))
    return gamma


def symmetrize_decompose(net: WeightedNetwork) -> Decomposition:
    """Factor Z as diag(gamma) @ z0 with gamma > 0 and z0 symmetric.

    gamma is normalized to 1 at the first agent of each connected component
    (connectivity taken over the undirected support of Z). Raises
    :class:`NotSymmetrizableError` when the sign pattern is asymmetric
    ("sign"), the weight ratios are inconsistent around a cycle ("cycle"), or
    a ratio or gamma leaves (0, inf) or an entry of z0 the floats ("range")."""
    z = net.z
    # Sign-symmetric support is necessary: z_ij and z_ji must vanish together
    # and agree in sign. The sign mask is symmetric with a false diagonal, so
    # its first entry in row-major order is the first bad pair i < j.
    bad = net._pattern[2]
    if bad is not None:
        raise NotSymmetrizableError("sign", bad)

    # Propagate gamma ratios over the support graph: z = Gamma z0 with z0
    # symmetric forces gamma_i / gamma_j = z_ij / z_ji on every edge.
    gamma = np.array(_float_walk(z), dtype=float)

    with np.errstate(over="ignore"):
        z0 = z / gamma[:, None]
        # The edge-by-edge ratio checks make z0 symmetric up to roundoff; equalize.
        z0 = (z0 + z0.T) / 2.0
    # |z0_ij| <= max |z| / min gamma: while twice that is finite, neither z0
    # nor z0 + z0.T overflowed, and only past it is z0 searched.
    bound = 2.0 * net._pattern[0] / float(gamma.min(initial=1.0))
    if bound == math.inf and (bad := _first(~np.isfinite(z0))) is not None:
        raise NotSymmetrizableError("range", bad)

    # gamma[:1] is empty with no agents, whose decomposition is uniform.
    if _allclose(gamma, gamma[:1]):
        return Decomposition(z0=z0 * gamma[:1], gamma=np.ones_like(gamma))
    return Decomposition(z0=z0, gamma=gamma)


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
    pair, top eigenvalue of the symmetrized form, ...). Every test reads it
    from the network's cached analysis, so the six tests together make at
    most one decomposition and one eigenvalue solve, and a report does not
    depend on which tests ran before it. On symmetrizable z, ``limited``
    reads rho off the symmetric spectrum, as ``symmetrizable-limited`` does.
    """
    n = net.n

    if assumption in ("bounded", "same-sign", "negative"):
        max_abs, top, asym, nonneg = net._pattern
        if assumption == "bounded":
            # With no agents the bound holds vacuously.
            bound = 1.0 / n if n else math.inf
            return AssumptionReport(
                assumption,
                holds=bool(max_abs < bound),
                witness={"bound": bound, "max_abs": max_abs, "argmax": top},
            )
        bad = asym if assumption == "same-sign" else nonneg
        if bad is None:
            return AssumptionReport(assumption, holds=True, witness={"violation": None})
        i, j = bad
        values = (
            {"values": (float(net.z[i, j]), float(net.z[j, i]))}
            if assumption == "same-sign"
            else {"value": float(net.z[i, j])}
        )
        return AssumptionReport(assumption, holds=False, witness={"violation": bad, **values})

    if assumption == "limited":
        rho = net._spectrum[0]
        return AssumptionReport(assumption, holds=bool(rho < 1.0), witness={"rho": rho})

    if assumption in ("symmetrizable", "symmetrizable-limited"):
        dec, failure = net._decomposition
        if dec is None:
            return AssumptionReport(assumption, holds=False, witness=dict(failure))
        if assumption == "symmetrizable":
            return AssumptionReport(
                assumption,
                holds=True,
                witness={"kind": dec.kind, "decomposition": dec},
            )
        rho, lam = net._spectrum
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
        if not 0 < self.mu < math.inf:
            raise UsageError("mean sensitivity mu must be positive and finite")
        try:  # random_symmetrizable's lognormal divides sigma2 by mu**2
            ok = self.sigma2 == 0 or self.sigma2 > 0 and self.sigma2 / self.mu**2 < math.inf
        except (OverflowError, ZeroDivisionError):
            ok = False
        if not ok:
            raise UsageError("sensitivity variance must be nonnegative, sigma2 / mu**2 finite")


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
