"""The four benchmark workloads.

Each generator turns (seed, size) into a list of ops over seeded inputs. An op
is one closed-loop call into netsce, made through the module attribute the
library itself resolves (``learning.run_learning``, ``cli.main``, ...), so
the traced run can swap in span-recording wrappers. Before every call, and
outside its timing, ``make`` builds the call's netsce objects anew from the
seeded arrays, as a caller with fresh data would: a cache kept on those
objects across calls cannot register as a gain. Every op carries a check
that re-derives the answer in ``oracles`` and, for the reference seed, a
verdict that is compared with ``reference.json``.

Sizes: "full" is what the benchmark measures; "smoke" is the smallest
version of every workload, for the self-test.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from netsce import cli, equilibrium, global_ext, learning, network, scenario
from netsce import game as games

import oracles

WORKLOADS = ("enumerate", "learn", "stability_cli", "global_sweep")


@dataclass
class Outcome:
    error: Optional[str] = None  # why the op failed its check
    verdict: Optional[str] = None  # compared with reference.json at the reference seed
    csv_bytes: int = 0


@dataclass
class Op:
    key: str  # stable within a seed: family and generation index
    family: str
    make: Callable[[], object]  # fresh call arguments, built outside the timing
    run: Callable[[object], object]
    check: Callable[[object], Outcome]


@dataclass
class Inputs:
    """Everything a workload generated from its seed."""

    ops: list = field(default_factory=list)
    trace_keys: set = field(default_factory=set)
    sha: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    lower_only: bool = False  # reference verdicts may only improve (global_sweep)

    def hash(self, *parts) -> None:
        for p in parts:
            if isinstance(p, np.ndarray):
                self.sha.update(np.ascontiguousarray(p, dtype=float).tobytes())
            elif isinstance(p, bytes):
                self.sha.update(p)
            else:
                self.sha.update(repr(p).encode())

    def add(self, op: Op, trace: bool = False) -> None:
        self.ops.append(op)
        if trace:
            self.trace_keys.add(op.key)

    @property
    def trace_ops(self) -> list:
        return [op for op in self.ops if op.key in self.trace_keys]


def _stratum(rng, lo, hi, part, parts):
    """Uniform draw from slice ``part`` of ``parts`` equal slices of [lo, hi)."""
    return lo + (hi - lo) * (part + rng.uniform()) / parts


def _zero_diag(z):
    np.fill_diagonal(z, 0.0)
    return z


def _scaled(z, rho):
    """z rescaled so that the spectral radius of |z| equals rho."""
    return z * (rho / max(abs(np.linalg.eigvals(np.abs(z)))))


def _game(z, alpha, a_max=None):
    net = z if isinstance(z, network.WeightedNetwork) else network.WeightedNetwork(z=z)
    return games.make_game(net, alpha=alpha, a_max=a_max)


def _fresh(game):
    """A new GameSpec equal to ``game``, built from copies of its arrays."""
    net = dataclasses.replace(game.net, z=np.array(game.net.z))
    return dataclasses.replace(game, net=net, alpha=np.array(game.alpha),
                               a_max=np.array(game.a_max), x_lo=np.array(game.x_lo),
                               x_hi=np.array(game.x_hi))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shipped(root: Path, names):
    for name in names:
        yield name, scenario.load_scenario(root / "scenarios" / f"{name}.json")


# ---------------------------------------------------------------- enumerate

ENUM_SIZES = {
    "full": {6: 10, 7: 10, 8: 26, 9: 8, 10: 1, 11: 1},
    "smoke": {4: 1, 5: 1},
}
LOCAL_SHIPPED = ("table1", "table2", "table3", "learn_drifting", "learn_contracting")


def _enumerate_op(inp, key, family, game, trace):
    z, alpha = game.net.z, game.alpha
    a_max, x_lo, x_hi = game.a_max, game.x_lo, game.x_hi
    inp.hash(key, z, alpha, a_max, x_lo, x_hi)

    want = []  # brute-force NE and SCE masks, derived on the first check only

    def run(g):
        return equilibrium.solve_full_ne(g), equilibrium.enumerate_sce(g)

    def check(out):
        ne, sce = out
        if not want:
            want.extend(oracles.equilibrium_masks(z, alpha, a_max, x_lo, True))
            want.extend(oracles.equilibrium_masks(z, alpha, a_max, x_lo, False))
        err = oracles.check_enumeration(z, alpha, a_max, x_lo, x_hi, ne, sce, want)
        verdict = " ".join(f"{r.bitmask}:{r.kind}" for recs in (ne[0], sce[0]) for r in recs)
        return Outcome(err, _digest(verdict))

    inp.add(Op(key, family, lambda: _fresh(game), run, check), trace)


def build_enumerate(rng, size, root, workdir) -> Inputs:
    """Dense games in a certified and an uncertified half, plus shipped games.

    Certified: nonpositive Z with rho(|Z|) < 1, so I - Z is a P-matrix and
    the NE is unique. Uncertified: strong substitutes or signed Z with
    rho(|Z|) > 1 (dense random weights, so almost surely not
    symmetrizable); every third one carries a unit reciprocal pair whose
    2-agent support is singular.
    """
    inp = Inputs()
    for n, count in ENUM_SIZES[size].items():
        for k in range(count):
            z = _zero_diag(-rng.uniform(0.0, 1.0, (n, n)))
            z = _scaled(z, rng.uniform(0.5, 0.95))
            alpha = rng.uniform(0.05, 0.5, n)
            game = _game(z, alpha)
            _enumerate_op(inp, f"certified-n{n}-{k}", f"certified-n{n}", game, k == 0 and n <= 10)
        for k in range(count):
            if k % 2 == 0:
                z = _zero_diag(-rng.uniform(0.0, 1.0, (n, n)))
                z = _scaled(z, rng.uniform(1.5, 3.0))
            else:
                z = _zero_diag(rng.uniform(-1.0, 1.0, (n, n)))
                z = _scaled(z, rng.uniform(1.2, 2.0))
            if k % 3 == 0:
                i, j = rng.choice(n, size=2, replace=False)
                z[i, j] = z[j, i] = 1.0
            alpha = rng.uniform(0.05, 0.5, n)
            game = _game(z, alpha)
            _enumerate_op(inp, f"uncertified-n{n}-{k}", f"uncertified-n{n}", game, k == 0 and n <= 10)
    for name, scn in _shipped(root, LOCAL_SHIPPED):
        _enumerate_op(inp, f"shipped-{name}", "shipped", scn.game, True)
    return inp


# ---------------------------------------------------------------- learn

LEARN_BLOCKS = {"full": 10, "smoke": 1}
BATTERY_PER_BLOCK = 20
BATTERY_ITER = 300  # cap for the limit-battery families
HORIZON_ITER = 100  # fixed-horizon runs: window > max_iter, so they never stop early
POSITIVE_ITER = 600


def _learn_op(inp, key, family, game, x0, trace, tol=1e-10, max_iter=100_000, window=3):
    z, alpha, a_max = game.net.z, game.alpha, game.a_max
    inp.hash(key, z, alpha, a_max, game.x_lo, game.x_hi, x0, tol, max_iter, window)

    def make():
        return _fresh(game), np.array(x0)

    def run(args):
        g, start = args
        return learning.run_learning(g, start, tol=tol, max_iter=max_iter, window=window)

    def check(traj):
        err = oracles.check_trajectory(z, alpha, a_max, traj, tol, max_iter)
        return Outcome(err, f"{traj.classification}|{traj.period}|{traj.period_kind}")

    inp.add(Op(key, family, make, run, check), trace)


def build_learn(rng, size, root, workdir) -> Inputs:
    """Limit-battery families, fixed-horizon and positive-feedback runs.

    Per block: twenty battery games (ten of nonnegative contracting,
    mixed-sign and rescaled signed Z with rho > 1, and ten more of the
    first two kinds, which converge, so the median op sits inside their
    dense cluster; n = 2..12, up to 300 steps), three
    fixed-horizon runs (100 steps) on contracting games whose 64-row
    recurrence ring fills with near-identical states, and one positive-feedback game with
    rho slightly above 1 that drifts to max_iter. Once per pool: two n=500
    runs and the two shipped learn scenarios. A battery game's coupling
    strength is drawn from slice b of its range in block b, so every seed
    has the same spread of contraction rates and step counts.
    """
    inp = Inputs()
    big = 500 if size == "full" else 40
    blocks = LEARN_BLOCKS[size]
    for b in range(blocks):
        first = b == 0
        for k in range(BATTERY_PER_BLOCK):
            n = 2 + (b * BATTERY_PER_BLOCK + k) % 11
            fam = k % 5 if k < 10 else k % 4  # the second ten converge: no rho > 1 family
            if fam in (0, 2):
                z = rng.uniform(0.0, _stratum(rng, 0.4, 0.95, b, blocks) / n, (n, n))
            elif fam in (1, 3):
                span = _stratum(rng, 0.5, 2.0, b, blocks)
                z = rng.uniform(-span / n, span / n, (n, n))
            else:
                z = _zero_diag(rng.uniform(-1.0, 1.0, (n, n)))
                z *= _stratum(rng, 1.05, 1.6, b, blocks) / max(abs(np.linalg.eigvals(z)))
            game = _game(_zero_diag(z), rng.uniform(-0.15, 0.5, n))
            x0 = np.clip(rng.uniform(-0.3, 0.6, n), game.x_lo, game.x_hi)
            _learn_op(inp, f"battery-{b}-{k}", "battery", game, x0, first, max_iter=BATTERY_ITER)
        for k in range(3):
            n = int(rng.integers(3, 9))
            z = _zero_diag(rng.uniform(0.0, rng.uniform(0.4, 0.95) / n, (n, n)))
            game = _game(z, rng.uniform(0.05, 0.5, n))
            x0 = rng.uniform(0.0, 0.3, n)
            _learn_op(inp, f"horizon-{b}-{k}", "horizon", game, x0, first and k == 0,
                      max_iter=HORIZON_ITER, window=HORIZON_ITER + 1)
        n = int(rng.integers(3, 13))
        z = _zero_diag(rng.uniform(0.0, 1.0, (n, n)))
        z *= rng.uniform(1.002, 1.006) / max(abs(np.linalg.eigvals(z)))
        game = _game(z, rng.uniform(0.05, 0.5, n))
        x0 = rng.uniform(0.0, 0.3, n)
        _learn_op(inp, f"positive-{b}", "positive", game, x0, first, max_iter=POSITIVE_ITER)
    for k in range(2):
        z = _zero_diag(rng.uniform(0.0, rng.uniform(0.5, 0.9) / big, (big, big)))
        game = _game(z, rng.uniform(-0.15, 0.5, big))
        x0 = rng.uniform(-0.3, 0.6, big)
        _learn_op(inp, f"large-{k}", "large", game, x0, k == 0)
    for name, scn in _shipped(root, ("learn_drifting", "learn_contracting")):
        _learn_op(inp, f"shipped-{name}", "shipped", scn.game, scn.initial_conjectures, True,
                  tol=scn.tol, max_iter=scn.max_iter, window=scn.window)
    return inp


# ---------------------------------------------------------------- stability_cli

STAB_BLOCKS = {"full": 17, "smoke": 1}
STAB_SLOTS = ((3, 0), (4, 1), (4, 1), (5, 2), (5, 2), (6, 1))  # (n, weak agents) per block
STAB_SAMPLES = {"full": 10, "smoke": 2}  # probes per record of the seeded games
STAB_A_MAX = 1.0


def _stability_op(inp, key, family, scn, workdir, trace):
    text = scenario.emit_scenario(scn)
    path = workdir / f"{key}.json"
    path.write_text(text, encoding="utf-8")
    inp.hash(key, text.encode())
    out_path = workdir / f"{key}.csv"
    argv = ["stability", "-i", str(path), "-o", str(out_path)]
    expected = []  # brute-force SCE bitmasks, derived once from the file's own numbers

    def run(_):
        return cli.main(argv)

    def check(rc):
        if rc != 0:
            return Outcome(f"exit code {rc}")
        data = out_path.read_bytes()
        out_path.unlink()
        if not expected:
            raw = json.loads(text)
            bounds = np.array(raw["x_bounds"], dtype=float)
            expected.extend(oracles.equilibrium_masks(
                np.array(raw["z"], dtype=float), np.array(raw["alpha"], dtype=float),
                np.array(raw["a_max"], dtype=float), bounds[:, 0], False))
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        err = oracles.check_stability_csv(rows, *expected, scn.samples)
        return Outcome(err, hashlib.sha256(data).hexdigest(), len(data))

    # The CLI re-reads its file on every call, so there is nothing to rebuild.
    inp.add(Op(key, family, lambda: None, run, check), trace)


def build_stability_cli(rng, size, root, workdir) -> Inputs:
    """``stability`` CLI calls on table1-3 and seeded local games, n = 3..6.

    table1-3 keep the probe samples they ship with (100 per record); their
    default conjecture ranges let every agent justify inactivity, so they
    have 2^n records. The seeded games have signed Z, caps of STAB_A_MAX and
    conjecture ranges just around the attainable aggregates. Their "weak"
    agents get a lower bound below -alpha_i, so they can justify
    inactivity; every other agent's intercept outweighs its most negative
    aggregate, so it cannot. A game with m weak agents has up to 2^m
    records (1, 2 or 4 here), each probed STAB_SAMPLES times. Scenario
    files are emitted with ``emit_scenario`` into the work directory during
    set-up; the probe seed of each file comes from the workload seed.
    """
    inp = Inputs()
    for name, scn in _shipped(root, ("table1", "table2", "table3")):
        scn = dataclasses.replace(scn, seed=int(rng.integers(1 << 30)))
        if size == "smoke":
            scn = dataclasses.replace(scn, samples=STAB_SAMPLES[size])
        _stability_op(inp, f"shipped-{name}", "shipped", scn, workdir, True)
    samples = STAB_SAMPLES[size]
    for b in range(STAB_BLOCKS[size]):
        for k, (n, m) in enumerate(STAB_SLOTS):
            span = rng.uniform(0.4, 0.7)
            z = _zero_diag(rng.uniform(-span / n, span / n, (n, n)))
            cap = np.full(n, STAB_A_MAX)
            lo = np.minimum(z, 0.0) @ cap  # lowest attainable aggregate
            hi = np.maximum(z, 0.0) @ cap + 0.01
            alpha = rng.uniform(0.05, 0.5, n)
            weak = rng.choice(n, size=m, replace=False)
            strong = np.setdiff1d(np.arange(n), weak)
            alpha[strong] += 0.02 - lo[strong]
            lo -= 0.01
            lo[weak] = np.minimum(lo[weak], -alpha[weak] - 0.01)
            raw = {
                "mode": "local",
                "n": n,
                "alpha": alpha.tolist(),
                "z": z.tolist(),
                "a_max": cap.tolist(),
                "x_bounds": np.column_stack([lo, hi]).tolist(),
                "seed": int(rng.integers(1 << 30)),
                "samples": samples,
            }
            scn = scenario.parse_scenario(raw)
            _stability_op(inp, f"local-{b}-{k}", f"n{n}", scn, workdir, b == 0 and k % 2 == 0)
    return inp


# ---------------------------------------------------------------- global_sweep

GLOBAL_SMALL = {"full": 120, "smoke": 2}
GLOBAL_LARGE = {"full": ((50, 8, 0.06, 8), (50, 8, 0.06, 8), (200, 8, 0.2, 4), (200, 8, 0.2, 4)),
                "smoke": ((20, 4, 0.1, 2),)}
GRID = 4
STRATA = 4  # slices of each u range, taken in turn by successive networks of a kind
GLOBAL_TOL = 1e-10
GLOBAL_ITER = 1000


def _global_op(inp, key, family, base, beta, c, check_net, trace):
    z, alpha = base.net.z, base.alpha
    inp.hash(key, z, alpha, base.a_max, beta, c, check_net, GLOBAL_TOL, GLOBAL_ITER)

    def run(g):
        if check_net:
            for name in network.ASSUMPTIONS:
                network.check_assumption(g.net, name)
        return global_ext.phi_map(g, beta, [c], tol=GLOBAL_TOL, max_iter=GLOBAL_ITER)

    def check(entries):
        if len(entries) != 1:
            return Outcome(f"{len(entries)} entries for one grid point")
        sol = entries[0].solve
        err = oracles.check_global(z, alpha, beta, c, sol, GLOBAL_TOL)
        return Outcome(err, "converged" if sol.converged else "open")

    inp.add(Op(key, family, lambda: _fresh(base), run, check), trace)


def build_global_sweep(rng, size, root, workdir) -> Inputs:
    """phi_map grid points on small mild/hot networks and larger random ones.

    Small networks (n = 3..5) follow the phi-monotonicity battery: row sums
    r in [0.8, 1.8] and perceived centralities along t * u * r / (n - 1),
    t = 1/4..1. Two in three networks are mild: u in [0.2, 0.5], solved by
    plain iteration, so the median op sits well inside their cluster. Hot
    ones take u in [0.85, 0.98], so their upper grid points
    sit in the corner where the rest-point branch folds and every method
    runs to budget. Sizes and u ranges are stratified: successive networks
    of a kind take n = 3, 4, 5 and the STRATA slices of their u range in
    turn, so every seed has the same mix of sizes and severities and the
    share of ops that run to budget, which sets op_ms_tail and ops_per_s,
    varies little between seeds. Larger networks come from
    ``random_symmetrizable`` (n = 50 with row sums below 2, so plain
    iteration is allowed; n = 200 with heavier weights, where it mostly is
    not). Grid point 0 of every network also runs ``check_assumption`` over
    all ASSUMPTIONS.
    """
    inp = Inputs(lower_only=True)
    beta = 1.0
    for s in range(GLOBAL_SMALL[size]):
        kind, lo, hi = ("hot", 0.85, 0.98) if s % 3 == 2 else ("mild", 0.2, 0.5)
        part, n = (s // 3) % STRATA, 3 + (s // (3 * STRATA)) % 3
        lo, hi = lo + (hi - lo) * part / STRATA, lo + (hi - lo) * (part + 1) / STRATA
        r = rng.uniform(0.8, 1.8, n)
        w = _zero_diag(rng.uniform(0.2, 1.0, (n, n)))
        z = w / w.sum(axis=1, keepdims=True) * r[:, None]
        base = _game(z, np.full(n, float(rng.uniform(0.05, 0.5))), a_max=50.0)
        top = rng.uniform(lo, hi, n) * r / (n - 1)
        for k in range(GRID):
            _global_op(inp, f"{kind}-{s}-{k}", kind, base, beta, (k + 1) / GRID * top,
                       k == 0, s < 6)
    for s, (n, deg, mu, points) in enumerate(GLOBAL_LARGE[size]):
        while True:
            spec = network.RandomNetSpec(n=n, k=deg, mu=mu, sigma2=0.1 * mu * mu,
                                         seed=int(rng.integers(1 << 30)))
            net = network.random_symmetrizable(spec)
            rows = net.z.sum(axis=1)
            if np.all(rows > 0):  # an isolated agent admits no positive c
                break
        base = _game(net, np.full(n, 0.2), a_max=50.0)
        for k in range(points):
            c = (k + 1) / points * 0.9 * rows / (n - 1)
            _global_op(inp, f"large{n}-{s}-{k}", f"n{n}", base, beta, c, k == 0,
                       s % 2 == 0)
    return inp


GENERATORS = {
    "enumerate": build_enumerate,
    "learn": build_learn,
    "stability_cli": build_stability_cli,
    "global_sweep": build_global_sweep,
}


def build(workload: str, seed: int, size: str, root: Path, workdir: Path) -> Inputs:
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    inp = GENERATORS[workload](rng, size, root, workdir)
    inp.hash(workload, seed, size)
    return inp
