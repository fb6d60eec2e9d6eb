"""Run ``solve_global_sce`` on the 3000-draw global battery.

The battery is ``test_global_solver._battery_game(rng, False)`` drawn from
``default_rng(12345)``. The script prints how many games converge, which
method wins them, the median iteration count of the games Newton wins,
how many games fail every method and the wall time of their solves, the
same two figures for each verdict of the failed solves ("no_rest_point"
and "undetermined"), and the wall time of all solves. The solves run at
the default ``tol`` and at ``max_iter`` (default 100000, the solver's
own). pytest does not collect it (its name does not start with
``test_``). Run from the root of a checkout:

    PYTHONPATH=src python3 tests/global_battery.py [draws [max_iter]]
"""

import sys
import time
from collections import Counter

import numpy as np

from netsce import solve_global_sce
from test_global_solver import _battery_game


def main(draws=3000, max_iter=100_000):
    rng = np.random.default_rng(12345)
    games = [_battery_game(rng, False) for _ in range(draws)]
    solves, seconds = [], []
    for g in games:
        start = time.perf_counter()
        solves.append(solve_global_sce(g, max_iter=max_iter))
        seconds.append(time.perf_counter() - start)
    won = [s for s in solves if s.converged]
    failed = [t for s, t in zip(solves, seconds) if not s.converged]
    winners = Counter(s.method for s in won)
    newton = [s.iterations for s in won if s.method == "newton"]
    print(f"draws {draws}, max_iter {max_iter}, converged {len(won)}")
    print("winners " + ", ".join(f"{m} {k}" for m, k in winners.most_common()))
    print(f"newton median iterations {np.median(newton) if newton else float('nan'):g}")
    print(f"failed {len(failed)}, time {sum(failed):.2f} s")
    for verdict in ("no_rest_point", "undetermined"):
        times = [t for s, t in zip(solves, seconds) if s.verdict == verdict]
        print(f"{verdict} {len(times)}, time {sum(times):.2f} s")
    print(f"time {sum(seconds):.2f} s")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:]))
