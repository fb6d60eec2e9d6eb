"""Run ``solve_global_sce`` on the 3000-draw global battery.

The battery is ``test_global_solver._battery_game(rng, False)`` drawn from
``default_rng(12345)``. For each ``max_iter`` given (default 100000, the
solver's own) the script prints how many games converge, which method wins
them, the median iteration count of the games Newton wins, how many games
fail every method and the wall time of their solves, the same two figures
for each verdict of the failed solves ("no_rest_point" and
"undetermined"), the same two figures for the games the fallback kernel
runs on (every solve that Newton did not win and the certificate did not
end), and the wall time of all solves. The solves run at the
default ``tol``. pytest does not collect it (its name does not start with
``test_``). Run from the root of a checkout:

    PYTHONPATH=src python3 tests/global_battery.py [draws [max_iter ...]]
"""

import sys
import time
from collections import Counter

import numpy as np

from netsce import solve_global_sce
from test_global_solver import _battery_game


def _fallback_ran(solve):
    """Whether the solve went past Newton and the certificate."""
    return solve.method != "newton" or solve.verdict == "undetermined"


def main(draws=3000, *budgets):
    rng = np.random.default_rng(12345)
    games = [_battery_game(rng, False) for _ in range(draws)]
    for max_iter in budgets or (100_000,):
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
        times = [t for s, t in zip(solves, seconds) if _fallback_ran(s)]
        print(f"fallback {len(times)}, time {sum(times):.2f} s")
        print(f"time {sum(seconds):.2f} s")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:]))
