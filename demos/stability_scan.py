# -*- coding: utf-8 -*-
"""Where does learning stop settling?  Sweep the spillover intensity.

For each weight the full-support Nash equilibrium gets two verdicts: the
spectral test (radius of the active submatrix below one) and a seeded
Monte-Carlo probe that perturbs the equilibrium beliefs and counts how many
runs come back. The two flip together at the critical intensity.
"""

import numpy as np

from netsce import (
    WeightedNetwork,
    analytic_stability,
    make_game,
    probe_stability,
    solve_full_ne,
    spectral_radius,
)

ADJ = np.array(
    [
        [0, 0, 0, 1],
        [1, 0, 1, 1],
        [0, 0, 0, 0],
        [1, 0, 1, 0],
    ],
    dtype=float,
)
ALPHA = 0.1
SEED = 7
SAMPLES = 40

if __name__ == "__main__":
    print(f"base adjacency spectral radius: {spectral_radius(ADJ):.4f}")
    print(f"{'weight':>7} {'rho(active)':>12} {'verdict':>13} {'returned':>9}")
    for gamma in (0.3, 0.6, 0.9, 0.95, 1.0, 1.05):
        game = make_game(WeightedNetwork(z=gamma * ADJ), alpha=ALPHA)
        nes, _ = solve_full_ne(game)
        if not nes:
            print(f"{gamma:7.2f}  no interior Nash point at this weight")
            continue
        ana = analytic_stability(game, nes[0])
        emp = probe_stability(game, nes[0], epsilon=1e-3, samples=SAMPLES, seed=SEED)
        print(f"{gamma:7.2f} {ana.rho_active:12.4f} "
              f"{ana.verdict:>13} {emp.return_fraction:8.0%}")
