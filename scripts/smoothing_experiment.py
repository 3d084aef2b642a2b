"""How fast does repeated attention averaging crush the HC/DC ratio?

Runs many random strictly-positive row-stochastic matrices and prints decay
quantiles of the high-frequency to DC norm ratio over iterations.
"""

import numpy as np

from tokcomp.theory import random_smoothing_setup, smoothing_trace

N = 64
T = 50
TRIALS = 100


def main():
    traces = []
    for seed in range(TRIALS):
        attn, z = random_smoothing_setup(N, seed)
        traces.append(smoothing_trace(attn, z, T).ratios)
    ratios = np.stack(traces)
    print(f"{TRIALS} trials, {N}x{N} attention, {T} iterations")
    print(f"{'t':>3s} {'median':>12s} {'p90':>12s} {'max':>12s}")
    for t in (0, 1, 2, 5, 10, 20, 50):
        col = ratios[:, t]
        print(f"{t:3d} {np.median(col):12.3e} {np.quantile(col, 0.9):12.3e} {col.max():12.3e}")


if __name__ == "__main__":
    main()
