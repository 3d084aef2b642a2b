"""Numerical check that repeated attention averaging kills high frequencies.

For a strictly positive row-stochastic matrix A, iterating z <- A z drives
the ratio ||HC[z]|| / ||DC[z]|| to zero: the all-ones direction is the
Perron eigenvector, every other mode decays at the spectral-gap rate.  This
is the convergence argument behind scoring tokens by low-pass energy, and
`smoothing_trace` measures it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tokens import _frozen

DC_GUARD = 1e-12


def dc_component(z: np.ndarray) -> np.ndarray:
    """The k=0 Fourier projection: a constant vector at the mean of z."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.size < 1:
        raise ValueError("need at least one sample")
    return np.full(z.size, z.mean())


def hc_component(z: np.ndarray) -> np.ndarray:
    """Everything orthogonal to DC: z minus its mean."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    return z - dc_component(z)


@dataclass(frozen=True)
class SmoothingTrace:
    """HC/DC norm ratios for t = 0..t_max under repeated averaging."""

    ratios: np.ndarray = field(repr=False)
    t_max: int

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=np.float64).reshape(-1)
        if ratios.size != self.t_max + 1:
            raise ValueError("trace must hold t_max + 1 ratios")
        if np.any(~np.isfinite(ratios)) or np.any(ratios < 0):
            raise ValueError("ratios must be finite and non-negative")
        object.__setattr__(self, "ratios", _frozen(ratios, self.ratios))


def random_smoothing_setup(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded `smoothing_trace` inputs: positive row-stochastic attn, nonzero-mean z."""
    rng = np.random.default_rng(seed)
    attn = rng.uniform(0.05, 1.0, size=(n, n))
    attn /= attn.sum(axis=1, keepdims=True)
    z = rng.normal(size=n)
    if abs(z.mean()) < 1e-6:
        z = z + 1.0
    return attn, z


def smoothing_trace(attn: np.ndarray, z: np.ndarray, t_max: int) -> SmoothingTrace:
    """Iterate z <- attn @ z, recording ||HC||/||DC|| at each step.

    attn must be strictly positive with rows summing to 1 (that positivity
    is what guarantees the decay; the identity matrix, for instance, is
    excluded).  z must have a nonzero mean so the ratio stays defined.
    """
    attn = np.asarray(attn, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    n = z.size
    if attn.shape != (n, n):
        raise ValueError(f"attn must be {n}x{n}")
    if not np.all(attn > 0):
        raise ValueError("attn entries must be strictly positive")
    if not np.all(np.abs(attn.sum(axis=1) - 1.0) <= 1e-9):
        raise ValueError("attn rows must sum to 1")
    if abs(z.mean()) < DC_GUARD:
        raise ValueError("z has (near-)zero mean; HC/DC ratio undefined")
    ratios = []
    cur = z
    for _ in range(t_max + 1):
        ratios.append(np.linalg.norm(hc_component(cur)) / np.linalg.norm(dc_component(cur)))
        cur = attn @ cur
    return SmoothingTrace(np.array(ratios), t_max)
