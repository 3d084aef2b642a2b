"""Spectral scoring and pruning of token sequences.

The pruning pipeline runs entirely along the token axis, independently per
feature channel:

1. forward DFT of the (n, d) token matrix over the token index,
2. a Hamming-tapered low-pass mask over frequency bins,
3. inverse DFT back to the token domain,
4. per-token L2 energy of the filtered (complex) signal,
5. keep the top-k tokens by energy, re-emitted in original order with their
   *unfiltered* features -- filtering is for scoring only.

Two mask modes are provided.  ``as-written`` zeroes every bin above the
cutoff, including the conjugate bins near n, so the filtered signal is
generally complex and energies use the complex modulus.  ``symmetric``
mirrors the passband onto the conjugate bins (coeffs[k] == coeffs[n-k],
DC weight 1), which keeps real inputs real after inverse transform.

Transforms are `np.fft.fft` / `np.fft.ifft` along the token axis, which
handle any token count (counts after merging are rarely powers of two).
A spectrum is a ``ComplexSequence``, one read-only (n, d) complex128 array;
`dft_forward`, `dft_inverse` and `spectral_prune`'s masked product wrap the
fresh array they compute with ``ComplexSequence._adopt``, which freezes it
in place instead of copying it.  A mask is the read-only (n,) coefficient
array that `make_filter` builds, in [0, 1] by construction.
Correctness is pinned to a direct-summation oracle in the test suite, not to
the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tokens import ComplexSequence, TokenSequence, _frozen

FILTER_MODES = ("as-written", "symmetric")


def dft_forward(seq: TokenSequence) -> ComplexSequence:
    """X[k] = sum_n x[n] exp(-2i*pi*k*n/N) per channel, along the token axis."""
    if seq.n < 1:
        raise ShapeError("dft_forward needs at least one token")
    return ComplexSequence._adopt(np.fft.fft(seq.data, axis=0))


def dft_inverse(freq: ComplexSequence) -> ComplexSequence:
    """x[n] = (1/N) sum_k X[k] exp(+2i*pi*k*n/N); stays complex on purpose.

    After an asymmetric mask the time-domain signal has a genuine imaginary
    part, which the energy scoring keeps.  A zero-bin spectrum is its own
    inverse.
    """
    if freq.n == 0:
        return freq
    return ComplexSequence._adopt(np.fft.ifft(freq.data, axis=0))


def make_filter(n: int, sigma_t: int, mode: str = "as-written") -> np.ndarray:
    """The read-only (n,) low-pass mask, Hamming-tapered up to bin sigma_t.

    as-written: coeffs[k] = 0.54 - 0.46*cos(2*pi*k/(n-1)) for k <= sigma_t,
    zero above.  symmetric: a half-Hamming taper (1 at DC, 0.08 at the
    cutoff) mirrored onto bins n-k so the mask is conjugate-symmetric.
    """
    if not 0 <= sigma_t < n:
        raise ValueError(f"sigma_t={sigma_t} outside 0..{n - 1}")
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}")
    k = np.arange(n)
    if mode == "as-written":
        if n == 1:
            taper = np.array([0.08])
        else:
            taper = 0.54 - 0.46 * np.cos(2 * np.pi * k / (n - 1))
        coeffs = np.where(k <= sigma_t, taper, 0.0)
    else:
        low = np.zeros(n)
        if sigma_t == 0:
            low[0] = 1.0
        else:
            ks = np.arange(sigma_t + 1)
            low[: sigma_t + 1] = 0.54 + 0.46 * np.cos(np.pi * ks / sigma_t)
        coeffs = np.maximum(low, low[(n - k) % n])
    coeffs.flags.writeable = False
    return coeffs


def cutoff_from_ratio(n: int, sigma_ratio: float) -> int:
    """Cutoff bin for a pass fraction of the n bins: max(0, ceil(r*n) - 1)."""
    if not 0 < sigma_ratio <= 1:
        raise ValueError(f"sigma_ratio={sigma_ratio} outside (0, 1]")
    return max(0, math.ceil(sigma_ratio * n) - 1)


@dataclass(frozen=True)
class EnergyRanking:
    """Per-token energies plus the ascending indices that survived top-k."""

    energies: np.ndarray = field(repr=False)
    kept: np.ndarray = field(repr=False)

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=np.float64).reshape(-1)
        kept = np.asarray(self.kept, dtype=np.int64).reshape(-1)
        if kept.size:
            if np.any(np.diff(kept) <= 0):
                raise ValueError("kept indices must be strictly increasing")
            if kept[0] < 0 or kept[-1] >= energies.size:
                raise ValueError("kept indices out of range")
        object.__setattr__(self, "energies", _frozen(energies, self.energies))
        object.__setattr__(self, "kept", _frozen(kept, self.kept))


def topk_ascending(energies: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the `keep` largest energies, returned in ascending order.

    Ties break toward the lower index (stable sort on descending energy).
    """
    order = np.argsort(-np.asarray(energies, dtype=np.float64), kind="stable")
    return np.sort(order[:keep])


def spectral_prune(seq: TokenSequence, sigma_ratio: float, keep: int,
                   mode: str = "as-written") -> tuple[TokenSequence, EnergyRanking]:
    """Keep the `keep` highest-energy tokens after low-pass scoring.

    The survivors carry their original (unfiltered) features and come out in
    original order.  Ties in energy break toward the lower original index so
    results are reproducible.
    """
    if not 0 <= keep <= seq.n:
        raise ShapeError(f"keep={keep} outside 0..{seq.n}")
    if seq.n == 0:
        empty = np.zeros(0)
        return seq, EnergyRanking(empty, empty.astype(np.int64))
    coeffs = make_filter(seq.n, cutoff_from_ratio(seq.n, sigma_ratio), mode)
    z = dft_inverse(ComplexSequence._adopt(dft_forward(seq).data * coeffs[:, None])).data
    energies = np.sqrt(np.sum(z.real ** 2 + z.imag ** 2, axis=1))  # per-token modulus
    kept = topk_ascending(energies, keep)
    pruned = TokenSequence(keep, seq.d, seq.data[kept], seq.positions[kept], seq.orig_len)
    return pruned, EnergyRanking(energies, kept)
