"""Deterministic toy transformer blocks used by the pipeline simulator.

There are no trained weights anywhere: every tensor is generated from a
splitmix64 counter hash keyed by (seed, stage, layer, slot), so any
implementation of the same recipe reproduces the exact float64 weights.
Recipe: value i of a tensor is mix64(tensor_seed + (i+1) * 0x9E3779B97F4A7C15)
mapped to [0, 1) via the top 53 bits, then to uniform(-a, a) with
a = 1/sqrt(fan_in).  tensor_seed chains mix64 over the tag integers.

A block is pre-norm-free and minimal: multi-head softmax attention with the
merged-size value boost (see merging.size_boost) plus a two-layer ReLU
feed-forward, both with residuals.  Position information enters once, as
additive sinusoidal encodings before layer 0.

Attention carries the row sums through the value product, as FlashAttention
carries the softmax denominator: q is scaled by 1/sqrt(dh), the merged-size
boost is added to v once for all heads, and v gains a ones column,
v' = [v, 1], so exp(s) @ v' yields the numerator and the row sum together;
the n x dh numerator is divided by the sum.  A head whose bound
max_i ||q_i|| * max_j ||k_j|| is at most SHIFT_MAX has every score in
[-SHIFT_MAX, SHIFT_MAX] (Cauchy–Schwarz), where exp neither overflows nor
underflows, so softmax_rows exponentiates its scores unshifted: the one numpy
pass over the n x n block.  A head above SHIFT_MAX has its scores shifted by
their exact row max in the block before the exp.  No normalised attention
matrix is ever formed.  Heads run one at a time through one float64 (n, n)
score buffer, so a call holds exactly 8n² bytes of scores for n tokens.
A head whose value product n·n·(dh + 1) reaches BLAS_ONE_THREAD_MACS (2^19
multiply-adds, where OpenBLAS starts a second thread) while each half,
⌈n/2⌉·n·(dh + 1), stays under it runs as two row halves in the same buffer:
just past that size the second thread is slower than one and then spins,
which doubled the CPU time of a 16 x 16 demo item.  Larger heads gain from
the second thread and run whole.  The halves move a call by at most a few
1e-15 relative against whole heads (3.5e-15 on exact-shift heads of
uniform(0, 100) tokens), and whole-run hidden states by under 1e-15.
Outputs are bit-identical to the same arithmetic, in the same row blocks,
on all heads at once.  Against the normalise-then-multiply form (scaled
scores, shifted by the exact row max, normalised rows, then the boosted
value product) they differ by at most a few 1e-15 relative per call on
normal(0, 1) inputs; whole-run reports, merged sizes and kept sets are
unchanged.

Weights are generated once per config.  layer_weights, connector_matrix and
text_tokens keep what they generate in one cache keyed by the frozen
ToyModelConfig; a call with a different config empties it, so it holds at
most one model.  A tensor is added only while the held bytes stay within
WEIGHT_CACHE_BYTES (16 MiB); beyond that, tensors are generated per call.
A whole model (18 layers, connector, text) takes about 1.16 MiB at d = 32,
4.63 MiB at d = 64 and 72 MiB at d = 256, so every model up to d = 64 is
held whole.  Every array these three functions return is read-only, cached
or not, so no caller can corrupt the cache and none behaves differently
under another budget.  Cached arrays are the arrays the recipe generates,
so outputs do not depend on the cache.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .merging import size_boost
from .tokens import strict_index

_GOLDEN = 0x9E3779B97F4A7C15
SEED_LIMIT = 1 << 64  # model seeds lie in [0, SEED_LIMIT)
_MASK = SEED_LIMIT - 1

STAGE_ENCODER = 0
STAGE_LLM = 1
STAGE_TEXT = 2
STAGE_CONNECTOR = 3

FF_EXPANSION = 2

# Largest bound max ||q_i|| * max ||k_j|| of a head that attention exponentiates
# unshifted; see attention.  Every exponent of such a head lies in
# [-SHIFT_MAX, SHIFT_MAX] and carries rounding of about eps * dh * SHIFT_MAX.
SHIFT_MAX = 64.0

# Multiply-adds from which OpenBLAS runs a matrix product on a second thread
# (with two CPUs it splits a product once m·n·k reaches twice its 2^18 minimum).
# Just past that size the second thread costs more than it saves: a 256 x 8 by
# 8 x 256 score product took 99 µs on two threads against 44 µs on one (median
# of 300 calls), and the idle thread then spins for about 0.1 s, which doubled
# demo_stream's CPU time per item.  attention runs a head whose products just
# reach this size as two row halves that each stay under it; see _head_rows.
BLAS_ONE_THREAD_MACS = 1 << 19

# Bytes of generated weights kept for the most recent config; see the module doc.
WEIGHT_CACHE_BYTES = 16 << 20


def _mix64_scalar(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def tensor_seed(seed: int, *tags: int) -> int:
    s = seed & _MASK
    for t in tags:
        s = _mix64_scalar((s + _GOLDEN + t) & _MASK)
    return s


def uniform_tensor(seed: int, shape: tuple[int, ...], scale: float) -> np.ndarray:
    """uniform(-scale, scale) values from the counter hash, row-major.

    Every dimension must be non-negative, and the value count must fit np.intp.
    """
    if any(dim < 0 for dim in shape):
        raise ShapeError(f"tensor shape {shape} has a negative dimension")
    count = math.prod(shape)
    if count > np.iinfo(np.intp).max:
        raise ShapeError(f"tensor shape {shape} holds {count} values, more than an array can index")
    idx = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = _mix64(np.uint64(seed) + idx)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return ((2.0 * u - 1.0) * scale).reshape(shape)


@dataclass(frozen=True)
class ToyModelConfig:
    d: int = 32
    heads: int = 4
    seed: int = 0
    text_len: int = 8

    def __post_init__(self):
        for name in ("d", "heads", "seed", "text_len"):
            object.__setattr__(self, name, strict_index(getattr(self, name)))
        if self.d < 1 or self.heads < 1 or self.d % self.heads != 0:
            raise ShapeError(f"d={self.d} must be a positive multiple of heads={self.heads}")
        if self.text_len < 0:
            raise ShapeError("text_len must be non-negative")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ShapeError(f"seed={self.seed} outside [0, 2**64)")


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


class _WeightCache:
    """Tensors generated for one ToyModelConfig, at most WEIGHT_CACHE_BYTES.

    Entries are tuples of read-only arrays keyed by the generating
    function's name and its arguments after the config.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.cfg: ToyModelConfig | None = None
        self.nbytes = 0
        self._held: dict[tuple, tuple[np.ndarray, ...]] = {}

    def get(self, cfg: ToyModelConfig, key: tuple, build) -> tuple[np.ndarray, ...]:
        """The cached arrays for key, else build()'s, frozen and kept if they fit."""
        with self._lock:
            if cfg != self.cfg:
                self.cfg, self.nbytes, self._held = cfg, 0, {}
            elif key in self._held:
                return self._held[key]
        arrays = build()
        for a in arrays:
            a.flags.writeable = False
        size = sum(a.nbytes for a in arrays)
        with self._lock:
            if (cfg == self.cfg and key not in self._held
                    and self.nbytes + size <= WEIGHT_CACHE_BYTES):
                self._held[key] = arrays
                self.nbytes += size
        return arrays


_WEIGHTS = _WeightCache()


def layer_weights(cfg: ToyModelConfig, stage: int, layer: int) -> LayerWeights:
    """The read-only weights of one block, generated once per config."""
    d = cfg.d
    ff = FF_EXPANSION * d

    def mat(slot, rows, cols):
        s = tensor_seed(cfg.seed, stage, layer, slot)
        return uniform_tensor(s, (rows, cols), 1.0 / np.sqrt(rows))

    return LayerWeights(*_WEIGHTS.get(cfg, ("layer_weights", stage, layer), lambda: (
        mat(0, d, d), mat(1, d, d), mat(2, d, d),
        mat(3, d, d), mat(4, d, ff), mat(5, ff, d))))


def sinusoidal_positions(positions: np.ndarray, d: int) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    i = np.arange(0, d, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, i / d)
    pe = np.zeros((pos.shape[0], d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d // 2])
    return pe


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Exponentiate float64 x in place and return it.

    attention passes scores in [-SHIFT_MAX, SHIFT_MAX], or shifted by their
    exact row max, so no term overflows and no row underflows.  This is the
    one numpy pass over the score block on unshifted heads: the row sums
    come out of the value product.
    """
    return np.exp(x, out=x)


def _shift_by_row_max(s: np.ndarray) -> None:
    """Subtract each row's max from one row block of a head's scores in place."""
    s -= s.max(axis=-1, keepdims=True)


def _head_rows(n: int, dh: int) -> tuple[slice, ...]:
    """The row blocks one head of n tokens and width dh runs in.

    Two halves when the value product, n·n·(dh + 1) multiply-adds, reaches
    BLAS_ONE_THREAD_MACS and each half's, ⌈n/2⌉·n·(dh + 1), stays under it;
    else one block of all n rows.
    """
    half = (n + 1) // 2
    if half * n * (dh + 1) < BLAS_ONE_THREAD_MACS <= n * n * (dh + 1):
        return slice(0, half), slice(half, n)
    return (slice(0, n),)


def _split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """(n, heads * dh) -> (heads, n, dh) view."""
    n, d = t.shape
    return t.reshape(n, heads, d // heads).transpose(1, 0, 2)


def attention(x: np.ndarray, lw: LayerWeights, heads: int,
              sizes: np.ndarray | None = None) -> np.ndarray:
    """Multi-head softmax attention; sizes trigger the log-size value boost.

    q = (x @ wq) / sqrt(dh), k = x @ wk and v = merging.size_boost(x @ wv,
    sizes) are formed once for all heads, q and k as (heads, n, dh) views
    and v in a (heads, n, dh + 1) buffer holding v' = [v, 1].  Heads then
    run one at a time through one (n, n) score buffer: q[h] @ k[h].T writes
    the scores s into it, softmax_rows exponentiates it in place, and
    r = exp(s) @ v'[h] holds the numerator and the row sum together, so the
    head's output is r[:, :dh] / r[:, dh:].  A head whose value product
    n·n·(dh + 1) reaches BLAS_ONE_THREAD_MACS while ⌈n/2⌉·n·(dh + 1) stays
    under it (n = 242 to 340 at dh = 8, 176 to 248 at dh = 16) does this in
    two row halves of the same buffer, so none of its products wakes
    OpenBLAS's second thread; see BLAS_ONE_THREAD_MACS.

    A head with max_i ||q_i||² * max_j ||k_j||² <= SHIFT_MAX² has every
    score within SHIFT_MAX of 0 (Cauchy–Schwarz), so its terms lie in
    [exp(-SHIFT_MAX), exp(SHIFT_MAX)]: none overflows and no row
    underflows.  A head above that bound (inputs of large scale, such as
    raw pixels) has _shift_by_row_max subtract its exact row max in the
    block before the exp.  The choice costs n·dh operations per head and is
    made before the score product, so no score is computed twice and score
    memory is 8n² bytes either way.  Each head's arithmetic is that of the
    all-heads form.  Against the form that shifts by the exact row max and
    normalises the rows before the value product, one call differs by at
    most a few 1e-15 relative, on normal(0, 1) inputs as at bounds near
    SHIFT_MAX, and by about 5e-14 on exact-shift heads of uniform(0, 100)
    tokens, where each form is about 1e-13 from a long-double reference.
    Running a head as two halves moves the call's output by at most a few
    1e-15 relative.
    """
    n, d = x.shape
    if n == 0:
        return x.copy()
    dh = d // heads
    q = _split_heads(x @ lw.wq / np.sqrt(dh), heads)
    k = _split_heads(x @ lw.wk, heads)
    va = np.ones((heads, n, dh + 1))
    va[..., :dh] = _split_heads(x @ lw.wv, heads)
    if sizes is not None:
        va[..., :dh] = size_boost(va[..., :dh], sizes)
    qq, kk = (np.einsum("hnc,hnc->hn", t, t).max(axis=-1) for t in (q, k))
    scores = np.empty((n, n))
    out = np.empty((heads, n, dh))
    rows = _head_rows(n, dh)
    for h in range(heads):
        shift = qq[h] * kk[h] > SHIFT_MAX ** 2
        for r in rows:
            s = scores[r]
            np.matmul(q[h, r], k[h].T, out=s)
            if shift:
                _shift_by_row_max(s)
            t = softmax_rows(s) @ va[h]
            np.divide(t[:, :dh], t[:, dh:], out=out[h, r])
    return out.transpose(1, 0, 2).reshape(n, d) @ lw.wo


def feed_forward(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    return np.maximum(x @ lw.w1, 0.0) @ lw.w2


def block_forward(x: np.ndarray, lw: LayerWeights, heads: int,
                  sizes: np.ndarray | None = None) -> np.ndarray:
    x = x + attention(x, lw, heads, sizes)
    return x + feed_forward(x, lw)


def text_tokens(cfg: ToyModelConfig, text_len: int | None = None) -> np.ndarray:
    """Synthetic text features, uniform(-1, 1), (text_len, d), read-only."""
    t = cfg.text_len if text_len is None else text_len
    s = tensor_seed(cfg.seed, STAGE_TEXT, 0, 0)
    return _WEIGHTS.get(cfg, ("text_tokens", t),
                        lambda: (uniform_tensor(s, (t, cfg.d), 1.0),))[0]


def connector_matrix(cfg: ToyModelConfig, d_in: int) -> np.ndarray:
    """Seeded linear map from projector output width back to model width, read-only."""
    s = tensor_seed(cfg.seed, STAGE_CONNECTOR, 0, d_in)
    return _WEIGHTS.get(cfg, ("connector_matrix", d_in),
                        lambda: (uniform_tensor(s, (d_in, cfg.d), 1.0 / np.sqrt(d_in)),))[0]
