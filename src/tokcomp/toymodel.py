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
pass over the scores.  A head above SHIFT_MAX has its scores shifted by
their exact row max before the exp.  No normalised attention matrix is ever
formed.

Every matrix product the model makes runs in row blocks whose products each
stay under BLAS_ONE_THREAD_MACS (2^19 multiply-adds, where OpenBLAS hands a
product to a second thread that then spins for about 0.1 s), so OpenBLAS
never starts that thread.  The model spreads a stage of POOL_MIN_MACS or more
over its own threads instead: the calling thread and a pool of POOL_THREADS
threads, started on first use (see _for_row_blocks).  Attention runs its
scores in row tiles of all heads at once, each in a (heads, rows, n) buffer
of the thread running it, so a thread holds under 8·heads·2^19/(dh + 1)
bytes of scores, not 8n².  Outputs are bit-identical to the same arithmetic,
in the same row blocks, on one thread.  Row blocks move a call by at most a
few 1e-15 relative against whole products, and whole-run hidden states by
under 1e-15.  Against the normalise-then-multiply form (scaled scores,
shifted by the exact row max, normalised rows, then the boosted value
product) they differ by at most a few 1e-15 relative per call on normal(0, 1)
inputs; whole-run reports, merged sizes and kept sets are unchanged.

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

import contextvars
import math
import os
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
# demo_stream's CPU time per item.  Larger products gain less from it than it
# costs: a hires item took about 100 ms on one thread and 90 ms on two, at
# twice the CPU.  So every product the model makes runs in row blocks that
# each stay under this size (see _row_blocks), and the model spreads large
# stages over its own threads instead (see POOL_MIN_MACS).
BLAS_ONE_THREAD_MACS = 1 << 19

# Multiply-adds from which a stage spreads its row blocks over the calling
# thread and POOL_THREADS pool threads.  On 2 vCPUs a 32 x 32, d = 64 item took
# 76 ms with the pool against 102 ms without it; at 1 << 22 the first attention
# stage of a 16 x 16, d = 32 item (n = 256, about 4.7M multiply-adds) went to
# the pool too, and that item took 9.07 ms against 8.07 ms (medians of 6
# alternating 1 s runs in one process).
POOL_MIN_MACS = 1 << 23

# Pool threads besides the caller: one per further CPU this process may use.
POOL_THREADS = len(os.sched_getaffinity(0)) - 1

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
    one numpy pass over a tile's scores on unshifted heads: the row sums
    come out of the value product.  attention calls it in pool threads too.
    """
    return np.exp(x, out=x)


def _shift_by_row_max(s: np.ndarray) -> None:
    """Subtract each row's max from one row block of a head's scores in place."""
    s -= s.max(axis=-1, keepdims=True)


def _row_blocks(n: int, row_macs: int) -> list[slice]:
    """n rows in the fewest blocks whose products stay under BLAS_ONE_THREAD_MACS.

    row_macs is the most multiply-adds one row adds to any product of a
    block, so a block holds at most (BLAS_ONE_THREAD_MACS - 1) // row_macs
    rows (at least one).  Block sizes differ by at most one row, the larger
    blocks first: 257 rows of 2304 multiply-adds each are (129, 128).
    """
    per = max(1, (BLAS_ONE_THREAD_MACS - 1) // max(row_macs, 1))
    if n <= per:
        return [slice(0, n)] if n else []
    count = -(-n // per)
    size, extra = divmod(n, count)
    edges = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


_pool = None  # the ThreadPoolExecutor of _shared_pool, once started
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's threads, so it starts its own pool."""
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _shared_pool():
    """The POOL_THREADS-thread pool, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so a run that never reaches POOL_MIN_MACS skips its import
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(POOL_THREADS, thread_name_prefix="tokcomp-rows")
        return _pool


def _for_row_blocks(n: int, row_macs: int, stage_macs: int, start) -> None:
    """Compute a stage of n rows in the blocks of _row_blocks(n, row_macs).

    start(rows) is called once in each thread that takes part, with the row
    count of the largest block, and returns the function that computes one
    block (a slice of rows), so per-thread buffers live in its closure.  A
    stage of fewer than POOL_MIN_MACS multiply-adds runs in the calling
    thread.  A larger one spreads its blocks over the calling thread and up
    to POOL_THREADS pool threads, each taking the next block as it is free;
    a pool thread runs in a copy of the caller's context, so np.errstate
    holds there too, and an exception raised in it reaches the caller.
    Blocks write disjoint rows with the same arithmetic in any thread, so
    the result does not depend on the pool.
    """
    blocks = _row_blocks(n, row_macs)
    if not blocks:
        return
    todo = iter(blocks)
    rows = blocks[0].stop

    def drain():
        run = start(rows)
        for r in todo:
            run(r)

    helpers = min(POOL_THREADS, len(blocks) - 1) if stage_macs >= POOL_MIN_MACS else 0
    if helpers <= 0:
        drain()
        return
    pool = _shared_pool()
    futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        for f in futures:
            f.exception()  # waits until the thread is done with its blocks
    for f in futures:
        f.result()


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a, in row blocks that OpenBLAS runs on one thread each."""
    n, m = a.shape[0], b.shape[1]
    out = np.empty((n, m), dtype=np.result_type(a, b))

    def start(rows):
        return lambda r: np.matmul(a[r], b, out=out[r])

    _for_row_blocks(n, b.size, n * b.size, start)
    return out


def _split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """(n, heads * dh) -> (heads, n, dh) view."""
    n, d = t.shape
    return t.reshape(n, heads, d // heads).transpose(1, 0, 2)


def attention(x: np.ndarray, lw: LayerWeights, heads: int,
              sizes: np.ndarray | None = None) -> np.ndarray:
    """Multi-head softmax attention; sizes trigger the log-size value boost.

    q = (x @ wq) / sqrt(dh), k = x @ wk and v = merging.size_boost(x @ wv,
    sizes) are formed once for all heads, in row blocks of d·d multiply-adds
    per row, q and k as (heads, n, dh) views and v in a (heads, n, dh + 1)
    buffer holding v' = [v, 1].  The rest runs in row tiles of all heads at
    once, from _row_blocks(n, max(n·(dh + 1), d·d)): one stacked product
    q[:, rows] @ k.T writes a tile's scores s into a (heads, rows, n)
    buffer of the thread running it, softmax_rows exponentiates the tile in
    place, and one stacked product r = exp(s) @ v' holds the numerator and
    the row sum together, so the tile's output is r[..., :dh] / r[..., dh:],
    multiplied by wo into the tile's output rows.  No product of a tile
    reaches BLAS_ONE_THREAD_MACS, so OpenBLAS runs each on one thread, and
    a call of POOL_MIN_MACS or more runs its tiles on the pool as well (see
    _for_row_blocks).  At n = 1024, d = 64 and 4 heads a tile is 30 rows,
    and each thread holds 4·30·1024·8 bytes (under 1 MB) of scores.

    A head with max_i ||q_i||² * max_j ||k_j||² <= SHIFT_MAX² has every
    score within SHIFT_MAX of 0 (Cauchy–Schwarz), so its terms lie in
    [exp(-SHIFT_MAX), exp(SHIFT_MAX)]: none overflows and no row
    underflows.  A head above that bound (inputs of large scale, such as
    raw pixels) has _shift_by_row_max subtract its exact row max in each
    tile before the exp.  The choice costs n·dh operations per head and is
    made before the score product, so no score is computed twice.  Each
    head's arithmetic is that of the per-head form in the same row blocks.
    Against the form that shifts by the exact row max and normalises the
    rows before the value product, one call differs by at most a few 1e-15
    relative, on normal(0, 1) inputs as at bounds near SHIFT_MAX, and by
    about 5e-14 on exact-shift heads of uniform(0, 100) tokens, where each
    form is about 1e-13 from a long-double reference.  Row blocks move a
    call's output by at most a few 1e-15 relative against whole products.
    """
    n, d = x.shape
    if n == 0:
        return x.copy()
    dh = d // heads
    qkv = np.empty((3, n, d))

    def start_qkv(rows):
        def run(r):
            np.matmul(x[r], lw.wq, out=qkv[0, r])
            np.divide(qkv[0, r], np.sqrt(dh), out=qkv[0, r])
            np.matmul(x[r], lw.wk, out=qkv[1, r])
            np.matmul(x[r], lw.wv, out=qkv[2, r])
        return run

    _for_row_blocks(n, d * d, 3 * n * d * d, start_qkv)
    q, k, v = (_split_heads(t, heads) for t in qkv)
    va = np.ones((heads, n, dh + 1))
    va[..., :dh] = v if sizes is None else size_boost(v, sizes)
    qq, kk = (np.einsum("hnc,hnc->hn", t, t).max(axis=-1) for t in (q, k))
    exact = np.flatnonzero(qq * kk > SHIFT_MAX ** 2)
    kt = k.transpose(0, 2, 1)
    out = np.empty((n, d))

    def start_tiles(rows):
        scores = np.empty(heads * rows * n)
        sums = np.empty(heads * rows * (dh + 1))
        heads_out = np.empty((rows, heads, dh))

        def run(r):
            m = r.stop - r.start
            s = np.matmul(q[:, r], kt, out=scores[:heads * m * n].reshape(heads, m, n))
            for h in exact:
                _shift_by_row_max(s[h])
            t = np.matmul(softmax_rows(s), va,
                          out=sums[:heads * m * (dh + 1)].reshape(heads, m, dh + 1))
            o = heads_out[:m]
            np.divide(t[..., :dh], t[..., dh:], out=o.transpose(1, 0, 2))
            np.matmul(o.reshape(m, d), lw.wo, out=out[r])
        return run

    _for_row_blocks(n, max(n * (dh + 1), d * d), n * (heads * n * (2 * dh + 1) + d * d),
                    start_tiles)
    return out


def feed_forward(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    """relu(x @ w1) @ w2, both products in row blocks of d·ff multiply-adds per row."""
    n = x.shape[0]
    out = np.empty((n, lw.w2.shape[1]))

    def start(rows):
        def run(r):
            h = np.matmul(x[r], lw.w1)
            np.matmul(np.maximum(h, 0.0, out=h), lw.w2, out=out[r])
        return run

    _for_row_blocks(n, lw.w1.size, 2 * n * lw.w1.size, start)
    return out


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
