"""Similarity-driven bipartite token merging on 2D grids.

One merge pass works on all lanes at once (rows for a width merge, columns
for a height merge).  Within a lane, tokens at even positions form set A and
tokens at odd positions form set B; every A token is matched to its most
cosine-similar B token, the m A tokens with the strongest match are absorbed
into their partners by size-weighted mean, and survivors keep lane order.
A width pass then a height pass form one orthogonal step, shrinking an
H x W grid to (H-m) x (W-m) while conserving the total merged size.

All tie-breaks go to the lower index, so merge results are bit-reproducible.
Similarity is cosine over the token features themselves.

The matcher is blocked: it normalises the rows of one block of lanes at a
time, forms that block's similarities, and keeps only each A token's best B
index and similarity.  A block holds as many lanes as fit in
MATCH_BLOCK_BYTES (8 bytes per feature value and per similarity), and its
two buffers are reused from block to block, so a pass's temporaries are
bounded by one block plus the (lanes, ceil(n/2)) matches and the output.
Blocking changes no number: every similarity is the same dot product of the
same unit rows.  Survivors are gathered token-major, so a pass returns the
transpose of a C-contiguous array: the orthogonal pass after it reads whole
lanes, and a width-then-height step on a C-contiguous grid returns one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .tokens import TokenGrid, _adopt

# Bytes of input rows plus similarities that one matching block may touch.
# `merge --m 2 --oim-steps 3` on 96x96x32 (4 MiB L2 per core), ms per run over
# 40 shuffled rounds: 46.3 at 64 KiB, 33.9 at 256 KiB, 31.7 at 512 KiB, 32.9
# at 1 MiB, 38.5 at 4 MiB.
MATCH_BLOCK_BYTES = 1 << 20


def _unit_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # np.linalg.norm's arithmetic, with its temporaries folded into one buffer
    # (`out`, when given).  Rows whose norm is 0 (all zero, or squares that
    # underflow to 0) divide to nan/inf; clearing just those rows after the
    # divide makes them 0 without a fill pass over the whole buffer.
    out = np.multiply(x, x, out=out)
    norms = np.sqrt(np.add.reduce(out, axis=-1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(x, norms, out=out)
    out[norms[..., 0] == 0] = 0.0
    return out


def lane_match_ops(lane_len: int) -> int:
    """Pairwise similarity evaluations one lane costs: |A| * |B|."""
    return ((lane_len + 1) // 2) * (lane_len // 2)


def check_lane_merges(n: int, m: int) -> None:
    """Refuse m merges out of a lane of n tokens: each absorbed A token needs
    a B token of its own."""
    if m < 0 or n < 2 * m:
        raise ShapeError(f"lane of {n} tokens cannot absorb {m} merges")


def _best_matches(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each A token's most similar B index and that similarity: (L, ceil(n/2)) each.

    Lanes are matched one block at a time, through two buffers that are
    reused from block to block and freed on return.
    """
    lanes, n, d = x.shape
    half = (n + 1) // 2
    block = max(1, min(lanes, MATCH_BLOCK_BYTES // (8 * (n * d + lane_match_ops(n)))))
    # the unit rows keep x's memory order, so lanes that are the columns of
    # a row-major grid stream through both arrays alike
    unit_buf, sims_buf = np.empty_like(x[:block]), np.empty((block, half, n // 2))
    best_b, best_sim = np.empty((lanes, half), dtype=np.intp), np.empty((lanes, half))
    rows, a_idx = np.arange(block), np.arange(half)
    for lo in range(0, lanes, block):
        k = min(block, lanes - lo)
        unit = _unit_rows(x[lo:lo + k], unit_buf[:k])
        sims = np.matmul(unit[:, 0::2], unit[:, 1::2].transpose(0, 2, 1), out=sims_buf[:k])
        b = np.argmax(sims, axis=-1, out=best_b[lo:lo + k])
        best_sim[lo:lo + k] = sims[rows[:k, None], a_idx, b]
    return best_b, best_sim


def _merge_lanes(x: np.ndarray, sizes: np.ndarray,
                 m: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge m tokens out of each of L lanes: (L, n, d), (L, n) -> (L, n - m, ...).

    A = even lane positions, B = odd.  Each A token's candidate is its most
    similar B token (ties: lowest B index); the m A tokens with the highest
    candidate similarity (ties: lowest A index) are absorbed into their
    candidates by size-weighted mean, in ascending A order.  An absorb that
    overflows float64 raises ShapeError.
    """
    x = np.asarray(x, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    lanes, n, d = x.shape
    check_lane_merges(n, m)
    if m == 0:
        return x.copy(), sizes.copy()
    best_b, best_sim = _best_matches(x)
    chosen = np.sort(np.argsort(-best_sim, axis=-1, kind="stable")[:, :m], axis=-1)
    rows = np.arange(lanes)
    src = 2 * chosen
    dst = 2 * best_b[rows[:, None], chosen] + 1
    keep = np.ones((lanes, n), dtype=bool)
    keep[rows[:, None], src] = False
    kept = np.nonzero(keep)[1].reshape(lanes, n - m).T  # token-major: module docstring
    out, out_sizes = x[rows, kept].transpose(1, 0, 2), sizes[rows, kept].T
    # A tokens only give and B tokens only take, so the absorbs read A from
    # the input and update B where it sits among the survivors
    kept_dst = dst - np.cumsum(~keep, axis=-1)[rows[:, None], dst]
    for j in range(m):
        a, b = src[:, j], kept_dst[:, j]
        total = sizes[rows, a] + out_sizes[rows, b]
        out[rows, b] = (out_sizes[rows, b, None] * out[rows, b]
                        + sizes[rows, a, None] * x[rows, a]) / total[:, None]
        out_sizes[rows, b] = total
    # only absorbed rows are new, so only they can hold an overflow
    absorbed = rows[:, None], kept_dst
    if not (np.isfinite(out[absorbed]).all() and np.isfinite(out_sizes[absorbed]).all()):
        raise ShapeError(f"merging {m} tokens per lane overflows float64")
    return out, out_sizes


def merge_width(grid: TokenGrid, m: int) -> TokenGrid:
    """Merge m tokens out of every row: H x W -> H x (W - m)."""
    if m == 0:
        return grid
    return _adopt(TokenGrid, *_merge_lanes(grid.data, grid.sizes, m))


def merge_height(grid: TokenGrid, m: int) -> TokenGrid:
    """Merge m tokens out of every column: H x W -> (H - m) x W."""
    if m == 0:
        return grid
    data, sizes = _merge_lanes(grid.data.transpose(1, 0, 2), grid.sizes.T, m)
    return _adopt(TokenGrid, data.transpose(1, 0, 2), sizes.T)


def merge_step(grid: TokenGrid, m: int) -> TokenGrid:
    """One orthogonal iteration: width merge then height merge."""
    return merge_height(merge_width(grid, m), m)


def merge_flat(features: np.ndarray, sizes: np.ndarray,
               m: int) -> tuple[np.ndarray, np.ndarray]:
    """1D merging: the whole sequence treated as a single lane.

    This is what flat mergers do to a flattened grid; the result generally
    has no rectangular structure left, which is the failure mode the 2D
    pixel-shuffle projector exposes.
    """
    data, sizes = _merge_lanes(np.asarray(features)[None], np.asarray(sizes)[None], m)
    return data[0], sizes[0]


def size_boost(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The merged-size value boost: values + log(sizes) on each token row.

    values is (..., n, dv) and sizes (n,), each at least 1; log(sizes) is
    added to every channel of its token row, so tokens that absorbed more
    neighbors carry proportionally more weight under any attention.
    All-ones sizes return values itself.  toymodel.attention boosts its
    values through here.
    """
    values = np.asarray(values, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64).reshape(-1)
    if values.shape[-2:-1] != sizes.shape:
        raise ShapeError("sizes must hold one entry per value row")
    if not np.all(sizes >= 1):
        raise ValueError("sizes must be >= 1")
    if np.all(sizes == 1.0):
        return values
    return values + np.log(sizes)[:, None]


def similarity_op_count(n_tokens: int, mode: str, m: int = 1) -> int:
    """Similarity evaluations one merge pass costs at a given token count.

    "1d": one flat lane over all n tokens, floor(n/2)*ceil(n/2) evaluations
    (quadratic).  "2d": a width pass over the sqrt(n) x sqrt(n) grid plus a
    height pass over the width-reduced grid (n^1.5-ish); n must be a perfect
    square and m is the per-lane merge count separating the two passes.
    """
    if n_tokens < 0:
        raise ValueError("token count must be non-negative")
    if mode == "1d":
        return lane_match_ops(n_tokens)
    if mode != "2d":
        raise ValueError(f"unknown mode {mode!r}")
    side = math.isqrt(n_tokens)
    if side * side != n_tokens:
        raise ShapeError(f"2d mode needs a perfect-square token count, got {n_tokens}")
    if side < 2 * m:
        raise ShapeError(f"{side}x{side} grid too small for m={m}")
    width_pass = side * lane_match_ops(side)
    height_pass = (side - m) * lane_match_ops(side)
    return width_pass + height_pass
