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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .tokens import TokenGrid


def _unit_rows(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm's arithmetic, with its temporaries folded into one buffer.
    # Rows whose norm is 0 (all zero, or squares that underflow to 0) divide
    # to nan/inf; clearing just those rows after the divide makes them 0
    # without a fill pass over the whole buffer.
    out = np.multiply(x, x)
    norms = np.sqrt(np.add.reduce(out, axis=-1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(x, norms, out=out)
    out[norms[..., 0] == 0] = 0.0
    return out


def lane_match_ops(lane_len: int) -> int:
    """Pairwise similarity evaluations one lane costs: |A| * |B|."""
    return ((lane_len + 1) // 2) * (lane_len // 2)


def _merge_lanes(x: np.ndarray, sizes: np.ndarray,
                 m: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge m tokens out of each of L lanes: (L, n, d), (L, n) -> (L, n - m, ...).

    A = even lane positions, B = odd.  Each A token's candidate is its most
    similar B token (ties: lowest B index); the m A tokens with the highest
    candidate similarity (ties: lowest A index) are absorbed into their
    candidates by size-weighted mean, in ascending A order.
    """
    x = np.asarray(x, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    lanes, n, d = x.shape
    if m < 0 or n < 2 * m:
        raise ShapeError(f"lane of {n} tokens cannot absorb {m} merges")
    if m == 0:
        return x.copy(), sizes.copy()
    unit = _unit_rows(x)
    sims = unit[:, 0::2] @ unit[:, 1::2].transpose(0, 2, 1)
    best_b = np.argmax(sims, axis=-1)
    best_sim = np.take_along_axis(sims, best_b[..., None], axis=-1)[..., 0]
    chosen = np.sort(np.argsort(-best_sim, axis=-1, kind="stable")[:, :m], axis=-1)
    src = 2 * chosen
    dst = 2 * np.take_along_axis(best_b, chosen, axis=-1) + 1
    rows = np.arange(lanes)
    keep = np.ones((lanes, n), dtype=bool)
    keep[rows[:, None], src] = False
    out, out_sizes = x[keep].reshape(lanes, n - m, d), sizes[keep].reshape(lanes, n - m)
    # A tokens only give and B tokens only take, so the absorbs read A from
    # the input and update B where it sits among the survivors
    kept_dst = dst - np.take_along_axis(np.cumsum(~keep, axis=-1), dst, axis=-1)
    for j in range(m):
        a, b = src[:, j], kept_dst[:, j]
        total = sizes[rows, a] + out_sizes[rows, b]
        out[rows, b] = (out_sizes[rows, b, None] * out[rows, b]
                        + sizes[rows, a, None] * x[rows, a]) / total[:, None]
        out_sizes[rows, b] = total
    return out, out_sizes


def merge_width(grid: TokenGrid, m: int) -> TokenGrid:
    """Merge m tokens out of every row: H x W -> H x (W - m)."""
    if m == 0:
        return grid
    data, sizes = _merge_lanes(grid.data, grid.sizes, m)
    return TokenGrid._adopt(data, sizes)


def merge_height(grid: TokenGrid, m: int) -> TokenGrid:
    """Merge m tokens out of every column: H x W -> (H - m) x W."""
    return merge_width(grid.transpose(), m).transpose()


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
