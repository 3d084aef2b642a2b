"""Independent naive implementations the fast paths are checked against.

Everything here is written the dumb way on purpose: direct summations and
explicit Python loops, no shared code with the library's fast paths.  The
library reads JSON grids but does not write them, so their fixtures are
written here, from the layout in docs/formats.md.
"""

import json
import math

import numpy as np


def direct_dft(x: np.ndarray, sign: int = -1) -> np.ndarray:
    """O(N^2) summation of the transform definition along axis 0."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    k = np.arange(n)
    w = np.exp(sign * 2j * np.pi * np.outer(k, k) / n)
    return w @ x


def direct_idft(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    return direct_dft(x, sign=+1) / n


def naive_filter_energies(data: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Direct DFT -> mask -> direct IDFT -> per-token modulus, all loops."""
    spectrum = direct_dft(data)
    masked = spectrum * np.asarray(coeffs)[:, None]
    filtered = direct_idft(masked)
    n, d = filtered.shape
    energies = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for c in range(d):
            acc += filtered[i, c].real ** 2 + filtered[i, c].imag ** 2
        energies[i] = math.sqrt(acc)
    return energies


def naive_value_enhance(attn, values, sizes):
    attn = np.asarray(attn, dtype=float)
    values = np.asarray(values, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    n, d = values.shape
    out = np.zeros((n, d))
    for i in range(n):
        for c in range(d):
            acc = 0.0
            for j in range(n):
                acc += attn[i, j] * (values[j, c] + math.log(sizes[j]))
            out[i, c] = acc
    return out


def naive_attention(x, wq, wk, wv, wo, heads, sizes):
    """Multi-head softmax attention with the log-size value boost, head by head.

    Each head's scores are summed by hand, every row is normalised by its
    exponentials' sum, and the boosted values go through naive_value_enhance.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    dh = d // heads
    q, k, v = x @ wq, x @ wk, x @ wv
    heads_out = np.zeros((n, d))
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        attn = np.zeros((n, n))
        for i in range(n):
            scores = [sum(q[i, c] * k[j, c] for c in range(lo, hi)) / math.sqrt(dh)
                      for j in range(n)]
            top = max(scores)
            exps = [math.exp(s - top) for s in scores]
            total = sum(exps)
            for j in range(n):
                attn[i, j] = exps[j] / total
        heads_out[:, lo:hi] = naive_value_enhance(attn, v[:, lo:hi], sizes)
    return heads_out @ wo


def _cosine(u, v):
    nu = math.sqrt(sum(float(x) * float(x) for x in u))
    nv = math.sqrt(sum(float(x) * float(x) for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(float(a) * float(b) for a, b in zip(u, v)) / (nu * nv)


def brute_lane_merge(feats: np.ndarray, sizes: np.ndarray, m: int):
    """Enumerate every A-B similarity by hand and replay the merge rule."""
    feats = [row.astype(float).copy() for row in np.asarray(feats, dtype=float)]
    sizes = [float(s) for s in np.asarray(sizes, dtype=float)]
    lane_len = len(feats)
    a_set = list(range(0, lane_len, 2))
    b_set = list(range(1, lane_len, 2))
    candidates = []
    for a in a_set:
        sims = [_cosine(feats[a], feats[b]) for b in b_set]
        best = max(sims)
        candidates.append((best, a, b_set[sims.index(best)]))
    # top-m by similarity, ties to the lower A index
    chosen = sorted(candidates, key=lambda t: (-t[0], t[1]))[:m]
    chosen.sort(key=lambda t: t[1])
    removed = []
    for _, a, b in chosen:
        total = sizes[a] + sizes[b]
        feats[b] = (sizes[b] * feats[b] + sizes[a] * feats[a]) / total
        sizes[b] = total
        removed.append(a)
    keep = [i for i in range(lane_len) if i not in removed]
    return np.stack([feats[i] for i in keep]), np.array([sizes[i] for i in keep])


def brute_grid_merge_width(data: np.ndarray, sizes: np.ndarray, m: int):
    rows_f, rows_s = [], []
    for r in range(data.shape[0]):
        f, s = brute_lane_merge(data[r], sizes[r], m)
        rows_f.append(f)
        rows_s.append(s)
    return np.stack(rows_f), np.stack(rows_s)


def naive_dct2(block: np.ndarray) -> np.ndarray:
    """Orthonormal type-II 2D DCT by quadruple loop."""
    p = block.shape[0]
    out = np.zeros((p, p))
    for u in range(p):
        for v in range(p):
            acc = 0.0
            for x in range(p):
                for y in range(p):
                    acc += (block[x, y]
                            * math.cos(math.pi * (2 * x + 1) * u / (2 * p))
                            * math.cos(math.pi * (2 * y + 1) * v / (2 * p)))
            au = math.sqrt(1.0 / p) if u == 0 else math.sqrt(2.0 / p)
            av = math.sqrt(1.0 / p) if v == 0 else math.sqrt(2.0 / p)
            out[u, v] = au * av * acc
    return out


def write_grid_json(grid, path) -> None:
    """`grid` as a one-line JSON grid document (docs/formats.md) at `path`."""
    doc = {"schema": 1, "h": grid.h, "w": grid.w, "d": grid.d,
           "data": grid.data.reshape(-1).tolist(), "sizes": grid.sizes.reshape(-1).tolist()}
    path.write_text(json.dumps(doc) + "\n")
