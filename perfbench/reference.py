"""Plain-numpy reference for the numerics the benchmark checks once per run.

The reference functions never call tokcomp.  The toy model's weights are rebuilt from the
splitmix64 recipe documented in tokcomp.toymodel, the transforms use
np.fft, and lane merging is the literal per-lane definition.  `verify`
runs the program's public stage functions on the workload's own inputs and
compares each against this reference at a relative tolerance of 1e-9
(largest absolute difference over the largest reference magnitude).
"""

from __future__ import annotations

import json
import math

import numpy as np
from tokcomp import merging, pipeline, spectral, tokens

from workloads import HEADS, SCHEDULE, PipelineWorkload, read_luvc1, topk_ascending

RTOL = 1e-9
SIGMA_RATIO = 0.25  # the schedule's default; the workloads do not override it
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
STAGE_ENCODER, STAGE_LLM, STAGE_TEXT, STAGE_CONNECTOR = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# Weights: value i is mix64(tensor_seed + (i+1) * golden), top 53 bits.

def _mix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _tensor_seed(seed: int, *tags: int) -> int:
    s = seed & _MASK
    for t in tags:
        s = _mix64((s + _GOLDEN + t) & _MASK)
    return s


def _uniform(seed: int, rows: int, cols: int, scale: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = np.uint64(seed) + np.arange(1, rows * cols + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    u = (x >> np.uint64(11)).astype(np.float64) / 2.0 ** 53
    return ((2.0 * u - 1.0) * scale).reshape(rows, cols)


def weights(seed: int, stage: int, layer: int, d: int) -> list[np.ndarray]:
    """wq, wk, wv, wo (d x d), w1 (d x 2d), w2 (2d x d)."""
    shapes = [(d, d)] * 4 + [(d, 2 * d), (2 * d, d)]
    return [_uniform(_tensor_seed(seed, stage, layer, slot), r, c, 1.0 / math.sqrt(r))
            for slot, (r, c) in enumerate(shapes)]


def text(seed: int, n: int, d: int) -> np.ndarray:
    return _uniform(_tensor_seed(seed, STAGE_TEXT, 0, 0), n, d, 1.0)


def connector(seed: int, d_in: int, d: int) -> np.ndarray:
    return _uniform(_tensor_seed(seed, STAGE_CONNECTOR, 0, d_in), d_in, d, 1.0 / math.sqrt(d_in))


# ---------------------------------------------------------------------------
# Model pieces.

def positions(pos: np.ndarray, d: int) -> np.ndarray:
    pe = np.zeros((len(pos), d))
    for c in range(0, d, 2):
        angle = np.asarray(pos, dtype=np.float64) / 10000.0 ** (c / d)
        pe[:, c] = np.sin(angle)
        if c + 1 < d:
            pe[:, c + 1] = np.cos(angle)
    return pe


def block(x: np.ndarray, w: list[np.ndarray], heads: int, sizes=None) -> np.ndarray:
    wq, wk, wv, wo, w1, w2 = w
    n, d = x.shape
    dh = d // heads
    v = x @ wv
    if sizes is not None:
        v = v + np.log(sizes)[:, None]
    out = np.zeros((n, d))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = (x @ wq[:, cols]) @ (x @ wk[:, cols]).T / math.sqrt(dh)
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        out[:, cols] = (p / p.sum(axis=1, keepdims=True)) @ v[:, cols]
    x = x + out @ wo
    return x + np.maximum(x @ w1, 0.0) @ w2


def merge_rows(data: np.ndarray, sizes: np.ndarray, m: int):
    """Per row: even positions match their most cosine-similar odd position;
    the m strongest matches (ties to the lower index) merge by size-weighted
    mean into their partner."""
    out_data, out_sizes = [], []
    for f, s in zip(data, sizes):
        f, s = f.copy(), s.copy()
        a, b = np.arange(0, len(f), 2), np.arange(1, len(f), 2)

        def unit(rows):
            norm = np.sqrt((rows ** 2).sum(axis=1))[:, None]
            return np.where(norm > 0, rows / np.where(norm > 0, norm, 1.0), 0.0)

        sims = unit(f[a]) @ unit(f[b]).T
        best = sims.argmax(axis=1)
        chosen = sorted(np.argsort(-sims[np.arange(len(a)), best], kind="stable")[:m])
        for i in chosen:
            src, dst = a[i], b[best[i]]
            total = s[src] + s[dst]
            f[dst] = (s[dst] * f[dst] + s[src] * f[src]) / total
            s[dst] = total
        keep = [j for j in range(len(f)) if j not in {a[i] for i in chosen}]
        out_data.append(f[keep])
        out_sizes.append(s[keep])
    return np.stack(out_data), np.stack(out_sizes)


def merge_cols(data, sizes, m):
    d, s = merge_rows(data.transpose(1, 0, 2), sizes.T, m)
    return d.transpose(1, 0, 2), s.T


def encoder(grid: np.ndarray, seed: int, sched: dict):
    h, w, d = grid.shape
    sizes = np.ones((h, w))
    x = (grid.reshape(-1, d) + positions(np.arange(h * w), d)).reshape(h, w, d)
    width_at = {i for i, _ in sched["merge_pairs"]}
    height_at = {j for _, j in sched["merge_pairs"]}
    for layer in range(sched["enc_layers"]):
        h, w = sizes.shape
        flat_sizes = sizes.reshape(-1)
        x = block(x.reshape(-1, d), weights(seed, STAGE_ENCODER, layer, d), HEADS,
                  None if np.all(flat_sizes == 1) else flat_sizes).reshape(h, w, d)
        if layer in width_at:
            x, sizes = merge_rows(x, sizes, sched["m"])
        elif layer in height_at:
            x, sizes = merge_cols(x, sizes, sched["m"])
    return x, sizes


def shuffle(grid: np.ndarray, f: int) -> np.ndarray:
    h, w, d = grid.shape
    out = np.zeros(((h // f) * (w // f), f * f * d))
    for r in range(h // f):
        for c in range(w // f):
            out[r * (w // f) + c] = grid[r * f:(r + 1) * f, c * f:(c + 1) * f].reshape(-1)
    return out


def spu_energies(x: np.ndarray, sigma_ratio: float) -> np.ndarray:
    """Energy per token after the as-written Hamming low-pass, via np.fft."""
    n = x.shape[0]
    k = np.arange(n)
    cutoff = max(0, math.ceil(sigma_ratio * n) - 1)
    taper = np.full(n, 0.08) if n == 1 else 0.54 - 0.46 * np.cos(2 * np.pi * k / (n - 1))
    mask = np.where(k <= cutoff, taper, 0.0)
    filtered = np.fft.ifft(np.fft.fft(x, axis=0) * mask[:, None], axis=0)
    return np.sqrt((np.abs(filtered) ** 2).sum(axis=1))


def llm(visual: np.ndarray, text_data: np.ndarray, seed: int, sched: dict, ladder):
    """Returns the hidden states, their positions, and each prune's input."""
    d = visual.shape[1]
    vis_n = visual.shape[0]
    pos = np.concatenate([np.arange(vis_n), vis_n + np.arange(len(text_data))])
    x = np.concatenate([visual, text_data]) + positions(pos, d)
    keep_at = dict(zip(range(sched["l0"], sched["llm_layers"], sched["l_delta"]), ladder))
    prunes = []
    for layer in range(sched["llm_layers"]):
        if layer in keep_at:
            vis = x[:vis_n]
            energies = spu_energies(vis, SIGMA_RATIO)
            kept = topk_ascending(energies, keep_at[layer])
            prunes.append(vis)
            x = np.concatenate([vis[kept], x[vis_n:]])
            pos = np.concatenate([pos[:vis_n][kept], pos[vis_n:]])
            vis_n = len(kept)
        x = block(x, weights(seed, STAGE_LLM, layer, d), HEADS)
    return x, pos, prunes


def dct_features(img: np.ndarray, p: int) -> np.ndarray:
    """Orthonormal 2D DCT-II per p x p block, coefficients in zig-zag order."""
    c = np.array([[math.sqrt((1 if u == 0 else 2) / p) * math.cos(math.pi * (2 * x + 1) * u / (2 * p))
                   for x in range(p)] for u in range(p)])
    order = sorted(((u, v) for u in range(p) for v in range(p)),
                   key=lambda t: (t[0] + t[1], -t[0] if (t[0] + t[1]) % 2 == 0 else t[0]))
    gh, gw = img.shape[0] // p, img.shape[1] // p
    out = np.zeros((gh, gw, p * p))
    for r in range(gh):
        for q in range(gw):
            coeff = c @ img[r * p:(r + 1) * p, q * p:(q + 1) * p].astype(np.float64) @ c.T
            out[r, q] = [coeff[u, v] for u, v in order]
    return out


# ---------------------------------------------------------------------------
# Comparisons.

def close(got, want, rtol: float = RTOL) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    return bool(np.max(np.abs(got - want), initial=0.0) <= rtol * scale)


def same_kept(got, want, energies, rtol: float = RTOL) -> bool:
    """Kept sets agree, allowing swaps between tokens whose reference energies
    tie with the keep threshold to within rtol."""
    got, want = set(np.asarray(got).tolist()), set(np.asarray(want).tolist())
    if len(got) != len(want):
        return False
    differ = got ^ want
    if not differ:
        return True
    threshold = min(energies[list(want)])
    return all(abs(energies[i] - threshold) <= rtol * abs(threshold) for i in differ)


def _compare_spu(problems, label, prog_ranking, x, keep):
    energies = spu_energies(x, SIGMA_RATIO)
    if not close(prog_ranking.energies, energies):
        problems.append(f"{label}: SPU energies differ from the np.fft reference")
    if not same_kept(prog_ranking.kept, topk_ascending(energies, keep), energies):
        problems.append(f"{label}: SPU kept set differs from the np.fft reference")


# ---------------------------------------------------------------------------
# Per-workload verification.

def verify_pipeline(workload, state: dict, grids: int = 2) -> list[str]:
    cfg, sched, problems = state["cfg"], state["sched"], []
    f = SCHEDULE["projector_factor"]
    for g, grid in enumerate(state["grids"][:grids]):
        label = f"{workload.name} grid {g}"
        ref_x, ref_sizes = encoder(grid.data, cfg.seed, SCHEDULE)
        enc = pipeline.encoder_forward(grid, cfg, sched)
        if not close(enc.data, ref_x) or not np.array_equal(enc.sizes, ref_sizes):
            problems.append(f"{label}: encoder hidden states differ from the reference")
        ref_grid = tokens.TokenGrid.from_data(ref_x, ref_sizes)
        folded = shuffle(ref_x, f)
        if not close(pipeline.projector_pixel_shuffle(ref_grid, f).data, folded):
            problems.append(f"{label}: pixel shuffle differs from the reference")
        visual = folded @ connector(cfg.seed, folded.shape[1], cfg.d)
        ref_text = text(cfg.seed, cfg.text_len, cfg.d)
        if not close(pipeline.make_text_sequence(cfg).data, ref_text):
            problems.append(f"{label}: text tokens differ from the reference")
        ladder = state["ledger"]["prunes"]
        ref_h, ref_pos, prunes = llm(visual, ref_text, cfg.seed, SCHEDULE, [k for _, k in ladder])
        hidden, _ = pipeline.llm_forward(tokens.TokenSequence.from_data(visual),
                                         tokens.TokenSequence.from_data(ref_text), cfg, sched)
        if not close(hidden.data, ref_h) or not np.array_equal(hidden.positions, ref_pos):
            problems.append(f"{label}: LLM hidden states differ from the reference")
        for x, (_, keep) in zip(prunes, ladder):
            _, ranking = spectral.spectral_prune(tokens.TokenSequence.from_data(x),
                                                 sched.sigma_ratio, keep, sched.filter_mode)
            _compare_spu(problems, f"{label} prune {len(x)}->{keep}", ranking, x, keep)
    return problems


def verify_toolkit(workload, state: dict) -> list[str]:
    files, problems = state["files"], []
    out = workload.run_item(state, 0)
    problems += workload.check(state, out, None, 0)
    if problems:
        return problems
    g48, _ = read_luvc1(files["g48"].read_bytes())
    g48 = g48.astype(np.float64).reshape(-1, workload.d)
    feats = dct_features(state["image"], workload.patch)
    for (_, stdout), x, label in ((out[0], g48, "spectrum 48x48"),
                                  (out[1], feats.reshape(-1, feats.shape[2]), "spectrum dct")):
        doc = json.loads(stdout)
        energies = spu_energies(x, SIGMA_RATIO)
        if not close(doc["energies"], energies):
            problems.append(f"{label}: energies differ from the np.fft reference")
        if not same_kept(doc["kept"], topk_ascending(energies, doc["keep"]), energies):
            problems.append(f"{label}: kept set differs from the np.fft reference")
    g96, _ = read_luvc1(files["g96"].read_bytes())
    grid = tokens.TokenGrid.from_data(g96.astype(np.float64))
    ref, ref_sizes = grid.data, np.ones(grid.sizes.shape)
    for _ in range(workload.oim_steps):
        grid = merging.merge_step(grid, workload.m)
        ref, ref_sizes = merge_rows(ref, ref_sizes, workload.m)
        ref, ref_sizes = merge_cols(ref, ref_sizes, workload.m)
    if not close(grid.data, ref) or not np.array_equal(grid.sizes, ref_sizes):
        problems.append("merge: merged grid differs from the reference")
    written, sizes = read_luvc1(files["merged"].read_bytes())
    if not close(written, ref.astype(np.float32), 1e-6) or not np.array_equal(sizes, ref_sizes):
        problems.append("merge: the written LUVC1 grid differs from the reference")
    return problems


def verify(workload, state: dict) -> list[str]:
    if isinstance(workload, PipelineWorkload):
        return verify_pipeline(workload, state)
    return verify_toolkit(workload, state)
