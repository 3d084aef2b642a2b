"""Two-stage pipeline simulator: encoder-side merging, LLM-side pruning.

An experiment runs a token grid through a toy encoder whose schedule
interleaves width/height merge passes between layers, folds the surviving
grid through a pixel-shuffle projector, then feeds visual+text tokens to a
toy LLM whose schedule prunes the visual segment by spectral energy at
layers l0, l0+l_delta, ... with a strictly decreasing keep ladder that ends
at zero -- so the final layers run on text tokens alone.  Text tokens are
never pruned, merged, or reordered.

Also here: the ablation baselines (2D random pruning, nearest/bilinear
resampling, drop-everything) and the per-run report assembly.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tokens
from .errors import FormatError, ProjectorCompatibilityError, ScheduleError, ShapeError
from .merging import check_lane_merges, lane_match_ops, merge_height, merge_width
from .metrics import CompressionReport, LayerCount, pipeline_flops, reduction_ratio
from .spectral import FILTER_MODES, spectral_prune
from .tokens import TokenGrid, TokenSequence, concat_tokens, read_json_doc, strict_index
from .toymodel import (FF_EXPANSION, STAGE_ENCODER, STAGE_LLM, ToyModelConfig,
                       block_forward, connector_matrix, layer_weights, matmul_rows,
                       sinusoidal_positions, text_tokens)

SCHEDULE_SCHEMA = 1
BASELINE_KINDS = ("random2d", "nearest", "bilinear", "drop_all")

# first pruning layer and pruning interval of the default schedule
DEFAULT_L0, DEFAULT_L_DELTA = 6, 3


@dataclass(frozen=True)
class CompressionSchedule:
    """Full compression plan for one run.

    merge_pairs lists (width-layer, height-layer) encoder indices; each pair
    must be consecutive (j == i + 1), which is what makes the two passes one
    orthogonal step.  keep_ladder, when None, is derived at run time as a
    linear ramp from the entering visual count down to 0.
    """

    enc_layers: int = 6
    merge_pairs: tuple[tuple[int, int], ...] = ()
    m: int = 2
    llm_layers: int = 12
    l0: int = DEFAULT_L0
    l_delta: int = DEFAULT_L_DELTA
    keep_ladder: tuple[int, ...] | None = None
    sigma_ratio: float = 0.25
    filter_mode: str = "as-written"
    projector_factor: int = 1

    def __post_init__(self):
        for name in ("enc_layers", "m", "llm_layers", "l0", "l_delta", "projector_factor"):
            object.__setattr__(self, name, strict_index(getattr(self, name)))
        object.__setattr__(self, "merge_pairs",
                           tuple((strict_index(i), strict_index(j)) for i, j in self.merge_pairs))
        if self.enc_layers < 0 or self.llm_layers < 0:
            raise ScheduleError("layer counts must be non-negative")
        if self.m < 0 or self.l0 < 0 or self.l_delta < 1 or self.projector_factor < 1:
            raise ScheduleError("bad m / l0 / l_delta / projector_factor")
        if isinstance(self.sigma_ratio, bool) or not 0 < self.sigma_ratio <= 1:
            raise ScheduleError(f"sigma_ratio={self.sigma_ratio} outside (0, 1]")
        if self.filter_mode not in FILTER_MODES:
            raise ScheduleError(f"unknown filter mode {self.filter_mode!r}")
        used = set()
        for i, j in self.merge_pairs:
            if j != i + 1:
                raise ScheduleError(f"merge pair ({i}, {j}) must be consecutive")
            if not 0 <= i < self.enc_layers or j >= self.enc_layers:
                raise ScheduleError(f"merge pair ({i}, {j}) outside encoder layers")
            if used & {i, j}:
                raise ScheduleError("merge pairs overlap")
            used |= {i, j}
        if self.keep_ladder is not None:
            ladder = tuple(strict_index(k) for k in self.keep_ladder)
            object.__setattr__(self, "keep_ladder", ladder)
            n_spu = len(self.spu_layers)
            if len(ladder) != n_spu:
                raise ScheduleError(f"keep_ladder has {len(ladder)} entries for {n_spu} pruning layers")
            if ladder:
                if ladder[-1] != 0:
                    raise ScheduleError("keep_ladder must end at 0")
                if any(a <= b for a, b in zip(ladder, ladder[1:])):
                    raise ScheduleError("keep_ladder must be strictly decreasing")

    @property
    def spu_layers(self) -> range:
        return range(self.l0, self.llm_layers, self.l_delta)

    def resolved_ladder(self, n_visual: int) -> tuple[int, ...]:
        if self.keep_ladder is not None:
            if self.keep_ladder and self.keep_ladder[0] > n_visual:
                raise ScheduleError(f"keep_ladder starts at {self.keep_ladder[0]} "
                                    f"but only {n_visual} visual tokens exist")
            return self.keep_ladder
        if n_visual == 0:
            return ()  # nothing to prune
        return default_keep_ladder(n_visual, len(self.spu_layers))


def default_keep_ladder(n_visual: int, n_steps: int) -> tuple[int, ...]:
    """Linear ramp from n_visual down to 0 over n_steps pruning layers.

    A strictly decreasing ladder that ends at 0 starts at n_steps - 1 or
    more, so more steps than n_visual + 1 are refused before it is built.
    """
    if n_steps == 0:
        return ()
    if n_steps - 1 > n_visual:
        raise ScheduleError(f"{n_visual} visual tokens cannot feed {n_steps} strict pruning steps")
    ladder = [round(n_visual * (n_steps - i) / n_steps) for i in range(1, n_steps + 1)]
    ladder[-1] = 0
    for j in range(n_steps - 2, -1, -1):
        ladder[j] = max(ladder[j], ladder[j + 1] + 1)
    return tuple(ladder)


def no_compression_schedule(sched: CompressionSchedule) -> CompressionSchedule:
    """Same model geometry with every merge and prune hook removed."""
    return replace(sched, merge_pairs=(), l0=sched.llm_layers, keep_ladder=None)


# ---------------------------------------------------------------------------
# Stages.

def _encoder_run(grid: TokenGrid, cfg: ToyModelConfig,
                 sched: CompressionSchedule) -> tuple[TokenGrid, list[LayerCount], int]:
    if grid.d != cfg.d:
        raise ShapeError(f"grid feature dim {grid.d} != model dim {cfg.d}")
    width_at = {i for i, _ in sched.merge_pairs}
    height_at = {j for _, j in sched.merge_pairs}
    n0 = grid.n_tokens
    flat = grid.data.reshape(n0, cfg.d) + sinusoidal_positions(np.arange(n0), cfg.d)
    cur = TokenGrid(grid.h, grid.w, cfg.d, flat.reshape(grid.h, grid.w, cfg.d), grid.sizes)
    trace: list[LayerCount] = []
    sim_ops = 0
    for layer in range(sched.enc_layers):
        trace.append(LayerCount("encoder", layer, cur.n_tokens, 0, n0))
        lw = layer_weights(cfg, STAGE_ENCODER, layer)
        out = block_forward(cur.data.reshape(-1, cfg.d), lw, cfg.heads,
                            sizes=cur.sizes.reshape(-1))
        cur = TokenGrid(cur.h, cur.w, cfg.d, out.reshape(cur.h, cur.w, cfg.d), cur.sizes)
        if layer in width_at:
            sim_ops += cur.h * lane_match_ops(cur.w)
            cur = merge_width(cur, sched.m)
        elif layer in height_at:
            sim_ops += cur.w * lane_match_ops(cur.h)
            cur = merge_height(cur, sched.m)
    return cur, trace, sim_ops


def encoder_forward(grid: TokenGrid, cfg: ToyModelConfig,
                    sched: CompressionSchedule) -> TokenGrid:
    """Toy encoder with scheduled width/height merges between layers."""
    out, _, _ = _encoder_run(grid, cfg, sched)
    return out


def _check_foldable(what: str, h: int, w: int, factor: int) -> None:
    if h % factor or w % factor:
        raise ProjectorCompatibilityError(
            f"{what} {h}x{w} is not divisible by shuffle factor {factor}")


def projector_pixel_shuffle(grid: TokenGrid, factor: int) -> TokenSequence:
    """Fold factor x factor neighborhoods into channel depth.

    Output token (R, C) is the row-major concatenation of its block's
    feature vectors: n shrinks by factor^2, d grows by factor^2.  Token
    layouts without rectangular structure (anything 1D-merged) cannot be
    folded and raise ProjectorCompatibilityError.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    _check_foldable("grid", grid.h, grid.w, factor)
    h2, w2 = grid.h // factor, grid.w // factor
    folded = (grid.data
              .reshape(h2, factor, w2, factor, grid.d)
              .transpose(0, 2, 1, 3, 4)
              .reshape(h2 * w2, factor * factor * grid.d))
    return TokenSequence.from_data(folded)


def llm_forward(visual: TokenSequence, text: TokenSequence, cfg: ToyModelConfig,
                sched: CompressionSchedule,
                base_visual: int | None = None) -> tuple[TokenSequence, list[LayerCount]]:
    """Toy LLM over visual+text with scheduled spectral pruning.

    Pruning applies to the visual segment only, at the entry of each
    scheduled layer; the trace records the counts each layer actually
    processed.  base_visual overrides the uncompressed visual count recorded
    in the trace (defaults to the entering count).
    """
    if visual.d != cfg.d or text.d != cfg.d:
        raise ShapeError("visual/text feature dims must match model dim")
    keep_at = dict(zip(sched.spu_layers, sched.resolved_ladder(visual.n)))
    base = visual.n if base_visual is None else base_visual

    seq = concat_tokens(visual, text)
    x = seq.data + sinusoidal_positions(seq.positions, cfg.d)
    vis_n, vis_pos = visual.n, visual.positions
    trace: list[LayerCount] = []
    for layer in range(sched.llm_layers):
        if layer in keep_at:
            sub = TokenSequence(vis_n, cfg.d, x[:vis_n], vis_pos, visual.orig_len)
            pruned, _ = spectral_prune(sub, sched.sigma_ratio, keep_at[layer], sched.filter_mode)
            x = np.concatenate([pruned.data, x[vis_n:]], axis=0)
            vis_n, vis_pos = pruned.n, pruned.positions
        trace.append(LayerCount("llm", layer, vis_n, text.n, base))
        x = block_forward(x, layer_weights(cfg, STAGE_LLM, layer), cfg.heads)
    positions = np.concatenate([vis_pos, text.positions + visual.orig_len])
    hidden = TokenSequence(vis_n + text.n, cfg.d, x, positions,
                           visual.orig_len + text.orig_len)
    return hidden, trace


def make_text_sequence(cfg: ToyModelConfig, text_len: int | None = None) -> TokenSequence:
    return TokenSequence.from_data(text_tokens(cfg, text_len))


def _connect(seq: TokenSequence, cfg: ToyModelConfig) -> TokenSequence:
    w = connector_matrix(cfg, seq.d)
    return TokenSequence(seq.n, cfg.d, matmul_rows(seq.data, w), seq.positions, seq.orig_len)


def run_experiment(grid: TokenGrid, text_len: int | None, cfg: ToyModelConfig,
                   sched: CompressionSchedule) -> CompressionReport:
    """encoder -> pixel shuffle -> connector -> LLM, with full accounting.

    The schedule is checked against the grid before any layer runs: a run
    with no layers, a lane too short for its merges, a merged grid that the
    projector cannot fold and a keep ladder that the visual tokens cannot
    feed are refused up front, with the errors the stages would raise.  So
    is a stage whose first layer, its widest, computes more than
    tokens.BYTE_BUDGET bytes of attention scores per head (8n² for n
    tokens), though attention holds only a few row tiles of them at a time,
    and a model whose block weights (8d²·(4 + 2·FF_EXPANSION) bytes, so any d
    past 2048), connector (8f²d² bytes for projector factor f) or text tokens
    (8·text_len·d bytes) would pass that budget.
    """
    if sched.enc_layers == 0 and sched.llm_layers == 0:
        raise ScheduleError("schedule runs no encoder or LLM layer, so there is nothing to report")
    f = sched.projector_factor
    _check_foldable("input grid", grid.h, grid.w, f)
    h, w = grid.h, grid.w
    for _ in sched.merge_pairs:  # a width pass, then a height pass
        check_lane_merges(w, sched.m)
        w -= sched.m
        check_lane_merges(h, sched.m)
        h -= sched.m
    _check_foldable("merged grid", h, w, f)
    n_visual = (h // f) * (w // f)
    sched.resolved_ladder(n_visual)
    n_text = cfg.text_len if text_len is None else text_len
    for stage, layers, n in (("encoder", sched.enc_layers, grid.n_tokens),
                             ("llm", sched.llm_layers, n_visual + n_text)):
        if layers and 8 * n * n > tokens.BYTE_BUDGET:
            raise ScheduleError(f"{stage} attention over {n} tokens computes {8 * n * n} bytes "
                                f"of scores per head, past the {tokens.BYTE_BUDGET}-byte budget")
    for what, nbytes in ((f"a block of d={cfg.d}", 8 * cfg.d * cfg.d * (4 + 2 * FF_EXPANSION)),
                         (f"a connector of factor {f} at d={cfg.d}", 8 * f * f * cfg.d * cfg.d),
                         (f"a text of {n_text} tokens at d={cfg.d}", 8 * n_text * cfg.d)):
        if nbytes > tokens.BYTE_BUDGET:
            raise ScheduleError(f"{what} generates {nbytes} bytes, "
                                f"past the {tokens.BYTE_BUDGET}-byte budget")
    t0 = time.perf_counter()
    enc_grid, enc_trace, sim_ops = _encoder_run(grid, cfg, sched)
    t1 = time.perf_counter()
    vis = _connect(projector_pixel_shuffle(enc_grid, f), cfg)
    text = make_text_sequence(cfg, text_len)
    t2 = time.perf_counter()
    base_llm_visual = (grid.h // f) * (grid.w // f)
    _, llm_trace = llm_forward(vis, text, cfg, sched, base_visual=base_llm_visual)
    t3 = time.perf_counter()

    trace = tuple(enc_trace + llm_trace)
    flops_base, flops_compressed = pipeline_flops(trace, cfg.d)
    retention, pruning = reduction_ratio(trace)
    timings = {"encoder_ms": (t1 - t0) * 1e3, "projector_ms": (t2 - t1) * 1e3,
               "llm_ms": (t3 - t2) * 1e3, "total_ms": (t3 - t0) * 1e3}
    return CompressionReport(trace, flops_base, flops_compressed,
                             retention, pruning, sim_ops, timings)


# ---------------------------------------------------------------------------
# Ablation baselines.

def baseline_compress(grid: TokenGrid, kind: str, target_h: int, target_w: int,
                      seed: int = 0) -> TokenGrid:
    """Reference compressors: random2d / nearest / bilinear / drop_all.

    random2d keeps a uniform sample of grid positions in row-major order
    (sizes travel with their tokens); the interpolating kinds resample the
    token field per channel with center-aligned coordinates and emit fresh
    unit sizes; drop_all returns the empty grid regardless of targets.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if kind == "drop_all":
        return TokenGrid(0, 0, grid.d, np.zeros((0, 0, grid.d)), np.zeros((0, 0)))
    if not (0 <= target_h <= grid.h and 0 <= target_w <= grid.w):
        raise ShapeError(f"targets {target_h}x{target_w} exceed source {grid.h}x{grid.w}")
    if kind == "random2d":
        rng = np.random.default_rng(seed)
        flat = np.sort(rng.choice(grid.n_tokens, size=target_h * target_w, replace=False))
        data = grid.data.reshape(-1, grid.d)[flat].reshape(target_h, target_w, grid.d)
        sizes = grid.sizes.reshape(-1)[flat].reshape(target_h, target_w)
        return TokenGrid(target_h, target_w, grid.d, data, sizes)

    def coords(n_src, n_dst):
        c = (np.arange(n_dst) + 0.5) * n_src / n_dst - 0.5
        return np.clip(c, 0, n_src - 1)

    rows, cols = coords(grid.h, target_h), coords(grid.w, target_w)
    if kind == "nearest":
        ri = np.clip(np.floor(rows + 0.5).astype(int), 0, grid.h - 1)
        ci = np.clip(np.floor(cols + 0.5).astype(int), 0, grid.w - 1)
        data = grid.data[np.ix_(ri, ci)]
    else:  # bilinear
        r0 = np.floor(rows).astype(int)
        c0 = np.floor(cols).astype(int)
        r1 = np.minimum(r0 + 1, grid.h - 1)
        c1 = np.minimum(c0 + 1, grid.w - 1)
        fr = (rows - r0)[:, None, None]
        fc = (cols - c0)[None, :, None]
        data = ((1 - fr) * (1 - fc) * grid.data[np.ix_(r0, c0)]
                + (1 - fr) * fc * grid.data[np.ix_(r0, c1)]
                + fr * (1 - fc) * grid.data[np.ix_(r1, c0)]
                + fr * fc * grid.data[np.ix_(r1, c1)])
    return TokenGrid(target_h, target_w, grid.d, data, np.ones((target_h, target_w)))


# ---------------------------------------------------------------------------
# Run-config JSON (model + schedule), used by the CLI and scripts.

def schedule_to_doc(cfg: ToyModelConfig, sched: CompressionSchedule) -> dict:
    return {"schema": SCHEDULE_SCHEMA, "model": asdict(cfg), "schedule": asdict(sched)}


def schedule_from_doc(doc: dict) -> tuple[ToyModelConfig, CompressionSchedule]:
    """Omitted keys take the dataclass defaults; unknown keys are an error."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEDULE_SCHEMA:
        raise FormatError("schedule JSON: missing schema marker")
    try:
        return ToyModelConfig(**doc.get("model", {})), CompressionSchedule(**doc["schedule"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"schedule JSON: {e}") from e


def load_run_config(path) -> tuple[ToyModelConfig, CompressionSchedule]:
    return schedule_from_doc(read_json_doc(path, "schedule JSON"))
