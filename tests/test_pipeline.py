import hashlib
import json

import numpy as np
import pytest

from tokcomp import pipeline, toymodel
from tokcomp.errors import (ProjectorCompatibilityError, ScheduleError,
                            ShapeError)
from tokcomp.merging import merge_flat
from tokcomp.metrics import pipeline_flops, reduction_ratio
from tokcomp.pipeline import (CompressionSchedule, baseline_compress,
                              default_keep_ladder, encoder_forward, llm_forward,
                              no_compression_schedule, projector_pixel_shuffle,
                              run_experiment, schedule_from_doc,
                              schedule_to_doc)
from tokcomp.tokens import TokenGrid, TokenSequence, grid_from_sequence
from tokcomp.toymodel import (STAGE_ENCODER, STAGE_LLM, ToyModelConfig,
                              block_forward, layer_weights,
                              sinusoidal_positions)


def rand_grid(seed, h, w, d):
    return TokenGrid.from_data(np.random.default_rng(seed).normal(size=(h, w, d)))


def rand_seq(seed, n, d):
    return TokenSequence.from_data(np.random.default_rng(seed).normal(size=(n, d)))


# -- schedule validation ------------------------------------------------------

def test_merge_pairs_must_be_consecutive():
    with pytest.raises(ScheduleError):
        CompressionSchedule(enc_layers=4, merge_pairs=((0, 2),))


def test_merge_pairs_must_not_overlap():
    with pytest.raises(ScheduleError):
        CompressionSchedule(enc_layers=4, merge_pairs=((0, 1), (1, 2)))


def test_ladder_must_end_at_zero_and_decrease():
    with pytest.raises(ScheduleError):
        CompressionSchedule(llm_layers=12, l0=6, l_delta=3, keep_ladder=(10, 5))
    with pytest.raises(ScheduleError):
        CompressionSchedule(llm_layers=12, l0=6, l_delta=3, keep_ladder=(5, 10))
    with pytest.raises(ScheduleError):
        CompressionSchedule(llm_layers=12, l0=6, l_delta=3, keep_ladder=(5, 5))
    with pytest.raises(ScheduleError):
        CompressionSchedule(llm_layers=12, l0=6, l_delta=3, keep_ladder=(5, 0, 0))


@pytest.mark.parametrize("kwargs, message", [
    (dict(l_delta=2, keep_ladder=(5, 5, 0)), "strictly decreasing"),
    (dict(enc_layers=-1), "layer counts must be non-negative"),
    (dict(llm_layers=-1), "layer counts must be non-negative"),
    (dict(m=-1), "bad m / l0"),
    (dict(l0=-1), "bad m / l0"),
    (dict(l_delta=0), "bad m / l0"),
    (dict(projector_factor=0), "bad m / l0"),
    (dict(filter_mode="lowpass"), "unknown filter mode"),
    (dict(enc_layers=4, merge_pairs=((4, 5),)), "outside encoder layers"),
    (dict(enc_layers=4, merge_pairs=((-1, 0),)), "outside encoder layers"),
])
def test_schedule_refusals(kwargs, message):
    # each case reaches exactly one check, which names itself in the message
    with pytest.raises(ScheduleError, match=message):
        CompressionSchedule(**kwargs)


def test_spu_layer_arithmetic():
    sched = CompressionSchedule(llm_layers=12, l0=6, l_delta=3)
    assert sched.spu_layers == (6, 9)
    assert CompressionSchedule(llm_layers=12, l0=12).spu_layers == ()


def test_default_ladder_is_linear_and_strict():
    assert default_keep_ladder(100, 2) == (50, 0)
    assert default_keep_ladder(100, 4) == (75, 50, 25, 0)
    assert default_keep_ladder(2, 3) == (2, 1, 0)
    with pytest.raises(ScheduleError):
        default_keep_ladder(1, 3)


def test_schedule_doc_round_trip():
    cfg = ToyModelConfig(d=16, heads=2, seed=3, text_len=4)
    sched = CompressionSchedule(enc_layers=4, merge_pairs=((0, 1),), m=1,
                                llm_layers=8, l0=4, l_delta=2,
                                keep_ladder=(6, 0), sigma_ratio=0.3,
                                filter_mode="symmetric", projector_factor=2)
    cfg2, sched2 = schedule_from_doc(schedule_to_doc(cfg, sched))
    assert cfg2 == cfg and sched2 == sched


# -- encoder ------------------------------------------------------------------

def test_encoder_noop_schedule_preserves_shape():
    grid = rand_grid(0, 4, 5, 16)
    cfg = ToyModelConfig(d=16, heads=2, seed=0)
    out = encoder_forward(grid, cfg, CompressionSchedule(enc_layers=3, merge_pairs=()))
    assert (out.h, out.w, out.d) == (4, 5, 16)
    assert out.sizes.sum() == 20


def test_encoder_three_pairs_shape_ledger():
    grid = rand_grid(1, 16, 16, 16)
    cfg = ToyModelConfig(d=16, heads=2, seed=1)
    sched = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)), m=2)
    out = encoder_forward(grid, cfg, sched)
    assert (out.h, out.w) == (10, 10)
    assert out.sizes.sum() == 256


def test_encoder_attention_matches_reference_blocks():
    grid = rand_grid(2, 3, 4, 8)
    cfg = ToyModelConfig(d=8, heads=2, seed=7)
    sched = CompressionSchedule(enc_layers=2, merge_pairs=())
    out = encoder_forward(grid, cfg, sched)
    x = grid.data.reshape(12, 8) + sinusoidal_positions(np.arange(12), 8)
    for layer in range(2):
        x = block_forward(x, layer_weights(cfg, STAGE_ENCODER, layer), 2,
                          sizes=np.ones(12))
    assert np.array_equal(out.data.reshape(12, 8), x)


def test_encoder_rejects_wrong_dim():
    with pytest.raises(ShapeError):
        encoder_forward(rand_grid(0, 2, 2, 5), ToyModelConfig(d=8, heads=2),
                        CompressionSchedule(enc_layers=1))


# -- projector ----------------------------------------------------------------

def test_pixel_shuffle_folds_blocks():
    grid = rand_grid(3, 4, 4, 2)
    seq = projector_pixel_shuffle(grid, 2)
    assert (seq.n, seq.d) == (4, 8)


def test_pixel_shuffle_content_is_block_row_major():
    labels = np.arange(16, dtype=float).reshape(4, 4, 1) * 10
    seq = projector_pixel_shuffle(TokenGrid.from_data(labels), 2)
    # token (0, 0) folds grid cells (0,0), (0,1), (1,0), (1,1)
    assert seq.data[0].tolist() == [0.0, 10.0, 40.0, 50.0]
    assert seq.data[1].tolist() == [20.0, 30.0, 60.0, 70.0]
    assert seq.data[2].tolist() == [80.0, 90.0, 120.0, 130.0]


def test_pixel_shuffle_rejects_non_divisible():
    with pytest.raises(ProjectorCompatibilityError):
        projector_pixel_shuffle(rand_grid(4, 3, 4, 2), 2)


def test_pixel_shuffle_factor_one_is_flatten():
    grid = rand_grid(5, 3, 5, 2)
    seq = projector_pixel_shuffle(grid, 1)
    assert np.array_equal(seq.data, grid.data.reshape(15, 2))


def test_flat_merge_output_cannot_feed_projector():
    grid = rand_grid(6, 16, 16, 4)
    flat, _ = merge_flat(grid.data.reshape(256, 4), np.ones(256), 6)
    # 250 survivors: no 16x16 grid any more, only a 1 x 250 strip
    with pytest.raises(ShapeError):
        grid_from_sequence(TokenSequence.from_data(flat), 16, 16)
    strip = TokenGrid.from_data(flat.reshape(1, 250, 4))
    with pytest.raises(ProjectorCompatibilityError):
        projector_pixel_shuffle(strip, 2)


# -- llm ----------------------------------------------------------------------

def llm_cfg_sched(n_layers=7, l0=1, l_delta=2, ladder=(64, 16, 0), **kw):
    cfg = ToyModelConfig(d=8, heads=2, seed=4, text_len=3)
    sched = CompressionSchedule(enc_layers=0, llm_layers=n_layers, l0=l0,
                                l_delta=l_delta, keep_ladder=ladder, **kw)
    return cfg, sched


def test_llm_prune_ladder_counts():
    cfg, sched = llm_cfg_sched()
    visual, text = rand_seq(0, 100, 8), rand_seq(1, 3, 8)
    hidden, trace = llm_forward(visual, text, cfg, sched)
    assert [e.visual for e in trace] == [100, 64, 64, 16, 16, 0, 0]
    assert all(e.text == 3 for e in trace)
    assert hidden.n == 3
    assert hidden.positions.tolist() == [100, 101, 102]


def test_llm_empty_visual_runs():
    cfg, sched = llm_cfg_sched(ladder=None)
    visual = TokenSequence.from_data(np.zeros((0, 8)))
    hidden, trace = llm_forward(visual, rand_seq(1, 3, 8), cfg, sched)
    assert all(e.visual == 0 for e in trace)
    assert hidden.n == 3


def test_llm_rejects_oversized_ladder():
    cfg, sched = llm_cfg_sched(ladder=(200, 16, 0))
    with pytest.raises(ScheduleError):
        llm_forward(rand_seq(0, 100, 8), rand_seq(1, 3, 8), cfg, sched)


def test_llm_without_spu_matches_reference_bit_exactly():
    cfg, sched = llm_cfg_sched(n_layers=5, l0=5, l_delta=3, ladder=None)
    visual, text = rand_seq(2, 10, 8), rand_seq(3, 3, 8)
    hidden, trace = llm_forward(visual, text, cfg, sched)
    # reference: same weights, no pruning machinery at all
    x = np.concatenate([visual.data, text.data])
    pos = np.concatenate([visual.positions, text.positions + visual.orig_len])
    x = x + sinusoidal_positions(pos, 8)
    for layer in range(5):
        x = block_forward(x, layer_weights(cfg, STAGE_LLM, layer), 2)
    assert np.array_equal(hidden.data, x)
    assert [e.visual for e in trace] == [10] * 5


# -- baselines ----------------------------------------------------------------

def test_nearest_on_constant_grid():
    grid = TokenGrid.from_data(np.full((4, 4, 3), 2.5))
    out = baseline_compress(grid, "nearest", 2, 2)
    assert (out.h, out.w) == (2, 2)
    assert np.all(out.data == 2.5)


def test_bilinear_center_average():
    grid = TokenGrid.from_data(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
    out = baseline_compress(grid, "bilinear", 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(2.5, abs=1e-12)


def test_random2d_reproducible_and_order_preserving():
    grid = rand_grid(9, 6, 6, 2)
    a = baseline_compress(grid, "random2d", 3, 4, seed=11)
    b = baseline_compress(grid, "random2d", 3, 4, seed=11)
    assert np.array_equal(a.data, b.data)
    flat_grid = grid.data.reshape(36, 2)
    flat_out = a.data.reshape(12, 2)
    taken = [int(np.nonzero((flat_grid == row).all(axis=1))[0][0]) for row in flat_out]
    assert taken == sorted(taken)
    c = baseline_compress(grid, "random2d", 3, 4, seed=12)
    assert not np.array_equal(a.data, c.data)


def test_drop_all_returns_empty_grid():
    out = baseline_compress(rand_grid(0, 4, 4, 2), "drop_all", 0, 0)
    assert out.n_tokens == 0 and out.d == 2


def test_baseline_rejects_bad_targets():
    with pytest.raises(ShapeError, match="targets 5x2 exceed source 4x4"):
        baseline_compress(rand_grid(0, 4, 4, 2), "nearest", 5, 2)
    with pytest.raises(ValueError):
        baseline_compress(rand_grid(0, 4, 4, 2), "mystery", 2, 2)


# -- full experiment ----------------------------------------------------------

def full_setup(seed=0):
    grid = rand_grid(seed, 16, 16, 16)
    cfg = ToyModelConfig(d=16, heads=2, seed=seed, text_len=6)
    sched = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)),
                                m=2, llm_layers=12, l0=6, l_delta=3,
                                projector_factor=2)
    return grid, cfg, sched


def test_run_experiment_cascades_to_zero():
    grid, cfg, sched = full_setup()
    report = run_experiment(grid, None, cfg, sched)
    llm_counts = [e.visual for e in report.per_layer_counts if e.stage == "llm"]
    assert llm_counts[-1] == 0
    assert all(e.text == 6 for e in report.per_layer_counts if e.stage == "llm")
    after_last = sched.spu_layers[-1]
    assert all(c == 0 for c in llm_counts[after_last:])
    counts = [e.visual for e in report.per_layer_counts]
    assert all(a >= b for a, b in zip(counts[:6], counts[1:6]))  # encoder monotone
    assert all(a >= b for a, b in zip(counts[6:], counts[7:]))   # llm monotone


def test_no_compression_schedule_reports_zero_pruning():
    grid, cfg, sched = full_setup(1)
    report = run_experiment(grid, None, cfg, no_compression_schedule(sched))
    assert report.pruning_ratio == 0.0
    assert report.retention_ratio == 1.0
    assert report.flops_compressed == report.flops_base
    assert report.similarity_ops == 0


def test_run_experiment_refuses_negative_text_len():
    grid, cfg, sched = full_setup()
    with pytest.raises(ShapeError, match="negative"):
        run_experiment(grid, -3, cfg, sched)


@pytest.mark.parametrize("sched,error,message", [
    (CompressionSchedule(enc_layers=0, llm_layers=0), ScheduleError, "no encoder or LLM layer"),
    (CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=5, llm_layers=2),
     ShapeError, "lane of 8 tokens cannot absorb 5 merges"),
    (CompressionSchedule(enc_layers=4, merge_pairs=((0, 1), (2, 3)), m=3, llm_layers=2),
     ShapeError, "lane of 5 tokens cannot absorb 3 merges"),  # the second pair's width pass
    (CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=1, llm_layers=2,
                         projector_factor=2),
     ProjectorCompatibilityError, "merged grid 7x7 is not divisible by shuffle factor 2"),
    (CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=2, llm_layers=4, l0=1,
                         l_delta=2, keep_ladder=(12, 0), projector_factor=2),
     ScheduleError, "keep_ladder starts at 12 but only 9 visual tokens exist"),
    (CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=2, llm_layers=12, l0=0,
                         l_delta=1, projector_factor=2),
     ScheduleError, "9 visual tokens cannot feed 12 strict pruning steps"),
])
def test_schedule_that_cannot_fit_the_grid_is_refused_before_any_layer(
        monkeypatch, sched, error, message):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return block_forward(*args, **kwargs)

    monkeypatch.setattr(pipeline, "block_forward", counting)
    with pytest.raises(error, match=message):
        run_experiment(rand_grid(9, 8, 8, 8), None, ToyModelConfig(d=8, heads=2), sched)
    assert calls == []


@pytest.mark.parametrize("d,refused", [(2048, False), (2052, True)])
def test_block_weights_past_the_budget_are_refused_before_any_layer(monkeypatch, d, refused):
    # 8d²·8 bytes of weights per block: 2^28 at d = 2048, about 270 MB at 2052
    class Built(Exception):
        pass

    def building(*args):
        raise Built

    monkeypatch.setattr(pipeline, "layer_weights", building)
    grid, cfg = rand_grid(1, 2, 2, d), ToyModelConfig(d=d, heads=4, text_len=1)
    sched = CompressionSchedule(enc_layers=1, llm_layers=1)
    if refused:
        with pytest.raises(ScheduleError, match=f"a block of d={d} generates {64 * d * d} bytes"):
            run_experiment(grid, None, cfg, sched)
    else:
        with pytest.raises(Built):
            run_experiment(grid, None, cfg, sched)


def test_report_matches_independent_recomputation():
    grid, cfg, sched = full_setup(2)
    report = run_experiment(grid, 4, cfg, sched)
    base, compressed = pipeline_flops(report.per_layer_counts, cfg.d)
    assert (base, compressed) == (report.flops_base, report.flops_compressed)
    retention, pruning = reduction_ratio(report.per_layer_counts)
    assert abs(retention - report.retention_ratio) < 1e-12
    assert abs(pruning - report.pruning_ratio) < 1e-12


def test_engineered_three_eighths_retention():
    grid = rand_grid(3, 16, 16, 8)
    cfg = ToyModelConfig(d=8, heads=2, seed=3, text_len=2)
    sched = CompressionSchedule(enc_layers=0, llm_layers=8, l0=3, l_delta=10,
                                keep_ladder=(0,))
    report = run_experiment(grid, None, cfg, sched)
    assert report.retention_ratio == pytest.approx(0.375, abs=1e-12)
    assert report.pruning_ratio == pytest.approx(0.625, abs=1e-12)


def test_runs_are_deterministic_given_seed():
    grid, cfg, sched = full_setup(5)
    a = run_experiment(grid, None, cfg, sched)
    b = run_experiment(grid, None, cfg, sched)
    assert a.per_layer_counts == b.per_layer_counts
    assert (a.flops_base, a.flops_compressed) == (b.flops_base, b.flops_compressed)
    assert (a.retention_ratio, a.similarity_ops) == (b.retention_ratio, b.similarity_ops)


def test_trace_counts_change_only_at_scheduled_layers():
    grid, cfg, sched = full_setup(4)
    report = run_experiment(grid, None, cfg, sched)
    scheduled_enc = {i for pair in sched.merge_pairs for i in pair}
    entries = [e for e in report.per_layer_counts if e.stage == "encoder"]
    for prev, cur in zip(entries, entries[1:]):
        if prev.layer not in scheduled_enc:
            assert cur.visual == prev.visual
    llm_entries = [e for e in report.per_layer_counts if e.stage == "llm"]
    for prev, cur in zip(llm_entries, llm_entries[1:]):
        if cur.layer not in sched.spu_layers:
            assert cur.visual == prev.visual


@pytest.mark.parametrize("side,d", [(16, 32), (32, 64)])
def test_weight_cache_changes_no_number(monkeypatch, side, d):
    grid = rand_grid(side, side, side, d)
    cfg = ToyModelConfig(d=d, heads=4, seed=side, text_len=8)
    sched = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)),
                                m=2, llm_layers=12, l0=6, l_delta=3, projector_factor=2)
    outputs = []
    encoder_run, llm = pipeline._encoder_run, pipeline.llm_forward

    def recording_encoder(*args):
        out = encoder_run(*args)
        outputs.extend((out[0].data, out[0].sizes))
        return out

    def recording_llm(*args, **kwargs):
        out = llm(*args, **kwargs)
        outputs.append(out[0].data)
        return out

    monkeypatch.setattr(pipeline, "_encoder_run", recording_encoder)
    monkeypatch.setattr(pipeline, "llm_forward", recording_llm)

    def digest():
        outputs.clear()
        doc = run_experiment(grid, None, cfg, sched).to_doc()
        del doc["timings_ms"]
        h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        for a in outputs:
            h.update(a.tobytes())
        return h.hexdigest()

    digests, held = [], []
    for budget in (0, toymodel.WEIGHT_CACHE_BYTES):  # generated per call, then cached
        monkeypatch.setattr(toymodel, "WEIGHT_CACHE_BYTES", budget)
        monkeypatch.setattr(toymodel, "_WEIGHTS", toymodel._WeightCache())
        digests.append(digest())
        held.append(toymodel._WEIGHTS.nbytes)
    digests.append(digest())  # served from the cache
    assert len(outputs) == 3 and len(set(digests)) == 1
    assert held == [0, 8 * (18 * 8 * d * d + 4 * d * d + 8 * d)]


@pytest.mark.parametrize("side,d,text_len", [(16, 32, 8), (32, 64, 16)])
def test_outputs_do_not_depend_on_the_pool(monkeypatch, side, d, text_len):
    grid = rand_grid(side, side, side, d)
    cfg = ToyModelConfig(d=d, heads=4, seed=side, text_len=text_len)
    sched = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)),
                                m=2, llm_layers=12, l0=6, l_delta=3, projector_factor=2)
    recorded = []
    encoder_run, llm, prune = pipeline._encoder_run, pipeline.llm_forward, pipeline.spectral_prune

    def recording(real, *parts):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            recorded.extend(part(out).tobytes() for part in parts)
            return out
        return wrapper

    monkeypatch.setattr(pipeline, "_encoder_run", recording(
        encoder_run, lambda out: out[0].data, lambda out: out[0].sizes))
    monkeypatch.setattr(pipeline, "llm_forward", recording(llm, lambda out: out[0].data))
    monkeypatch.setattr(pipeline, "spectral_prune", recording(prune, lambda out: out[1].kept))

    def outputs():
        recorded.clear()
        doc = run_experiment(grid, None, cfg, sched).to_doc()
        del doc["timings_ms"]
        return doc, tuple(recorded)

    runs = []
    for threads in (0, 0, 1, 1):  # the calling thread alone, then with a pool thread
        monkeypatch.setattr(toymodel, "POOL_THREADS", threads)
        runs.append(outputs())
    # merged grid and sizes, the kept set of each of the two prunes, the hidden states
    assert len(runs[0][1]) == 5
    assert all(run == runs[0] for run in runs)
