"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live)."""

import functools
import json
import time

import numpy as np
import pytest

from oracles import (brute_grid_merge_width, naive_attention,
                     naive_filter_energies)
from tokcomp.cli import cli_main
from tokcomp.errors import ProjectorCompatibilityError, ShapeError
from tokcomp.images import write_pgm
from tokcomp.merging import (merge_flat, merge_height, merge_step, merge_width,
                             similarity_op_count)
from tokcomp.pipeline import (CompressionSchedule, encoder_forward, llm_forward,
                              make_text_sequence, no_compression_schedule,
                              projector_pixel_shuffle, run_experiment)
from tokcomp.spectral import (cutoff_from_ratio, dft_forward, dft_inverse,
                              make_filter, spectral_prune)
from tokcomp.theory import smoothing_trace
from tokcomp.tokens import (TokenGrid, TokenSequence, grid_from_sequence,
                            write_luvc1)
from tokcomp.toymodel import (STAGE_ENCODER, STAGE_LLM, ToyModelConfig,
                              attention, block_forward, layer_weights,
                              sinusoidal_positions)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] {name}: FAIL")
                raise
            print(f"[criterion {num:2d}] {name}: PASS")
        return wrapper
    return deco


@criterion(1, "spectral correctness vs direct-summation oracle")
def test_criterion_1_spectral_correctness():
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    cases = [(4096, 32), (4095, 4), (2048, 16), (1, 1), (2, 32)]
    while len(cases) < 200:
        n = min(4096, max(1, int(np.exp(rng.uniform(0.0, np.log(4096))))))
        d = min(32, max(1, int(np.exp(rng.uniform(0.0, np.log(32))))))
        cases.append((n, d))
    worst_fwd = worst_rt = worst_parseval = 0.0
    for n, d in cases:
        x = rng.normal(size=(n, d))
        seq = TokenSequence.from_data(x)
        freq = dft_forward(seq)
        fast = freq.data
        k = np.arange(n)
        direct = np.exp(-2j * np.pi * np.outer(k, k) / n) @ x.astype(complex)
        scale = max(1.0, float(np.abs(direct).max()))
        worst_fwd = max(worst_fwd, float(np.abs(fast - direct).max()) / scale)

        back = dft_inverse(freq)
        xscale = max(1.0, float(np.abs(x).max()))
        worst_rt = max(worst_rt,
                       float(np.abs(back.data.real - x).max()) / xscale,
                       float(np.abs(back.data.imag).max()) / xscale)

        sig = float(np.sum(x ** 2))
        spec = float(np.sum(freq.data.real ** 2 + freq.data.imag ** 2)) / n
        worst_parseval = max(worst_parseval, abs(sig - spec) / max(1.0, sig))
    elapsed = time.perf_counter() - start
    assert worst_fwd < 1e-9, worst_fwd
    assert worst_rt < 1e-9, worst_rt
    assert worst_parseval < 1e-9, worst_parseval
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"


SMOOTH_RAMP = 12.0 + 0.25 * np.arange(8.0)
OSCILLATION = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


@criterion(2, "spectral pruning contract")
def test_criterion_2_spu_contract():
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(1, 64))
        d = int(rng.integers(1, 8))
        keep = int(rng.integers(0, n + 1))
        data = rng.normal(size=(n, d))
        seq = TokenSequence.from_data(data)

        pruned, ranking = spectral_prune(seq, 0.25, keep)
        assert pruned.n == keep
        assert np.all(np.diff(ranking.kept) > 0) if keep > 1 else True
        assert set(pruned.positions.tolist()) <= set(range(n))
        assert np.array_equal(pruned.data, data[ranking.kept])

        ident, _ = spectral_prune(seq, 0.25, n)
        assert np.array_equal(ident.data, data)
        assert np.array_equal(ident.positions, seq.positions)

        empty, _ = spectral_prune(seq, 0.25, 0)
        assert empty.n == 0

    # smooth-vs-oscillatory fixture: low-pass energy picks the smooth half
    seq = TokenSequence.from_data(np.concatenate([SMOOTH_RAMP, OSCILLATION])[:, None])
    _, ranking = spectral_prune(seq, 0.25, 8, "symmetric")
    assert ranking.kept.tolist() == list(range(8))
    filt = make_filter(16, cutoff_from_ratio(16, 0.25), "symmetric")
    oracle = naive_filter_energies(seq.data, filt)
    assert oracle[:8].min() > oracle[8:].max()
    assert np.abs(oracle - ranking.energies).max() < 1e-9


@criterion(3, "orthogonal merge contract")
def test_criterion_3_oim_contract():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        h = int(rng.integers(2, 11))
        w = int(rng.integers(2, 11))
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, min(h, w) // 2 + 1))
        sizes = rng.integers(1, 4, size=(h, w)).astype(float)
        grid = TokenGrid(h, w, d, rng.normal(size=(h, w, d)), sizes)
        out = merge_step(grid, m)
        assert (out.h, out.w) == (h - m, w - m)
        assert out.sizes.sum() == sizes.sum()  # exact integer-valued floats

    # tiny grids against the brute-force enumeration oracle
    for seed in range(25):
        g_rng = np.random.default_rng(1000 + seed)
        h = int(g_rng.integers(2, 5))
        w = int(g_rng.integers(2, 5))
        m = int(g_rng.integers(1, w // 2 + 1))
        grid = TokenGrid(h, w, 3, g_rng.normal(size=(h, w, 3)),
                         g_rng.integers(1, 3, size=(h, w)).astype(float))
        got = merge_width(grid, m)
        exp_f, exp_s = brute_grid_merge_width(grid.data, grid.sizes, m)
        assert np.abs(got.data - exp_f).max() < 1e-12
        assert np.array_equal(got.sizes, exp_s)

    # transpose duality, bit-exact
    for seed in range(25):
        g_rng = np.random.default_rng(2000 + seed)
        grid = TokenGrid(5, 7, 2, g_rng.normal(size=(5, 7, 2)),
                         g_rng.integers(1, 3, size=(5, 7)).astype(float))
        lhs = merge_height(grid, 2)
        rhs = merge_width(grid.transpose(), 2).transpose()
        assert np.array_equal(lhs.data, rhs.data)
        assert np.array_equal(lhs.sizes, rhs.sizes)


@criterion(4, "value enhancement vs plain attention and oracle")
def test_criterion_4_value_enhancement():
    rng = np.random.default_rng(4)
    for trial in range(50):
        n = int(rng.integers(1, 12))
        heads = int(rng.integers(1, 4))
        d = heads * int(rng.integers(1, 5))
        lw = layer_weights(ToyModelConfig(d=d, heads=heads, seed=trial), STAGE_ENCODER, 0)
        x = rng.normal(size=(n, d))

        plain = attention(x, lw, heads, np.ones(n))
        assert np.array_equal(plain, attention(x, lw, heads))  # 0 ulps, same arithmetic path

        sizes = rng.integers(1, 9, size=n).astype(float)
        got = attention(x, lw, heads, sizes)
        want = naive_attention(x, lw.wq, lw.wk, lw.wv, lw.wo, heads, sizes)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@criterion(5, "similarity-op scaling exponents (1.5 vs 2.0)")
def test_criterion_5_complexity_scaling():
    start = time.perf_counter()
    ns = np.array([64, 256, 1024, 4096])
    two_d = [similarity_op_count(int(n), "2d") for n in ns]
    one_d = [similarity_op_count(int(n), "1d") for n in ns]
    slope_2d = float(np.polyfit(np.log(ns), np.log(two_d), 1)[0])
    slope_1d = float(np.polyfit(np.log(ns), np.log(one_d), 1)[0])
    assert abs(slope_2d - 1.5) <= 0.15, slope_2d
    assert abs(slope_1d - 2.0) <= 0.1, slope_1d
    assert time.perf_counter() - start < 60.0


@criterion(6, "attention smoothing drives HC/DC to zero")
def test_criterion_6_smoothing_limit():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        attn = rng.uniform(0.05, 1.0, size=(64, 64))
        attn /= attn.sum(axis=1, keepdims=True)
        z = rng.normal(size=64)
        if abs(z.mean()) < 1e-6:
            z = z + 1.0
        trace = smoothing_trace(attn, z, 50)
        assert trace.ratios[50] < 1e-6, (seed, trace.ratios[50])

    n = 64
    uniform = np.full((n, n), 1.0 / n)
    z = np.random.default_rng(12345).normal(size=n) + 1.0
    trace = smoothing_trace(uniform, z, 1)
    assert trace.ratios[1] < 1e-12


def _pipeline_hidden(grid, cfg, sched, text_len):
    from tokcomp.toymodel import connector_matrix
    enc = encoder_forward(grid, cfg, sched)
    folded = projector_pixel_shuffle(enc, sched.projector_factor)
    vis = TokenSequence.from_data(folded.data @ connector_matrix(cfg, folded.d))
    text = make_text_sequence(cfg, text_len)
    hidden, trace = llm_forward(vis, text, cfg, sched)
    return hidden, trace


@criterion(7, "cascade eliminates all visual tokens; no-compression is bit-exact")
def test_criterion_7_cascade_elimination():
    grid = TokenGrid.from_data(np.random.default_rng(9).normal(size=(16, 16, 16)))
    cfg = ToyModelConfig(d=16, heads=2, seed=2, text_len=5)
    schedules = [
        CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)),
                            m=2, llm_layers=12, l0=6, l_delta=3, projector_factor=2),
        CompressionSchedule(enc_layers=2, merge_pairs=((0, 1),), m=1,
                            llm_layers=10, l0=4, l_delta=2),
        CompressionSchedule(enc_layers=0, llm_layers=8, l0=1, l_delta=3,
                            keep_ladder=(100, 10, 0), filter_mode="symmetric"),
        CompressionSchedule(enc_layers=0, llm_layers=6, l0=5, l_delta=1,
                            keep_ladder=(0,)),
    ]
    for sched in schedules:
        report = run_experiment(grid, None, cfg, sched)
        llm = [e for e in report.per_layer_counts if e.stage == "llm"]
        last_spu = sched.spu_layers[-1]
        assert all(e.visual == 0 for e in llm if e.layer >= last_spu)
        assert all(e.text == cfg.text_len for e in llm)

    base_sched = no_compression_schedule(schedules[0])
    hidden, trace = _pipeline_hidden(grid, cfg, base_sched, None)

    # independent reference: the same arithmetic with no compression hooks
    n0 = grid.n_tokens
    x = grid.data.reshape(n0, 16) + sinusoidal_positions(np.arange(n0), 16)
    ones = np.ones(n0)
    for layer in range(base_sched.enc_layers):
        x = block_forward(x, layer_weights(cfg, STAGE_ENCODER, layer), cfg.heads,
                          sizes=ones)
    f = base_sched.projector_factor
    folded = (x.reshape(16, 16, 16).reshape(8, f, 8, f, 16)
              .transpose(0, 2, 1, 3, 4).reshape(64, f * f * 16))
    from tokcomp.toymodel import connector_matrix, text_tokens
    vis = folded @ connector_matrix(cfg, f * f * 16)
    txt = text_tokens(cfg, None)
    y = np.concatenate([vis, txt])
    pos = np.concatenate([np.arange(64), 64 + np.arange(cfg.text_len)])
    y = y + sinusoidal_positions(pos, 16)
    for layer in range(base_sched.llm_layers):
        y = block_forward(y, layer_weights(cfg, STAGE_LLM, layer), cfg.heads)
    assert np.array_equal(hidden.data, y)
    assert all(e.visual == e.base_visual for e in trace)


@criterion(8, "pruning ratio matches an independent recomputation")
def test_criterion_8_accounting(tmp_path):
    grid = TokenGrid.from_data(np.random.default_rng(11).normal(size=(16, 16, 8)))
    cfg = ToyModelConfig(d=8, heads=2, seed=5, text_len=2)
    sched = CompressionSchedule(enc_layers=4, merge_pairs=((1, 2),), m=2,
                                llm_layers=9, l0=3, l_delta=3)
    report = run_experiment(grid, None, cfg, sched)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report.to_doc()))
    doc = json.loads(path.read_text())
    # independent checker: plain python over the serialized trace
    visual = [e["visual"] for e in doc["per_layer_counts"]]
    base = [e["base_visual"] for e in doc["per_layer_counts"]]
    l_p = sum(visual) / len(visual)
    l_o = sum(base) / len(base)
    assert abs(doc["pruning_ratio"] - (1 - l_p / l_o)) < 1e-12
    assert abs(doc["retention_ratio"] - l_p / l_o) < 1e-12

    # engineered schedule: L_p/L_o = 0.375 must report 62.5% pruning
    sched375 = CompressionSchedule(enc_layers=0, llm_layers=8, l0=3, l_delta=10,
                                   keep_ladder=(0,))
    report375 = run_experiment(grid, None, cfg, sched375)
    assert report375.retention_ratio == pytest.approx(0.375, abs=1e-12)
    assert report375.pruning_ratio == pytest.approx(0.625, abs=1e-12)


@criterion(9, "pixel-shuffle projector accepts 2D merges, rejects 1D merges")
def test_criterion_9_projector_compatibility():
    rng = np.random.default_rng(13)
    grid = TokenGrid.from_data(rng.normal(size=(16, 16, 4)))
    merged = grid
    for _ in range(3):
        merged = merge_step(merged, 2)
    seq = projector_pixel_shuffle(merged, 2)  # 10x10 folds cleanly
    assert (seq.n, seq.d) == (25, 16)

    flat, _ = merge_flat(grid.data.reshape(256, 4), np.ones(256), 6)
    assert flat.shape[0] == 250
    with pytest.raises(ShapeError):
        grid_from_sequence(TokenSequence.from_data(flat), 16, 16)
    strip = TokenGrid.from_data(flat.reshape(1, 250, 4))
    with pytest.raises(ProjectorCompatibilityError):
        projector_pixel_shuffle(strip, 2)


@criterion(10, "CLI survives >=1000 fuzzed/truncated inputs with exit code 2")
def test_criterion_10_cli_robustness(tmp_path, capsys):
    rng = np.random.default_rng(99)
    grid = TokenGrid.from_data(rng.normal(size=(4, 5, 3)))
    luvc_path = tmp_path / "good.luvc"
    write_luvc1(grid, luvc_path)
    luvc = luvc_path.read_bytes()
    pgm_path = tmp_path / "good.pgm"
    write_pgm(pgm_path, rng.integers(0, 256, size=(20, 20)).astype(np.uint8))
    pgm = pgm_path.read_bytes()

    cases = []
    cases += [luvc[:cut] for cut in range(len(luvc))]          # 337 truncations
    cases += [pgm[:cut] for cut in range(len(pgm))]            # 413 truncations
    for pos in range(17):                                      # LUVC header flips
        for bit in range(8):
            blob = bytearray(luvc)
            blob[pos] ^= 1 << bit
            cases.append(bytes(blob))
    for pos in (0, 1, 3, 4, 6, 7):                             # PGM magic/dim flips
        for bit in range(8):
            blob = bytearray(pgm)
            blob[pos] ^= 1 << bit
            cases.append(bytes(blob))
    for i in range(80):                                        # arbitrary garbage
        cases.append(rng.bytes(int(rng.integers(0, 200))))
    assert len(cases) >= 1000

    target = tmp_path / "fuzz.bin"
    for i, blob in enumerate(cases):
        target.write_bytes(blob)
        code = cli_main(["spectrum", str(target), "--keep", "1"])
        err = capsys.readouterr().err
        assert code == 2, f"case {i} exited {code}"
        assert err.strip(), f"case {i} produced no diagnostic"
