import math
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import naive_attention
from tokcomp import pipeline, toymodel
from tokcomp.errors import ShapeError
from tokcomp.merging import size_boost
from tokcomp.pipeline import CompressionSchedule, run_experiment
from tokcomp.tokens import TokenGrid, TokenSequence
from tokcomp.toymodel import (STAGE_ENCODER, STAGE_LLM, ToyModelConfig,
                              attention, block_forward, connector_matrix,
                              feed_forward, layer_weights, sinusoidal_positions,
                              softmax_rows, tensor_seed, text_tokens,
                              uniform_tensor)


def test_splitmix64_canonical_vectors():
    # first three outputs of the reference splitmix64 stream seeded with 0
    u = uniform_tensor(0, (3,), 1.0)
    expect = [(v >> 11) * 2.0 ** -53 * 2 - 1
              for v in (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)]
    assert np.array_equal(u, expect)


def test_weights_are_deterministic_and_seed_sensitive():
    cfg = ToyModelConfig(d=16, heads=2, seed=5)
    a = layer_weights(cfg, STAGE_ENCODER, 0)
    b = layer_weights(cfg, STAGE_ENCODER, 0)
    assert np.array_equal(a.wq, b.wq) and np.array_equal(a.w2, b.w2)
    other = layer_weights(ToyModelConfig(d=16, heads=2, seed=6), STAGE_ENCODER, 0)
    assert not np.array_equal(a.wq, other.wq)
    assert not np.array_equal(a.wq, layer_weights(cfg, STAGE_LLM, 0).wq)
    assert not np.array_equal(a.wq, layer_weights(cfg, STAGE_ENCODER, 1).wq)


def test_tensor_seed_tag_order_matters():
    assert tensor_seed(0, 1, 2) != tensor_seed(0, 2, 1)


def test_weight_scale_bound():
    w = layer_weights(ToyModelConfig(d=64, heads=4, seed=0), STAGE_ENCODER, 3)
    assert np.abs(w.wq).max() <= 1 / math.sqrt(64)
    assert np.abs(w.w2).max() <= 1 / math.sqrt(2 * 64)


def test_config_validates_head_divisibility():
    with pytest.raises(ShapeError):
        ToyModelConfig(d=30, heads=4)


def test_config_refuses_seeds_outside_64_bits():
    # tensor_seed masks to 64 bits, so -1 would alias 2**64 - 1 and 2**64 alias 0
    for seed in (-1, 2**64, -2**64):
        with pytest.raises(ShapeError):
            ToyModelConfig(seed=seed)
    assert ToyModelConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_softmax_rows_are_stochastic():
    x = np.random.default_rng(0).normal(size=(4, 6, 6))
    e = np.exp(x)
    assert softmax_rows(x) is x  # exponentiated in place
    assert np.array_equal(x, e)
    assert np.allclose((x / x.sum(axis=-1, keepdims=True)).sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_sinusoidal_positions_shape_and_range():
    pe = sinusoidal_positions(np.arange(10), 8)
    assert pe.shape == (10, 8)
    assert np.abs(pe).max() <= 1.0
    assert np.allclose(pe[0, 0::2], 0.0) and np.allclose(pe[0, 1::2], 1.0)
    pe_odd = sinusoidal_positions(np.arange(4), 7)
    assert pe_odd.shape == (4, 7)


def test_attention_matches_naive_multihead():
    cfg = ToyModelConfig(d=8, heads=2, seed=1)
    lw = layer_weights(cfg, STAGE_ENCODER, 0)
    x = np.random.default_rng(2).normal(size=(6, 8))
    for sizes in (None, np.array([1.0, 2, 1, 4, 1, 3])):
        oracle_sizes = np.ones(6) if sizes is None else sizes
        want = naive_attention(x, lw.wq, lw.wk, lw.wv, lw.wo, 2, oracle_sizes)
        assert np.abs(attention(x, lw, 2, sizes=sizes) - want).max() < 1e-12


def test_unit_sizes_take_the_plain_path():
    cfg = ToyModelConfig(d=8, heads=2, seed=1)
    lw = layer_weights(cfg, STAGE_ENCODER, 0)
    x = np.random.default_rng(3).normal(size=(5, 8))
    assert np.array_equal(attention(x, lw, 2, sizes=np.ones(5)), attention(x, lw, 2))


def batched_attention(x, lw, heads, sizes=None):
    """All heads in one score tensor per row tile of toymodel._row_blocks, the
    row sums carried by v's ones column, every product in the model's row blocks."""
    n, d = x.shape
    dh = d // heads

    def rows(w):
        return np.concatenate([x[r] @ w for r in toymodel._row_blocks(n, w.size)])

    q = rows(lw.wq) / np.sqrt(dh)
    v = rows(lw.wv) if sizes is None else size_boost(rows(lw.wv), sizes)
    qh, kh, vh = (t.reshape(n, heads, dh).transpose(1, 0, 2) for t in (q, rows(lw.wk), v))
    bound = np.linalg.norm(qh, axis=-1).max(axis=-1) * np.linalg.norm(kh, axis=-1).max(axis=-1)
    exact = bound > toymodel.SHIFT_MAX
    va = np.concatenate([vh, np.ones((heads, n, 1))], axis=-1)
    parts = []
    for r in toymodel._row_blocks(n, max(n * (dh + 1), d * d)):
        s = qh[:, r] @ kh.mT
        s[exact] -= s[exact].max(axis=-1, keepdims=True)
        t = np.exp(s) @ va
        out = t[..., :dh] / t[..., dh:]
        parts.append(out.transpose(1, 0, 2).reshape(-1, d) @ lw.wo)
    return np.concatenate(parts)


def previous_attention(x, lw, heads, sizes=None):
    """The normalise-then-multiply form: scale the scores, softmax, boost v."""
    n, d = x.shape
    dh = d // heads
    qh, kh, vh = ((x @ w).reshape(n, heads, dh).transpose(1, 0, 2)
                  for w in (lw.wq, lw.wk, lw.wv))
    out = np.empty((heads, n, dh))
    for h in range(heads):
        scores = qh[h] @ kh[h].T / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        out[h] = attn @ size_boost(vh[h], np.ones(n) if sizes is None else sizes)
    return out.transpose(1, 0, 2).reshape(n, d) @ lw.wo


@pytest.mark.parametrize("d,heads", [(8, 2), (32, 4), (48, 3), (64, 4), (64, 8)])
def test_attention_stays_near_the_previous_formula(d, heads):
    lw = layer_weights(ToyModelConfig(d=d, heads=heads, seed=d + heads), STAGE_ENCODER, 1)
    rng = np.random.default_rng(d * heads)
    for n in (1, 2, 5, 31, 100, 257, 1024):
        x = rng.normal(size=(n, d))
        for sizes in (None, rng.integers(1, 6, size=n).astype(float)):
            want = previous_attention(x, lw, heads, sizes)
            diff = np.abs(attention(x, lw, heads, sizes) - want).max()
            assert diff <= 1e-13 * np.abs(want).max(), (n, sizes is None, diff)


@pytest.fixture
def exact_shifts(monkeypatch):
    """Heads shifted by their exact row max, counted."""
    calls = []
    real = toymodel._shift_by_row_max

    def counting(s):
        calls.append(s.shape)
        return real(s)

    monkeypatch.setattr(toymodel, "_shift_by_row_max", counting)
    return calls


@pytest.mark.parametrize("d,heads", [(8, 2), (32, 4), (64, 8)])
def test_underflowing_rows_take_the_exact_max(exact_shifts, d, heads):
    # uniform(0, 100) tokens put scores thousands away from 0, where exp
    # of an unshifted row would overflow or underflow
    lw = layer_weights(ToyModelConfig(d=d, heads=heads, seed=d + heads), STAGE_ENCODER, 1)
    rng = np.random.default_rng(d * heads)
    for n in (1, 5, 31, 257):
        x = rng.uniform(0, 100, size=(n, d))
        for sizes in (None, rng.integers(1, 6, size=n).astype(float)):
            exact_shifts.clear()
            want = previous_attention(x, lw, heads, sizes)
            diff = np.abs(attention(x, lw, heads, sizes) - want).max()
            assert diff <= 1e-13 * np.abs(want).max(), (n, sizes is None, diff)
            assert exact_shifts, n


def largest_bound(x, lw, heads):
    n, d = x.shape
    dh = d // heads
    q = (x @ lw.wq / np.sqrt(dh)).reshape(n, heads, dh)
    k = (x @ lw.wk).reshape(n, heads, dh)
    return (np.linalg.norm(q, axis=-1).max(axis=0) * np.linalg.norm(k, axis=-1).max(axis=0)).max()


@pytest.mark.parametrize("d,heads", [(8, 2), (32, 4), (64, 8)])
def test_shifts_near_the_limit_stay_folded_and_accurate(exact_shifts, d, heads):
    # a bound just under SHIFT_MAX puts unshifted exponents near +-SHIFT_MAX
    lw = layer_weights(ToyModelConfig(d=d, heads=heads, seed=d + heads), STAGE_ENCODER, 1)
    rng = np.random.default_rng(d + heads)
    for n in (31, 257, 1024):
        x = rng.normal(size=(n, d))
        for share, folded in ((0.99, True), (1.01, False)):
            xs = x * np.sqrt(share * toymodel.SHIFT_MAX / largest_bound(x, lw, heads))
            exact_shifts.clear()
            want = previous_attention(xs, lw, heads)
            # an overflow or underflow on the unshifted path fails the test
            with np.errstate(all="raise" if folded else None):
                got = attention(xs, lw, heads)
            diff = np.abs(got - want).max()
            assert diff <= 1e-13 * np.abs(want).max(), (n, share, diff)
            assert (exact_shifts == []) == folded, (n, share)


def test_pipeline_runs_stay_on_the_folded_path(exact_shifts):
    sched = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)), m=2,
                                llm_layers=12, l0=6, l_delta=3, projector_factor=2)
    for side, d, text_len in ((16, 32, 8), (32, 64, 16)):
        for seed in range(3):
            grid = TokenGrid.from_data(np.random.default_rng(seed).normal(size=(side, side, d)))
            run_experiment(grid, None, ToyModelConfig(d=d, heads=4, seed=seed, text_len=text_len),
                           sched)
    assert exact_shifts == []


@pytest.fixture
def score_blocks(monkeypatch):
    """Shapes of the score tiles softmax_rows exponentiates, in call order
    (in completion order when the pool runs them)."""
    blocks = []
    real_softmax = toymodel.softmax_rows

    def counting_softmax(s):
        blocks.append(s.shape)
        return real_softmax(s)

    monkeypatch.setattr(toymodel, "softmax_rows", counting_softmax)
    return blocks


@pytest.mark.parametrize("sized", [False, True])
def test_attention_runs_one_head_at_a_time_bit_identically(score_blocks, sized):
    # each head's products are those of a per-head loop; the heads of a row
    # tile run stacked, and the result equals the all-heads reference exactly
    heads, d = 4, 32
    lw = layer_weights(ToyModelConfig(d=d, heads=heads, seed=4), STAGE_ENCODER, 2)
    rng = np.random.default_rng(5)
    # 257·9 multiply-adds per row: 226 rows stay under BLAS_ONE_THREAD_MACS
    tiles = {257: [(heads, 129, 257), (heads, 128, 257)]}
    for n in (1, 2, 20, 33, 257):
        sizes = rng.integers(1, 5, size=n).astype(float) if sized else None
        # folded heads, then heads shifted by their exact row max
        for x in (rng.normal(size=(n, d)), rng.uniform(0, 100, size=(n, d))):
            score_blocks.clear()
            assert np.array_equal(attention(x, lw, heads, sizes),
                                  batched_attention(x, lw, heads, sizes)), n
            assert score_blocks == tiles.get(n, [(heads, n, n)])


@pytest.fixture
def products(monkeypatch):
    """Multiply-adds of each 2-D product that np.matmul hands to BLAS."""
    macs = []
    real = np.matmul

    def counting(a, b, *args, **kwargs):
        macs.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return macs


@pytest.mark.parametrize("d,n", [(32, 241), (32, 242), (32, 340), (32, 341),
                                 (64, 175), (64, 176), (64, 248), (64, 249), (64, 1024)])
def test_every_product_stays_under_the_one_thread_size(products, d, n):
    heads = 4
    lw = layer_weights(ToyModelConfig(d=d, heads=heads, seed=d + n), STAGE_ENCODER, 1)
    rng = np.random.default_rng(n)
    # folded heads, then heads shifted by their exact row max
    for x in (rng.normal(size=(n, d)), rng.uniform(0, 100, size=(n, d))):
        for sizes in (None, rng.integers(1, 6, size=n).astype(float)):
            products.clear()
            got = attention(x, lw, heads, sizes)
            feed_forward(x, lw)
            assert products and max(products) < toymodel.BLAS_ONE_THREAD_MACS
            assert np.array_equal(got, batched_attention(x, lw, heads, sizes))
            want = previous_attention(x, lw, heads, sizes)
            diff = np.abs(got - want).max()
            assert diff <= 1e-13 * np.abs(want).max(), (sizes is None, diff)


def test_a_hires_run_makes_no_product_past_the_one_thread_size(products):
    sched = CompressionSchedule(enc_layers=6, merge_pairs=((0, 1), (2, 3), (4, 5)), m=2,
                                llm_layers=12, l0=6, l_delta=3, projector_factor=2)
    rng = np.random.default_rng(0)
    cfg = ToyModelConfig(d=64, heads=4, text_len=16)
    run_experiment(TokenGrid.from_data(rng.normal(size=(32, 32, 64))), None, cfg, sched)
    # q/k/v, scores, values, wo and feed-forward per layer, and the connector
    assert len(products) > 18 * 5
    assert max(products) < toymodel.BLAS_ONE_THREAD_MACS
    # the connector of that run: 13x13 shuffled tokens of width 4 * 64
    products.clear()
    pipeline._connect(TokenSequence.from_data(rng.normal(size=(169, 256))), cfg)
    assert products and max(products) < toymodel.BLAS_ONE_THREAD_MACS


def test_attention_holds_one_score_block(score_blocks, monkeypatch):
    monkeypatch.setattr(toymodel, "POOL_THREADS", 1)
    for n, d, heads in ((512, 32, 4), (1024, 64, 4)):
        lw = layer_weights(ToyModelConfig(d=d, heads=heads), STAGE_ENCODER, 0)
        rng = np.random.default_rng(0)
        tile_bytes = 8 * heads * toymodel.BLAS_ONE_THREAD_MACS / (d // heads + 1)
        # folded heads, then heads shifted by their exact row max
        for x in (rng.normal(size=(n, d)), rng.uniform(0, 100, size=(n, d))):
            score_blocks.clear()
            tracemalloc.start()
            try:
                attention(x, lw, heads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert max(8 * math.prod(shape) for shape in score_blocks) < tile_bytes
            # q, k, v, v' and the output, then one tile for each of two threads
            assert peak < 6 * 8 * n * d + 2 * tile_bytes, (n, peak)


def test_worker_blocks_run_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(toymodel, "POOL_THREADS", 1)
    caller, taken = threading.get_ident(), threading.Event()

    def start(rows):
        def run(r):
            if threading.get_ident() == caller:
                assert taken.wait(10)  # hold the caller until a pool thread has a block
            else:
                taken.set()
                np.exp(np.full(rows, 1000.0))
        return run

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        toymodel._for_row_blocks(4, toymodel.BLAS_ONE_THREAD_MACS // 2, toymodel.POOL_MIN_MACS,
                                 start)
    assert taken.is_set()


def test_an_exception_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(toymodel, "POOL_THREADS", 1)
    caller, taken, done = threading.get_ident(), threading.Event(), []

    def start(rows):
        def run(r):
            if threading.get_ident() != caller:
                taken.set()
                raise KeyError(r.start)
            assert taken.wait(10)
            done.append(r.start)
        return run

    with pytest.raises(KeyError):
        toymodel._for_row_blocks(4, toymodel.BLAS_ONE_THREAD_MACS // 2, toymodel.POOL_MIN_MACS,
                                 start)
    # the caller still ran the blocks the failed thread did not take
    assert len(done) == 3


def test_a_forked_child_starts_its_own_pool(monkeypatch):
    monkeypatch.setattr(toymodel, "POOL_THREADS", 1)
    lw = layer_weights(ToyModelConfig(d=64, heads=4), STAGE_ENCODER, 0)
    x = np.random.default_rng(0).normal(size=(1024, 64))
    want = attention(x, lw, 4)  # starts the pool in this process
    pid = os.fork()
    if pid == 0:  # the child has none of the pool's threads
        os._exit(0 if np.array_equal(attention(x, lw, 4), want) else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_attention_refuses_bad_sizes():
    lw = layer_weights(ToyModelConfig(d=8, heads=2), STAGE_ENCODER, 0)
    x = np.random.default_rng(0).normal(size=(4, 8))
    with pytest.raises(ValueError, match="sizes"):
        attention(x, lw, 2, sizes=np.array([1.0, np.nan, 2.0, 1.0]))
    with pytest.raises(ShapeError):
        attention(x, lw, 2, sizes=np.ones(5))


def test_negative_dimensions_are_refused():
    for shape in ((-2, 4), (3, -1), (-1,)):
        with pytest.raises(ShapeError, match="negative"):
            uniform_tensor(0, shape, 1.0)
    assert uniform_tensor(0, (0, 4), 1.0).shape == (0, 4)
    with pytest.raises(ShapeError, match="negative"):
        text_tokens(ToyModelConfig(d=16, heads=2), -3)


def test_uncountable_shapes_are_refused():
    # the value count overflows np.intp, so nothing is allocated
    with pytest.raises(ShapeError, match="more than an array can index"):
        uniform_tensor(0, (10**30, 8), 1.0)
    with pytest.raises(ShapeError, match="more than an array can index"):
        text_tokens(ToyModelConfig(d=16, heads=2), 10**30)


def test_block_forward_empty_input():
    cfg = ToyModelConfig(d=8, heads=2)
    lw = layer_weights(cfg, STAGE_ENCODER, 0)
    out = block_forward(np.zeros((0, 8)), lw, 2)
    assert out.shape == (0, 8)


def test_text_tokens_and_connector_shapes():
    cfg = ToyModelConfig(d=16, heads=2, seed=9, text_len=5)
    assert text_tokens(cfg).shape == (5, 16)
    assert text_tokens(cfg, 3).shape == (3, 16)
    assert connector_matrix(cfg, 64).shape == (64, 16)
    assert np.array_equal(text_tokens(cfg), text_tokens(cfg))


# -- weight cache -------------------------------------------------------------

@pytest.fixture
def empty_cache(monkeypatch):
    cache = toymodel._WeightCache()
    monkeypatch.setattr(toymodel, "_WEIGHTS", cache)
    return cache


@pytest.fixture
def generated(monkeypatch):
    """Shapes of the tensors uniform_tensor generates, in call order."""
    shapes = []
    real = toymodel.uniform_tensor

    def counting(seed, shape, scale):
        shapes.append(shape)
        return real(seed, shape, scale)

    monkeypatch.setattr(toymodel, "uniform_tensor", counting)
    return shapes


def test_second_run_generates_no_weights(empty_cache, generated):
    grid = TokenGrid.from_data(np.random.default_rng(0).normal(size=(8, 8, 16)))
    cfg = ToyModelConfig(d=16, heads=2, seed=3, text_len=4)
    sched = CompressionSchedule(enc_layers=4, merge_pairs=((0, 1),), m=2,
                                llm_layers=6, l0=2, l_delta=2, projector_factor=2)
    first = run_experiment(grid, None, cfg, sched)
    assert len(generated) == 6 * (4 + 6) + 2  # six per block, connector, text
    generated.clear()
    second = run_experiment(grid, None, cfg, sched)
    assert generated == []
    assert second.per_layer_counts == first.per_layer_counts
    assert empty_cache.cfg == cfg and empty_cache.nbytes == 8 * (10 * 8 * 16**2 + 64 * 16 + 4 * 16)


@pytest.mark.parametrize("cached", [True, False])
def test_returned_weights_are_read_only(empty_cache, monkeypatch, cached):
    if not cached:
        monkeypatch.setattr(toymodel, "WEIGHT_CACHE_BYTES", 0)
    cfg = ToyModelConfig(d=8, heads=2, seed=11, text_len=3)
    for _ in range(2):  # generated, then cached or generated again
        lw = layer_weights(cfg, STAGE_LLM, 1)
        for a in (lw.wq, lw.w2, connector_matrix(cfg, 32), text_tokens(cfg)):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
            with pytest.raises(ValueError):
                a += 1.0
    assert empty_cache.nbytes == (8 * (8 * 8**2 + 32 * 8 + 3 * 8) if cached else 0)


def test_new_config_replaces_the_cache_within_its_budget(empty_cache, monkeypatch, generated):
    layer_bytes = 8 * 8 * 16**2  # wq..wo are d x d, w1 and w2 hold 2d² each
    monkeypatch.setattr(toymodel, "WEIGHT_CACHE_BYTES", 3 * layer_bytes + layer_bytes // 2)
    a, b = ToyModelConfig(d=16, heads=2, seed=1), ToyModelConfig(d=16, heads=2, seed=2)
    first = [layer_weights(a, STAGE_ENCODER, i) for i in range(6)]
    assert empty_cache.nbytes == 3 * layer_bytes
    generated.clear()
    again = [layer_weights(a, STAGE_ENCODER, i) for i in range(6)]
    assert len(generated) == 6 * 3  # layers 3-5 did not fit
    assert all(x.wq is y.wq for x, y in zip(first[:3], again[:3]))
    assert all(np.array_equal(x.w2, y.w2) for x, y in zip(first, again))
    layer_weights(b, STAGE_ENCODER, 0)
    assert empty_cache.cfg == b and empty_cache.nbytes == layer_bytes
    generated.clear()
    for i in range(3):
        assert np.array_equal(layer_weights(a, STAGE_ENCODER, i).wq, first[i].wq)
        assert empty_cache.nbytes <= toymodel.WEIGHT_CACHE_BYTES
    assert len(generated) == 6 * 3  # a's entries went when b arrived
