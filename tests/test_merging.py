import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_grid_merge_width, brute_lane_merge
from tokcomp import merging
from tokcomp.errors import ShapeError
from tokcomp.merging import (_merge_lanes, _unit_rows, lane_match_ops, merge_flat, merge_height,
                             merge_step, merge_width, similarity_op_count)
from tokcomp.tokens import TokenGrid


def rand_grid(seed, h, w, d, max_size=1):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(h, w, d))
    sizes = rng.integers(1, max_size + 1, size=(h, w)).astype(float)
    return TokenGrid(h, w, d, data, sizes)


# -- lane matching ------------------------------------------------------------

def test_identical_tokens_merge_lowest_pair():
    feats = np.tile(np.array([1.0, 2.0]), (4, 1))
    merged, sizes = merge_flat(feats, np.ones(4), 1)
    assert merged.shape == (3, 2)
    assert np.allclose(merged, feats[:3], atol=1e-12)
    assert sizes.tolist() == [2, 1, 1]  # token 0 went into token 1


def test_orthogonal_pairs_pick_the_similar_match():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    feats = np.stack([a, a, b, b])
    merged, sizes = merge_flat(feats, np.ones(4), 1)
    assert sizes.tolist() == [2, 1, 1]  # token 0 went into token 1
    assert np.array_equal(merged, np.stack([a, b, b]))


def test_m_zero_is_identity():
    feats = np.random.default_rng(0).normal(size=(6, 3))
    merged, sizes = merge_flat(feats, np.ones(6), 0)
    assert np.array_equal(merged, feats)
    assert np.array_equal(sizes, np.ones(6))
    g = rand_grid(1, 3, 4, 2)
    assert merge_width(g, 0) is g


def test_lane_too_short():
    with pytest.raises(ShapeError):
        merge_flat(np.ones((3, 2)), np.ones(3), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_lane_merge_matches_brute_force(half, seed):
    lane_len = 2 * half
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(lane_len, 3))
    sizes = rng.integers(1, 4, size=lane_len).astype(float)
    m = int(rng.integers(1, half + 1))
    got_f, got_s = merge_flat(feats, sizes, m)
    exp_f, exp_s = brute_lane_merge(feats, sizes, m)
    assert np.allclose(got_f, exp_f, atol=1e-12)
    assert np.array_equal(got_s, exp_s)

    # multi-row grid of axis-aligned integer features: every cosine is
    # exactly -1, 0 or 1 in any summation order, so similarities tie often
    # and the lowest-index tie-breaks decide
    h = int(rng.integers(2, 6))
    scale = rng.integers(-2, 3, size=(h, lane_len))
    data = np.eye(3)[rng.integers(0, 3, size=(h, lane_len))] * scale[..., None]
    grid_sizes = rng.integers(1, 4, size=(h, lane_len)).astype(float)
    out = merge_width(TokenGrid(h, lane_len, 3, data, grid_sizes), m)
    exp_f, exp_s = brute_grid_merge_width(data, grid_sizes, m)
    assert np.array_equal(out.data, exp_f)
    assert np.array_equal(out.sizes, exp_s)


def lane_inputs(seed, lanes, n, d):
    """(normal features, one-hot tie features, sizes) for `lanes` lanes of n tokens."""
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=(lanes, n, d))
    ties = np.eye(d)[rng.integers(0, d, (lanes, n))] * rng.integers(-2, 3, (lanes, n, 1))
    return normal, ties, rng.integers(1, 4, size=(lanes, n)).astype(float)


@pytest.mark.parametrize("lanes_per_block", [1, 2, 3, None])
def test_blocked_matcher_is_bit_identical_to_one_block(monkeypatch, lanes_per_block):
    # 7 lanes leave a short last block for 2 and 3 lanes per block; the
    # transposed input is how a height pass sees its lanes
    lanes, n, d, m = 7, 10, 3, 3
    normal, ties, sizes = lane_inputs(8, lanes, n, d)
    cases = [(normal, sizes), (ties, sizes),
             (normal.transpose(1, 0, 2).copy().transpose(1, 0, 2), sizes)]
    whole = [_merge_lanes(x, s, m) for x, s in cases]
    lane_bytes = 8 * (n * d + lane_match_ops(n))
    assert merging.MATCH_BLOCK_BYTES >= lanes * lane_bytes  # the default is one block here
    budget = 1 if lanes_per_block == 1 else (lanes_per_block or lanes) * lane_bytes
    monkeypatch.setattr(merging, "MATCH_BLOCK_BYTES", budget)
    for (x, s), (exp_f, exp_s) in zip(cases, whole):
        got_f, got_s = _merge_lanes(x, s, m)
        assert np.array_equal(got_f, exp_f) and np.array_equal(got_s, exp_s)
    for lane in range(lanes):  # and each lane alone is a block of one
        got_f, got_s = merge_flat(ties[lane], sizes[lane], m)
        assert np.array_equal(got_f, whole[1][0][lane]) and np.array_equal(got_s, whole[1][1][lane])


def test_merge_step_holds_one_block_of_temporaries():
    # 96 lanes of 96 x 32 span several blocks; the peak is the two pass
    # outputs plus one block, not whole-grid unit rows and similarities
    grid = rand_grid(6, 96, 96, 32)
    assert 96 * 8 * (96 * 32 + lane_match_ops(96)) > 3 * merging.MATCH_BLOCK_BYTES
    merge_step(grid, 2)
    tracemalloc.start()
    try:
        merge_step(grid, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * grid.data.nbytes


def test_each_pass_hands_the_next_one_whole_lanes():
    grid = rand_grid(7, 6, 8, 3)
    wide = merge_width(grid, 1)
    assert wide.transpose().data.flags.c_contiguous  # the height pass's lanes
    step = merge_height(wide, 1)
    assert step.data.flags.c_contiguous
    assert np.array_equal(step.data, merge_step(grid, 1).data)


def test_zero_norm_tokens_have_zero_unit_rows():
    # all-zero tokens, and tokens whose squares underflow to a zero norm
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(10, 3))
    feats[[0, 3, 9]] = 0.0
    feats[[1, 2, 8]] = 1e-200 * rng.normal(size=(3, 3))
    sizes = rng.integers(1, 4, size=10).astype(float)
    with np.errstate(all="raise", under="ignore"):  # no divide/invalid warning escapes
        unit = _unit_rows(feats[None])[0]
        got_f, got_s = merge_flat(feats, sizes, 3)
    assert np.array_equal(unit[[0, 1, 2, 3, 8, 9]], np.zeros((6, 3)))
    assert np.allclose(np.linalg.norm(unit[4:8], axis=-1), 1.0)
    exp_f, exp_s = brute_lane_merge(feats, sizes, 3)
    assert np.allclose(got_f, exp_f, atol=1e-12)
    assert np.array_equal(got_s, exp_s)


# -- grid merges --------------------------------------------------------------

def test_merge_width_shape():
    out = merge_width(rand_grid(2, 2, 4, 1), 1)
    assert (out.h, out.w) == (2, 3)


def test_merge_height_shape():
    out = merge_height(rand_grid(3, 4, 3, 1), 1)
    assert (out.h, out.w) == (3, 3)


def test_merge_rejects_small_grids():
    with pytest.raises(ShapeError):
        merge_width(rand_grid(0xA, 2, 3, 1), 2)
    with pytest.raises(ShapeError):
        merge_step(rand_grid(0xB, 3, 8, 1), 2)


def test_merge_refuses_an_overflow():
    # an absorb sums two size-weighted tokens or two sizes, each finite
    huge_tokens = TokenGrid.from_data(np.full((4, 4, 2), 1.5e308))
    huge_sizes = TokenGrid(4, 4, 2, np.ones((4, 4, 2)), np.full((4, 4), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        for grid in (huge_tokens, huge_sizes):
            for merge in (merge_width, merge_height, merge_step):
                with pytest.raises(ShapeError, match="merging 1 tokens per lane overflows"):
                    merge(grid, 1)


def test_merge_step_shapes_and_conservation():
    g = rand_grid(3, 4, 4, 1)
    out = merge_step(g, 1)
    assert (out.h, out.w) == (3, 3)
    assert out.sizes.sum() == 16


def test_three_steps_on_16x16():
    g = rand_grid(4, 16, 16, 8)
    for _ in range(3):
        g = merge_step(g, 2)
    assert (g.h, g.w) == (10, 10)
    assert g.n_tokens / 256 == pytest.approx(0.390625)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_sizes_conserved(h, w, d, seed):
    g = rand_grid(seed, h, w, d, max_size=3)
    total = g.sizes.sum()
    m = min(h, w) // 2
    out = merge_step(g, m)
    assert out.sizes.sum() == total


def test_width_merge_matches_brute_force_grid():
    g = rand_grid(77, 4, 6, 3, max_size=2)
    out = merge_width(g, 2)
    exp_f, exp_s = brute_grid_merge_width(g.data, g.sizes, 2)
    assert np.allclose(out.data, exp_f, atol=1e-12)
    assert np.array_equal(out.sizes, exp_s)


def test_transpose_duality_bit_exact():
    for seed in range(5):
        g = rand_grid(seed, 4, 6, 3, max_size=2)
        lhs = merge_height(g, 1)
        rhs = merge_width(g.transpose(), 1).transpose()
        assert np.array_equal(lhs.data, rhs.data)
        assert np.array_equal(lhs.sizes, rhs.sizes)


def test_rows_merge_independently():
    g = rand_grid(11, 5, 6, 2)
    perm = np.array([3, 0, 4, 1, 2])
    permuted = TokenGrid(5, 6, 2, g.data[perm], g.sizes[perm])
    merged_then_permuted = merge_width(g, 1)
    permuted_then_merged = merge_width(permuted, 1)
    assert np.array_equal(permuted_then_merged.data, merged_then_permuted.data[perm])


def test_constant_grid_merge_keeps_features():
    g = TokenGrid.from_data(np.tile(np.array([3.0, -1.0]), (4, 4, 1)))
    out = merge_step(g, 1)
    assert np.abs(out.data - np.array([3.0, -1.0])).max() < 1e-12
    assert out.sizes.sum() == 16


def test_merge_flat_destroys_rectangularity():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(16, 4))
    out, sizes = merge_flat(feats, np.ones(16), 3)
    assert out.shape[0] == 13
    assert sizes.sum() == 16


# -- similarity op counts -----------------------------------------------------

def test_1d_count_quadruples_when_n_doubles():
    assert similarity_op_count(128, "1d") == 4 * similarity_op_count(64, "1d")


def test_2d_count_hand_enumeration_on_2x2():
    # width pass: 2 rows x (1 A x 1 B) = 2; height pass on the reduced
    # 2x1 grid: 1 column x (1 A x 1 B) = 1
    assert similarity_op_count(4, "2d", m=1) == 3


def test_2d_requires_square_count():
    with pytest.raises(ShapeError):
        similarity_op_count(60, "2d")


def test_scaling_exponents():
    ns = np.array([64, 256, 1024, 4096])
    two_d = [similarity_op_count(n, "2d") for n in ns]
    one_d = [similarity_op_count(n, "1d") for n in ns]
    slope2d = np.polyfit(np.log(ns), np.log(two_d), 1)[0]
    slope1d = np.polyfit(np.log(ns), np.log(one_d), 1)[0]
    assert abs(slope2d - 1.5) <= 0.15
    assert abs(slope1d - 2.0) <= 0.1
    ratios = np.array(two_d) / ns ** 1.5
    assert ratios.max() / ratios.min() < 2.0


def test_count_model_matches_instrumented_lane_sizes():
    # what the matcher actually evaluates per lane is |A| * |B|
    for lane_len in (2, 3, 5, 8):
        a = (lane_len + 1) // 2
        b = lane_len // 2
        assert lane_match_ops(lane_len) == a * b
