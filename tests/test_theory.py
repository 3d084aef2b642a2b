import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokcomp.theory import (SmoothingTrace, dc_component, hc_component,
                            smoothing_trace)


def random_stochastic(rng, n):
    a = rng.uniform(0.05, 1.0, size=(n, n))
    return a / a.sum(axis=1, keepdims=True)


def test_dc_of_two_samples():
    assert dc_component(np.array([1.0, 3.0])).tolist() == [2.0, 2.0]


def test_dc_fixed_point_on_constants():
    z = np.full(5, 4.2)
    assert np.array_equal(dc_component(z), z)
    assert np.allclose(hc_component(z), 0, atol=1e-15)


def test_zero_mean_is_pure_hc():
    z = np.array([1.0, -1.0, 2.0, -2.0])
    assert np.allclose(hc_component(z), z, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_decomposition_identity_and_orthogonality(n, seed):
    z = np.random.default_rng(seed).normal(size=n)
    dc, hc = dc_component(z), hc_component(z)
    assert np.allclose(dc + hc, z, atol=1e-12)
    norm_sq = np.dot(z, z)
    assert np.dot(dc, dc) + np.dot(hc, hc) == pytest.approx(norm_sq, rel=1e-12)
    assert abs(np.dot(dc, hc)) < 1e-9 * max(1.0, norm_sq)


def test_uniform_attention_collapses_in_one_step():
    n = 16
    attn = np.full((n, n), 1.0 / n)
    z = np.random.default_rng(0).normal(size=n) + 1.0
    trace = smoothing_trace(attn, z, 3)
    assert trace.ratios[1] < 1e-12
    assert trace.ratios[2] < 1e-12


def test_identity_matrix_is_rejected():
    with pytest.raises(ValueError):
        smoothing_trace(np.eye(8), np.arange(8.0) + 1, 5)


def test_rows_must_be_stochastic():
    with pytest.raises(ValueError):
        smoothing_trace(np.full((4, 4), 0.3), np.ones(4), 5)


def test_nan_attention_is_rejected():
    attn = random_stochastic(np.random.default_rng(1), 5)
    attn[2, 3] = np.nan
    with pytest.raises(ValueError, match="strictly positive"):
        smoothing_trace(attn, np.arange(5.0) + 1, 3)


def test_zero_mean_input_rejected():
    attn = random_stochastic(np.random.default_rng(0), 6)
    with pytest.raises(ValueError):
        smoothing_trace(attn, np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]), 5)


def test_ratio_decays_for_positive_stochastic_matrices():
    rng = np.random.default_rng(42)
    attn = random_stochastic(rng, 64)
    z = rng.normal(size=64)
    z += 1.0 if abs(z.mean()) < 1e-6 else 0.0
    trace = smoothing_trace(attn, z, 50)
    assert trace.ratios[50] < 1e-6
    # eventually decreasing: once below the initial ratio it stays below
    below = np.nonzero(trace.ratios < trace.ratios[0])[0]
    assert below.size > 0
    assert np.all(trace.ratios[below[0]:] <= trace.ratios[0])


def test_trace_does_not_alias_its_input():
    ratios = np.array([1.0, 0.5])
    trace = SmoothingTrace(ratios, 1)
    ratios[0] = 99.0
    assert trace.ratios[0] == 1.0


def test_ratios_scale_invariant():
    rng = np.random.default_rng(3)
    attn = random_stochastic(rng, 12)
    z = rng.normal(size=12) + 0.5
    r1 = smoothing_trace(attn, z, 10).ratios
    r2 = smoothing_trace(attn, 7.5 * z, 10).ratios
    assert np.allclose(r1, r2, rtol=1e-9)
