import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import direct_dft, direct_idft, naive_filter_energies
from tokcomp.errors import ShapeError
from tokcomp.spectral import (EnergyRanking, apply_filter, cutoff_from_ratio,
                              dft_forward, dft_inverse, make_filter,
                              spectral_prune, token_energy, topk_ascending)
from tokcomp.tokens import TokenSequence


def seq_of(data):
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    return TokenSequence.from_data(data)


def rand_seq(seed, n, d):
    return TokenSequence.from_data(np.random.default_rng(seed).normal(size=(n, d)))


# -- transforms ---------------------------------------------------------------

def test_constant_signal_is_pure_dc():
    f = dft_forward(seq_of([1, 1, 1, 1]))
    assert np.allclose(f.re[:, 0], [4, 0, 0, 0], atol=1e-12)
    assert np.allclose(f.im, 0, atol=1e-12)


def test_delta_has_flat_spectrum():
    f = dft_forward(seq_of([1, 0, 0, 0]))
    assert np.allclose(f.re[:, 0], [1, 1, 1, 1], atol=1e-12)


def test_pure_dc_inverts_to_constant():
    x = dft_inverse(dft_forward(seq_of([1, 1, 1, 1])))
    assert np.allclose(x.re[:, 0], 1.0, atol=1e-12)
    assert np.abs(x.im).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 37, 64, 97, 128, 360])
def test_dft_matches_direct_summation(n):
    data = np.random.default_rng(n).normal(size=(n, 5))
    fast = dft_forward(TokenSequence.from_data(data)).as_complex()
    direct = direct_dft(data)
    scale = max(1.0, np.abs(direct).max())
    assert np.abs(fast - direct).max() / scale < 1e-9


def test_inverse_matches_direct():
    data = np.random.default_rng(9).normal(size=(41, 3)) + 1j * np.random.default_rng(10).normal(size=(41, 3))
    from tokcomp.tokens import ComplexSequence
    fast = dft_inverse(ComplexSequence.from_complex(data)).as_complex()
    direct = direct_idft(data)
    assert np.abs(fast - direct).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_round_trip_and_parseval(n, d, seed):
    data = np.random.default_rng(seed).normal(size=(n, d))
    seq = TokenSequence.from_data(data)
    freq = dft_forward(seq)
    back = dft_inverse(freq)
    scale = max(1.0, np.abs(data).max())
    assert np.abs(back.re - data).max() / scale < 1e-9
    assert np.abs(back.im).max() / scale < 1e-9
    sig_energy = np.sum(data ** 2)
    bin_energy = np.sum(freq.re ** 2 + freq.im ** 2) / n
    assert abs(sig_energy - bin_energy) / max(1.0, sig_energy) < 1e-9


# -- filters ------------------------------------------------------------------

def test_filter_as_written_n5_full_pass():
    coeffs = make_filter(5, 4, "as-written").coeffs
    assert np.allclose(coeffs, [0.08, 0.54, 1.0, 0.54, 0.08], atol=1e-12)


def test_filter_as_written_dc_only():
    coeffs = make_filter(8, 0, "as-written").coeffs
    assert np.allclose(coeffs, [0.08, 0, 0, 0, 0, 0, 0, 0], atol=1e-12)


def test_filter_symmetric_mirrors_and_bounded():
    coeffs = make_filter(8, 2, "symmetric").coeffs
    for k in range(1, 8):
        assert coeffs[k] == pytest.approx(coeffs[8 - k], abs=0)
    assert coeffs[0] == 1.0
    assert np.all(coeffs >= 0) and np.all(coeffs <= 1)
    assert np.all(coeffs[3:6] == 0)


def test_filter_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        make_filter(4, 4, "as-written")
    with pytest.raises(ValueError):
        make_filter(4, -1, "as-written")


def test_cutoff_from_ratio():
    assert cutoff_from_ratio(16, 0.25) == 3
    assert cutoff_from_ratio(16, 1.0) == 15
    assert cutoff_from_ratio(3, 0.01) == 0
    with pytest.raises(ValueError):
        cutoff_from_ratio(16, 0.0)


def test_apply_filter_identity_and_zero():
    from tokcomp.spectral import SpectrumFilter
    freq = dft_forward(rand_seq(0, 12, 3))
    same = apply_filter(freq, SpectrumFilter(12, 11, "as-written", np.ones(12)))
    assert np.array_equal(same.re, freq.re) and np.array_equal(same.im, freq.im)
    gone = apply_filter(freq, SpectrumFilter(12, 0, "as-written", np.zeros(12)))
    assert not gone.re.any() and not gone.im.any()


def test_apply_filter_length_mismatch():
    freq = dft_forward(rand_seq(0, 6, 1))
    with pytest.raises(ShapeError):
        apply_filter(freq, make_filter(8, 2, "as-written"))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 64), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_filtering_contracts_energy(n, d, seed, symmetric):
    seq = rand_seq(seed, n, d)
    freq = dft_forward(seq)
    filt = make_filter(n, n // 2, "symmetric" if symmetric else "as-written")
    out = apply_filter(freq, filt)
    before = np.sum(freq.re ** 2 + freq.im ** 2, axis=0)
    after = np.sum(out.re ** 2 + out.im ** 2, axis=0)
    assert np.all(after <= before + 1e-12)


def test_symmetric_mode_keeps_real_input_real():
    seq = rand_seq(5, 24, 4)
    filt = make_filter(24, 5, "symmetric")
    filtered = dft_inverse(apply_filter(dft_forward(seq), filt))
    scale = max(1.0, np.abs(seq.data).max())
    assert np.abs(filtered.im).max() / scale < 1e-9


# -- energy and pruning -------------------------------------------------------

def test_constant_tokens_have_equal_energy():
    data = np.tile(np.array([2.0, -1.0, 0.5]), (9, 1))
    seq = TokenSequence.from_data(data)
    filt = make_filter(9, 2, "symmetric")
    e = token_energy(dft_inverse(apply_filter(dft_forward(seq), filt)))
    assert np.allclose(e, e[0], atol=1e-12)


def test_zero_input_zero_energy():
    seq = TokenSequence.from_data(np.zeros((6, 2)))
    filt = make_filter(6, 1, "as-written")
    e = token_energy(dft_inverse(apply_filter(dft_forward(seq), filt)))
    assert np.array_equal(e, np.zeros(6))


@pytest.mark.parametrize("mode", ["as-written", "symmetric"])
@pytest.mark.parametrize("n,d", [(11, 3), (16, 1), (40, 6)])
def test_energies_match_naive_pipeline(mode, n, d):
    seq = rand_seq(n * 100 + d, n, d)
    sigma = cutoff_from_ratio(n, 0.25)
    filt = make_filter(n, sigma, mode)
    fast = token_energy(dft_inverse(apply_filter(dft_forward(seq), filt)))
    naive = naive_filter_energies(seq.data, filt.coeffs)
    assert np.abs(fast - naive).max() < 1e-9


def test_topk_selection_order():
    assert topk_ascending(np.array([3.0, 1.0, 4.0, 2.0]), 2).tolist() == [0, 2]


def test_ranking_does_not_alias_its_inputs():
    energies, kept = np.array([0.5, 0.25, 0.125]), np.array([0, 2])
    ranking = EnergyRanking(energies, kept)
    energies[0], kept[0] = 99.0, 1
    assert ranking.energies[0] == 0.5 and ranking.kept[0] == 0


def test_prune_keep_all_is_identity():
    seq = rand_seq(2, 13, 4)
    pruned, ranking = spectral_prune(seq, 0.25, 13)
    assert np.array_equal(pruned.data, seq.data)
    assert np.array_equal(pruned.positions, seq.positions)
    assert ranking.kept.tolist() == list(range(13))


def test_prune_keep_zero_empties():
    pruned, ranking = spectral_prune(rand_seq(3, 9, 2), 0.25, 0)
    assert pruned.n == 0 and ranking.kept.size == 0


def test_prune_rejects_keep_above_n():
    with pytest.raises(ShapeError):
        spectral_prune(rand_seq(0, 4, 1), 0.25, 5)


def test_prune_tie_break_keeps_lowest_indices():
    # identical tokens: every energy ties, so the lowest indices win
    data = np.tile(np.array([1.0, 2.0]), (8, 1))
    _, ranking = spectral_prune(TokenSequence.from_data(data), 0.5, 3)
    assert ranking.kept.tolist() == [0, 1, 2]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.data())
def test_prune_positions_are_increasing_subsets(n, d, seed, data):
    keep = data.draw(st.integers(0, n))
    seq = rand_seq(seed, n, d)
    pruned, ranking = spectral_prune(seq, 0.25, keep)
    assert pruned.n == keep
    assert set(pruned.positions.tolist()) <= set(seq.positions.tolist())
    if keep > 1:
        assert np.all(np.diff(pruned.positions) > 0)
    assert np.array_equal(seq.data[ranking.kept], pruned.data)


SMOOTH_RAMP = 12.0 + 0.25 * np.arange(8.0)
OSCILLATION = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def smooth_vs_oscillation_sequence():
    return seq_of(np.concatenate([SMOOTH_RAMP, OSCILLATION]))


def test_low_pass_energy_concentrates_on_smooth_half():
    seq = smooth_vs_oscillation_sequence()
    pruned, ranking = spectral_prune(seq, 0.25, 8, "symmetric")
    assert ranking.kept.tolist() == list(range(8))
    assert pruned.positions.tolist() == list(range(8))
    # verify through the naive pipeline that this is a property of the
    # signal, not of the fast transform path
    filt = make_filter(16, cutoff_from_ratio(16, 0.25), "symmetric")
    naive = naive_filter_energies(seq.data, filt.coeffs)
    assert naive[:8].min() > naive[8:].max()
