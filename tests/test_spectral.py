import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import direct_dft, direct_idft, naive_filter_energies
from tokcomp import spectral
from tokcomp.errors import ShapeError
from tokcomp.spectral import (EnergyRanking, cutoff_from_ratio, dft_forward,
                              dft_inverse, make_filter, spectral_prune,
                              topk_ascending)
from tokcomp.tokens import ComplexSequence, TokenSequence


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
    assert np.allclose(f.data.real[:, 0], [4, 0, 0, 0], atol=1e-12)
    assert np.allclose(f.data.imag, 0, atol=1e-12)


def test_delta_has_flat_spectrum():
    f = dft_forward(seq_of([1, 0, 0, 0]))
    assert np.allclose(f.data.real[:, 0], [1, 1, 1, 1], atol=1e-12)


def test_pure_dc_inverts_to_constant():
    x = dft_inverse(dft_forward(seq_of([1, 1, 1, 1])))
    assert np.allclose(x.data.real[:, 0], 1.0, atol=1e-12)
    assert np.abs(x.data.imag).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 37, 64, 97, 128, 360])
def test_dft_matches_direct_summation(n):
    data = np.random.default_rng(n).normal(size=(n, 5))
    fast = dft_forward(TokenSequence.from_data(data)).data
    direct = direct_dft(data)
    scale = max(1.0, np.abs(direct).max())
    assert np.abs(fast - direct).max() / scale < 1e-9


def test_inverse_matches_direct():
    data = np.random.default_rng(9).normal(size=(41, 3)) + 1j * np.random.default_rng(10).normal(size=(41, 3))
    fast = dft_inverse(ComplexSequence(41, 3, data)).data
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
    assert np.abs(back.data.real - data).max() / scale < 1e-9
    assert np.abs(back.data.imag).max() / scale < 1e-9
    sig_energy = np.sum(data ** 2)
    bin_energy = np.sum(freq.data.real ** 2 + freq.data.imag ** 2) / n
    assert abs(sig_energy - bin_energy) / max(1.0, sig_energy) < 1e-9


def test_transforms_freeze_their_fresh_arrays_in_place(monkeypatch):
    data = np.random.default_rng(4).normal(size=(37, 5))
    want_freq = np.fft.fft(data, axis=0)
    want_filtered = want_freq * make_filter(37, 9)[:, None]
    want_back = np.fft.ifft(want_filtered, axis=0)
    fresh = []

    def recording(real):
        def call(*args, **kwargs):
            fresh.append(real(*args, **kwargs))
            return fresh[-1]
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    freq = dft_forward(TokenSequence.from_data(data))
    back = dft_inverse(ComplexSequence(37, 5, want_filtered))
    assert freq.data is fresh[0] and back.data is fresh[1]  # wrapped, not copied
    for got, want in ((freq, want_freq), (back, want_back)):
        assert (got.n, got.d) == (37, 5)
        assert got.data.dtype == np.complex128 and np.array_equal(got.data, want)
        with pytest.raises(ValueError):
            got.data[0, 0] = 0


def test_spectral_prune_runs_each_transform_once(monkeypatch):
    # the traced transforms are the ones the pipeline's prune runs
    calls = []

    def counting(name):
        real = getattr(spectral, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("dft_forward", "dft_inverse"):
        monkeypatch.setattr(spectral, name, counting(name))
    spectral_prune(rand_seq(6, 25, 4), 0.25, 12)
    assert sorted(calls) == ["dft_forward", "dft_inverse"]


def test_spectral_prune_holds_about_two_spectra():
    # the three spectra are wrapped, not copied, so the peak stays near the
    # filtered spectrum plus its inverse (one spectrum is n * d * 16 bytes)
    seq = rand_seq(12, 2304, 32)
    spectrum_bytes = 2304 * 32 * 16
    spectral_prune(seq, 0.25, 1152)
    tracemalloc.start()
    try:
        spectral_prune(seq, 0.25, 1152)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * spectrum_bytes


# -- filters ------------------------------------------------------------------

def test_filter_as_written_n5_full_pass():
    coeffs = make_filter(5, 4, "as-written")
    assert np.allclose(coeffs, [0.08, 0.54, 1.0, 0.54, 0.08], atol=1e-12)


def test_filter_as_written_dc_only():
    coeffs = make_filter(8, 0, "as-written")
    assert np.allclose(coeffs, [0.08, 0, 0, 0, 0, 0, 0, 0], atol=1e-12)


def test_filter_symmetric_mirrors_and_bounded():
    coeffs = make_filter(8, 2, "symmetric")
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


def test_filter_is_read_only():
    coeffs = make_filter(8, 2, "symmetric")
    assert coeffs.shape == (8,)
    with pytest.raises(ValueError):
        coeffs[0] = 0.5


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 64), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_filtering_contracts_energy(n, d, seed, symmetric):
    # masks lie in [0, 1], so by Parseval the filtered signal holds no more
    # energy than the tokens themselves
    seq = rand_seq(seed, n, d)
    _, ranking = spectral_prune(seq, 0.5, n, "symmetric" if symmetric else "as-written")
    before = np.sum(seq.data ** 2)
    assert np.sum(ranking.energies ** 2) <= before * (1 + 1e-12) + 1e-12


def test_symmetric_mode_keeps_real_input_real():
    seq = rand_seq(5, 24, 4)
    filt = make_filter(24, 5, "symmetric")
    filtered = dft_inverse(ComplexSequence(24, 4, dft_forward(seq).data * filt[:, None]))
    scale = max(1.0, np.abs(seq.data).max())
    assert np.abs(filtered.data.imag).max() / scale < 1e-9


# -- energy and pruning -------------------------------------------------------

def test_constant_tokens_have_equal_energy():
    data = np.tile(np.array([2.0, -1.0, 0.5]), (9, 1))
    assert cutoff_from_ratio(9, 0.3) == 2
    _, ranking = spectral_prune(TokenSequence.from_data(data), 0.3, 9, "symmetric")
    naive = naive_filter_energies(data, make_filter(9, 2, "symmetric"))
    assert np.allclose(ranking.energies, ranking.energies[0], atol=1e-12)
    assert np.abs(ranking.energies - naive).max() < 1e-9


def test_zero_input_zero_energy():
    data = np.zeros((6, 2))
    assert cutoff_from_ratio(6, 0.25) == 1
    _, ranking = spectral_prune(TokenSequence.from_data(data), 0.25, 3)
    assert np.array_equal(ranking.energies, np.zeros(6))
    assert np.array_equal(naive_filter_energies(data, make_filter(6, 1, "as-written")), np.zeros(6))


@pytest.mark.parametrize("mode", ["as-written", "symmetric"])
@pytest.mark.parametrize("n,d", [(11, 3), (16, 1), (40, 6)])
def test_energies_match_naive_pipeline(mode, n, d):
    seq = rand_seq(n * 100 + d, n, d)
    _, ranking = spectral_prune(seq, 0.25, n // 2, mode)
    naive = naive_filter_energies(seq.data, make_filter(n, cutoff_from_ratio(n, 0.25), mode))
    assert np.abs(ranking.energies - naive).max() < 1e-9


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
    naive = naive_filter_energies(seq.data, filt)
    assert naive[:8].min() > naive[8:].max()
