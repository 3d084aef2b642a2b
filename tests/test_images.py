import numpy as np
import pytest

from oracles import naive_dct2
from tokcomp.errors import FormatError, ShapeError
from tokcomp.images import (FEATURE_MODES, emit_energy_heatmap, featurize_image,
                            normalize_heat, parse_image, read_image, write_pgm,
                            zigzag_indices)
from tokcomp.spectral import EnergyRanking


def checker(h, w):
    return ((np.indices((h, w)).sum(axis=0) % 2) * 255).astype(np.uint8)


# -- netpbm -------------------------------------------------------------------

def test_pgm_write_read_round_trip(tmp_path):
    img = checker(5, 7)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_image(path), img)


def test_parse_ascii_pgm_with_comments():
    blob = b"P2\n# a comment\n3 2\n# another\n255\n0 10 20\n30 40 50\n"
    img = parse_image(blob)
    assert img.tolist() == [[0, 10, 20], [30, 40, 50]]


def test_parse_binary_ppm():
    blob = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
    img = parse_image(blob)
    assert img.shape == (1, 2, 3)
    assert img[0, 0].tolist() == [255, 0, 0]


def test_parse_ascii_ppm():
    blob = b"P3\n1 2\n9\n1 2 3 4 5 6\n"
    assert parse_image(blob).shape == (2, 1, 3)


@pytest.mark.parametrize("blob", [
    b"",
    b"P5",
    b"P7\n2 2\n255\n" + bytes(4),
    b"P5\n2 2\n255\n" + bytes(3),          # short payload
    b"P5\n2 2\n255\n" + bytes(5),          # long payload
    b"P5\n2 2\n70000\n" + bytes(4),        # maxval too large
    b"P5\n0 2\n255\n",                     # zero dim
    b"P2\n2 1\n255\n12 999\n",             # sample exceeds maxval
    b"P2\n2 1\n255\n12\n",                 # missing sample
    b"P5\n2 2\n255",                       # no separator / data
])
def test_parse_rejects_malformed(blob):
    with pytest.raises(FormatError):
        parse_image(blob)


def test_write_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "bad.pgm", np.array([[300.0]]))


# -- featurizer ---------------------------------------------------------------

def test_raw_featurizer_shape():
    img = np.zeros((32, 32), dtype=np.uint8)
    grid = featurize_image(img, 16, "raw")
    assert (grid.h, grid.w, grid.d) == (2, 2, 256)


def test_featurizer_center_crops():
    img = np.zeros((35, 18), dtype=np.uint8)
    grid = featurize_image(img, 16, "raw")
    assert (grid.h, grid.w) == (2, 1)


def test_featurizer_rejects_tiny_images():
    with pytest.raises(ShapeError):
        featurize_image(np.zeros((8, 8)), 16)


def test_raw_features_are_block_pixels():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    grid = featurize_image(img, 2, "raw")
    assert grid.data[0, 0].tolist() == [0, 1, 4, 5]
    assert grid.data[1, 1].tolist() == [10, 11, 14, 15]


def test_constant_image_dct_is_dc_only():
    img = np.full((16, 16), 40, dtype=np.uint8)
    grid = featurize_image(img, 8, "dct")
    assert np.allclose(grid.data[:, :, 0], 40 * 8, atol=1e-9)  # sqrt(1/64)*sum
    assert np.abs(grid.data[:, :, 1:]).max() < 1e-9


def test_dct_matches_naive_double_loop():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    grid = featurize_image(img, 8, "dct")
    zz = zigzag_indices(8)
    expected = naive_dct2(img.astype(float)).reshape(-1)[zz]
    assert np.abs(grid.data[0, 0] - expected).max() < 1e-9


def test_color_dct_keeps_channels_separate():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
    grid = featurize_image(img, 4, "dct")
    assert grid.d == 48
    expected0 = naive_dct2(img[:, :, 0].astype(float)).reshape(-1)[zigzag_indices(4)]
    assert np.abs(grid.data[0, 0, :16] - expected0).max() < 1e-9


def test_zigzag_is_a_permutation_starting_at_dc():
    zz = zigzag_indices(4)
    assert sorted(zz.tolist()) == list(range(16))
    assert zz[:4].tolist() == [0, 1, 4, 8]  # (0,0) (0,1) (1,0) (2,0)


def test_feature_modes_constant():
    assert FEATURE_MODES == ("raw", "dct")


# -- heatmaps -----------------------------------------------------------------

def test_normalize_constant_maps_to_half():
    assert np.all(normalize_heat(np.full((3, 3), 9.0)) == 0.5)


def test_normalize_minmax():
    out = normalize_heat(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert out.tolist() == [[0, 1], [1, 0]]


def test_emit_uniform_heatmap(tmp_path):
    ranking = EnergyRanking(np.full(4, 3.3), np.array([0, 1]))
    heat = emit_energy_heatmap(2, 2, ranking, tmp_path / "h.pgm")
    assert np.array_equal(read_image(tmp_path / "h.pgm"), heat)
    assert heat.dtype == np.uint8 and np.all(heat == 128)  # rint(0.5 * 255)


def test_emit_minmax_heatmap_and_mask(tmp_path):
    ranking = EnergyRanking(np.array([0.0, 1.0, 1.0, 0.0]), np.array([1, 2]))
    emit_energy_heatmap(2, 2, ranking, tmp_path / "h.pgm", tmp_path / "m.pgm")
    assert read_image(tmp_path / "h.pgm").reshape(-1).tolist() == [0, 255, 255, 0]
    assert read_image(tmp_path / "m.pgm").reshape(-1).tolist() == [0, 255, 255, 0]


def test_heatmap_round_trips_normalized_values(tmp_path):
    rng = np.random.default_rng(2)
    energies = rng.uniform(0, 10, size=12)
    ranking = EnergyRanking(energies, np.arange(6))
    heat = emit_energy_heatmap(3, 4, ranking, tmp_path / "h.pgm")
    assert heat.shape == (3, 4) and heat.dtype == np.uint8
    assert np.array_equal(read_image(tmp_path / "h.pgm"), heat)
    values = normalize_heat(energies.reshape(3, 4))
    assert np.abs(heat / 255 - values).max() <= 0.5 / 255 + 1e-12


def test_heatmap_size_mismatch(tmp_path):
    ranking = EnergyRanking(np.ones(5), np.array([0]))
    with pytest.raises(ShapeError):
        emit_energy_heatmap(2, 2, ranking, tmp_path / "h.pgm")
