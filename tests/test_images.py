import tracemalloc

import numpy as np
import pytest

from oracles import naive_dct2, naive_zigzag
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
    b"P5\n2 1\n100\n" + bytes([50, 200]),  # binary sample exceeds maxval
    b"P2\n2 1\n255\n12\n",                 # missing sample
    b"P5\n2 2\n255",                       # no separator / data
])
def test_parse_rejects_malformed(blob):
    with pytest.raises(FormatError):
        parse_image(blob)


@pytest.mark.parametrize("magic,shape", [(b"P5", (1024, 1024)), (b"P6", (512, 512, 3))])
def test_binary_images_parse_in_about_their_own_size(magic, shape):
    # widening the samples to int64 to check them took 10x the image bytes
    img = np.random.default_rng(7).integers(0, 256, size=shape, dtype=np.uint8)
    blob = magic + b"\n%d %d\n255\n" % (shape[1], shape[0]) + img.tobytes()
    tracemalloc.start()
    try:
        got = parse_image(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.uint8 and np.array_equal(got, img)
    assert peak < 2 * img.nbytes, peak / img.nbytes


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
    # every block and channel, incl. a center crop (21x19 -> 20x16), against
    # the loop oracle in zig-zag order
    rng = np.random.default_rng(0)
    for shape, patch in (((8, 8), 8), ((21, 19, 3), 4), ((24, 16), 8)):
        img = rng.integers(0, 256, size=shape).astype(np.uint8)
        grid = featurize_image(img, patch, "dct")
        rows, cols = shape[0] // patch * patch, shape[1] // patch * patch
        r0, c0 = (shape[0] - rows) // 2, (shape[1] - cols) // 2
        crop = img.astype(float).reshape(shape[0], shape[1], -1)[r0:r0 + rows, c0:c0 + cols]
        chans = crop.shape[2]
        zz = zigzag_indices(patch)
        assert (grid.h, grid.w, grid.d) == (rows // patch, cols // patch, chans * patch * patch)
        for i in range(grid.h):
            for j in range(grid.w):
                block = crop[i * patch:(i + 1) * patch, j * patch:(j + 1) * patch]
                expected = np.concatenate([naive_dct2(block[:, :, ch]).reshape(-1)[zz]
                                           for ch in range(chans)])
                assert np.abs(grid.data[i, j] - expected).max() < 1e-9, (shape, i, j)


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
    # (0,0) (0,1) (1,0) (2,0) (1,1) (0,2) (0,3) ... (3,3): the JPEG walk
    assert zz.tolist() == [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15]
    for p in range(1, 40):
        assert zigzag_indices(p).tolist() == naive_zigzag(p), p


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
