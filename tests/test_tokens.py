import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcomp
from oracles import write_grid_json
from tokcomp.errors import FormatError, ShapeError
from tokcomp.images import load_grid, write_pgm
from tokcomp.tokens import (ComplexSequence, TokenGrid, TokenSequence,
                            concat_tokens, grid_from_sequence,
                            parse_luvc1, read_bytes, read_luvc1,
                            sequence_from_grid, write_luvc1)


def seq_of(values, d=1):
    return TokenSequence.from_data(np.asarray(values, dtype=float).reshape(-1, d))


def test_grid_from_sequence_row_major():
    g = grid_from_sequence(seq_of([1, 2, 3, 4]), 2, 2)
    assert g.data[:, :, 0].tolist() == [[1, 2], [3, 4]]
    assert g.sizes.tolist() == [[1, 1], [1, 1]]


def test_grid_from_sequence_shape_mismatch():
    with pytest.raises(ShapeError):
        grid_from_sequence(seq_of([1, 2, 3, 4, 5, 6]), 2, 2)


def test_sequence_from_grid_flattens():
    g = TokenGrid.from_data(np.array([[1, 2], [3, 4]], dtype=float)[:, :, None])
    s = sequence_from_grid(g)
    assert s.data[:, 0].tolist() == [1, 2, 3, 4]
    assert s.positions.tolist() == [0, 1, 2, 3]


def test_sequence_from_single_token_grid():
    g = TokenGrid.from_data(np.full((1, 1, 3), 7.0))
    s = sequence_from_grid(g)
    assert s.n == 1 and s.d == 3


def test_concat_lengths_and_empty_identity():
    a, b = seq_of([1, 2]), seq_of([3, 4, 5])
    c = concat_tokens(a, b)
    assert c.n == 5
    assert c.positions.tolist() == [0, 1, 2, 3, 4]
    empty = TokenSequence.from_data(np.zeros((0, 1)))
    same = concat_tokens(empty, a)
    assert same.n == a.n and np.array_equal(same.data, a.data)


def test_concat_dim_mismatch():
    with pytest.raises(ShapeError):
        concat_tokens(seq_of([1, 2]), seq_of([1, 2], d=2))


def test_concat_offsets_past_original_length():
    a = TokenSequence(2, 1, np.array([[1.0], [2.0]]), np.array([0, 3]), 8)
    b = seq_of([9, 9])
    c = concat_tokens(a, b)
    assert c.positions.tolist() == [0, 3, 8, 9]
    assert c.orig_len == 10


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_reshape_round_trip_bit_exact(h, w, d, seed):
    data = np.random.default_rng(seed).normal(size=(h * w, d))
    seq = TokenSequence.from_data(data)
    back = sequence_from_grid(grid_from_sequence(seq, h, w))
    assert np.array_equal(back.data, data)
    assert back.positions.tolist() == list(range(h * w))


def test_round_trip_3x5x7():
    data = np.random.default_rng(42).normal(size=(15, 7))
    seq = TokenSequence.from_data(data)
    assert np.array_equal(sequence_from_grid(grid_from_sequence(seq, 3, 5)).data, data)


def test_positions_must_increase():
    with pytest.raises(ShapeError):
        TokenSequence(2, 1, np.zeros((2, 1)), np.array([3, 1]), 5)


def test_sizes_must_be_integral():
    with pytest.raises(ShapeError):
        TokenGrid(1, 2, 1, np.zeros((1, 2, 1)), np.array([[1.0, 1.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_containers_reject_non_finite_values(bad):
    data = np.ones((2, 2, 1))
    data[1, 0, 0] = bad
    with pytest.raises(ShapeError):
        TokenGrid.from_data(data)
    with pytest.raises(ShapeError):
        TokenGrid(2, 2, 1, np.ones((2, 2, 1)), np.array([[1, 1], [bad, 1]]))
    with pytest.raises(ShapeError):
        TokenSequence.from_data(data.reshape(4, 1))


def test_containers_are_immutable():
    g = TokenGrid.from_data(np.zeros((2, 2, 1)))
    with pytest.raises(ValueError):
        g.data[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        g.transpose().sizes[0, 0] = 2.0
    s = seq_of([1, 2])
    with pytest.raises(ValueError):
        s.data[0, 0] = 5.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grids_do_not_alias_their_inputs(dtype):
    data, sizes = np.ones((2, 2, 1), dtype), np.ones((2, 2), dtype)
    g = TokenGrid(2, 2, 1, data, sizes)
    data[:] = 7
    sizes[:] = 7
    assert np.all(g.data == 1) and np.all(g.sizes == 1)


def test_complex_sequence_is_a_read_only_copy_that_fits_n_by_d():
    z = np.random.default_rng(1).normal(size=(4, 3)) + 1j
    c = ComplexSequence(4, 3, z)
    assert c.data.dtype == np.complex128 and np.array_equal(c.data, z)
    z[0, 0] = 99.0
    assert c.data[0, 0] != 99.0
    with pytest.raises(ValueError):
        c.data[0, 0] = 0
    for n, d in ((4, 4), (3, 3), (5, 3), (-1, 3), (4, 0)):
        with pytest.raises(ShapeError):
            ComplexSequence(n, d, z)


# -- LUVC1 and JSON grids ----------------------------------------------------

def test_luvc1_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = TokenGrid(2, 3, 4, rng.normal(size=(2, 3, 4)).astype(np.float32).astype(float),
                     np.array([[1, 2, 1], [1, 1, 3]], dtype=float))
    path = tmp_path / "g.luvc"
    write_luvc1(grid, path)
    back = read_luvc1(path)
    assert (back.h, back.w, back.d) == (2, 3, 4)
    assert np.array_equal(back.data, grid.data)
    assert np.array_equal(back.sizes, grid.sizes)


def test_luvc1_rewrite_over_a_longer_file(tmp_path):
    path = tmp_path / "g.luvc"
    write_luvc1(TokenGrid.from_data(np.full((4, 4, 3), 2.0)), path)
    small = TokenGrid.from_data(np.arange(6.0).reshape(1, 2, 3))
    write_luvc1(small, path)
    assert path.stat().st_size == 17 + 4 * 6 + 4 * 2
    assert np.array_equal(read_luvc1(path).data, small.data)


def test_luvc1_write_refuses_float32_overflow(tmp_path):
    path = tmp_path / "g.luvc"
    path.write_bytes(b"old contents")
    for data, sizes in ((np.full((1, 2, 1), 1e39), None), (np.ones((1, 1, 1)), np.array([[1e39]]))):
        with pytest.raises(FormatError):
            write_luvc1(TokenGrid.from_data(data, sizes), path)
    assert path.read_bytes() == b"old contents"


def test_luvc1_empty_grid_round_trip(tmp_path):
    empty = TokenGrid(0, 0, 3, np.zeros((0, 0, 3)), np.zeros((0, 0)))
    path = tmp_path / "empty.luvc"
    write_luvc1(empty, path)
    back = read_luvc1(path)
    assert (back.h, back.w, back.d) == (0, 0, 3)
    assert back.n_tokens == 0


def test_luvc1_rejects_truncation(tmp_path):
    grid = TokenGrid.from_data(np.ones((2, 2, 2)))
    path = tmp_path / "g.luvc"
    write_luvc1(grid, path)
    blob = path.read_bytes()
    for cut in (0, 3, 16, len(blob) - 1):
        with pytest.raises(FormatError):
            parse_luvc1(blob[:cut])


def test_luvc1_rejects_bad_magic_and_version():
    with pytest.raises(FormatError):
        parse_luvc1(b"NOPE" + bytes(20))
    with pytest.raises(FormatError):
        parse_luvc1(b"LUVC\x02" + bytes(20))


def test_grid_json_round_trip(tmp_path):
    grid = TokenGrid.from_data(np.arange(8, dtype=float).reshape(2, 2, 2))
    path = tmp_path / "g.json"
    write_grid_json(grid, path)
    back = load_grid(path)
    assert np.array_equal(back.data, grid.data) and back.h == 2


def test_grid_json_rejects_undecodable_and_non_finite(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"schema": 1, "h": 1, "w": 1, "d": 1, "data": [\xff], "sizes": [1]}')
    with pytest.raises(FormatError):
        load_grid(path)
    for data, sizes in (("NaN", "1"), ("Infinity", "1"), ("1", "NaN"), ("1", "Infinity"),
                        ("1e999", "1"), ("1", "-1e999")):
        path.write_text(f'{{"schema": 1, "h": 1, "w": 1, "d": 1, '
                        f'"data": [{data}], "sizes": [{sizes}]}}')
        with pytest.raises(FormatError):
            load_grid(path)
    path.write_text("[" * 50_000 + "]" * 50_000)
    with pytest.raises(FormatError):
        load_grid(path)
    # counts are integers, never truncated: "h": 1.9 is not h = 1
    for key, value in (("h", "1.9"), ("w", "1.0"), ("d", '"1"')):
        dims = {"h": "1", "w": "1", "d": "1", key: value}
        path.write_text(f'{{"schema": 1, "h": {dims["h"]}, "w": {dims["w"]}, '
                        f'"d": {dims["d"]}, "data": [1], "sizes": [1]}}')
        with pytest.raises(FormatError):
            load_grid(path)


def test_load_grid_dispatches_on_magic(tmp_path):
    grid = TokenGrid.from_data(np.ones((1, 2, 1)))
    bpath, jpath, ipath = tmp_path / "b.luvc", tmp_path / "g.json", tmp_path / "i.pgm"
    write_luvc1(grid, bpath)
    write_grid_json(grid, jpath)
    write_pgm(ipath, np.full((4, 8), 7, dtype=np.uint8))
    assert load_grid(bpath).w == 2 and load_grid(jpath).w == 2
    image_grid = tokcomp.load_grid(ipath, 4)
    assert (image_grid.h, image_grid.w, image_grid.d) == (1, 2, 16)
    assert np.all(image_grid.data == 7)


def test_read_bytes_returns_every_byte(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    assert read_bytes(path) == b""
    # a stream of several chunks, fed by a thread past the pipe's buffer
    blob = np.random.default_rng(5).bytes(300_000)
    r, w = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(w, blob), os.close(w)))
    writer.start()
    try:
        assert read_bytes(f"/dev/fd/{r}") == blob
    finally:
        os.close(r)
        writer.join()
