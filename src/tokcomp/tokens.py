"""Dense token containers and the shape algebra shared by every other module.

Three value types:

* ``TokenGrid``     -- 2D spatial token field (h, w, d) with per-token merged
                       sizes.  Row-major everywhere so heatmaps line up with
                       image patch order.
* ``TokenSequence`` -- flat token list (n, d) with original-position
                       provenance.
* ``ComplexSequence`` -- frequency-domain twin of TokenSequence: one (n, d)
                         complex128 array.

Containers are immutable after construction (arrays are copied in and marked
read-only), and the token containers hold finite values only; every
operation here is a pure function returning a new value.  The private
``_adopt`` constructors of ``TokenGrid`` and ``ComplexSequence`` wrap arrays
that no one else holds (a merge pass's output, a fresh np.fft result):
they freeze them in place without the copy and the checks.

Serialization: the LUVC1 binary grid format, written and read, and a JSON
alternative for tiny fixtures, read only.  Every input is read through
``read_bytes``, which refuses more than ``BYTE_BUDGET`` bytes.  Byte layouts
are documented in docs/formats.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import stat
import struct
from dataclasses import dataclass, field
from operator import index

import numpy as np

from .errors import FormatError, ShapeError

LUVC1_MAGIC = b"LUVC"
LUVC1_VERSION = 1

# The most bytes one input may hold, and one attention score block may take.
BYTE_BUDGET = 1 << 28


def strict_index(value) -> int:
    """operator.index(value), refusing bool: a JSON true is not a count."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return index(value)


def _frozen(a: np.ndarray, source) -> np.ndarray:
    """Read-only copy of `a`, the float/int conversion of `source`; a
    conversion that already copied an array is frozen without a second copy."""
    if not isinstance(source, np.ndarray) or np.may_share_memory(a, source):
        a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TokenGrid:
    """h x w tokens of dimension d, plus merged-token sizes.

    ``sizes[i, j]`` counts how many original tokens were merged into token
    (i, j); it is stored as float but must be integral and >= 1.  The sum of
    sizes is conserved by every merge operation.  Zero-token grids (h*w == 0)
    are allowed: they model complete elimination.
    """

    h: int
    w: int
    d: int
    data: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.h < 0 or self.w < 0 or self.d < 1:
            raise ShapeError(f"bad grid dims h={self.h} w={self.w} d={self.d}")
        try:
            data = np.asarray(self.data, dtype=np.float64).reshape(self.h, self.w, self.d)
            sizes = np.asarray(self.sizes, dtype=np.float64).reshape(self.h, self.w)
        except ValueError as e:
            raise ShapeError(f"grid data/sizes do not tile {self.h}x{self.w}x{self.d}: {e}") from e
        if not (np.isfinite(data).all() and np.isfinite(sizes).all()):
            raise ShapeError("grid data/sizes hold non-finite values")
        if np.any(sizes < 1) or np.any(sizes != np.round(sizes)):
            raise ShapeError("sizes must be integral and >= 1")
        object.__setattr__(self, "data", _frozen(data, self.data))
        object.__setattr__(self, "sizes", _frozen(sizes, self.sizes))

    @classmethod
    def from_data(cls, data: np.ndarray, sizes: np.ndarray | None = None) -> "TokenGrid":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise ShapeError(f"grid data must be (h, w, d), got shape {data.shape}")
        h, w, d = data.shape
        if sizes is None:
            sizes = np.ones((h, w))
        return cls(h, w, d, data, sizes)

    @property
    def n_tokens(self) -> int:
        return self.h * self.w

    @classmethod
    def _adopt(cls, data: np.ndarray, sizes: np.ndarray) -> "TokenGrid":
        """Wrap arrays no one else holds, made from a valid grid: frozen in
        place, neither copied nor re-checked."""
        grid = object.__new__(cls)
        h, w, d = data.shape
        for name, value in (("h", h), ("w", w), ("d", d), ("data", data), ("sizes", sizes)):
            object.__setattr__(grid, name, value)
        data.flags.writeable = sizes.flags.writeable = False
        return grid

    def transpose(self) -> "TokenGrid":
        return TokenGrid._adopt(self.data.transpose(1, 0, 2), self.sizes.T)


@dataclass(frozen=True)
class TokenSequence:
    """n tokens of dimension d with strictly increasing original indices.

    ``positions[i]`` is token i's index in the sequence it was selected from;
    ``orig_len`` is that sequence's length, kept so concatenation can offset
    positions correctly even after pruning.
    """

    n: int
    d: int
    data: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    orig_len: int = -1  # -1 means "defaults to n"

    def __post_init__(self):
        if self.n < 0 or self.d < 1:
            raise ShapeError(f"bad sequence dims n={self.n} d={self.d}")
        try:
            data = np.asarray(self.data, dtype=np.float64).reshape(self.n, self.d)
            positions = np.asarray(self.positions, dtype=np.int64).reshape(self.n)
        except ValueError as e:
            raise ShapeError(f"sequence data/positions do not fit n={self.n} d={self.d}: {e}") from e
        if not np.isfinite(data).all():
            raise ShapeError("sequence data holds non-finite values")
        orig_len = self.orig_len if self.orig_len >= 0 else self.n
        if self.n > 0:
            if np.any(np.diff(positions) <= 0):
                raise ShapeError("positions must be strictly increasing")
            if positions[0] < 0 or positions[-1] >= orig_len:
                raise ShapeError("positions out of range for original length")
        object.__setattr__(self, "data", _frozen(data, self.data))
        object.__setattr__(self, "positions", _frozen(positions, self.positions))
        object.__setattr__(self, "orig_len", orig_len)

    @classmethod
    def from_data(cls, data: np.ndarray, positions: np.ndarray | None = None,
                  orig_len: int = -1) -> "TokenSequence":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError(f"sequence data must be (n, d), got shape {data.shape}")
        n, d = data.shape
        if positions is None:
            positions = np.arange(n, dtype=np.int64)
        return cls(n, d, data, positions, orig_len)


@dataclass(frozen=True)
class ComplexSequence:
    """n frequency bins by d channels as one complex128 array."""

    n: int
    d: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 0 or self.d < 1:
            raise ShapeError(f"bad spectrum dims n={self.n} d={self.d}")
        try:
            data = np.asarray(self.data, dtype=np.complex128).reshape(self.n, self.d)
        except ValueError as e:
            raise ShapeError(f"complex data does not fit n={self.n} d={self.d}: {e}") from e
        object.__setattr__(self, "data", _frozen(data, self.data))

    @classmethod
    def _adopt(cls, data: np.ndarray) -> "ComplexSequence":
        """Wrap an (n, d) complex128 array no one else holds, such as a fresh
        np.fft result: frozen in place, neither copied nor re-checked."""
        seq = object.__new__(cls)
        n, d = data.shape
        for name, value in (("n", n), ("d", d), ("data", data)):
            object.__setattr__(seq, name, value)
        data.flags.writeable = False
        return seq


def grid_from_sequence(seq: TokenSequence, h: int, w: int) -> TokenGrid:
    """Row-major reshape of a sequence into an h x w grid, sizes all one."""
    if seq.n != h * w:
        raise ShapeError(f"cannot reshape {seq.n} tokens into {h}x{w}")
    return TokenGrid(h, w, seq.d, seq.data.reshape(h, w, seq.d), np.ones((h, w)))


def sequence_from_grid(grid: TokenGrid) -> TokenSequence:
    """Row-major flatten; positions run 0..h*w-1.  Sizes are not carried."""
    n = grid.n_tokens
    return TokenSequence(n, grid.d, grid.data.reshape(n, grid.d),
                         np.arange(n, dtype=np.int64), n)


def concat_tokens(a: TokenSequence, b: TokenSequence) -> TokenSequence:
    """Tokens of a followed by b; b's positions shift past a's original span."""
    if a.d != b.d:
        raise ShapeError(f"feature dims differ: {a.d} vs {b.d}")
    data = np.concatenate([a.data, b.data], axis=0)
    positions = np.concatenate([a.positions, b.positions + a.orig_len])
    return TokenSequence(a.n + b.n, a.d, data, positions, a.orig_len + b.orig_len)


# ---------------------------------------------------------------------------
# LUVC1 binary grid format and the JSON fixture alternative.

@contextlib.contextmanager
def overwrite_file(path):
    """Open `path` for binary writing over its old contents, cutting off
    whatever is left past the new end on close.

    A file truncated to zero and rewritten is flushed on close by
    delayed-allocation filesystems (ext4), and the next truncate waits for
    that write to reach the disk; rewriting one output in a loop would pay
    the disk latency on every pass.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as f:
        yield f
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def write_luvc1(grid: TokenGrid, path) -> None:
    """Magic 'LUVC', u8 version, u32le h/w/d, f32le data, f32le sizes.
    A grid that overflows float32 is refused before `path` is opened."""
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(grid.data, dtype="<f4")
        sizes = np.ascontiguousarray(grid.sizes, dtype="<f4")
    if not (np.isfinite(data).all() and np.isfinite(sizes).all()):
        raise FormatError("LUVC1: grid values overflow float32")
    with overwrite_file(path) as f:
        f.write(LUVC1_MAGIC)
        f.write(struct.pack("<BIII", LUVC1_VERSION, grid.h, grid.w, grid.d))
        f.write(data)
        f.write(sizes)


def _refuse_past_budget(nbytes: int, path) -> None:
    if nbytes > BYTE_BUDGET:
        raise FormatError(f"input {path}: more than the {BYTE_BUDGET}-byte budget")


def read_bytes(path) -> bytes:
    """All the bytes at `path` through one open: pipes and FIFOs read like files.

    More than BYTE_BUDGET bytes raise FormatError: a regular file by its size,
    before any read, and a stream as soon as it passes the budget.  A regular
    file comes in one read of its size plus a byte, returned as read, and a
    stream in chunks appended to one growing buffer, so a read holds little
    more than its bytes once.
    """
    with open(path, "rb", buffering=0) as f:
        st = os.fstat(f.fileno())
        regular = stat.S_ISREG(st.st_mode)
        if regular:
            _refuse_past_budget(st.st_size, path)
        # BytesIO shares its initial bytes, and getvalue returns its buffer
        buf = io.BytesIO(f.read(st.st_size + 1 if regular else io.DEFAULT_BUFFER_SIZE))
        buf.seek(0, io.SEEK_END)
        while buf.tell() <= BYTE_BUDGET and (chunk := f.read(io.DEFAULT_BUFFER_SIZE)):
            buf.write(chunk)
        _refuse_past_budget(buf.tell(), path)
    return buf.getvalue()


def read_luvc1(path) -> TokenGrid:
    return parse_luvc1(read_bytes(path))


def parse_luvc1(blob: bytes) -> TokenGrid:
    if len(blob) < 17:
        raise FormatError("LUVC1: truncated header")
    if blob[:4] != LUVC1_MAGIC:
        raise FormatError("LUVC1: bad magic")
    version = blob[4]
    if version != LUVC1_VERSION:
        raise FormatError(f"LUVC1: unsupported version {version}")
    h, w, d = struct.unpack_from("<III", blob, 5)
    expect = 17 + 4 * (h * w * d) + 4 * (h * w)
    if len(blob) != expect:
        raise FormatError(f"LUVC1: expected {expect} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", count=h * w * d, offset=17)
    sizes = np.frombuffer(blob, dtype="<f4", count=h * w, offset=17 + 4 * h * w * d)
    try:
        return TokenGrid(h, w, d, data, sizes)
    except ShapeError as e:
        raise FormatError(f"LUVC1: {e}") from e


def _finite_number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json_doc(path, what: str):
    """The JSON document at `path`; FormatError(f"{what}: ...") unless it is
    UTF-8 and JSON with finite numbers only."""
    return _parse_json_doc(read_bytes(path), what)


def _parse_json_doc(blob: bytes, what: str):
    try:
        return json.loads(blob.decode(), parse_float=_finite_number, parse_constant=_finite_number)
    except (ValueError, RecursionError) as e:  # decode and parse errors are ValueErrors
        raise FormatError(f"{what}: {e}") from e


def parse_grid(blob: bytes) -> TokenGrid:
    """Dispatch on leading bytes: LUVC1 binary or JSON fixture."""
    if blob[:4] == LUVC1_MAGIC:
        return parse_luvc1(blob)
    doc = _parse_json_doc(blob, "grid JSON")
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise FormatError("grid JSON: missing schema marker")
    try:
        return TokenGrid(strict_index(doc["h"]), strict_index(doc["w"]), strict_index(doc["d"]),
                         doc["data"], doc["sizes"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # ShapeError is a ValueError
        raise FormatError(f"grid JSON: {e}") from e
