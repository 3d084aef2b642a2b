"""Self-parsed PGM/PPM images, the one grid loader, patch featurizers, and
energy heatmaps.

Only the netpbm subset we need: P2/P5 grayscale and P3/P6 color, maxval up
to 255.  Parsing is strict -- truncated or inconsistent files raise
FormatError rather than producing garbage tokens.  Heatmaps go out as
binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, ShapeError
from .spectral import EnergyRanking
from .tokens import TokenGrid, overwrite_file, parse_grid, read_bytes

_WS = b" \t\r\n\x0b\x0c"
FEATURE_MODES = ("raw", "dct")
# magic -> (ASCII samples, channels)
NETPBM = {b"P2": (True, 1), b"P3": (True, 3), b"P5": (False, 1), b"P6": (False, 3)}


# ---------------------------------------------------------------------------
# netpbm subset.

def parse_image(blob: bytes) -> np.ndarray:
    """Decode P2/P3/P5/P6 bytes into (h, w) or (h, w, 3) uint8."""
    if blob[:2] not in NETPBM:
        raise FormatError(f"image: unsupported magic {blob[:2]!r}")
    ascii_body, channels = NETPBM[blob[:2]]

    toks, pos = _header_tokens(blob, 3)
    try:
        w, h, maxval = (int(t) for t in toks)
    except ValueError as e:
        raise FormatError(f"image: bad header token ({e})") from e
    if w < 1 or h < 1:
        raise FormatError(f"image: bad dimensions {w}x{h}")
    if not 0 < maxval <= 255:
        raise FormatError(f"image: unsupported maxval {maxval}")
    count = w * h * channels

    if ascii_body:
        body = blob[pos:].split()
        if len(body) != count:
            raise FormatError(f"image: expected {count} samples, got {len(body)}")
        try:
            flat = np.array([int(t) for t in body], dtype=np.int64)
        except ValueError as e:
            raise FormatError(f"image: bad sample ({e})") from e
    else:
        if pos >= len(blob) or blob[pos] not in _WS:
            raise FormatError("image: missing whitespace before binary data")
        if len(blob) - pos - 1 != count:
            raise FormatError(f"image: expected {count} bytes of data, got {len(blob) - pos - 1}")
        # a view of the samples: uint8 compares with maxval as it is
        flat = np.frombuffer(blob, dtype=np.uint8, offset=pos + 1)
    if flat.max() > maxval or flat.min() < 0:
        raise FormatError("image: sample exceeds maxval")
    img = flat.astype(np.uint8).reshape((h, w) if channels == 1 else (h, w, 3))
    return img


def _header_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    toks: list[bytes] = []
    i = 2
    while len(toks) < count:
        if i >= len(blob):
            raise FormatError("image: truncated header")
        c = blob[i]
        if c in _WS:
            i += 1
        elif c == ord("#"):
            while i < len(blob) and blob[i] != ord("\n"):
                i += 1
        else:
            j = i
            while j < len(blob) and blob[j] not in _WS and blob[j] != ord("#"):
                j += 1
            toks.append(blob[i:j])
            i = j
    return toks, i


def read_image(path) -> np.ndarray:
    return parse_image(read_bytes(path))


def load_grid(path, patch: int = 8, feat: str = "raw") -> TokenGrid:
    """The grid at `path`, read through one open: an image whose magic is in
    NETPBM is featurized by `patch` x `patch` blocks in `feat` mode, and any
    other bytes are a LUVC1 or JSON grid."""
    blob = read_bytes(path)
    if blob[:2] in NETPBM:
        return featurize_image(parse_image(blob), patch, feat)
    return parse_grid(blob)


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ShapeError("PGM output must be a 2D array")
    if pixels.dtype != np.uint8:
        if np.any(pixels < 0) or np.any(pixels > 255):
            raise ValueError("PGM samples must fit in 0..255")
        pixels = pixels.astype(np.uint8)
    h, w = pixels.shape
    with overwrite_file(path) as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(pixels))


# ---------------------------------------------------------------------------
# Patch featurizers.

def _dct_matrix(p: int) -> np.ndarray:
    x = np.arange(p)
    c = np.cos(np.pi * (2 * x[None, :] + 1) * x[:, None] / (2 * p)) * np.sqrt(2.0 / p)
    c[0] = np.sqrt(1.0 / p)
    return c


def zigzag_indices(p: int) -> np.ndarray:
    """Flat indices of a p x p block in serpentine (anti-diagonal) order:
    by anti-diagonal s = i + j, even ones walked up the rows, odd ones down."""
    i, j = np.divmod(np.arange(p * p), p)
    s = i + j
    return np.lexsort((np.where(s % 2 == 0, j, i), s))


def featurize_image(image: np.ndarray, patch: int, mode: str = "raw") -> TokenGrid:
    """Turn an image into a token grid, one token per patch x patch block.

    raw: block pixels flattened row-major (channels innermost),
    d = patch^2 * channels.  dct: orthonormal 2D type-II DCT coefficients of
    each block, zig-zag ordered per channel, channels concatenated.  Images
    whose dims are not multiples of `patch` are center-cropped to the
    largest multiple.
    """
    if mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode {mode!r}")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3:
        raise ShapeError(f"image must be (h, w) or (h, w, c), got {img.shape}")
    height, width, chans = img.shape
    if height < patch or width < patch:
        raise ShapeError(f"image {height}x{width} smaller than one {patch}x{patch} patch")
    rows, cols = (height // patch) * patch, (width // patch) * patch
    r0, c0 = (height - rows) // 2, (width - cols) // 2
    img = img[r0:r0 + rows, c0:c0 + cols]
    gh, gw = rows // patch, cols // patch
    # (gh, gw, patch, patch, c) blocks
    blocks = img.reshape(gh, patch, gw, patch, chans).transpose(0, 2, 1, 3, 4)
    if mode == "raw":
        data = blocks.reshape(gh, gw, patch * patch * chans)
    else:
        # C @ B @ C.T per (gh, gw, c) block, as two batched matmuls
        c = _dct_matrix(patch)
        coeff = c @ blocks.transpose(0, 1, 4, 2, 3) @ c.T
        per_chan = coeff.reshape(gh, gw, chans, patch * patch)
        data = per_chan[:, :, :, zigzag_indices(patch)].reshape(gh, gw, chans * patch * patch)
    return TokenGrid.from_data(data)


# ---------------------------------------------------------------------------
# Heatmaps.

def normalize_heat(values: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; a constant field maps to all 0.5."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def emit_energy_heatmap(h: int, w: int, ranking: EnergyRanking, path,
                        mask_path=None) -> np.ndarray:
    """Write per-token energies as a PGM, optionally a kept-token mask too;
    return the (h, w) uint8 heatmap pixels written."""
    if h < 1 or w < 1:
        raise ShapeError("heatmap needs at least one token")
    if ranking.energies.size != h * w:
        raise ShapeError(f"{ranking.energies.size} energies do not tile {h}x{w}")
    pixels = np.rint(normalize_heat(ranking.energies.reshape(h, w)) * 255).astype(np.uint8)
    write_pgm(path, pixels)
    if mask_path is not None:
        mask = np.zeros(h * w, dtype=np.uint8)
        mask[ranking.kept] = 255
        write_pgm(mask_path, mask.reshape(h, w))
    return pixels
