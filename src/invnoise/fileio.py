"""On-disk artifact formats.

All binary formats are little-endian with a 4-byte magic and a version,
and embed the experiment seed and config digest so any output can be
traced back to the run that produced it.  Payloads are 32-bit floats
(grids, noise) or 16-bit unsigned tokens (pyramids), which round-trips
bit-exactly.  Readers raise ``FormatError`` for anything a writer cannot
produce: short or trailing bytes, sizes beyond the file, tokens outside
the vocab, non-finite float payload values and a noise ``tau`` that is
negative or not finite.  Writers raise ``ValidationError``, and write
nothing, for a payload value that is not finite in float32.

Grids and token pyramids can also be rendered to binary PGM images for
eyeballing: one image per channel (min-max normalized) or per scale
(token ids mapped to gray levels).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .inversion import KIND_LAI, KIND_OAI, InverseNoiseSet

GRID_MAGIC = b"NSGR"
PYRAMID_MAGIC = b"NSPY"
NOISE_MAGIC = b"NSNZ"
FORMAT_VERSION = 1

ZERO_DIGEST = bytes(16)

_KIND_CODES = {KIND_LAI: 0, KIND_OAI: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True)
class ArtifactHeader:
    seed: int
    digest: bytes  # 16 bytes; zeros when no config was involved


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError("unexpected end of file")
    return data


def _read_payload(fh, n: int) -> bytes:
    """Read n payload bytes, checking n against the bytes left first.

    Header sizes come from the file, so a corrupt header could ask for
    more memory than exists; the check turns that into a FormatError.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"header promises {n} payload bytes, only {left} left")
    return _read_exact(fh, n)


def _finite_payload(data: np.ndarray, what: str) -> np.ndarray:
    """Reject NaN or infinite float32 payload values before any cast.

    min and max propagate NaN and reach any infinity, so two reductions
    check every value without a temporary array.
    """
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise FormatError(f"{what} payload holds non-finite values")
    return data


def _float32_payload(values, what: str) -> np.ndarray:
    """``values`` as the little-endian float32 payload a writer stores.

    Values that are not finite, or that overflow float32, raise
    ``ValidationError``; writers call this before opening their file, so
    nothing is written.
    """
    with np.errstate(over="ignore"):  # an overflow shows as inf below
        data = np.asarray(values, dtype=np.float64).astype("<f4")
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValidationError(f"{what} values must be finite in float32")
    return data


def _check_end(fh):
    if fh.read(1):
        raise FormatError("trailing bytes after the payload")


def _write_header(fh, magic: bytes, seed: int, digest: bytes, kind: int = 0, flags: int = 0):
    """Magic, version, two code bytes (zero for grids and pyramids), the
    seed and the 16-byte config digest."""
    if len(digest) != 16:
        raise ValidationError("config digest must be 16 bytes")
    fh.write(magic)
    fh.write(struct.pack("<HBBQ", FORMAT_VERSION, kind, flags, seed & (2**64 - 1)))
    fh.write(digest)


def _read_header(fh, magic: bytes) -> tuple[int, int, ArtifactHeader]:
    """The (kind, flags, header) that :func:`_write_header` wrote."""
    got = _read_exact(fh, 4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    version, kind, flags, seed = struct.unpack("<HBBQ", _read_exact(fh, 12))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    return kind, flags, ArtifactHeader(seed=seed, digest=_read_exact(fh, 16))


# --- feature grids -----------------------------------------------------------


def write_grid(path, grid: np.ndarray, seed: int = 0, digest: bytes = ZERO_DIGEST):
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise ValidationError("grid must be (d, h, w)")
    payload = _float32_payload(grid, "grid")
    d, h, w = grid.shape
    with open(path, "wb") as fh:
        _write_header(fh, GRID_MAGIC, seed, digest)
        fh.write(struct.pack("<III", d, h, w))
        fh.write(payload.tobytes())


def read_grid(path) -> tuple[np.ndarray, ArtifactHeader]:
    with open(path, "rb") as fh:
        _, _, header = _read_header(fh, GRID_MAGIC)
        d, h, w = struct.unpack("<III", _read_exact(fh, 12))
        payload = _finite_payload(
            np.frombuffer(_read_payload(fh, 4 * d * h * w), dtype="<f4"), "grid"
        )
        _check_end(fh)
    grid = payload.reshape(d, h, w).astype(np.float64)
    return grid, header


# --- token pyramids ----------------------------------------------------------


def write_pyramid(path, pyramid, vocab: int, seed: int = 0, digest: bytes = ZERO_DIGEST):
    maps = [np.asarray(t) for t in pyramid]
    if vocab < 2 or vocab > 2**16:
        raise ValidationError("vocab must be in [2, 65536] for u16 tokens")
    for t in maps:
        if t.ndim != 2 or not np.issubdtype(t.dtype, np.integer):
            raise ValidationError("token maps must be 2-D integer arrays")
        if np.any(t < 0) or np.any(t >= vocab):
            raise ValidationError("token index out of range")
    with open(path, "wb") as fh:
        _write_header(fh, PYRAMID_MAGIC, seed, digest)
        fh.write(struct.pack("<II", len(maps), vocab))
        for t in maps:
            fh.write(struct.pack("<II", *t.shape))
            fh.write(t.astype("<u2").tobytes())


def read_pyramid(path) -> tuple[list[np.ndarray], int, ArtifactHeader]:
    with open(path, "rb") as fh:
        _, _, header = _read_header(fh, PYRAMID_MAGIC)
        num_scales, vocab = struct.unpack("<II", _read_exact(fh, 8))
        maps = []
        for _ in range(num_scales):
            h, w = struct.unpack("<II", _read_exact(fh, 8))
            data = np.frombuffer(_read_payload(fh, 2 * h * w), dtype="<u2")
            if data.size and int(data.max()) >= vocab:
                raise FormatError(f"token {int(data.max())} out of range for vocab {vocab}")
            maps.append(data.reshape(h, w).astype(np.int32))
        _check_end(fh)
    return maps, vocab, header


# --- inverse noise sets ------------------------------------------------------


def write_noise_set(path, noise_set: InverseNoiseSet, digest: bytes = ZERO_DIGEST):
    if not noise_set.noises:
        raise ValidationError("noise set has no scales")
    label = noise_set.condition_label.encode("utf-8")
    payloads = [_float32_payload(n, "noise") for n in noise_set.noises]
    with open(path, "wb") as fh:
        _write_header(
            fh,
            NOISE_MAGIC,
            noise_set.seed,
            digest,
            _KIND_CODES[noise_set.kind],
            1 if noise_set.sensitive else 0,
        )
        first = noise_set.noises[0]
        fh.write(struct.pack("<IId", noise_set.num_scales, first.shape[2], noise_set.tau))
        fh.write(struct.pack("<I", len(label)))
        fh.write(label)
        for n in noise_set.noises:
            fh.write(struct.pack("<II", n.shape[0], n.shape[1]))
        for payload in payloads:
            fh.write(payload.tobytes())


def read_noise_set(path) -> tuple[InverseNoiseSet, ArtifactHeader]:
    with open(path, "rb") as fh:
        kind_code, flags, header = _read_header(fh, NOISE_MAGIC)
        if kind_code not in _KIND_NAMES:
            raise FormatError(f"unknown inversion kind code {kind_code}")
        num_scales, vocab, tau = struct.unpack("<IId", _read_exact(fh, 16))
        if not (np.isfinite(tau) and tau >= 0):
            raise FormatError(f"noise header tau {tau!r} is not a non-negative finite real")
        (label_len,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            label = _read_payload(fh, label_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("condition label is not valid UTF-8") from None
        shapes = [struct.unpack("<II", _read_exact(fh, 8)) for _ in range(num_scales)]
        noises = []
        for h, w in shapes:
            data = _finite_payload(
                np.frombuffer(_read_payload(fh, 4 * h * w * vocab), dtype="<f4"), "noise"
            )
            noises.append(data.reshape(h, w, vocab).astype(np.float64))
        _check_end(fh)
    noise_set = InverseNoiseSet(
        noises=tuple(noises),
        condition_label=label,
        tau=tau,
        seed=header.seed,
        kind=_KIND_NAMES[kind_code],
    )
    if bool(flags & 1) != noise_set.sensitive:
        raise FormatError("sensitive-regime flag inconsistent with tau")
    return noise_set, header


# --- PGM rendering -----------------------------------------------------------


def write_pgm(path, values: np.ndarray, comment: str = ""):
    """Binary (P5) grayscale image from a (h, w) uint8 array."""
    values = np.asarray(values)
    if values.ndim != 2 or values.dtype != np.uint8:
        raise ValidationError("PGM payload must be a 2-D uint8 array")
    h, w = values.shape
    header = f"P5\n# {comment}\n{w} {h}\n255\n" if comment else f"P5\n{w} {h}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(values.tobytes())


def gray_from_tokens(tokens: np.ndarray, vocab: int) -> np.ndarray:
    """Map token ids onto 0..255 (floor scaling)."""
    tokens = np.asarray(tokens)
    if vocab < 2:
        raise ValidationError("vocab must be >= 2")
    return ((tokens.astype(np.int64) * 255) // (vocab - 1)).astype(np.uint8)


def gray_from_channel(channel: np.ndarray) -> np.ndarray:
    """Min-max normalize one (h, w) channel onto 0..255; flat -> 128."""
    channel = np.asarray(channel, dtype=np.float64)
    lo, hi = float(channel.min()), float(channel.max())
    if lo == hi:
        return np.full(channel.shape, 128, dtype=np.uint8)
    return np.rint((channel - lo) / (hi - lo) * 255.0).astype(np.uint8)


# --- metrics CSV -------------------------------------------------------------

CSV_HEADER = "digest,seed,metric,scope,value"


def format_metric_row(digest_hex: str, seed, metric: str, scope: str, value) -> str:
    return f"{digest_hex},{seed},{metric},{scope},{value!r}"


def write_metrics_csv(path, rows: list[str]):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
