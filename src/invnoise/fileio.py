"""On-disk artifact formats.

All binary formats are little-endian with a 4-byte magic and a version,
and embed the experiment seed and config digest so any output can be
traced back to the run that produced it.  Payloads are 32-bit floats
(grids, noise) or 16-bit unsigned tokens (pyramids), which round-trips
bit-exactly.  Readers read the header fields from the file and take each
payload as a view of one private, copy-on-write mapping of the file
(``mmap.ACCESS_COPY``), made once the header has been read.  A noise set
holds float32 maps, as inverted and as read: the reader returns its maps
as writable views of the mapping, with no copy or cast; grids and
pyramids come back as float64 and int32 copies, and their mapping goes
when the reader returns.  A held noise set keeps its mapping, and with
it one file descriptor, open (Python's ``mmap`` duplicates it), until
its maps are gone; while it is held, its file must be replaced, not
truncated or rewritten in place, or reading a map past the new end of
the file kills the process with SIGBUS.  Readers raise ``FormatError``
for anything a writer cannot produce: short or trailing bytes, sizes
beyond the file, header code bytes no writer makes (any but zeros in a
grid or a pyramid; an unknown kind, or flags but 0 or 1, in a noise
set), a grid with an empty axis, a pyramid vocab outside [2, 65536],
tokens outside the vocab, non-finite floats, a noise set with no scales,
a negative or non-finite noise ``tau``, and a sensitive-regime flag at
odds with it.

Writers replace their file atomically: they write a temporary file
beside the destination and move it into place with ``os.replace``, so a
reader sees the old file or the new one whole, and an interrupted write
leaves the old file and no temporary one.  There is no fsync, so the
guarantee holds against interrupted processes and readers of the old
file, not against power loss.  A new file takes the mode ``open`` gives
it (0o666 less the umask), and a read-only or symlinked destination is
replaced as a directory entry, not written through.  Writers raise
``ValidationError``, and write nothing, for a payload value that is not
finite in float32, a grid with an empty axis, a seed outside [0, 2^64),
a digest that is not 16 bytes, noise maps that are not all (h, w, vocab)
with one vocab, or a noise ``tau`` that is negative or not finite.

Grids and token pyramids can also be rendered to binary PGM images for
eyeballing: one image per channel (min-max normalized) or per scale
(token ids mapped to gray levels).
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .inversion import KIND_LAI, KIND_OAI, InverseNoiseSet, check_tau
from .rng import seed_array

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


def _check_left(fh, n: int) -> None:
    """Check n payload bytes against the bytes left in the file.

    Header sizes come from the file, so a corrupt header could ask for
    more memory than exists; the check turns that into a FormatError
    before anything is allocated.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"header promises {n} payload bytes, only {left} left")


def _map(fh) -> mmap.mmap:
    """One private, copy-on-write mapping of the whole file.  Readers make
    it once the header has been read, so it is never asked of an empty
    file, which ``mmap`` refuses with ValueError."""
    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)


def _read_array(fh, pages: mmap.mmap, dtype: str, shape: tuple) -> np.ndarray:
    """The payload of ``shape`` at the file's position, checked against the
    bytes left first, as a writable view of ``pages``; the position moves
    past it."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    _check_left(fh, count * dtype.itemsize)
    out = np.frombuffer(pages, dtype, count, fh.tell()).reshape(shape)
    fh.seek(count * dtype.itemsize, os.SEEK_CUR)
    return out


def _finite_payload(data: np.ndarray, what: str) -> np.ndarray:
    """Reject NaN or infinite float32 payload values before any cast.

    min and max propagate NaN and reach any infinity, so two reductions
    check every value without a temporary array.
    """
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise FormatError(f"{what} payload holds non-finite values")
    return data


def _float32_payload(values, what: str) -> np.ndarray:
    """``values`` as the C-ordered little-endian float32 payload a writer
    stores: a float32 array as it is, anything else cast through float64.

    Values that are not finite, or that overflow float32, raise
    ``ValidationError``; writers call this before opening their file, so
    nothing is written.
    """
    data = np.asarray(values)
    if data.dtype != np.dtype("<f4"):
        with np.errstate(over="ignore"):  # an overflow shows as inf below
            data = np.asarray(data, dtype=np.float64).astype("<f4")
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValidationError(f"{what} values must be finite in float32")
    return np.ascontiguousarray(data)


def _check_end(fh):
    if fh.read(1):
        raise FormatError("trailing bytes after the payload")


def _header(magic: bytes, seed, digest: bytes, kind: int = 0, flags: int = 0) -> bytes:
    """Magic, version, two code bytes (zero for grids and pyramids), the
    seed and the 16-byte config digest.  Writers build it before opening
    their file, so a bad seed or digest writes nothing."""
    if not isinstance(digest, bytes) or len(digest) != 16:
        raise ValidationError("config digest must be 16 bytes")
    (seed,) = seed_array((seed,))
    return magic + struct.pack("<HBBQ", FORMAT_VERSION, kind, flags, int(seed)) + digest


def _read_header(fh, magic: bytes, kinds=(0,), flags=(0,)) -> tuple[int, int, ArtifactHeader]:
    """The (kind, flags, header) that :func:`_header` made, with a kind
    code among ``kinds`` and a flags byte among ``flags``."""
    got = _read_exact(fh, 4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    version, kind, flag, seed = struct.unpack("<HBBQ", _read_exact(fh, 12))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if kind not in kinds or flag not in flags:
        raise FormatError(f"header code bytes {kind}, {flag} are not ones a writer makes")
    return kind, flag, ArtifactHeader(seed=seed, digest=_read_exact(fh, 16))


def _write_replacing(path, chunks) -> None:
    """Write the byte ``chunks`` to a temporary file beside ``path``, opened
    with plain ``open`` so a new file's mode is 0o666 less the umask, and
    move it into place with ``os.replace``; on any error the temporary
    file is removed and whatever was at ``path`` stays.  No fsync."""
    head, tail = os.path.split(os.fspath(path))
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


# --- feature grids -----------------------------------------------------------


def write_grid(path, grid: np.ndarray, seed: int = 0, digest: bytes = ZERO_DIGEST):
    grid = np.asarray(grid)
    if grid.ndim != 3 or 0 in grid.shape:
        raise ValidationError(f"grid must be (d, h, w) with no empty axis, got {grid.shape}")
    payload = _float32_payload(grid, "grid")
    header = _header(GRID_MAGIC, seed, digest)
    _write_replacing(path, [header, struct.pack("<III", *grid.shape), payload])


def read_grid(path) -> tuple[np.ndarray, ArtifactHeader]:
    with open(path, "rb") as fh:
        _, _, header = _read_header(fh, GRID_MAGIC)
        shape = struct.unpack("<III", _read_exact(fh, 12))
        if 0 in shape:
            raise FormatError(f"grid shape {shape} has an empty axis")
        payload = _finite_payload(_read_array(fh, _map(fh), "<f4", shape), "grid")
        _check_end(fh)
    grid = payload.astype(np.float64)
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
    header = _header(PYRAMID_MAGIC, seed, digest)

    def chunks():
        yield header
        yield struct.pack("<II", len(maps), vocab)
        for t in maps:
            yield struct.pack("<II", *t.shape)
            yield t.astype("<u2").tobytes()

    _write_replacing(path, chunks())


def read_pyramid(path) -> tuple[list[np.ndarray], int, ArtifactHeader]:
    with open(path, "rb") as fh:
        _, _, header = _read_header(fh, PYRAMID_MAGIC)
        num_scales, vocab = struct.unpack("<II", _read_exact(fh, 8))
        if not 2 <= vocab <= 2**16:
            raise FormatError(f"pyramid vocab {vocab} is outside [2, 65536]")
        pages = _map(fh)
        maps = []
        for _ in range(num_scales):
            shape = struct.unpack("<II", _read_exact(fh, 8))
            data = _read_array(fh, pages, "<u2", shape)
            if data.size and int(data.max()) >= vocab:
                raise FormatError(f"token {int(data.max())} out of range for vocab {vocab}")
            maps.append(data.astype(np.int32))
        _check_end(fh)
    return maps, vocab, header


# --- inverse noise sets ------------------------------------------------------


def write_noise_set(path, noise_set: InverseNoiseSet, digest: bytes = ZERO_DIGEST):
    if not noise_set.noises:
        raise ValidationError("noise set has no scales")
    label = noise_set.condition_label.encode("utf-8")
    payloads = [_float32_payload(n, "noise") for n in noise_set.noises]
    if any(p.ndim != 3 for p in payloads) or len({p.shape[2] for p in payloads}) != 1:
        raise ValidationError("noise maps must all be (h, w, vocab) with one vocab")
    tau = check_tau(noise_set.tau)
    header = _header(
        NOISE_MAGIC,
        noise_set.seed,
        digest,
        _KIND_CODES[noise_set.kind],
        1 if noise_set.sensitive else 0,
    )
    fields = [
        header,
        struct.pack("<IId", noise_set.num_scales, payloads[0].shape[2], tau),
        struct.pack("<I", len(label)),
        label,
        *(struct.pack("<II", p.shape[0], p.shape[1]) for p in payloads),
    ]
    _write_replacing(path, fields + payloads)


def read_noise_set(path) -> tuple[InverseNoiseSet, ArtifactHeader]:
    with open(path, "rb") as fh:
        kind_code, flags, header = _read_header(fh, NOISE_MAGIC, _KIND_NAMES, (0, 1))
        num_scales, vocab, tau = struct.unpack("<IId", _read_exact(fh, 16))
        if num_scales == 0:
            raise FormatError("noise set has no scales")
        if not (np.isfinite(tau) and tau >= 0):
            raise FormatError(f"noise header tau {tau!r} is not a non-negative finite real")
        if bool(flags & 1) != (tau == 0.0):
            raise FormatError("sensitive-regime flag inconsistent with tau")
        (label_len,) = struct.unpack("<I", _read_exact(fh, 4))
        _check_left(fh, label_len)
        try:
            label = _read_exact(fh, label_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("condition label is not valid UTF-8") from None
        shapes = [struct.unpack("<II", _read_exact(fh, 8)) for _ in range(num_scales)]
        pages = _map(fh)
        noises = tuple(
            _finite_payload(_read_array(fh, pages, "<f4", (h, w, vocab)), "noise")
            for h, w in shapes
        )
        _check_end(fh)
    noise_set = InverseNoiseSet(
        noises=noises,
        condition_label=label,
        tau=tau,
        seed=header.seed,
        kind=_KIND_NAMES[kind_code],
    )
    return noise_set, header


# --- PGM rendering -----------------------------------------------------------


def write_pgm(path, values: np.ndarray, comment: str = ""):
    """Binary (P5) grayscale image from a (h, w) uint8 array."""
    values = np.asarray(values)
    if values.ndim != 2 or values.dtype != np.uint8:
        raise ValidationError("PGM payload must be a 2-D uint8 array")
    h, w = values.shape
    header = f"P5\n# {comment}\n{w} {h}\n255\n" if comment else f"P5\n{w} {h}\n255\n"
    _write_replacing(path, [header.encode("ascii"), values.tobytes()])


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
    _write_replacing(path, (f"{line}\n".encode("ascii") for line in [CSV_HEADER, *rows]))
