"""Deterministic counter-based randomness.

Every draw in this package is a pure function of its key (seed,
purpose tag, scale, row, col, channel).  There is no sequential stream
state, so tokens can be processed in any order, serially or in
parallel, and still receive bit-identical values.  The draw functions
take whole index arrays for row, col and channel and broadcast them, so
one call keys a full field; an array of seeds adds leading axes, so one
call keys the same field for many seeds.  Seeds are integers in
[0, 2^64); ``seed_array`` checks them.  The hash and the map to (0, 1)
run in place over chunks of ``_CHUNK`` words; in a field of 2^19 words
or more the chunks split across threads (:mod:`invnoise._blocks`), and
every word is the same either way.

The keyed permutation is a chained SplitMix64 finalizer: the seed is
mixed once, then each key field is absorbed with xor + mix.  The exact
construction is frozen by golden values in the test suite; changing it
invalidates every recorded artifact.
"""

from __future__ import annotations

import numpy as np

from ._blocks import run_blocks
from .errors import ValidationError

# Draw-site purpose tags.  Distinct tags keep draw sites statistically
# independent even when scale/row/col/channel coincide.
PURPOSE_LABEL_DRAW = 1  # located Gumbel at the ground-truth label
PURPOSE_TRUNC_DRAW = 2  # truncated Gumbel at off-label classes
PURPOSE_EDIT_NOISE = 3  # fresh Gumbel mixed in during editing
PURPOSE_GENERATION = 4  # plain pyramid generation
PURPOSE_CODEBOOK = 5
PURPOSE_CONDITION = 6
PURPOSE_MIXING = 7
PURPOSE_SCENE = 8

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)

# Map 64-bit words into (0, 1): keep the top 53 bits (the float64
# mantissa width) and divide (k + 1) by 2^53 + 2.  Both endpoint images
# round away from 0.0 and 1.0, so log(u) and log(-log(u)) stay finite.
_DENOM = float(2**53 + 2)
_SHIFT11 = np.uint64(11)
_SHIFT27 = np.uint64(27)
_SHIFT30 = np.uint64(30)
_SHIFT31 = np.uint64(31)
# Words per chunk (256 KiB) in the in-place kernels, so their
# temporaries stay in cache.
_CHUNK = 1 << 15


def _mix(z: np.ndarray) -> np.ndarray:
    """One SplitMix64 step (increment + avalanche) on a uint64 array.

    Works in place on ``z``, which must be an array the caller owns, and
    returns the result.  uint64 arithmetic wraps modulo 2^64, so no
    masking is needed.  Large arrays go through in chunks of
    ``_CHUNK`` words, split over threads, with one scratch array per
    thread.
    """
    z = np.ascontiguousarray(z)
    flat = z.reshape(-1)

    def mix_chunks(lo, hi):
        scratch = np.empty(min(flat.size, _CHUNK), dtype=np.uint64)
        for start in range(lo * _CHUNK, min(hi * _CHUNK, flat.size), _CHUNK):
            x = flat[start : start + _CHUNK]
            s = scratch[: x.size]
            x += _GAMMA
            np.right_shift(x, _SHIFT30, out=s)
            x ^= s
            x *= _MULT1
            np.right_shift(x, _SHIFT27, out=s)
            x ^= s
            x *= _MULT2
            np.right_shift(x, _SHIFT31, out=s)
            x ^= s

    run_blocks(mix_chunks, -(-flat.size // _CHUNK), flat.size)
    return z


def _as_u64(value) -> np.ndarray:
    # 0-d uint64 ops go through numpy's scalar path, which warns on the
    # intended wraparound; keep everything at least 1-d.
    return np.atleast_1d(np.asarray(value)).astype(np.uint64, copy=False)


SEED_LIMIT = 2**64


def seed_array(seeds) -> np.ndarray:
    """Seeds as a uint64 array, each checked to be an integer in [0, 2^64)."""
    seeds = list(seeds)
    for seed in seeds:
        if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)):
            raise ValidationError(f"seed must be an integer, got {seed!r}")
        if not 0 <= int(seed) < SEED_LIMIT:
            raise ValidationError(f"seed {seed} outside [0, 2^64)")
    return np.array([int(seed) for seed in seeds], dtype=np.uint64)


def raw64_values(seed, purpose, scale, rows, cols, channels) -> np.ndarray:
    """Vectorized keyed hash; broadcasts rows/cols/channels.

    Each field is absorbed at the broadcast shape of the fields so far,
    so with (h, 1, 1) rows, (1, w, 1) cols and (1, 1, C) channels only
    the channel step runs at the full (h, w, C) size.  An array ``seed``
    of shape (S,) gives an (S, *field shape) result whose slice s equals
    the draw at the scalar ``seed[s]``.
    """
    field_shape = np.broadcast_shapes(
        np.shape(rows), np.shape(cols), np.shape(channels)
    )
    seed_shape = np.shape(seed)
    h = _as_u64(seed).reshape(seed_shape + (1,) * len(field_shape) or (1,))
    h = _mix(h.copy())
    for field in (purpose, scale, rows, cols, channels):
        h = _mix(h ^ _as_u64(field))
    return h.reshape(seed_shape + field_shape)


def _to_open_unit(words: np.ndarray) -> np.ndarray:
    """Map owned uint64 words to (0, 1), reusing their buffer.

    uint64 and float64 have the same size, so each chunk of words is
    shifted, converted and written back over itself as float64, the
    chunks split over threads; ``words`` must not be used afterwards.
    """
    shape = words.shape
    flat = np.ascontiguousarray(words).reshape(-1)
    u = flat.view(np.float64)

    def convert_chunks(lo, hi):
        for start in range(lo * _CHUNK, min(hi * _CHUNK, flat.size), _CHUNK):
            k = flat[start : start + _CHUNK] >> _SHIFT11
            chunk = u[start : start + _CHUNK]
            np.add(k, 1.0, out=chunk)  # k converts to float64 exactly (k < 2^53)
            chunk /= _DENOM

    run_blocks(convert_chunks, -(-flat.size // _CHUNK), flat.size)
    return u.reshape(shape)


def uniform_values(seed, purpose, scale, rows, cols, channels) -> np.ndarray:
    """Uniform (0,1) draws for broadcast row/col/channel index arrays."""
    return _to_open_unit(raw64_values(seed, purpose, scale, rows, cols, channels))


def normal_values(seed, purpose, scale, rows, cols, channels) -> np.ndarray:
    """Standard normal draws via Box-Muller on two keyed uniforms.

    The two uniforms live at channels 2*c and 2*c+1, so normal and
    uniform draws at the same site never collide as long as they use
    different purpose tags.
    """
    channels = np.asarray(channels)
    u1 = uniform_values(seed, purpose, scale, rows, cols, 2 * channels)
    u2 = uniform_values(seed, purpose, scale, rows, cols, 2 * channels + 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
