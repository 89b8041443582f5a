"""Deterministic counter-based randomness.

Every draw in this package is a pure function of its key (seed,
purpose tag, scale, row, col, channel).  There is no sequential stream
state, so tokens can be processed in any order, serially or in
parallel, and still receive bit-identical values.  The draw functions
take whole index arrays for row, col and channel and broadcast them, so
one call keys a full field; an array of seeds adds leading axes, so one
call keys the same field for many seeds.  Seeds are integers in
[0, 2^64); ``seed_array`` checks them.  The hash absorbs each key
field with an xor into its result and a mix in place, and the map to
(0, 1) runs in the words' own buffer.  Every step mixes whole.

The keyed permutation is a chained SplitMix64 finalizer: the seed is
mixed once, then each key field is absorbed with xor + mix.  The seed,
purpose and scale steps are the same for every cell of a draw site, so
they run once per seed on Python integers, and only the row, col and
channel steps run on arrays.  A scale pass keys its (h, w, C) field in
two parts: ``cell_words`` absorbs the row and col steps once per pass,
(h, w) words per seed, and ``channel_uniforms`` absorbs only the
channel step of a row block's words, into the caller's buffers, and
maps them to (0, 1) there.  The exact construction is frozen by
golden values in the test suite; changing it invalidates every recorded
artifact.
"""

from __future__ import annotations

import math

import numpy as np

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

_GAMMA_INT = 0x9E3779B97F4A7C15
_MULT1_INT = 0xBF58476D1CE4E5B9
_MULT2_INT = 0x94D049BB133111EB
_MASK = 2**64 - 1
_GAMMA = np.uint64(_GAMMA_INT)
_MULT1 = np.uint64(_MULT1_INT)
_MULT2 = np.uint64(_MULT2_INT)

# Map 64-bit words into (0, 1): keep the top 53 bits (the float64
# mantissa width) and divide (k + 1) by 2^53 + 2.  Both endpoint images
# round away from 0.0 and 1.0, so log(u) and log(-log(u)) stay finite.
_DENOM = float(2**53 + 2)
_SHIFT11 = np.uint64(11)
_SHIFT27 = np.uint64(27)
_SHIFT30 = np.uint64(30)
_SHIFT31 = np.uint64(31)


def _mix(h: np.ndarray, field: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Absorb one key field: the SplitMix64 step (increment + avalanche)
    of ``h ^ field``, written into ``out``, a C-contiguous uint64 array
    of their broadcast shape (a new one if None), and returned.  The
    step runs whole, in place, with ``_scratch(scratch, size)``; uint64
    arithmetic wraps modulo 2^64, so no masking is needed."""
    if out is None:
        out = np.bitwise_xor(h, field, order="C")
    else:
        np.bitwise_xor(h, field, out=out)
    x, s = out.reshape(-1), _scratch(scratch, out.size)
    x += _GAMMA
    np.right_shift(x, _SHIFT30, out=s)
    x ^= s
    x *= _MULT1
    np.right_shift(x, _SHIFT27, out=s)
    x ^= s
    x *= _MULT2
    np.right_shift(x, _SHIFT31, out=s)
    x ^= s
    return out


def _scratch(scratch, size: int) -> np.ndarray:
    """``size`` uint64 words of the caller's ``scratch``, a C-contiguous
    buffer of 8-byte items of at least that size, or new ones if None."""
    if scratch is None:
        return np.empty(size, np.uint64)
    return scratch.reshape(-1).view(np.uint64)[:size]


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


def _mix_int(x: int) -> int:
    """``_mix``'s SplitMix64 step on one word held as a Python int, mod 2^64."""
    x = (x + _GAMMA_INT) & _MASK
    x ^= x >> 30
    x = (x * _MULT1_INT) & _MASK
    x ^= x >> 27
    x = (x * _MULT2_INT) & _MASK
    return x ^ (x >> 31)


def _keyed_words(seed, purpose: int, scale: int, fields) -> np.ndarray:
    """The words of ``seed``, ``purpose`` and ``scale`` with each array
    field absorbed in turn, at the broadcast shape of the fields so far,
    each step mixing whole in a new array: (*seed shape, *field shape).

    The seed, purpose and scale absorptions give one word per seed,
    mixed in Python integers.  An array ``seed`` of shape (S,) gives a
    leading axis whose slice s equals the words at the scalar
    ``seed[s]``.
    """
    field_shape = np.broadcast_shapes(*(np.shape(f) for f in fields))
    seed_shape = np.shape(seed)
    purpose, scale = int(purpose), int(scale)
    words = [
        _mix_int(_mix_int(_mix_int(s & _MASK) ^ purpose) ^ scale)
        for s in np.ravel(seed).tolist()
    ]
    h = np.array(words, dtype=np.uint64).reshape(seed_shape + (1,) * len(field_shape) or (1,))
    for field in fields:
        # 0-d uint64 ops go through numpy's scalar path, which warns on the
        # intended wraparound; keep every field at least 1-d.
        h = _mix(h, np.atleast_1d(np.asarray(field)).astype(np.uint64, copy=False))
    return h.reshape(seed_shape + field_shape)


def raw64_values(seed, purpose: int, scale: int, rows, cols, channels) -> np.ndarray:
    """Vectorized keyed hash; broadcasts rows/cols/channels.

    ``purpose`` and ``scale`` are integers.  Each array field is absorbed
    at the broadcast shape of the fields so far, so with (h, 1, 1) rows,
    (1, w, 1) cols and (1, 1, C) channels only the channel step runs at
    the full (h, w, C) size.  An array ``seed`` of shape (S,) gives an
    (S, *field shape) result whose slice s equals the draw at the scalar
    ``seed[s]``.
    """
    return _keyed_words(seed, purpose, scale, (rows, cols, channels))


def cell_words(seed, purpose: int, scale: int, h: int, w: int) -> np.ndarray:
    """The keyed words of the cells of an (h, w) grid, with the seed,
    purpose, scale, row and col steps absorbed: (h, w), or (S, h, w) for
    an array of S seeds.  ``channel_uniforms`` of any row slice of them
    gives those rows of ``uniform_values(seed, purpose, scale, rows, cols,
    channels)`` with (h, 1, 1) rows, (1, w, 1) cols and (1, 1, C)
    channels 0..C-1."""
    return _keyed_words(seed, purpose, scale, (np.arange(h)[:, None], np.arange(w)))


def _to_uniform(words: np.ndarray, scratch=None) -> np.ndarray:
    """The uniforms (k + 1) / (2^53 + 2) of the uint64 ``words``, k their
    top 53 bits, written over the words' own C-contiguous buffer viewed as
    float64 (the same size).  k is held in ``_scratch(scratch, size)``
    and copied from its int64 view, which is exact (k < 2^53) and no
    buffered cast; k + 1 <= 2^53 is exact too."""
    flat = words.reshape(-1)
    k = np.right_shift(flat, _SHIFT11, out=_scratch(scratch, flat.size))
    u = flat.view(np.float64)
    np.copyto(u, k.view(np.int64))
    u += 1.0
    u /= _DENOM
    return u.reshape(words.shape)


def uniform_values(seed, purpose, scale, rows, cols, channels) -> np.ndarray:
    """Uniform (0,1) draws for broadcast row/col/channel index arrays:
    each word of ``raw64_values`` maps to (k + 1) / (2^53 + 2), k its top
    53 bits, in its own buffer."""
    return _to_uniform(raw64_values(seed, purpose, scale, rows, cols, channels))


def channel_uniforms(words: np.ndarray, c: int, out=None, scratch=None) -> np.ndarray:
    """Uniform (0, 1) draws at channels 0..c-1 of the cells whose keyed
    words are ``words`` (from ``cell_words``, any row slice of them):
    (*words.shape, c), bit for bit the draws of ``uniform_values`` at
    those cells.  Only the channel step runs here.  Given ``out`` and
    ``scratch``, C-contiguous buffers of 8-byte items of at least the
    result's size, the channel step writes into ``out`` (the result is a
    float64 view of it) and mixes with ``scratch``, which then holds the
    53-bit values, so the call allocates no array of the result's size."""
    shape = (*words.shape, c)
    if out is not None:
        out = out.reshape(-1).view(np.uint64)[: math.prod(shape)].reshape(shape)
    channels = np.arange(c, dtype=np.uint64)
    return _to_uniform(_mix(words[..., None], channels, out, scratch), scratch)


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
