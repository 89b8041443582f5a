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
(0, 1) runs in the words' own buffer.  Every step mixes whole: a
caller's buffers take the words and the mixing scratch of a draw's last
field (a row block of a scale's pass), and a draw without them, or a
leading row or col step, mixes in a new scratch of its own size.

The keyed permutation is a chained SplitMix64 finalizer: the seed is
mixed once, then each key field is absorbed with xor + mix.  The seed,
purpose and scale steps are the same for every cell of a draw site, so
they run once per seed on Python integers, and only the row, col and
channel steps run on arrays.  The exact construction is frozen by
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


def raw64_values(
    seed, purpose: int, scale: int, rows, cols, channels, out=None, scratch=None
) -> np.ndarray:
    """Vectorized keyed hash; broadcasts rows/cols/channels.

    ``purpose`` and ``scale`` are integers.  The seed, purpose and scale
    absorptions give one word per seed, mixed in Python integers; each
    array field is then absorbed at the broadcast shape of the fields so
    far, so with (h, 1, 1) rows, (1, w, 1) cols and (1, 1, C) channels
    only the channel step runs at the full (h, w, C) size.  The row and
    col steps mix whole, in a new scratch of their own size (at most S *
    h * w words with such fields).  An array ``seed`` of shape (S,)
    gives an (S, *field shape) result whose slice s equals the draw at
    the scalar ``seed[s]``.  Given ``out`` and
    ``scratch``, C-contiguous buffers of 8-byte items of at least the
    result's size, the last field step writes the words into ``out``
    (the result is a view of it) and mixes them whole with ``scratch``;
    otherwise the words are a new array.
    """
    field_shape = np.broadcast_shapes(
        np.shape(rows), np.shape(cols), np.shape(channels)
    )
    seed_shape = np.shape(seed)
    purpose, scale = int(purpose), int(scale)
    words = [
        _mix_int(_mix_int(_mix_int(s & _MASK) ^ purpose) ^ scale)
        for s in np.ravel(seed).tolist()
    ]
    h = np.array(words, dtype=np.uint64).reshape(seed_shape + (1,) * len(field_shape) or (1,))
    # 0-d uint64 ops go through numpy's scalar path, which warns on the
    # intended wraparound; keep every field at least 1-d.
    *fields, last = (
        np.atleast_1d(np.asarray(f)).astype(np.uint64, copy=False) for f in (rows, cols, channels)
    )
    for field in fields:
        h = _mix(h, field)
    if out is not None:
        shape = seed_shape + field_shape or (1,)  # the broadcast shape of h and last
        out = out.reshape(-1).view(np.uint64)[: math.prod(shape)].reshape(shape)
    return _mix(h, last, out, scratch).reshape(seed_shape + field_shape)


def uniform_values(seed, purpose, scale, rows, cols, channels, out=None, scratch=None):
    """Uniform (0,1) draws for broadcast row/col/channel index arrays;
    with ``out`` and ``scratch`` (see ``raw64_values``) the draws are a
    float64 view of ``out`` and the call makes no array of their size.
    Each word maps to (k + 1) / (2^53 + 2), k its top 53 bits held in
    ``scratch``, in its own buffer viewed as float64 (the same size)."""
    words = raw64_values(seed, purpose, scale, rows, cols, channels, out, scratch)
    flat = words.reshape(-1)
    u = flat.view(np.float64)
    k = np.right_shift(flat, _SHIFT11, out=_scratch(scratch, flat.size))
    np.add(k, 1.0, out=u)  # k converts to float64 exactly (k < 2^53)
    u /= _DENOM
    return u.reshape(words.shape)


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
