"""Toy multi-scale residual-quantization codec.

A continuous d-channel feature grid is encoded into a pyramid of token
maps at increasing resolutions: at each scale the current residual is
block-mean downsampled, each coarse cell is snapped to the nearest
codebook vector, and the replicated embedding is subtracted from the
residual.  Decoding sums the replicated embeddings back up.

Block-mean down / replicate up (rather than any smooth resampler) makes
the per-scale residual energy provably non-increasing as long as the
codebook contains the zero vector, which this codec pins at entry 0.
``squared_distances``, which serves the predictor's logits, sums row
blocks of :mod:`invnoise._blocks`, with the bytes of a whole-array sum.
The encoder keeps only the index of the nearest codeword, so
its search (``quantize_cells``) ranks each row block by one BLAS
product with a proven error bound and sums the exact distances only
for the cells that bound cannot separate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blocks import for_row_blocks
from .errors import ValidationError
from .rng import PURPOSE_CODEBOOK, normal_values, seed_array, uniform_values


@dataclass(frozen=True)
class ScaleSchedule:
    """Ordered (h, w) resolutions, coarsest to finest.

    Every coarser resolution must divide the finest exactly so block
    up/downsampling is well defined.
    """

    resolutions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.resolutions:
            raise ValidationError("schedule needs at least one scale")
        object.__setattr__(
            self, "resolutions", tuple((int(h), int(w)) for h, w in self.resolutions)
        )
        hk, wk = self.resolutions[-1]
        prev = (0, 0)
        for h, w in self.resolutions:
            if h <= 0 or w <= 0:
                raise ValidationError("resolutions must be positive")
            if h < prev[0] or w < prev[1]:
                raise ValidationError("resolutions must be non-decreasing")
            if hk % h or wk % w:
                raise ValidationError(
                    f"finest resolution {(hk, wk)} not divisible by {(h, w)}"
                )
            prev = (h, w)

    @property
    def num_scales(self) -> int:
        return len(self.resolutions)

    @property
    def finest(self) -> tuple[int, int]:
        return self.resolutions[-1]


@dataclass(frozen=True)
class Codebook:
    """(C, d) embedding table with entry 0 pinned to the zero vector."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 1:
            raise ValidationError("codebook must be (C, d) with C >= 2 and d >= 1")
        if not np.all(np.isfinite(v)):
            raise ValidationError("codebook entries must be finite")
        if np.any(v[0] != 0.0):
            raise ValidationError("codebook entry 0 must be the zero vector")
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def default_codebook(size: int = 64, dim: int = 4, seed: int = 101) -> Codebook:
    """Entry 0 zero, remaining entries drawn uniformly in the unit ball."""
    if size < 2:
        raise ValidationError("codebook size must be >= 2")
    if dim < 1:
        raise ValidationError("codebook dim must be >= 1")
    seed_array((seed,))
    entries = np.arange(1, size)[:, None]
    dims = np.arange(dim)[None, :]
    gauss = normal_values(seed, PURPOSE_CODEBOOK, 0, entries, 0, dims)
    radii_u = uniform_values(seed, PURPOSE_CODEBOOK, 1, entries, 0, 0)
    norms = np.linalg.norm(gauss, axis=1, keepdims=True)
    vectors = np.zeros((size, dim))
    vectors[1:] = gauss / norms * radii_u ** (1.0 / dim)
    return Codebook(vectors)


def downsample_blockmean(grid: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Average (..., H, W) over non-overlapping blocks down to (..., h, w).

    Leading axes are folded into one, so a C-ordered stack of grids
    averages each block in the same order as each C-ordered (d, H, W)
    grid of it does on its own.  Shapes are taken as given: callers pass
    resolutions of a ``ScaleSchedule``, which checked that they divide.
    """
    *lead, big_h, big_w = grid.shape
    h, w = target
    fh, fw = big_h // h, big_w // w
    return grid.reshape(-1, h, fh, w, fw).mean(axis=(2, 4)).reshape(*lead, h, w)


def upsample_replicate(grid: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    """Replicate (..., h, w) up to (..., H, W) by block copy; shapes as in
    ``downsample_blockmean``."""
    h, w = grid.shape[-2:]
    big_h, big_w = target
    return np.repeat(np.repeat(grid, big_h // h, axis=-2), big_w // w, axis=-1)


def squared_distances(cells: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Squared distance from each (..., h, w, d) cell to each (C, d) vector.

    Returns a C-ordered (..., h, w, C) array: the predictor's logits,
    and the encoder's distances at a single cell.  The d squared
    differences are summed in channel order.  The predictor passes cells
    as ``np.moveaxis`` views of (..., d, h, w) grids; on that layout
    ``einsum("hwcd,hwcd->hwc")`` over the (h, w, C, d) difference tensor
    also adds whole channel planes in order, so this loop matches it bit
    for bit without building that tensor.  The squared differences stay
    in cache between the channel passes of a row block.  At a single
    cell einsum sums the d products in another order (the results
    differ in the last bit), so that case keeps the einsum, one (1, 1)
    map at a time.
    """
    *lead, h, w, d = cells.shape
    c = vectors.shape[0]
    if lead:
        if h * w == 1:
            maps = [squared_distances(m, vectors) for m in cells.reshape(-1, 1, 1, d)]
            return np.stack(maps).reshape(*lead, 1, 1, c)
        # the rows of all maps in one pass (a copy when cells is a view)
        return squared_distances(cells.reshape(-1, w, d), vectors).reshape(*lead, h, w, c)
    if h * w == 1:
        diffs = cells[:, :, None, :] - vectors[None, None, :, :]
        return np.einsum("hwcd,hwcd->hwc", diffs, diffs)
    out = np.empty((h, w, c))
    columns = vectors.T.copy()

    def sum_rows(lo, hi, buf):
        diff = buf[0][: (hi - lo) * w * c].reshape(hi - lo, w, c)
        _sum_squares(out[lo:hi], cells[lo:hi], columns, diff)

    for_row_blocks(sum_rows, h, h * w * c)
    return out


def _sum_squares(out, cells, columns, diff) -> None:
    """Write into ``out`` the sum of the squared (h, w, C) differences of
    (h, w, d) cells to the (d, C) columns, channel by channel; ``diff``
    is scratch of out's shape.  These are the exact distances of
    ``squared_distances`` and of the encoder's uncertain cells.  The
    first channel's squares are written as they are: each is at least
    +0.0, and +0.0 + x == x, so the sums have the bits of sums started
    from zeros."""
    np.subtract(cells[:, :, 0, None], columns[0], out=out)
    out *= out
    for j in range(1, columns.shape[0]):
        np.subtract(cells[:, :, j, None], columns[j], out=diff)
        diff *= diff
        out += diff


# Cells with |x|^2 + max |v|^2 at or above this fall back to the exact
# distances: below it no distance the certificate compares overflows.
_SEARCH_LIMIT = 2.0**1021


def quantize_cells(cells: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Nearest codebook index per (h, w, d) cell; ties go to the lowest index.

    The index is the argmin of the exact distances D_c, the channel-order
    sums of ``squared_distances``.  A single cell takes them from
    ``squared_distances`` (its einsum).  A larger map is searched by row
    blocks, each ranked by one BLAS product into the pass's block:
    A_c = x . (-2 v_c) + |v_c|^2, which is D_c - |x|^2.  A cell keeps the
    argmin b of A when the second-smallest A exceeds A_b + E, with

        E = 2^-49 (d + 2) (|x|^2 + M + 1),  M = max_c |v_c|^2;

    every other cell gets its D from ``_sum_squares`` and takes its
    argmin.

    Why a kept index is the exact argmin.  With u = 2^-53 and g_n =
    n u / (1 - n u), a dot product of length d has error at most g_d
    sum_j |x_j y_j| in any summation order, with or without FMA.  So
    the product (-2 v is exact) is within g_d (|x|^2 + |v_c|^2) of
    -2 x . v_c, |v_c|^2 within g_d |v_c|^2, and their rounded sum, at
    most (1 + g_d) (|x|^2 + 2 |v_c|^2) in size, within e2 := 2 g_{d+1}
    (|x|^2 + M) of D_c - |x|^2.  Each term of D_c, a rounded difference
    squared and rounded, has relative error g_3, and the d - 1 additions
    of non-negative terms add g_{d-1}; as |x - v_c|^2 <= 2 (|x|^2 +
    |v_c|^2), the computed D_c is within e1 := 2 g_{d+2} (|x|^2 + M) of
    |x - v_c|^2.  If A_c > A_b + E for every c != b, then |x - v_b|^2 <
    |x - v_c|^2 - E + 2 e2, and the computed D_b < D_c - E + 2 e2 + 2 e1.
    2 (e1 + e2) <= 8 g_{d+2} (|x|^2 + M), about 2^-50 (d + 2) (|x|^2 +
    M), and E is twice that: at least twice the worst-case error of the
    two formulas together, with room for the roundings of |x|^2, M, E
    and A_b + E.  The + 1 covers underflow, whose absolute error is below
    2^-1074 per operation.  So D_b is the strict minimum of the exact
    sums.  A cell with |x|^2 + M >= 2^1021 falls back (E = inf), so no
    value in this argument overflows.  The test is ``second > best +
    E``, which is false for a NaN or infinite result, so those fall back
    too.
    """
    h, w, d = cells.shape
    vectors = codebook.vectors
    if h * w == 1:
        return np.argmin(squared_distances(cells, vectors), axis=-1).astype(np.int32)
    c = vectors.shape[0]
    x = cells.reshape(h * w, d)  # C-ordered (a copy when cells is a view)
    weights = -2.0 * vectors.T
    norms = (vectors * vectors).sum(axis=1)
    scale = (x * x).sum(axis=1) + norms.max()
    error = (2.0**-49 * (d + 2)) * (scale + 1.0)
    error[scale >= _SEARCH_LIMIT] = np.inf
    columns = vectors.T.copy()
    tokens = np.empty(h * w, dtype=np.int32)

    def search(lo, hi, buf):
        cell = slice(lo * w, hi * w)
        n = cell.stop - cell.start
        ranks = np.matmul(x[cell], weights, out=buf[0][: n * c].reshape(n, c))
        ranks += norms
        best = ranks.argmin(axis=1)
        at_best = (np.arange(n), best)
        low = ranks[at_best]
        ranks[at_best] = np.inf
        tokens[cell] = best
        near = np.flatnonzero(~(ranks.min(axis=1) > low + error[cell]))
        if near.size:
            near += cell.start
            exact = buf[0][: near.size * c].reshape(1, near.size, c)
            _sum_squares(exact, x[near][None], columns, np.empty_like(exact))
            tokens[near] = exact[0].argmin(axis=1)

    for_row_blocks(search, h, h * w * c)
    return tokens.reshape(h, w)


def embed_tokens(tokens: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Token map (..., h, w) to its (..., d, h, w) embedding.

    Tokens are taken as given: callers pass maps validated at their own
    boundary or produced by ``quantize_cells`` or an argmax.
    """
    return np.moveaxis(codebook.vectors[tokens], -1, -3)


def validate_grid(grid: np.ndarray, codebook: Codebook, schedule: ScaleSchedule):
    grid = np.asarray(grid, dtype=np.float64)
    expect = (codebook.dim, *schedule.finest)
    if grid.shape != expect:
        raise ValidationError(f"grid shape {grid.shape}, expected {expect}")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("grid values must be finite")
    return grid


def validate_pyramid(pyramid, codebook: Codebook, schedule: ScaleSchedule):
    """Check a pyramid against the schedule and codebook; returns the maps
    as int32 arrays."""
    if len(pyramid) != schedule.num_scales:
        raise ValidationError(
            f"pyramid has {len(pyramid)} scales, expected {schedule.num_scales}"
        )
    out = []
    for tokens, (h, w) in zip(pyramid, schedule.resolutions):
        tokens = np.asarray(tokens)
        if tokens.shape != (h, w):
            raise ValidationError(f"token map shape {tokens.shape}, expected {(h, w)}")
        if not np.issubdtype(tokens.dtype, np.integer):
            raise ValidationError("token maps must be integer arrays")
        if np.any(tokens < 0) or np.any(tokens >= codebook.size):
            raise ValidationError("token index out of codebook range")
        out.append(tokens.astype(np.int32, copy=False))
    return out


def encode(grid: np.ndarray, codebook: Codebook, schedule: ScaleSchedule) -> list[np.ndarray]:
    """Feature grid -> token pyramid (one (h, w) int map per scale)."""
    residual = validate_grid(grid, codebook, schedule).copy()
    finest = schedule.finest
    pyramid = []
    for h, w in schedule.resolutions:
        coarse = downsample_blockmean(residual, (h, w))
        tokens = quantize_cells(np.moveaxis(coarse, 0, -1), codebook)
        residual -= upsample_replicate(embed_tokens(tokens, codebook), finest)
        pyramid.append(tokens)
    return pyramid


def decode(pyramid, codebook: Codebook, schedule: ScaleSchedule) -> np.ndarray:
    """Token pyramid -> feature grid: sum of replicated embeddings."""
    maps = validate_pyramid(pyramid, codebook, schedule)
    finest = schedule.finest
    out = np.zeros((codebook.dim, *finest))
    for tokens in maps:
        out += upsample_replicate(embed_tokens(tokens, codebook), finest)
    return out
