"""Deterministic toy next-scale predictor.

Logits for scale k are negative scaled squared distances between each
codebook vector and a per-cell context feature: the condition's target
feature minus the block-mean of the partial decode of scales < k.  The
predictor is therefore a pure function of (prefix tokens, condition,
scale, parameters): smooth in the prefix, sensitive to the condition,
and bitwise reproducible, which is what the inversion algebra needs.

:class:`ScaleStepper` walks the scales of one pyramid under one
condition.  It computes the condition's feature target once and keeps a
running decode of the scales pushed so far, so each scale costs one
embedding instead of a decode of the whole prefix, and ``fork`` copies
it for another walk under the same condition.  The pushed scales make
that decode constant over blocks, so it computes each scale's logits
once per block: the block logits, one cell per prefix block, with the
block factors (fh, fw) of cells that share them (see
``_block_factors``).  They are the one form of logits in the package.
Every cell of a block has its block's logits bit for bit, so a kernel
that reads the logits of each cell takes them one row block at a time,
broadcast over the block view of its cell rows (``_blocks.by_blocks``):
``argmax_tokens`` adds one row block of block logits to the matching
cell rows of a noise or a mix and keeps only the argmax, and the
inversion step subtracts and adds them the same way.  No full-size or
per-cell logits array is made.  Pushing a stack of S token maps turns
it into S walks that share that prefix (a leading seed axis on the
canvas and the logits).
Generation, inversion, replay and editing all drive it.  Generation
and replay are one sampling walk, ``sample_pyramid``: each scale's
tokens are argmax(p + n), one row block of noise at a time, reduced to
its argmax in cache, so no scale holds a whole noise field.
``generate`` walks keyed Gumbel draws (``gumbel.standard_rows``), the
replay a held noise set's maps, and the edit walk calls
``argmax_tokens`` in its own pass.
"""

from __future__ import annotations

import copy
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _blocks
from .codec import (
    Codebook,
    ScaleSchedule,
    downsample_blockmean,
    embed_tokens,
    squared_distances,
    upsample_replicate,
)
from .errors import ValidationError
from .gumbel import standard_rows
from .rng import (
    PURPOSE_CONDITION,
    PURPOSE_GENERATION,
    PURPOSE_MIXING,
    normal_values,
    seed_array,
)

# Logits stay within the float64 range divided by this, so that the sums
# the inversion and the edit mix make of a logit, an inverse noise and a
# Gumbel draw stay finite as well.
_LOGIT_HEADROOM = 4.0


@dataclass(frozen=True)
class Condition:
    """Unit-norm embedding derived deterministically from a text label."""

    embedding: np.ndarray
    label: str


@dataclass(frozen=True)
class PredictorParams:
    codebook: Codebook
    schedule: ScaleSchedule
    model_seed: int = 7
    beta: float = 4.0
    cond_gain: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValidationError("beta must be positive and finite")
        if not np.isfinite(self.cond_gain):
            raise ValidationError("cond_gain must be finite")
        seed_array((self.model_seed,))


def condition_embed(label: str, params: PredictorParams) -> Condition:
    """Seeded pseudo-random projection of the label digest, unit norm."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    w0 = int.from_bytes(digest[:8], "little")
    w1 = int.from_bytes(digest[8:16], "little")
    dims = np.arange(params.codebook.dim)
    gauss = normal_values(params.model_seed, PURPOSE_CONDITION, 0, w0, w1, dims)
    return Condition(embedding=gauss / np.linalg.norm(gauss), label=label)


def mixing_matrix(params: PredictorParams) -> np.ndarray:
    """Seeded (d, d) map from condition space to feature space."""
    d = params.codebook.dim
    rows = np.arange(d)[:, None]
    cols = np.arange(d)[None, :]
    return normal_values(params.model_seed, PURPOSE_MIXING, 0, rows, cols, 0) / np.sqrt(d)


def _check_logit_range(feature: np.ndarray, cond: Condition, params: PredictorParams):
    """Reject params whose logits under ``cond`` could overflow.

    A context cell is the condition target ``cond_gain * feature`` minus
    a block mean of at most K codebook vectors, so its distance to a
    codebook vector is at most |target_j| + (K + 1) m_j in channel j,
    with m_j the largest |v_j| of the codebook, whatever the prefix.
    The bound is summed in Python floats, which reach inf without a
    warning.
    """
    gain = abs(params.cond_gain)
    reach = params.schedule.num_scales + 1
    spans = np.abs(params.codebook.vectors).max(axis=0).tolist()
    worst = 0.0
    for f, m in zip(np.abs(feature).tolist(), spans):
        side = gain * f + reach * m
        worst += side * side
    if not params.beta * worst <= sys.float_info.max / _LOGIT_HEADROOM:
        raise ValidationError(
            f"beta {params.beta!r} and cond_gain {params.cond_gain!r} let the logits "
            f"under {cond.label!r} overflow"
        )


def _block_factors(schedule: ScaleSchedule) -> tuple[tuple[int, int], ...]:
    """Per scale, the (h / hc, w / wc) cells of it that share one prefix block.

    The scales before it make a canvas constant over the blocks of an
    (hc, wc) grid, hc and wc the lcm of their heights and widths.  Where
    hc divides h and wc divides w, every cell in one block averages the
    same values in the same order, so its logits equal the block's bit
    for bit.  The factor is 1 elsewhere, and where the grid is 1x1, since
    ``squared_distances`` sums a single cell in another order.
    """
    factors = []
    hc = wc = 1
    for h, w in schedule.resolutions:
        if hc * wc > 1 and h % hc == 0 and w % wc == 0:
            factors.append((h // hc, w // wc))
        else:
            factors.append((1, 1))
        hc, wc = math.lcm(hc, h), math.lcm(wc, w)
    return tuple(factors)


class ScaleStepper:
    """Next-scale logits for one pyramid under one condition, scale by scale.

    ``block_logits`` gives the logits of the current scale, ``scale``
    (1-based), as block logits and their block factors; ``push`` appends
    that scale's (h, w) token map and moves on.  The (..., d, H, W)
    ``canvas`` adds the replicated embeddings in scale order onto zeros,
    each push into a new array, the same sums a full prefix decode
    makes, so after the last scale it is the decoded grid.  Pushing
    (S, h, w) maps gives the canvas, and every later logits array, a
    leading axis of S walks, each equal to its own single walk.

    The canvas is constant over the blocks of the grid the pushed scales
    fix.  Where such a block holds several cells of the current scale,
    those cells average the same values in the same order, so their
    logits are equal bit for bit: ``block_logits`` computes them once
    per block, (h / fh, w / fw, C) for block factors (fh, fw).  No
    method returns the (h, w, C) logits of every cell.

    Tokens are taken as given: callers validate pyramids at their own
    boundary.  Construction rejects params whose logits under ``cond``
    could overflow, for any prefix, so no scale checks its logits.
    """

    def __init__(self, cond: Condition, params: PredictorParams):
        self.params = params
        self.scale = 1
        feature = mixing_matrix(params) @ cond.embedding
        _check_logit_range(feature, cond, params)
        self._target = params.cond_gain * feature
        self.canvas = np.zeros((params.codebook.dim, *params.schedule.finest))
        self._factors = _block_factors(params.schedule)

    def block_logits(self):
        """The current scale's (..., h / fh, w / fw, C) logits, one cell
        per prefix block, and its block factors (fh, fw)."""
        params = self.params
        h, w = params.schedule.resolutions[self.scale - 1]
        fh, fw = self._factors[self.scale - 1]
        context = self._target[:, None, None] - downsample_blockmean(self.canvas, (h, w))
        # one cell per prefix block
        cells = np.moveaxis(context[..., ::fh, ::fw], -3, -1)
        logits = squared_distances(cells, params.codebook.vectors)
        logits *= -params.beta
        return logits, (fh, fw)

    def push(self, tokens: np.ndarray):
        """Add the current scale's token map(s) to the context, as a new
        canvas array, and advance."""
        embedding = embed_tokens(tokens, self.params.codebook)
        self.canvas = self.canvas + upsample_replicate(embedding, self.params.schedule.finest)
        self.scale += 1

    def fork(self) -> "ScaleStepper":
        """An independent stepper at the same scale and context, sharing
        the condition's feature target and the canvas array, which no
        push changes in place."""
        return copy.copy(self)


def argmax_tokens(logits, factors: tuple[int, int], x, out, sums) -> None:
    """Write into ``out`` the (..., n, w) int32 argmax over the classes of
    one row block: the block ``logits`` (..., n / fh, w / fw, C),
    broadcast over the cells of their (fh, fw) ``factors``, plus the
    (..., n, w, C) cell rows ``x``, of any float dtype.

    The sums are taken in the flat float64 scratch ``sums``, which may
    hold ``x`` itself (``x`` is then overwritten): each row of prefix
    blocks broadcast over its cells plus ``x``, the same IEEE sums as
    the full logits plus ``x``.
    """
    shape = np.broadcast_shapes(x.shape, logits.shape[:-3] + x.shape[-3:])
    rows = sums[: math.prod(shape)].reshape(shape)
    blocks = _blocks.by_blocks(rows, factors)
    np.add(_blocks.by_blocks(x, factors), logits[..., :, None, :, None, :], out=blocks)
    out[...] = np.argmax(rows, axis=-1)


def sample_pyramid(cond: Condition, params: PredictorParams, noise_rows, blocks: int = 1):
    """The token pyramid of argmax(p + n) under ``cond``, each scale's
    logits p taken under the scales sampled before it: the one sampling
    walk of generation and replay.

    Each scale k is one row-block pass whose body adds the block logits
    to ``noise_rows(k, lo, hi, buf)``, the (hi - lo, w, C) cell rows
    lo:hi of the scale's noise, and keeps the argmax.  ``buf`` is the
    driver's list of ``blocks`` flat float64 blocks of a row block; the
    first holds the sums, so a noise written there is summed in place.
    """
    stepper = ScaleStepper(cond, params)
    c = params.codebook.size
    pyramid = []
    for k, (h, w) in enumerate(params.schedule.resolutions, start=1):
        logits, factors = stepper.block_logits()
        fh = factors[0]
        tokens = np.empty((h, w), dtype=np.int32)

        def argmax_rows(b, e, buf):
            lo, hi = b * fh, e * fh
            argmax_tokens(logits[b:e], factors, noise_rows(k, lo, hi, buf), tokens[lo:hi], buf[0])

        _blocks.for_row_blocks(argmax_rows, h // fh, h * w * c, (np.float64,) * blocks)
        del logits  # before the push and the next scale's logits
        stepper.push(tokens)
        pyramid.append(tokens)
    return pyramid


def generate(cond: Condition, params: PredictorParams, seed: int) -> list[np.ndarray]:
    """Sample a token pyramid under ``cond`` by keyed Gumbel-max draws,
    each row block of a scale drawn and reduced to its argmax in the
    pass's blocks."""
    seed_array((seed,))
    c = params.codebook.size

    def draws(k, lo, hi, buf):
        w = params.schedule.resolutions[k - 1][1]
        return standard_rows(seed, PURPOSE_GENERATION, k, lo, hi, w, c, *buf)

    return sample_pyramid(cond, params, draws, blocks=2)
