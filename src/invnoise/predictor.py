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
that reads the logits of each cell takes them one row block at a time:
``argmax_tokens`` adds one row block of block logits to the matching
cell rows of a noise or a mix and keeps only the argmax, and the
inversion spreads them in scratch (``_blocks.spread_rows``).  No
full-size logits array is made.  Pushing a stack of S token maps turns
it into S walks that share that prefix (a leading seed axis on the
canvas and the logits).
Generation, inversion, replay and editing all drive it.  ``generate``
samples a pyramid scale by scale with keyed Gumbel-max draws, each row
block drawn (``gumbel.standard_rows``) and reduced to its argmax in
cache, so no scale holds a whole noise field; the replay's
``next_scale_tokens(x)`` reads a held noise map by the same row blocks,
and the edit walk calls ``argmax_tokens`` in its own pass.
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
    (1-based), as block logits and their block factors, and
    ``next_scale_tokens(x)`` the argmax of those logits plus ``x``;
    ``push`` appends that scale's (h, w) token map and moves on.  The
    canvas adds the replicated embeddings in scale order onto zeros, the
    same sums a full prefix decode makes, so after the last scale
    ``canvas`` is the decoded grid.  Pushing (S, h, w) maps gives the
    canvas, and every later logits array, a leading axis of S walks,
    each equal to its own single walk.

    The canvas is constant over the blocks of the grid the pushed scales
    fix.  Where such a block holds several cells of the current scale,
    those cells average the same values in the same order, so their
    logits are equal bit for bit: ``block_logits`` computes them once
    per block, (h / fh, w / fw, C) for block factors (fh, fw), and
    ``next_scale_tokens`` adds them to ``x`` one row block at a time.
    No method returns the (h, w, C) logits of every cell.

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
        self._canvas = np.zeros((params.codebook.dim, *params.schedule.finest))
        self._factors = _block_factors(params.schedule)

    @property
    def canvas(self) -> np.ndarray:
        """(..., d, H, W) sum of the replicated embeddings pushed so far."""
        return self._canvas

    def next_scale_tokens(self, x: np.ndarray) -> np.ndarray:
        """(..., h, w) int32 argmax over the classes of the current
        scale's logits plus an (..., h, w, C) ``x`` of any float dtype,
        which is not modified, one row block at a time."""
        logits, factors = self.block_logits()
        shape = np.broadcast_shapes(x.shape, logits.shape[:-3] + x.shape[-3:])
        return _tokens_by_rows(logits, factors, shape, lambda lo, hi, _: x[..., lo:hi, :, :])

    def block_logits(self):
        """The current scale's (..., h / fh, w / fw, C) logits, one cell
        per prefix block, and its block factors (fh, fw)."""
        params = self.params
        h, w = params.schedule.resolutions[self.scale - 1]
        fh, fw = self._factors[self.scale - 1]
        context = self._target[:, None, None] - downsample_blockmean(self._canvas, (h, w))
        # one cell per prefix block
        cells = np.moveaxis(context[..., ::fh, ::fw], -3, -1)
        logits = squared_distances(cells, params.codebook.vectors)
        logits *= -params.beta
        return logits, (fh, fw)

    def push(self, tokens: np.ndarray):
        """Add the current scale's token map(s) to the context; advance."""
        embedding = embed_tokens(tokens, self.params.codebook)
        replicated = upsample_replicate(embedding, self.params.schedule.finest)
        if replicated.shape == self._canvas.shape:
            self._canvas += replicated
        else:  # the first stack of maps adds the seed axis
            self._canvas = self._canvas + replicated
        self.scale += 1

    def fork(self) -> "ScaleStepper":
        """An independent stepper at the same scale and context, sharing
        the condition's feature target."""
        other = copy.copy(self)
        other._canvas = self._canvas.copy()
        return other


def argmax_tokens(logits, factors: tuple[int, int], x, out, sums) -> None:
    """Write into ``out`` the (..., n, w) int32 argmax over the classes of
    one row block: the block ``logits`` (..., n / fh, w / fw, C), spread
    over their (fh, fw) ``factors``, plus the (..., n, w, C) cell rows
    ``x``, of any float dtype.

    The sums are taken in the flat float64 scratch ``sums``, which may
    hold ``x`` itself (``x`` is then overwritten): each row of prefix
    blocks broadcast over its cells plus ``x``, the same IEEE sums as
    the full logits plus ``x``.
    """
    fh, fw = factors
    *lead, n, w, c = np.broadcast_shapes(x.shape, logits.shape[:-3] + x.shape[-3:])
    blocks = (n // fh, fh, w // fw, fw, c)
    rows = sums[: math.prod(lead) * n * w * c].reshape(*lead, *blocks)
    np.add(x.reshape(*x.shape[:-3], *blocks), logits[..., :, None, :, None, :], out=rows)
    out[...] = np.argmax(rows.reshape(*lead, n, w, c), axis=-1)


def _tokens_by_rows(logits, factors, shape, noise_rows, blocks: int = 1) -> np.ndarray:
    """(..., h, w) int32 tokens of an (..., h, w, C) ``shape``: the
    argmax of the block logits plus ``noise_rows(lo, hi, buf)``, the cell
    rows lo:hi of a noise, one row block at a time.  ``buf`` is a list of
    ``blocks`` flat float64 arrays of a row block, one list per thread;
    the first holds the sums, so a noise written there is summed in
    place."""
    fh = factors[0]
    *lead, h, w, c = shape
    tokens = np.empty((*lead, h, w), dtype=np.int32)

    def argmax_rows(b, e, buf):
        rows = slice(b * fh, e * fh)
        x = noise_rows(rows.start, rows.stop, buf)
        argmax_tokens(logits[..., b:e, :, :], factors, x, tokens[..., rows, :], buf[0])

    size = math.prod(shape)

    def scratch(step):
        return [np.empty(size // h * step * fh) for _ in range(blocks)]

    _blocks.for_row_blocks(argmax_rows, h // fh, size, scratch)
    return tokens


def generate(cond: Condition, params: PredictorParams, seed: int) -> list[np.ndarray]:
    """Sample a token pyramid under ``cond`` by keyed Gumbel-max draws,
    each scale conditioned on the scales drawn before it, each row block
    of a scale drawn and reduced to its argmax in scratch."""
    seed_array((seed,))
    stepper = ScaleStepper(cond, params)
    pyramid = []
    c = params.codebook.size
    for k, (h, w) in enumerate(params.schedule.resolutions, start=1):
        tokens = _tokens_by_rows(
            *stepper.block_logits(),
            (h, w, c),
            lambda lo, hi, buf: standard_rows(seed, PURPOSE_GENERATION, k, lo, hi, w, c, *buf),
            blocks=2,
        )
        stepper.push(tokens)
        pyramid.append(tokens)
    return pyramid
