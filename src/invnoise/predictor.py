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
it for another walk under the same condition.  Pushing a stack of S
token maps turns it into S walks that share that prefix (a leading seed
axis on the canvas and the logits).  Generation, inversion, replay and
editing all drive it; ``next_scale_logits`` is the one-shot form for a
given prefix, and ``generate`` samples a pyramid scale by scale with
keyed Gumbel-max draws.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

from .codec import (
    Codebook,
    ScaleSchedule,
    downsample_blockmean,
    embed_tokens,
    squared_distances,
    upsample_replicate,
    validate_pyramid,
)
from .errors import ValidationError
from .gumbel import sample_token_map
from .rng import (
    PURPOSE_CONDITION,
    PURPOSE_GENERATION,
    PURPOSE_MIXING,
    normal_values,
)


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


class ScaleStepper:
    """Next-scale logits for one pyramid under one condition, scale by scale.

    ``next_scale_logits`` gives the logits of the current scale,
    ``scale`` (1-based); ``push`` appends that scale's (h, w) token map
    and moves on.  The canvas adds the replicated embeddings in scale
    order onto zeros, the same sums a full prefix decode makes, so the
    logits match the one-shot form bit for bit, and after the last scale
    ``canvas`` is the decoded grid.  Pushing (S, h, w) maps gives the
    canvas, and every later logits array, a leading axis of S walks, each
    equal to its own single walk.  Tokens are taken as given: callers
    validate pyramids at their own boundary.
    """

    def __init__(self, cond: Condition, params: PredictorParams):
        self.params = params
        self.scale = 1
        self._target = params.cond_gain * (mixing_matrix(params) @ cond.embedding)
        self._canvas = np.zeros((params.codebook.dim, *params.schedule.finest))

    @property
    def canvas(self) -> np.ndarray:
        """(..., d, H, W) sum of the replicated embeddings pushed so far."""
        return self._canvas

    def next_scale_logits(self) -> np.ndarray:
        """(..., h, w, C) unnormalized log-probabilities for the current scale."""
        params = self.params
        shape = params.schedule.resolutions[self.scale - 1]
        context = self._target[:, None, None] - downsample_blockmean(self._canvas, shape)
        logits = squared_distances(np.moveaxis(context, -3, -1), params.codebook.vectors)
        logits *= -params.beta
        return logits

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


def next_scale_logits(
    prefix, cond: Condition, k: int, params: PredictorParams
) -> np.ndarray:
    """(h_k, w_k, C) unnormalized log-probabilities for scale k.

    Depends only on scales < k of ``prefix`` (which must contain exactly
    those scales), the condition, and the parameters.
    """
    schedule = params.schedule
    if not 1 <= k <= schedule.num_scales:
        raise ValidationError(f"scale index {k} outside 1..{schedule.num_scales}")
    stepper = ScaleStepper(cond, params)
    for tokens in validate_pyramid(prefix, params.codebook, schedule, k - 1):
        stepper.push(tokens)
    return stepper.next_scale_logits()


def generate(cond: Condition, params: PredictorParams, seed: int) -> list[np.ndarray]:
    """Sample a token pyramid under ``cond`` by keyed Gumbel-max draws,
    each scale conditioned on the scales drawn before it."""
    stepper = ScaleStepper(cond, params)
    pyramid = []
    for k in range(1, params.schedule.num_scales + 1):
        tokens = sample_token_map(stepper.next_scale_logits(), seed, PURPOSE_GENERATION, k)
        stepper.push(tokens)
        pyramid.append(tokens)
    return pyramid
