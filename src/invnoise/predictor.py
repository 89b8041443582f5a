"""Deterministic toy next-scale predictor.

Logits for scale k are negative scaled squared distances between each
codebook vector and a per-cell context feature: the condition's target
feature minus the block-mean of the partial decode of scales < k.  The
predictor is therefore a pure function of (prefix tokens, condition,
scale, parameters): smooth in the prefix, sensitive to the condition,
and bitwise reproducible, which is what the inversion algebra needs.

``generate`` samples a pyramid scale by scale with keyed Gumbel-max
draws, optionally continuing from a fixed prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .codec import (
    Codebook,
    ScaleSchedule,
    downsample_blockmean,
    partial_decode,
    squared_distances,
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


def _validate_prefix(prefix, params: PredictorParams, upto: int):
    maps = list(prefix)
    if len(maps) != upto:
        raise ValidationError(f"prefix has {len(maps)} scales, expected {upto}")
    for tokens, (h, w) in zip(maps, params.schedule.resolutions):
        tokens = np.asarray(tokens)
        if tokens.shape != (h, w):
            raise ValidationError(f"prefix map shape {tokens.shape}, expected {(h, w)}")
    return maps


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
    maps = _validate_prefix(prefix, params, k - 1)
    h, w = schedule.resolutions[k - 1]
    target = params.cond_gain * (mixing_matrix(params) @ cond.embedding)
    context = np.broadcast_to(target[:, None, None], (params.codebook.dim, h, w)).copy()
    if maps:
        context -= downsample_blockmean(
            partial_decode(maps, params.codebook, schedule), (h, w)
        )
    logits = squared_distances(np.moveaxis(context, 0, -1), params.codebook.vectors)
    logits *= -params.beta
    return logits


def generate(
    cond: Condition,
    params: PredictorParams,
    seed: int,
    prefix=None,
    start_scale: int = 1,
    noise_purpose: int = PURPOSE_GENERATION,
) -> list[np.ndarray]:
    """Sample a token pyramid under ``cond``.

    Scales < ``start_scale`` are copied from ``prefix``; scales >=
    ``start_scale`` are drawn by Gumbel-max over the next-scale logits,
    each conditioned on everything already fixed or drawn.
    ``start_scale = K + 1`` copies the prefix unchanged.
    """
    num_scales = params.schedule.num_scales
    if not 1 <= start_scale <= num_scales + 1:
        raise ValidationError(
            f"start scale {start_scale} outside 1..{num_scales + 1}"
        )
    maps = _validate_prefix(prefix if prefix is not None else [], params, start_scale - 1)
    pyramid = [np.asarray(t).astype(np.int32, copy=True) for t in maps]
    for k in range(start_scale, num_scales + 1):
        logits = next_scale_logits(pyramid, cond, k, params)
        pyramid.append(sample_token_map(logits, seed, noise_purpose, k))
    return pyramid
