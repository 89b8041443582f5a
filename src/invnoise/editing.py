"""Prompt-conditioned editing of token pyramids.

Three pipelines over one sampling loop, which walks the scales with a
:class:`~invnoise.predictor.ScaleStepper` under the target condition:

* regeneration: copy scales below the start scale from the source
  encoding, then sample the rest under the target condition with fresh
  Gumbel noise.
* noise-guided editing: additionally extract inverse noise from the
  source (under the source condition) and sample each edited scale from
  argmax(p + (1 - lambda) * g + lambda * n).  lambda = 1 replays the
  source tokens exactly; lambda = 0 collapses to regeneration.
* target-only variant: same pipeline, but the inverse noise is
  extracted under the target condition as well, with a lower default
  margin.

Fresh edit noise draws use their own purpose tag, so the lambda = 0
endpoint matches regeneration bit for bit under a shared seed.  The
context of each edited scale is the edited scales before it
(generated-prefix) or the source scales before it (source-prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .codec import decode, encode
from .errors import ValidationError
from .gumbel import standard_field
from .inversion import KIND_LAI, InverseNoiseSet, invert_pyramid, validate_noise_set
from .predictor import Condition, PredictorParams, ScaleStepper, condition_embed
from .rng import PURPOSE_EDIT_NOISE

CONTEXT_GENERATED = "generated-prefix"
CONTEXT_SOURCE = "source-prefix"

DEFAULT_TAU = 18.0
# The target-only pipeline works best with a smaller margin; 12 sits in
# the middle of its useful range.
TARGET_ONLY_DEFAULT_TAU = 12.0


def default_start_scale(num_scales: int) -> int:
    """Map the reference default (6 of 14 scales) onto a schedule."""
    return max(1, min(num_scales, round(6 * num_scales / 14)))


@dataclass(frozen=True)
class LambdaSchedule:
    """Per-scale interpolation weight between fresh and inverse noise.

    ``linear`` ramps from 1 at the start scale down to 0 at the final
    scale (a single-scale edit range pins it at 1).  ``constant`` holds
    a fixed value in [0, 1].
    """

    kind: str = "linear"
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "constant"):
            raise ValidationError(f"unknown lambda schedule kind {self.kind!r}")
        if self.kind == "constant" and not (0.0 <= self.value <= 1.0):
            raise ValidationError("constant lambda must lie in [0, 1]")


def lambda_at(schedule: LambdaSchedule, k: int, start_scale: int, final_scale: int) -> float:
    """Interpolation weight for scale k within [start_scale, final_scale]."""
    if not start_scale <= k <= final_scale:
        raise ValidationError(
            f"scale {k} outside edit range [{start_scale}, {final_scale}]"
        )
    if schedule.kind == "constant":
        return schedule.value
    if final_scale == start_scale:
        return 1.0
    lam = 1.0 - (k - start_scale) / (final_scale - start_scale)
    return min(1.0, max(0.0, lam))


@dataclass(frozen=True)
class EditConfig:
    source_label: str = ""
    target_label: str = ""
    start_scale: Optional[int] = None  # None -> default_start_scale(K)
    tau: Optional[float] = None  # None -> pipeline default
    lambda_schedule: LambdaSchedule = LambdaSchedule()
    seed: int = 0
    context_mode: str = CONTEXT_GENERATED

    def __post_init__(self):
        if self.context_mode not in (CONTEXT_GENERATED, CONTEXT_SOURCE):
            raise ValidationError(f"unknown context mode {self.context_mode!r}")
        if self.tau is not None and not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValidationError("tau must be a non-negative finite real")

    def resolved(self, num_scales: int, default_tau: float = DEFAULT_TAU) -> "EditConfig":
        out = self
        if out.start_scale is None:
            out = replace(out, start_scale=default_start_scale(num_scales))
        if not 1 <= out.start_scale <= num_scales:
            raise ValidationError(
                f"start scale {out.start_scale} outside 1..{num_scales}"
            )
        if out.tau is None:
            out = replace(out, tau=default_tau)
        return out


@dataclass(frozen=True)
class EditResult:
    pyramid: tuple
    grid: np.ndarray
    lambdas: tuple  # per scale; NaN for scales copied from the source
    change_fraction: tuple  # per scale, vs the source encoding
    source_pyramid: tuple


def _run_edit_loop(
    source_pyramid,
    target_cond: Condition,
    params: PredictorParams,
    start_scale: int,
    seed: int,
    noises: Optional[tuple],
    lambdas_by_scale: dict[int, float],
    context_mode: str,
) -> EditResult:
    stepper = ScaleStepper(target_cond, params)
    edited = []
    lambdas = [float("nan")] * (start_scale - 1)
    for t, source_tokens in enumerate(source_pyramid, start=1):
        if t < start_scale:
            tokens = np.array(source_tokens, copy=True)
        else:
            logits = stepper.next_scale_logits()
            # logits + ((1 - lam) * g + lam * n), built in place
            mixed = standard_field(seed, PURPOSE_EDIT_NOISE, t, logits.shape)
            lam = lambdas_by_scale[t]
            if noises is not None:
                mixed *= 1.0 - lam
                mixed += lam * noises[t - 1]
            mixed += logits
            tokens = np.argmax(mixed, axis=-1).astype(np.int32)
            lambdas.append(lam)
        stepper.push(tokens if context_mode == CONTEXT_GENERATED else source_tokens)
        edited.append(tokens)
    change = tuple(
        float(np.mean(np.asarray(a) != np.asarray(b)))
        for a, b in zip(edited, source_pyramid)
    )
    return EditResult(
        pyramid=tuple(edited),
        grid=decode(edited, params.codebook, params.schedule),
        lambdas=tuple(lambdas),
        change_fraction=change,
        source_pyramid=tuple(np.asarray(t) for t in source_pyramid),
    )


def _noise_guided_edit(
    source_grid: np.ndarray,
    cfg: EditConfig,
    inversion_label: str,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet],
) -> EditResult:
    """Edit with a resolved config; extract the inverse noise under
    ``inversion_label`` when no noise set is given."""
    num_scales = params.schedule.num_scales
    source_pyramid = encode(source_grid, params.codebook, params.schedule)
    if noise_set is None:
        cond = condition_embed(inversion_label, params)
        noise_set = invert_pyramid(source_pyramid, cond, cfg.tau, params, cfg.seed, kind=KIND_LAI)
    else:
        validate_noise_set(noise_set, params)
    target_cond = condition_embed(cfg.target_label, params)
    lambdas = {
        t: lambda_at(cfg.lambda_schedule, t, cfg.start_scale, num_scales)
        for t in range(cfg.start_scale, num_scales + 1)
    }
    return _run_edit_loop(
        source_pyramid,
        target_cond,
        params,
        cfg.start_scale,
        cfg.seed,
        noise_set.noises,
        lambdas,
        cfg.context_mode,
    )


def edit_with_inverse_noise(
    source_grid: np.ndarray,
    config: EditConfig,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet] = None,
) -> EditResult:
    """Noise-guided edit: invert under the source condition, then sample
    edited scales under the target condition with interpolated noise."""
    cfg = config.resolved(params.schedule.num_scales)
    return _noise_guided_edit(source_grid, cfg, cfg.source_label, params, noise_set)


def edit_regeneration(
    source_grid: np.ndarray,
    target_label: str,
    start_scale: int,
    params: PredictorParams,
    seed: int,
) -> EditResult:
    """Baseline: copy scales < start_scale, regenerate the rest fresh.

    ``start_scale = K + 1`` performs no regeneration at all and returns
    the source encoding unchanged.
    """
    num_scales = params.schedule.num_scales
    if not 1 <= start_scale <= num_scales + 1:
        raise ValidationError(f"start scale {start_scale} outside 1..{num_scales + 1}")
    source_pyramid = encode(source_grid, params.codebook, params.schedule)
    target_cond = condition_embed(target_label, params)
    lambdas = {t: 0.0 for t in range(start_scale, num_scales + 1)}
    return _run_edit_loop(
        source_pyramid,
        target_cond,
        params,
        start_scale,
        seed,
        None,
        lambdas,
        CONTEXT_GENERATED,
    )


def edit_target_only(
    source_grid: np.ndarray,
    config: EditConfig,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet] = None,
) -> EditResult:
    """Variant that extracts the inverse noise under the target condition."""
    cfg = config.resolved(params.schedule.num_scales, default_tau=TARGET_ONLY_DEFAULT_TAU)
    return _noise_guided_edit(source_grid, cfg, cfg.target_label, params, noise_set)
