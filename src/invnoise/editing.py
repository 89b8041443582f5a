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

``edit_batch`` is the one entry point: it edits one source under
several configs that share a seed and labels (one seed of a sweep),
encoding, embedding and inverting once for all of them.  The three
single-edit functions are its one-config form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .codec import decode, encode
from .errors import ValidationError
from .gumbel import standard_field
from .inversion import KIND_LAI, InverseNoiseSet, invert_pyramids, validate_noise_set
from .predictor import Condition, PredictorParams, ScaleStepper, condition_embed
from .rng import PURPOSE_EDIT_NOISE

CONTEXT_GENERATED = "generated-prefix"
CONTEXT_SOURCE = "source-prefix"

MODE_VARIN = "varin"
MODE_REGEN = "regen"
MODE_TARGET_ONLY = "target-only"
EDIT_MODES = (MODE_VARIN, MODE_REGEN, MODE_TARGET_ONLY)

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


@dataclass(frozen=True)
class _Plan:
    """What one edit does once its config is resolved for a mode."""

    start_scale: int
    lambdas: tuple  # per edited scale, start_scale..K
    context_mode: str
    tau: Optional[float]  # inversion margin; None for regeneration


def _plan(cfg: EditConfig, mode: str, num_scales: int) -> _Plan:
    if mode == MODE_REGEN:
        # regeneration admits start_scale = K + 1 (no scales regenerated)
        start = cfg.start_scale
        if start is None:
            start = default_start_scale(num_scales)
        if not 1 <= start <= num_scales + 1:
            raise ValidationError(f"start scale {start} outside 1..{num_scales + 1}")
        return _Plan(start, (0.0,) * (num_scales + 1 - start), CONTEXT_GENERATED, None)
    default_tau = TARGET_ONLY_DEFAULT_TAU if mode == MODE_TARGET_ONLY else DEFAULT_TAU
    cfg = cfg.resolved(num_scales, default_tau)
    lambdas = tuple(
        lambda_at(cfg.lambda_schedule, t, cfg.start_scale, num_scales)
        for t in range(cfg.start_scale, num_scales + 1)
    )
    return _Plan(cfg.start_scale, lambdas, cfg.context_mode, cfg.tau)


def _run_edit_loop(
    source_pyramid,
    target_cond: Condition,
    params: PredictorParams,
    seed: int,
    plans: list[_Plan],
    noises: dict,
) -> list[EditResult]:
    """Walk the scales once for all plans, in step.

    Each plan has its own stepper (forked from one, so the condition's
    feature target is built once).  A scale's fresh Gumbel field is drawn
    once and shared: every plan but the last that edits the scale mixes
    into a copy, the last into the field itself.
    """
    base = ScaleStepper(target_cond, params)
    steppers = [base] + [base.fork() for _ in plans[1:]]
    edited = [[] for _ in plans]
    vocab = params.codebook.size
    for t, source_tokens in enumerate(source_pyramid, start=1):
        active = [i for i, plan in enumerate(plans) if plan.start_scale <= t]
        if active:
            h, w = params.schedule.resolutions[t - 1]
            fresh = standard_field(seed, PURPOSE_EDIT_NOISE, t, (h, w, vocab))
        for i, (plan, stepper) in enumerate(zip(plans, steppers)):
            if t < plan.start_scale:
                tokens = np.array(source_tokens, copy=True)
            else:
                logits = stepper.next_scale_logits()
                # logits + ((1 - lam) * g + lam * n), built in place
                mixed = fresh if i == active[-1] else fresh.copy()
                lam = plan.lambdas[t - plan.start_scale]
                noise = noises[plan.tau]
                if noise is not None:
                    mixed *= 1.0 - lam
                    mixed += lam * noise[t - 1]
                mixed += logits
                tokens = np.argmax(mixed, axis=-1).astype(np.int32)
            stepper.push(tokens if plan.context_mode == CONTEXT_GENERATED else source_tokens)
            edited[i].append(tokens)
    source = tuple(np.asarray(t) for t in source_pyramid)
    return [
        EditResult(
            pyramid=tuple(maps),
            grid=decode(maps, params.codebook, params.schedule),
            lambdas=(float("nan"),) * (plan.start_scale - 1) + plan.lambdas,
            change_fraction=tuple(
                float(np.mean(np.asarray(a) != np.asarray(b))) for a, b in zip(maps, source)
            ),
            source_pyramid=source,
        )
        for plan, maps in zip(plans, edited)
    ]


def edit_batch(
    source_grid: np.ndarray,
    configs,
    mode: str,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet] = None,
) -> list[EditResult]:
    """Edit one source grid under several configs, one result per config.

    The configs must share their seed and labels; they may differ in
    margin, start scale, lambda schedule and context.  The source is
    encoded and each condition embedded once.  The noise-guided modes
    extract the inverse noise at every distinct margin in one
    :func:`~invnoise.inversion.invert_pyramids` walk, unless
    ``noise_set`` is given (then every config uses it; regeneration
    ignores it).  All edits walk the scales together, so each scale's
    fresh noise is drawn once, and configs that resolve to the same edit
    share one result.  Every result equals the single edit of its config
    bit for bit.
    """
    if mode not in EDIT_MODES:
        raise ValidationError(f"mode must be one of {EDIT_MODES}, got {mode!r}")
    configs = tuple(configs)
    if not configs:
        raise ValidationError("no edit configs given")
    first = configs[0]
    shared = (first.seed, first.source_label, first.target_label)
    if any((c.seed, c.source_label, c.target_label) != shared for c in configs):
        raise ValidationError("batched edits must share their seed and labels")
    num_scales = params.schedule.num_scales
    plans = [_plan(cfg, mode, num_scales) for cfg in configs]
    distinct = list(dict.fromkeys(plans))
    source_pyramid = encode(source_grid, params.codebook, params.schedule)
    target_cond = condition_embed(first.target_label, params)
    if mode == MODE_REGEN:
        noises = {None: None}
    elif noise_set is not None:
        validate_noise_set(noise_set, params)
        noises = {plan.tau: noise_set.noises for plan in distinct}
    else:
        if mode == MODE_TARGET_ONLY:
            cond = target_cond
        else:
            cond = condition_embed(first.source_label, params)
        taus = list(dict.fromkeys(plan.tau for plan in distinct))
        sets = invert_pyramids(source_pyramid, cond, taus, params, first.seed, kind=KIND_LAI)
        noises = {tau: ns.noises for tau, ns in zip(taus, sets)}
    results = _run_edit_loop(source_pyramid, target_cond, params, first.seed, distinct, noises)
    by_plan = dict(zip(distinct, results))
    return [by_plan[plan] for plan in plans]


def edit_with_inverse_noise(
    source_grid: np.ndarray,
    config: EditConfig,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet] = None,
) -> EditResult:
    """Noise-guided edit: invert under the source condition, then sample
    edited scales under the target condition with interpolated noise."""
    (result,) = edit_batch(source_grid, (config,), MODE_VARIN, params, noise_set)
    return result


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
    config = EditConfig(target_label=target_label, start_scale=start_scale, seed=seed)
    (result,) = edit_batch(source_grid, (config,), MODE_REGEN, params)
    return result


def edit_target_only(
    source_grid: np.ndarray,
    config: EditConfig,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet] = None,
) -> EditResult:
    """Variant that extracts the inverse noise under the target condition."""
    (result,) = edit_batch(source_grid, (config,), MODE_TARGET_ONLY, params, noise_set)
    return result
