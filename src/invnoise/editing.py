"""Prompt-conditioned editing of token pyramids.

Three pipelines over one sampling loop, which walks the scales with a
:class:`~invnoise.predictor.ScaleStepper` under the target condition:

* regeneration: copy scales below the start scale from the source
  encoding, then sample the rest under the target condition with fresh
  Gumbel noise.
* noise-guided editing: additionally extract inverse noise from the
  source (under the source condition) and sample each edited scale from
  argmax(p + (1 - lambda) * g + lambda * n).  lambda = 1 replays the
  source tokens exactly; lambda = 0 collapses to regeneration.  A scale
  where an edit's lambda is 0 takes no inverse noise: it is neither
  inverted for that edit nor mixed, and a given noise set's map there is
  validated but not mixed in.  Tokens and grids are those of a mix at
  weight 0, as g + 0 * n is g for every finite n; the one difference is
  that a tightening failure at a lambda-0 scale no longer fails the edit.
* target-only variant: same pipeline, but the inverse noise is
  extracted under the target condition as well, with a lower default
  margin.

Fresh edit noise draws use their own purpose tag, so the lambda = 0
endpoint matches regeneration bit for bit under a shared seed.  The
context of each edited scale is the edited scales before it
(generated-prefix) or the source scales before it (source-prefix).

:class:`SeedSweep` is the one edit walk: it edits one source under
several configs that share their labels.  Construction does the work
that depends on neither the seed nor the config once (encoding,
condition targets, the logits of the source walks); its ``run`` edits a
chunk of seeds with a leading seed axis through the keyed draws, the
inversion step (:func:`~invnoise.inversion.invert_scale`, called scale
by scale and only at the margins some edit mixes in with nonzero
lambda, so no whole noise set is held), the edit mix, the stepper
logits and the argmax.  The three single-edit functions run one config
at its own seed; ``invnoise sweep`` runs many configs over chunks of
:func:`seed_chunk_width` seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional

import numpy as np

from .codec import encode
from .errors import ValidationError
from .gumbel import standard_field
from .inversion import InverseNoiseSet, check_tau, invert_scale, validate_noise_set
from .predictor import PredictorParams, ScaleStepper, condition_embed
from .rng import PURPOSE_EDIT_NOISE, seed_array

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
        if self.tau is not None:
            check_tau(self.tau)

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
    changed: tuple  # per scale, the number of tokens that differ from the source encoding
    source_pyramid: tuple

    @property
    def change_fraction(self) -> tuple:
        """Per scale, the fraction of tokens that differ from the source encoding."""
        return tuple(n / tokens.size for n, tokens in zip(self.changed, self.pyramid))

    @property
    def token_change(self) -> float:
        """``1 - token_agreement(pyramid, source_pyramid)``, from the counts."""
        total = sum(tokens.size for tokens in self.pyramid)
        return 1.0 - (total - sum(self.changed)) / total


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


SEED_CELL_BUDGET = 1 << 15


def seed_chunk_width(params: PredictorParams) -> int:
    """Seeds per edit walk: as many as keep one finest-scale (h, w, C)
    array of every seed within ``SEED_CELL_BUDGET`` cells, at least one
    (2 at 16x16, vocab 64; 1 at 64x64, vocab 512)."""
    h, w = params.schedule.finest
    return max(1, SEED_CELL_BUDGET // (h * w * params.codebook.size))


class SeedSweep:
    """One source grid edited under several configs, at any seeds.

    The configs must share their labels and may differ in margin, start
    scale, lambda schedule and context; their ``seed`` fields are not
    used.  Construction does the work that depends on neither the seed
    nor the config, once: it encodes the source, builds both condition
    targets and walks the source pyramid under each condition, keeping
    the inversion logits of every scale where some edit has a nonzero
    lambda (under the source condition, or the target condition in
    target-only mode) and the source-prefix logits under the target
    condition where an edit reads them (at its start scale, and at every
    edited scale in source-prefix context).  ``run`` then edits a chunk
    of seeds.  A scale where an edit's lambda is 0 takes no inverse
    noise for that edit, so a scale where every lambda is 0 is not
    inverted (the linear schedule's final scale, or all of a constant 0).
    """

    def __init__(
        self,
        source_grid: np.ndarray,
        configs,
        mode: str,
        params: PredictorParams,
        noise_set: Optional[InverseNoiseSet] = None,
    ):
        if mode not in EDIT_MODES:
            raise ValidationError(f"mode must be one of {EDIT_MODES}, got {mode!r}")
        configs = tuple(configs)
        if not configs:
            raise ValidationError("no edit configs given")
        source_label, target_label = configs[0].source_label, configs[0].target_label
        if any((c.source_label, c.target_label) != (source_label, target_label) for c in configs):
            raise ValidationError("batched edits must share their labels")
        num_scales = params.schedule.num_scales
        self.params = params
        self._plans = [_plan(cfg, mode, num_scales) for cfg in configs]
        self._distinct = list(dict.fromkeys(self._plans))
        self.source_pyramid = tuple(encode(source_grid, params.codebook, params.schedule))
        self._given = None
        if mode != MODE_REGEN and noise_set is not None:
            validate_noise_set(noise_set, params)
            self._given = noise_set.noises
        to_invert = set()  # the scales where some edit mixes in inverse noise
        if mode != MODE_REGEN and noise_set is None:
            to_invert = {
                t
                for plan in self._distinct
                for t, lam in enumerate(plan.lambdas, start=plan.start_scale)
                if lam != 0.0
            }
        prefix_scales = set()
        for plan in self._distinct:
            last = num_scales if plan.context_mode == CONTEXT_SOURCE else plan.start_scale
            prefix_scales.update(range(plan.start_scale, last + 1))
        if mode == MODE_TARGET_ONLY:
            prefix_scales.update(to_invert)
        walk = ScaleStepper(condition_embed(target_label, params), params)
        source_walk = None
        if to_invert and mode == MODE_VARIN:
            source_walk = ScaleStepper(condition_embed(source_label, params), params)
        self._forks = {}  # start scale -> the target walk before that scale
        self._prefix_logits = {}
        self._inversion_logits = {}
        for t, tokens in enumerate(self.source_pyramid, start=1):
            if any(plan.start_scale == t for plan in self._distinct):
                self._forks[t] = walk.fork()
            if t in prefix_scales:
                self._prefix_logits[t] = walk.next_scale_logits()
            if t in to_invert:
                self._inversion_logits[t] = (
                    self._prefix_logits[t] if source_walk is None else source_walk.next_scale_logits()
                )
            walk.push(tokens)
            if source_walk is not None:
                source_walk.push(tokens)
        self._source_grid = walk.canvas

    def _noises(self, t: int, seeds: np.ndarray, taus):
        """Yield (tau, inverse noise of scale t) per margin, one at a time,
        in the order of ``taus``: None for the margin None, which the
        edits that take no inverse noise at t share (regeneration, and
        every edit whose lambda is 0 at t); otherwise (S, h, w, C) when
        inverted, the given set's (h, w, C) map when one was given."""
        if t in self._inversion_logits:
            maps = invert_scale(
                self.source_pyramid[t - 1],
                self._inversion_logits[t],
                [tau for tau in taus if tau is not None],
                seeds,
                t,
            )
        else:
            maps = repeat(None if self._given is None else self._given[t - 1])
        for tau in taus:
            yield tau, None if tau is None else next(maps)

    def _edit_scale(self, plan: _Plan, stepper: ScaleStepper, t: int, mixed, noise):
        """Scale t of one edit: argmax of logits + ((1 - lam) * g + lam * n),
        built in place in ``mixed``, which holds the fresh draws g.  With no
        noise n (lambda 0, which takes none) it is the argmax of logits + g."""
        if t == plan.start_scale or plan.context_mode == CONTEXT_SOURCE:
            logits = self._prefix_logits[t]
        else:
            logits = stepper.next_scale_logits()
        lam = plan.lambdas[t - plan.start_scale]
        if noise is not None:
            mixed *= 1.0 - lam
            mixed += lam * noise
        mixed += logits
        return np.argmax(mixed, axis=-1).astype(np.int32)

    def run(self, seeds) -> list[list[EditResult]]:
        """Edit a chunk of seeds: one list per seed of one result per config.

        All edits walk the scales together with a leading seed axis.  At
        each scale the fresh noise is drawn once for the chunk, and the
        inverse noise once per margin that some edit mixes in with
        nonzero lambda, one margin at a time (no noise set is held);
        edits whose lambda is 0 there take the fresh noise alone, as
        regeneration does.  Each edit forks the target walk at its start
        scale and pushes its own tokens, so its final canvas is its
        decoded grid.  Configs that resolve to the same edit share one
        result.  Every result equals the single edit of its config at its
        seed bit for bit.
        """
        seeds = seed_array(seeds)
        if not seeds.size:
            raise ValidationError("no seeds given")
        params = self.params
        plans = self._distinct
        steppers = [None] * len(plans)
        edited = [[] for _ in plans]
        changed = [[] for _ in plans]  # per scale, one count per seed
        unchanged = np.zeros(seeds.size, dtype=np.intp)
        for t, source_tokens in enumerate(self.source_pyramid, start=1):
            by_tau = {}  # the edits of scale t by margin; None: no inverse noise
            for i, plan in enumerate(plans):
                if t < plan.start_scale:
                    edited[i].append(source_tokens)
                    changed[i].append(unchanged)
                else:
                    lam = plan.lambdas[t - plan.start_scale]
                    by_tau.setdefault(plan.tau if lam != 0.0 else None, []).append(i)
            if not by_tau:
                continue
            h, w = params.schedule.resolutions[t - 1]
            fresh = standard_field(seeds, PURPOSE_EDIT_NOISE, t, (h, w, params.codebook.size))
            last = [*by_tau.values()][-1][-1]
            # one margin's noise at a time, mixed into every edit that uses it
            for tau, noise in self._noises(t, seeds, list(by_tau)):
                for i in by_tau[tau]:
                    if t == plans[i].start_scale:
                        steppers[i] = self._forks[t].fork()
                    # the last edit of the scale mixes into the fresh field itself
                    field = fresh if i == last else fresh.copy()
                    tokens = self._edit_scale(plans[i], steppers[i], t, field, noise)
                    steppers[i].push(tokens)
                    edited[i].append(tokens)
                    changed[i].append(np.count_nonzero(tokens != source_tokens, axis=(1, 2)))
                del noise  # not held while the next margin's noise is made
        counts = [np.stack(per_scale, axis=1).tolist() for per_scale in changed]
        results = []
        for s in range(seeds.size):
            by_plan = {}
            for plan, maps, stepper, plan_counts in zip(plans, edited, steppers, counts):
                maps = tuple(m[s] if m.ndim == 3 else m.copy() for m in maps)
                grid = self._source_grid.copy() if stepper is None else stepper.canvas[s]
                by_plan[plan] = EditResult(
                    pyramid=maps,
                    grid=grid,
                    lambdas=(float("nan"),) * (plan.start_scale - 1) + plan.lambdas,
                    changed=tuple(plan_counts[s]),
                    source_pyramid=self.source_pyramid,
                )
            results.append([by_plan[plan] for plan in self._plans])
        return results


def edit_with_inverse_noise(
    source_grid: np.ndarray,
    config: EditConfig,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet] = None,
) -> EditResult:
    """Noise-guided edit: invert under the source condition, then sample
    edited scales under the target condition with interpolated noise."""
    [[result]] = SeedSweep(source_grid, (config,), MODE_VARIN, params, noise_set).run(
        (config.seed,)
    )
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
    [[result]] = SeedSweep(source_grid, (config,), MODE_REGEN, params).run((seed,))
    return result


def edit_target_only(
    source_grid: np.ndarray,
    config: EditConfig,
    params: PredictorParams,
    noise_set: Optional[InverseNoiseSet] = None,
) -> EditResult:
    """Variant that extracts the inverse noise under the target condition."""
    [[result]] = SeedSweep(source_grid, (config,), MODE_TARGET_ONLY, params, noise_set).run(
        (config.seed,)
    )
    return result
