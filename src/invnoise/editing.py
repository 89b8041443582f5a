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
several :class:`EditConfig` that share their labels and their mode.
Construction does the work that depends on neither the seed nor the
config once (encoding, condition targets, the block logits of the
source walks, held as the stepper gives them, one cell per prefix
block); its ``run`` edits a chunk of seeds with a leading seed axis,
scale by scale, in one pass over the row blocks of each scale
(``_blocks.for_row_blocks``, which builds the pass's blocks: three
float64 and one float32 per inverted margin).  Each row block draws
its rows of the keyed uniforms and inverts them into its float32
blocks (:meth:`~invnoise.inversion.ScaleInversion.invert_rows`, in the
three float64 blocks, only at the margins some edit mixes in with
nonzero lambda), then, in the same three blocks, draws its rows of the
fresh Gumbel field (not at a scale where every edit has lambda 1),
builds each edit's mix ``(1 - lam) * g + lam * n`` (the product in
float64, from a float32 noise; n itself at lambda 1) and takes the
argmax of the edit's block logits plus that mix
(``predictor.argmax_tokens``),
from the edit's stepper or, at its start scale and in source-prefix
context, from the held source-prefix block logits.  So no edit makes a
full-size field, noise map, logits array, product or copy; the label
values of the inversion, (h, w) per seed, are the one part made per
scale.
``invnoise edit`` runs one config at its own seed, as do the
single-edit functions ``edit_with_inverse_noise`` and
``edit_regeneration``; ``invnoise sweep`` runs many configs over chunks
of :func:`seed_chunk_width` seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _blocks
from .codec import encode
from .errors import ValidationError
from .gumbel import standard_rows
from .inversion import InverseNoiseSet, ScaleInversion, check_tau, validate_noise_set
from .predictor import PredictorParams, ScaleStepper, argmax_tokens, condition_embed
from .rng import PURPOSE_EDIT_NOISE, seed_array

CONTEXT_GENERATED = "generated-prefix"
CONTEXT_SOURCE = "source-prefix"

MODE_VARIN = "varin"
MODE_REGEN = "regen"
MODE_TARGET_ONLY = "target-only"
EDIT_MODES = (MODE_VARIN, MODE_REGEN, MODE_TARGET_ONLY)

DEFAULT_TAU = 18.0
# target-only works best with a smaller margin: 12 is mid-way in its useful range
TARGET_ONLY_DEFAULT_TAU = 12.0


def inverts_under(cfg: EditConfig, target: bool) -> tuple[str, float]:
    """The inversion's label and margin for ``cfg``: the target label if ``target`` (target-only
    mode), else the source label, at ``cfg.tau``, by default 12 and 18 respectively."""
    if target:
        return cfg.target_label, TARGET_ONLY_DEFAULT_TAU if cfg.tau is None else cfg.tau
    return cfg.source_label, DEFAULT_TAU if cfg.tau is None else cfg.tau


def default_start_scale(num_scales: int) -> int:
    """Map the reference default (6 of 14 scales) onto a schedule."""
    return max(1, min(num_scales, round(6 * num_scales / 14)))


@dataclass(frozen=True)
class EditConfig:
    """Every setting of one edit, checked when it is built.

    ``start_scale`` None takes ``default_start_scale(K)`` and ``tau``
    None the mode's default margin; both resolve against the schedule
    in ``_plan``.  The lambda schedule between fresh and inverse noise
    is ``lambda_kind`` ``linear`` (1 at the start scale down to 0 at the
    final scale; a single-scale edit range pins it at 1, and
    ``lambda_value`` is unused) or ``constant`` (``lambda_value`` in
    [0, 1] at every edited scale).  ``context_mode`` and the lambda
    schedule are unused in ``regen`` mode.
    """

    source_label: str = ""
    target_label: str = ""
    start_scale: Optional[int] = None
    tau: Optional[float] = None
    lambda_kind: str = "linear"
    lambda_value: float = 1.0
    seed: int = 0
    context_mode: str = CONTEXT_GENERATED
    mode: str = MODE_VARIN

    def __post_init__(self):
        if self.start_scale is not None and self.start_scale < 1:
            raise ValidationError(f"start scale must be at least 1, got {self.start_scale}")
        if self.tau is not None:
            check_tau(self.tau)
        if self.lambda_kind not in ("linear", "constant"):
            raise ValidationError(f"unknown lambda schedule kind {self.lambda_kind!r}")
        if self.lambda_kind == "constant" and not (0.0 <= self.lambda_value <= 1.0):
            raise ValidationError("constant lambda must lie in [0, 1]")
        seed_array((self.seed,))
        if self.context_mode not in (CONTEXT_GENERATED, CONTEXT_SOURCE):
            raise ValidationError(f"unknown context mode {self.context_mode!r}")
        if self.mode not in EDIT_MODES:
            raise ValidationError(f"mode must be one of {EDIT_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class EditResult:
    pyramid: tuple
    grid: np.ndarray
    lambdas: tuple  # per scale; NaN for scales copied from the source
    changed: tuple  # per scale, the number of tokens that differ from the source encoding

    @property
    def change_fraction(self) -> tuple:
        """Per scale, the fraction of tokens that differ from the source encoding."""
        return tuple(n / tokens.size for n, tokens in zip(self.changed, self.pyramid))

    @property
    def token_change(self) -> float:
        """The fraction of all tokens that differ from the source encoding."""
        total = sum(tokens.size for tokens in self.pyramid)
        return 1.0 - (total - sum(self.changed)) / total


@dataclass(frozen=True)
class _Plan:
    """What one edit does once its config is resolved against the schedule."""

    start_scale: int
    lambdas: tuple  # per edited scale, start_scale..K
    context_mode: str
    tau: Optional[float]  # inversion margin; None for regeneration


def _plan(cfg: EditConfig, num_scales: int) -> _Plan:
    """Resolve ``cfg`` against K scales: the one place the start scale
    (1..K, or 1..K+1 for regeneration, which then regenerates nothing),
    the lambda of each edited scale and the default margin are settled."""
    start = default_start_scale(num_scales) if cfg.start_scale is None else cfg.start_scale
    last = num_scales + 1 if cfg.mode == MODE_REGEN else num_scales
    if start > last:
        raise ValidationError(f"start scale {start} outside 1..{last}")
    if cfg.mode == MODE_REGEN:
        return _Plan(start, (0.0,) * (num_scales + 1 - start), CONTEXT_GENERATED, None)
    if cfg.lambda_kind == "constant":
        lambdas = (cfg.lambda_value,) * (num_scales + 1 - start)
    elif start == num_scales:
        lambdas = (1.0,)
    else:
        lambdas = tuple(
            1.0 - (t - start) / (num_scales - start) for t in range(start, num_scales + 1)
        )
    _, tau = inverts_under(cfg, cfg.mode == MODE_TARGET_ONLY)
    return _Plan(start, lambdas, cfg.context_mode, tau)


SEED_CELL_BUDGET = 1 << 17


def seed_chunk_width(params: PredictorParams) -> int:
    """Seeds per edit walk: as many as keep the finest (h, w, C) scale of
    every seed within ``SEED_CELL_BUDGET`` cells, at least one (8 at
    16x16, vocab 64; 1 at 64x64, vocab 512).  Wider chunks share the
    per-scale work of a walk (the stepper logits, the keyed-hash set-up,
    the inversion dispatch, the forks and the argmaxes) among more
    seeds, while a chunk's finest arrays stay near 2^17 cells (1 MiB of
    float64) unless one seed's alone is larger, so what a walk holds per
    seed chunk stays small."""
    h, w = params.schedule.finest
    return max(1, SEED_CELL_BUDGET // (h * w * params.codebook.size))


def _mix(fresh, lam: float, noise, out, product) -> None:
    """``out = (1 - lam) * fresh + lam * noise`` for one row block, with
    the product ``lam * noise`` taken in float64 in ``product`` (a
    float32 noise casts exactly), so the result equals ``fresh * (1 -
    lam)`` plus ``lam * noise.astype(np.float64)`` bit for bit.  ``noise``
    may lack the seed axis of ``fresh``."""
    np.multiply(noise, lam, out=product, dtype=np.float64)
    np.multiply(fresh, 1.0 - lam, out=out)
    out += product


class SeedSweep:
    """One source grid edited under several configs, at any seeds.

    The configs must share their labels and their mode, and may differ
    in margin, start scale, lambda schedule and context; their ``seed``
    fields are not used.  A given noise set must fit the schedule and
    have been inverted under the label the mode inverts under (the
    source label, or the target label in target-only mode).
    Construction does the work that depends on neither the seed nor the
    config, once: it encodes the source, builds both condition targets
    and walks the source pyramid under each condition, keeping, as block
    logits, the inversion logits of every scale where some edit has a
    nonzero lambda (under the inverting condition) and the source-prefix
    logits under the target condition where an edit reads them (at its
    start scale, and at every edited scale in source-prefix context).
    ``run`` then edits a chunk of seeds in one row-block pass per scale,
    which inverts, draws, mixes and takes each edit's argmax one row
    block at a time.  A given set's float32 maps are mixed in as their
    exact float64 values.
    A scale where an edit's lambda is 0 takes no inverse noise for that
    edit, so a scale where every lambda is 0 is not inverted (the linear
    schedule's final scale, or all of a constant 0).
    """

    def __init__(
        self,
        source_grid: np.ndarray,
        configs,
        params: PredictorParams,
        noise_set: Optional[InverseNoiseSet] = None,
    ):
        configs = tuple(configs)
        if not configs:
            raise ValidationError("no edit configs given")
        source_label, target_label, mode = shared = (
            configs[0].source_label, configs[0].target_label, configs[0].mode
        )
        if any((c.source_label, c.target_label, c.mode) != shared for c in configs):
            raise ValidationError("batched edits must share their labels and mode")
        num_scales = params.schedule.num_scales
        self.params = params
        self._plans = [_plan(cfg, num_scales) for cfg in configs]
        self._distinct = list(dict.fromkeys(self._plans))
        self.source_pyramid = tuple(encode(source_grid, params.codebook, params.schedule))
        self._given = None
        if mode != MODE_REGEN and noise_set is not None:
            validate_noise_set(noise_set, params)
            label, _ = inverts_under(configs[0], mode == MODE_TARGET_ONLY)
            if noise_set.condition_label != label:
                raise ValidationError(
                    f"noise was inverted under {noise_set.condition_label!r}, but mode "
                    f"{mode} inverts under {label!r}"
                )
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
                self._prefix_logits[t] = walk.block_logits()
            if t in to_invert:
                self._inversion_logits[t] = (
                    self._prefix_logits[t] if source_walk is None else source_walk.block_logits()
                )
            walk.push(tokens)
            if source_walk is not None:
                source_walk.push(tokens)
        self._source_grid = walk.canvas

    def _edit_scale(self, t: int, seeds: np.ndarray, by_tau: dict, steppers: list) -> dict:
        """The (S, h, w) tokens of scale t of each edit in ``by_tau`` (edit
        indices by margin; None for the edits that take no inverse noise
        at t), in one pass over its row blocks.

        Each edit's tokens are the argmax of logits + ((1 - lam) * g +
        lam * n), or of logits + g without noise n.  At lambda 1 the mix
        is n in value (0 * g is a signed zero for the finite g), so such
        an edit takes n as it is, and a scale where every edit has lambda
        1 draws no g.  The logits are the stored source-prefix block
        logits at the start scale and in
        source-prefix context (where the edit's own stepper has pushed
        edited tokens), the stepper's otherwise.  The driver builds the
        pass's blocks: three float64 blocks and, when scale t is
        inverted, one float32 block per margin.  Each row block inverts
        its rows at every margin into the float32 blocks (or reads them
        from the given set), with the float64 blocks as the inversion's
        scratch, then draws its rows of g once for every edit and builds
        the mixes and sums in those same float64 blocks.  An inversion
        error raises in the row block where it happens.
        """
        h, w = self.params.schedule.resolutions[t - 1]
        c = self.params.codebook.size
        edits = []  # (edit, margin, lambda, block logits)
        for tau, members in by_tau.items():
            for i in members:
                plan = self._distinct[i]
                if t == plan.start_scale:
                    steppers[i] = self._forks[t].fork()
                if t == plan.start_scale or plan.context_mode == CONTEXT_SOURCE:
                    logits, factors = self._prefix_logits[t]
                else:
                    logits, factors = steppers[i].block_logits()
                edits.append((i, tau, plan.lambdas[t - plan.start_scale], logits))
        margins = [tau for tau in by_tau if tau is not None]
        inversion = None
        if t in self._inversion_logits:
            inversion = ScaleInversion(
                self.source_pyramid[t - 1], *self._inversion_logits[t], margins, seeds, t
            )
        given = None if self._given is None else self._given[t - 1]
        tokens = {i: np.empty((seeds.size, h, w), dtype=np.int32) for i, *_ in edits}
        fh = factors[0]  # scale t's block factors, the same for every edit
        draw = any(lam != 1.0 for _, _, lam, _ in edits)  # else every edit takes n alone

        def edit_rows(lo, hi, buf):
            r = slice(lo * fh, hi * fh)
            shape = (seeds.size, r.stop - r.start, w, c)
            size = math.prod(shape)
            if inversion is None:  # a given set's rows, if any margin
                noises = {tau: given[r] for tau in margins}
            else:
                outs = [out[:size].reshape(shape) for out in buf[3:]]
                inversion.invert_rows(lo, hi, buf, outs)
                noises = dict(zip(margins, outs))
            fresh, mix, product = buf[:3]  # free once the rows are inverted
            g = None
            if draw:
                g = standard_rows(
                    seeds, PURPOSE_EDIT_NOISE, t, r.start, r.stop, w, c, fresh, product
                )
            for i, tau, lam, logits in edits:
                x, sums = g, product
                if tau is not None:
                    x, sums = noises[tau], mix
                    if lam != 1.0:
                        x = mix[:size].reshape(shape)
                        _mix(g, lam, noises[tau], x, product[:size].reshape(shape))
                argmax_tokens(logits[..., lo:hi, :, :], factors, x, tokens[i][:, r, :], sums)

        dtypes = (np.float64,) * 3 + (np.float32,) * (0 if inversion is None else len(margins))
        _blocks.for_row_blocks(edit_rows, h // fh, seeds.size * h * w * c, dtypes)
        return tokens

    def run(self, seeds) -> list[list[EditResult]]:
        """Edit a chunk of seeds: one list per seed of one result per config.

        All edits walk the scales together with a leading seed axis, one
        row-block pass per scale (``_edit_scale``).  Each row block draws
        the fresh noise once for the chunk, and the inverse noise once per
        margin that some edit mixes in with nonzero lambda (no noise set
        or whole noise map is held); edits whose lambda is 0 there take
        the fresh noise alone, as regeneration does.  Each edit forks the
        target walk at its start scale and pushes its own tokens, so its
        final canvas is its decoded grid.  Configs that resolve to the same edit share one
        result.  Every result equals the single edit of its config at its
        seed bit for bit.
        """
        seeds = seed_array(seeds)
        if not seeds.size:
            raise ValidationError("no seeds given")
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
            for i, maps in self._edit_scale(t, seeds, by_tau, steppers).items():
                steppers[i].push(maps)
                edited[i].append(maps)
                changed[i].append(np.count_nonzero(maps != source_tokens, axis=(1, 2)))
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
    edited scales under the target condition with interpolated noise.
    Runs the ``varin`` pipeline whatever the config's mode, so a given
    ``noise_set`` must have been inverted under the source label."""
    config = replace(config, mode=MODE_VARIN)
    [[result]] = SeedSweep(source_grid, (config,), params, noise_set).run((config.seed,))
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
    config = EditConfig(
        target_label=target_label, start_scale=start_scale, seed=seed, mode=MODE_REGEN
    )
    [[result]] = SeedSweep(source_grid, (config,), params).run((seed,))
    return result

