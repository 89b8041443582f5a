"""Pseudo-inverses of argmax sampling and pyramid noise extraction.

Gumbel-max sampling draws a token as argmax(p + g); these routines run
the other way, constructing per-class noise n with argmax(p + n) equal
to a given token map.  Two constructions are provided:

* onehot inversion ("oai"): perturbed logits are 0 at the label and a
  large finite negative sentinel elsewhere.  Exact, but the noise looks
  nothing like Gumbel draws.
* located inversion ("lai"): the label gets a located Gumbel draw
  around its predicted logit, every other class gets a truncated Gumbel
  draw capped a margin ``tau`` below it.  Exact, with noise that stays
  close to the standard Gumbel law.

:class:`ScaleInversion` is the one inversion step: it inverts one
scale's token map under its logits at several margins, one row block
at a time (``invert_rows``).  It takes the logits as the stepper's
block logits with their block factors
(:meth:`~invnoise.predictor.ScaleStepper.block_logits`), never as a
full (h, w, C) array.  The label draw and the label logit, read from
the block of its cell, make the (h, w) label values once per scale,
and the off-label draws' cell words are keyed once per scale too
(``rng.cell_words``); everything of size (h, w, C) is made per row
block, in cache: the off-label draws -log(-log u) of the block's rows
of those words, written into the pass's blocks,
which do not depend on the margin, then per margin the noise q - p of
the truncated transform, its range check and the tightening, which
writes the finished rows straight into the caller's float32 maps.  The
block logits meet the cells by broadcasting over their block view
(``_blocks.by_blocks``), and single cells read them at (r // fh,
c // fw), so every sum and difference is the one the full logits give.
An array of seeds adds a leading seed axis to the draws and the noise.
A noise out of float32 range or a cell that does not tighten raises in
the row block and at the margin where it happens.  ``invert_pyramid``
walks the scales with one :class:`~invnoise.predictor.ScaleStepper`
and inverts each scale into its float32 map at its one margin
(``ScaleInversion.run``); the edit walk of :mod:`invnoise.editing`
calls ``invert_rows`` inside its own row-block pass, at the margins it
mixes in, and reuses the step's three blocks for its draws and mixes
once a row block is inverted, so neither holds a full-size float64
array.  ``reconstruct_from_noise``
replays a noise set.  Within a scale all tokens are independent and
every draw is keyed, so row blocks of any size give the same bytes.

What is exact is the stored float32 noise, not the float64 noise it is
rounded from.  The tightening reads that noise only through its range
check (+-2^127) and its float32 rounding, which it takes once, as a
plain copy into the float32 map; it computes the move and the moved
values in float32, in the noise block that copy frees, so none of its
arithmetic casts between dtypes.  So the step computes the
off-label noise with numpy's vectorised exp and log1p in place of the
scalar libm loop of np.logaddexp (``_softmin``) and certifies each
value.  E = 2^-47 (max |p| + max |min(trunc - p, g)| + 1) over the row
block bounds a value's distance from the exact one: the softmin differs
from np.logaddexp by at most 2^-52 (|min| + 1) over 6.7e7 drawn pairs,
and E leaves 30 times that beside the roundings of the exact
construction.  A value whose n - E and n + E round to the same float32
bits therefore rounds as the exact value does.  The values that fail
are recomputed exactly with ``gumbel.truncated_from_loglog`` (at most
about 1 in 20000 at beta 4, 1 in 110 at beta 3000), and a block whose
noise comes within E of +-2^127 is recomputed whole, so its range check
is exact and nothing beyond float32 range is rounded; every other
block's noise lies inside +-2^127, and the tightening skips its range
check there.  Every stored byte is that of the exact construction
(``_located_noise``).

Replay recomputes q as p + n in float64, which rounds; the step makes
its noise float32-exact values whose replay keeps every margin.  A
noise set stores them as float32 maps, which a noise file holds as they
are, so memory and disk give the same tokens; every use casts a stored
map to float64, which is exact (the replay's sums and the edit mix's
``lam * n``, whose float32 product would round differently).  Replay
is the sampling walk :func:`~invnoise.predictor.sample_pyramid` over
the stored maps: the argmax of p + n from the stepper's block logits,
one row block at a time, so it makes no full-size array.

Inputs are checked where they enter: ``invert_pyramid`` checks its
margin, seed and pyramid, the ``InverseNoiseSet`` it builds checks the
kind, edit configs check their margin (``check_tau``), and
``validate_noise_set`` is the one shape check for noise sets that come
from outside.  The step itself takes what its callers checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blocks
from .codec import validate_pyramid
from .errors import InvariantError, ValidationError
from .gumbel import located_from_uniform, standard_rows, truncated_from_loglog
from .predictor import Condition, PredictorParams, ScaleStepper, sample_pyramid
from .rng import PURPOSE_LABEL_DRAW, PURPOSE_TRUNC_DRAW, cell_words, seed_array, uniform_values

# Finite stand-in for log 0 in the onehot construction: far below any
# reachable logit + Gumbel sum, but safe for arithmetic.
NEG_SENTINEL = -1.0e4

# Inverse noise must lie within +-2^127 to be float32 with room for the
# move of tightening (the float32 range ends just below 2^128).
_NOISE_LIMIT = 2.0**127

# |_softmin(x, y) + np.logaddexp(-x, -y)| <= 2^-52 (|min(x, y)| + 1) over
# 6.7e7 drawn pairs.  The located noise n = fl(min(fl(p - L), trunc) - p),
# L = np.logaddexp(a, b), a = fl(p - trunc), b = log(-log u), lies within
# 2^-51 (|p| + |m| + 1) of -L, m = max(a, b) = -min(trunc - p, -b): its
# three roundings are at most 2^-53 (|p| + |m| + 1), 2^-53 (|m| + 1) (the
# clamp to trunc, where a is L to within rounding) and 2^-53 (|m| + 2).
# The fast noise is -L_fast with L_fast = -_softmin(trunc - p, -b), so
# _NOISE_ERROR (|p| + |m| + 1) bounds its distance from n and leaves at
# least 15 * 2^-51 (|m| + 1), 30 times the measured bound, for
# |L_fast - L|.
_NOISE_ERROR = 2.0**-47

KIND_LAI = "lai"
KIND_OAI = "oai"


def _onehot(tokens: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Perturbed logits q with q[label] = 0 and NEG_SENTINEL elsewhere,
    written into the (h, w, C) ``q``."""
    q.fill(NEG_SENTINEL)
    h, w = tokens.shape
    q[np.arange(h)[:, None], np.arange(w), tokens] = 0.0
    return q


def check_tau(tau) -> float:
    """``tau`` as a float; a negative or non-finite margin is a ValidationError."""
    if not (np.isfinite(tau) and tau >= 0):
        raise ValidationError("tau must be a non-negative finite real")
    return float(tau)


def _below_margin(q_label: np.ndarray, replayed: np.ndarray, tau: float, out=None) -> np.ndarray:
    """Cells whose replayed value is not at least ``tau`` below the
    label's, written into the bool ``out`` if given.

    With tau > 0, replayed >= q_label already gives q_label - replayed
    <= 0 < tau, so one comparison covers both conditions, and the
    margins are written over the float64 ``replayed``; with tau <= 0 the
    margin test is implied by replayed >= q_label instead.
    """
    if tau > 0:
        return np.less(np.subtract(q_label, replayed, out=replayed), tau, out=out)
    return np.greater_equal(replayed, q_label, out=out)


def _tighten(tokens, logits, factors, noise, tau: float, out, bad, in_range: bool) -> None:
    """Write into the float32 ``out`` the float64 ``noise`` under
    ``logits`` p, rounded to float32 values whose float64 replay p + n
    keeps every margin.  One row block: (n, w) ``tokens``, the block
    ``logits`` (n / fh, w / fw, C) of the (fh, fw) ``factors``, and
    (n, w, C) ``noise``, which may have a leading (seed) axis that
    ``out`` and the bool scratch ``bad`` share; ``noise`` is overwritten.
    The noise is read only by its range check and its float32 rounding;
    ``in_range`` says the caller has already bounded it within +-2^127.

    The noise is rounded to float32 once, by ``np.copyto`` into ``out``,
    and each value moves by |n| 2^-23 (one or two float32 ulps), computed
    in float32 in the freed ``noise`` block, away from the label's side:
    off-label values down, label values up.  One replay
    check finds the cells float64 rounding still defeats (|n| tiny next
    to |p|, or zero); each takes the largest float32 below its bound
    q_label - tau - p if that is a rounding-sized move, and otherwise
    raises ``InvariantError``.  Noise beyond +-2^127 raises
    ``ValidationError`` before anything is written: float32 cannot hold
    it with its move.
    """
    if not (in_range or (noise.min() >= -_NOISE_LIMIT and noise.max() <= _NOISE_LIMIT)):
        raise ValidationError("inverse noise beyond +-2^127 does not fit in float32")
    h, w = tokens.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    at_label = (..., rows, cols, tokens)
    np.copyto(out, noise)  # n rounded to float32, once; the noise block is free from here
    step = noise.reshape(-1).view(np.float32)[: noise.size].reshape(noise.shape)
    np.abs(out, out=step)
    step *= np.float32(2.0**-23)  # one or two ulps of a normal n, exactly
    raised = out[at_label] + step[at_label]
    out -= step
    out[at_label] = raised
    replayed = noise  # p + out, written over the noise
    np.copyto(replayed, out)  # exact: every float32 is a float64
    replayed_blocks = _blocks.by_blocks(replayed, factors)
    replayed_blocks += logits[..., :, None, :, None, :]
    q_label = replayed[at_label]
    _below_margin(q_label[..., None], replayed, tau, out=bad)
    bad[at_label] = False
    if not bad.any():
        return
    cells = np.nonzero(bad)
    r, c, k = cells[-3:]
    label, p = q_label[cells[:-1]], logits[r // factors[0], c // factors[1], k]
    terms = np.abs(label) + np.abs(p) + tau
    # clear of the float64 rounding in the bound, the replay and its check
    bound = label - tau - p - 2.0**-50 * terms
    fixed = bound.astype(np.float32)
    fixed = np.where(fixed < bound, fixed, np.nextafter(fixed, np.float32(-np.inf)))
    # a rounding failure needs a move of less than a float32 ulp of the terms
    rounding = out[cells].astype(np.float64) - fixed <= 2.0**-23 * terms + 2.0**-149
    if not rounding.all() or _below_margin(label, p + fixed, tau).any():
        raise InvariantError("inverse noise did not tighten in float32")
    out[cells] = fixed


def _softmin(x, y, out, low):
    """-logaddexp(-x, -y) by numpy's vectorised loops, written into
    ``out`` (which may be ``x``), with min(x, y) left in ``low``.

    Both this and np.logaddexp compute low - log1p(exp(low - high)),
    high = max(x, y), and low - high is exactly the -|x - y| that
    np.logaddexp passes to libm's scalar exp and log1p; the vectorised
    loops may round differently, by at most 2^-52 (|low| + 1) over 6.7e7
    drawn pairs (see ``_NOISE_ERROR``).
    """
    np.minimum(x, y, out=low)
    np.maximum(x, y, out=out)
    np.subtract(low, out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.subtract(low, out, out=out)
    return out


def _located_noise(p, factors, p_max, trunc, g, label_noise, at_label, noise, low, out) -> bool:
    """Write into ``noise`` the noise q - p of the located perturbed
    logits q under the block logits ``p`` (n / fh, w / fw, C) of the
    (fh, fw) ``factors``: ``truncated_from_loglog(p, trunc[..., None],
    -g)`` - p off the label, with ``g`` the standard Gumbel draws
    -log(-log u), and the label noise ``label_noise`` at ``at_label``.
    ``p_max`` is max |p|.  ``trunc`` and ``label_noise`` are (..., n, w),
    ``g`` and ``noise`` (..., n, w, C); ``low`` (float64) and the
    float32 ``out`` of their shape are scratch.  Returns whether the
    noise is known to lie within +-2^127, so the tightening need not
    check it.

    Off the label a value is first -logaddexp(p - trunc, -g), by
    ``_softmin`` of trunc - p and g, within E = ``_NOISE_ERROR`` (max |p|
    + max |min(trunc - p, g)| + 1) of the exact one.  It is kept when
    n - E and n + E round to the same float32 bits (rounding is
    monotone, and E > 0 keeps such a pair off zero, whose two signs
    compare equal) and recomputed exactly on the gathered cells
    otherwise; a block whose noise comes within E of +-2^127 is
    recomputed whole, so no value beyond float32 range is rounded, and
    its range is left to the tightening's check.  Every other block's
    noise stays within E of values inside +-(2^127 - E), so inside
    +-2^127.
    """
    noise_blocks, p_blocks = _blocks.by_blocks(noise, factors), p[..., :, None, :, None, :]
    trunc_blocks = _blocks.by_blocks(trunc[..., None], factors)
    np.subtract(trunc_blocks, p_blocks, out=noise_blocks)
    _softmin(noise, g, noise, low)
    error = _NOISE_ERROR * (p_max + max(low.max(), -low.min()) + 1.0)
    noise[at_label] = label_noise
    if not (noise.min() >= error - _NOISE_LIMIT and noise.max() <= _NOISE_LIMIT - error):
        loglog = _blocks.by_blocks(np.negative(g, out=low), factors)
        truncated_from_loglog(p_blocks, trunc_blocks, loglog, out=noise_blocks)
        noise_blocks -= p_blocks
        noise[at_label] = label_noise
        return False
    size = noise.size
    spare = low.reshape(-1).view(np.float32)  # 2 * size float32 slots
    down = spare[:size].reshape(noise.shape)
    uncertain = spare[size:].view(np.bool_)[:size].reshape(noise.shape)
    np.add(noise, error, out=out)  # each sum in float64, then rounded to float32
    np.subtract(noise, error, out=down)
    np.not_equal(out.view(np.uint32), down.view(np.uint32), out=uncertain)
    uncertain[at_label] = False
    if uncertain.any():
        at = np.nonzero(uncertain)
        r, c, k = at[-3:]
        phi = p[r // factors[0], c // factors[1], k]
        noise[at] = truncated_from_loglog(phi, trunc[at[:-1]], -g[at]) - phi
    return True


@dataclass(frozen=True)
class InverseNoiseSet:
    """Per-scale noise maps plus full provenance.

    ``invert_pyramid`` and ``read_noise_set`` give (h, w, C) float32
    maps; a hand-built set may hold float64 maps.  ``sensitive`` flags
    the tau = 0 regime, where reconstruction is exact but the noise
    margins are arbitrarily thin.
    """

    noises: tuple
    condition_label: str
    tau: float
    seed: int
    kind: str

    def __post_init__(self):
        if self.kind not in (KIND_LAI, KIND_OAI):
            raise ValidationError(f"unknown inversion kind {self.kind!r}")

    @property
    def sensitive(self) -> bool:
        return self.tau == 0.0

    @property
    def num_scales(self) -> int:
        return len(self.noises)


def validate_noise_set(noise_set: InverseNoiseSet, params: PredictorParams):
    """Reject a noise set whose scales or (h, w, C) maps differ from the config."""
    if noise_set.num_scales != params.schedule.num_scales:
        raise ValidationError("noise set does not match the schedule")
    vocab = params.codebook.size
    for k, (noise, (h, w)) in enumerate(
        zip(noise_set.noises, params.schedule.resolutions), start=1
    ):
        if noise.shape != (h, w, vocab):
            raise ValidationError(
                f"noise map {k} has shape {noise.shape}, the config expects {(h, w, vocab)}"
            )


class ScaleInversion:
    """Noise that replays one scale's (h, w) token map under its logits,
    at each margin in ``taus``, made one row block at a time.

    The logits are block logits, (h / fh, w / fw, C) with their block
    ``factors`` (fh, fw), as
    :meth:`~invnoise.predictor.ScaleStepper.block_logits` gives them.
    The tokens, logits and margins are taken as the caller checked them.
    A margin's noise is float32 of ``shape``: (h, w, C), or (S, h, w, C)
    for the located construction under an array of S seeds.  The onehot
    construction ignores the margin and the seed.

    ``invert_rows(lo, hi, buf, outs)`` inverts block rows lo:hi (cell
    rows lo * fh to hi * fh) into ``outs``, one float32 array of those
    cell rows per margin.  It works in ``buf[:3]``, three flat float64
    blocks of a row block from the pass's driver
    (``_blocks.for_row_blocks``): the noise, the off-label draws and a
    spare, whose bool view holds the tightening's mask.  Each is written
    before it is read, and none holds anything once it returns, so the
    caller's pass may reuse them.  A margin whose noise in the block is
    out of float32 range, or does not tighten, raises there.  ``run`` is
    the pass over the whole scale into new maps.
    """

    def __init__(self, tokens, logits, factors, taus, seed, scale: int, kind: str = KIND_LAI):
        self.tokens, self.logits, self.factors = tokens, logits, factors
        self.taus, self.kind = tuple(taus), kind
        h, w = tokens.shape
        lead = () if kind == KIND_OAI else np.shape(seed)
        self.shape = (*lead, h, w, logits.shape[-1])
        if kind != KIND_OAI:  # the located label values, once for every margin
            rows, cols = np.arange(h)[:, None], np.arange(w)
            self._label_logit = logits[rows // factors[0], cols // factors[1], tokens]
            u_label = uniform_values(seed, PURPOSE_LABEL_DRAW, scale, rows, cols, 0)
            self._q_label = located_from_uniform(self._label_logit, u_label)
            self._words = cell_words(seed, PURPOSE_TRUNC_DRAW, scale, h, w)

    def invert_rows(self, lo: int, hi: int, buf, outs) -> None:
        """Invert block rows lo:hi into ``outs``, one margin after another."""
        fh = self.factors[0]
        rows = slice(lo * fh, hi * fh)
        p = self.logits[lo:hi]
        shape = (*self.shape[:-3], rows.stop - rows.start, *self.shape[-2:])
        noise, *spare = (b[: math.prod(shape)].reshape(shape) for b in buf[:3])
        bad = buf[2].view(np.bool_)[: noise.size].reshape(shape)  # free while tightening
        margins = self._noise_rows(rows, p, noise, spare, outs)
        for (tau, in_range), out in zip(margins, outs):
            _tighten(self.tokens[rows], p, self.factors, noise, tau, out, bad, in_range)

    def _noise_rows(self, rows: slice, p, noise, spare, outs):
        """Write the noise of cell ``rows`` under their block logits ``p``
        into ``noise``, margin by margin, and yield the margin each replay must
        keep and whether the noise is known to lie within +-2^127; the
        noise's range and float32 rounding are those of the exact
        construction.  The located draws serve every margin, with
        ``spare`` and the margin's rows in ``outs`` as scratch; the onehot
        noise keeps margin 0."""
        tokens = self.tokens[rows]
        if self.kind == KIND_OAI:
            for _ in self.taus:
                q = _blocks.by_blocks(_onehot(tokens, noise), self.factors)
                q -= p[..., :, None, :, None, :]
                yield 0.0, False
            return
        g, low = spare
        h, w = tokens.shape
        at_label = (..., np.arange(h)[:, None], np.arange(w), tokens)
        q_label = self._q_label[..., rows, :]
        label_noise = q_label - self._label_logit[rows]
        p_max = max(p.max(), -p.min())
        g = standard_rows(self._words[..., rows, :], noise.shape[-1], g, low)
        for tau, out in zip(self.taus, outs):
            yield tau, _located_noise(
                p, self.factors, p_max, q_label - tau, g, label_noise, at_label, noise, low, out
            )

    def run(self) -> list[np.ndarray]:
        """The whole scale: one float32 map of ``shape`` per margin."""
        maps = [np.empty(self.shape, dtype=np.float32) for _ in self.taus]
        fh = self.factors[0]

        def invert(lo, hi, buf):
            self.invert_rows(lo, hi, buf, [m[..., lo * fh : hi * fh, :, :] for m in maps])

        rows = self.logits.shape[-3]
        _blocks.for_row_blocks(invert, rows, math.prod(self.shape), (np.float64,) * 3)
        return maps


def invert_pyramid(
    pyramid,
    cond: Condition,
    tau: float,
    params: PredictorParams,
    seed: int,
    kind: str = KIND_LAI,
) -> InverseNoiseSet:
    """Extract per-scale noise that replays the pyramid token-exactly.

    For each scale t the predictor logits are computed from the true
    prefix tokens, a pseudo-inverse builds perturbed logits q_t, and the
    stored noise is q_t - p_t tightened to float32-exact values, held as
    float32 maps.  argmax(p_t + n_t) in float64 then equals the input
    tokens at every cell of every scale, also for the noise as a noise
    file stores it.
    """
    tau = check_tau(tau)
    seed_array((seed,))
    maps = validate_pyramid(pyramid, params.codebook, params.schedule)
    stepper = ScaleStepper(cond, params)
    noises = []
    for t, tokens in enumerate(maps, start=1):
        (noise,) = ScaleInversion(tokens, *stepper.block_logits(), (tau,), seed, t, kind).run()
        noises.append(noise)
        stepper.push(tokens)
    return InverseNoiseSet(
        noises=tuple(noises), condition_label=cond.label, tau=tau, seed=int(seed), kind=kind
    )


def reconstruct_from_noise(
    noise_set: InverseNoiseSet, cond: Condition, params: PredictorParams
) -> list[np.ndarray]:
    """Replay argmax(p_t + n_t), in float64, scale by scale."""
    validate_noise_set(noise_set, params)
    noises = noise_set.noises
    return sample_pyramid(cond, params, lambda k: lambda lo, hi, _: noises[k - 1][lo:hi])
