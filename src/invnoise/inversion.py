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

``invert_scale`` is the one inversion step: it inverts one scale's
token map under its logits at several margins.  It takes the logits as
the stepper's block logits with their block factors
(:meth:`~invnoise.predictor.ScaleStepper.block_logits`), never as a
full (h, w, C) array: the label logit is read from the block of its
cell, and the truncated transform and both passes of the tightening
(q - p with the range check, then the rounding) spread the block
logits over one row block of cells at a time, in scratch.  Spreading
is a copy, so the bytes are those of the full logits, and a stress
scale (64x64, vocab 512) holds its noise map and a quarter-size
logits array instead of two full-size arrays.  The keyed label and
off-label uniforms depend only on the seed and the scale, so they are
drawn once and only the truncated transform and the tightening run per
margin; an array of seeds adds a leading seed axis to the draws and the
noise.  ``invert_pyramid`` walks the scales with one
:class:`~invnoise.predictor.ScaleStepper` and calls the step once per
scale at its one margin, and the edit walk of :mod:`invnoise.editing`
calls the step scale by scale at the margins it mixes in.
``reconstruct_from_noise`` replays a noise set.  Within a scale all
tokens are independent, so the keyed draws make serial and parallel
execution bit-identical: the log-log of the off-label draws, the
truncated transform and both passes of the tightening (q - p with the
range check, then the rounding) go by blocks of :mod:`invnoise._blocks`.

Replay recomputes q as p + n in float64, which rounds; the step makes
its noise float32-exact values whose replay keeps every margin.  A
noise set stores them as float32 maps, which a noise file holds as they
are, so memory and disk give the same tokens; every use casts a stored
map to float64, which is exact (the replay's sums and the edit mix's
``lam * n``, whose float32 product would round differently).  Replay
takes the argmax of p + n from the stepper's block logits one row block
at a time (:meth:`~invnoise.predictor.ScaleStepper.next_scale_tokens`),
so it makes no full-size array.

Inputs are checked where they enter: ``invert_pyramid`` checks its
margin, seed and pyramid, the ``InverseNoiseSet`` it builds checks the
kind, edit configs check their margin (``check_tau``), and
``validate_noise_set`` is the one shape check for noise sets that come
from outside.  The step itself takes what its callers checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _blocks
from .codec import validate_pyramid
from .errors import InvariantError, ValidationError
from .gumbel import located_from_uniform, truncated_from_loglog
from .predictor import Condition, PredictorParams, ScaleStepper
from .rng import PURPOSE_LABEL_DRAW, PURPOSE_TRUNC_DRAW, seed_array, uniform_values

# Finite stand-in for log 0 in the onehot construction: far below any
# reachable logit + Gumbel sum, but safe for arithmetic.
NEG_SENTINEL = -1.0e4

# Inverse noise must lie within +-2^127 to be float32 with room for the
# move of tightening (the float32 range ends just below 2^128).
_NOISE_LIMIT = 2.0**127

KIND_LAI = "lai"
KIND_OAI = "oai"


def _onehot(tokens: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Perturbed logits q with q[label] = 0 and NEG_SENTINEL elsewhere."""
    q = np.full(shape, NEG_SENTINEL)
    h, w = tokens.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    q[rows, cols, tokens] = 0.0
    return q


def check_tau(tau) -> float:
    """``tau`` as a float; a negative or non-finite margin is a ValidationError."""
    if not (np.isfinite(tau) and tau >= 0):
        raise ValidationError("tau must be a non-negative finite real")
    return float(tau)


def _located_inverses(tokens, logits, factors, taus, u_label, u_off) -> Iterator[np.ndarray]:
    """Located inversion at each margin in ``taus`` from one set of draws,
    under block logits with their block ``factors``.

    ``u_label`` is (..., h, w) for the label draw, ``u_off`` is
    (..., h, w, C) for the off-label truncated draws (the label column is
    ignored); leading axes (one per seed) carry through to the maps.  The
    label draw and log(-log u) of the off-label draws do not depend on
    the margin and are made once; each yielded map caps the off-label
    draws ``tau`` below it.  The draws are taken over: their log-log is
    written over ``u_off``'s buffer, and the last map over the log-log,
    so a scale holds one full-size array of them at any time.
    """
    h, w = tokens.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    label_logit = logits[rows // factors[0], cols // factors[1], tokens]
    q_label = located_from_uniform(label_logit, np.asarray(u_label, dtype=np.float64))
    loglog = _loglog(u_off)
    u_off = None
    for i, tau in enumerate(taus, start=1):
        last = i == len(taus)
        trunc = (q_label - tau)[..., None]
        q = truncated_from_loglog(logits, trunc, loglog, loglog if last else None, factors)
        if last:
            loglog = None
        q[..., rows, cols, tokens] = q_label
        yield q


def _loglog(u) -> np.ndarray:
    """log(-log u) over the float64 buffer of ``u``, which is taken over."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    _blocks.run_flat(_loglog_in_place, u)
    return u


def _loglog_in_place(u: np.ndarray) -> None:
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)


def _keyed_uniforms(seed, scale: int, shape: tuple[int, int, int]):
    """The (h, w) label and (h, w, C) off-label uniforms of one scale,
    with a leading axis when ``seed`` is an array of seeds."""
    h, w, C = shape
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    u_label = uniform_values(seed, PURPOSE_LABEL_DRAW, scale, rows, cols, 0)
    u_off = uniform_values(
        seed,
        PURPOSE_TRUNC_DRAW,
        scale,
        rows[:, :, None],
        cols[:, :, None],
        np.arange(C)[None, None, :],
    )
    return u_label, u_off


def _below_margin(q_label: np.ndarray, replayed: np.ndarray, tau: float) -> np.ndarray:
    """Cells whose replayed value is not at least ``tau`` below the label's.

    With tau > 0, replayed >= q_label already gives q_label - replayed
    <= 0 < tau, so one comparison covers both conditions; with tau <= 0
    the margin test is implied by replayed >= q_label instead.
    """
    if tau > 0:
        return (q_label - replayed) < tau
    return replayed >= q_label


def _tighten(tokens, logits, factors, q: np.ndarray, tau: float) -> np.ndarray:
    """The noise q - p of perturbed logits q, rounded to float32 values in
    q's own buffer so that its float64 replay p + n keeps every margin;
    returns it.

    Each value moves by |n| 2^-23 (one or two float32 ulps) away from the
    label's side: off-label values down, label values up.  One replay
    check finds the cells float64 rounding still defeats (|n| tiny next
    to |p|, or zero); each takes the largest float32 below its bound
    q_label - tau - p if that is a rounding-sized move, and otherwise
    raises ``InvariantError``.  ``logits`` are block logits with their
    block ``factors``, spread one row block at a time in both passes (the
    subtraction and range check, then the rounding); ``q`` may have
    leading (seed) axes over their (h, w, C).  Noise beyond +-2^127
    raises ``ValidationError``, before any cell is rounded: float32
    cannot hold it with its move.
    """
    fh = factors[0]

    def subtract_rows(lo, hi, spread):
        noise = q[..., lo * fh : hi * fh, :, :]
        noise -= _blocks.spread_rows(logits, factors, lo, hi, spread)
        if not (noise.min() >= -_NOISE_LIMIT and noise.max() <= _NOISE_LIMIT):
            raise ValidationError("inverse noise beyond +-2^127 does not fit in float32")

    def tighten_rows(lo, hi, spread):
        r = slice(lo * fh, hi * fh)
        p = _blocks.spread_rows(logits, factors, lo, hi, spread)
        _tighten_rows(tokens[r], p, q[..., r, :, :], tau)

    def scratch(step):
        return _blocks.spread_scratch(logits, factors, step)

    for body in (subtract_rows, tighten_rows):
        _blocks.for_row_blocks(body, logits.shape[-3], q.size, scratch)
    return q


def _tighten_rows(tokens, logits, noise: np.ndarray, tau: float) -> None:
    """``_tighten`` of the rows of one range, in place in ``noise``."""
    h, w = tokens.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    step = np.abs(noise, dtype=np.float32)  # |n| rounded to float32
    step *= np.float32(2.0**-23)  # one or two ulps of a normal n, exactly
    at_label = (..., rows, cols, tokens)
    raised = noise[at_label].astype(np.float32) + step[at_label]
    np.subtract(noise, step, out=noise, dtype=np.float32)  # rounds n, then moves it
    del step
    noise[at_label] = raised
    replayed = logits + noise
    q_label = replayed[at_label]
    if tau > 0:  # _below_margin, with the margins written over the replay
        bad = np.subtract(q_label[..., None], replayed, out=replayed) < tau
    else:
        bad = _below_margin(q_label[..., None], replayed, tau)
    del replayed
    bad[at_label] = False
    if not bad.any():
        return
    cells = np.nonzero(bad)
    label, p = q_label[cells[:-1]], logits[cells[-3:]]
    terms = np.abs(label) + np.abs(p) + tau
    # clear of the float64 rounding in the bound, the replay and its check
    bound = label - tau - p - 2.0**-50 * terms
    fixed = bound.astype(np.float32)
    fixed = np.where(fixed < bound, fixed, np.nextafter(fixed, np.float32(-np.inf)))
    # a rounding failure needs a move of less than a float32 ulp of the terms
    rounding = noise[cells] - fixed <= 2.0**-23 * terms + 2.0**-149
    if not rounding.all() or _below_margin(label, p + fixed, tau).any():
        raise InvariantError("inverse noise did not tighten in float32")
    noise[cells] = fixed


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


def invert_scale(
    tokens, logits, factors, taus, seed, scale: int, kind: str = KIND_LAI
) -> Iterator:
    """Noise that replays one scale's (h, w) token map under its logits:
    yields one (h, w, C) map per margin in ``taus``, in order, each made
    when it is asked for.  The logits are block logits, (h / fh, w / fw,
    C) with their block ``factors`` (fh, fw), as
    :meth:`~invnoise.predictor.ScaleStepper.block_logits` gives them;
    every kernel spreads them one row block at a time.  The tokens,
    logits and margins are taken as the caller checked them.

    The located construction draws its keyed uniforms once for all
    margins; an array of S seeds gives (S, h, w, C) maps.  The onehot
    construction ignores the margin and the seed, so its margins share
    one (h, w, C) map.
    """
    shape = (*tokens.shape, logits.shape[-1])
    if kind == KIND_OAI:
        noise = _tighten(tokens, logits, factors, _onehot(tokens, shape), 0.0)
        for _ in taus:
            yield noise
        return
    qs = _located_inverses(tokens, logits, factors, taus, *_keyed_uniforms(seed, scale, shape))
    for tau in taus:
        q = next(qs)
        yield _tighten(tokens, logits, factors, q, tau)  # the noise, in the map's own buffer
        del q


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
        (noise,) = invert_scale(tokens, *stepper.block_logits(), (tau,), seed, t, kind)
        noises.append(noise.astype(np.float32))  # float32-exact: no value changes
        stepper.push(tokens)
    return InverseNoiseSet(
        noises=tuple(noises), condition_label=cond.label, tau=tau, seed=int(seed), kind=kind
    )


def reconstruct_from_noise(
    noise_set: InverseNoiseSet, cond: Condition, params: PredictorParams
) -> list[np.ndarray]:
    """Replay argmax(p_t + n_t), in float64, scale by scale."""
    validate_noise_set(noise_set, params)
    stepper = ScaleStepper(cond, params)
    pyramid = []
    for noise in noise_set.noises:
        tokens = stepper.next_scale_tokens(noise)
        stepper.push(tokens)
        pyramid.append(tokens)
    return pyramid
