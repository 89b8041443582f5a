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
token map under its logits at several margins.  The keyed label and
off-label uniforms depend only on the seed and the scale, so they are
drawn once and only the truncated transform and the tightening run per
margin; an array of seeds adds a leading seed axis to the draws and the
noise.  ``invert_pyramid`` walks the scales with one
:class:`~invnoise.predictor.ScaleStepper` and calls the step once per
scale at its one margin, and the edit walk of :mod:`invnoise.editing`
calls the step scale by scale at the margins it mixes in.
``reconstruct_from_noise`` replays a noise set.  Within a scale all
tokens are independent, so the keyed draws make serial and parallel
execution bit-identical.

Inputs are checked where they enter: ``onehot_inverse`` and
``located_inverse`` check their tokens, logits and margin,
``invert_pyramid`` its margin, kind and pyramid, and
``validate_noise_set`` is the one shape check for noise sets that come
from outside.  The step itself takes what its callers checked.

A continuous reference inversion for Gaussian autoregressive sequences
lives at the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .codec import validate_pyramid
from .errors import InvariantError, ValidationError
from .gumbel import located_from_uniform, truncated_from_loglog
from .predictor import Condition, PredictorParams, ScaleStepper
from .rng import PURPOSE_LABEL_DRAW, PURPOSE_TRUNC_DRAW, uniform_values

# Finite stand-in for log 0 in the onehot construction: far below any
# reachable logit + Gumbel sum, but safe for arithmetic.
NEG_SENTINEL = -1.0e4

# Replay checks allowed before tightening gives up.
_TIGHTEN_PASSES = 64

KIND_LAI = "lai"
KIND_OAI = "oai"


def _check_token_inputs(tokens: np.ndarray, logits: np.ndarray):
    tokens = np.asarray(tokens)
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3:
        raise ValidationError("logits must be (h, w, C)")
    if tokens.shape != logits.shape[:2]:
        raise ValidationError(
            f"token map shape {tokens.shape} does not match logits {logits.shape[:2]}"
        )
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValidationError("token maps must be integer arrays")
    C = logits.shape[2]
    if np.any(tokens < 0) or np.any(tokens >= C):
        raise ValidationError("token index out of range")
    if not np.all(np.isfinite(logits)):
        raise ValidationError("logits must be finite")
    return tokens, logits


def onehot_inverse(tokens: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Perturbed logits q with q[label] = 0 and NEG_SENTINEL elsewhere."""
    tokens, logits = _check_token_inputs(tokens, logits)
    return _onehot(tokens, logits.shape)


def _onehot(tokens: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    q = np.full(shape, NEG_SENTINEL)
    h, w = tokens.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    q[rows, cols, tokens] = 0.0
    return q


def _check_tau(tau) -> float:
    if not (np.isfinite(tau) and tau >= 0):
        raise ValidationError("tau must be a non-negative finite real")
    return float(tau)


def _located_inverses(tokens, logits, taus, u_label, u_off) -> Iterator[np.ndarray]:
    """Located inversion at each margin in ``taus`` from one set of draws.

    ``u_label`` is (..., h, w) for the label draw, ``u_off`` is
    (..., h, w, C) for the off-label truncated draws (the label column is
    ignored); leading axes (one per seed) carry through to the maps.  The
    label draw and log(-log u) of the off-label draws do not depend on
    the margin and are made once; each yielded map caps the off-label
    draws ``tau`` below it.  The generator drops its hold on the draws before
    the last map, so a caller that keeps no reference of its own does
    not carry them into that map's tightening.
    """
    h, w = tokens.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    label_logit = logits[rows, cols, tokens]
    q_label = located_from_uniform(label_logit, np.asarray(u_label, dtype=np.float64))
    loglog = np.log(np.asarray(u_off, dtype=np.float64))
    u_off = None
    np.negative(loglog, out=loglog)
    np.log(loglog, out=loglog)
    for i, tau in enumerate(taus, start=1):
        q = truncated_from_loglog(logits, (q_label - tau)[..., None], loglog)
        if i == len(taus):
            loglog = None  # 16.7 MB at 64x64, vocab 512: not kept through tightening
        q[..., rows, cols, tokens] = q_label
        yield q


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


def located_inverse(
    tokens: np.ndarray,
    logits: np.ndarray,
    tau: float,
    seed: int,
    scale: int,
) -> np.ndarray:
    """Located inversion with keyed uniforms for one scale."""
    tokens, logits = _check_token_inputs(tokens, logits)
    taus = (_check_tau(tau),)
    return next(_located_inverses(tokens, logits, taus, *_keyed_uniforms(seed, scale, logits.shape)))


def _below_margin(q_label: np.ndarray, replayed: np.ndarray, tau: float) -> np.ndarray:
    """Cells whose replayed value is not at least ``tau`` below the label's.

    With tau > 0, replayed >= q_label already gives q_label - replayed
    <= 0 < tau, so one comparison covers both conditions; with tau <= 0
    the margin test is implied by replayed >= q_label instead.
    """
    if tau > 0:
        return (q_label - replayed) < tau
    return replayed >= q_label


def noise_from_perturbed(
    tokens: np.ndarray, logits: np.ndarray, q: np.ndarray, tau: float
) -> np.ndarray:
    """Extract noise n = q - p, tightened so float64 replay is exact.

    Reconstruction recomputes q as p + n, which rounds.  Off-label noise
    is nudged down by ulps until, in that replayed sum, the label is a
    strict argmax and leads every other class by at least ``tau``.
    ``q`` may carry leading axes (one per seed) over the (h, w, C) of
    ``logits``; every cell is tightened on its own.

    The label's noise is never nudged, so its replayed value is fixed:
    one full pass finds the failing off-label cells, and each later pass
    nudges and re-checks only the cells that still fail, up to
    ``_TIGHTEN_PASSES`` checks in all.
    """
    return _tighten(tokens, logits, q - logits, tau)


def _tighten(tokens, logits, noise: np.ndarray, tau: float) -> np.ndarray:
    """``noise_from_perturbed`` given the untightened noise q - p, which
    it nudges in place and returns."""
    tokens = np.asarray(tokens)
    h, w = tokens.shape
    rows, cols = np.arange(h)[:, None], np.arange(w)
    replayed = logits + noise
    q_label = replayed[..., rows, cols, tokens]
    if tau > 0:  # _below_margin, with the margins written over the replay
        bad = np.subtract(q_label[..., None], replayed, out=replayed) < tau
    else:
        bad = _below_margin(q_label[..., None], replayed, tau)
    del replayed
    bad[..., rows, cols, tokens] = False
    cells = np.nonzero(bad)
    for _ in range(_TIGHTEN_PASSES - 1):
        if not cells[0].size:
            return noise
        nudged = np.nextafter(noise[cells], -np.inf)
        noise[cells] = nudged
        still = _below_margin(q_label[cells[:-1]], logits[cells[-3:]] + nudged, tau)
        cells = tuple(index[still] for index in cells)
    if not cells[0].size:
        return noise
    raise InvariantError("noise tightening did not converge")


@dataclass(frozen=True)
class InverseNoiseSet:
    """Per-scale noise maps plus full provenance.

    ``sensitive`` flags the tau = 0 regime, where reconstruction is
    exact but the noise margins are arbitrarily thin.
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


def invert_scale(tokens, logits, taus, seed, scale: int, kind: str = KIND_LAI) -> Iterator:
    """Noise that replays one scale's (h, w) token map under its (h, w, C)
    logits: yields one map per margin in ``taus``, in order, each made
    when it is asked for.  The tokens, logits and margins are taken as
    the caller checked them.

    The located construction draws its keyed uniforms once for all
    margins; an array of S seeds gives (S, h, w, C) maps.  The onehot
    construction ignores the margin and the seed, so its margins share
    one (h, w, C) map.
    """
    if kind == KIND_OAI:
        noise = _tighten(tokens, logits, _onehot(tokens, logits.shape) - logits, 0.0)
        for _ in taus:
            yield noise
        return
    qs = _located_inverses(tokens, logits, taus, *_keyed_uniforms(seed, scale, logits.shape))
    for tau in taus:
        q = next(qs)
        q -= logits  # the noise, in the map's own buffer
        yield _tighten(tokens, logits, q, tau)
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
    stored noise is q_t - p_t.  argmax(p_t + n_t) then equals the input
    tokens at every cell of every scale.
    """
    tau = _check_tau(tau)
    if kind not in (KIND_LAI, KIND_OAI):
        raise ValidationError(f"unknown inversion kind {kind!r}")
    maps = validate_pyramid(pyramid, params.codebook, params.schedule)
    stepper = ScaleStepper(cond, params)
    noises = []
    for t, tokens in enumerate(maps, start=1):
        (noise,) = invert_scale(tokens, stepper.next_scale_logits(), (tau,), seed, t, kind)
        noises.append(noise)
        stepper.push(tokens)
    return InverseNoiseSet(
        noises=tuple(noises), condition_label=cond.label, tau=tau, seed=int(seed), kind=kind
    )


def reconstruct_from_noise(
    noise_set: InverseNoiseSet, cond: Condition, params: PredictorParams
) -> list[np.ndarray]:
    """Replay argmax(p_t + n_t) scale by scale."""
    validate_noise_set(noise_set, params)
    stepper = ScaleStepper(cond, params)
    pyramid = []
    for noise in noise_set.noises:
        tokens = np.argmax(stepper.next_scale_logits() + noise, axis=-1).astype(np.int32)
        stepper.push(tokens)
        pyramid.append(tokens)
    return pyramid


# --- continuous Gaussian reference ------------------------------------------


def gaussian_ar_invert(
    x, mu_sigma: Callable[[np.ndarray], tuple[float, float]]
) -> np.ndarray:
    """Invert a Gaussian autoregressive sequence to its driving noise.

    ``mu_sigma(prefix)`` returns the conditional mean and standard
    deviation of the next step given the prefix.  The inverse noise is
    eps_t = (x_t - mu_t) / sigma_t; each step depends only on x_{<t}, so
    all steps can be recovered independently.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("x must be a non-empty 1-D sequence")
    eps = np.empty_like(x)
    for t in range(x.size):
        mu, sigma = mu_sigma(x[:t])
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValidationError(f"sigma at step {t} must be positive")
        eps[t] = (x[t] - mu) / sigma
    return eps


def gaussian_ar_apply(
    eps, mu_sigma: Callable[[np.ndarray], tuple[float, float]]
) -> np.ndarray:
    """Drive the Gaussian autoregression forward: x_t = mu_t + sigma_t * eps_t."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 1 or eps.size == 0:
        raise ValidationError("eps must be a non-empty 1-D sequence")
    x = np.empty_like(eps)
    for t in range(eps.size):
        mu, sigma = mu_sigma(x[:t])
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValidationError(f"sigma at step {t} must be positive")
        x[t] = mu + sigma * eps[t]
    return x
