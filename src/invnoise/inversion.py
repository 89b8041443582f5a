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

``invert_pyramid`` applies the chosen construction scale by scale under
a condition, and ``reconstruct_from_noise`` replays a noise set; both
walk the scales with one :class:`~invnoise.predictor.ScaleStepper`.
Within a scale all tokens are independent, so the keyed draws make
serial and parallel execution bit-identical.  ``validate_noise_set`` is
the one shape check for noise sets that come from outside.

A continuous reference inversion for Gaussian autoregressive sequences
lives at the bottom of the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codec import validate_pyramid
from .errors import InvariantError, ValidationError
from .gumbel import located_from_uniform, truncated_from_uniform
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
    q = np.full(logits.shape, NEG_SENTINEL)
    h, w = tokens.shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    q[rows, cols, tokens] = 0.0
    return q


def located_inverse_from_uniforms(
    tokens: np.ndarray,
    logits: np.ndarray,
    tau: float,
    u_label: np.ndarray,
    u_off: np.ndarray,
) -> np.ndarray:
    """Located inversion with explicit uniform draws.

    ``u_label`` is (h, w) for the label draw, ``u_off`` is (h, w, C) for
    the off-label truncated draws (the label column is ignored).
    """
    tokens, logits = _check_token_inputs(tokens, logits)
    if not (np.isfinite(tau) and tau >= 0):
        raise ValidationError("tau must be a non-negative finite real")
    h, w = tokens.shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    label_logit = logits[rows, cols, tokens]
    q_label = located_from_uniform(label_logit, np.asarray(u_label, dtype=np.float64))
    q = truncated_from_uniform(
        logits, (q_label - tau)[:, :, None], np.asarray(u_off, dtype=np.float64)
    )
    q[rows, cols, tokens] = q_label
    return q


def located_inverse(
    tokens: np.ndarray,
    logits: np.ndarray,
    tau: float,
    seed: int,
    scale: int,
) -> np.ndarray:
    """Located inversion with keyed uniforms for one scale."""
    tokens = np.asarray(tokens)
    h, w, C = np.asarray(logits).shape
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
    return located_inverse_from_uniforms(tokens, logits, tau, u_label, u_off)


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

    The label's noise is never nudged, so its replayed value is fixed:
    one full pass finds the failing off-label cells, and each later pass
    nudges and re-checks only the cells that still fail, up to
    ``_TIGHTEN_PASSES`` checks in all.
    """
    tokens = np.asarray(tokens)
    h, w = tokens.shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    noise = q - logits
    replayed = logits + noise
    q_label = replayed[rows, cols, tokens]
    bad = _below_margin(q_label[:, :, None], replayed, tau)
    bad[rows, cols, tokens] = False
    i, j, c = np.nonzero(bad)
    for _ in range(_TIGHTEN_PASSES - 1):
        if not i.size:
            return noise
        nudged = np.nextafter(noise[i, j, c], -np.inf)
        noise[i, j, c] = nudged
        still = _below_margin(q_label[i, j], logits[i, j, c] + nudged, tau)
        i, j, c = i[still], j[still], c[still]
    if not i.size:
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
    if not (np.isfinite(tau) and tau >= 0):
        raise ValidationError("tau must be a non-negative finite real")
    if kind not in (KIND_LAI, KIND_OAI):
        raise ValidationError(f"unknown inversion kind {kind!r}")
    maps = validate_pyramid(pyramid, params.codebook, params.schedule)
    stepper = ScaleStepper(cond, params)
    noises = []
    for t, tokens in enumerate(maps, start=1):
        logits = stepper.next_scale_logits()
        if kind == KIND_OAI:
            q = onehot_inverse(tokens, logits)
        else:
            q = located_inverse(tokens, logits, tau, seed, t)
        noises.append(noise_from_perturbed(tokens, logits, q, tau if kind == KIND_LAI else 0.0))
        stepper.push(tokens)
    return InverseNoiseSet(
        noises=tuple(noises),
        condition_label=cond.label,
        tau=float(tau),
        seed=int(seed),
        kind=kind,
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
