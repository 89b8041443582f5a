"""Shared fixtures: default toy configuration, fuzz inputs, and
test-side references (the doubling schedule, the full logits of a
scale, prefix logits, the standard Gumbel transform, a whole keyed
Gumbel field, the Gumbel-max draw of a logits map, the truncated
transform of uniforms, residual energies, the Gaussian autoregressive
inversion, the environment of a fresh interpreter)."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import invnoise
from invnoise.codec import ScaleSchedule, default_codebook, embed_tokens, upsample_replicate
from invnoise.errors import ValidationError
from invnoise.gumbel import truncated_from_loglog
from invnoise.predictor import PredictorParams, ScaleStepper, condition_embed
from invnoise.rng import normal_values, uniform_values


def child_env(**extra):
    """This environment, with the package under test first on
    PYTHONPATH, for a fresh interpreter."""
    path = [str(Path(invnoise.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


def dyadic_schedule(num_scales: int) -> ScaleSchedule:
    """1x1, 2x2, 4x4, ... doubling square schedule."""
    return ScaleSchedule(tuple((2**k, 2**k) for k in range(num_scales)))


@pytest.fixture(scope="session")
def codebook():
    return default_codebook()


@pytest.fixture(scope="session")
def schedule():
    return dyadic_schedule(5)


@pytest.fixture(scope="session")
def params(codebook, schedule):
    return PredictorParams(codebook=codebook, schedule=schedule)


@pytest.fixture(scope="session")
def source_cond(params):
    return condition_embed("red brick house among pines", params)


@pytest.fixture(scope="session")
def target_cond(params):
    return condition_embed("blue glass tower among pines", params)


def random_grid(seed: int, dim: int = 4, size: int = 16, amplitude: float = 0.6) -> np.ndarray:
    """Deterministic fuzz grid: keyed Gaussian field, (d, size, size)."""
    field = normal_values(
        seed,
        99,
        0,
        np.arange(size)[:, None, None],
        np.arange(size)[None, :, None],
        np.arange(dim)[None, None, :],
    )
    return amplitude * np.moveaxis(field, -1, 0)


def next_scale_logits(stepper: ScaleStepper) -> np.ndarray:
    """(..., h, w, C) logits of the stepper's current scale, as written:
    its block logits copied to every cell of their blocks."""
    block_logits, (fh, fw) = stepper.block_logits()
    *lead, hc, wc, c = block_logits.shape
    logits = np.empty((*lead, hc * fh, wc * fw, c))
    logits.reshape(*lead, hc, fh, wc, fw, c)[...] = block_logits[..., :, None, :, None, :]
    return logits


def walk_logits(prefix, cond, params) -> np.ndarray:
    """Logits of the scale after ``prefix`` (the scales before it), from a
    ScaleStepper walked over the prefix."""
    stepper = ScaleStepper(cond, params)
    for tokens in prefix:
        stepper.push(tokens)
    return next_scale_logits(stepper)


def standard_from_uniform(u):
    """Standard Gumbel transform g = -log(-log u) for u in (0,1)."""
    return -np.log(-np.log(u))


def standard_field(seed, purpose: int, scale: int, shape: tuple[int, int, int]) -> np.ndarray:
    """Keyed standard Gumbel draws -log(-log u) over a whole (h, w, C)
    grid, as first written: the row/col/channel key fields are the grid
    indices, and an array of S seeds gives (S, h, w, C)."""
    h, w, c = shape
    u = uniform_values(
        seed,
        purpose,
        scale,
        np.arange(h)[:, None, None],
        np.arange(w)[None, :, None],
        np.arange(c)[None, None, :],
    )
    return standard_from_uniform(u)


def sample_token_map(logits: np.ndarray, seed: int, purpose: int, scale: int) -> np.ndarray:
    """Gumbel-max draw at every cell of an (h, w, C) logits map, as
    written: the argmax of the logits plus a keyed standard field."""
    g = standard_field(seed, purpose, scale, logits.shape)
    g += logits
    return np.argmax(g, axis=-1).astype(np.int32)


def truncated_gumbel(phi, trunc, u):
    """Gumbel(phi, 1) conditioned on <= trunc, from uniforms u in (0,1)."""
    return truncated_from_loglog(phi, trunc, np.log(-np.log(u)))


def residual_energies(grid, pyramid, codebook, schedule) -> list[float]:
    """Sum of squares of grid minus the partial decode of the first k
    scales, for k = 0 .. K."""
    residual = np.array(grid, dtype=np.float64)
    energies = [float(np.sum(residual**2))]
    for tokens in pyramid:
        residual -= upsample_replicate(embed_tokens(tokens, codebook), schedule.finest)
        energies.append(float(np.sum(residual**2)))
    return energies


def gaussian_ar_invert(x, mu_sigma) -> np.ndarray:
    """Invert a Gaussian autoregressive sequence to its driving noise.

    ``mu_sigma(prefix)`` returns the conditional mean and standard
    deviation of the next step given the prefix.  The inverse noise is
    eps_t = (x_t - mu_t) / sigma_t; each step depends only on x_{<t}, so
    all steps can be recovered independently.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.empty_like(x)
    for t in range(x.size):
        mu, sigma = mu_sigma(x[:t])
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValidationError(f"sigma at step {t} must be positive")
        eps[t] = (x[t] - mu) / sigma
    return eps


def gaussian_ar_apply(eps, mu_sigma) -> np.ndarray:
    """Drive the Gaussian autoregression forward: x_t = mu_t + sigma_t * eps_t."""
    eps = np.asarray(eps, dtype=np.float64)
    x = np.empty_like(eps)
    for t in range(eps.size):
        mu, sigma = mu_sigma(x[:t])
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValidationError(f"sigma at step {t} must be positive")
        x[t] = mu + sigma * eps[t]
    return x
