"""Gumbel distribution primitives.

Standard and located sampling, closed-form truncated sampling, argmax
(Gumbel-max) categorical sampling, and the Kolmogorov-Smirnov statistic
against the Gumbel CDF, used to judge how Gumbel-like a batch of values
is.

The standard and located transforms map explicit uniform draws through
their closed forms (pure math, easy to pin in tests); the truncated
transform takes its draws as log(-log u), which the inversion computes
once for every margin; both take their inputs as checked (finite
stepper logits, keyed uniforms, a checked margin).  Keyed uniforms come
from :func:`invnoise.rng.uniform_values`: ``standard_field`` and
``sample_token_map`` draw whole (h, w, C) fields, and the located and
truncated draws of the inversion are keyed in :mod:`invnoise.inversion`.
On arrays of 2^19 entries or more, the truncated transform splits its
rows, and ``standard_field`` its draws, across threads
(:mod:`invnoise._blocks`); each value is computed alone, so the bytes
do not change.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from ._blocks import run_blocks
from .errors import ValidationError
from .rng import uniform_values

EULER_MASCHERONI = 0.5772156649015329


def standard_from_uniform(u):
    """Standard Gumbel transform g = -log(-log u) for u in (0,1)."""
    return -np.log(-np.log(u))


def located_from_uniform(phi, u):
    """Gumbel(phi, 1) transform, for a finite phi."""
    return phi + standard_from_uniform(u)


def truncated_from_loglog(phi, trunc, loglog):
    """Gumbel(phi, 1) conditioned on being <= trunc, given the draw as
    loglog = log(-log u) for u in (0,1).

    The closed form phi - log(exp(phi - trunc) - log u) is computed as
    phi - logaddexp(phi - trunc, loglog), so exp(phi - trunc) never
    overflows, then clamped so the bound holds exactly in float64.
    loglog does not depend on phi or trunc, so draws transformed once
    serve every bound.  phi and trunc are finite.  The steps write into
    one buffer of the broadcast shape, over row ranges (the third axis
    from the end) split across threads; a 0-d result is a numpy scalar.
    """
    phi = np.asarray(phi, dtype=np.float64)
    trunc = np.asarray(trunc, dtype=np.float64)
    loglog = np.asarray(loglog, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(phi.shape, trunc.shape, loglog.shape))

    def transform_rows(lo, hi):
        o, p, t, g = (_rows(x, lo, hi) for x in (out, phi, trunc, loglog))
        np.subtract(p, t, out=o)
        np.logaddexp(o, g, out=o)
        np.subtract(p, o, out=o)
        np.minimum(o, t, out=o)

    run_blocks(transform_rows, out.shape[-3] if out.ndim >= 3 else 1, out.size)
    return out[()]


def _rows(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of an (..., h, w, C) operand; all of one that broadcasts
    along the rows."""
    return x[..., lo:hi, :, :] if x.ndim >= 3 and x.shape[-3] > 1 else x


def standard_field(
    seed: int, purpose: int, scale: int, shape: tuple[int, int, int]
) -> np.ndarray:
    """Keyed standard Gumbel draws -log(-log u) over an (h, w, C) grid.

    Row/col/channel key fields are the grid indices; an array of S seeds
    gives (S, h, w, C).  The transform runs in place on the uniform
    buffer, over ranges of it split across threads.
    """
    h, w, c = shape
    g = uniform_values(
        seed,
        purpose,
        scale,
        np.arange(h)[:, None, None],
        np.arange(w)[None, :, None],
        np.arange(c)[None, None, :],
    )
    flat = g.reshape(-1)

    def transform(lo, hi):
        x = flat[lo:hi]
        np.log(x, out=x)
        np.negative(x, out=x)
        np.log(x, out=x)
        np.negative(x, out=x)

    run_blocks(transform, flat.size, flat.size)
    return g


def sample_token_map(
    logits: np.ndarray, seed: int, purpose: int, scale: int
) -> np.ndarray:
    """Gumbel-max draw at every cell of an (h, w, C) logits map."""
    g = standard_field(seed, purpose, scale, logits.shape)
    g += logits
    return np.argmax(g, axis=-1).astype(np.int32)


# --- reference CDFs ---------------------------------------------------------


def gumbel_cdf(z, loc: float = 0.0):
    """CDF exp(-exp(-(z - loc))) of Gumbel(loc, 1)."""
    # exp overflow at very negative z saturates to the correct limit 0
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-(np.asarray(z, dtype=np.float64) - loc)))


def ks_statistic(samples, cdf: Union[str, Callable[[np.ndarray], np.ndarray]]) -> float:
    """Sup-distance between the empirical CDF of samples and a reference.

    ``cdf`` is "gumbel" (the standard Gumbel law) or a callable mapping
    values to cumulative probabilities.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if x.size == 0:
        raise ValidationError("ks_statistic needs at least one sample")
    if isinstance(cdf, str):
        if cdf != "gumbel":
            raise ValidationError(f"unknown cdf identifier {cdf!r}")
        cdf = gumbel_cdf
    f = np.asarray(cdf(x), dtype=np.float64)
    n = x.size
    steps = np.arange(n, dtype=np.float64)
    d_plus = np.max((steps + 1.0) / n - f)
    d_minus = np.max(f - steps / n)
    return float(max(d_plus, d_minus))
