"""Gumbel distribution primitives.

Standard and located sampling, closed-form truncated sampling, keyed
draws by row blocks, and the Kolmogorov-Smirnov statistic against the
Gumbel CDF, used to judge how Gumbel-like a batch of values is.

The standard and located transforms map explicit uniform draws through
their closed forms (pure math, easy to pin in tests); the truncated
transform takes its draws as log(-log u), so draws transformed once
serve every margin; both take their inputs as checked (finite stepper
logits, keyed uniforms, a checked margin).  ``truncated_from_loglog``
is the exact transform, with np.logaddexp: the inversion's located
noise must round to float32 as its values do, and recomputes with it
every value its faster, certified form cannot vouch for (see
:mod:`invnoise.inversion`).  Keyed draws come one row block at a time,
from :func:`invnoise.rng.uniform_values`: ``loglog_rows`` gives
log(-log u) of rows lo:hi of the keyed uniforms of an (h, w, C) grid,
and ``standard_rows`` the standard Gumbel draws -log(-log u) there (the
inversion's off-label draws, and the noise of a generation or an edit
mix, whose argmax the caller takes from the stepper's block logits in
the same row block).  Both write into a caller's row-block buffer, with
the keyed hash mixing in the caller's scratch, so a pass allocates no
array of a row block's size per block.  Every value is a pure function
of its key, so a scale drawn by row blocks, on any thread count, has
the bytes of a whole draw; no function here makes a whole (h, w, C)
field.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .errors import ValidationError
from .rng import uniform_values

EULER_MASCHERONI = 0.5772156649015329


def standard_from_uniform(u):
    """Standard Gumbel transform g = -log(-log u) for u in (0,1)."""
    return -np.log(-np.log(u))


def located_from_uniform(phi, u):
    """Gumbel(phi, 1) transform, for a finite phi."""
    return phi + standard_from_uniform(u)


def truncated_from_loglog(phi, trunc, loglog, out=None):
    """Gumbel(phi, 1) conditioned on being <= trunc, given the draw as
    loglog = log(-log u) for u in (0,1).

    The closed form phi - log(exp(phi - trunc) - log u) is computed as
    phi - logaddexp(phi - trunc, loglog), so exp(phi - trunc) never
    overflows, then clamped so the bound holds exactly in float64.
    loglog does not depend on phi or trunc, so draws transformed once
    serve every bound.  This is the exact reference of the inversion's
    located noise.  phi and trunc are finite.  The steps write into
    one float64 array of the broadcast shape, ``out`` if given (not
    ``loglog``, which the steps read after the first); a 0-d result is a
    numpy scalar.
    """
    phi = np.asarray(phi, dtype=np.float64)
    trunc = np.asarray(trunc, dtype=np.float64)
    if out is None:
        out = np.empty(np.broadcast_shapes(phi.shape, trunc.shape, np.shape(loglog)))
    np.subtract(phi, trunc, out=out)
    np.logaddexp(out, loglog, out=out)
    np.subtract(phi, out, out=out)
    np.minimum(out, trunc, out=out)
    return out[()]


def loglog_rows(
    seed, purpose: int, scale: int, lo: int, hi: int, w: int, c: int, out=None, scratch=None
) -> np.ndarray:
    """log(-log u) of the keyed uniforms at rows lo:hi of an (h, w, C)
    grid: (hi - lo, w, C), with a leading axis when ``seed`` is an array
    of seeds.  Row/col/channel key fields are the grid indices.  Given
    ``out`` and ``scratch``, C-contiguous float64 buffers of at least
    the result's size, the result is a view of ``out`` and the hash
    mixes in ``scratch`` (see :func:`invnoise.rng.raw64_values`), so the
    call allocates no array of the result's size; the transform runs in
    place."""
    rows, cols = np.arange(lo, hi)[:, None, None], np.arange(w)[:, None]
    u = uniform_values(seed, purpose, scale, rows, cols, np.arange(c), out, scratch)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return u


def standard_rows(
    seed, purpose: int, scale: int, lo: int, hi: int, w: int, c: int, out=None, scratch=None
) -> np.ndarray:
    """Keyed standard Gumbel draws -log(-log u) at rows lo:hi of an
    (h, w, C) grid, keyed and written as ``loglog_rows``."""
    g = loglog_rows(seed, purpose, scale, lo, hi, w, c, out, scratch)
    return np.negative(g, out=g)


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
