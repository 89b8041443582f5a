"""Gumbel distribution primitives.

Located sampling, closed-form truncated sampling, keyed draws by row
blocks, and the Kolmogorov-Smirnov statistic against the Gumbel CDF,
used to judge how Gumbel-like a batch of values is.

The located transform maps explicit uniform draws through its closed
form (pure math, easy to pin in tests); the truncated transform takes
its draws as log(-log u), so draws transformed once
serve every margin; both take their inputs as checked (finite stepper
logits, keyed uniforms, a checked margin).  ``truncated_from_loglog``
is the exact transform, with np.logaddexp: the inversion's located
noise must round to float32 as its values do, and recomputes with it
every value its faster, certified form cannot vouch for (see
:mod:`invnoise.inversion`).  Keyed draws come one row block at a time,
from the keyed words of a scale's cells, which the pass computes once
(:func:`invnoise.rng.cell_words`): ``standard_rows`` gives the
standard Gumbel draws -log(-log u) of the uniforms of a row slice of
those words at channels 0..C-1 (the inversion's off-label draws, whose
negation is the truncated transform's log(-log u), and the noise of a
generation or an edit mix, whose argmax the caller takes from the
stepper's block logits in the same row block).  It absorbs only the
channel step, into a caller's row-block buffer, with the keyed hash
mixing in the caller's scratch, so a pass hashes no row or col twice
and allocates no array of a row block's size per block.  Every value is
a pure function of its key, so a scale drawn by row blocks has the
bytes of a whole draw; no function here makes a whole (h, w, C) field.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .errors import ValidationError
from .rng import channel_uniforms


def located_from_uniform(phi, u):
    """Gumbel(phi, 1) transform phi - log(-log u) of u in (0, 1), for a
    finite phi."""
    return phi - np.log(-np.log(u))


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


def standard_rows(words, c: int, out=None, scratch=None) -> np.ndarray:
    """Keyed standard Gumbel draws -log(-log u) at channels 0..c-1 of the
    cells whose keyed words are ``words``, a row slice of
    :func:`invnoise.rng.cell_words`: (*words.shape, c), the rows of the
    grid's draws with a leading axis when the words have one per seed.
    Given ``out`` and ``scratch``, C-contiguous float64 buffers of at
    least the result's size, the result is a view of ``out`` and the hash
    mixes in ``scratch`` (see :func:`invnoise.rng.channel_uniforms`), so
    the call allocates no array of the result's size; the transform runs
    in place."""
    u = channel_uniforms(words, c, out, scratch)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


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
