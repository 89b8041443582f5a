"""Gumbel distribution primitives.

Standard and located sampling, closed-form truncated sampling, and the
Kolmogorov-Smirnov statistic against the Gumbel CDF, used to judge how
Gumbel-like a batch of values is.

The standard and located transforms map explicit uniform draws through
their closed forms (pure math, easy to pin in tests); the truncated
transform takes its draws as log(-log u), which the inversion computes
once for every margin; both take their inputs as checked (finite
stepper logits, keyed uniforms, a checked margin).  Keyed uniforms come
from :func:`invnoise.rng.uniform_values`: ``standard_field`` draws whole
(h, w, C) fields, whose Gumbel-max tokens the stepper takes
(:meth:`~invnoise.predictor.ScaleStepper.next_scale_tokens`), and the
located and truncated draws of the inversion are keyed in
:mod:`invnoise.inversion`.  The truncated transform and
``standard_field`` go by blocks of :mod:`invnoise._blocks`; each value
is computed alone, so the bytes do not change on any thread count.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from . import _blocks
from .errors import ValidationError
from .rng import uniform_values

EULER_MASCHERONI = 0.5772156649015329


def standard_from_uniform(u):
    """Standard Gumbel transform g = -log(-log u) for u in (0,1)."""
    return -np.log(-np.log(u))


def located_from_uniform(phi, u):
    """Gumbel(phi, 1) transform, for a finite phi."""
    return phi + standard_from_uniform(u)


def truncated_from_loglog(phi, trunc, loglog, out=None, factors=(1, 1)):
    """Gumbel(phi, 1) conditioned on being <= trunc, given the draw as
    loglog = log(-log u) for u in (0,1).

    The closed form phi - log(exp(phi - trunc) - log u) is computed as
    phi - logaddexp(phi - trunc, loglog), so exp(phi - trunc) never
    overflows, then clamped so the bound holds exactly in float64.
    loglog does not depend on phi or trunc, so draws transformed once
    serve every bound.  phi and trunc are finite.  The steps write into
    one float64 buffer of the broadcast shape, ``out`` if given, by row
    blocks (the third axis from the end) of :mod:`invnoise._blocks`; a
    0-d result is a numpy scalar.  ``out`` may be ``loglog`` itself,
    whose draws are then overwritten, with phi - trunc in scratch.

    With block ``factors`` (fh, fw) other than (1, 1), phi is
    (..., h / fh, w / fw, C), one value per (fh, fw) block of cells (the
    stepper's block logits), and takes no part in the broadcast: each
    row block spreads its rows of phi in scratch
    (``_blocks.spread_rows``), a copy, so the bytes are those of the
    full phi.
    """
    phi = np.asarray(phi, dtype=np.float64)
    trunc = np.asarray(trunc, dtype=np.float64)
    loglog = np.asarray(loglog, dtype=np.float64)
    if out is None:
        phi_shape = phi.shape if factors == (1, 1) else ()
        out = np.empty(np.broadcast_shapes(phi_shape, trunc.shape, loglog.shape))
    fh = factors[0]
    rows = out.shape[-3] // fh if out.ndim >= 3 else 1
    in_place = out is loglog

    def truncate_rows(lo, hi, scratch):
        phi_buf, diff = scratch
        block = [_blocks.take_rows(x, lo * fh, hi * fh) for x in (out, trunc, loglog)]
        d = block[0] if diff is None else diff[: block[0].size].reshape(block[0].shape)
        _truncate(block[0], _blocks.spread_rows(phi, factors, lo, hi, phi_buf), *block[1:], d)

    def scratch(step):
        diff = np.empty(out.size // max(rows, 1) * step) if in_place else None
        return _blocks.spread_scratch(phi, factors, step), diff

    _blocks.for_row_blocks(truncate_rows, rows, out.size, scratch)
    return out[()]


def _truncate(out, phi, trunc, loglog, diff) -> None:
    """``truncated_from_loglog`` written into ``out``, with phi - trunc
    in ``diff`` (``out`` itself unless ``out`` is ``loglog``)."""
    np.subtract(phi, trunc, out=diff)
    np.logaddexp(diff, loglog, out=out)
    np.subtract(phi, out, out=out)
    np.minimum(out, trunc, out=out)


def standard_field(
    seed: int, purpose: int, scale: int, shape: tuple[int, int, int]
) -> np.ndarray:
    """Keyed standard Gumbel draws -log(-log u) over an (h, w, C) grid.

    Row/col/channel key fields are the grid indices; an array of S seeds
    gives (S, h, w, C).  The transform runs in place on the uniform
    buffer.
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
    _blocks.run_flat(_standard_in_place, g)
    return g


def _standard_in_place(x: np.ndarray) -> None:
    """Overwrite uniforms x with -log(-log x)."""
    np.log(x, out=x)
    np.negative(x, out=x)
    np.log(x, out=x)
    np.negative(x, out=x)


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
