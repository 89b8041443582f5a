"""Row blocks of one loop.

Every keyed draw is a pure function of its (seed, purpose, scale, row,
col, channel), so the cells of a scale are independent and the work of
a large scale may split into row blocks and still give the same bytes.
``for_row_blocks`` is the one driver of such a loop: it walks row blocks
of about ``CHUNK`` entries in order, so a block's temporaries stay in
cache.  Each scale of a generation, an inversion or an edit walk is one
such pass, whose body does all of the scale's (h, w, C)-sized work for
its rows (draw, invert, mix, argmax) in scratch built once per pass, so
none holds a full-size float64 array.  ``spread_rows`` gives a body the
rows of its block of values held once per (fh, fw) block of cells, such
as the stepper's block logits, spread over those cells.
"""

from __future__ import annotations

import math

import numpy as np

# Entries per row block (256 KiB of float64 or uint64): the one block
# size of every blocked kernel.
CHUNK = 1 << 15


def for_row_blocks(body, rows: int, entries: int, scratch=None) -> None:
    """Run ``body(lo, hi, buf)`` over row ranges that cover range(rows),
    in order.

    ``entries`` is the size of the arrays the loop writes; each range
    holds about ``CHUNK`` of them (at least one row).  ``buf`` is
    ``scratch(step)``, with ``step`` the rows of a full range, built
    once per call, or None without ``scratch``.  A loop of at most
    ``CHUNK`` entries is one ``body(0, rows, buf)``.
    """
    if entries <= CHUNK:
        body(0, rows, None if scratch is None else scratch(rows))
        return
    step = max(1, CHUNK * rows // entries)
    buf = None if scratch is None else scratch(step)
    for lo in range(0, rows, step):
        body(lo, min(lo + step, rows), buf)


def spread_rows(x, factors: tuple[int, int], lo: int, hi: int, buf):
    """Rows lo:hi of (..., hb, wb, C) block values ``x``, each spread over
    the (fh, fw) cells of its block: (..., (hi - lo) * fh, wb * fw, C).

    The spread is a copy into the flat ``buf`` from ``spread_scratch``,
    so every value is exact.  With factors (1, 1) it is a view of rows
    lo:hi of ``x``.
    """
    if buf is None:
        return x[..., lo:hi, :, :]
    fh, fw = factors
    *lead, _, wb, c = x.shape
    n = hi - lo
    out = buf[: math.prod(lead) * n * fh * wb * fw * c].reshape(*lead, n, fh, wb, fw, c)
    out[...] = x[..., lo:hi, None, :, None, :]
    return out.reshape(*lead, n * fh, wb * fw, c)


def spread_scratch(x, factors: tuple[int, int], step: int):
    """The flat buffer ``spread_rows`` spreads ``step`` rows of ``x`` into;
    None with factors (1, 1), which need none."""
    if factors == (1, 1):
        return None
    return np.empty(x.size // x.shape[-3] * step * factors[0] * factors[1])
