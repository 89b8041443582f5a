"""Row blocks of one loop.

Every keyed draw is a pure function of its (seed, purpose, scale, row,
col, channel), so the cells of a scale are independent and the work of
a large scale may split into row blocks of any size and still give the
same bytes.  ``for_row_blocks`` is the one driver of such a loop: it
walks row blocks of about ``CHUNK`` entries in order, so a block's
temporaries stay in cache, and it builds the blocks the loop's body
works in, once per pass.  Each scale of a generation, an inversion or
an edit walk is one such pass, whose body does all of the scale's
(h, w, C)-sized work for its rows (draw, invert, mix, argmax) in those
blocks, so none holds a full-size float64 array.  Values held once per
(fh, fw) block of cells, such as the stepper's block logits, meet a
body's cell rows by broadcasting over the view ``by_blocks``, never by
a copy.
"""

from __future__ import annotations

import numpy as np

# Entries per row block (256 KiB of float64 or uint64): the one block
# size of every blocked kernel.
CHUNK = 1 << 15


def for_row_blocks(body, rows: int, entries: int, dtypes=(np.float64,)) -> None:
    """Run ``body(lo, hi, buf)`` over row ranges that cover range(rows),
    in order.

    ``entries`` is the size of the arrays the loop writes; each range
    holds about ``CHUNK`` of them (at least one row, at most ``rows``,
    so a loop of at most ``CHUNK`` entries is one ``body(0, rows,
    buf)``).  ``buf`` is a list of one flat array per dtype in
    ``dtypes``, of ``entries // rows * step`` entries with ``step`` the
    rows of a full range, built once per call.  Every body call gets
    the same arrays, so a body writes each entry before it reads it.
    """
    step = max(1, min(rows, CHUNK * rows // max(entries, 1)))
    buf = [np.empty(entries // max(rows, 1) * step, dtype) for dtype in dtypes]
    for lo in range(0, rows, step):
        body(lo, min(lo + step, rows), buf)


def by_blocks(x, factors: tuple[int, int]):
    """A view of the (..., n, w, C) cell rows ``x`` as (..., n / fh, fh,
    w / fw, fw, C), over which the block rows ``logits[..., :, None, :,
    None, :]`` of the (fh, fw) ``factors`` broadcast: every cell meets
    its block's logits, and nothing is copied."""
    fh, fw = factors
    *lead, n, w, c = x.shape
    return x.reshape(*lead, n // fh, fh, w // fw, fw, c)
