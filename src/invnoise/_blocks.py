"""Row blocks of one loop, run on a few threads.

Every keyed draw is a pure function of its (seed, purpose, scale, row,
col, channel), so the cells of a scale are independent and the work of
a large scale may split into row blocks and still give the same bytes.
``for_row_blocks`` is the one driver of such a loop: it walks row blocks
of about ``CHUNK`` entries, so a block's temporaries stay in cache, and
from ``MIN_ENTRIES`` entries splits them across threads.  numpy
releases the GIL inside its array operations, so the ranges run at
once.  Threads start per call and are joined before it returns: no
thread or pool outlives a call.  Each scale of a generation, an
inversion or an edit walk is one such pass, whose body does all of the
scale's (h, w, C)-sized work for its rows (draw, invert, mix, argmax)
in per-thread scratch, so none holds a full-size float64 array.
``spread_rows`` gives a body the rows of its block of values held once
per (fh, fw) block of cells, such as the stepper's block logits, spread
over those cells.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

# Entries per row block (256 KiB of float64 or uint64): the one block
# size of every blocked kernel.
CHUNK = 1 << 15
# Loops over fewer entries than this run serially, in the caller: no
# desk-scale array (16x16x64 per seed) starts a thread.
MIN_ENTRIES = 1 << 19
# The cores this process may run on, and the threads per loop (at most 4).
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREADS = min(4, CORES)


def one_thread() -> None:
    """Run every loop of this process serially (the initializer of a
    sweep's worker processes, which already share the cores)."""
    global THREADS
    THREADS = 1


def for_row_blocks(body, rows: int, entries: int, scratch=None) -> None:
    """Run ``body(lo, hi, buf)`` over row ranges that cover range(rows).

    ``entries`` is the size of the arrays the loop writes; each range
    holds about ``CHUNK`` of them (at least one row).  ``buf`` is
    ``scratch(step)``, with ``step`` the rows of a full range, built
    once per thread, or None without ``scratch``.  A loop of at most
    ``CHUNK`` entries is one ``body(0, rows, buf)`` in the caller; the
    ranges of a larger one split across threads as ``run_blocks``
    splits them.
    """
    if entries <= CHUNK:
        body(0, rows, None if scratch is None else scratch(rows))
        return
    step = max(1, CHUNK * rows // entries)

    def run(lo, hi):
        buf = None if scratch is None else scratch(step)
        for r in range(lo * step, min(hi * step, rows), step):
            body(r, min(r + step, rows), buf)

    run_blocks(run, -(-rows // step), entries)


def run_blocks(body, n: int, entries: int) -> None:
    """Run ``body(lo, hi)`` over contiguous ranges that cover range(n).

    ``entries`` is the size of the arrays the loop writes.  Below
    ``MIN_ENTRIES`` of them, or with one thread, this is ``body(0, n)``.
    Otherwise up to ``THREADS`` ranges run at once, the first in the
    caller; every thread is joined before this returns, and the first
    exception, in range order, is raised here.  A body must not rely on
    the caller's ``np.errstate``: a new thread starts with the defaults.
    """
    parts = min(THREADS, n) if entries >= MIN_ENTRIES else 1
    if parts <= 1:
        body(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    errors = [None] * parts

    def run(i):
        try:
            body(bounds[i], bounds[i + 1])
        except BaseException as exc:  # raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, parts)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def run_flat(kernel, *arrays) -> None:
    """Run the elementwise ``kernel(*arrays)`` over blocks of the flat
    views of the arrays, which are contiguous and share one size."""
    size = arrays[0].size
    flats = [x.reshape(-1) for x in arrays]
    for_row_blocks(lambda lo, hi, _: kernel(*(x[lo:hi] for x in flats)), size, size)


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
