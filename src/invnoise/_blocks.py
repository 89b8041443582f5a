"""Contiguous ranges of one loop, run on a few threads.

Every keyed draw is a pure function of its (seed, purpose, scale, row,
col, channel), so the cells of a scale are independent and the in-place
kernels of a large scale may split their loops into ranges and still
give the same bytes.  numpy releases the GIL inside its array
operations, so the ranges run at once.  Threads start per call and are
joined before it returns: no thread or pool outlives a call.
"""

from __future__ import annotations

import os
import threading

# Loops over fewer entries than this run serially, in the caller: no
# desk-scale array (16x16x64 per seed) starts a thread.
MIN_ENTRIES = 1 << 19
# Threads per loop: the cores this process may run on, at most 4.
THREADS = min(
    4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def one_thread() -> None:
    """Run every loop of this process serially (the initializer of a
    sweep's worker processes, which already share the cores)."""
    global THREADS
    THREADS = 1


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
