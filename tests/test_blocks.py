"""Threaded kernels: every loop split by ``invnoise._blocks`` gives the
serial run's bytes, and its errors, at any thread count.

The thread count and the size threshold are forced through the helper's
module constants.  The shapes have 13 rows (26 with two seeds) and 7 or
13 chunks of ``_blocks.CHUNK`` words, which 2 and 3 threads do not divide.
"""

import sys
import threading

import numpy as np
import pytest

from invnoise import _blocks, codec, gumbel, inversion, rng
from invnoise.errors import InvariantError, ValidationError

SHAPE = (13, 29, 541)  # 203957 entries: 7 chunks, 2 rows per distance block
SEEDS = [None, np.array([5, 2**64 - 1], dtype=np.uint64)]
SEED_IDS = ["one-seed", "seed-axis"]


@pytest.fixture
def threads(monkeypatch):
    """``threads(n)`` runs every loop on n threads, at any size."""

    def force(n):
        monkeypatch.setattr(_blocks, "THREADS", n)
        monkeypatch.setattr(_blocks, "MIN_ENTRIES", 0)

    return force


def serial_and_threaded(threads, kernel):
    """``kernel()``, a tuple of arrays, gives the same arrays on 2 and 3
    threads as on one."""
    threads(1)
    expected = kernel()
    for n in (2, 3):
        threads(n)
        got = kernel()
        assert all(
            np.array_equal(a, b) and a.dtype == b.dtype
            for a, b in zip(expected, got, strict=True)
        )


def seed_of(seeds):
    return 7 if seeds is None else seeds


def logits_and_tokens(seed, shape=SHAPE):
    h, w, c = shape
    cells = rng.normal_values(seed, 9, 1, np.arange(h)[:, None, None], np.arange(w)[None, :, None],
                              np.arange(4))
    vectors = rng.normal_values(seed, 9, 2, np.arange(c)[:, None], 0, np.arange(4))
    logits = -4.0 * codec.squared_distances(cells, vectors)
    tokens = np.argmax(logits + gumbel.standard_field(seed, 9, 3, shape), axis=-1).astype(np.int32)
    return logits, tokens


class TestRunBlocks:
    def test_ranges_cover_the_loop_and_the_caller_runs_the_first(self, threads):
        threads(3)
        seen = []
        _blocks.run_blocks(lambda lo, hi: seen.append((lo, hi, threading.get_ident())), 7, 1)
        assert sorted(r[:2] for r in seen) == [(0, 2), (2, 4), (4, 7)]
        callers = {lo: ident == threading.get_ident() for lo, _, ident in seen}
        assert callers == {0: True, 2: False, 4: False}

    def test_no_more_ranges_than_steps(self, threads):
        threads(4)
        seen = []
        _blocks.run_blocks(lambda lo, hi: seen.append((lo, hi)), 2, 1)
        assert sorted(seen) == [(0, 1), (1, 2)]

    def test_small_loops_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(_blocks, "THREADS", 4)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        seen = []
        _blocks.run_blocks(lambda lo, hi: seen.append((lo, hi)), 64, _blocks.MIN_ENTRIES - 1)
        assert seen == [(0, 64)]
        assert started == []

    def test_first_error_in_range_order_after_every_join(self, threads):
        threads(3)
        running = threading.active_count()
        finished = []

        def body(lo, hi):
            if lo == 0:
                finished.append(lo)
                return
            threading.Event().wait(0.05 if lo == 2 else 0.0)
            finished.append(lo)
            raise (KeyError if lo == 2 else ValueError)(lo)

        with pytest.raises(KeyError):
            _blocks.run_blocks(body, 7, 1)
        assert sorted(finished) == [0, 2, 4]
        assert threading.active_count() == running

    def test_one_thread_sets_the_count(self, monkeypatch):
        monkeypatch.setattr(_blocks, "THREADS", 4)
        _blocks.one_thread()
        assert _blocks.THREADS == 1

    def test_default_count_follows_the_cores(self):
        assert 1 <= _blocks.THREADS <= 4


class TestForRowBlocks:
    """13 rows of 5 entries in blocks of 3 rows (``CHUNK`` = 15 entries):
    5 blocks, the last one of a single row."""

    BLOCKS = [(0, 3), (3, 6), (6, 9), (9, 12), (12, 13)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_cover_the_rows(self, threads, monkeypatch, n):
        threads(n)
        monkeypatch.setattr(_blocks, "CHUNK", 15)
        seen = []
        _blocks.for_row_blocks(lambda lo, hi, buf: seen.append((lo, hi, buf)), 13, 65)
        assert sorted(seen) == [(lo, hi, None) for lo, hi in self.BLOCKS]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scratch_built_once_per_thread_range(self, threads, monkeypatch, n):
        threads(n)
        monkeypatch.setattr(_blocks, "CHUNK", 15)
        built, used = [], {}

        def scratch(step):
            built.append((step, threading.get_ident()))
            return len(built) - 1

        def body(lo, hi, buf):
            assert built[buf][1] == threading.get_ident()
            used.setdefault(buf, []).append((lo, hi))

        _blocks.for_row_blocks(body, 13, 65, scratch)
        assert [step for step, _ in built] == [3] * n
        assert sorted(used.values()) == [
            self.BLOCKS[5 * i // n : 5 * (i + 1) // n] for i in range(n)
        ]

    def test_one_chunk_is_one_block_in_the_caller(self, threads, monkeypatch):
        """At most ``CHUNK`` entries: one call over every row, with scratch
        for all of them, and no thread, whatever the thread settings."""
        threads(4)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        seen = []
        _blocks.for_row_blocks(
            lambda lo, hi, buf: seen.append((lo, hi, buf, threading.get_ident())),
            64,
            _blocks.CHUNK,
            lambda step: step,
        )
        assert seen == [(0, 64, 64, threading.get_ident())]
        assert started == []


class TestSpreadRows:
    @pytest.mark.parametrize("factors", [(2, 3), (3, 1)])
    def test_rows_of_the_spread(self, factors):
        """Rows lo:hi of block values, with a leading axis, are those rows
        of the values repeated over their blocks, in scratch."""
        fh, fw = factors
        seeds = np.array([1, 2], dtype=np.uint64)
        x = rng.normal_values(seeds, 9, 0, np.arange(5)[:, None, None],
                              np.arange(4)[:, None], np.arange(3))
        full = np.repeat(np.repeat(x, fh, axis=-3), fw, axis=-2)
        buf = _blocks.spread_scratch(x, factors, 5)
        for lo, hi in [(0, 5), (1, 3), (4, 5)]:
            got = _blocks.spread_rows(x, factors, lo, hi, buf)
            assert np.array_equal(got, full[..., lo * fh : hi * fh, :, :])
            assert np.shares_memory(got, buf)

    def test_factor_one_is_a_view(self):
        x = np.zeros((5, 4, 3))
        assert _blocks.spread_scratch(x, (1, 1), 2) is None
        got = _blocks.spread_rows(x, (1, 1), 1, 3, None)
        assert got.base is x and got.shape == (2, 4, 3)


def spread_logits_and_tokens(seed, factors):
    """Logits of a (5, 7) grid of prefix blocks, the same logits spread
    over blocks of ``factors`` cells, and the Gumbel-max tokens of the
    spread logits."""
    fh, fw = factors
    block, _ = logits_and_tokens(seed, (5, 7, SHAPE[2]))
    full = np.repeat(np.repeat(block, fh, axis=0), fw, axis=1)
    tokens = np.argmax(full + gumbel.standard_field(seed, 9, 3, full.shape), axis=-1)
    return block, full, tokens.astype(np.int32)


class TestBlockLogits:
    @pytest.mark.parametrize("factors", [(2, 2), (1, 3), (3, 2)])
    @pytest.mark.parametrize("kind", ["lai", "oai"])
    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_inversion_step(self, threads, monkeypatch, factors, kind, seeds):
        """The step under block logits and their factors gives the noise
        of the step under the spread logits at two margins, bit for bit,
        with row blocks of 1 and 2 prefix-block rows (5 rows leave them
        ragged) on 1, 2 and 3 threads."""
        block, full, tokens = spread_logits_and_tokens(8, factors)
        taus, seed = (18.0, 0.0), seed_of(seeds)
        threads(1)
        want = tuple(inversion.invert_scale(tokens, full, (1, 1), taus, seed, 5, kind))
        row = full[0].size * (1 if seeds is None else seeds.size)
        for rows in (1, 2):
            monkeypatch.setattr(_blocks, "CHUNK", rows * factors[0] * row)
            for n in (1, 2, 3):
                threads(n)
                got = tuple(inversion.invert_scale(tokens, block, factors, taus, seed, 5, kind))
                assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))

    def test_truncated_transform(self, threads):
        """The truncated transform under block logits, into a new array and
        over the log-log, equals the transform under the spread logits."""
        block, full, _ = spread_logits_and_tokens(9, (3, 2))
        _, u_off = inversion._keyed_uniforms(7, 4, full.shape)
        loglog = inversion._loglog(u_off)
        trunc = np.max(full, axis=-1, keepdims=True) - 2.0
        want = gumbel.truncated_from_loglog(full, trunc, loglog)
        for n in (1, 2):
            threads(n)
            assert np.array_equal(gumbel.truncated_from_loglog(block, trunc, loglog, None, (3, 2)),
                                  want)
            over = loglog.copy()
            gumbel.truncated_from_loglog(block, trunc, over, over, (3, 2))
            assert np.array_equal(over, want)


class TestThreadedEqualsSerial:
    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_keyed_uniforms(self, threads, seeds):
        """The keyed hash (``_mix``) and the open-unit map, over 7 or 13
        chunks."""
        h, w, c = SHAPE
        fields = np.arange(h)[:, None, None], np.arange(w)[None, :, None], np.arange(c)
        serial_and_threaded(
            threads,
            lambda: (
                rng.raw64_values(seed_of(seeds), 2, 3, *fields),
                rng.uniform_values(seed_of(seeds), 2, 3, *fields),
            ),
        )

    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_standard_field(self, threads, seeds):
        serial_and_threaded(threads, lambda: (gumbel.standard_field(seed_of(seeds), 3, 2, SHAPE),))

    @pytest.mark.parametrize("maps", [1, 2], ids=SEED_IDS)
    def test_squared_distances(self, threads, maps):
        """7 row blocks of two rows, or 13 over two maps; the nearest
        vectors of each map by its 7 row blocks."""
        h, w, c = SHAPE
        rows, cols = np.arange(h)[:, None, None], np.arange(w)[None, :, None]
        cells = rng.normal_values(1, 9, 4, rows, cols, np.arange(4))
        if maps == 2:
            cells = np.stack([cells, 2.0 * cells])
        vectors = rng.normal_values(1, 9, 5, np.arange(c)[:, None], 0, np.arange(4))
        vectors[0] = 0.0
        codebook = codec.Codebook(vectors)
        serial_and_threaded(
            threads,
            lambda: (
                codec.squared_distances(cells, vectors),
                *(codec.quantize_cells(m, codebook) for m in cells.reshape(-1, h, w, 4)),
            ),
        )

    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_loglog_and_truncated_transform(self, threads, seeds):
        """The log-log over its draws' buffer, and the truncated transform
        into a new array and over the log-log itself, in row chunks of
        two rows (three with two seeds), which 13 rows leave ragged."""
        logits, _ = logits_and_tokens(3)
        _, u_off = inversion._keyed_uniforms(seed_of(seeds), 4, SHAPE)
        trunc = np.max(logits, axis=-1, keepdims=True) - 2.0
        if seeds is not None:
            trunc = trunc - np.arange(2)[:, None, None, None]

        def kernel():
            loglog = inversion._loglog(u_off.copy())
            fresh = gumbel.truncated_from_loglog(logits, trunc, loglog)
            over = loglog.copy()
            gumbel.truncated_from_loglog(logits, trunc, over, out=over)
            assert np.array_equal(over, fresh)
            return loglog, fresh

        serial_and_threaded(threads, kernel)

    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    @pytest.mark.parametrize("tau", [0.0, 18.0])
    def test_inversion_step(self, threads, monkeypatch, seeds, tau):
        """Located inversion, tightening included, at two margins, with
        tightening chunks of 1, 2 and 3 rows."""
        logits, tokens = logits_and_tokens(4)
        row = SHAPE[1] * SHAPE[2] * (1 if seeds is None else seeds.size)
        for rows in (1, 2, 3):
            monkeypatch.setattr(_blocks, "CHUNK", rows * row)
            serial_and_threaded(
                threads,
                lambda: tuple(inversion.invert_scale(tokens, logits, (1, 1), (tau, 2.0), seed_of(seeds), 5)),
            )

    def test_more_threads_than_cores_at_a_short_switch_interval(self, threads):
        """Four threads on at most four cores, switching every microsecond,
        still write only their own rows."""
        logits, tokens = logits_and_tokens(6)
        threads(1)
        expected = tuple(inversion.invert_scale(tokens, logits, (1, 1), (18.0,), 0, 2))
        threads(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = tuple(inversion.invert_scale(tokens, logits, (1, 1), (18.0,), 0, 2))
                assert np.array_equal(got[0], expected[0])
        finally:
            sys.setswitchinterval(interval)

    def test_onehot_inversion(self, threads):
        logits, tokens = logits_and_tokens(5)
        serial_and_threaded(
            threads, lambda: tuple(inversion.invert_scale(tokens, logits, (1, 1), (0.0,), 0, 1, "oai"))
        )


def hopeless_and_huge(rows, hopeless=(), huge=()):
    """Noise that tightens at tau 18 (label noise 50, off-label noise 0),
    except that the label of row r in ``hopeless`` has no margin and a
    value of row r in ``huge`` is beyond +-2^127: the arguments of
    ``_tighten`` before the margin, the noise as perturbed logits under
    zero logits of block factor 1."""
    tokens = np.zeros((rows, 5), dtype=np.int32)
    noise = np.zeros((rows, 5, 3))
    noise[..., 0] = 50.0
    for r in hopeless:
        noise[r, 2, 0] = 0.0
    for r in huge:
        noise[r, 1, 2] = -(2.0**128)
    return tokens, np.zeros((rows, 5, 3)), (1, 1), noise


class TestErrorsCrossThreads:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("row", [0, 6, 12])
    def test_tightening_errors(self, threads, n, row):
        """Both tightening errors reach the caller whichever range holds
        the bad cell, and the range check of the whole noise comes first,
        as on one thread."""
        threads(n)
        assert not inversion._tighten(*hopeless_and_huge(13), 18.0)[..., 1:].any()
        with pytest.raises(InvariantError):
            inversion._tighten(*hopeless_and_huge(13, hopeless=[row]), 18.0)
        with pytest.raises(ValidationError):
            inversion._tighten(*hopeless_and_huge(13, huge=[row]), 18.0)
        with pytest.raises(ValidationError):
            inversion._tighten(*hopeless_and_huge(13, hopeless=[0, 6, 12], huge=[row]), 18.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2])
    def test_promoted_warning_in_a_worker_range(self, threads, n):
        """A RuntimeWarning made an error in the last range (a worker's on
        two threads) reaches the caller, and every thread is joined."""
        threads(n)
        running = threading.active_count()
        phi = np.zeros((13, 5, 3))
        trunc = np.zeros((13, 5, 1))
        phi[12, 0, 0] = trunc[12, 0, 0] = np.inf  # inf - inf: invalid value
        with pytest.raises(RuntimeWarning):
            gumbel.truncated_from_loglog(phi, trunc, np.zeros((13, 5, 3)))
        assert threading.active_count() == running
