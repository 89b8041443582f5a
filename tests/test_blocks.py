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

from conftest import standard_field, truncated_gumbel

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
    tokens = np.argmax(logits + standard_field(seed, 9, 3, shape), axis=-1).astype(np.int32)
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
    tokens = np.argmax(full + standard_field(seed, 9, 3, full.shape), axis=-1)
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
        want = inversion.ScaleInversion(tokens, full, (1, 1), taus, seed, 5, kind).run()
        row = full[0].size * (1 if seeds is None else seeds.size)
        for rows in (1, 2):
            monkeypatch.setattr(_blocks, "CHUNK", rows * factors[0] * row)
            for n in (1, 2, 3):
                threads(n)
                got = inversion.ScaleInversion(tokens, block, factors, taus, seed, 5, kind).run()
                assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))

    def test_truncated_transform(self, threads):
        """The truncated transform of each row block, under the block logits
        spread in scratch as the inversion step spreads them and the keyed
        log-log of its rows, into scratch, equals the transform of the
        whole draw under the spread logits."""
        block, full, _ = spread_logits_and_tokens(9, (3, 2))
        h, w, c = full.shape
        u_off = rng.uniform_values(7, rng.PURPOSE_TRUNC_DRAW, 4, np.arange(h)[:, None, None],
                                   np.arange(w)[:, None], np.arange(c))
        trunc = np.max(full, axis=-1, keepdims=True) - 2.0
        want = truncated_gumbel(full, trunc, u_off)
        for n in (1, 2):
            threads(n)
            got = np.empty_like(want)

            def truncate_rows(lo, hi, buf):
                spread, out = buf
                r = slice(3 * lo, 3 * hi)
                p = _blocks.spread_rows(block, (3, 2), lo, hi, spread)
                loglog = gumbel.loglog_rows(7, rng.PURPOSE_TRUNC_DRAW, 4, r.start, r.stop, w, c)
                out = out[: p.size].reshape(p.shape)
                got[r] = gumbel.truncated_from_loglog(p, trunc[r], loglog, out=out)

            _blocks.for_row_blocks(
                truncate_rows, block.shape[0], full.size,
                lambda step: (_blocks.spread_scratch(block, (3, 2), step),
                              np.empty(3 * step * w * c)),
            )
            assert np.array_equal(got, want)


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
        """Keyed standard draws of all 13 rows at once (the hash split over
        threads) and of rows 4:6 are the whole field's rows."""
        h, w, c = SHAPE
        whole = standard_field(seed_of(seeds), 3, 2, SHAPE)
        serial_and_threaded(
            threads, lambda: (gumbel.standard_rows(seed_of(seeds), 3, 2, 0, h, w, c), whole)
        )
        rows = gumbel.standard_rows(seed_of(seeds), 3, 2, 4, 6, w, c)
        assert np.array_equal(rows, whole[..., 4:6, :, :])

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
        """The keyed log-log of all 13 rows (the hash split over threads),
        and the truncated transform into a new array and into scratch, by
        row blocks of two rows (three with two seeds), which 13 rows leave
        ragged."""
        logits, _ = logits_and_tokens(3)
        h, w, c = SHAPE
        trunc = np.max(logits, axis=-1, keepdims=True) - 2.0
        if seeds is not None:
            trunc = trunc - np.arange(2)[:, None, None, None]

        def kernel():
            loglog = gumbel.loglog_rows(seed_of(seeds), rng.PURPOSE_TRUNC_DRAW, 4, 0, h, w, c)
            fresh = gumbel.truncated_from_loglog(logits, trunc, loglog)
            by_rows = np.empty_like(fresh)

            def truncate_rows(lo, hi, scratch):
                r = slice(lo, hi)
                out = scratch[: by_rows[..., r, :, :].size].reshape(by_rows[..., r, :, :].shape)
                gumbel.truncated_from_loglog(logits[r], trunc[..., r, :, :],
                                             loglog[..., r, :, :], out=out)
                by_rows[..., r, :, :] = out

            _blocks.for_row_blocks(truncate_rows, h, fresh.size,
                                   lambda step: np.empty(fresh.size // h * step))
            assert np.array_equal(by_rows, fresh)
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
                lambda: tuple(inversion.ScaleInversion(
                    tokens, logits, (1, 1), (tau, 2.0), seed_of(seeds), 5).run()),
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_inversion_step_at_large_logits(self, threads, seeds):
        """Logits 750 times as large (exp underflows in the fast truncated
        transform and more values take the exact one): the same maps on
        1-3 threads, and no RuntimeWarning in any thread."""
        logits, tokens = logits_and_tokens(4)
        logits *= 750.0
        serial_and_threaded(
            threads,
            lambda: tuple(inversion.ScaleInversion(
                tokens, logits, (1, 1), (0.0, 18.0), seed_of(seeds), 5).run()),
        )

    def test_more_threads_than_cores_at_a_short_switch_interval(self, threads):
        """Four threads on at most four cores, switching every microsecond,
        still write only their own rows."""
        logits, tokens = logits_and_tokens(6)
        threads(1)
        expected = inversion.ScaleInversion(tokens, logits, (1, 1), (18.0,), 0, 2).run()
        threads(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = inversion.ScaleInversion(tokens, logits, (1, 1), (18.0,), 0, 2).run()
                assert np.array_equal(got[0], expected[0])
        finally:
            sys.setswitchinterval(interval)

    def test_onehot_inversion(self, threads):
        logits, tokens = logits_and_tokens(5)
        serial_and_threaded(
            threads,
            lambda: tuple(inversion.ScaleInversion(tokens, logits, (1, 1), (0.0,), 0, 1, "oai").run()),
        )


def hopeless_and_huge(rows, hopeless=(), huge=()):
    """Perturbed logits that tighten at tau 18 under zero logits (label
    0 at 50, off-label values 0), except that the label of row r in
    ``hopeless`` has no margin and a value of row r in ``huge`` is
    beyond +-2^127: (rows, 5, 3)."""
    q = np.zeros((rows, 5, 3))
    q[..., 0] = 50.0
    for r in hopeless:
        q[r, 2, 0] = 0.0
    for r in huge:
        q[r, 1, 2] = -(2.0**128)
    return q


class GivenPerturbed(inversion.ScaleInversion):
    """The inversion step with given perturbed logits, one (h, w, C)
    array per margin, in place of its own construction."""

    def __init__(self, qs, taus):
        rows, w, c = qs[0].shape
        tokens = np.zeros((rows, w), dtype=np.int32)
        super().__init__(tokens, np.zeros((rows, w, c)), (1, 1), taus, 0, 1, inversion.KIND_OAI)
        self.qs = qs

    def _noise_rows(self, rows, p, noise, spare, outs):
        for given, tau in zip(self.qs, self.taus):
            np.subtract(given[rows], p, out=noise)
            yield tau


def invert_given(*qs):
    """The step's noise maps of perturbed logits ``qs``, one per margin,
    all at tau 18."""
    return GivenPerturbed(qs, (18.0,) * len(qs)).run()


class TestErrorsCrossThreads:
    """13 rows in row blocks of one row (``CHUNK`` = 15 entries), split
    over the threads."""

    @pytest.fixture
    def rows_apart(self, threads, monkeypatch):
        def force(n):
            threads(n)
            monkeypatch.setattr(_blocks, "CHUNK", 15)

        return force

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("row", [0, 6, 12])
    def test_tightening_errors(self, rows_apart, n, row):
        """Both tightening errors reach the caller whichever block and
        thread hold the bad cell, and the range check of the whole noise
        comes first, as on one thread."""
        rows_apart(n)
        (noise,) = invert_given(hopeless_and_huge(13))
        assert not noise[..., 1:].any()
        with pytest.raises(InvariantError):
            invert_given(hopeless_and_huge(13, hopeless=[row]))
        with pytest.raises(ValidationError):
            invert_given(hopeless_and_huge(13, huge=[row]))
        with pytest.raises(ValidationError):
            invert_given(hopeless_and_huge(13, hopeless=[0, 6, 12], huge=[row]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_range_error_in_a_later_block_first(self, rows_apart, n):
        """A hopeless row in an earlier block than a huge row: the range
        check of the margin still comes first."""
        rows_apart(n)
        with pytest.raises(ValidationError):
            invert_given(hopeless_and_huge(13, hopeless=[0], huge=[12]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_margin_first(self, rows_apart, n):
        """The error of the first margin comes before any of the second,
        whichever kind each is and whichever rows hold them."""
        rows_apart(n)
        with pytest.raises(InvariantError):
            invert_given(hopeless_and_huge(13, hopeless=[12]), hopeless_and_huge(13, huge=[0]))
        with pytest.raises(ValidationError):
            invert_given(hopeless_and_huge(13, huge=[12]), hopeless_and_huge(13, hopeless=[0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2])
    def test_promoted_warning_in_a_worker_range(self, rows_apart, n):
        """A RuntimeWarning made an error in the last row block (a
        worker's on two threads) reaches the caller, and every thread is
        joined: an infinite label logit in row 12 makes inf - inf in the
        truncated transform of the inversion step."""
        rows_apart(n)
        running = threading.active_count()
        logits = np.zeros((13, 5, 3))
        logits[12, 0, 0] = np.inf
        step = inversion.ScaleInversion(np.zeros((13, 5), dtype=np.int32), logits, (1, 1),
                                        (18.0,), 0, 1)
        with pytest.raises(RuntimeWarning):
            step.run()
        assert threading.active_count() == running
