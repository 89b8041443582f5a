"""Row-block kernels: every loop split by ``invnoise._blocks`` gives the
bytes of the whole-array computation, and raises its errors in the
block where they happen.

The block size is forced through ``_blocks.CHUNK``.  The shapes have 13
rows (26 with two seeds) and 7 or 13 chunks of ``_blocks.CHUNK`` words,
so the last row block is ragged.
"""

import operator
import re
from dataclasses import replace

import numpy as np
import pytest

from invnoise import _blocks, codec, demo, editing, gumbel, inversion, rng
from invnoise.config import ExperimentConfig
from invnoise.errors import InvariantError, ValidationError
from invnoise.predictor import PredictorParams, condition_embed

from conftest import random_grid, standard_field, truncated_gumbel

SHAPE = (13, 29, 541)  # 203957 entries: 7 chunks, 2 rows per distance block
SEEDS = [None, np.array([5, 2**64 - 1], dtype=np.uint64)]
SEED_IDS = ["one-seed", "seed-axis"]


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


class TestForRowBlocks:
    """13 rows of 5 entries in blocks of 3 rows (``CHUNK`` = 15 entries):
    5 blocks, the last one of a single row."""

    BLOCKS = [(0, 3), (3, 6), (6, 9), (9, 12), (12, 13)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_cover_the_rows(self, monkeypatch, n):
        """Blocks of n rows (``CHUNK`` = 5n entries), in order, the last
        one ragged for 2 and 3."""
        monkeypatch.setattr(_blocks, "CHUNK", 5 * n)
        seen = []
        _blocks.for_row_blocks(lambda lo, hi, buf: seen.append((lo, hi)), 13, 65)
        assert seen == [(lo, min(lo + n, 13)) for lo in range(0, 13, n)]

    def test_scratch_built_once_per_pass(self, monkeypatch):
        """One flat array per dtype, of a full block's 3 rows of 5
        entries, built once: every block gets the same arrays."""
        monkeypatch.setattr(_blocks, "CHUNK", 15)
        seen = []
        dtypes = (np.float64, np.float32, np.uint64)
        _blocks.for_row_blocks(lambda lo, hi, buf: seen.append((lo, hi, buf)), 13, 65, dtypes)
        assert [r[:2] for r in seen] == self.BLOCKS
        buf = seen[0][2]
        assert [(b.dtype, b.shape) for b in buf] == [(np.dtype(d), (15,)) for d in dtypes]
        assert all(len(b) == 3 and all(map(operator.is_, b, buf)) for _, _, b in seen)

    def test_one_chunk_is_one_block_in_the_caller(self):
        """At most ``CHUNK`` entries: one call over every row, with a
        float64 block for all of them by default."""
        seen = []
        _blocks.for_row_blocks(lambda lo, hi, buf: seen.append((lo, hi, buf)), 64, _blocks.CHUNK)
        [(lo, hi, [buf])] = seen
        assert (lo, hi, buf.dtype, buf.size) == (0, 64, np.float64, _blocks.CHUNK)

    def test_empty_draws(self):
        """Draws over no entries, in new arrays or in a caller's
        buffers, are empty arrays."""
        u = rng.uniform_values(3, 1, 1, np.arange(0)[:, None, None], np.arange(4)[:, None],
                               np.arange(5))
        assert u.shape == (0, 4, 5) and u.dtype == np.float64
        assert gumbel.standard_rows(rng.cell_words(3, 1, 1, 6, 4)[2:2], 5).shape == (0, 4, 5)
        out, scratch = np.empty(8), np.empty(8)
        words = rng.cell_words(np.array([1, 2], dtype=np.uint64), 1, 1, 6, 4)
        assert gumbel.standard_rows(words[:, 2:2], 5, out, scratch).shape == (2, 0, 4, 5)


def per_cell(block, factors):
    """Block values repeated over the (fh, fw) cells of each block."""
    return np.repeat(np.repeat(block, factors[0], axis=0), factors[1], axis=1)


def block_logits_and_tokens(seed, factors, beta=4.0):
    """Logits of a (5, 7) grid of prefix blocks at ``beta``, the same
    logits per cell over blocks of ``factors`` cells, and the Gumbel-max
    tokens of the per-cell logits."""
    block, _ = logits_and_tokens(seed, (5, 7, SHAPE[2]))
    block *= beta / 4.0
    full = per_cell(block, factors)
    tokens = np.argmax(full + standard_field(seed, 9, 3, full.shape), axis=-1)
    return block, full, tokens.astype(np.int32)


def off_label_class(tokens, factors, r, c):
    """The first class that is no cell's label in prefix block (r, c)."""
    fh, fw = factors
    labels = tokens[r * fh : (r + 1) * fh, c * fw : (c + 1) * fw]
    return int(np.setdiff1d(np.arange(SHAPE[2]), labels)[0])


def hard_logits_and_tokens(factors):
    """Beta-3000 logits of ``block_logits_and_tokens`` that reach every
    path of the located step: its certificate fails on some cells at
    beta 3000; a logit of 2^127 off the label in block (3, 4) brings that
    row block's noise within E of -2^127; block row 1, lifted to 2^40,
    has one class clamped 50 above every truncation bound of block
    (1, 2), whose float32 move the replay rounds away."""
    block, _, tokens = block_logits_and_tokens(8, factors, beta=3000.0)
    block[3, 4, off_label_class(tokens, factors, 3, 4)] = 2.0**127
    block[1] += 2.0**40
    block[1, 2, off_label_class(tokens, factors, 1, 2)] = block[1, 2].max() + 50.0
    return block, per_cell(block, factors), tokens


class TestBlockLogits:
    @pytest.mark.parametrize("factors", [(2, 2), (1, 3), (3, 2)])
    @pytest.mark.parametrize("kind", ["lai", "oai"])
    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_inversion_step(self, monkeypatch, factors, kind, seeds):
        """The step under block logits and their factors gives the noise
        of the step under the per-cell logits at two margins, bit for bit,
        with row blocks of 1 and 2 prefix-block rows (5 rows leave them
        ragged), under drawn logits and under ``hard_logits_and_tokens``.
        On the hard logits every path of the located step runs in every
        pass: the exact recomputation of gathered cells and of a whole
        row block, and the tightening's correction of cells."""
        taus, seed = (18.0, 0.0), seed_of(seeds)
        cases = [block_logits_and_tokens(8, factors), hard_logits_and_tokens(factors)]
        wants = [inversion.ScaleInversion(tokens, full, (1, 1), taus, seed, 5, kind).run()
                 for _, full, tokens in cases]
        ran = {"gathered": 0, "whole block": 0, "corrected": 0}
        exact, below_margin = inversion.truncated_from_loglog, inversion._below_margin

        def counted_exact(phi, *rest, **kw):
            ran["gathered" if np.ndim(phi) == 1 else "whole block"] += 1
            return exact(phi, *rest, **kw)

        def counted_below_margin(q_label, replayed, *rest, **kw):
            ran["corrected"] += np.ndim(replayed) == 1  # the check of corrected cells
            return below_margin(q_label, replayed, *rest, **kw)

        monkeypatch.setattr(inversion, "truncated_from_loglog", counted_exact)
        monkeypatch.setattr(inversion, "_below_margin", counted_below_margin)
        row = cases[0][1][0].size * (1 if seeds is None else seeds.size)
        for (block, _, tokens), want, hard in zip(cases, wants, (False, True)):
            for rows in (1, 2):
                monkeypatch.setattr(_blocks, "CHUNK", rows * factors[0] * row)
                ran.update(dict.fromkeys(ran, 0))
                got = inversion.ScaleInversion(tokens, block, factors, taus, seed, 5, kind).run()
                assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))
                if hard and kind == "lai":  # the onehot noise has no truncated transform
                    assert all(ran.values()), ran

    def test_truncated_transform(self):
        """The truncated transform of each row block, under the block logits
        broadcast over the block view of its cells as the inversion step
        reads them and the keyed log-log of its rows, into scratch,
        equals the transform of the whole draw under the per-cell
        logits."""
        factors = (3, 2)
        block, full, _ = block_logits_and_tokens(9, factors)
        h, w, c = full.shape
        u_off = rng.uniform_values(7, rng.PURPOSE_TRUNC_DRAW, 4, np.arange(h)[:, None, None],
                                   np.arange(w)[:, None], np.arange(c))
        trunc = np.max(full, axis=-1, keepdims=True) - 2.0
        want = truncated_gumbel(full, trunc, u_off)
        got = np.empty_like(want)
        words = rng.cell_words(7, rng.PURPOSE_TRUNC_DRAW, 4, h, w)

        def truncate_rows(lo, hi, buf):
            r = slice(3 * lo, 3 * hi)
            loglog = -gumbel.standard_rows(words[r], c)
            out = buf[0][: loglog.size].reshape(loglog.shape)
            gumbel.truncated_from_loglog(
                block[lo:hi, None, :, None, :], _blocks.by_blocks(trunc[r], factors),
                _blocks.by_blocks(loglog, factors), out=_blocks.by_blocks(out, factors),
            )
            got[r] = out

        _blocks.for_row_blocks(truncate_rows, block.shape[0], full.size)
        assert np.array_equal(got, want)


class TestByRowsEqualsWhole:
    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_standard_field(self, seeds):
        """Keyed standard draws of all 13 rows at once (the hash by row
        blocks) and of rows 4:6 are the whole field's rows."""
        h, w, c = SHAPE
        whole = standard_field(seed_of(seeds), 3, 2, SHAPE)
        words = rng.cell_words(seed_of(seeds), 3, 2, h, w)
        rows = gumbel.standard_rows(words, c)
        assert np.array_equal(rows, whole) and rows.dtype == whole.dtype
        rows = gumbel.standard_rows(words[..., 4:6, :], c)
        assert np.array_equal(rows, whole[..., 4:6, :, :])

    @pytest.mark.parametrize("seeds", SEEDS, ids=SEED_IDS)
    def test_loglog_and_truncated_transform(self, seeds):
        """The truncated transform into a new array and into scratch, by
        row blocks of two rows (three with two seeds), which 13 rows leave
        ragged."""
        logits, _ = logits_and_tokens(3)
        h, w, c = SHAPE
        trunc = np.max(logits, axis=-1, keepdims=True) - 2.0
        if seeds is not None:
            trunc = trunc - np.arange(2)[:, None, None, None]
        words = rng.cell_words(seed_of(seeds), rng.PURPOSE_TRUNC_DRAW, 4, h, w)
        loglog = -gumbel.standard_rows(words, c)
        fresh = gumbel.truncated_from_loglog(logits, trunc, loglog)
        by_rows = np.empty_like(fresh)

        def truncate_rows(lo, hi, buf):
            r = slice(lo, hi)
            out = buf[0][: by_rows[..., r, :, :].size].reshape(by_rows[..., r, :, :].shape)
            gumbel.truncated_from_loglog(logits[r], trunc[..., r, :, :],
                                         loglog[..., r, :, :], out=out)
            by_rows[..., r, :, :] = out

        _blocks.for_row_blocks(truncate_rows, h, fresh.size)
        assert np.array_equal(by_rows, fresh)


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
            yield tau, False


def invert_given(*qs):
    """The step's noise maps of perturbed logits ``qs``, one per margin,
    all at tau 18."""
    return GivenPerturbed(qs, (18.0,) * len(qs)).run()


def recorded_invert_rows(monkeypatch):
    """The (lo, hi) of every ``ScaleInversion.invert_rows`` call, in order."""
    calls = []
    invert_rows = inversion.ScaleInversion.invert_rows

    def recorded(self, lo, hi, buf, outs):
        calls.append((lo, hi))
        return invert_rows(self, lo, hi, buf, outs)

    monkeypatch.setattr(inversion.ScaleInversion, "invert_rows", recorded)
    return calls


FLOAT32_OVERFLOW = f"^{re.escape('inverse noise beyond +-2^127 does not fit in float32')}$"


class TestErrorsAcrossBlocks:
    """13 rows in row blocks of one row (``CHUNK`` = 15 entries)."""

    @pytest.fixture(autouse=True)
    def rows_apart(self, monkeypatch):
        monkeypatch.setattr(_blocks, "CHUNK", 15)

    @pytest.mark.parametrize("row", [0, 6, 12])
    def test_tightening_errors(self, row):
        """Both tightening errors reach the caller whichever block holds
        the bad cell."""
        (noise,) = invert_given(hopeless_and_huge(13))
        assert not noise[..., 1:].any()
        with pytest.raises(InvariantError):
            invert_given(hopeless_and_huge(13, hopeless=[row]))
        with pytest.raises(ValidationError):
            invert_given(hopeless_and_huge(13, huge=[row]))

    def test_inversion_stops_at_the_failing_block(self, monkeypatch):
        """At tau 1e308 the noise of the first of the two row blocks of
        the first scale (2x2, one row each) is beyond float32 range: the
        inversion raises there and inverts nothing more."""
        schedule = codec.ScaleSchedule(((2, 2), (4, 4)))
        params = PredictorParams(codebook=codec.default_codebook(), schedule=schedule)
        pyramid = codec.encode(random_grid(3, size=4), params.codebook, schedule)
        cond = condition_embed("red brick house among pines", params)
        calls = recorded_invert_rows(monkeypatch)
        with pytest.raises(ValidationError, match=FLOAT32_OVERFLOW):
            inversion.invert_pyramid(pyramid, cond, 1e308, params, 0)
        assert calls == [(0, 1)]

    @pytest.mark.parametrize("taus", [(18.0, 1e308), (1e308, 18.0)], ids=["18-first", "1e308-first"])
    def test_edit_pass_stops_at_the_failing_block(self, monkeypatch, taus):
        """An edit chunk of two seeds at margins 18 and 1e308 raises in
        the first of the two row blocks of its first inverted scale (2x2,
        one row each), whichever margin comes first."""
        cfg = ExperimentConfig()
        params = cfg.build_params()
        grid, _, _ = demo.demo_scene("scene-a", params)
        sweep = editing.SeedSweep(grid, [replace(cfg.edit, tau=tau) for tau in taus], params)
        calls = recorded_invert_rows(monkeypatch)
        with pytest.raises(ValidationError, match=FLOAT32_OVERFLOW):
            sweep.run((0, 1))
        assert calls == [(0, 1)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_promoted_warning_in_the_last_block(self):
        """A RuntimeWarning made an error in the last row block reaches the
        caller: an infinite label logit in row 12 makes inf - inf in the
        truncated transform of the inversion step."""
        logits = np.zeros((13, 5, 3))
        logits[12, 0, 0] = np.inf
        step = inversion.ScaleInversion(np.zeros((13, 5), dtype=np.int32), logits, (1, 1),
                                        (18.0,), 0, 1)
        with pytest.raises(RuntimeWarning):
            step.run()
