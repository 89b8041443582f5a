"""Residual-quantization codec: resampling algebra, energy law, oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invnoise import _blocks, codec
from invnoise.codec import (
    Codebook,
    ScaleSchedule,
    decode,
    default_codebook,
    downsample_blockmean,
    encode,
    embed_tokens,
    quantize_cells,
    squared_distances,
    upsample_replicate,
)
from invnoise.errors import ValidationError
from invnoise.rng import normal_values, uniform_values

from conftest import random_grid, residual_energies


def naive_encode(grid, codebook, schedule):
    """Independent per-cell loop encoder used as an oracle."""
    d, H, W = grid.shape
    residual = grid.astype(float).copy()
    pyramid, energies = [], [float((residual**2).sum())]
    for h, w in schedule.resolutions:
        fh, fw = H // h, W // w
        tokens = np.zeros((h, w), dtype=int)
        for i in range(h):
            for j in range(w):
                block = residual[:, i * fh : (i + 1) * fh, j * fw : (j + 1) * fw]
                mean = block.reshape(d, -1).mean(axis=1)
                best, best_d = 0, float("inf")
                for c in range(codebook.size):
                    dist = float(((mean - codebook.vectors[c]) ** 2).sum())
                    if dist < best_d:
                        best, best_d = c, dist
                tokens[i, j] = best
                for ch in range(d):
                    block[ch] -= codebook.vectors[best][ch]
        pyramid.append(tokens)
        energies.append(float((residual**2).sum()))
    return pyramid, energies


class TestResampling:
    def test_constant_mean(self):
        grid = np.full((2, 4, 4), 3.25)
        out = downsample_blockmean(grid, (2, 2))
        assert np.all(out == 3.25)

    def test_small_mean(self):
        grid = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert downsample_blockmean(grid, (1, 1))[0, 0, 0] == 2.5

    def test_mean_composition(self):
        """4x4 -> 2x2 -> 1x1 equals the direct 4x4 -> 1x1 mean."""
        grid = random_grid(17, dim=3, size=4)
        two_step = downsample_blockmean(downsample_blockmean(grid, (2, 2)), (1, 1))
        direct = downsample_blockmean(grid, (1, 1))
        assert np.allclose(two_step, direct, atol=1e-12)

    def test_replicate(self):
        grid = np.array([[[7.0]]])
        up = upsample_replicate(grid, (2, 2))
        assert np.all(up == 7.0) and up.shape == (1, 2, 2)

    def test_down_up_round_trip(self):
        grid = random_grid(18, dim=2, size=8)
        assert np.array_equal(
            downsample_blockmean(upsample_replicate(grid, (16, 16)), (8, 8)), grid
        )

    def test_zero_passthrough(self):
        assert np.all(upsample_replicate(np.zeros((1, 2, 2)), (8, 8)) == 0.0)


class TestScheduleAndCodebook:
    def test_dyadic(self, schedule):
        """The doubling square schedule: its scales, count and finest grid."""
        assert schedule.resolutions == ((1, 1), (2, 2), (4, 4), (8, 8), (16, 16))
        assert schedule.num_scales == 5 and schedule.finest == (16, 16)

    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError):
            ScaleSchedule(((4, 4), (2, 2)))

    def test_rejects_non_divisible_schedule(self):
        with pytest.raises(ValidationError):
            ScaleSchedule(((3, 3), (16, 16)))

    def test_codebook_pins_zero_entry(self):
        cb = default_codebook()
        assert np.all(cb.vectors[0] == 0.0)
        assert cb.size == 64 and cb.dim == 4
        assert np.all(np.linalg.norm(cb.vectors[1:], axis=1) <= 1.0)

    def test_codebook_rejects_nonzero_entry0(self):
        with pytest.raises(ValidationError):
            Codebook(np.ones((4, 2)))


def reference_squared_distances(cells, vectors):
    """The distance kernel as first written: a 4-D difference tensor and einsum."""
    diffs = cells[:, :, None, :] - vectors[None, None, :, :]
    return np.einsum("hwcd,hwcd->hwc", diffs, diffs)


def channel_last_cells(seed, d, h, w, amplitude=1.5):
    """(h, w, d) cells laid out the way encode and the predictor pass them:
    a moveaxis view of a C-ordered (d, h, w) grid."""
    grid = random_grid(seed, dim=d, size=max(h, w), amplitude=amplitude)
    return np.moveaxis(grid[:, :h, :w].copy(), 0, -1)


class TestSquaredDistances:
    """The channel-loop kernel is bit-identical to the einsum reference."""

    @pytest.mark.parametrize("d", [1, 3, 4, 5, 8])
    @pytest.mark.parametrize("h,w", [(1, 1), (1, 6), (5, 1), (2, 2), (3, 7), (16, 16), (64, 64)])
    @pytest.mark.parametrize("size", [2, 7, 64])
    def test_matches_einsum_reference(self, d, h, w, size):
        """One map, and a stack of three laid out like the stepper's
        canvas, each of whose maps is the reference's."""
        seeds = [d * 100 + h * 10 + w + 1000 * s for s in range(3)]
        grids = np.stack([np.moveaxis(channel_last_cells(s, d, h, w), -1, 0) for s in seeds])
        vectors = default_codebook(size=size, dim=d, seed=size + d).vectors
        for cells in (np.moveaxis(grids[0], 0, -1), np.moveaxis(grids, -3, -1)):
            got = squared_distances(cells, vectors)
            assert got.shape == cells.shape[:-1] + (size,)
            assert got.flags.c_contiguous
            want = [reference_squared_distances(m, vectors) for m in cells.reshape(-1, h, w, d)]
            assert np.array_equal(got, np.reshape(want, got.shape))

    def test_wide_rows_span_several_blocks(self):
        """A 64x64 grid with vocab 512 runs over many row blocks."""
        cells = channel_last_cells(7, 4, 64, 64)
        vectors = default_codebook(size=512, dim=4).vectors
        assert np.array_equal(
            squared_distances(cells, vectors), reference_squared_distances(cells, vectors)
        )

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 4), (8, 8), (40, 40)])
    def test_quantize_matches_reference_argmin(self, codebook, h, w):
        """40x40 cells at vocab 64 run over row blocks of 12 rows, the last
        of 4."""
        cells = channel_last_cells(h * w, codebook.dim, h, w, amplitude=0.6)
        want = np.argmin(reference_squared_distances(cells, codebook.vectors), axis=-1)
        assert np.array_equal(quantize_cells(cells, codebook), want)


def grid_layout(cells):
    """(h, w, d) cells as a moveaxis view of a C-ordered (d, h, w) grid."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(cells, -1, 0)), 0, -1)


class TestCertifiedSearch:
    """The encoder's search gives the argmin of the exact distances, ties
    to the lowest index, whichever cells its certificate keeps."""

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.integers(min_value=0, max_value=2**32),
        d=st.sampled_from([1, 4, 33]),
        shape=st.sampled_from([(1, 1), (1, 9), (7, 1), (12, 10)]),
        size=st.sampled_from([2, 5, 64]),
        exponent=st.one_of(
            st.sampled_from([-300.0, -161.0, 0.0, 150.0]),
            st.floats(min_value=-300.0, max_value=150.0),
        ),
        chunk=st.sampled_from([1, 500, _blocks.CHUNK]),
        duplicated=st.booleans(),
        placed=st.sampled_from(["drawn", "codewords", "midpoints"]),
    )
    def test_equals_the_exact_argmin(
        self, key, d, shape, size, exponent, chunk, duplicated, placed
    ):
        """Cells and codebook at amplitudes 1e-300 to 1e150 (at 1e-161 the
        products are subnormal, where only the + 1 of the bound covers
        their error), the codebook's second half a copy of its first
        (exact ties) or not, and every other cell drawn, on a codeword or
        at the midpoint of two; a block of ``chunk`` entries (one row at
        1, one block in all at CHUNK) makes up to 12 blocks of a map."""
        amplitude = 10.0**exponent
        h, w = shape
        vectors = amplitude * normal_values(key, 1, 0, np.arange(size)[:, None], 0, np.arange(d))
        vectors[0] = 0.0
        if duplicated:
            vectors[size // 2 :] = vectors[: size - size // 2]
        rows, cols = np.arange(h)[:, None, None], np.arange(w)[None, :, None]
        cells = amplitude * normal_values(key, 2, 0, rows, cols, np.arange(d))
        pairs = uniform_values(key, 3, 0, np.arange(h * w)[:, None], np.arange(2), 0)
        picks = (size * pairs).astype(int)
        flat = cells.reshape(h * w, d)
        if placed == "codewords":
            flat[::2] = vectors[picks[::2, 0]]
        elif placed == "midpoints":
            flat[::2] = (vectors[picks[::2, 0]] + vectors[picks[::2, 1]]) / 2.0
        cells = grid_layout(cells)
        want = np.argmin(reference_squared_distances(cells, vectors), axis=-1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_blocks, "CHUNK", chunk)
            got = quantize_cells(cells, Codebook(vectors))
        assert got.dtype == np.int32
        assert np.array_equal(got, want)

    def test_ties_reach_the_exact_fallback(self, monkeypatch):
        """Cells at an exact tie (nearest to a codeword with a duplicate,
        or at the midpoint of two codewords) take the exact distances and
        the lowest index; cells clear of every tie keep the product's
        argmin, unless so large that a distance could overflow."""
        gathered = []

        def spy(out, *rest):
            gathered.append(out.shape[1])
            return sum_squares(out, *rest)

        sum_squares = codec._sum_squares
        monkeypatch.setattr(codec, "_sum_squares", spy)
        vectors = np.zeros((6, 4))
        vectors[1, 0] = vectors[2, 1] = vectors[4, 0] = 2.0  # 4 duplicates 1
        vectors[3] = vectors[5] = -3.0  # 5 duplicates 3
        codebook = Codebook(vectors)
        ties = [[2.0, 0, 0, 0], [1.0, 1.0, 0, 0], [1.0, 0, 0, 0], [-3.0] * 4]
        clear = [[0.1, 0, 0, 0], [0, 2.5, 0, 0], [0.2, 1.8, 0, 0], [0, 0, 0.3, 0]]
        cells = grid_layout(np.array([ties, clear]))
        got = quantize_cells(cells, codebook)
        assert got.tolist() == [[1, 0, 0, 3], [0, 2, 2, 0]]
        assert np.array_equal(got, np.argmin(reference_squared_distances(cells, vectors), -1))
        assert gathered == [len(ties)]
        gathered.clear()
        assert quantize_cells(cells[1:], codebook).tolist() == [[0, 2, 2, 0]]
        assert gathered == []
        big = 2.0**509  # |x|^2 + max |v|^2 >= 2^1021: every cell falls back
        assert quantize_cells(big * cells[1:], Codebook(big * vectors)).tolist() == [[0, 2, 2, 0]]
        assert gathered == [len(clear)]

    @pytest.mark.parametrize("top", [1019.0, 1020.5, 1020.99])
    def test_certificate_near_the_search_limit(self, monkeypatch, top):
        """Cells and codewords scaled so that the largest |x|^2 + max |v|^2
        is 2^top, just below ``_SEARCH_LIMIT`` = 2^1021: the one product
        of [x, 1] and [-2 V^T; |v|^2] stays finite, the certificate keeps
        most cells, and every index is the exact argmin."""
        gathered = []

        def spy(out, *rest):
            gathered.append(out.shape[1])
            return sum_squares(out, *rest)

        sum_squares = codec._sum_squares
        monkeypatch.setattr(codec, "_sum_squares", spy)
        h, w, d, size = 12, 10, 4, 64
        vectors = normal_values(5, 1, 0, np.arange(size)[:, None], 0, np.arange(d))
        vectors[0] = 0.0
        cells = normal_values(5, 2, 0, np.arange(h)[:, None, None], np.arange(w)[:, None],
                              np.arange(d))
        reach = (cells * cells).sum(axis=-1).max() + (vectors * vectors).sum(axis=1).max()
        factor = np.sqrt(2.0**top / reach)
        cells, vectors = grid_layout(factor * cells), factor * vectors
        scale = (cells * cells).sum(axis=-1).max() + (vectors * vectors).sum(axis=1).max()
        assert 2.0 ** (top - 0.01) < scale < codec._SEARCH_LIMIT
        got = quantize_cells(cells, Codebook(vectors))
        assert np.array_equal(got, np.argmin(reference_squared_distances(cells, vectors), -1))
        assert sum(gathered) < h * w // 10


class TestLeadingAxes:
    """A stack of S grids or token maps gives each one's own result bit
    for bit, as the seed axis of the edit walk needs."""

    @staticmethod
    def stack(h, w, d=4, seeds=(1, 2, 3)):
        """A C-ordered (S, d, h, w) stack, laid out like the stepper's canvas."""
        grids = [random_grid(s, dim=d, size=max(h, w))[:, :h, :w] for s in seeds]
        return np.ascontiguousarray(np.stack(grids))

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 6), (5, 1), (4, 4), (16, 16), (64, 64)])
    def test_squared_distances(self, h, w):
        grids = self.stack(h, w)
        vectors = default_codebook(size=512 if h == 64 else 64).vectors
        got = squared_distances(np.moveaxis(grids, -3, -1), vectors)
        assert got.shape == (3, h, w, vectors.shape[0])
        for grid, row in zip(grids, got):
            assert np.array_equal(row, squared_distances(np.moveaxis(grid, 0, -1), vectors))

    @pytest.mark.parametrize("target", [(1, 1), (2, 4), (8, 8), (16, 16)])
    def test_resampling(self, target):
        grids = self.stack(16, 16)
        down = downsample_blockmean(grids, target)
        up = upsample_replicate(down, (16, 16))
        for grid, d_row, u_row in zip(grids, down, up):
            assert np.array_equal(d_row, downsample_blockmean(grid, target))
            assert np.array_equal(u_row, upsample_replicate(d_row, (16, 16)))

    def test_embed_tokens(self, codebook):
        tokens = np.arange(3 * 4 * 5).reshape(3, 4, 5) % codebook.size
        got = embed_tokens(tokens, codebook)
        assert got.shape == (3, codebook.dim, 4, 5)
        for row, maps in zip(got, tokens):
            assert np.array_equal(row, embed_tokens(maps, codebook))


class TestEncodeDecode:
    def test_zero_grid_all_zero_tokens(self, codebook, schedule):
        pyramid = encode(np.zeros((4, 16, 16)), codebook, schedule)
        assert all(np.all(t == 0) for t in pyramid)

    def test_constant_codebook_entry(self, codebook, schedule):
        """A grid equal to entry j everywhere quantizes at scale 1 and
        leaves nothing for the finer scales."""
        j = 17
        grid = np.broadcast_to(codebook.vectors[j][:, None, None], (4, 16, 16)).copy()
        pyramid = encode(grid, codebook, schedule)
        assert np.all(pyramid[0] == j)
        assert all(np.all(t == 0) for t in pyramid[1:])

    def test_matches_naive_oracle(self, codebook, schedule):
        grid = random_grid(19)
        pyramid = encode(grid, codebook, schedule)
        energies = residual_energies(grid, pyramid, codebook, schedule)
        ref_pyramid, ref_energies = naive_encode(grid, codebook, schedule)
        for ours, ref in zip(pyramid, ref_pyramid):
            assert np.array_equal(ours, ref)
        assert np.allclose(energies, ref_energies, rtol=1e-9)

    def test_residual_energy_non_increasing(self, codebook, schedule):
        for seed in range(20):
            grid = random_grid(seed)
            pyramid = encode(grid, codebook, schedule)
            energies = residual_energies(grid, pyramid, codebook, schedule)
            assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_decode_zero_pyramid(self, codebook, schedule):
        pyramid = [np.zeros((h, w), dtype=np.int32) for h, w in schedule.resolutions]
        assert np.all(decode(pyramid, codebook, schedule) == 0.0)

    def test_decode_single_scale(self, codebook):
        sched = ScaleSchedule(((1, 1),))
        grid = decode([np.array([[9]], dtype=np.int32)], codebook, sched)
        assert np.allclose(grid[:, 0, 0], codebook.vectors[9])

    def test_multi_scale_beats_single_scale(self, codebook, schedule):
        """decode(encode(x)) MSE never exceeds one-shot quantization MSE."""
        single = ScaleSchedule((schedule.finest,))
        for seed in range(10):
            grid = random_grid(seed + 50)
            multi = decode(encode(grid, codebook, schedule), codebook, schedule)
            one = decode(encode(grid, codebook, single), codebook, single)
            assert np.mean((multi - grid) ** 2) <= np.mean((one - grid) ** 2) + 1e-12

    def test_shape_discipline(self, codebook, schedule):
        pyramid = encode(random_grid(3), codebook, schedule)
        assert [t.shape for t in pyramid] == list(schedule.resolutions)

    def test_token_round_trip_measured(self, codebook, schedule):
        """encode(decode(P)) need not reproduce P exactly; record the rate."""
        pyramid = encode(random_grid(4), codebook, schedule)
        redone = encode(decode(pyramid, codebook, schedule), codebook, schedule)
        agree = np.mean(
            np.concatenate([(a == b).ravel() for a, b in zip(pyramid, redone)])
        )
        print(f"token round-trip agreement: {agree:.4f}")
        assert 0.0 <= agree <= 1.0

    def test_decode_rejects_bad_tokens(self, codebook, schedule):
        pyramid = [np.zeros((h, w), dtype=np.int32) for h, w in schedule.resolutions]
        pyramid[0][0, 0] = codebook.size
        with pytest.raises(ValidationError):
            decode(pyramid, codebook, schedule)

    def test_encode_rejects_bad_shape(self, codebook, schedule):
        with pytest.raises(ValidationError):
            encode(np.zeros((4, 8, 8)), codebook, schedule)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           amplitude=st.floats(min_value=0.0, max_value=4.0))
    def test_energy_law_property(self, codebook, schedule, seed, amplitude):
        grid = random_grid(seed, amplitude=amplitude)
        energies = residual_energies(grid, encode(grid, codebook, schedule), codebook, schedule)
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
