"""Quality metrics against independent naive-loop implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invnoise.errors import ValidationError
from invnoise.metrics import Scorer, _window_means
from invnoise.rng import uniform_values

from conftest import random_grid


def naive_mse(a, b, mask=None):
    total, count = 0.0, 0
    d, h, w = a.shape
    for ch in range(d):
        for i in range(h):
            for j in range(w):
                if mask is not None and mask[i, j]:
                    continue
                total += (a[ch, i, j] - b[ch, i, j]) ** 2
                count += 1
    return total / count


def naive_psnr(a, b, mask=None):
    err = naive_mse(a, b, mask)
    if err == 0.0:
        return 99.0
    peak = max(abs(a).max(), abs(b).max())
    return 10.0 * np.log10(peak**2 / err)


def naive_ssim(a, b, window):
    d, h, w = a.shape
    peak = max(abs(a).max(), abs(b).max())
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    channel_means = []
    for ch in range(d):
        values = []
        for i in range(h - window + 1):
            for j in range(w - window + 1):
                pa = a[ch, i : i + window, j : j + window].ravel()
                pb = b[ch, i : i + window, j : j + window].ravel()
                mu_a, mu_b = pa.mean(), pb.mean()
                var_a = (pa**2).mean() - mu_a**2
                var_b = (pb**2).mean() - mu_b**2
                cov = (pa * pb).mean() - mu_a * mu_b
                values.append(
                    ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
                )
        channel_means.append(np.mean(values))
    return float(np.mean(channel_means))


def half_mask(h, w):
    mask = np.zeros((h, w), dtype=bool)
    mask[:, : w // 2] = True
    return mask


class TestMse:
    def test_identity(self):
        a = random_grid(1)
        assert Scorer(a).score(a)["mse"] == 0.0

    def test_constant_difference(self):
        a = np.zeros((2, 4, 4))
        b = np.full((2, 4, 4), 2.0)
        assert Scorer(b).score(a)["mse"] == 4.0

    def test_matches_naive_with_mask(self):
        a, b = random_grid(2), random_grid(3)
        mask = half_mask(16, 16)
        got = Scorer(b, mask).score(a)["bg_mse"]
        assert got == pytest.approx(naive_mse(a, b, mask), abs=1e-12)

    def test_symmetry(self):
        a, b = random_grid(4), random_grid(5)
        assert Scorer(b).score(a)["mse"] == Scorer(a).score(b)["mse"]

    def test_empty_edit_region_equals_unmasked(self):
        """A mask whose complement is the whole grid scores like no mask."""
        a, b = random_grid(6), random_grid(7)
        stack = np.stack([a, b, a * 1e-170, a * 1e160])
        for scores in Scorer(b, np.zeros((16, 16), dtype=bool)).score_many(stack):
            assert (scores["bg_mse"], scores["bg_psnr"]) == (scores["mse"], scores["psnr"])

    def test_errors(self):
        with pytest.raises(ValidationError):
            Scorer(np.zeros((1, 4, 4))).score(np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError):
            Scorer(random_grid(9), np.ones((16, 16), dtype=bool))


class TestPsnr:
    def test_cap_on_identical(self):
        a = random_grid(10)
        assert Scorer(a).score(a)["psnr"] == 99.0

    def test_direct_formula(self):
        a = np.zeros((1, 10, 10))
        b = a.copy()
        b[0, :, 0] = 1.0  # MSE 0.1 at peak 1
        assert Scorer(b).score(a)["psnr"] == pytest.approx(10.0, abs=1e-12)

    def test_matches_naive(self):
        a, b = random_grid(11), random_grid(12)
        mask = half_mask(16, 16)
        scores = Scorer(b, mask).score(a)
        assert scores["psnr"] == pytest.approx(naive_psnr(a, b), abs=1e-9)
        assert scores["bg_psnr"] == pytest.approx(naive_psnr(a, b, mask=mask), abs=1e-9)


class TestSsim:
    def test_self_similarity(self):
        a = random_grid(15)
        assert Scorer(a).score(a)["ssim"] == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_is_negative(self):
        """Anti-correlated structure scores below zero.  The pattern
        tiles (1, 0, -1), so every 3-wide window, the window of a 4x4
        grid, has mean exactly 0 and the luminance term cannot mask the
        negative covariance."""
        pattern = np.tile([1.0, 0.0, -1.0], 6)[:16].reshape(4, 4)
        a = np.stack([pattern, pattern.T])
        value = Scorer(-a).score(a)["ssim"]
        assert value < 0.0
        assert value == pytest.approx(naive_ssim(a, -a, 3), abs=1e-9)

    def test_matches_naive(self):
        """Grids of 3, 6 and 8 cells a side take windows 3, 5 and 7."""
        for size, window in ((3, 3), (6, 5), (8, 7)):
            a = random_grid(17, size=size)
            b = random_grid(18, size=size)
            assert Scorer(b).score(a)["ssim"] == pytest.approx(naive_ssim(a, b, window), abs=1e-9)

    def test_default_window_fallback(self):
        a = random_grid(19, size=4)
        b = random_grid(20, size=4)
        # default window 7 does not fit a 4x4 grid; falls back to 3
        assert Scorer(b).score(a)["ssim"] == pytest.approx(naive_ssim(a, b, 3), abs=1e-9)

    def test_zero_grids_convention(self):
        z = np.zeros((2, 8, 8))
        assert Scorer(z).score(z)["ssim"] == 1.0

    def test_symmetry(self):
        a, b = random_grid(23), random_grid(24)
        assert Scorer(b).score(a)["ssim"] == pytest.approx(Scorer(a).score(b)["ssim"], abs=1e-12)


class TestTokenAgreement:
    def test_random_pyramids_near_uniform_match(self):
        """Keyed uniform tokens over C = 64 under two seeds agree about
        1/64 of the time: the draws of different seeds are independent."""
        cells = (np.arange(64)[:, None], np.arange(64)[None, :], 0)
        a, b = ((uniform_values(seed, 1, 0, *cells) * 64).astype(np.int32) for seed in (60, 61))
        assert np.mean(a == b) == pytest.approx(1 / 64, abs=0.02)


class TestRegionMask:
    """The Scorer's mask rule, the one check of an edit region: boolean,
    the reference's (h, w) shape, at least one background cell."""

    def test_scorer_takes_masks_with_background(self):
        b = random_grid(9, size=4)
        for mask in (half_mask(4, 4), np.zeros((4, 4), dtype=bool)):
            assert Scorer(b, mask).score(b)["bg_mse"] == 0.0

    def test_scorer_rejects_bad_masks(self):
        b = random_grid(9, size=4)
        for mask in (
            np.ones((4, 4), dtype=bool),
            half_mask(4, 2),
            half_mask(4, 4).astype(np.uint8),
        ):
            with pytest.raises(ValidationError, match="mask"):
                Scorer(b, mask)


@settings(max_examples=40, deadline=None)
@given(seed_a=st.integers(0, 10_000), seed_b=st.integers(0, 10_000))
def test_metric_oracles_property(seed_a, seed_b):
    a = random_grid(seed_a, size=6)
    b = random_grid(seed_b, size=6)
    mask = half_mask(6, 6)
    scores = Scorer(b, mask).score(a)
    assert scores["mse"] == pytest.approx(naive_mse(a, b), abs=1e-9)
    assert scores["bg_mse"] == pytest.approx(naive_mse(a, b, mask), abs=1e-9)
    assert scores["psnr"] == pytest.approx(naive_psnr(a, b), abs=1e-9)
    assert scores["ssim"] == pytest.approx(naive_ssim(a, b, 5), abs=1e-9)


def reference_ssim(a, b, k1=0.01, k2=0.03):
    """SSIM one channel at a time, each window mean a numpy reduction of
    its own sliding-window view (the channel-at-a-time form SSIM had
    before it stacked the channels)."""
    window = min(7, *a.shape[1:])
    window -= window % 2 == 0
    peak = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if peak == 0.0:
        return 1.0
    c1, c2 = (k1 * peak) ** 2, (k2 * peak) ** 2
    if c1 * c2 < np.finfo(np.float64).tiny:  # underflow: score the grids / peak
        a, b, peak = a / peak, b / peak, 1.0
        c1, c2 = k1**2, k2**2
    views = np.lib.stride_tricks.sliding_window_view
    scores = []
    for ch in range(a.shape[0]):
        va, vb = views(a[ch], (window, window)), views(b[ch], (window, window))
        mu_a, sq_a = va.mean(axis=(-1, -2)), (va**2).mean(axis=(-1, -2))
        mu_b, sq_b = vb.mean(axis=(-1, -2)), (vb**2).mean(axis=(-1, -2))
        mu_ab = views(a[ch] * b[ch], (window, window)).mean(axis=(-1, -2))
        var_a = sq_a - mu_a**2
        var_b = sq_b - mu_b**2
        cov = mu_ab - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))


def same_bits(x, y):
    return repr(float(x)) == repr(float(y))


@st.composite
def grid_pairs(draw):
    """(edited, source, mask): random, identical, all-zero or constant-source
    grids from 1x1 up to past the 7x7 window, masks with background cells."""
    d = draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    a = draw(hnp.arrays(np.float64, (d, h, w), elements=values))
    kind = draw(st.sampled_from(["random", "identical", "zeros", "constant-source"]))
    if kind == "random":
        b = draw(hnp.arrays(np.float64, (d, h, w), elements=values))
    elif kind == "identical":
        b = a.copy()
    elif kind == "zeros":
        a, b = np.zeros((d, h, w)), np.zeros((d, h, w))
    else:
        b = np.full((d, h, w), draw(values))
    mask = draw(hnp.arrays(np.bool_, (h, w)))
    mask.flat[draw(st.integers(0, h * w - 1))] = False
    return a, b, mask


@st.composite
def grid_stacks(draw):
    """(stack, source, mask): a case of grid_pairs with 0-8 more edited
    grids of its shape; the source and each grid may be scaled to a tiny
    or huge magnitude, where PSNR and SSIM score them divided by their peak."""
    a, b, mask = draw(grid_pairs())
    magnitudes = st.sampled_from([1.0, 1.0, 1.0, 1e-200, 1e200])
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    grids = [a]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "source", "zeros"]))
        if kind == "random":
            grid = draw(hnp.arrays(np.float64, b.shape, elements=values))
        else:
            grid = b.copy() if kind == "source" else np.zeros(b.shape)
        grids.append(grid)
    stack = np.stack([grid * draw(magnitudes) for grid in grids])
    return stack, b * draw(magnitudes), mask


@pytest.mark.parametrize("leading", [(), (3,), (2, 3)])
@pytest.mark.parametrize("window", range(1, 8))
def test_window_means_equal_strided_mean(window, leading):
    """Bit for bit against numpy's mean over a sliding-window view, for
    outputs one column wide and wider, with zeros of both signs."""
    rng = np.random.default_rng(window)
    for h, w in ((window, window), (window + 2, window), (window, window + 3), (window + 4, 13)):
        x = rng.standard_normal(leading + (h, w)) * 10.0 ** rng.integers(-3, 4)
        x[x < -1.0] = -0.0
        x[x > 1.5] = 0.0
        got = _window_means(x, window)
        views = np.lib.stride_tricks.sliding_window_view(x, (window, window), axis=(-2, -1))
        want = views.mean(axis=(-1, -2))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (h, w)


class TestScorer:
    @settings(max_examples=200, deadline=None)
    @given(grid_pairs())
    def test_equals_functions_bit_for_bit(self, case):
        self.check_scores(*case)

    @staticmethod
    def check_scores(a, b, mask):
        """A mask adds the background scores and leaves the others."""
        plain = Scorer(b).score(a)
        assert list(plain) == ["mse", "psnr", "ssim"]
        masked = Scorer(b, mask).score(a)
        assert list(masked) == ["mse", "psnr", "ssim", "bg_mse", "bg_psnr"]
        for name, value in plain.items():
            assert same_bits(masked[name], value), name

    @settings(max_examples=200, deadline=None)
    @given(grid_pairs())
    def test_ssim_matches_channel_at_a_time_reference(self, case):
        a, b, _ = case
        assert same_bits(Scorer(b).score(a)["ssim"], reference_ssim(a, b))
        assert same_bits(Scorer(a).score(b)["ssim"], reference_ssim(b, a))

    @settings(max_examples=100, deadline=None)
    @given(
        seed_a=st.integers(0, 10_000),
        seed_b=st.integers(0, 10_000),
        size=st.integers(1, 12),
        kind=st.sampled_from(["random", "identical", "constant-source"]),
        scale=st.sampled_from([1e-200, 1e-160, 1e80, 1e150, 1e200]),
    )
    def test_tiny_magnitudes_score_as_unit_scale(self, seed_a, seed_b, size, kind, scale):
        """PSNR and SSIM do not change when both grids scale together,
        also where their terms underflow or would overflow; the scorer
        still equals the functions bit for bit there."""
        a = random_grid(seed_a, size=size)
        b = {
            "random": random_grid(seed_b, size=size),
            "identical": a.copy(),
            "constant-source": np.full_like(a, a.flat[seed_b % a.size]),
        }[kind]
        small_a, small_b = scale * a, scale * b
        mask = np.zeros((size, size), dtype=bool)
        mask[: size // 2] = True
        small, unit = Scorer(small_b, mask).score(small_a), Scorer(b, mask).score(a)
        for name in ("psnr", "ssim", "bg_psnr"):
            assert small[name] == pytest.approx(unit[name], abs=1e-9), name
        self.check_scores(small_a, small_b, mask)

    def test_one_cell_above_a_tiny_constant(self):
        """A (1, 8, 8) grid of 1e-200 with one cell at 2e-200 against the
        constant grid: SSIM was NaN and PSNR the identical-grid cap."""
        source = np.full((1, 8, 8), 1e-200)
        edited = source.copy()
        edited[0, 3, 3] = 2e-200
        tiny = Scorer(source).score(edited)
        unit = Scorer(source * 1e200).score(edited * 1e200)
        assert tiny["ssim"] == pytest.approx(unit["ssim"])
        assert tiny["psnr"] == pytest.approx(unit["psnr"])
        assert tiny["psnr"] < 99.0
        same = Scorer(source).score(source)
        assert (same["psnr"], same["ssim"]) == (99.0, 1.0)

    def test_scores_many_grids(self):
        source = random_grid(3)
        mask = half_mask(16, 16)
        scorer = Scorer(source, mask)
        for seed in range(4, 9):
            edited = random_grid(seed)
            scores = scorer.score(edited)
            assert scores["ssim"] == Scorer(source).score(edited)["ssim"]
            assert scores["bg_psnr"] == Scorer(source, mask).score(edited)["bg_psnr"]
        assert scorer.score(source)["psnr"] == 99.0

    @settings(max_examples=150, deadline=None)
    @given(grid_stacks())
    def test_score_many_equals_score_and_functions(self, case):
        stack, b, mask = case
        for scorer_mask in (None, mask):
            scorer = Scorer(b, scorer_mask)
            many = scorer.score_many(stack)
            assert len(many) == len(stack)
            for a, scores in zip(stack, many):
                expected = Scorer(b, scorer_mask).score(a)  # a new scorer per grid
                alone = scorer.score(a)
                assert list(scores) == list(alone) == list(expected)
                for name, value in expected.items():
                    assert same_bits(scores[name], value), name
                    assert same_bits(alone[name], value), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_grids(self, bad):
        """NaN or an infinity in the reference, or in one grid of a
        stack, is a ValidationError, not a silent nan or a raw error."""
        good = random_grid(30, size=8)
        poisoned = good.copy()
        poisoned[1, 2, 5] = bad
        mask = half_mask(8, 8)
        for a, b in ((poisoned, good), (good, poisoned)):
            calls = [
                lambda: Scorer(b).score(a),
                lambda: Scorer(b, mask).score(a),
                lambda: Scorer(b, mask).score_many(np.stack([good, a, good])),
            ]
            for call in calls:
                with pytest.raises(ValidationError):
                    call()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            Scorer(random_grid(1)).score_many(random_grid(2))
        with pytest.raises(ValidationError):
            Scorer(random_grid(1)).score_many(random_grid(2, size=8)[None])
        with pytest.raises(ValidationError):
            Scorer(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            Scorer(np.zeros((1, 0, 4)))
        with pytest.raises(ValidationError):
            Scorer(random_grid(1), np.ones((16, 16), dtype=bool))
        with pytest.raises(ValidationError):
            Scorer(random_grid(1)).score(random_grid(2, size=8))
