"""Quality metrics against independent naive-loop implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invnoise.errors import ValidationError
from invnoise.metrics import (
    Scorer,
    _window_means,
    mse,
    psnr,
    ssim,
    token_agreement,
    validate_region_mask,
)

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


def naive_psnr(a, b, peak=None, mask=None):
    err = naive_mse(a, b, mask)
    if err == 0.0:
        return 99.0
    if peak is None:
        peak = max(abs(a).max(), abs(b).max())
    return 10.0 * np.log10(peak**2 / err)


def naive_ssim(a, b, window, k1=0.01, k2=0.03, peak=None):
    d, h, w = a.shape
    if peak is None:
        peak = max(abs(a).max(), abs(b).max())
    c1, c2 = (k1 * peak) ** 2, (k2 * peak) ** 2
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
        assert mse(a, a) == 0.0

    def test_constant_difference(self):
        a = np.zeros((2, 4, 4))
        b = np.full((2, 4, 4), 2.0)
        assert mse(a, b) == 4.0

    def test_matches_naive_with_mask(self):
        a, b = random_grid(2), random_grid(3)
        mask = half_mask(16, 16)
        assert mse(a, b, mask=mask) == pytest.approx(naive_mse(a, b, mask), abs=1e-12)

    def test_symmetry(self):
        a, b = random_grid(4), random_grid(5)
        assert mse(a, b) == mse(b, a)

    def test_empty_edit_region_equals_unmasked(self):
        """A mask whose complement is the whole grid scores like no mask."""
        a, b = random_grid(6), random_grid(7)
        assert mse(a, b, mask=np.zeros((16, 16), dtype=bool)) == mse(a, b)

    def test_errors(self):
        with pytest.raises(ValidationError):
            mse(np.zeros((1, 2, 2)), np.zeros((1, 4, 4)))
        with pytest.raises(ValidationError):
            mse(random_grid(8), random_grid(9), mask=np.ones((16, 16), dtype=bool))


class TestPsnr:
    def test_cap_on_identical(self):
        a = random_grid(10)
        assert psnr(a, a) == 99.0

    def test_direct_formula(self):
        a = np.zeros((1, 10, 10))
        b = np.full((1, 10, 10), 0.1)  # MSE 0.01 at peak 1
        assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-12)

    def test_matches_naive(self):
        a, b = random_grid(11), random_grid(12)
        assert psnr(a, b) == pytest.approx(naive_psnr(a, b), abs=1e-9)
        mask = half_mask(16, 16)
        assert psnr(a, b, mask=mask) == pytest.approx(naive_psnr(a, b, mask=mask), abs=1e-9)

    def test_rejects_bad_peak(self):
        with pytest.raises(ValidationError):
            psnr(random_grid(13), random_grid(14), peak=0.0)


class TestHugeExplicitPeak:
    """An explicit peak is divided by the grids' own peak where that is
    needed; one still above the overflow-safe bound after that is a
    ValidationError, not a raw OverflowError."""

    @staticmethod
    def grids():
        a = np.zeros((1, 8, 8))
        b = a.copy()
        b[0, 3, 3] = 1.0
        return a, b

    @pytest.mark.parametrize("peak", [1e77, 1e200, 1e308])
    def test_rejected(self, peak):
        a, b = self.grids()
        for x, y in ((b, a), (a, b)):
            with pytest.raises(ValidationError):
                psnr(x, y, peak=peak)
            with pytest.raises(ValidationError):
                psnr(x, y, peak=peak, mask=~half_mask(8, 8))
            with pytest.raises(ValidationError):
                ssim(x, y, peak=peak)

    def test_scaled_into_range(self):
        """Grids at 1e150 with a peak of 1e200 score as unit grids with a
        peak of 1e50."""
        a, b = self.grids()
        assert psnr(b * 1e150, a * 1e150, peak=1e200) == pytest.approx(
            psnr(b, a, peak=1e50), abs=1e-9
        )
        assert ssim(b * 1e150, a * 1e150, peak=1e200) == pytest.approx(
            ssim(b, a, peak=1e50), abs=1e-9
        )


class TestSsim:
    def test_self_similarity(self):
        a = random_grid(15)
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_is_negative(self):
        """Anti-correlated structure scores below zero.  The pattern
        tiles (1, 0, -1), so every 3-wide window has mean exactly 0 and
        the luminance term cannot mask the negative covariance."""
        pattern = np.tile([1.0, 0.0, -1.0], 27)[:81].reshape(9, 9)
        a = np.stack([pattern, pattern.T])
        value = ssim(a, -a, window=3)
        assert value < 0.0
        assert value == pytest.approx(naive_ssim(a, -a, 3), abs=1e-9)

    def test_matches_naive(self):
        a = random_grid(17, size=8)
        b = random_grid(18, size=8)
        assert ssim(a, b, window=3) == pytest.approx(naive_ssim(a, b, 3), abs=1e-9)

    def test_default_window_fallback(self):
        a = random_grid(19, size=4)
        b = random_grid(20, size=4)
        # default window 7 does not fit a 4x4 grid; falls back to 3
        assert ssim(a, b) == pytest.approx(naive_ssim(a, b, 3), abs=1e-9)

    def test_zero_grids_convention(self):
        z = np.zeros((2, 8, 8))
        assert ssim(z, z) == 1.0

    def test_rejects_oversized_window(self):
        with pytest.raises(ValidationError):
            ssim(random_grid(21, size=4), random_grid(22, size=4), window=5)

    def test_symmetry(self):
        a, b = random_grid(23), random_grid(24)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


class TestTokenAgreement:
    def test_identical(self, params, schedule):
        pyramid = [np.zeros((h, w), dtype=np.int32) for h, w in schedule.resolutions]
        assert token_agreement(pyramid, pyramid) == 1.0
        assert token_agreement(pyramid, pyramid, per_scale=True) == [1.0] * 5

    def test_single_token_difference(self):
        a = [np.zeros((4, 4), dtype=np.int32)]
        b = [np.zeros((4, 4), dtype=np.int32)]
        b[0][1, 2] = 5
        assert token_agreement(a, b, per_scale=True)[0] == pytest.approx(15 / 16)

    def test_random_pyramids_near_uniform_match(self):
        """Independent uniform tokens over C = 64 agree about 1/64."""
        rng_a = (np.arange(64 * 64).reshape(64, 64) * 2654435761 % 64).astype(np.int32)
        from invnoise.rng import uniform_values

        u1 = uniform_values(60, 1, 0, np.arange(64)[:, None], np.arange(64)[None, :], 0)
        u2 = uniform_values(61, 1, 0, np.arange(64)[:, None], np.arange(64)[None, :], 0)
        a = [(u1 * 64).astype(np.int32)]
        b = [(u2 * 64).astype(np.int32)]
        assert token_agreement(a, b) == pytest.approx(1 / 64, abs=0.02)

    def test_schedule_mismatch(self):
        with pytest.raises(ValidationError):
            token_agreement([np.zeros((2, 2), dtype=np.int32)], [np.zeros((4, 4), dtype=np.int32)])


class TestRegionMask:
    def test_validates(self):
        mask = half_mask(4, 4)
        assert validate_region_mask(mask, (4, 4)) is mask

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            validate_region_mask(np.zeros((4, 4), dtype=bool), (4, 4))
        with pytest.raises(ValidationError):
            validate_region_mask(np.ones((4, 4), dtype=bool), (4, 4))


@settings(max_examples=40, deadline=None)
@given(seed_a=st.integers(0, 10_000), seed_b=st.integers(0, 10_000))
def test_metric_oracles_property(seed_a, seed_b):
    a = random_grid(seed_a, size=8)
    b = random_grid(seed_b, size=8)
    mask = half_mask(8, 8)
    assert mse(a, b) == pytest.approx(naive_mse(a, b), abs=1e-9)
    assert mse(a, b, mask=mask) == pytest.approx(naive_mse(a, b, mask), abs=1e-9)
    assert psnr(a, b) == pytest.approx(naive_psnr(a, b), abs=1e-9)
    assert ssim(a, b, window=5) == pytest.approx(naive_ssim(a, b, 5), abs=1e-9)


def reference_ssim(a, b, window=None, k1=0.01, k2=0.03):
    """SSIM one channel at a time, each window mean a numpy reduction of
    its own sliding-window view (the channel-at-a-time form metrics.ssim
    had before it stacked the channels)."""
    h, w = a.shape[1:]
    if window is None:
        window = min(7, h, w)
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
@pytest.mark.parametrize("window", range(1, 10))
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
        plain = Scorer(b).score(a)
        assert list(plain) == ["mse", "psnr", "ssim"]
        masked = Scorer(b, mask).score(a)
        assert list(masked) == ["mse", "psnr", "ssim", "bg_mse", "bg_psnr"]
        for scores in (plain, masked):
            assert same_bits(scores["mse"], mse(a, b))
            assert same_bits(scores["psnr"], psnr(a, b))
            assert same_bits(scores["ssim"], ssim(a, b))
        assert same_bits(masked["bg_mse"], mse(a, b, mask=mask))
        assert same_bits(masked["bg_psnr"], psnr(a, b, mask=mask))

    @settings(max_examples=200, deadline=None)
    @given(grid_pairs())
    def test_ssim_matches_channel_at_a_time_reference(self, case):
        a, b, _ = case
        assert same_bits(ssim(a, b), reference_ssim(a, b))
        assert same_bits(ssim(b, a), reference_ssim(b, a))

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
        assert psnr(small_a, small_b) == pytest.approx(psnr(a, b), abs=1e-9)
        assert ssim(small_a, small_b) == pytest.approx(ssim(a, b), abs=1e-9)
        mask = np.zeros((size, size), dtype=bool)
        mask[: size // 2] = True
        assert psnr(small_a, small_b, mask=mask) == pytest.approx(
            psnr(a, b, mask=mask), abs=1e-9
        )
        self.check_scores(small_a, small_b, mask)

    def test_one_cell_above_a_tiny_constant(self):
        """A (1, 8, 8) grid of 1e-200 with one cell at 2e-200 against the
        constant grid: SSIM was NaN and PSNR the identical-grid cap."""
        source = np.full((1, 8, 8), 1e-200)
        edited = source.copy()
        edited[0, 3, 3] = 2e-200
        assert ssim(edited, source) == pytest.approx(ssim(edited * 1e200, source * 1e200))
        assert psnr(edited, source) == pytest.approx(psnr(edited * 1e200, source * 1e200))
        assert psnr(edited, source) < 99.0
        assert psnr(source, source) == 99.0
        assert ssim(source, source) == 1.0

    def test_scores_many_grids(self):
        source = random_grid(3)
        mask = half_mask(16, 16)
        scorer = Scorer(source, mask)
        for seed in range(4, 9):
            edited = random_grid(seed)
            scores = scorer.score(edited)
            assert scores["ssim"] == ssim(edited, source)
            assert scores["bg_psnr"] == psnr(edited, source, mask=mask)
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
                expected = {"mse": mse(a, b), "psnr": psnr(a, b), "ssim": ssim(a, b)}
                if scorer_mask is not None:
                    expected["bg_mse"] = mse(a, b, mask=mask)
                    expected["bg_psnr"] = psnr(a, b, mask=mask)
                alone = scorer.score(a)
                assert list(scores) == list(alone) == list(expected)
                for name, value in expected.items():
                    assert same_bits(scores[name], value), name
                    assert same_bits(alone[name], value), name

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            Scorer(random_grid(1)).score_many(random_grid(2))
        with pytest.raises(ValidationError):
            Scorer(random_grid(1)).score_many(random_grid(2, size=8)[None])
        with pytest.raises(ValidationError):
            Scorer(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            Scorer(random_grid(1), np.ones((16, 16), dtype=bool))
        with pytest.raises(ValidationError):
            Scorer(random_grid(1)).score(random_grid(2, size=8))
