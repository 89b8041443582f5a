"""Reconstruction and preservation metrics.

MSE, PSNR, and SSIM over d-channel feature grids, each with an optional
region mask; masked variants score only the cells outside the edit
region (the background).  A :class:`Scorer` scores many grids against
one reference: it keeps the reference's SSIM window means and mean
squares, its peak and its background cells, and gives the same values
as the functions bit for bit.  Token agreement measures exact
reconstruction of pyramids.  All of these are checked against
independent naive-loop implementations in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

PSNR_CAP = 99.0
SSIM_DEFAULT_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def validate_region_mask(mask: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Edit-region mask: boolean (h, w) with both regions non-empty."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != shape:
        raise ValidationError(f"mask must be boolean with shape {shape}")
    if not mask.any() or mask.all():
        raise ValidationError("region mask needs at least one cell on each side")
    return mask


def _paired(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"grid shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 3:
        raise ValidationError("grids must be (d, h, w)")
    return a, b


def _background(a: np.ndarray, mask) -> np.ndarray:
    """Select cells outside the edit region, flattened per channel."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != a.shape[1:]:
        raise ValidationError(f"mask must be boolean with shape {a.shape[1:]}")
    keep = ~mask
    if not keep.any():
        raise ValidationError("mask leaves no background cells")
    return a[:, keep]


def _peak(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def mse(a: np.ndarray, b: np.ndarray, mask=None) -> float:
    """Mean squared difference; with a mask, over background cells only."""
    a, b = _paired(a, b)
    if mask is not None:
        a, b = _background(a, mask), _background(b, mask)
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray, peak: float | None = None, mask=None) -> float:
    """10 log10(peak^2 / MSE), capped at 99.0 when the MSE is zero.

    ``peak`` defaults to the maximum absolute value over both grids.
    """
    err = mse(a, b, mask=mask)
    if peak is None:
        peak = max(_peak(a), _peak(b))
    return _psnr_from(err, peak)


def _psnr_from(err: float, peak) -> float:
    if err == 0.0:
        return PSNR_CAP
    if not (np.isfinite(peak) and peak > 0):
        raise ValidationError("peak must be positive and finite")
    return float(min(10.0 * np.log10(peak**2 / err), PSNR_CAP))


def _window_means(x: np.ndarray, window: int) -> np.ndarray:
    """Means of all full windows over the last two axes of (d, h, w)."""
    views = np.lib.stride_tricks.sliding_window_view(x, (window, window), axis=(-2, -1))
    return views.mean(axis=(-1, -2))


def _window_stats(x: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Window means and mean squares of every channel of (d, h, w).

    The channel axis is an outer loop of each reduction, so every window
    sums in the same order as it does for a single channel.
    """
    return _window_means(x, window), _window_means(x * x, window)


def _ssim_window(shape: tuple[int, int], window: int | None) -> int:
    h, w = shape
    if window is None:
        window = min(SSIM_DEFAULT_WINDOW, h, w)
        if window % 2 == 0:
            window -= 1
    elif not (1 <= window <= min(h, w)) or window % 2 == 0:
        raise ValidationError(
            f"ssim window must be odd and fit the grid, got {window} for {(h, w)}"
        )
    return window


def _ssim_from_stats(a, b, stats_a, stats_b, window, k1, k2, peak) -> float:
    """SSIM of (d, h, w) grids from their window stats: the mean over
    channels of each channel's mean local score."""
    if peak == 0.0:
        return 1.0  # both grids all-zero, hence identical
    if not (np.isfinite(peak) and peak > 0):
        raise ValidationError("peak must be positive and finite")
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    (mu_a, sq_a), (mu_b, sq_b) = stats_a, stats_b
    mu_ab = _window_means(a * b, window)
    var_a = sq_a - mu_a**2
    var_b = sq_b - mu_b**2
    cov = mu_ab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean((num / den).mean(axis=(-1, -2))))


def ssim(
    a: np.ndarray,
    b: np.ndarray,
    window: int | None = None,
    k1: float = SSIM_K1,
    k2: float = SSIM_K2,
    peak: float | None = None,
) -> float:
    """Mean local structural similarity with a uniform window.

    Windows are fully interior (no padding).  The default window is 7,
    falling back to the largest odd size that fits; an explicit window
    must be odd and fit the grid.  Identical all-zero grids score 1.0
    by convention.
    """
    a, b = _paired(a, b)
    window = _ssim_window(a.shape[1:], window)
    if peak is None:
        peak = max(_peak(a), _peak(b))
    return _ssim_from_stats(
        a, b, _window_stats(a, window), _window_stats(b, window), window, k1, k2, peak
    )


class Scorer:
    """MSE, PSNR and SSIM of grids against one reference grid.

    ``score(a)`` gives ``mse(a, ref)``, ``psnr(a, ref)`` and
    ``ssim(a, ref)`` as "mse", "psnr" and "ssim", and with a mask also
    ``mse(a, ref, mask=mask)`` and ``psnr(a, ref, mask=mask)`` as
    "bg_mse" and "bg_psnr", each equal to the function's value bit for
    bit.  The reference's peak, SSIM window stats and background cells
    are computed once.
    """

    def __init__(self, reference: np.ndarray, mask=None):
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim != 3:
            raise ValidationError("grids must be (d, h, w)")
        self._ref = ref
        self._peak = _peak(ref)
        self._window = _ssim_window(ref.shape[1:], None)
        self._stats = _window_stats(ref, self._window)
        self._mask = mask
        if mask is not None:
            self._ref_background = _background(ref, mask)

    def score(self, a: np.ndarray) -> dict:
        a, ref = _paired(a, self._ref)
        peak = max(_peak(a), self._peak)
        err = float(np.mean((a - ref) ** 2))
        out = {
            "mse": err,
            "psnr": _psnr_from(err, peak),
            "ssim": _ssim_from_stats(
                a,
                ref,
                _window_stats(a, self._window),
                self._stats,
                self._window,
                SSIM_K1,
                SSIM_K2,
                peak,
            ),
        }
        if self._mask is not None:
            err = float(np.mean((_background(a, self._mask) - self._ref_background) ** 2))
            out["bg_mse"] = err
            out["bg_psnr"] = _psnr_from(err, peak)
        return out


def token_agreement(p1, p2, per_scale: bool = False):
    """Fraction of equal tokens between two pyramids on one schedule."""
    if len(p1) != len(p2):
        raise ValidationError("pyramids have different scale counts")
    fractions = []
    matches = 0
    total = 0
    for a, b in zip(p1, p2):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            raise ValidationError(f"scale shapes differ: {a.shape} vs {b.shape}")
        eq = a == b
        fractions.append(float(np.mean(eq)))
        matches += int(np.sum(eq))
        total += eq.size
    if per_scale:
        return fractions
    return matches / total
