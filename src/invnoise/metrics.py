"""Reconstruction and preservation metrics.

MSE, PSNR, and SSIM over d-channel feature grids, each with an optional
region mask; masked variants score only the cells outside the edit
region (the background).  A :class:`Scorer` scores many grids against
one reference: it keeps the reference's SSIM window means and mean
squares, its peak and its background cells, scores a stack of grids
with one set of array operations, and gives the same values as the
functions bit for bit.  SSIM window means are running sums over shifted
slices, added in the order numpy's own strided mean adds them, so they
equal that mean bit for bit.  PSNR and SSIM do not change when both
grids scale together, so grids so small that their terms underflow
(below the smallest normal float64), or so large that they could
overflow, are scored divided by their peak.  An MSE beyond the float64
range is inf.
Token agreement measures exact reconstruction of pyramids.  All of
these are checked against independent naive-loop implementations in
the test suite.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ValidationError

PSNR_CAP = 99.0
SSIM_DEFAULT_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# The smallest normal float64.  A metric term below it has underflowed:
# it is rounded to a subnormal or to zero and has lost its precision.
_TINY = sys.float_info.min
# The largest peak at which no metric term overflows: SSIM multiplies
# two sums of squares, each below 4 peak**2 with the default constants.
_HUGE = (sys.float_info.max / 16) ** 0.25


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
    return _mean_square(a - b)


def _mean_square(diff: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # inf beyond the float64 range
        return float(np.mean(diff**2))


def psnr(a: np.ndarray, b: np.ndarray, peak: float | None = None, mask=None) -> float:
    """10 log10(peak^2 / MSE), capped at 99.0, which identical grids score.

    ``peak`` defaults to the maximum absolute value over both grids.
    Grids so small that their MSE underflows, or with a peak above
    ``_HUGE``, are scored divided by their peak, which leaves the PSNR
    of other grids as it is.  An explicit peak still above ``_HUGE``
    after that division is a :class:`ValidationError`.
    """
    a, b = _paired(a, b)
    if peak is None:
        peak = max(_peak(a), _peak(b))
    return _psnr_from(a, b, mse(a, b, mask=mask), peak, mask)


def _psnr_from(a: np.ndarray, b: np.ndarray, err: float, peak, mask) -> float:
    """PSNR from the MSE ``err`` of a and b (of their background, with a
    mask).  PSNR does not change when the grids and the peak scale
    together, so when err underflows or the peak could overflow the
    grids are scored divided by their own peak instead; an MSE of zero
    then means identical grids."""
    if err < _TINY or peak > _HUGE:
        scale = max(_peak(a), _peak(b))
        if scale > 0.0:
            err = mse(a / scale, b / scale, mask=mask)
            peak = peak / scale
    if err == 0.0:
        return PSNR_CAP
    _check_peak(peak)
    return float(min(10.0 * np.log10(peak**2 / err), PSNR_CAP))


def _check_peak(peak) -> None:
    """A peak, divided by the grids' own peak where that was needed,
    must be positive, finite and at most ``_HUGE``."""
    if not (np.isfinite(peak) and peak > 0):
        raise ValidationError("peak must be positive and finite")
    if peak > _HUGE:
        raise ValidationError(f"peak {peak!r} is too large for these grids")


def _window_means(x: np.ndarray, window: int) -> np.ndarray:
    """Means of all full windows over the last two axes of (..., h, w).

    Equal bit for bit to numpy's mean over a sliding-window view, which
    sums each window row left to right from +0.0, then adds the row sums
    top to bottom, then divides by window**2.  Here each of those steps
    is one add per window column or row over whole shifted slices.  Where
    numpy sums differently, a window of 8 or more (unrolled pairwise sums)
    or an output one column wide (each window one contiguous sum), the
    strided mean itself is taken.
    """
    h, w = x.shape[-2:]
    out_h, out_w = h - window + 1, w - window + 1
    if window >= 8 or out_w == 1:
        views = np.lib.stride_tricks.sliding_window_view(x, (window, window), axis=(-2, -1))
        return views.mean(axis=(-1, -2))
    rows = x[..., :out_w] + 0.0  # from +0.0, as numpy starts each row: -0.0 sums to +0.0
    for j in range(1, window):
        rows += x[..., j : j + out_w]
    sums = rows[..., :out_h, :].copy()
    for i in range(1, window):
        sums += rows[..., i : i + out_h, :]
    sums /= window * window
    return sums


def _window_stats(x: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Window means and mean squares of every channel of (..., d, h, w).

    Every window sums on its own, in the same order for any leading axes.
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


def _scored_alone(peak: float, k1: float, k2: float) -> bool:
    """Whether SSIM at this peak takes the scalar path of
    :func:`_ssim_from_stats`: a zero or invalid peak, or one where the
    smallest denominator, c1 * c2, underflows or the largest terms could
    overflow."""
    return not 0.0 < peak <= _HUGE or (k1 * peak) ** 2 * (k2 * peak) ** 2 < _TINY


def _ssim_from_stats(a, b, stats_b, window, k1, k2, peak) -> float:
    """SSIM of (d, h, w) grids: the mean over channels of each channel's
    mean local score.  ``stats_b`` are b's window stats, or None."""
    if peak == 0.0:
        return 1.0  # both grids all-zero, hence identical
    if not (np.isfinite(peak) and peak > 0):
        raise ValidationError("peak must be positive and finite")
    if _scored_alone(peak, k1, k2):
        # SSIM does not change when the grids and the peak scale
        # together, so score the grids divided by their own peak.
        scale = max(_peak(a), _peak(b))
        if scale == 0.0:
            return 1.0  # both grids all-zero
        a, b, peak = a / scale, b / scale, peak / scale
        _check_peak(peak)
        stats_b = None
    if stats_b is None:
        stats_b = _window_stats(b, window)
    return float(_ssim_scores(a, b, stats_b, window, (k1 * peak) ** 2, (k2 * peak) ** 2))


def _ssim_scores(a, b, stats_b, window, c1, c2) -> np.ndarray:
    """SSIM of every (d, h, w) grid of ``a`` (leading axes allowed)
    against ``b``, whose window stats are ``stats_b``.  ``c1`` and ``c2``
    are floats, or arrays that broadcast one value per grid."""
    (mu_a, sq_a), (mu_b, sq_b) = _window_stats(a, window), stats_b
    mu_ab = _window_means(a * b, window)
    var_a = sq_a - mu_a**2
    var_b = sq_b - mu_b**2
    cov = mu_ab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return (num / den).mean(axis=(-1, -2)).mean(axis=-1)


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
    by convention.  Grids so small that the product of the constants c1
    and c2 underflows, or with a peak above ``_HUGE``, are scored divided
    by their peak, which leaves the SSIM of other grids as it is.  An
    explicit peak still above ``_HUGE`` after that division is a
    :class:`ValidationError`.
    """
    a, b = _paired(a, b)
    window = _ssim_window(a.shape[1:], window)
    if peak is None:
        peak = max(_peak(a), _peak(b))
    return _ssim_from_stats(a, b, None, window, k1, k2, peak)


class Scorer:
    """MSE, PSNR and SSIM of grids against one reference grid.

    ``score(a)`` gives ``mse(a, ref)``, ``psnr(a, ref)`` and
    ``ssim(a, ref)`` as "mse", "psnr" and "ssim", and with a mask also
    ``mse(a, ref, mask=mask)`` and ``psnr(a, ref, mask=mask)`` as
    "bg_mse" and "bg_psnr", each equal to the function's value bit for
    bit; ``score_many`` gives the same for each grid of a stack.  The
    reference's peak, SSIM window stats (unless its peak is above
    ``_HUGE``) and background cells are computed once.
    """

    def __init__(self, reference: np.ndarray, mask=None):
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim != 3:
            raise ValidationError("grids must be (d, h, w)")
        self._ref = ref
        self._peak = _peak(ref)
        self._window = _ssim_window(ref.shape[1:], None)
        self._stats = _window_stats(ref, self._window) if self._peak <= _HUGE else None
        self._mask = mask
        if mask is not None:
            self._ref_background = _background(ref, mask)
            self._keep = ~np.asarray(mask)

    def score(self, a: np.ndarray) -> dict:
        a, _ = _paired(a, self._ref)
        return self.score_many(a[None])[0]

    def score_many(self, grids) -> list[dict]:
        """``score`` of each grid of an (N, d, h, w) stack, in order.

        MSE, background MSE and SSIM take one set of array operations
        for the whole stack; a grid whose SSIM is scored divided by its
        peak is scored alone, and PSNR, a few float operations, per grid.
        """
        grids = np.asarray(grids, dtype=np.float64)
        ref = self._ref
        if grids.ndim != 4 or grids.shape[1:] != ref.shape:
            raise ValidationError(f"grids must be (N, {', '.join(map(str, ref.shape))})")
        peaks = [max(float(p), self._peak) for p in np.max(np.abs(grids), axis=(1, 2, 3))]
        with np.errstate(over="ignore"):  # inf beyond the float64 range
            errs = np.mean((grids - ref) ** 2, axis=(1, 2, 3))
            if self._mask is not None:
                # a[:, keep] of one (d, h, w) grid lies cell by cell with
                # the channels innermost; reduce the stack in that order
                cells = np.ascontiguousarray(np.moveaxis(grids, 1, -1)[:, self._keep])
                bg_errs = np.mean((cells - self._ref_background.T) ** 2, axis=(1, 2))
        ssims = {}
        batch = [i for i, peak in enumerate(peaks) if not _scored_alone(peak, SSIM_K1, SSIM_K2)]
        if batch:
            consts = [
                np.array([(k * peaks[i]) ** 2 for i in batch])[:, None, None, None]
                for k in (SSIM_K1, SSIM_K2)
            ]
            values = _ssim_scores(grids[batch], ref, self._stats, self._window, *consts)
            ssims = dict(zip(batch, map(float, values)))
        out = []
        for i, (a, peak) in enumerate(zip(grids, peaks)):
            err = float(errs[i])
            ssim_a = ssims.get(i)
            if ssim_a is None:
                ssim_a = _ssim_from_stats(
                    a, ref, self._stats, self._window, SSIM_K1, SSIM_K2, peak
                )
            scores = {"mse": err, "psnr": _psnr_from(a, ref, err, peak, None), "ssim": ssim_a}
            if self._mask is not None:
                err = float(bg_errs[i])
                scores["bg_mse"] = err
                scores["bg_psnr"] = _psnr_from(a, ref, err, peak, self._mask)
            out.append(scores)
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
