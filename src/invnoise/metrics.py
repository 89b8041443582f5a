"""Reconstruction and preservation metrics.

MSE, PSNR, and SSIM over d-channel feature grids; with a region mask,
MSE and PSNR also score only the cells outside the edit region (the
background).  A :class:`Scorer` computes them all: it scores grids
against one reference, keeping the reference's SSIM window means and
mean squares, its peak and its background cells, and scores a stack of
grids with one set of array operations; ``Scorer(b, mask).score(a)``
is the one-grid case.  Grids holding NaN or an infinity are a
:class:`ValidationError`.  SSIM window means are running sums over
shifted slices, added in the order numpy's own strided mean adds them,
so they equal that mean bit for bit.  PSNR and SSIM do not change when
both grids scale together, so grids so small that their terms underflow
(below the smallest normal float64), or so large that they could
overflow, are scored divided by their peak.  An MSE beyond the float64
range is inf.  All of these are checked against independent naive-loop
implementations in the test suite.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ValidationError

PSNR_CAP = 99.0
SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# The smallest normal float64.  A metric term below it has underflowed:
# it is rounded to a subnormal or to zero and has lost its precision.
_TINY = sys.float_info.min
# The largest peak at which no metric term overflows: SSIM multiplies
# two sums of squares, each below 4 peak**2 with SSIM_K1 and SSIM_K2.
_HUGE = (sys.float_info.max / 16) ** 0.25


def _finite_peak(peak) -> None:
    """A max-abs peak is NaN or infinite exactly when its grid holds a
    NaN or infinite value."""
    if not np.all(np.isfinite(peak)):
        raise ValidationError("grid values must be finite")


def _mean_square(a: np.ndarray, b: np.ndarray, keep) -> float:
    """MSE of a and b, of their background cells ``keep`` when given."""
    if keep is not None:
        a, b = a[:, keep], b[:, keep]
    with np.errstate(over="ignore"):  # inf beyond the float64 range
        return float(np.mean((a - b) ** 2))


def _psnr_from(a: np.ndarray, b: np.ndarray, err: float, peak: float, keep) -> float:
    """PSNR from the MSE ``err`` of a and b (of their background cells
    ``keep``, when given) and ``peak``, the max-abs value over both.
    PSNR does not change when the grids and the peak scale together, so
    when err underflows or the peak could overflow the grids are scored
    divided by their peak instead; an MSE of zero then means identical
    grids."""
    if peak > 0.0 and (err < _TINY or peak > _HUGE):
        err, peak = _mean_square(a / peak, b / peak, keep), 1.0
    if err == 0.0:
        return PSNR_CAP
    return float(min(10.0 * np.log10(peak**2 / err), PSNR_CAP))


def _window_means(x: np.ndarray, window: int) -> np.ndarray:
    """Means of all full windows over the last two axes of (..., h, w).

    Equal bit for bit to numpy's mean over a sliding-window view, which
    sums each window row left to right from +0.0, then adds the row sums
    top to bottom, then divides by window**2.  Here each of those steps
    is one add per window column or row over whole shifted slices.  Where
    numpy sums differently, an output one column wide (each window one
    contiguous sum), the strided mean itself is taken.  Windows are at
    most 7 wide; from 8 numpy unrolls its sums pairwise.
    """
    h, w = x.shape[-2:]
    out_h, out_w = h - window + 1, w - window + 1
    if out_w == 1:
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


def _ssim_window(shape: tuple[int, int]) -> int:
    """7, or the largest odd size that fits the grid."""
    window = min(SSIM_WINDOW, *shape)
    return window if window % 2 else window - 1


def _scored_alone(peak: float) -> bool:
    """Whether SSIM at this peak takes :func:`_ssim_alone`: a zero peak,
    or one where the smallest denominator, c1 * c2, underflows or the
    largest terms could overflow."""
    return not 0.0 < peak <= _HUGE or (SSIM_K1 * peak) ** 2 * (SSIM_K2 * peak) ** 2 < _TINY


def _ssim_alone(a, b, window, peak) -> float:
    """SSIM of one (d, h, w) grid at a peak :func:`_scored_alone` selects.
    SSIM does not change when the grids and the peak scale together, so
    the grids are scored divided by their peak."""
    if peak == 0.0:
        return 1.0  # both grids all-zero, hence identical
    a, b = a / peak, b / peak
    return float(_ssim_scores(a, b, _window_stats(b, window), window, SSIM_K1**2, SSIM_K2**2))


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


class Scorer:
    """MSE, PSNR and SSIM of grids against one reference grid.

    ``score(a)`` gives "mse", "psnr" (10 log10(peak^2 / MSE), capped at
    99.0, which identical grids score; the peak is the max-abs value over
    both grids) and "ssim" (uniform, fully interior windows, 7 wide or
    the largest odd size that fits; constants ``SSIM_K1`` and ``SSIM_K2``
    times the peak; two all-zero grids score 1.0), and with a mask
    "bg_mse" and "bg_psnr" over the background cells.  ``score_many``
    gives the same for each grid of a stack.  The reference's peak, SSIM
    window stats (unless its peak is above ``_HUGE``) and background
    cells are computed once.  A reference or grid holding NaN or an
    infinity is a :class:`ValidationError`.  This is the one check of an
    edit-region mask: boolean, of the reference's (h, w) shape, with at
    least one background (False) cell.  Its edit region may be empty;
    "bg_mse" and "bg_psnr" are then "mse" and "psnr".
    """

    def __init__(self, reference: np.ndarray, mask=None):
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim != 3 or ref.size == 0:
            raise ValidationError("grids must be non-empty (d, h, w)")
        self._ref = ref
        self._peak = float(np.max(np.abs(ref)))
        _finite_peak(self._peak)
        self._window = _ssim_window(ref.shape[1:])
        self._stats = _window_stats(ref, self._window) if self._peak <= _HUGE else None
        self._masked = mask is not None
        self._keep = None  # the background cells, with a non-empty edit region
        if mask is not None:
            mask = np.asarray(mask)
            if mask.dtype != bool or mask.shape != ref.shape[1:]:
                raise ValidationError(f"mask must be boolean with shape {ref.shape[1:]}")
            if mask.all():
                raise ValidationError("mask leaves no background cells")
            if mask.any():
                self._keep = ~mask
                self._ref_background = ref[:, self._keep]

    def score(self, a: np.ndarray) -> dict:
        return self.score_many(np.asarray(a)[None])[0]

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
        grid_peaks = np.max(np.abs(grids), axis=(1, 2, 3))
        _finite_peak(grid_peaks)
        peaks = [max(float(p), self._peak) for p in grid_peaks]
        with np.errstate(over="ignore"):  # inf beyond the float64 range
            errs = bg_errs = np.mean((grids - ref) ** 2, axis=(1, 2, 3))
            if self._keep is not None:
                # a[:, keep] of one (d, h, w) grid lies cell by cell with
                # the channels innermost; reduce the stack in that order
                cells = np.ascontiguousarray(np.moveaxis(grids, 1, -1)[:, self._keep])
                bg_errs = np.mean((cells - self._ref_background.T) ** 2, axis=(1, 2))
        ssims = {}
        batch = [i for i, peak in enumerate(peaks) if not _scored_alone(peak)]
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
                ssim_a = _ssim_alone(a, ref, self._window, peak)
            scores = {"mse": err, "psnr": _psnr_from(a, ref, err, peak, None), "ssim": ssim_a}
            if self._masked:
                err = float(bg_errs[i])
                scores["bg_mse"] = err
                scores["bg_psnr"] = _psnr_from(a, ref, err, peak, self._keep)
            out.append(scores)
        return out
