"""Gumbel primitives: analytic anchors, Monte Carlo laws, KS machinery."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from invnoise.errors import ValidationError
from invnoise.gumbel import gumbel_cdf, ks_statistic, located_from_uniform, standard_rows
from invnoise.rng import uniform_values

from conftest import sample_token_map, standard_from_uniform, truncated_gumbel

E_INV = math.exp(-1.0)
EULER_MASCHERONI = 0.5772156649015329  # the mean of the standard Gumbel law


class TestStandard:
    """The keyed standard draws, and the reference transform the tests
    compare them with."""

    def test_analytic_point(self):
        """u = e^-1 maps to exactly 0: -log(-log(e^-1)) = -log(1)."""
        assert standard_from_uniform(E_INV) == 0.0

    def test_mean_matches_euler_mascheroni(self):
        g = standard_rows(100, 1, 0, 0, 1_000_000, 1, 1)
        assert abs(g.mean() - EULER_MASCHERONI) < 0.01

    def test_ks_against_gumbel_cdf(self):
        assert ks_statistic(standard_rows(101, 1, 0, 0, 100_000, 1, 1), "gumbel") <= 0.01

    def test_keyed_wrapper_deterministic(self):
        a = standard_rows(5, 1, 0, 0, 2, 3, 4)
        assert np.array_equal(a, standard_rows(5, 1, 0, 0, 2, 3, 4))


class TestLocated:
    def test_reduces_to_standard(self):
        assert located_from_uniform(0.0, E_INV) == 0.0

    def test_pure_location_shift(self):
        assert located_from_uniform(5.0, E_INV) == 5.0

    def test_location_equivariance_exact(self):
        u = uniform_values(3, 1, 0, np.arange(20), 0, 0)
        assert np.array_equal(located_from_uniform(7.5, u), 7.5 + standard_from_uniform(u))

    def test_median(self):
        """Median of Gumbel(2, 1) is 2 - log(log 2)."""
        u = uniform_values(102, 1, 0, np.arange(100_000), 0, 0)
        med = np.median(located_from_uniform(2.0, u))
        assert abs(med - (2.0 - math.log(math.log(2.0)))) < 0.02


def truncated_gumbel_cdf(z, loc: float, trunc: float):
    """CDF of Gumbel(loc, 1) conditioned on <= trunc."""
    z = np.asarray(z, dtype=np.float64)
    return gumbel_cdf(np.minimum(z, trunc), loc) / gumbel_cdf(trunc, loc)


class TestTruncated:
    def test_analytic_point(self):
        """phi = T = 0, u = e^-1: 0 - log(exp(0) - log(e^-1)) = -log 2."""
        value = truncated_gumbel(0.0, 0.0, E_INV)
        assert abs(value - (-math.log(2.0))) < 1e-12

    def test_bound_holds_on_fuzz(self):
        phi = uniform_values(103, 1, 0, np.arange(100_000), 0, 0) * 200 - 100
        trunc = uniform_values(103, 2, 0, np.arange(100_000), 0, 0) * 200 - 100
        u = uniform_values(103, 3, 0, np.arange(100_000), 0, 0)
        values = truncated_gumbel(phi, trunc, u)
        assert np.all(values <= trunc)

    def test_conditional_cdf(self):
        """Draws at phi = T = 0 follow the Gumbel CDF renormalized on z <= 0."""
        u = uniform_values(104, 1, 0, np.arange(100_000), 0, 0)
        values = truncated_gumbel(0.0, 0.0, u)
        d = ks_statistic(values, lambda z: truncated_gumbel_cdf(z, 0.0, 0.0))
        assert d <= 0.01

    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(min_value=-1e6, max_value=1e6),
        trunc=st.floats(min_value=-1e6, max_value=1e6),
        u=st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
    )
    def test_bound_property(self, phi, trunc, u):
        assert truncated_gumbel(phi, trunc, u) <= trunc


def grid_key(h, w, c):
    """Row, col and channel index arrays that broadcast to (h, w, c)."""
    return np.arange(h)[:, None, None], np.arange(w)[None, :, None], np.arange(c)


def reference_truncated(phi, trunc, u):
    """The truncated transform as first written, one temporary per step."""
    phi = np.asarray(phi, dtype=np.float64)
    trunc = np.asarray(trunc, dtype=np.float64)
    value = phi - np.logaddexp(phi - trunc, np.log(-np.log(u)))
    return np.minimum(value, trunc)


class TestTruncatedMatchesReference:
    """The fused transform is bit-identical to the unfused formula."""

    @pytest.mark.parametrize("tau", [0.0, 1e-6, 18.0])
    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    def test_inversion_shaped_inputs(self, tau, beta):
        h, w, c = 3, 5, 64
        rows, cols, chans = grid_key(h, w, c)
        phi = -beta * uniform_values(107, 1, 0, rows, cols, chans)
        u_label = uniform_values(107, 2, 0, rows[..., 0], cols[..., 0], 0)
        trunc = (phi[:, :, 7] + standard_from_uniform(u_label) - tau)[:, :, None]
        u = uniform_values(107, 3, 0, rows, cols, chans)
        got = truncated_gumbel(phi, trunc, u)
        assert got.shape == (h, w, c) and got.flags.c_contiguous
        assert np.array_equal(got, reference_truncated(phi, trunc, u))

    def test_sentinel_and_extreme_uniforms(self):
        phi = np.array([-1.0e4, -1.0e4, 0.0, 50.0, -700.0, 700.0])
        trunc = np.array([0.0, -2.0e4, -1e-300, 49.0, 0.0, -700.0])
        u = np.array([1.0 / (2**53 + 2), 1.0 - 2.0**-53, 0.5, 1e-300, 0.25, 0.75])
        got = truncated_gumbel(phi, trunc, u)
        assert np.array_equal(got, reference_truncated(phi, trunc, u))

    def test_scalar_inputs_give_scalars(self):
        got = truncated_gumbel(0.3, -1.2, 0.7)
        want = reference_truncated(0.3, -1.2, 0.7)
        assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
        assert got == want
        u = uniform_values(1, 2, 0, 0, 0, 0)
        keyed = truncated_gumbel(0.3, -1.2, u)
        assert np.ndim(keyed) == 0 and keyed == reference_truncated(0.3, -1.2, u)

    def test_scalar_uniform_broadcasts(self):
        phi = np.linspace(-5.0, 5.0, 11)
        got = truncated_gumbel(phi, 1.0, 0.3)
        assert got.shape == phi.shape
        assert np.array_equal(got, reference_truncated(phi, 1.0, 0.3))


class TestStandardField:
    @pytest.mark.parametrize("shape", [(1, 1, 512), (1, 7, 3), (16, 16, 64)])
    def test_matches_transformed_uniforms(self, shape):
        """The keyed draws of all rows at once, and of each row alone, are
        the transformed uniforms of the whole grid."""
        h, w, c = shape
        want = standard_from_uniform(uniform_values(9, 3, 2, *grid_key(*shape)))
        assert np.array_equal(standard_rows(9, 3, 2, 0, h, w, c), want)
        by_row = [standard_rows(9, 3, 2, r, r + 1, w, c) for r in range(h)]
        assert np.array_equal(np.concatenate(by_row), want)

    def test_sampler_is_argmax_of_field(self):
        logits = -4.0 * uniform_values(5, 1, 0, *grid_key(6, 4, 64))
        u = uniform_values(11, 4, 3, *grid_key(6, 4, 64))
        want = np.argmax(logits + standard_from_uniform(u), axis=-1)
        assert np.array_equal(sample_token_map(logits, 11, 4, 3), want)


class TestArgmaxSample:
    def test_single_class(self):
        assert np.array_equal(sample_token_map(np.array([[[3.0]]]), 1, 1, 0), [[0]])

    def test_dominant_logit_never_loses(self):
        """Margin 100 dwarfs the Gumbel spread: class 0 wins every draw."""
        u = uniform_values(105, 1, 0, np.arange(10_000)[:, None], 0, np.arange(3)[None, :])
        scores = np.array([100.0, 0.0, 0.0]) + standard_from_uniform(u)
        assert np.all(np.argmax(scores, axis=1) == 0)

    def test_uniform_logits_frequencies(self):
        """Flat logits: each class lands within 0.01 of 1/3 at n = 10^5."""
        u = uniform_values(106, 1, 0, np.arange(100_000)[:, None], 0, np.arange(3)[None, :])
        picks = np.argmax(standard_from_uniform(u), axis=1)
        freqs = np.bincount(picks, minlength=3) / picks.size
        assert np.all(np.abs(freqs - 1.0 / 3.0) < 0.01)

    def test_api_matches_vectorized_map(self):
        """A per-row Gumbel-max draw and the map sampler share keys and results."""
        logits = np.array([[[0.3, -0.2, 1.1, 0.0]]])
        u = uniform_values(8, 4, 2, 0, 0, np.arange(4))
        row = int(np.argmax(logits[0, 0] + standard_from_uniform(u)))
        vec = sample_token_map(logits, seed=8, purpose=4, scale=2)
        assert row == vec[0, 0]


class TestKsStatistic:
    def test_point_mass_at_median(self):
        median = -math.log(math.log(2.0))
        assert ks_statistic(np.full(50, median), "gumbel") == pytest.approx(0.5)

    def test_matches_scipy(self):
        u = uniform_values(107, 1, 0, np.arange(5000), 0, 0)
        samples = standard_from_uniform(u)
        ours = ks_statistic(samples, "gumbel")
        ref = scipy.stats.kstest(samples, lambda z: np.exp(-np.exp(-z))).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_mismatched_distribution_is_large(self):
        u = uniform_values(108, 1, 0, np.arange(100_000), 0, 0)
        assert ks_statistic(u, "gumbel") >= 0.3

    def test_named_and_callable_agree(self):
        samples = np.linspace(-2, 2, 100)
        assert ks_statistic(samples, "gumbel") == ks_statistic(samples, gumbel_cdf)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([], "gumbel")

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([1.0], "cauchy")
