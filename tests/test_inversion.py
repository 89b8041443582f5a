"""Argmax pseudo-inverses: exact reconstruction, margins, noise laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invnoise.codec import encode
from invnoise.errors import InvariantError, ValidationError
from invnoise.gumbel import ks_statistic, located_from_uniform, truncated_from_uniform
from invnoise.inversion import (
    KIND_LAI,
    KIND_OAI,
    NEG_SENTINEL,
    _located_inverses,
    gaussian_ar_apply,
    gaussian_ar_invert,
    invert_pyramid,
    invert_scale,
    located_inverse,
    noise_from_perturbed,
    onehot_inverse,
    reconstruct_from_noise,
)
from invnoise.predictor import PredictorParams, condition_embed, generate, next_scale_logits
from invnoise.rng import (
    PURPOSE_LABEL_DRAW,
    PURPOSE_TRUNC_DRAW,
    seed_array,
    uniform_values,
)

from conftest import random_grid

E_INV = math.exp(-1.0)


def label_indices(tokens):
    h, w = tokens.shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return rows, cols, tokens


class TestOnehotInverse:
    def test_definition(self):
        tokens = np.array([[0]], dtype=np.int32)
        logits = np.zeros((1, 1, 3))
        q = onehot_inverse(tokens, logits)
        assert np.array_equal(q[0, 0], [0.0, NEG_SENTINEL, NEG_SENTINEL])

    def test_argmax_identity(self, params, source_cond):
        """argmax(p + (q - p)) = argmax(q) = r for any tokens and logits."""
        pyramid = generate(source_cond, params, seed=10)
        for k in (2, 4):
            tokens = pyramid[k - 1]
            logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
            q = onehot_inverse(tokens, logits)
            noise = q - logits
            assert np.array_equal(np.argmax(logits + noise, axis=-1), tokens)

    def test_noise_is_nothing_like_gumbel(self):
        """Off-label onehot noise with p = 0 is a point mass at the
        sentinel, which the Gumbel CDF puts at probability ~0."""
        tokens = np.zeros((4, 4), dtype=np.int32)
        logits = np.zeros((4, 4, 8))
        noise = onehot_inverse(tokens, logits) - logits
        off_label = noise[:, :, 1:].ravel()
        assert np.all(off_label == NEG_SENTINEL)
        assert ks_statistic(off_label, "gumbel") >= 0.9999

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            onehot_inverse(np.zeros((2, 2), dtype=np.int32), np.zeros((1, 1, 3)))


class TestLocatedInverse:
    def test_pinned_draws(self):
        """One token, two classes, tau = 1, both uniforms at e^-1:
        label gets 0, the other class gets -log(e + 1)."""
        tokens = np.zeros((1, 1), dtype=np.int32)
        logits = np.zeros((1, 1, 2))
        u_label = np.full((1, 1), E_INV)
        u_off = np.full((1, 1, 2), E_INV)
        q = next(_located_inverses(tokens, logits, (1.0,), u_label, u_off))
        assert q[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert q[0, 0, 1] == pytest.approx(-math.log(math.e + 1.0), abs=1e-12)

    def test_argmax_forced(self, params, source_cond):
        for seed in range(5):
            pyramid = generate(source_cond, params, seed=seed)
            for k in (1, 3, 5):
                tokens = pyramid[k - 1]
                logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
                q = located_inverse(tokens, logits, 0.5, seed=seed, scale=k)
                assert np.array_equal(np.argmax(q, axis=-1), tokens)

    def test_margin_at_default_tau(self, params, source_cond):
        """tau = 18 forces a perturbed-logit margin of at least 18."""
        pyramid = generate(source_cond, params, seed=30)
        k = 4
        tokens = pyramid[k - 1]
        logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
        q = located_inverse(tokens, logits, 18.0, seed=31, scale=k)
        rows, cols, labels = label_indices(tokens)
        q_label = q[rows, cols, labels]
        q_off = q.copy()
        q_off[rows, cols, labels] = -np.inf
        margin = q_label - q_off.max(axis=-1)
        assert np.all(margin >= 18.0)

    def test_rejects_negative_tau(self):
        tokens = np.zeros((1, 1), dtype=np.int32)
        logits = np.zeros((1, 1, 2))
        with pytest.raises(ValidationError):
            located_inverse(tokens, logits, -0.5, seed=1, scale=1)


def reference_tightening(tokens, logits, q, tau):
    """Noise tightening as first written: a full replay on every pass."""
    rows, cols, labels = label_indices(tokens)
    noise = q - logits
    label_mask = np.zeros(q.shape, dtype=bool)
    label_mask[rows, cols, labels] = True
    for _ in range(64):
        replayed = logits + noise
        q_label = replayed[rows, cols, labels][:, :, None]
        bad = ((q_label - replayed) < tau) | (replayed >= q_label)
        bad &= ~label_mask
        if not bad.any():
            return noise
        noise[bad] = np.nextafter(noise[bad], -np.inf)
    raise InvariantError("noise tightening did not converge")


class TestTighteningMatchesReference:
    """Re-checking only failing cells gives the full-pass loop's noise."""

    @pytest.mark.parametrize("tau", [0.0, 1e-6, 18.0])
    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    def test_located_inversions(self, params, source_cond, tau, beta):
        """Same noise, or the same InvariantError where 64 passes are too
        few (beta = 3000 with tau <= 1e-6 at the finer scales)."""
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        nudged = 0
        for seed in (0, 1):
            pyramid = encode(random_grid(seed + 70), params.codebook, params.schedule)
            for k in range(1, params.schedule.num_scales + 1):
                tokens = pyramid[k - 1]
                logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
                q = located_inverse(tokens, logits, tau, seed=seed, scale=k)
                try:
                    want = reference_tightening(tokens, logits, q, tau)
                except InvariantError:
                    with pytest.raises(InvariantError):
                        noise_from_perturbed(tokens, logits, q, tau)
                    continue
                got = noise_from_perturbed(tokens, logits, q, tau)
                assert np.array_equal(got, want)
                nudged += int(np.sum(got != q - logits))
        # at beta = 4 replay rounding seldom breaks a margin
        if beta > 4.0:
            assert nudged > 0

    def test_onehot_inversions(self, params, source_cond):
        pyramid = encode(random_grid(80), params.codebook, params.schedule)
        for k in range(1, params.schedule.num_scales + 1):
            tokens = pyramid[k - 1]
            logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
            q = onehot_inverse(tokens, logits)
            got = noise_from_perturbed(tokens, logits, q, 0.0)
            assert np.array_equal(got, reference_tightening(tokens, logits, q, 0.0))

    @pytest.mark.parametrize("ulps,converges", [(62, True), (63, False)])
    def test_pass_budget(self, ulps, converges):
        """An off-label value `ulps` subnormals above a zero label needs
        ulps + 1 nudges, i.e. ulps + 2 replay checks; 64 are allowed."""
        tokens = np.zeros((1, 2), dtype=np.int32)
        logits = np.zeros((1, 2, 3))
        q = np.zeros((1, 2, 3))
        q[0, 1, 2] = ulps * 5e-324
        if converges:
            got = noise_from_perturbed(tokens, logits, q, 0.0)
            assert np.array_equal(got, reference_tightening(tokens, logits, q, 0.0))
            assert got[0, 1, 2] == -5e-324
        else:
            for tighten in (noise_from_perturbed, reference_tightening):
                with pytest.raises(InvariantError):
                    tighten(tokens, logits, q.copy(), 0.0)

    def test_hopeless_margin_raises(self):
        tokens = np.zeros((1, 1), dtype=np.int32)
        with pytest.raises(InvariantError):
            noise_from_perturbed(tokens, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), 18.0)


class TestInvertPyramid:
    @pytest.mark.parametrize("tau", [0.0, 1.0, 18.0])
    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_reconstruction_exact(self, params, source_cond, tau, kind):
        for seed in (0, 1, 2):
            pyramid = encode(random_grid(seed + 60), params.codebook, params.schedule)
            noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed, kind=kind)
            recon = reconstruct_from_noise(noise_set, source_cond, params)
            assert all(np.array_equal(a, b) for a, b in zip(pyramid, recon))

    def test_provenance(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=2)
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=9)
        assert noise_set.condition_label == source_cond.label
        assert noise_set.tau == 18.0
        assert noise_set.seed == 9
        assert noise_set.kind == KIND_LAI
        assert not noise_set.sensitive
        assert invert_pyramid(pyramid, source_cond, 0.0, params, seed=9).sensitive

    def test_parallel_matches_serial(self, params, source_cond):
        """Token-parallel inversion and a per-token serial replay agree
        bit for bit (the draws are keyed, not sequential)."""
        pyramid = generate(source_cond, params, seed=3)
        seed, tau = 13, 2.0
        noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed)
        for k in range(1, params.schedule.num_scales + 1):
            tokens = pyramid[k - 1]
            logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
            h, w, C = logits.shape
            serial = np.empty((h, w, C))
            for i in range(h):
                for j in range(w):
                    u_label = uniform_values(seed, PURPOSE_LABEL_DRAW, k, i, j, 0)
                    u_off = uniform_values(seed, PURPOSE_TRUNC_DRAW, k, i, j, np.arange(C))
                    q = next(
                        _located_inverses(
                            tokens[i : i + 1, j : j + 1],
                            logits[i : i + 1, j : j + 1],
                            (tau,),
                            np.atleast_2d(u_label),
                            u_off[None, None, :],
                        )
                    )
                    serial[i, j] = noise_from_perturbed(
                        tokens[i : i + 1, j : j + 1],
                        logits[i : i + 1, j : j + 1],
                        q,
                        tau,
                    )[0, 0]
            assert np.array_equal(noise_set.noises[k - 1], serial)

    def test_lai_noise_more_gumbel_than_oai(self, params, source_cond):
        """On self-generated pyramids the located inversion's noise is
        strictly closer to standard Gumbel than the onehot one's."""
        for seed in range(10):
            pyramid = generate(source_cond, params, seed=seed)
            lai = invert_pyramid(pyramid, source_cond, 0.0, params, seed=seed + 100)
            oai = invert_pyramid(pyramid, source_cond, 0.0, params, seed=seed + 100, kind=KIND_OAI)
            ks_lai = ks_statistic(np.concatenate([n.ravel() for n in lai.noises]), "gumbel")
            ks_oai = ks_statistic(np.concatenate([n.ravel() for n in oai.noises]), "gumbel")
            assert ks_lai < ks_oai

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        tau=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_reconstruction_property(self, params, source_cond, seed, tau):
        pyramid = encode(random_grid(seed % 1000), params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed)
        recon = reconstruct_from_noise(noise_set, source_cond, params)
        assert all(np.array_equal(a, b) for a, b in zip(pyramid, recon))


def reference_invert(pyramid, cond, tau, params, seed, kind):
    """One-margin inversion as first written: one-shot logits per scale,
    the located draws spelled out with meshgrid keys."""
    noises = []
    for k, tokens in enumerate(pyramid, start=1):
        logits = next_scale_logits(pyramid[: k - 1], cond, k, params)
        if kind == KIND_OAI:
            noises.append(noise_from_perturbed(tokens, logits, onehot_inverse(tokens, logits), 0.0))
            continue
        rows, cols, labels = label_indices(tokens)
        channels = np.arange(logits.shape[2])
        u_label = uniform_values(seed, PURPOSE_LABEL_DRAW, k, rows, cols, 0)
        u_off = uniform_values(
            seed, PURPOSE_TRUNC_DRAW, k, rows[:, :, None], cols[:, :, None], channels
        )
        q_label = located_from_uniform(logits[rows, cols, labels], u_label)
        q = truncated_from_uniform(logits, (q_label - tau)[:, :, None], u_off)
        q[rows, cols, labels] = q_label
        noises.append(noise_from_perturbed(tokens, logits, q, tau))
    return noises


MARGINS = (0.0, 1e-6, 14.0, 18.0, 20.0)


class TestInvertPyramids:
    """Inverting a pyramid at several margins is one ``invert_scale`` call
    per scale: each margin gets the one-margin noise of the step and of
    ``invert_pyramid``."""

    @pytest.mark.parametrize("taus", [MARGINS, (20.0, 0.0, 18.0, 1e-6, 14.0)])
    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_each_margin_matches_single(self, params, source_cond, taus, beta, kind):
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        for seed in (0, 1):
            # self-generated pyramids tighten within the pass budget even at beta = 3000
            pyramid = generate(source_cond, params, seed=seed)
            sets = [invert_pyramid(pyramid, source_cond, tau, params, seed, kind) for tau in taus]
            for k, tokens in enumerate(pyramid, start=1):
                logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
                step = list(invert_scale(tokens, logits, taus, seed, k, kind))
                assert len(step) == len(taus)
                for tau, got, single in zip(taus, step, sets):
                    (alone,) = invert_scale(tokens, logits, (tau,), seed, k, kind)
                    assert np.array_equal(got, alone)
                    assert np.array_equal(got, single.noises[k - 1])
            for tau, single in zip(taus, sets):
                assert (single.tau, single.seed, single.kind) == (tau, seed, kind)
                want = reference_invert(pyramid, source_cond, tau, params, seed, kind)
                assert all(np.array_equal(a, b) for a, b in zip(single.noises, want))
                recon = reconstruct_from_noise(single, source_cond, params)
                assert all(np.array_equal(a, b) for a, b in zip(pyramid, recon))

    def test_repeated_margin(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=4)
        for k, tokens in enumerate(pyramid, start=1):
            logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
            a, b = invert_scale(tokens, logits, (18.0, 18.0), 4, k)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "taus", [(-1.0, -1e-300), (float("nan"),), (float("inf"), -float("inf"))]
    )
    def test_rejects_bad_margins(self, params, source_cond, taus):
        pyramid = generate(source_cond, params, seed=4)
        for tau in taus:
            with pytest.raises(ValidationError):
                invert_pyramid(pyramid, source_cond, tau, params, seed=4)

    def test_one_failing_margin_fails_the_walk(self, params, source_cond):
        """At beta = 3000 an encoded random grid does not tighten at
        tau = 0 within the pass budget at some scale; the step raises
        there at margins (18, 0) as at 0 alone, and so does
        ``invert_pyramid`` at 0."""
        params = PredictorParams(params.codebook, params.schedule, beta=3000.0)
        pyramid = encode(random_grid(70), params.codebook, params.schedule)
        invert_pyramid(pyramid, source_cond, 18.0, params, seed=0)
        with pytest.raises(InvariantError):
            invert_pyramid(pyramid, source_cond, 0.0, params, seed=0)
        failing = 0
        for k, tokens in enumerate(pyramid, start=1):
            logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
            try:
                list(invert_scale(tokens, logits, (0.0,), 0, k))
            except InvariantError:
                failing += 1
                with pytest.raises(InvariantError):
                    list(invert_scale(tokens, logits, (18.0, 0.0), 0, k))
        assert failing


class TestInvertScaleSeeds:
    """An array of seeds gives each seed's own noise maps bit for bit."""

    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_seed_array_equals_per_seed(self, params, source_cond, beta, kind):
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        pyramid = generate(source_cond, params, seed=4)
        logits = next_scale_logits(pyramid[:3], source_cond, 4, params)
        seeds = [0, 9, 2**64 - 1]
        taus = [18.0, 0.0, 14.0]
        got = list(invert_scale(pyramid[3], logits, taus, seed_array(seeds), 4, kind))
        for i, seed in enumerate(seeds):
            want = invert_scale(pyramid[3], logits, taus, seed, 4, kind)
            for noise, single in zip(got, want):
                assert np.array_equal(noise[i] if kind == KIND_LAI else noise, single)

    def test_pyramids_collect_the_step(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=6)
        sets = [invert_pyramid(pyramid, source_cond, tau, params, seed=6) for tau in (14.0, 18.0)]
        for k in range(1, params.schedule.num_scales + 1):
            logits = next_scale_logits(pyramid[: k - 1], source_cond, k, params)
            step = invert_scale(pyramid[k - 1], logits, (14.0, 18.0), 6, k)
            assert all(np.array_equal(ns.noises[k - 1], n) for ns, n in zip(sets, step))


def test_rectangular_schedule_end_to_end():
    """Non-square resolutions flow through encode, inversion, and replay."""
    from invnoise.codec import ScaleSchedule, default_codebook
    from invnoise.predictor import PredictorParams
    from invnoise.rng import normal_values

    schedule = ScaleSchedule(((1, 2), (2, 4), (4, 8), (8, 16)))
    codebook = default_codebook(size=32, dim=3, seed=5)
    rect_params = PredictorParams(codebook=codebook, schedule=schedule)
    cond = condition_embed("rectangular scene", rect_params)
    grid = 0.7 * np.moveaxis(
        normal_values(
            1, 99, 0,
            np.arange(8)[:, None, None],
            np.arange(16)[None, :, None],
            np.arange(3)[None, None, :],
        ),
        -1, 0,
    )
    pyramid = encode(grid, codebook, schedule)
    noise_set = invert_pyramid(pyramid, cond, 7.0, rect_params, seed=3)
    recon = reconstruct_from_noise(noise_set, cond, rect_params)
    assert all(np.array_equal(a, b) for a, b in zip(pyramid, recon))


def toy_mu_sigma(prefix):
    """Seedless AR(1)-style conditional: mean and spread from the tail."""
    if prefix.size == 0:
        return 0.0, 1.0
    return 0.7 * prefix[-1], 0.5 + 0.1 * abs(prefix[-1])


class TestGaussianInversion:
    def test_zero_noise(self):
        x = gaussian_ar_apply(np.zeros(16), toy_mu_sigma)
        assert np.allclose(gaussian_ar_invert(x, toy_mu_sigma), 0.0)

    def test_direct_formula(self):
        eps = gaussian_ar_invert(np.array([4.0]), lambda prefix: (0.0, 2.0))
        assert eps[0] == 2.0

    def test_round_trip_and_law(self):
        u1 = uniform_values(40, 1, 0, np.arange(10_000), 0, 0)
        u2 = uniform_values(40, 2, 0, np.arange(10_000), 0, 0)
        eps_true = np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)
        x = gaussian_ar_apply(eps_true, toy_mu_sigma)
        eps = gaussian_ar_invert(x, toy_mu_sigma)
        x_again = gaussian_ar_apply(eps, toy_mu_sigma)
        rel = np.max(np.abs(x_again - x) / np.maximum(np.abs(x), 1e-300))
        assert rel <= 1e-12
        assert ks_statistic(eps, "normal") <= 0.02

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            gaussian_ar_invert(np.ones(4), lambda prefix: (0.0, 0.0))
