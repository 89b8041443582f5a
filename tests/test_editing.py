"""Editing pipelines: schedules, endpoints, prefix integrity, trends."""

from dataclasses import replace

import numpy as np
import pytest

from invnoise.codec import decode, default_codebook, dyadic_schedule, encode
from invnoise.demo import demo_scene
from invnoise.editing import (
    CONTEXT_GENERATED,
    CONTEXT_SOURCE,
    EDIT_MODES,
    MODE_REGEN,
    MODE_TARGET_ONLY,
    MODE_VARIN,
    EditConfig,
    LambdaSchedule,
    SeedSweep,
    default_start_scale,
    edit_batch,
    edit_seeds,
    edit_regeneration,
    edit_target_only,
    edit_with_inverse_noise,
    lambda_at,
    seed_chunk_width,
)
from invnoise.errors import ValidationError
from invnoise.inversion import invert_pyramid
from invnoise.gumbel import standard_from_uniform
from invnoise.predictor import PredictorParams, condition_embed, next_scale_logits
from invnoise.rng import PURPOSE_EDIT_NOISE, uniform_values

from conftest import random_grid

SRC = "red brick house among pines"
TGT = "blue glass tower among pines"


class TestLambdaSchedule:
    def test_linear_endpoints(self):
        sched = LambdaSchedule(kind="linear")
        assert lambda_at(sched, 6, 6, 14) == 1.0
        assert lambda_at(sched, 14, 6, 14) == 0.0

    def test_linear_midpoint(self):
        assert lambda_at(LambdaSchedule(kind="linear"), 10, 6, 14) == 0.5

    def test_constant(self):
        sched = LambdaSchedule(kind="constant", value=0.25)
        assert lambda_at(sched, 3, 2, 5) == 0.25

    def test_degenerate_single_scale(self):
        assert lambda_at(LambdaSchedule(kind="linear"), 5, 5, 5) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            lambda_at(LambdaSchedule(), 1, 2, 5)
        with pytest.raises(ValidationError):
            lambda_at(LambdaSchedule(), 6, 2, 5)

    def test_bad_kinds_rejected(self):
        with pytest.raises(ValidationError):
            LambdaSchedule(kind="cosine")
        with pytest.raises(ValidationError):
            LambdaSchedule(kind="constant", value=1.5)

    def test_default_start_scale_mapping(self):
        assert default_start_scale(14) == 6
        assert default_start_scale(5) == 2


class TestEndpoints:
    def test_full_reconstruction(self, params):
        """lambda = 1, matching condition, start scale 1: the edit replays
        the source tokens exactly, for every tau and seed tried."""
        grid = random_grid(70)
        source_pyramid = encode(grid, params.codebook, params.schedule)
        for tau in (0.0, 1.0, 18.0):
            for seed in (0, 1, 2):
                cfg = EditConfig(
                    source_label=SRC,
                    target_label=SRC,
                    start_scale=1,
                    tau=tau,
                    lambda_schedule=LambdaSchedule(kind="constant", value=1.0),
                    seed=seed,
                )
                result = edit_with_inverse_noise(grid, cfg, params)
                assert all(
                    np.array_equal(a, b) for a, b in zip(result.pyramid, source_pyramid)
                )
                assert all(f == 0.0 for f in result.change_fraction)

    def test_lambda_zero_equals_regeneration(self, params):
        """lambda = 0 degenerates to plain Gumbel-max regeneration,
        bit for bit under a shared seed."""
        grid = random_grid(71)
        for seed in range(8):
            cfg = EditConfig(
                source_label=SRC,
                target_label=TGT,
                start_scale=2,
                lambda_schedule=LambdaSchedule(kind="constant", value=0.0),
                seed=seed,
            )
            via_noise = edit_with_inverse_noise(grid, cfg, params)
            via_regen = edit_regeneration(grid, TGT, 2, params, seed=seed)
            assert all(
                np.array_equal(a, b)
                for a, b in zip(via_noise.pyramid, via_regen.pyramid)
            )
            assert np.array_equal(via_noise.grid, via_regen.grid)

    def test_prefix_integrity(self, params):
        grid = random_grid(72)
        source_pyramid = encode(grid, params.codebook, params.schedule)
        for start in (2, 3, 4):
            cfg = EditConfig(source_label=SRC, target_label=TGT, start_scale=start, seed=3)
            result = edit_with_inverse_noise(grid, cfg, params)
            for k in range(start - 1):
                assert np.array_equal(result.pyramid[k], source_pyramid[k])
                assert result.change_fraction[k] == 0.0


class TestMixingMatchesReference:
    @pytest.mark.parametrize("lam_schedule", [LambdaSchedule(), LambdaSchedule("constant", 0.3)])
    def test_edited_scales(self, params, lam_schedule):
        """Every edited scale is argmax(p + ((1 - lambda) g + lambda n)),
        evaluated as written, with fresh draws under the edit purpose."""
        grid = random_grid(72)
        source_pyramid = encode(grid, params.codebook, params.schedule)
        noise_set = invert_pyramid(
            source_pyramid, condition_embed(SRC, params), 1.0, params, seed=4
        )
        cfg = EditConfig(
            source_label=SRC, target_label=TGT, start_scale=2, lambda_schedule=lam_schedule, seed=4
        )
        result = edit_with_inverse_noise(grid, cfg, params, noise_set)
        target = condition_embed(TGT, params)
        for k in range(2, params.schedule.num_scales + 1):
            logits = next_scale_logits(list(result.pyramid[: k - 1]), target, k, params)
            h, w, c = logits.shape
            u = uniform_values(
                4,
                PURPOSE_EDIT_NOISE,
                k,
                np.arange(h)[:, None, None],
                np.arange(w)[None, :, None],
                np.arange(c)[None, None, :],
            )
            lam = result.lambdas[k - 1]
            mixed = (1.0 - lam) * standard_from_uniform(u) + lam * noise_set.noises[k - 1]
            assert np.array_equal(result.pyramid[k - 1], np.argmax(logits + mixed, axis=-1))


class TestRegeneration:
    def test_no_regeneration_when_start_past_end(self, params):
        grid = random_grid(73)
        result = edit_regeneration(grid, TGT, params.schedule.num_scales + 1, params, seed=1)
        expected = decode(encode(grid, params.codebook, params.schedule), params.codebook, params.schedule)
        assert np.array_equal(result.grid, expected)

    def test_full_regeneration_ignores_source(self, params):
        """start scale 1 keeps nothing: two different sources give the
        same tokens under the same seed."""
        a = edit_regeneration(random_grid(74), TGT, 1, params, seed=5)
        b = edit_regeneration(random_grid(75), TGT, 1, params, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.pyramid, b.pyramid))

    def test_rejects_bad_start(self, params):
        with pytest.raises(ValidationError):
            edit_regeneration(random_grid(76), TGT, 0, params, seed=1)
        with pytest.raises(ValidationError):
            edit_regeneration(random_grid(76), TGT, 7, params, seed=1)


class TestMonotonePreservation:
    def test_change_fraction_non_increasing_in_lambda(self, params):
        """More inverse noise, fewer token flips (means over 32 seeds)."""
        grid, _, scene = demo_scene("scene-a", params)
        means = []
        for lam in (0.0, 0.5, 1.0):
            fracs = []
            for seed in range(32):
                cfg = EditConfig(
                    source_label=scene.source_label,
                    target_label=scene.target_label,
                    lambda_schedule=LambdaSchedule(kind="constant", value=lam),
                    seed=seed,
                )
                result = edit_with_inverse_noise(grid, cfg, params)
                total = sum(f * t.size for f, t in zip(result.change_fraction, result.pyramid))
                fracs.append(total / sum(t.size for t in result.pyramid))
            means.append(np.mean(fracs))
        assert means[0] >= means[1] >= means[2]

    def test_change_fraction_non_increasing_in_tau(self, params):
        grid, _, scene = demo_scene("scene-a", params)
        means = []
        for tau in (14.0, 18.0):
            fracs = []
            for seed in range(32):
                cfg = EditConfig(
                    source_label=scene.source_label,
                    target_label=scene.target_label,
                    tau=tau,
                    seed=seed,
                )
                result = edit_with_inverse_noise(grid, cfg, params)
                total = sum(f * t.size for f, t in zip(result.change_fraction, result.pyramid))
                fracs.append(total / sum(t.size for t in result.pyramid))
            means.append(np.mean(fracs))
        assert means[1] <= means[0]


class TestTargetOnly:
    def test_reconstruction_is_condition_independent(self, params):
        """lambda = 1, start 1: exact replay even though the inversion
        ran under the target label."""
        grid = random_grid(77)
        source_pyramid = encode(grid, params.codebook, params.schedule)
        cfg = EditConfig(
            source_label=SRC,
            target_label=TGT,
            start_scale=1,
            lambda_schedule=LambdaSchedule(kind="constant", value=1.0),
            seed=4,
        )
        result = edit_target_only(grid, cfg, params)
        assert all(np.array_equal(a, b) for a, b in zip(result.pyramid, source_pyramid))

    def test_coincides_with_main_pipeline_on_equal_labels(self, params):
        grid = random_grid(78)
        cfg = EditConfig(source_label=TGT, target_label=TGT, tau=12.0, seed=6)
        main = edit_with_inverse_noise(grid, cfg, params)
        only = edit_target_only(grid, cfg, params)
        assert all(np.array_equal(a, b) for a, b in zip(main.pyramid, only.pyramid))

    def test_lower_default_tau(self, params):
        cfg = EditConfig(source_label=SRC, target_label=TGT)
        assert cfg.resolved(5).tau == 18.0
        assert cfg.resolved(5, default_tau=12.0).tau == 12.0


class TestValidation:
    def test_bad_context_mode(self):
        with pytest.raises(ValidationError):
            EditConfig(context_mode="both")

    def test_bad_tau(self):
        with pytest.raises(ValidationError):
            EditConfig(tau=-1.0)

    def test_bad_start_scale(self, params):
        cfg = EditConfig(source_label=SRC, target_label=TGT, start_scale=9)
        with pytest.raises(ValidationError):
            edit_with_inverse_noise(random_grid(79), cfg, params)

    def test_source_prefix_mode_runs(self, params):
        grid = random_grid(80)
        cfg = EditConfig(
            source_label=SRC, target_label=TGT, seed=2, context_mode="source-prefix"
        )
        result = edit_with_inverse_noise(grid, cfg, params)
        assert [t.shape for t in result.pyramid] == list(params.schedule.resolutions)

    @pytest.mark.parametrize("edit", [edit_with_inverse_noise, edit_target_only])
    def test_noise_shape_mismatch(self, params, edit):
        """A noise set from another vocab or schedule is rejected up front."""
        grid = random_grid(81)
        noise_set = invert_pyramid(
            encode(grid, params.codebook, params.schedule),
            condition_embed(SRC, params),
            18.0,
            params,
            seed=3,
        )
        narrow = replace(noise_set, noises=tuple(n[..., :32] for n in noise_set.noises))
        shifted = replace(noise_set, noises=noise_set.noises[1:] + noise_set.noises[:1])
        cfg = EditConfig(source_label=SRC, target_label=TGT, seed=3)
        for bad in (narrow, shifted):
            with pytest.raises(ValidationError):
                edit(grid, cfg, params, bad)


def same_edit(a, b):
    return (
        all(np.array_equal(x, y) for x, y in zip(a.pyramid, b.pyramid))
        and len(a.pyramid) == len(b.pyramid)
        and np.array_equal(a.grid, b.grid)
        and np.array_equal(a.lambdas, b.lambdas, equal_nan=True)
        and a.change_fraction == b.change_fraction
        and all(np.array_equal(x, y) for x, y in zip(a.source_pyramid, b.source_pyramid))
    )


class TestEditBatch:
    """A batch gives every config the result of its single edit, bit for bit."""

    BASE = EditConfig(source_label=SRC, target_label=TGT, seed=5)
    VARIED = [
        replace(BASE, tau=20.0),
        replace(BASE, tau=14.0, start_scale=1),
        replace(BASE, tau=0.0, lambda_schedule=LambdaSchedule("constant", 0.5)),
        replace(BASE, tau=14.0, context_mode="source-prefix"),
        replace(BASE, lambda_schedule=LambdaSchedule("constant", 0.0)),
        replace(BASE, tau=20.0),
    ]

    @pytest.mark.parametrize(
        "mode,single",
        [(MODE_VARIN, edit_with_inverse_noise), (MODE_TARGET_ONLY, edit_target_only)],
    )
    def test_noise_guided_matches_single(self, params, mode, single):
        grid = demo_scene("scene-a", params)[0]
        batch = edit_batch(grid, self.VARIED, mode, params)
        assert len(batch) == len(self.VARIED)
        for cfg, got in zip(self.VARIED, batch):
            assert same_edit(got, single(grid, cfg, params))

    def test_regeneration_matches_single(self, params):
        grid = demo_scene("scene-a", params)[0]
        starts = [3, 1, None, 6, 3]
        configs = [replace(self.BASE, start_scale=s) for s in starts]
        for start, got in zip(starts, edit_batch(grid, configs, MODE_REGEN, params)):
            if start is None:
                start = default_start_scale(params.schedule.num_scales)
            assert same_edit(got, edit_regeneration(grid, TGT, start, params, self.BASE.seed))

    def test_given_noise_set_matches_single(self, params, source_cond):
        grid = random_grid(90)
        pyramid = encode(grid, params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, 0.0, params, seed=5)
        batch = edit_batch(grid, self.VARIED[:3], MODE_VARIN, params, noise_set)
        for cfg, got in zip(self.VARIED[:3], batch):
            assert same_edit(got, edit_with_inverse_noise(grid, cfg, params, noise_set))

    def test_endpoints_within_one_batch(self, params):
        """lambda = 1 from scale 1 under equal labels replays the source,
        and lambda = 0 equals regeneration, in the same batch."""
        grid = random_grid(91)
        base = EditConfig(source_label=SRC, target_label=SRC, seed=8, start_scale=1)
        replay, fresh = edit_batch(
            grid,
            [
                replace(base, lambda_schedule=LambdaSchedule("constant", 1.0)),
                replace(base, lambda_schedule=LambdaSchedule("constant", 0.0)),
            ],
            MODE_VARIN,
            params,
        )
        source = encode(grid, params.codebook, params.schedule)
        assert all(np.array_equal(a, b) for a, b in zip(replay.pyramid, source))
        regen = edit_regeneration(grid, SRC, 1, params, 8)
        assert all(np.array_equal(a, b) for a, b in zip(fresh.pyramid, regen.pyramid))

    @pytest.mark.parametrize(
        "configs,mode",
        [
            ([], MODE_VARIN),
            ([BASE, replace(BASE, seed=6)], MODE_VARIN),
            ([BASE, replace(BASE, target_label=SRC)], MODE_REGEN),
            ([BASE], "sideways"),
        ],
    )
    def test_rejects_bad_batches(self, params, configs, mode):
        with pytest.raises(ValidationError):
            edit_batch(random_grid(92), configs, mode, params)


class TestEditSeeds:
    """Each (seed, config) result of edit_seeds equals edit_batch at that
    seed, bit for bit, whatever the chunk boundaries."""

    BASE = EditConfig(source_label=SRC, target_label=TGT)
    CONFIGS = [
        replace(BASE, tau=20.0),
        replace(BASE, tau=14.0, start_scale=1),
        replace(BASE, tau=0.0, start_scale=3, lambda_schedule=LambdaSchedule("constant", 0.5)),
        replace(BASE, lambda_schedule=LambdaSchedule("constant", 0.0)),
        replace(BASE, tau=20.0),
    ]
    SEEDS = [11, 0, 2**64 - 1, 4, 7]

    def check(self, grid, configs, seeds, mode, params, noise_set=None):
        got = edit_seeds(grid, configs, seeds, mode, params, noise_set)
        assert len(got) == len(seeds)
        for seed, per_seed in zip(seeds, got):
            want = edit_batch(
                grid, [replace(c, seed=seed) for c in configs], mode, params, noise_set
            )
            assert len(per_seed) == len(configs)
            for a, b in zip(per_seed, want):
                assert same_edit(a, b)

    @pytest.mark.parametrize("num_seeds", [1, 3, 5])
    @pytest.mark.parametrize("context", [CONTEXT_GENERATED, CONTEXT_SOURCE])
    @pytest.mark.parametrize("mode", EDIT_MODES)
    def test_matches_edit_batch(self, params, mode, context, num_seeds):
        grid = demo_scene("scene-a", params)[0]
        configs = [replace(c, context_mode=context) for c in self.CONFIGS]
        self.check(grid, configs, self.SEEDS[:num_seeds], mode, params)

    @pytest.mark.parametrize("mode", EDIT_MODES)
    def test_matches_edit_batch_at_large_beta(self, codebook, schedule, mode):
        params = PredictorParams(codebook=codebook, schedule=schedule, beta=3000.0)
        configs = [replace(c, tau=18.0) for c in self.CONFIGS[:2]] + [
            replace(self.BASE, tau=14.0, start_scale=1, context_mode=CONTEXT_SOURCE)
        ]
        self.check(demo_scene("scene-b", params)[0], configs, self.SEEDS[:3], mode, params)

    def test_given_noise_set(self, params, source_cond):
        grid = random_grid(93)
        pyramid = encode(grid, params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=2)
        self.check(grid, self.CONFIGS, self.SEEDS[:3], MODE_VARIN, params, noise_set)

    def test_chunk_width(self, params):
        assert seed_chunk_width(params) == 2
        stress = PredictorParams(codebook=default_codebook(512), schedule=dyadic_schedule(7))
        assert seed_chunk_width(stress) == 1

    def test_runs_equal_one_walk(self, params):
        """Chunks of any width give the same results as one walk."""
        grid = demo_scene("scene-b", params)[0]
        sweep = SeedSweep(grid, self.CONFIGS, MODE_VARIN, params)
        whole = sweep.run(self.SEEDS)
        parts = sweep.run(self.SEEDS[:2]) + sweep.run(self.SEEDS[2:])
        for a_seed, b_seed in zip(whole, parts):
            assert all(same_edit(a, b) for a, b in zip(a_seed, b_seed))

    @pytest.mark.parametrize(
        "configs,seeds",
        [
            ([BASE], []),
            ([BASE], [-1]),
            ([BASE], [2**64]),
            ([BASE], [0.5]),
            ([BASE, replace(BASE, source_label=TGT)], [0]),
        ],
    )
    def test_rejects_bad_input(self, params, configs, seeds):
        with pytest.raises(ValidationError):
            edit_seeds(random_grid(94), configs, seeds, MODE_VARIN, params)
