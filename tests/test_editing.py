"""Editing pipelines: schedules, endpoints, prefix integrity, trends."""

import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invnoise import _blocks, config, editing, gumbel, inversion
from invnoise.codec import ScaleSchedule, decode, default_codebook, encode
from invnoise.config import load_config
from invnoise.demo import demo_scene
from invnoise.editing import (
    CONTEXT_GENERATED,
    CONTEXT_SOURCE,
    DEFAULT_TAU,
    EDIT_MODES,
    MODE_REGEN,
    MODE_TARGET_ONLY,
    MODE_VARIN,
    TARGET_ONLY_DEFAULT_TAU,
    EditConfig,
    SeedSweep,
    _plan,
    default_start_scale,
    edit_regeneration,
    edit_with_inverse_noise,
    seed_chunk_width,
)
from invnoise.errors import ValidationError
from invnoise.inversion import invert_pyramid
from invnoise.predictor import PredictorParams, condition_embed
from invnoise.rng import (
    PURPOSE_EDIT_NOISE,
    PURPOSE_LABEL_DRAW,
    PURPOSE_TRUNC_DRAW,
    normal_values,
    uniform_values,
)

from conftest import dyadic_schedule, random_grid, standard_from_uniform, walk_logits

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SRC = "red brick house among pines"
TGT = "blue glass tower among pines"


class TestLambdaSchedule:
    """The per-scale lambdas an edit's plan resolves, start scale to K."""

    def test_linear_endpoints(self):
        lambdas = _plan(EditConfig(lambda_kind="linear", start_scale=6), 14).lambdas
        assert len(lambdas) == 9 and lambdas[0] == 1.0 and lambdas[-1] == 0.0

    def test_linear_midpoint(self):
        assert _plan(EditConfig(lambda_kind="linear", start_scale=6), 14).lambdas[4] == 0.5

    def test_linear_values(self):
        """1 - (t - start) / (K - start) in float64, as computed."""
        lambdas = _plan(EditConfig(lambda_kind="linear", start_scale=2), 5).lambdas
        assert lambdas == (1.0, 0.6666666666666667, 0.33333333333333337, 0.0)

    def test_constant(self):
        cfg = EditConfig(lambda_kind="constant", lambda_value=0.25, start_scale=2)
        assert _plan(cfg, 5).lambdas == (0.25,) * 4

    def test_degenerate_single_scale(self):
        assert _plan(EditConfig(lambda_kind="linear", start_scale=5), 5).lambdas == (1.0,)

    def test_regeneration_is_lambda_zero(self):
        assert _plan(EditConfig(mode=MODE_REGEN, start_scale=3), 5).lambdas == (0.0,) * 3

    def test_bad_kinds_rejected(self):
        with pytest.raises(ValidationError):
            EditConfig(lambda_kind="cosine")
        with pytest.raises(ValidationError):
            EditConfig(lambda_kind="constant", lambda_value=1.5)

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
                    lambda_kind="constant", lambda_value=1.0,
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
                lambda_kind="constant", lambda_value=0.0,
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


class TestMixNoise:
    @pytest.mark.parametrize("block", [1 << 15, 3 * 16 * 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("noise_seeds", [3, 0], ids=["seed-axis", "broadcast"])
    def test_equals_the_whole_product(self, monkeypatch, block, dtype, noise_seeds):
        """Row block by row block of the whole scale or of 3 rows of one
        seed (ragged over 3 x 16 rows), with scratch per pass, the mix
        equals the whole-array mix with a float64 product, and leaves the
        fresh draws as they were."""
        monkeypatch.setattr(_blocks, "CHUNK", block)
        grid = (np.arange(16)[:, None, None], np.arange(16)[None, :, None], np.arange(64))
        fresh = normal_values(np.arange(3, dtype=np.uint64), 9, 1, *grid)
        noise = 30.0 * normal_values(np.arange(max(noise_seeds, 1), dtype=np.uint64), 9, 2, *grid)
        noise = (noise if noise_seeds else noise[0]).astype(dtype)
        lam = 0.3
        want = fresh * (1.0 - lam)
        want += lam * noise.astype(np.float64)
        given = fresh.copy()
        mixed = np.empty_like(fresh)

        def mix_rows(lo, hi, buf):
            rows = buf[0][: fresh[:, lo:hi].size].reshape(fresh[:, lo:hi].shape)
            editing._mix(fresh[:, lo:hi], lam, noise[..., lo:hi, :, :], mixed[:, lo:hi], rows)

        _blocks.for_row_blocks(mix_rows, 16, fresh.size)
        assert np.array_equal(mixed, want)
        assert np.array_equal(fresh, given)


class TestMixingMatchesReference:
    @pytest.mark.parametrize(
        "lam_schedule", [{}, {"lambda_kind": "constant", "lambda_value": 0.3}]
    )
    def test_edited_scales(self, params, lam_schedule):
        """Every edited scale is argmax(p + ((1 - lambda) g + lambda n)),
        evaluated as written, with fresh draws under the edit purpose."""
        grid = random_grid(72)
        source_pyramid = encode(grid, params.codebook, params.schedule)
        noise_set = invert_pyramid(
            source_pyramid, condition_embed(SRC, params), 1.0, params, seed=4
        )
        cfg = EditConfig(source_label=SRC, target_label=TGT, start_scale=2, seed=4, **lam_schedule)
        result = edit_with_inverse_noise(grid, cfg, params, noise_set)
        target = condition_embed(TGT, params)
        for k in range(2, params.schedule.num_scales + 1):
            logits = walk_logits(result.pyramid[: k - 1], target, params)
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
            noise = noise_set.noises[k - 1].astype(np.float64)  # the mix's float64 product
            mixed = (1.0 - lam) * standard_from_uniform(u) + lam * noise
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
                    lambda_kind="constant", lambda_value=lam,
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


def target_only_edit(grid, cfg, params, noise_set=None):
    """A target-only edit of one config at its seed: a one-seed
    ``SeedSweep`` run."""
    cfg = replace(cfg, mode=MODE_TARGET_ONLY)
    [[result]] = SeedSweep(grid, (cfg,), params, noise_set).run((cfg.seed,))
    return result


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
            lambda_kind="constant", lambda_value=1.0,
            seed=4,
        )
        result = target_only_edit(grid, cfg, params)
        assert all(np.array_equal(a, b) for a, b in zip(result.pyramid, source_pyramid))

    def test_coincides_with_main_pipeline_on_equal_labels(self, params):
        grid = random_grid(78)
        cfg = EditConfig(source_label=TGT, target_label=TGT, tau=12.0, seed=6)
        main = edit_with_inverse_noise(grid, cfg, params)
        only = target_only_edit(grid, cfg, params)
        assert all(np.array_equal(a, b) for a, b in zip(main.pyramid, only.pyramid))

    def test_lower_default_tau(self):
        cfg = EditConfig(source_label=SRC, target_label=TGT)
        assert _plan(cfg, 5).tau == DEFAULT_TAU == 18.0
        assert _plan(replace(cfg, mode=MODE_TARGET_ONLY), 5).tau == TARGET_ONLY_DEFAULT_TAU == 12.0
        assert _plan(replace(cfg, tau=3.0, mode=MODE_TARGET_ONLY), 5).tau == 3.0
        assert _plan(replace(cfg, mode=MODE_REGEN), 5).tau is None


class TestValidation:
    def test_bad_context_mode(self):
        with pytest.raises(ValidationError):
            EditConfig(context_mode="both")

    def test_bad_tau(self):
        with pytest.raises(ValidationError):
            EditConfig(tau=-1.0)

    @pytest.mark.parametrize(
        "setting", [{"start_scale": 0}, {"seed": -1}, {"seed": 2**64}, {"mode": "sideways"}]
    )
    def test_bad_setting(self, setting):
        with pytest.raises(ValidationError):
            EditConfig(SRC, TGT, **setting)

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

    @pytest.mark.parametrize("edit", [edit_with_inverse_noise, target_only_edit])
    def test_noise_shape_mismatch(self, params, edit):
        """A noise set from another vocab or schedule is rejected up front."""
        grid = random_grid(81)
        noise_set = invert_pyramid(
            encode(grid, params.codebook, params.schedule),
            condition_embed(TGT if edit is target_only_edit else SRC, params),
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

    @pytest.mark.parametrize(
        "edit,label", [(edit_with_inverse_noise, TGT), (target_only_edit, SRC)]
    )
    def test_noise_inverted_under_other_label(self, params, edit, label):
        """varin mixes noise inverted under the source label, target-only
        under the target label; a set inverted under the other is rejected."""
        grid = random_grid(82)
        noise_set = invert_pyramid(
            encode(grid, params.codebook, params.schedule),
            condition_embed(label, params),
            18.0,
            params,
            seed=3,
        )
        with pytest.raises(ValidationError, match="inverted under"):
            edit(grid, EditConfig(source_label=SRC, target_label=TGT, seed=3), params, noise_set)


def single_edit(grid, cfg, mode, params, noise_set=None):
    """The single-edit function of ``mode`` on one config at its seed."""
    if mode == MODE_REGEN:
        start = cfg.start_scale
        if start is None:
            start = default_start_scale(params.schedule.num_scales)
        return edit_regeneration(grid, cfg.target_label, start, params, cfg.seed)
    single = target_only_edit if mode == MODE_TARGET_ONLY else edit_with_inverse_noise
    return single(grid, cfg, params, noise_set)


def same_edit(a, b):
    return (
        all(np.array_equal(x, y) for x, y in zip(a.pyramid, b.pyramid))
        and len(a.pyramid) == len(b.pyramid)
        and np.array_equal(a.grid, b.grid)
        and np.array_equal(a.lambdas, b.lambdas, equal_nan=True)
        and a.change_fraction == b.change_fraction
    )


def with_mode(configs, mode):
    return [replace(cfg, mode=mode) for cfg in configs]


def sweep_one_seed(grid, configs, mode, params, noise_set=None, seed=5):
    """One result per config from a one-seed ``SeedSweep.run``."""
    (results,) = SeedSweep(grid, with_mode(configs, mode), params, noise_set).run((seed,))
    return results


class TestEditBatch:
    """A one-seed run of several configs gives every config the result of
    its single edit, bit for bit."""

    BASE = EditConfig(source_label=SRC, target_label=TGT, seed=5)
    VARIED = [
        replace(BASE, tau=20.0),
        replace(BASE, tau=14.0, start_scale=1),
        replace(BASE, tau=0.0, lambda_kind="constant", lambda_value=0.5),
        replace(BASE, tau=14.0, context_mode="source-prefix"),
        replace(BASE, lambda_kind="constant", lambda_value=0.0),
        replace(BASE, tau=20.0),
    ]

    @pytest.mark.parametrize(
        "mode,single",
        [(MODE_VARIN, edit_with_inverse_noise), (MODE_TARGET_ONLY, target_only_edit)],
    )
    def test_noise_guided_matches_single(self, params, mode, single):
        grid = demo_scene("scene-a", params)[0]
        batch = sweep_one_seed(grid, self.VARIED, mode, params)
        assert len(batch) == len(self.VARIED)
        for cfg, got in zip(self.VARIED, batch):
            assert same_edit(got, single(grid, cfg, params))

    def test_regeneration_matches_single(self, params):
        grid = demo_scene("scene-a", params)[0]
        starts = [3, 1, None, 6, 3]
        configs = [replace(self.BASE, start_scale=s) for s in starts]
        for start, got in zip(starts, sweep_one_seed(grid, configs, MODE_REGEN, params)):
            if start is None:
                start = default_start_scale(params.schedule.num_scales)
            assert same_edit(got, edit_regeneration(grid, TGT, start, params, self.BASE.seed))

    def test_given_noise_set_matches_single(self, params, source_cond):
        grid = random_grid(90)
        pyramid = encode(grid, params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, 0.0, params, seed=5)
        batch = sweep_one_seed(grid, self.VARIED[:3], MODE_VARIN, params, noise_set)
        for cfg, got in zip(self.VARIED[:3], batch):
            assert same_edit(got, edit_with_inverse_noise(grid, cfg, params, noise_set))

    def test_endpoints_within_one_batch(self, params):
        """lambda = 1 from scale 1 under equal labels replays the source,
        and lambda = 0 equals regeneration, in the same batch."""
        grid = random_grid(91)
        base = EditConfig(source_label=SRC, target_label=SRC, seed=8, start_scale=1)
        replay, fresh = sweep_one_seed(
            grid,
            [
                replace(base, lambda_kind="constant", lambda_value=1.0),
                replace(base, lambda_kind="constant", lambda_value=0.0),
            ],
            MODE_VARIN,
            params,
            seed=8,
        )
        source = encode(grid, params.codebook, params.schedule)
        assert all(np.array_equal(a, b) for a, b in zip(replay.pyramid, source))
        regen = edit_regeneration(grid, SRC, 1, params, 8)
        assert all(np.array_equal(a, b) for a, b in zip(fresh.pyramid, regen.pyramid))

    @pytest.mark.parametrize(
        "configs,mode",
        [
            ([], MODE_VARIN),
            ([BASE, replace(BASE, source_label=TGT)], MODE_VARIN),
            ([BASE, replace(BASE, target_label=SRC)], MODE_REGEN),
            ([BASE], "sideways"),
        ],
    )
    def test_rejects_bad_batches(self, params, configs, mode):
        with pytest.raises(ValidationError):
            SeedSweep(random_grid(92), with_mode(configs, mode), params)

    def test_rejects_mixed_modes(self, params):
        with pytest.raises(ValidationError):
            SeedSweep(random_grid(92), [self.BASE, replace(self.BASE, mode=MODE_REGEN)], params)


# SHA-256 of the grids and token pyramids of a two-seed auto-invert sweep
# at beta 3000 over four margins, as the exact truncated transform
# (np.logaddexp throughout) made them.
BETA_3000_SWEEP_DIGEST = "547e0e36cc7ff341586eaf0f5d4d5494f70c061dea6647caa0aaa3091cf05dc2"


def test_beta_3000_auto_invert_sweep_pinned(params):
    params = PredictorParams(params.codebook, params.schedule, beta=3000.0)
    base = EditConfig(source_label=SRC, target_label=TGT, start_scale=1)
    configs = [
        replace(base, tau=0.0),
        replace(base, tau=1e-6, lambda_kind="constant", lambda_value=0.75),
        replace(base, tau=14.0, context_mode=CONTEXT_SOURCE),
        replace(base, tau=18.0, start_scale=2),
    ]
    sha = hashlib.sha256()
    for per_seed in SeedSweep(random_grid(71), configs, params).run((0, 3)):
        for result in per_seed:
            sha.update(result.grid.tobytes())
            for tokens in result.pyramid:
                sha.update(np.ascontiguousarray(tokens, dtype=np.int32).tobytes())
    assert sha.hexdigest() == BETA_3000_SWEEP_DIGEST


class TestEditSeeds:
    """Each (seed, config) result of a run over several seeds equals the
    single edit of that config at that seed, bit for bit, whatever the
    chunk boundaries."""

    BASE = EditConfig(source_label=SRC, target_label=TGT)
    CONFIGS = [
        replace(BASE, tau=20.0),
        replace(BASE, tau=14.0, start_scale=1),
        replace(BASE, tau=0.0, start_scale=3, lambda_kind="constant", lambda_value=0.5),
        replace(BASE, lambda_kind="constant", lambda_value=0.0),
        replace(BASE, tau=20.0),
    ]
    SEEDS = [11, 0, 2**64 - 1, 4, 7]

    def check(self, grid, configs, seeds, mode, params, noise_set=None):
        got = SeedSweep(grid, with_mode(configs, mode), params, noise_set).run(seeds)
        assert len(got) == len(seeds)
        for seed, per_seed in zip(seeds, got):
            assert len(per_seed) == len(configs)
            for cfg, a in zip(configs, per_seed):
                assert same_edit(a, single_edit(grid, replace(cfg, seed=seed), mode, params, noise_set))

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
        assert seed_chunk_width(params) == 8
        stress = PredictorParams(codebook=default_codebook(512), schedule=dyadic_schedule(7))
        assert seed_chunk_width(stress) == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), h=st.integers(1, 2**13), w=st.integers(1, 2**13))
    def test_chunk_within_the_entry_limit(self, data, h, w):
        """For every schedule and vocab size that ``build_params`` accepts,
        the finest (h, w, C) arrays of a seed chunk hold at most
        ``config.ENTRY_LIMIT`` entries: a chunk of more than one seed
        holds at most ``SEED_CELL_BUDGET`` cells, and one seed's scale
        passed the entry check.  Sizes only: nothing is allocated."""
        vocab = data.draw(st.integers(2, max(2, 2 * config.ENTRY_LIMIT // (h * w))))
        codec = config.CodecSection(vocab=vocab, schedule=((1, 1), (h, w)))
        try:
            config._check_entries(codec)
        except ValidationError:
            assume(False)
        params = SimpleNamespace(schedule=ScaleSchedule(codec.schedule),
                                 codebook=SimpleNamespace(size=vocab))
        assert seed_chunk_width(params) * h * w * vocab <= config.ENTRY_LIMIT

    def test_peak_memory_of_eight_seeds(self):
        """One walk of the demo.ini sweep over a chunk of 8 seeds holds less
        than 3 of its finest (8, 16, 16, 64) arrays at peak (2.4 measured):
        the block logits of its four edits and one row block's scratch,
        in which each row block is drawn, inverted, mixed and reduced to
        its argmax."""
        cfg = load_config(CONFIGS / "demo.ini")
        params = cfg.build_params()
        sweep = SeedSweep(demo_scene("scene-a", params)[0], cfg.sweep_configs, params)
        seeds = cfg.sweep.seeds[:8]
        assert seed_chunk_width(params) == len(seeds)
        tracemalloc.start()
        try:
            sweep.run(seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        h, w = params.schedule.finest
        assert peak < 3 * len(seeds) * h * w * params.codebook.size * 8

    def test_stress_peak_memory_with_a_given_set(self):
        """A stress-scale (64x64, vocab 512, 7 scales) varin walk of
        scene-a with a given noise set traces under 10 MiB above the set
        and the logits it holds (5.8 MiB measured; 21.2 MiB with a
        whole fresh field): the edit's finest block logits (4 MiB) and
        one row block's scratch, with no full-size float64 array
        (16 MiB)."""
        params = PredictorParams(default_codebook(512), dyadic_schedule(7))
        grid, _, record = demo_scene("scene-a", params)
        pyramid = encode(grid, params.codebook, params.schedule)
        noise_set = invert_pyramid(
            pyramid, condition_embed(record.source_label, params), 18.0, params, seed=0
        )
        sweep = SeedSweep(grid, (EditConfig(record.source_label, record.target_label),),
                          params, noise_set)
        tracemalloc.start()
        try:
            sweep.run((0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_stress_peak_memory_auto_invert(self):
        """The same walk inverting as it goes traces under 12 MiB,
        construction included (7.4 MiB measured; 22.9 MiB with a
        whole fresh field): the inversion makes each row block's noise in
        scratch, so no full-size float64 array (16 MiB) is made."""
        params = PredictorParams(default_codebook(512), dyadic_schedule(7))
        grid, _, record = demo_scene("scene-a", params)
        cfg = EditConfig(record.source_label, record.target_label)
        tracemalloc.start()
        try:
            SeedSweep(grid, (cfg,), params).run((0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_source_prefix_holds_block_logits(self):
        """A stress-scale (64x64, vocab 512, 7 scales) source-prefix edit
        of scene-a holds its logits as block logits: under 8 MB of them
        after construction (the full logits would take 26.6 MiB), and
        construction plus one seed's walk trace under 32 MiB."""
        params = PredictorParams(default_codebook(512), dyadic_schedule(7))
        grid, _, record = demo_scene("scene-a", params)
        cfg = EditConfig(record.source_label, record.target_label, context_mode=CONTEXT_SOURCE)
        tracemalloc.start()
        try:
            sweep = SeedSweep(grid, (cfg,), params)
            held = {id(logits): logits.nbytes for logits, _ in
                    [*sweep._prefix_logits.values(), *sweep._inversion_logits.values()]}
            sweep.run((0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(held.values()) <= 8 * 10**6
        assert peak <= 32 * 2**20

    def test_runs_equal_one_walk(self, params):
        """Chunks of any width give the same results as one walk."""
        grid = demo_scene("scene-b", params)[0]
        sweep = SeedSweep(grid, self.CONFIGS, params)
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
            SeedSweep(random_grid(94), configs, params).run(seeds)


def reference_edit(grid, cfg, mode, params, seed):
    """One edit as the paper writes it: invert every scale of the source
    with ``invert_pyramid`` (under the target condition in target-only
    mode, and under the source condition for regeneration, which then
    mixes it in at lambda 0), and sample every edited scale from
    argmax(p + ((1 - lambda) g + lambda n)), lambda 0 included."""
    num_scales = params.schedule.num_scales
    source = encode(grid, params.codebook, params.schedule)
    tau = cfg.tau
    if tau is None:
        tau = TARGET_ONLY_DEFAULT_TAU if mode == MODE_TARGET_ONLY else DEFAULT_TAU
    inverted_under = TGT if mode == MODE_TARGET_ONLY else SRC
    noises = invert_pyramid(
        source, condition_embed(inverted_under, params), tau, params, seed
    ).noises
    target = condition_embed(TGT, params)
    pyramid = list(source[: cfg.start_scale - 1])
    for t in range(cfg.start_scale, num_scales + 1):
        lam = 0.0
        if mode != MODE_REGEN and cfg.lambda_kind == "constant":
            lam = cfg.lambda_value
        elif mode != MODE_REGEN:  # linear: 1 at the start scale down to 0 at the last
            span = num_scales - cfg.start_scale
            lam = 1.0 - (t - cfg.start_scale) / span if span else 1.0
        prefix = source if cfg.context_mode == CONTEXT_SOURCE else pyramid
        logits = walk_logits(prefix[: t - 1], target, params)
        h, w, c = logits.shape
        u = uniform_values(
            seed,
            PURPOSE_EDIT_NOISE,
            t,
            np.arange(h)[:, None, None],
            np.arange(w)[None, :, None],
            np.arange(c)[None, None, :],
        )
        mixed = (1.0 - lam) * standard_from_uniform(u) + lam * noises[t - 1]
        pyramid.append(np.argmax(logits + mixed, axis=-1))
    return pyramid, decode(pyramid, params.codebook, params.schedule)


SCHEDULES = st.one_of(
    st.just({}),
    st.sampled_from([0.0, 1.0]).map(lambda v: {"lambda_kind": "constant", "lambda_value": v}),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
        lambda v: {"lambda_kind": "constant", "lambda_value": v}
    ),
)


class TestLambdaZeroTakesNoNoise:
    """An edit takes no inverse noise at a scale where its lambda is 0."""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(EDIT_MODES),
        beta=st.sampled_from([4.0, 3000.0]),
        scene=st.sampled_from(["scene-a", "scene-b"]),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
        edits=st.lists(
            st.tuples(
                st.integers(1, 5),
                SCHEDULES,
                st.sampled_from([None, 14.0, 18.0]),
                st.sampled_from([CONTEXT_GENERATED, CONTEXT_SOURCE]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_invert_every_scale_reference(
        self, codebook, schedule, mode, beta, scene, seeds, edits
    ):
        params = PredictorParams(codebook=codebook, schedule=schedule, beta=beta)
        grid = demo_scene(scene, params)[0]
        configs = [
            EditConfig(
                source_label=SRC,
                target_label=TGT,
                start_scale=start,
                tau=tau,
                context_mode=context,
                mode=mode,
                **lam,
            )
            for start, lam, tau, context in edits
        ]
        if mode == MODE_REGEN:  # regeneration has one context
            configs = [replace(c, context_mode=CONTEXT_GENERATED) for c in configs]
        for seed, per_seed in zip(seeds, SeedSweep(grid, configs, params).run(seeds)):
            for cfg, got in zip(configs, per_seed):
                pyramid, decoded = reference_edit(grid, cfg, mode, params, seed)
                assert all(np.array_equal(a, b) for a, b in zip(got.pyramid, pyramid))
                assert np.array_equal(got.grid, decoded)

    @staticmethod
    def count_inversion_draws(monkeypatch):
        """Seeds drawn per purpose: the label draws of the inversion, and
        its off-label draws (``gumbel.standard_rows``), which these desk
        scales draw in one row block each."""
        counts = {PURPOSE_LABEL_DRAW: 0, PURPOSE_TRUNC_DRAW: 0}
        uniforms = inversion.uniform_values

        def counted(seed, purpose, *rest):
            if purpose in counts:
                counts[purpose] += np.size(seed)
            return uniforms(seed, purpose, *rest)

        monkeypatch.setattr(inversion, "uniform_values", counted)
        monkeypatch.setattr(gumbel, "uniform_values", counted)
        return counts

    @pytest.mark.parametrize("mode", [MODE_VARIN, MODE_TARGET_ONLY])
    def test_constant_zero_draws_no_inversion_uniforms(self, params, monkeypatch, mode):
        counts = self.count_inversion_draws(monkeypatch)
        grid = demo_scene("scene-a", params)[0]
        configs = [
            EditConfig(
                SRC, TGT, start_scale=start, tau=tau, lambda_kind="constant", lambda_value=0.0,
                context_mode=ctx,
            )
            for start, tau, ctx in [(1, 18.0, CONTEXT_GENERATED), (3, 0.0, CONTEXT_SOURCE)]
        ]
        SeedSweep(grid, with_mode(configs, mode), params).run([0, 1, 2])
        assert counts == {PURPOSE_LABEL_DRAW: 0, PURPOSE_TRUNC_DRAW: 0}
        edit_with_inverse_noise(grid, configs[0], params)
        assert counts == {PURPOSE_LABEL_DRAW: 0, PURPOSE_TRUNC_DRAW: 0}

    def test_linear_inverts_only_nonzero_scales(self, params, monkeypatch):
        """Linear lambda from scale 2 of 5 is 0 at scale 5 only."""
        counts = self.count_inversion_draws(monkeypatch)
        grid = demo_scene("scene-a", params)[0]
        SeedSweep(grid, [EditConfig(SRC, TGT, start_scale=2)], params).run([0, 1, 2])
        assert counts == {PURPOSE_LABEL_DRAW: 3 * 3, PURPOSE_TRUNC_DRAW: 3 * 3}

    @pytest.mark.parametrize("lam", [{}, {"lambda_kind": "constant", "lambda_value": 0.0}])
    def test_given_set_lambda_zero_maps_not_mixed(self, params, source_cond, lam):
        """Another finite map where lambda is 0 leaves the edit unchanged;
        a map of the wrong shape is still rejected."""
        grid = random_grid(95)
        pyramid = encode(grid, params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=6)
        cfg = EditConfig(SRC, TGT, start_scale=2, seed=6, **lam)
        want = edit_with_inverse_noise(grid, cfg, params, noise_set)
        zero_scales = [t for t in range(2, 6) if want.lambdas[t - 1] == 0.0]
        assert zero_scales == ([5] if cfg.lambda_kind == "linear" else [2, 3, 4, 5])
        noises = list(noise_set.noises)
        for t in zero_scales:
            noises[t - 1] = -1e30 * np.ones_like(noises[t - 1])
        swapped = replace(noise_set, noises=tuple(noises))
        assert same_edit(edit_with_inverse_noise(grid, cfg, params, swapped), want)
        noises[4] = noises[4][..., :32]
        with pytest.raises(ValidationError):
            edit_with_inverse_noise(grid, cfg, params, replace(noise_set, noises=tuple(noises)))



class TestLambdaOneDrawsNoFreshNoise:
    """A scale where every edit has lambda 1 draws no fresh Gumbel field:
    the mix is the inverse noise there, in value."""

    @staticmethod
    def count_fresh_draws(monkeypatch):
        """The scale of each fresh-noise row block drawn."""
        scales = []
        rows = editing.standard_rows

        def counted(seed, purpose, scale, *rest):
            if purpose == PURPOSE_EDIT_NOISE:
                scales.append(scale)
            return rows(seed, purpose, scale, *rest)

        monkeypatch.setattr(editing, "standard_rows", counted)
        return scales

    @pytest.mark.parametrize("given", [False, True], ids=["auto-invert", "given-set"])
    @pytest.mark.parametrize(
        "lam, drawn",
        [({"lambda_kind": "constant", "lambda_value": 1.0}, set()), ({}, {3, 4, 5})],
        ids=["constant-1", "linear"],
    )
    def test_lambda_one_scales_draw_nothing(self, params, source_cond, monkeypatch, given,
                                            lam, drawn):
        """A constant-1 edit from scale 2 of 5 draws at no scale, and a
        linear one (1 at its start scale 2) at every later scale; both
        equal the paper's mix."""
        grid = demo_scene("scene-a", params)[0]
        cfg = EditConfig(SRC, TGT, start_scale=2, **lam)
        noise_set = None
        if given:
            pyramid = encode(grid, params.codebook, params.schedule)
            noise_set = invert_pyramid(pyramid, source_cond, DEFAULT_TAU, params, seed=4)
        scales = self.count_fresh_draws(monkeypatch)
        [[got]] = SeedSweep(grid, [cfg], params, noise_set).run([4])
        assert set(scales) == drawn
        pyramid, decoded = reference_edit(grid, cfg, MODE_VARIN, params, 4)
        assert all(np.array_equal(a, b) for a, b in zip(got.pyramid, pyramid))
        assert np.array_equal(got.grid, decoded)

    def test_any_other_lambda_draws(self, params, monkeypatch):
        """A batch draws at a scale where one edit's lambda is not 1."""
        scales = self.count_fresh_draws(monkeypatch)
        grid = demo_scene("scene-a", params)[0]
        one = EditConfig(SRC, TGT, start_scale=2, lambda_kind="constant", lambda_value=1.0)
        SeedSweep(grid, [one, replace(one, lambda_value=0.5)], params).run([0, 1])
        assert set(scales) == {2, 3, 4, 5}
