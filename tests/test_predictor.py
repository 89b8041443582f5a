"""Next-scale predictor: determinism, conditioning, sampling laws."""

import tracemalloc

import numpy as np
import pytest

from invnoise import _blocks, predictor
from invnoise.codec import (
    ScaleSchedule,
    decode,
    default_codebook,
    downsample_blockmean,
    dyadic_schedule,
    embed_tokens,
    upsample_replicate,
)
from invnoise.editing import EditConfig, edit_with_inverse_noise
from invnoise.errors import ValidationError
from invnoise.gumbel import ks_statistic
from invnoise.inversion import invert_pyramid, reconstruct_from_noise
from invnoise.predictor import (
    PredictorParams,
    ScaleStepper,
    condition_embed,
    generate,
    mixing_matrix,
)
from invnoise.rng import PURPOSE_GENERATION, normal_values

from conftest import next_scale_logits, sample_token_map, walk_logits

# Frozen once on the default seed: the two bundled labels must stay
# clearly separated and pick different scale-1 tokens.
GOLDEN_LABEL_A = "red brick house among pines"
GOLDEN_LABEL_B = "blue glass tower among pines"
GOLDEN_COSINE = -0.3700415456363108
GOLDEN_ARGMAX_A = 58
GOLDEN_ARGMAX_B = 43


class TestConditionEmbed:
    def test_deterministic(self, params):
        a = condition_embed(GOLDEN_LABEL_A, params)
        b = condition_embed(GOLDEN_LABEL_A, params)
        assert np.array_equal(a.embedding, b.embedding)

    def test_unit_norm(self, params):
        for label in (GOLDEN_LABEL_A, GOLDEN_LABEL_B, "", "x"):
            emb = condition_embed(label, params).embedding
            assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_labels_separate(self, params):
        a = condition_embed(GOLDEN_LABEL_A, params)
        b = condition_embed(GOLDEN_LABEL_B, params)
        cosine = float(a.embedding @ b.embedding)
        assert cosine < 0.99
        assert cosine == pytest.approx(GOLDEN_COSINE, abs=1e-12)


class TestNextScaleLogits:
    def test_bitwise_deterministic(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=1)
        a = walk_logits(pyramid[:2], source_cond, params)
        b = walk_logits(pyramid[:2], source_cond, params)
        assert np.array_equal(a, b)

    def test_base_case_shape_and_condition_only(self, params, source_cond, target_cond):
        a = walk_logits([], source_cond, params)
        assert a.shape == (1, 1, params.codebook.size)
        b = walk_logits([], target_cond, params)
        assert int(a.argmax()) == GOLDEN_ARGMAX_A
        assert int(b.argmax()) == GOLDEN_ARGMAX_B

    def test_autoregressive_purity(self, params, source_cond):
        """Perturbing any scale >= k leaves the scale-k logits unchanged."""
        pyramid = generate(source_cond, params, seed=2)
        base = walk_logits(pyramid[:2], source_cond, params)
        perturbed = [t.copy() for t in pyramid]
        for k in (2, 3, 4):  # zero-based scales 3..5
            perturbed[k] = (perturbed[k] + 1) % params.codebook.size
        again = walk_logits(perturbed[:2], source_cond, params)
        assert np.array_equal(base, again)

    def test_all_finite(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=3)
        for k in range(1, params.schedule.num_scales + 1):
            logits = walk_logits(pyramid[: k - 1], source_cond, params)
            assert np.all(np.isfinite(logits))


def reference_partial_decode(prefix, params):
    """The decode of the leading scales, re-summed from zeros at each scale."""
    finest = params.schedule.finest
    out = np.zeros((params.codebook.dim, *finest))
    for tokens in prefix:
        out += upsample_replicate(embed_tokens(tokens, params.codebook), finest)
    return out


def reference_logits(prefix, cond, k, params):
    """Next-scale logits as first written: a full prefix decode per scale
    and -beta times a 4-D einsum."""
    h, w = params.schedule.resolutions[k - 1]
    target = params.cond_gain * (mixing_matrix(params) @ cond.embedding)
    context = np.broadcast_to(target[:, None, None], (params.codebook.dim, h, w)).copy()
    if prefix:
        context -= downsample_blockmean(reference_partial_decode(prefix, params), (h, w))
    cells = np.moveaxis(context, 0, -1)
    diffs = cells[:, :, None, :] - params.codebook.vectors[None, None, :, :]
    return -params.beta * np.einsum("hwcd,hwcd->hwc", diffs, diffs)


class TestLogitsMatchReference:
    """Row-major logits are bit-identical to the einsum reference."""

    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    def test_every_scale(self, params, source_cond, beta):
        """Both a fresh walk per scale and one stepper pushed scale by scale."""
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        pyramid = generate(source_cond, params, seed=8)
        stepper = ScaleStepper(source_cond, params)
        for k in range(1, params.schedule.num_scales + 1):
            want = reference_logits(pyramid[: k - 1], source_cond, k, params)
            got = walk_logits(pyramid[: k - 1], source_cond, params)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert stepper.scale == k
            assert np.array_equal(next_scale_logits(stepper), want)
            stepper.push(pyramid[k - 1])

    def test_rectangular_rows(self, codebook, source_cond):
        """1xw and hx1 scales, where the grid is a single row or column."""
        schedule = ScaleSchedule(((1, 1), (1, 4), (2, 4), (2, 8)))
        params = PredictorParams(codebook, schedule, beta=50.0)
        pyramid = generate(source_cond, params, seed=2)
        for k in range(1, schedule.num_scales + 1):
            got = walk_logits(pyramid[: k - 1], source_cond, params)
            assert got.flags.c_contiguous
            assert np.array_equal(got, reference_logits(pyramid[: k - 1], source_cond, k, params))

    @pytest.mark.parametrize(
        "resolutions",
        [
            ((1, 1), (2, 2), (3, 3), (6, 6)),  # the prefix grid does not divide 3x3
            ((1, 1), (2, 2), (5, 5), (10, 10)),  # nor 5x5
            ((1, 1), (3, 2), (6, 4), (12, 12)),  # blocks of 2x2, then 2x3
            ((1, 1), (1, 1), (2, 2)),  # a repeated resolution
            ((2, 2), (4, 4), (8, 8)),  # a first scale of 2x2
        ],
    )
    def test_schedules_with_and_without_prefix_blocks(self, codebook, source_cond, resolutions):
        params = PredictorParams(codebook, ScaleSchedule(resolutions), beta=50.0)
        pyramid = generate(source_cond, params, seed=5)
        for k in range(1, len(resolutions) + 1):
            got = walk_logits(pyramid[: k - 1], source_cond, params)
            assert got.flags.c_contiguous
            assert np.array_equal(got, reference_logits(pyramid[: k - 1], source_cond, k, params))

    def test_seed_axis(self, codebook, source_cond):
        """A stepper pushed stacks of three maps from the first scale gives
        each walk the reference logits of its own prefix."""
        params = PredictorParams(codebook, ScaleSchedule(((1, 1), (3, 2), (6, 4), (12, 12))))
        pyramids = [generate(source_cond, params, seed=s) for s in (1, 2, 3)]
        stepper = ScaleStepper(source_cond, params)
        for k in range(1, params.schedule.num_scales + 1):
            logits = next_scale_logits(stepper)
            if k > 1:
                assert logits.flags.c_contiguous
                for pyramid, got in zip(pyramids, logits, strict=True):
                    want = reference_logits(pyramid[: k - 1], source_cond, k, params)
                    assert np.array_equal(got, want)
            stepper.push(np.stack([p[k - 1] for p in pyramids]))


class TestPrefixBlocks:
    """Each scale's distances are computed once per block of the grid its
    prefix fixes, into one block logits array."""

    def test_cells_computed_per_scale(self, params, source_cond, monkeypatch):
        """At 1x1, 2x2, 4x4, 8x8, 16x16 the 2x2 scale follows a constant
        canvas and keeps all 4 cells; each later scale computes one cell
        per block of the previous scale's grid."""
        cells = []
        original = predictor.squared_distances

        def counted(grid, vectors):
            cells.append(int(np.prod(grid.shape[:-1])))
            return original(grid, vectors)

        monkeypatch.setattr(predictor, "squared_distances", counted)
        generate(source_cond, params, seed=1)
        assert cells == [1, 4, 4, 16, 64]

    def test_peak_memory_of_finest_logits(self, source_cond):
        """The block logits of one 64x64, vocab-512 scale (block factor 2,
        a quarter of its full logits) allocate less than 1.5 times their
        output at peak."""
        schedule = dyadic_schedule(7)
        params = PredictorParams(default_codebook(size=512), schedule)
        stepper = ScaleStepper(source_cond, params)
        for h, w in schedule.resolutions[:-1]:
            stepper.push(np.arange(h * w, dtype=np.int32).reshape(h, w) % 512)
        tracemalloc.start()
        try:
            logits, factors = stepper.block_logits()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.shape == (32, 32, 512) and factors == (2, 2)
        assert peak < 1.5 * logits.nbytes


@pytest.mark.parametrize("threads", [1, 2])
def test_generate_peak_memory(monkeypatch, source_cond, threads):
    """Generating a 64x64, vocab-512, 7-scale pyramid traces under 8 MiB
    on one thread or two (5.3 and 6.4 MiB measured; 21.2 MiB with a
    whole Gumbel field per scale): the finest block logits (4 MiB) and a
    row block's draws and sums per thread, with no full-size float64
    array (16 MiB)."""
    monkeypatch.setattr(_blocks, "THREADS", threads)
    params = PredictorParams(default_codebook(size=512), dyadic_schedule(7))
    cond = condition_embed(source_cond.label, params)
    tracemalloc.start()
    try:
        generate(cond, params, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class TestNextScaleTokens:
    """``next_scale_tokens(x)`` is ``argmax(next_scale_logits(stepper) + x)``
    bit for bit, taken one row block at a time, and leaves ``x``
    unmodified."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("block", [1 << 15, 3 * 64 * 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stepper_seeds,mix_seeds", [(0, 0), (3, 3), (0, 3)],
                             ids=["one-walk", "seed-axis", "broadcast"])
    def test_equals_argmax_of_the_sum(self, params, source_cond, monkeypatch, threads,
                                      block, dtype, stepper_seeds, mix_seeds):
        """At 1x1, 2x2, 4x4, 8x8 and 16x16 the first two scales have block
        factor 1 and the rest factor 2.  Row blocks of the whole scale, or
        of 3 rows of 2x2 blocks (of cells of one walk; one of 3 walks),
        which 2, 4 and 8 block rows leave ragged, on one thread or two at
        any size."""
        assert predictor._block_factors(params.schedule) == ((1, 1),) * 2 + ((2, 2),) * 3
        monkeypatch.setattr(_blocks, "CHUNK", block)
        monkeypatch.setattr(_blocks, "THREADS", threads)
        monkeypatch.setattr(_blocks, "MIN_ENTRIES", 0)
        pyramids = [generate(source_cond, params, seed=s) for s in range(max(stepper_seeds, 1))]
        stepper = ScaleStepper(source_cond, params)
        lead = (mix_seeds,) if mix_seeds else ()
        for k, (h, w) in enumerate(params.schedule.resolutions, start=1):
            # scaled so that the sums, not the logits alone, pick the tokens
            x = 50.0 * normal_values(3, 9, k, np.arange(h)[:, None, None],
                                     np.arange(w)[None, :, None], np.arange(params.codebook.size))
            x = np.broadcast_to(x, (*lead, h, w, params.codebook.size)).astype(dtype)
            given = x.copy()
            want = np.argmax(next_scale_logits(stepper) + x, axis=-1)
            got = stepper.next_scale_tokens(x)
            assert got.dtype == np.int32
            assert np.array_equal(got, want)
            assert np.array_equal(x, given)
            maps = [p[k - 1] for p in pyramids]
            stepper.push(np.stack(maps) if stepper_seeds else maps[0])

    def test_accepts_a_strided_array(self, params, source_cond):
        """Row blocks of a strided x read it where it lies."""
        stepper = ScaleStepper(source_cond, params)
        for tokens in generate(source_cond, params, seed=1)[:2]:
            stepper.push(tokens)
        c = params.codebook.size
        wide = 50.0 * normal_values(2, 9, 3, np.arange(4)[:, None, None],
                                    np.arange(4)[None, :, None], np.arange(2 * c))
        strided = wide[..., ::2]
        want = np.argmax(next_scale_logits(stepper) + strided, axis=-1)
        assert np.array_equal(stepper.next_scale_tokens(strided), want)

    @pytest.mark.parametrize("seeds", [0, 2], ids=["one-walk", "seed-axis"])
    def test_peak_memory(self, source_cond, seeds):
        """The tokens of one 64x64, vocab-512 scale (block factor 2) from a
        float32 x allocate less than 0.75 of x at peak, the block logits
        (a quarter of the float64 logits, 0.5 of x) included: no full
        logits array and no float64 copy of x."""
        schedule = dyadic_schedule(7)
        params = PredictorParams(default_codebook(size=512), schedule)
        stepper = ScaleStepper(source_cond, params)
        lead = (seeds,) if seeds else ()
        for h, w in schedule.resolutions[:-1]:
            tokens = np.arange(h * w, dtype=np.int32).reshape(h, w) % 512
            stepper.push(np.broadcast_to(tokens, (*lead, h, w)))
        x = np.zeros((*lead, 64, 64, 512), dtype=np.float32)
        tracemalloc.start()
        try:
            stepper.next_scale_tokens(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * x.nbytes


class TestStepperReuse:
    """Every scale loop builds its condition's feature target once."""

    def test_mixing_matrix_once_per_loop(self, params, source_cond, monkeypatch):
        calls = []
        original = predictor.mixing_matrix

        def counted(p):
            calls.append(1)
            return original(p)

        monkeypatch.setattr(predictor, "mixing_matrix", counted)
        pyramid = generate(source_cond, params, seed=3)
        assert len(calls) == 1
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=3)
        assert len(calls) == 2
        reconstruct_from_noise(noise_set, source_cond, params)
        assert len(calls) == 3
        edit_with_inverse_noise(
            np.zeros((params.codebook.dim, *params.schedule.finest)),
            EditConfig(source_label=source_cond.label, target_label="b"),
            params,
            noise_set,
        )
        assert len(calls) == 4


class TestLogitRange:
    """A stepper rejects params whose logits could overflow when it is
    built, so no scale checks its logits; the params it accepts give
    finite logits for any prefix."""

    @pytest.mark.parametrize("beta,cond_gain", [(1e308, 0.5), (4.0, 1e300), (1e200, -1e200)])
    def test_overflowing_params_rejected(self, codebook, schedule, source_cond, beta, cond_gain):
        params = PredictorParams(codebook, schedule, beta=beta, cond_gain=cond_gain)
        for build in (
            lambda: ScaleStepper(source_cond, params),
            lambda: generate(source_cond, params, seed=0),
        ):
            with pytest.raises(ValidationError):
                build()

    def test_largest_accepted_beta_gives_finite_logits(self, codebook, schedule, source_cond):
        """At the largest power of ten accepted, prefixes that push the
        context of each channel as far from the target as the codebook
        allows still give finite logits."""
        accepted = []
        for exponent in range(309):
            params = PredictorParams(codebook, schedule, beta=10.0**exponent, cond_gain=50.0)
            try:
                ScaleStepper(source_cond, params)
            except ValidationError:
                break
            accepted.append(params)
        assert 0 < len(accepted) < 309
        params = accepted[-1]
        target = params.cond_gain * (mixing_matrix(params) @ source_cond.embedding)
        for j, sign in enumerate(np.sign(target)):
            token = int(np.argmax(-sign * codebook.vectors[:, j]))
            stepper = ScaleStepper(source_cond, params)
            for h, w in schedule.resolutions:
                logits = next_scale_logits(stepper)
                assert np.all(np.isfinite(logits))
                stepper.push(np.full((h, w), token, dtype=np.int32))


class TestSeedAxis:
    """Pushing a stack of S token maps turns one stepper into S walks that
    share the prefix pushed before, each equal to its own single walk."""

    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    def test_stacked_pushes_equal_single_walks(self, params, source_cond, beta):
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        pyramids = [generate(source_cond, params, seed=s) for s in (1, 2, 3)]
        shared = pyramids[0][:2]
        walks = [[*shared, *p[2:]] for p in pyramids]
        stacked = ScaleStepper(source_cond, params)
        singles = [ScaleStepper(source_cond, params) for _ in walks]
        for k in range(params.schedule.num_scales):
            logits = next_scale_logits(stacked)
            for i, single in enumerate(singles):
                want = next_scale_logits(single)
                assert np.array_equal(logits[i] if k > 2 else logits, want)
                single.push(walks[i][k])
            stacked.push(shared[k] if k < 2 else np.stack([w[k] for w in walks]))
        for i, walk in enumerate(walks):
            assert np.array_equal(stacked.canvas[i], decode(walk, params.codebook, params.schedule))

    def test_fork_leaves_the_original_alone(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=4)
        stepper = ScaleStepper(source_cond, params)
        stepper.push(pyramid[0])
        before = stepper.canvas.copy()
        fork = stepper.fork()
        fork.push(np.stack([pyramid[1], pyramid[1]]))
        assert fork.scale == 3 and stepper.scale == 2
        assert np.array_equal(stepper.canvas, before)


class TestGenerate:
    def test_deterministic(self, params, source_cond):
        a = generate(source_cond, params, seed=5)
        b = generate(source_cond, params, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invariants_over_seeds(self, params, source_cond):
        for seed in range(100):
            pyramid = generate(source_cond, params, seed=seed)
            assert [t.shape for t in pyramid] == list(params.schedule.resolutions)
            for t in pyramid:
                assert t.min() >= 0 and t.max() < params.codebook.size

    def test_scale1_histogram_matches_softmax(self, params, source_cond):
        """Scale-1 token frequencies track softmax of the scale-1 logits.

        2000 keyed draws keep the discrete KS comparison well below the
        0.05 tolerance (the toy scale-1 distribution is flat enough that
        far smaller samples would be dominated by binomial noise).
        """
        logits = walk_logits([], source_cond, params)
        tokens = np.array(
            [
                sample_token_map(logits, seed, PURPOSE_GENERATION, 1)[0, 0]
                for seed in range(2000)
            ]
        )
        probs = np.exp(logits[0, 0] - logits[0, 0].max())
        probs /= probs.sum()
        empirical = np.bincount(tokens, minlength=params.codebook.size) / tokens.size
        ks = np.abs(np.cumsum(probs) - np.cumsum(empirical)).max()
        assert ks <= 0.05

    def test_scale1_sampler_is_generate(self, params, source_cond):
        logits = walk_logits([], source_cond, params)
        for seed in (0, 7, 23):
            direct = sample_token_map(logits, seed, PURPOSE_GENERATION, 1)
            assert np.array_equal(direct, generate(source_cond, params, seed=seed)[0])

    def test_entropy_neither_flat_nor_peaked(self, params, source_cond):
        """Sampling distributions sit well inside (0, log C)."""
        log_c = np.log(params.codebook.size)
        pyramid = generate(source_cond, params, seed=6)
        for k in range(1, params.schedule.num_scales + 1):
            logits = walk_logits(pyramid[: k - 1], source_cond, params)
            flat = logits.reshape(-1, logits.shape[-1])
            probs = np.exp(flat - flat.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            entropy = -(probs * np.log(np.maximum(probs, 1e-300))).sum(axis=1).mean()
            assert 0.1 * log_c < entropy < 0.95 * log_c

    def test_self_consistency_label_noise(self, params, source_cond):
        """Inverting self-generated pyramids at tau = 0 under the same
        condition leaves label-position noise indistinguishable from
        standard Gumbel."""
        label_noise = []
        for seed in range(5):
            pyramid = generate(source_cond, params, seed=seed)
            noise_set = invert_pyramid(pyramid, source_cond, 0.0, params, seed=seed + 500)
            for tokens, noise in zip(pyramid, noise_set.noises):
                h, w = tokens.shape
                rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
                label_noise.append(noise[rows, cols, tokens].ravel())
        ks = ks_statistic(np.concatenate(label_noise), "gumbel")
        assert ks <= 0.05
