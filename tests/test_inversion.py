"""Argmax pseudo-inverses: exact reconstruction, margins, noise laws."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from invnoise import _blocks, inversion
from invnoise.codec import default_codebook, encode
from invnoise.demo import demo_scene
from invnoise.errors import InvariantError, ValidationError
from invnoise.gumbel import (
    ks_statistic,
    located_from_uniform,
    standard_rows,
    truncated_from_loglog,
)
from invnoise.inversion import (
    KIND_LAI,
    KIND_OAI,
    NEG_SENTINEL,
    InverseNoiseSet,
    ScaleInversion,
    _onehot,
    _tighten,
    invert_pyramid,
    reconstruct_from_noise,
)
from invnoise.predictor import PredictorParams, condition_embed, generate
from invnoise.rng import (
    PURPOSE_LABEL_DRAW,
    PURPOSE_TRUNC_DRAW,
    cell_words,
    normal_values,
    seed_array,
    uniform_values,
)

from conftest import (
    dyadic_schedule,
    gaussian_ar_apply,
    gaussian_ar_invert,
    random_grid,
    standard_from_uniform,
    truncated_gumbel,
    walk_logits,
)

E_INV = math.exp(-1.0)


def label_indices(tokens):
    h, w = tokens.shape
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return rows, cols, tokens


def located_q(tokens, logits, tau, seed, scale):
    """Perturbed logits of the located inversion under the keyed draws,
    exactly: the truncated transform with np.logaddexp."""
    h, w, c = logits.shape
    q_label = ScaleInversion(tokens, logits, (1, 1), (tau,), seed, scale)._q_label
    loglog = -standard_rows(cell_words(seed, PURPOSE_TRUNC_DRAW, scale, h, w), c)
    q = truncated_from_loglog(logits, (q_label - tau)[..., None], loglog)
    q[label_indices(tokens)] = q_label
    return q


def located_noise(tokens, logits, tau, seed, scale):
    """The step's float64 noise of the located inversion, before
    tightening, over the whole scale as one row block: exact in its range
    and float32 rounding only."""
    step = ScaleInversion(tokens, logits, (1, 1), (tau,), seed, scale)
    blocks = []  # the driver's three blocks of one range over every entry
    _blocks.for_row_blocks(lambda lo, hi, buf: blocks.extend(buf), 1, logits.size,
                           (np.float64,) * 3)
    noise, *spare = (b.reshape(logits.shape) for b in blocks)
    out = np.empty(logits.shape, dtype=np.float32)
    next(step._noise_rows(slice(0, tokens.shape[0]), logits, noise, spare, [out]))
    return noise


def onehot(tokens, shape):
    """The onehot construction's perturbed logits, in a new array."""
    return _onehot(tokens, np.empty(shape))


class TestOnehotInverse:
    def test_definition(self):
        tokens = np.array([[0]], dtype=np.int32)
        logits = np.zeros((1, 1, 3))
        q = onehot(tokens, logits.shape)
        assert np.array_equal(q[0, 0], [0.0, NEG_SENTINEL, NEG_SENTINEL])

    def test_argmax_identity(self, params, source_cond):
        """argmax(p + (q - p)) = argmax(q) = r for any tokens and logits."""
        pyramid = generate(source_cond, params, seed=10)
        for k in (2, 4):
            tokens = pyramid[k - 1]
            logits = walk_logits(pyramid[: k - 1], source_cond, params)
            q = onehot(tokens, logits.shape)
            noise = q - logits
            assert np.array_equal(np.argmax(logits + noise, axis=-1), tokens)

    def test_noise_is_nothing_like_gumbel(self):
        """Off-label onehot noise with p = 0 is a point mass at the
        sentinel, which the Gumbel CDF puts at probability ~0."""
        tokens = np.zeros((4, 4), dtype=np.int32)
        logits = np.zeros((4, 4, 8))
        noise = onehot(tokens, logits.shape) - logits
        off_label = noise[:, :, 1:].ravel()
        assert np.all(off_label == NEG_SENTINEL)
        assert ks_statistic(off_label, "gumbel") >= 0.9999

    def test_rejects_shape_mismatch(self, params, source_cond):
        """The pyramid is checked where it enters the inversion: a map of
        the wrong shape, or a prefix of the scales, is rejected."""
        pyramid = generate(source_cond, params, seed=5)
        narrow = [*pyramid[:2], pyramid[2][:, :2], *pyramid[3:]]
        for bad in (narrow, pyramid[:3]):
            with pytest.raises(ValidationError):
                invert_pyramid(bad, source_cond, 0.0, params, seed=5, kind=KIND_OAI)


class TestLocatedInverse:
    def test_pinned_draws(self, monkeypatch):
        """One token, two classes, tau = 1, both uniforms at e^-1:
        label gets 0, the other class gets -log(e + 1)."""
        tokens = np.zeros((1, 1), dtype=np.int32)
        logits = np.zeros((1, 1, 2))
        u_label = np.full((1, 1), E_INV)
        u_off = np.full((1, 1, 2), E_INV)
        monkeypatch.setattr(inversion, "uniform_values", lambda *key: u_label)
        monkeypatch.setattr(inversion, "standard_rows", lambda *key: -np.log(-np.log(u_off)))
        q = located_noise(tokens, logits, 1.0, 0, 1)
        assert q[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert q[0, 0, 1] == pytest.approx(-math.log(math.e + 1.0), abs=1e-12)

    def test_cell_words_keyed_once_per_scale(self, params, source_cond, monkeypatch):
        """With row blocks of 64 entries, every scale of ``invert_pyramid``
        draws its off-label rows in several blocks, from the cell words it
        keys once, and the noise is that of one block per scale."""
        pyramid = generate(source_cond, params, seed=3)
        want = invert_pyramid(pyramid, source_cond, 18.0, params, seed=3)
        keyed, blocks = [], []
        words, rows = inversion.cell_words, inversion.standard_rows

        def counted_words(seed, purpose, scale, h, w):
            keyed.append((purpose, scale, h, w))
            return words(seed, purpose, scale, h, w)

        def counted_rows(cell_rows, *rest):
            blocks.append(cell_rows.shape[0])
            return rows(cell_rows, *rest)

        monkeypatch.setattr(_blocks, "CHUNK", 64)
        monkeypatch.setattr(inversion, "cell_words", counted_words)
        monkeypatch.setattr(inversion, "standard_rows", counted_rows)
        got = invert_pyramid(pyramid, source_cond, 18.0, params, seed=3)
        resolutions = params.schedule.resolutions
        assert keyed == [(PURPOSE_TRUNC_DRAW, k, h, w) for k, (h, w) in enumerate(resolutions, 1)]
        assert sum(blocks) == sum(h for h, _ in resolutions) and len(blocks) > 2 * len(keyed)
        assert all(np.array_equal(a, b) for a, b in zip(got.noises, want.noises))

    def test_argmax_forced(self, params, source_cond):
        for seed in range(5):
            pyramid = generate(source_cond, params, seed=seed)
            for k in (1, 3, 5):
                tokens = pyramid[k - 1]
                logits = walk_logits(pyramid[: k - 1], source_cond, params)
                q = logits + located_noise(tokens, logits, 0.5, seed, k)
                assert np.array_equal(np.argmax(q, axis=-1), tokens)

    def test_margin_at_default_tau(self, params, source_cond):
        """tau = 18 forces a margin of at least 18 in the perturbed logits
        and in the replay of the tightened noise."""
        pyramid = generate(source_cond, params, seed=30)
        k = 4
        tokens = pyramid[k - 1]
        logits = walk_logits(pyramid[: k - 1], source_cond, params)
        q = located_q(tokens, logits, 18.0, 31, k)
        self.assert_margin(tokens, q, 18.0)
        noise = located_noise(tokens, logits, 18.0, 31, k)
        self.assert_margin(tokens, logits + tighten_noise(tokens, logits, noise, 18.0), 18.0)

    @staticmethod
    def assert_margin(tokens, q, tau):
        rows, cols, labels = label_indices(tokens)
        q_label = q[rows, cols, labels]
        q_off = q.copy()
        q_off[rows, cols, labels] = -np.inf
        margin = q_label - q_off.max(axis=-1)
        assert np.all(margin >= tau)


    def test_rejects_negative_tau(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=5)
        with pytest.raises(ValidationError):
            invert_pyramid(pyramid, source_cond, -0.5, params, seed=1)


# not integers in [0, 2^64)
BAD_SEEDS = [-1, 1.5, 2**64, True]


class TestSeedRule:
    """Every library entry that takes a seed checks it as ``seed_array``
    does, instead of drawing under its value modulo 2^64 or truncated."""

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_invert_pyramid(self, params, source_cond, seed):
        pyramid = generate(source_cond, params, seed=5)
        with pytest.raises(ValidationError):
            invert_pyramid(pyramid, source_cond, 18.0, params, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_generate_codebook_and_model(self, params, source_cond, seed):
        with pytest.raises(ValidationError):
            generate(source_cond, params, seed=seed)
        with pytest.raises(ValidationError):
            default_codebook(seed=seed)
        with pytest.raises(ValidationError):
            PredictorParams(params.codebook, params.schedule, model_seed=seed)

    def test_largest_seed_kept(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=2**64 - 1)
        assert invert_pyramid(pyramid, source_cond, 18.0, params, seed=2**64 - 1).seed == 2**64 - 1

def tighten_noise(tokens, logits, noise, tau):
    """The tightened float32 noise of a float64 ``noise``, as its exact
    float64 values."""
    out = np.empty(noise.shape, dtype=np.float32)
    bad = np.empty(noise.shape, dtype=bool)
    _tighten(tokens, logits, (1, 1), noise.copy(), tau, out, bad, False)
    return out.astype(np.float64)


def tighten(tokens, logits, q, tau):
    """The tightened noise of perturbed logits q."""
    return tighten_noise(tokens, logits, q - logits, tau)


def reference_tightening(tokens, logits, q, tau):
    """Float32 tightening spelled out: q - p rounded to float32, moved by
    |n| 2^-23 up at the label and down elsewhere, then a full replay
    check; a cell that fails it would need the rounding correction."""
    rows, cols, labels = label_indices(tokens)
    label_mask = np.zeros(q.shape, dtype=bool)
    label_mask[rows, cols, labels] = True
    n32 = (q - logits).astype(np.float32)
    step = np.abs(n32) * np.float32(2.0**-23)
    noise = np.where(label_mask, n32 + step, n32 - step).astype(np.float64)
    replayed = logits + noise
    q_label = replayed[rows, cols, labels][:, :, None]
    bad = ((q_label - replayed) < tau) | (replayed >= q_label)
    bad &= ~label_mask
    if bad.any():
        raise InvariantError("the replay rounds a margin away")
    return noise


def float32_exact(noise):
    return np.array_equal(noise, noise.astype(np.float32).astype(np.float64))


class TestTighteningMatchesReference:
    """One float32 rounding and one replay check give the reference's noise."""

    @pytest.mark.parametrize("tau", [0.0, 1e-6, 18.0])
    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    def test_located_inversions(self, params, source_cond, tau, beta):
        """The step's noise tightens to the reference's noise of the exact
        perturbed logits, float32-exact, with the margin in the replay,
        also at beta = 3000 with tau <= 1e-6, where float64 tightening gave
        up."""
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        for seed in (0, 1):
            pyramid = encode(random_grid(seed + 70), params.codebook, params.schedule)
            for k in range(1, params.schedule.num_scales + 1):
                tokens = pyramid[k - 1]
                logits = walk_logits(pyramid[: k - 1], source_cond, params)
                noise = located_noise(tokens, logits, tau, seed, k)
                got = tighten_noise(tokens, logits, noise, tau)
                q = located_q(tokens, logits, tau, seed, k)
                assert np.array_equal(got, reference_tightening(tokens, logits, q, tau))
                assert float32_exact(got)

    def test_onehot_inversions(self, params, source_cond):
        pyramid = encode(random_grid(80), params.codebook, params.schedule)
        for k in range(1, params.schedule.num_scales + 1):
            tokens = pyramid[k - 1]
            logits = walk_logits(pyramid[: k - 1], source_cond, params)
            q = onehot(tokens, logits.shape)
            got = tighten(tokens, logits, q, 0.0)
            assert np.array_equal(got, reference_tightening(tokens, logits, q, 0.0))

    @pytest.mark.parametrize("ulps", [62, 63])
    def test_subnormal_offsets_tighten_at_once(self, ulps):
        """An off-label value `ulps` float64 subnormals above a zero label
        rounds to zero in float32, where the replay ties; it moves to the
        float32 subnormal below zero, as many float64 passes could not."""
        tokens = np.zeros((1, 2), dtype=np.int32)
        logits = np.zeros((1, 2, 3))
        q = np.zeros((1, 2, 3))
        q[0, 1, 2] = ulps * 5e-324
        got = tighten(tokens, logits, q, 0.0)
        assert np.array_equal(got[0, 1], [0.0, -(2.0**-149), -(2.0**-149)])
        assert np.array_equal(got[0, 0], got[0, 1])

    @pytest.mark.parametrize(
        "off_logit,off_noise,tau",
        [(1.0, -(2.0**-60), 0.0), (0.9, 0.0, 0.1)],
        ids=["tiny-noise", "rounded-margin"],
    )
    def test_rounding_lost_in_the_replay_is_corrected(self, off_logit, off_noise, tau):
        """Off-label noise tiny next to its logit loses its float32 move in
        the float64 replay (and 1 - 0.9 rounds below 0.1); such a cell
        moves to the largest float32 below its bound instead."""
        tokens = np.zeros((1, 1), dtype=np.int32)
        logits = np.array([[[1.0, off_logit]]])
        q = logits + np.array([[[0.0, off_noise]]])
        with pytest.raises(InvariantError):
            reference_tightening(tokens, logits, q, tau)
        got = tighten(tokens, logits, q, tau)
        assert float32_exact(got)
        replayed = logits + got
        if tau:
            assert replayed[0, 0, 0] - replayed[0, 0, 1] >= tau
        else:
            assert replayed[0, 0, 1] < replayed[0, 0, 0]
        assert abs(got[0, 0, 1] - off_noise) < 2.0**-40

    def test_hopeless_margin_raises(self):
        tokens = np.zeros((1, 1), dtype=np.int32)
        with pytest.raises(InvariantError):
            tighten(tokens, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), 18.0)

    @pytest.mark.parametrize(
        "value", [1e300, -1e300, 2.0**127 * 1.5], ids=["1e300", "-1e300", "3*2^126"]
    )
    def test_noise_beyond_float32_is_validation_error(self, value):
        tokens = np.zeros((1, 1), dtype=np.int32)
        q = np.array([[[0.0, -1.0]]])
        q[0, 0, 1 if value < 0 else 0] = value
        with pytest.raises(ValidationError):
            tighten(tokens, np.zeros((1, 1, 2)), q, 0.0)


def exact_noise(p, trunc, g, label, at_label):
    """The located noise as the exact construction makes it: the
    truncated transform with np.logaddexp, the label values, then q - p."""
    q = truncated_from_loglog(p, trunc[..., None], -g)
    q[at_label] = label
    return q - p


def certified_noise(p, trunc, g, label, at_label):
    """The step's located noise of the same inputs; where the step reports
    it within +-2^127, so that the tightening skips its range check, it is."""
    noise, low = np.empty(g.shape), np.empty(g.shape)
    out = np.empty(g.shape, dtype=np.float32)
    p_max = max(p.max(), -p.min())
    label_noise = label - p[at_label]
    if inversion._located_noise(p, (1, 1), p_max, trunc, g, label_noise, at_label, noise, low, out):
        assert np.all(np.abs(noise) <= 2.0**127)
    return noise


def assert_rounds_alike(got, want):
    """Each value is in float32 range (+-2^127) as the exact one is, and
    in range rounds to its float32 bits."""
    inside = np.abs(want) <= 2.0**127
    assert np.array_equal(np.abs(got) <= 2.0**127, inside)
    bits = [x[inside].astype(np.float32).view(np.uint32) for x in (got, want)]
    assert np.array_equal(*bits)


class TestCertifiedNoise:
    """The fast truncated transform, certified value by value, gives the
    float32 rounding and the range of the exact construction."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.integers(min_value=0, max_value=2**32),
        beta=st.sampled_from([4.0, 3000.0]),
        tau=st.sampled_from([0.0, 1e-6, 18.0]),
        case=st.sampled_from(["drawn", "tie", "underflow", "near-limit"]),
        seeds=st.booleans(),
    )
    def test_rounds_as_the_exact_noise(self, key, beta, tau, case, seeds):
        """Drawn 3x4x16 blocks at beta 4 or 3000, with or without a seed
        axis: as drawn, with p - trunc equal to log(-log u) at every
        other class, more than 745 apart (exp underflows), or with
        off-label noise within a few ulps of -2^127, on either side, and
        beyond -2^128, where a float32 cast would overflow."""
        n, w, c = 3, 4, 16
        seed = np.array([key, key + 1], dtype=np.uint64) if seeds else key
        rows, cols = np.arange(n)[:, None], np.arange(w)
        p = -beta * 8.0 * uniform_values(key, 1, 0, rows[..., None], cols[:, None], np.arange(c))
        tokens = (c * uniform_values(key, 2, 0, rows, cols, 0)).astype(np.int32)
        tokens[0, 1] = 0
        if case == "near-limit":  # off the label of cell (0, 1)
            p[0, 1, 1:8] = 2.0**127 * (1.0 + 2.0**-52 * np.arange(-3, 4))
            p[0, 1, 8:10] = 2.0**128, 1e300  # beyond what float32 can round to
        at_label = (..., rows, cols, tokens)
        label = p[at_label] + standard_from_uniform(uniform_values(seed, 3, 0, rows, cols, 0))
        trunc = label - tau
        g = standard_rows(cell_words(seed, 4, 0, n, w), c)
        if case == "tie":
            g[..., ::2] = (trunc[..., None] - p)[..., ::2]
        elif case == "underflow":
            g = trunc[..., None] - p + np.where(np.arange(c) % 2, 800.0, -800.0)
        want = exact_noise(p, trunc, g, label, at_label)
        assert_rounds_alike(certified_noise(p, trunc, g, label, at_label), want)

    def test_near_a_float32_midpoint_recomputed(self, monkeypatch):
        """Off-label noise within E of a float32 rounding midpoint fails the
        certificate and is recomputed exactly; noise clear of one is not.
        With trunc - p more than 745 above g, the fast noise is g itself,
        so g places it.  Under p = 2^30, p - L rounds to a multiple of
        2^-22, so g = 1 + 2^-24 + 2^-40 (float32 1 + 2^-23) has exact noise
        1: the recomputation, not the fast value, gives its bits."""
        gathered = []

        def spy(phi, *rest, **kw):
            if np.ndim(phi) == 1:
                gathered.append(np.size(phi))
            return truncated_from_loglog(phi, *rest, **kw)

        monkeypatch.setattr(inversion, "truncated_from_loglog", spy)
        tokens = np.zeros((1, 1), dtype=np.int32)
        at_label = (..., np.arange(1)[:, None], np.arange(1), tokens)
        m = 1.0 + 2.0**-24  # halfway between float32 1 and 1 + 2^-23
        near = [m, m + 2.0**-50, m - 2.0**-50, -m]  # E is 2^-45 here
        clear = [1.0, 1.25, -0.75, 3.0]
        past = 1.0 + 2.0**-24 + 2.0**-40
        for base, off in ((0.0, near + clear), (2.0**30, [past])):
            g = np.array([[[0.0, *off]]])
            p = np.full(g.shape, base)
            label = np.array([[base + 1000.0]])
            gathered.clear()
            want = exact_noise(p, label, g, label, at_label)
            assert_rounds_alike(certified_noise(p, label, g, label, at_label), want)
            assert gathered == [len(near) if base == 0.0 else 1]
        assert np.float32(past) != np.float32(want[0, 0, 1]) == np.float32(1.0)

    def test_softmin_bound_with_its_margin(self):
        """Over 2^20 pairs (keyed normals at scales 1 to 10^6 against
        standard Gumbel draws, with ties and pairs 800 apart), the
        vectorised softmin differs from -np.logaddexp(-x, -y) by at most
        2^-52 (|min(x, y)| + 1), and E leaves at least 16 times that for
        it beside the roundings of the exact construction."""
        size = 1 << 20
        i = np.arange(size)
        x = normal_values(21, 9, 0, i, 0, 0) * 10.0 ** (i % 7)
        y = standard_from_uniform(uniform_values(21, 9, 1, i, 0, 0))
        y[::97] = x[::97]
        y[1::97] = x[1::97] + 800.0
        low = np.empty(size)
        got = inversion._softmin(x, y, np.empty(size), low)
        assert np.all(np.abs(got + np.logaddexp(-x, -y)) <= 2.0**-52 * (np.abs(low) + 1.0))
        assert inversion._NOISE_ERROR - 2.0**-51 >= 16 * 2.0**-52


# SHA-256 of the noise maps (seeds 0 and 3) of desk inversions of an
# encoded random grid at beta 3000, where the most values fail the
# certificate, as the exact transform (np.logaddexp throughout) made them.
BETA_3000_DIGESTS = {
    0.0: "d222951f6536168712de8a4809329bf11ad16a61d3c36a972e3c45973df9f61b",
    1e-6: "809ad42c43c2e13c955693e9934adb44421cdfe7617421e0600fd2bc5fbfd470",
    18.0: "573fb6e445bf45f63728aa6689a52ad4f73996b7947906374b17abd214b034e0",
}


@pytest.mark.parametrize("tau,digest", BETA_3000_DIGESTS.items())
def test_beta_3000_inversions_pinned(params, source_cond, tau, digest):
    params = PredictorParams(params.codebook, params.schedule, beta=3000.0)
    pyramid = encode(random_grid(70), params.codebook, params.schedule)
    sha = hashlib.sha256()
    for seed in (0, 3):
        for noise in invert_pyramid(pyramid, source_cond, tau, params, seed).noises:
            sha.update(noise.tobytes())
    assert sha.hexdigest() == digest


class TestInvertPyramid:
    @pytest.mark.parametrize("tau", [0.0, 1.0, 18.0])
    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_reconstruction_exact(self, params, source_cond, tau, kind):
        for seed in (0, 1, 2):
            pyramid = encode(random_grid(seed + 60), params.codebook, params.schedule)
            noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed, kind=kind)
            recon = reconstruct_from_noise(noise_set, source_cond, params)
            assert all(np.array_equal(a, b) for a, b in zip(pyramid, recon))

    def test_replay_peak_memory(self, source_cond):
        """Replaying a 64x64, vocab-512 set of float32 maps allocates less
        than 8 MiB above the set it holds: no float64 copy of a map and no
        full logits array of the finest scale (16 MiB each)."""
        params = PredictorParams(default_codebook(size=512), dyadic_schedule(7))
        noises = tuple(
            np.zeros((h, w, 512), dtype=np.float32) for h, w in params.schedule.resolutions
        )
        noise_set = InverseNoiseSet(noises, source_cond.label, 18.0, 0, KIND_LAI)
        cond = condition_embed(source_cond.label, params)
        tracemalloc.start()
        try:
            reconstruct_from_noise(noise_set, cond, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_inversion_peak_memory(self):
        """One margin of a 64x64, vocab-512 scale, under its full logits,
        allocates its float32 map (half the 16 MiB of the float64 logits)
        and under 2 MiB more: every float64 array of the step is one row
        block's or (h, w)."""
        h, w, c = 64, 64, 512
        fields = np.arange(h)[:, None, None], np.arange(w)[None, :, None], np.arange(c)
        logits = 30.0 * normal_values(1, 9, 1, *fields)
        tokens = np.argmax(logits, axis=-1).astype(np.int32)
        tracemalloc.start()
        try:
            (noise,) = ScaleInversion(tokens, logits, (1, 1), (18.0,), 0, 7).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert noise.dtype == np.float32 and noise.nbytes == logits.nbytes // 2
        assert peak < noise.nbytes + 2 * 2**20

    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_stress_pyramid_peak_memory(self, kind):
        """Inverting stress-scale scene-a (64x64, vocab 512, 7 scales) at
        tau 18 traces at most 20 MiB (16.50 MiB measured located, 16.36
        onehot): the float32
        maps (10.7 MiB), each scale's rows written into its map as they
        are inverted, the finest block logits (4 MiB) and one row block's
        scratch (the noise, the draws and a spare block, 1.5 MiB); no
        full-size float64 array (16 MiB), no per-cell copy of the logits
        and no float32 copy of a map."""
        params = PredictorParams(default_codebook(size=512), dyadic_schedule(7))
        grid, _, record = demo_scene("scene-a", params)
        pyramid = encode(grid, params.codebook, params.schedule)
        cond = condition_embed(record.source_label, params)
        tracemalloc.start()
        try:
            invert_pyramid(pyramid, cond, 18.0, params, seed=0, kind=kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

    def test_provenance(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=2)
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=9)
        assert noise_set.condition_label == source_cond.label
        assert noise_set.tau == 18.0
        assert noise_set.seed == 9
        assert noise_set.kind == KIND_LAI
        assert not noise_set.sensitive
        assert invert_pyramid(pyramid, source_cond, 0.0, params, seed=9).sensitive

    def test_unknown_kind_rejected(self, params, source_cond):
        """The noise set the inversion builds is the one check of its kind."""
        pyramid = generate(source_cond, params, seed=2)
        with pytest.raises(ValidationError, match="unknown inversion kind"):
            invert_pyramid(pyramid, source_cond, 18.0, params, seed=9, kind="bogus")

    def test_parallel_matches_serial(self, params, source_cond):
        """Token-parallel inversion and a per-token serial replay agree
        bit for bit (the draws are keyed, not sequential)."""
        pyramid = generate(source_cond, params, seed=3)
        seed, tau = 13, 2.0
        noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed)
        for k in range(1, params.schedule.num_scales + 1):
            tokens = pyramid[k - 1]
            logits = walk_logits(pyramid[: k - 1], source_cond, params)
            h, w, C = logits.shape
            serial = np.empty((h, w, C))
            for i in range(h):
                for j in range(w):
                    u_label = uniform_values(seed, PURPOSE_LABEL_DRAW, k, i, j, 0)
                    u_off = uniform_values(seed, PURPOSE_TRUNC_DRAW, k, i, j, np.arange(C))
                    q_label = located_from_uniform(logits[i, j, tokens[i, j]], u_label)
                    q = truncated_gumbel(logits[i : i + 1, j : j + 1], q_label - tau, u_off)
                    q[0, 0, tokens[i, j]] = q_label
                    serial[i, j] = tighten(
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
    """One-margin inversion as first written: a fresh walk per scale,
    the located draws spelled out with meshgrid keys."""
    noises = []
    for k, tokens in enumerate(pyramid, start=1):
        logits = walk_logits(pyramid[: k - 1], cond, params)
        if kind == KIND_OAI:
            noises.append(tighten(tokens, logits, onehot(tokens, logits.shape), 0.0))
            continue
        rows, cols, labels = label_indices(tokens)
        channels = np.arange(logits.shape[2])
        u_label = uniform_values(seed, PURPOSE_LABEL_DRAW, k, rows, cols, 0)
        u_off = uniform_values(
            seed, PURPOSE_TRUNC_DRAW, k, rows[:, :, None], cols[:, :, None], channels
        )
        q_label = located_from_uniform(logits[rows, cols, labels], u_label)
        q = truncated_gumbel(logits, (q_label - tau)[:, :, None], u_off)
        q[rows, cols, labels] = q_label
        noises.append(tighten(tokens, logits, q, tau))
    return noises


MARGINS = (0.0, 1e-6, 14.0, 18.0, 20.0)


class TestInvertPyramids:
    """Inverting a pyramid at several margins is one ``ScaleInversion``
    pass per scale: each margin gets the one-margin noise of the step and of
    ``invert_pyramid``."""

    @pytest.mark.parametrize("taus", [MARGINS, (20.0, 0.0, 18.0, 1e-6, 14.0)])
    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_each_margin_matches_single(self, params, source_cond, taus, beta, kind):
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        for seed in (0, 1):
            pyramid = generate(source_cond, params, seed=seed)
            sets = [invert_pyramid(pyramid, source_cond, tau, params, seed, kind) for tau in taus]
            for k, tokens in enumerate(pyramid, start=1):
                logits = walk_logits(pyramid[: k - 1], source_cond, params)
                step = ScaleInversion(tokens, logits, (1, 1), taus, seed, k, kind).run()
                assert len(step) == len(taus)
                for tau, got, single in zip(taus, step, sets):
                    (alone,) = ScaleInversion(tokens, logits, (1, 1), (tau,), seed, k, kind).run()
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
            logits = walk_logits(pyramid[: k - 1], source_cond, params)
            a, b = ScaleInversion(tokens, logits, (1, 1), (18.0, 18.0), 4, k).run()
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "taus", [(-1.0, -1e-300), (float("nan"),), (float("inf"), -float("inf"))]
    )
    def test_rejects_bad_margins(self, params, source_cond, taus):
        pyramid = generate(source_cond, params, seed=4)
        for tau in taus:
            with pytest.raises(ValidationError):
                invert_pyramid(pyramid, source_cond, tau, params, seed=4)

    @pytest.mark.parametrize("tau", [0.0, 1e-6])
    def test_large_beta_encoded_grid_inverts(self, params, source_cond, tau):
        """At beta = 3000 an encoded random grid inverts and replays at thin
        margins, where float64 tightening gave up for these seeds."""
        params = PredictorParams(params.codebook, params.schedule, beta=3000.0)
        pyramid = encode(random_grid(70), params.codebook, params.schedule)
        for seed in range(4):
            noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed)
            recon = reconstruct_from_noise(noise_set, source_cond, params)
            assert all(np.array_equal(a, b) for a, b in zip(pyramid, recon))


class TestInvertScaleSeeds:
    """An array of seeds gives each seed's own noise maps bit for bit."""

    @pytest.mark.parametrize("beta", [4.0, 3000.0])
    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_seed_array_equals_per_seed(self, params, source_cond, beta, kind):
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        pyramid = generate(source_cond, params, seed=4)
        logits = walk_logits(pyramid[:3], source_cond, params)
        seeds = [0, 9, 2**64 - 1]
        taus = [18.0, 0.0, 14.0]
        got = ScaleInversion(pyramid[3], logits, (1, 1), taus, seed_array(seeds), 4, kind).run()
        for i, seed in enumerate(seeds):
            want = ScaleInversion(pyramid[3], logits, (1, 1), taus, seed, 4, kind).run()
            for noise, single in zip(got, want):
                assert np.array_equal(noise[i] if kind == KIND_LAI else noise, single)

    def test_pyramids_collect_the_step(self, params, source_cond):
        pyramid = generate(source_cond, params, seed=6)
        sets = [invert_pyramid(pyramid, source_cond, tau, params, seed=6) for tau in (14.0, 18.0)]
        for k in range(1, params.schedule.num_scales + 1):
            logits = walk_logits(pyramid[: k - 1], source_cond, params)
            step = ScaleInversion(pyramid[k - 1], logits, (1, 1), (14.0, 18.0), 6, k).run()
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
        assert ks_statistic(eps, scipy.stats.norm.cdf) <= 0.02

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            gaussian_ar_invert(np.ones(4), lambda prefix: (0.0, 0.0))
