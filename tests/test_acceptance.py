"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them).
All randomness is keyed, so every criterion is a deterministic check.
"""

import math
import time

import numpy as np
import scipy.stats

from invnoise import metrics
from invnoise.cli import EXIT_OK, main
from invnoise.codec import ScaleSchedule, decode, encode
from invnoise.demo import demo_scene
from invnoise.editing import (
    EditConfig,
    default_start_scale,
    edit_regeneration,
    edit_with_inverse_noise,
)
from invnoise.gumbel import ks_statistic
from invnoise.inversion import (
    KIND_LAI,
    KIND_OAI,
    invert_pyramid,
    reconstruct_from_noise,
)
from invnoise.predictor import condition_embed, generate
from invnoise.rng import uniform_values

from conftest import (
    gaussian_ar_apply,
    gaussian_ar_invert,
    random_grid,
    residual_energies,
    truncated_gumbel,
    walk_logits,
)
from test_metrics import naive_mse, naive_psnr, naive_ssim


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def label_noise(pyramid, noise_set):
    out = []
    for tokens, noise in zip(pyramid, noise_set.noises):
        h, w = tokens.shape
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        out.append(noise[rows, cols, tokens].ravel())
    return np.concatenate(out)


def test_criterion_01_perfect_reconstruction(params):
    """200 fuzzed (grid, condition, tau, seed) tuples replay exactly,
    for both inversion kinds, within the 30 s budget."""
    start = time.monotonic()
    taus = (0.0, 1.0, 18.0)
    failures = 0
    for i in range(200):
        grid = random_grid(i, amplitude=0.4 + (i % 5) * 0.3)
        cond = condition_embed(f"fuzz condition {i % 17}", params)
        tau = taus[i % 3]
        seed = 1000 + 7 * i
        pyramid = encode(grid, params.codebook, params.schedule)
        for kind in (KIND_LAI, KIND_OAI):
            noise_set = invert_pyramid(pyramid, cond, tau, params, seed, kind=kind)
            recon = reconstruct_from_noise(noise_set, cond, params)
            if not all(np.array_equal(a, b) for a, b in zip(pyramid, recon)):
                failures += 1
    elapsed = time.monotonic() - start
    report(
        1,
        failures == 0 and elapsed < 30.0,
        f"200 tuples x {{lai, oai}}, {failures} reconstruction failures, {elapsed:.1f}s",
    )


def test_criterion_02_truncation_bound():
    """10^6 fuzzed truncated draws never exceed the threshold, and the
    analytic anchor phi = T = 0, u = e^-1 lands on -log 2."""
    n = 1_000_000
    idx = np.arange(n)
    phi = uniform_values(200, 1, 0, idx, 0, 0) * 200.0 - 100.0
    trunc = uniform_values(200, 2, 0, idx, 0, 0) * 200.0 - 100.0
    # widen a tranche to exercise the logaddexp branch at extreme gaps
    phi[::10] *= 1e4
    trunc[1::10] *= 1e4
    u = uniform_values(200, 3, 0, idx, 0, 0)
    values = truncated_gumbel(phi, trunc, u)
    violations = int(np.sum(values > trunc))
    anchor = truncated_gumbel(0.0, 0.0, math.exp(-1.0))
    anchor_ok = abs(anchor - (-math.log(2.0))) <= 1e-12
    report(
        2,
        violations == 0 and anchor_ok,
        f"{violations} bound violations in 10^6 draws; anchor |err| = "
        f"{abs(anchor - (-math.log(2.0))):.2e}",
    )


def test_criterion_03_margin_law(params):
    """Label-vs-runner-up margins stay >= tau for tau in {1, 8, 18}
    across 102 fuzzed inversions."""
    worst = math.inf
    count = 0
    for tau in (1.0, 8.0, 18.0):
        for i in range(34):
            if i % 2 == 0:
                pyramid = encode(
                    random_grid(300 + i, amplitude=0.5 + 0.2 * (i % 4)),
                    params.codebook,
                    params.schedule,
                )
            else:
                pyramid = generate(
                    condition_embed(f"margin fuzz {i}", params), params, seed=i
                )
            cond = condition_embed(f"margin condition {i % 7}", params)
            noise_set = invert_pyramid(pyramid, cond, tau, params, seed=400 + i)
            count += 1
            for t, noise in enumerate(noise_set.noises, start=1):
                logits = walk_logits(pyramid[: t - 1], cond, params)
                perturbed = logits + noise
                tokens = pyramid[t - 1]
                rows, cols = np.meshgrid(
                    np.arange(tokens.shape[0]), np.arange(tokens.shape[1]), indexing="ij"
                )
                q_label = perturbed[rows, cols, tokens]
                off = perturbed.copy()
                off[rows, cols, tokens] = -np.inf
                worst = min(worst, float(np.min((q_label - off.max(axis=-1)) - tau)))
    report(3, worst >= 0.0, f"{count} inversions, worst margin slack {worst:.3e}")


def test_criterion_04_noise_distribution_ordering(params, source_cond):
    """On 50 self-generated pyramids the located inversion's noise is
    closer to standard Gumbel than the onehot one's in every case, and
    pooled label-position noise passes KS at 0.05."""
    wins = 0
    pooled = []
    for seed in range(50):
        pyramid = generate(source_cond, params, seed=seed)
        lai = invert_pyramid(pyramid, source_cond, 0.0, params, seed=5000 + seed)
        oai = invert_pyramid(
            pyramid, source_cond, 0.0, params, seed=5000 + seed, kind=KIND_OAI
        )
        ks_lai = ks_statistic(np.concatenate([n.ravel() for n in lai.noises]), "gumbel")
        ks_oai = ks_statistic(np.concatenate([n.ravel() for n in oai.noises]), "gumbel")
        if ks_lai < ks_oai:
            wins += 1
        pooled.append(label_noise(pyramid, lai))
    pooled_ks = ks_statistic(np.concatenate(pooled), "gumbel")
    report(
        4,
        wins == 50 and pooled_ks <= 0.05,
        f"ordering held in {wins}/50 pyramids; pooled label KS = {pooled_ks:.4f}",
    )


def test_criterion_05_endpoint_equivalences(params):
    """lambda = 1 with matching condition from scale 1 replays the
    source; lambda = 0 equals regeneration bitwise; 64 seeds each."""
    grid = random_grid(500)
    source_pyramid = encode(grid, params.codebook, params.schedule)
    label = "endpoint condition"
    recon_ok = regen_ok = True
    for seed in range(64):
        full = edit_with_inverse_noise(
            grid,
            EditConfig(
                source_label=label,
                target_label=label,
                start_scale=1,
                lambda_kind="constant", lambda_value=1.0,
                seed=seed,
            ),
            params,
        )
        recon_ok &= all(np.array_equal(a, b) for a, b in zip(full.pyramid, source_pyramid))
        zero = edit_with_inverse_noise(
            grid,
            EditConfig(
                source_label=label,
                target_label="endpoint target",
                start_scale=2,
                lambda_kind="constant", lambda_value=0.0,
                seed=seed,
            ),
            params,
        )
        regen = edit_regeneration(grid, "endpoint target", 2, params, seed=seed)
        regen_ok &= all(np.array_equal(a, b) for a, b in zip(zero.pyramid, regen.pyramid))
        regen_ok &= np.array_equal(zero.grid, regen.grid)
    report(
        5,
        recon_ok and regen_ok,
        f"64 seeds: reconstruction endpoint {'ok' if recon_ok else 'BROKEN'}, "
        f"regeneration endpoint {'ok' if regen_ok else 'BROKEN'}",
    )


def test_criterion_06_tau_trend(params):
    """Mean masked-background MSE falls as tau rises on the demo scene
    (32 matched seeds, 4 ascending tau values, Spearman <= -0.9)."""
    grid, mask, scene = demo_scene("scene-a", params)
    taus = [14.0, 16.0, 18.0, 20.0]
    means = []
    for tau in taus:
        values = []
        for seed in range(32):
            result = edit_with_inverse_noise(
                grid,
                EditConfig(
                    source_label=scene.source_label,
                    target_label=scene.target_label,
                    tau=tau,
                    seed=seed,
                ),
                params,
            )
            values.append(metrics.Scorer(grid, mask).score(result.grid)["bg_mse"])
        means.append(float(np.mean(values)))
    monotone = all(b <= a for a, b in zip(means, means[1:]))
    rho = float(scipy.stats.spearmanr(taus, means).statistic)
    report(
        6,
        monotone and rho <= -0.9,
        f"mean bg MSE {['%.4f' % m for m in means]}, spearman {rho:.2f}",
    )


def test_criterion_07_start_scale_trend(params):
    """Mean PSNR to the source is non-decreasing in the regeneration
    start scale (3 ascending values, 32 seeds)."""
    grid, _, scene = demo_scene("scene-a", params)
    starts = [2, 3, 4]
    scorer = metrics.Scorer(grid)
    means = []
    for start in starts:
        values = [
            scorer.score(edit_regeneration(grid, scene.target_label, start, params, seed).grid)[
                "psnr"
            ]
            for seed in range(32)
        ]
        means.append(float(np.mean(values)))
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    report(7, monotone, f"mean PSNR {['%.3f' % m for m in means]} over s = {starts}")


def test_criterion_08_noise_guided_beats_regeneration(params):
    """At the default margin and matched seeds, noise-guided editing
    preserves the background strictly better than regeneration."""
    grid, mask, scene = demo_scene("scene-a", params)
    scorer = metrics.Scorer(grid, mask)
    guided, regen = [], []
    for seed in range(32):
        cfg = EditConfig(
            source_label=scene.source_label,
            target_label=scene.target_label,
            seed=seed,
        )
        result = edit_with_inverse_noise(grid, cfg, params)
        guided.append(scorer.score(result.grid)["bg_mse"])
        baseline = edit_regeneration(
            grid, scene.target_label, default_start_scale(params.schedule.num_scales),
            params, seed,
        )
        regen.append(scorer.score(baseline.grid)["bg_mse"])
    mean_guided, mean_regen = float(np.mean(guided)), float(np.mean(regen))
    report(
        8,
        mean_guided < mean_regen,
        f"mean bg MSE {mean_guided:.4f} (noise-guided) vs {mean_regen:.4f} (regeneration)",
    )


def test_criterion_09_gaussian_inversion():
    """Continuous reference: round trip to 1e-12 and N(0,1) noise."""

    def mu_sigma(prefix):
        if prefix.size == 0:
            return 0.0, 1.0
        return 0.7 * prefix[-1], 0.5 + 0.1 * abs(prefix[-1])

    u1 = uniform_values(900, 1, 0, np.arange(10_000), 0, 0)
    u2 = uniform_values(900, 2, 0, np.arange(10_000), 0, 0)
    eps_true = np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)
    x = gaussian_ar_apply(eps_true, mu_sigma)
    eps = gaussian_ar_invert(x, mu_sigma)
    x_again = gaussian_ar_apply(eps, mu_sigma)
    rel = float(np.max(np.abs(x_again - x) / np.maximum(np.abs(x), 1e-300)))
    ks = ks_statistic(eps, scipy.stats.norm.cdf)
    report(9, rel <= 1e-12 and ks <= 0.02, f"round-trip rel err {rel:.2e}, KS {ks:.4f}")


def corpus_grid(i: int, params) -> np.ndarray:
    """Fuzz corpus for the codec: content at or above codebook scale.

    Half iid fields (amplitudes 0.6..2.6), half structured scenes
    (decoded pyramids at gains 1.5..2.5 plus detail noise).  Content
    much finer than the codebook granularity is out of regime: there
    the coarse scales subtract spurious block means and one-shot
    quantization can win by ~5e-4 MSE.
    """
    if i % 2 == 0:
        amp = 0.6 + (i // 2 % 6) * 0.4
        return random_grid(7000 + i, amplitude=amp)
    from invnoise.rng import normal_values

    gain = (1.5, 2.0, 2.5)[i % 3]
    detail = (0.05, 0.1, 0.2)[i % 3]
    cond = condition_embed(f"corpus scene {i % 23}", params)
    pyramid = generate(cond, params, seed=7000 + i)
    base = gain * decode(pyramid, params.codebook, params.schedule)
    noise = normal_values(
        7000 + i,
        98,
        0,
        np.arange(16)[:, None, None],
        np.arange(16)[None, :, None],
        np.arange(4)[None, None, :],
    )
    return base + detail * np.moveaxis(noise, -1, 0)


def test_criterion_10_codec_invariants(params):
    """500 fuzzed grids: residual energy never increases across scales
    and multi-scale coding never loses to one-shot quantization."""
    single = ScaleSchedule((params.schedule.finest,))
    energy_ok = compare_ok = True
    for i in range(500):
        grid = corpus_grid(i, params)
        pyramid = encode(grid, params.codebook, params.schedule)
        energies = residual_energies(grid, pyramid, params.codebook, params.schedule)
        energy_ok &= all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
        multi = decode(pyramid, params.codebook, params.schedule)
        one = decode(
            encode(grid, params.codebook, single), params.codebook, single
        )
        compare_ok &= float(np.mean((multi - grid) ** 2)) <= float(
            np.mean((one - grid) ** 2)
        ) + 1e-12
    report(
        10,
        energy_ok and compare_ok,
        f"500 grids: energy monotone {'ok' if energy_ok else 'BROKEN'}, "
        f"multi <= single {'ok' if compare_ok else 'BROKEN'}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    """Every command is byte-reproducible, and a parallel sweep writes
    exactly the serial output."""
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(
        "[edit]\n"
        "source = red brick house among pines\n"
        "target = blue glass tower among pines\n"
        "mode = varin\n"
        "[sweep]\n"
        "parameter = tau\n"
        "values = 14,18\n"
        "seeds = 0:4\n"
    )
    reruns_ok = True
    for name, argv in {
        "encode": ("encode", "--grid", "demo:scene-a", "--seed", 4),
        "invert": ("invert", "--grid", "demo:scene-a", "--seed", 4),
        "edit": (
            "edit", "--grid", "demo:scene-a", "--mode", "varin",
            "--auto-invert", "--seed", 4,
        ),
        "sweep": ("sweep", "--config", sweep_ini),
    }.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert run_cli(*argv, "--out", a) == EXIT_OK
        assert run_cli(*argv, "--out", b) == EXIT_OK
        reruns_ok &= tree_bytes(a) == tree_bytes(b)
    render_src = tmp_path / "encode_a" / "pyramid.nsp"
    ra, rb = tmp_path / "render_a", tmp_path / "render_b"
    assert run_cli("render", "--in", render_src, "--out", ra) == EXIT_OK
    assert run_cli("render", "--in", render_src, "--out", rb) == EXIT_OK
    reruns_ok &= tree_bytes(ra) == tree_bytes(rb)
    par = tmp_path / "sweep_par"
    assert run_cli("sweep", "--config", sweep_ini, "--workers", 3, "--out", par) == EXIT_OK
    parallel_ok = (par / "sweep.csv").read_bytes() == (
        tmp_path / "sweep_a" / "sweep.csv"
    ).read_bytes()
    report(
        11,
        reruns_ok and parallel_ok,
        f"five commands byte-stable: {reruns_ok}; parallel == serial sweep: {parallel_ok}",
    )


def test_criterion_12_metric_oracles():
    """1000 fuzzed pairs: MSE/PSNR/SSIM match naive loops to 1e-9."""
    worst = 0.0
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:6, 1:5] = True
    for i in range(1000):
        a = random_grid(8000 + 2 * i, size=8, amplitude=0.4 + (i % 3) * 0.4)
        b = random_grid(8001 + 2 * i, size=8, amplitude=0.4 + (i % 4) * 0.3)
        scores = metrics.Scorer(b, mask).score(a)
        worst = max(worst, abs(scores["mse"] - naive_mse(a, b)))
        worst = max(worst, abs(scores["bg_mse"] - naive_mse(a, b, mask)))
        worst = max(worst, abs(scores["psnr"] - naive_psnr(a, b)))
        worst = max(worst, abs(scores["ssim"] - naive_ssim(a, b, 7)))
    report(12, worst <= 1e-9, f"1000 pairs, worst |library - naive| = {worst:.2e}")
