"""CLI harness: end-to-end commands, exit codes, byte-level determinism."""

import hashlib
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from invnoise import cli, demo, inversion, metrics
from invnoise.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from invnoise.codec import decode, encode
from invnoise.config import ExperimentConfig, config_digest, load_config, render_config
from invnoise.demo import demo_scene
from invnoise.editing import default_start_scale
from invnoise.fileio import read_grid, read_noise_set, read_pyramid, write_grid
from invnoise.predictor import condition_embed
from invnoise.rng import PURPOSE_TRUNC_DRAW

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(*argv):
    return main([str(a) for a in argv])


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture()
def default_params():
    return ExperimentConfig().build_params()


class TestEncode:
    def test_zero_grid(self, tmp_path):
        grid_path = tmp_path / "zero.nsg"
        write_grid(grid_path, np.zeros((4, 16, 16)))
        out = tmp_path / "enc"
        assert run("encode", "--grid", grid_path, "--out", out) == EXIT_OK
        pyramid, _, _ = read_pyramid(out / "pyramid.nsp")
        assert all(np.all(t == 0) for t in pyramid)
        psnr_row = [
            line
            for line in (out / "encode_metrics.csv").read_text().splitlines()
            if ",psnr," in line
        ][0]
        assert psnr_row.endswith("99.0")

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("encode", "--grid", "demo:scene-a", "--out", a) == EXIT_OK
        assert run("encode", "--grid", "demo:scene-a", "--out", b) == EXIT_OK
        assert tree_bytes(a) == tree_bytes(b)

    def test_matches_library(self, tmp_path, default_params):
        out = tmp_path / "enc"
        assert run("encode", "--grid", "demo:scene-a", "--out", out) == EXIT_OK
        grid, _, _ = demo_scene("scene-a", default_params)
        recon = decode(
            encode(grid, default_params.codebook, default_params.schedule),
            default_params.codebook,
            default_params.schedule,
        )
        rows = (out / "encode_metrics.csv").read_text().splitlines()[1:]
        by_metric = {r.split(",")[2]: float(r.split(",")[4]) for r in rows}
        assert by_metric["mse"] == metrics.mse(recon, grid)
        assert by_metric["psnr"] == metrics.psnr(recon, grid)
        assert by_metric["ssim"] == metrics.ssim(recon, grid)

    def test_header_embeds_effective_config_digest(self, tmp_path):
        out = tmp_path / "enc"
        assert run("encode", "--grid", "demo:scene-a", "--out", out, "--seed", 5) == EXIT_OK
        _, header = read_grid(out / "recon.nsg")
        assert header.seed == 5
        from dataclasses import replace

        cfg = ExperimentConfig()
        cfg = replace(cfg, edit=replace(cfg.edit, seed=5), output_dir=str(out))
        assert header.digest == config_digest(cfg)


class TestInvert:
    def test_invert_then_exact_replay(self, tmp_path):
        """Noise from the CLI replays the source tokens exactly when the
        edit runs at lambda = 1 from scale 1 under the source label."""
        inv = tmp_path / "inv"
        assert run("invert", "--grid", "demo:scene-a", "--out", inv, "--seed", 3) == EXIT_OK
        enc = tmp_path / "enc"
        assert run("encode", "--grid", "demo:scene-a", "--out", enc) == EXIT_OK
        ed = tmp_path / "ed"
        assert (
            run(
                "edit", "--grid", "demo:scene-a", "--mode", "varin",
                "--noise", inv / "noise.nsn", "--out", ed, "--seed", 3,
                "--lambda", "1.0", "--start-scale", 1, "--mask", "none",
            )
            == EXIT_OK
        )
        # matching condition: demo scene edits default to its own labels,
        # so force target = source through a config file
        cfg_text = "[edit]\nsource = red brick house among pines\ntarget = red brick house among pines\n"
        cfg_path = tmp_path / "same.ini"
        cfg_path.write_text(cfg_text)
        ed2 = tmp_path / "ed2"
        assert (
            run(
                "edit", "--config", cfg_path, "--grid", "demo:scene-a", "--mode", "varin",
                "--noise", inv / "noise.nsn", "--out", ed2, "--seed", 3,
                "--lambda", "1.0", "--start-scale", 1, "--mask", "none",
            )
            == EXIT_OK
        )
        source, _, _ = read_pyramid(enc / "pyramid.nsp")
        edited, _, _ = read_pyramid(ed2 / "edited.nsp")
        assert all(np.array_equal(a, b) for a, b in zip(source, edited))

    def test_kinds_both_reconstruct_but_differ(self, tmp_path):
        lai, oai = tmp_path / "lai", tmp_path / "oai"
        assert run("invert", "--grid", "demo:scene-a", "--out", lai, "--kind", "lai") == EXIT_OK
        assert run("invert", "--grid", "demo:scene-a", "--out", oai, "--kind", "oai") == EXIT_OK
        assert (lai / "noise.nsn").read_bytes() != (oai / "noise.nsn").read_bytes()
        for path in (lai, oai):
            loaded, _ = read_noise_set(path / "noise.nsn")
            assert loaded.num_scales == 5

    def test_condition_flag_picks_label(self, tmp_path):
        src, tgt = tmp_path / "src", tmp_path / "tgt"
        assert run("invert", "--grid", "demo:scene-a", "--out", src) == EXIT_OK
        assert (
            run("invert", "--grid", "demo:scene-a", "--out", tgt, "--condition", "target")
            == EXIT_OK
        )
        src_set, _ = read_noise_set(src / "noise.nsn")
        tgt_set, _ = read_noise_set(tgt / "noise.nsn")
        assert src_set.condition_label == "red brick house among pines"
        assert tgt_set.condition_label == "blue glass tower among pines"

    def test_demo_scene_brings_its_own_labels(self, tmp_path):
        """With labels left at the defaults, demo:scene-b runs under its
        own label pair rather than scene-a's."""
        out = tmp_path / "b"
        assert run("invert", "--grid", "demo:scene-b", "--out", out) == EXIT_OK
        noise, _ = read_noise_set(out / "noise.nsn")
        assert noise.condition_label == "orange desert dunes at noon"
        # an explicit non-default label wins over adoption
        cfg_path = tmp_path / "label.ini"
        cfg_path.write_text("[edit]\nsource = my own prompt\n")
        out2 = tmp_path / "b2"
        assert (
            run("invert", "--config", cfg_path, "--grid", "demo:scene-b", "--out", out2)
            == EXIT_OK
        )
        noise2, _ = read_noise_set(out2 / "noise.nsn")
        assert noise2.condition_label == "my own prompt"

    def test_save_load_round_trip(self, tmp_path):
        inv = tmp_path / "inv"
        assert run("invert", "--grid", "demo:scene-b", "--out", inv, "--seed", 11) == EXIT_OK
        first, _ = read_noise_set(inv / "noise.nsn")
        inv2 = tmp_path / "inv2"
        assert run("invert", "--grid", "demo:scene-b", "--out", inv2, "--seed", 11) == EXIT_OK
        second, _ = read_noise_set(inv2 / "noise.nsn")
        assert all(np.array_equal(a, b) for a, b in zip(first.noises, second.noises))

    def test_tau_overflowing_float32_writes_nothing(self, tmp_path):
        """At tau 1e308 the off-label noise overflows the float32 payload."""
        out = tmp_path / "inv"
        assert run("invert", "--grid", "demo:scene-a", "--out", out, "--tau", "1e308") == (
            EXIT_VALIDATION
        )
        assert not (out / "noise.nsn").exists()

    def test_huge_tau_replays_from_disk(self, tmp_path, default_params):
        out = tmp_path / "inv"
        assert run("invert", "--grid", "demo:scene-a", "--out", out, "--tau", "1e30") == EXIT_OK
        noise_set, _ = read_noise_set(out / "noise.nsn")
        assert noise_set.tau == 1e30
        grid, _, _ = demo_scene("scene-a", default_params)
        source = encode(grid, default_params.codebook, default_params.schedule)
        cond = condition_embed(noise_set.condition_label, default_params)
        replayed = inversion.reconstruct_from_noise(noise_set, cond, default_params)
        assert all(np.array_equal(a, b) for a, b in zip(replayed, source))


class TestEdit:
    def test_regen_no_scales(self, tmp_path, default_params):
        out = tmp_path / "ed"
        assert (
            run(
                "edit", "--grid", "demo:scene-a", "--mode", "regen",
                "--start-scale", 6, "--out", out,
            )
            == EXIT_OK
        )
        grid, _, _ = demo_scene("scene-a", default_params)
        expected = decode(
            encode(grid, default_params.codebook, default_params.schedule),
            default_params.codebook,
            default_params.schedule,
        )
        edited, _ = read_grid(out / "edited.nsg")
        assert np.array_equal(edited, expected.astype("<f4").astype(np.float64))

    def test_lambda_zero_matches_regen_payloads(self, tmp_path):
        v, r = tmp_path / "v", tmp_path / "r"
        assert (
            run(
                "edit", "--grid", "demo:scene-a", "--mode", "varin", "--auto-invert",
                "--lambda", "0.0", "--seed", 7, "--out", v,
            )
            == EXIT_OK
        )
        assert (
            run("edit", "--grid", "demo:scene-a", "--mode", "regen", "--seed", 7, "--out", r)
            == EXIT_OK
        )
        pv, _, _ = read_pyramid(v / "edited.nsp")
        pr, _, _ = read_pyramid(r / "edited.nsp")
        assert all(np.array_equal(a, b) for a, b in zip(pv, pr))
        gv, _ = read_grid(v / "edited.nsg")
        gr, _ = read_grid(r / "edited.nsg")
        assert np.array_equal(gv, gr)

    def test_noise_vocab_mismatch_is_validation_error(self, tmp_path):
        noise = tmp_path / "inv"
        assert run("invert", "--grid", "demo:scene-a", "--out", noise) == EXIT_OK
        cfg_path = tmp_path / "vocab32.ini"
        cfg_path.write_text("[codec]\nvocab = 32\n")
        assert (
            run(
                "edit", "--config", cfg_path, "--grid", "demo:scene-a", "--mode", "varin",
                "--noise", noise / "noise.nsn", "--out", tmp_path / "ed",
            )
            == EXIT_VALIDATION
        )

    def test_nan_noise_map_is_io_error(self, tmp_path):
        """A NaN noise map must not reach the edit: at lambda = 1 it would
        silently replace the replayed source tokens of its scale."""
        inv = tmp_path / "inv"
        assert run("invert", "--grid", "demo:scene-a", "--out", inv) == EXIT_OK
        data = bytearray((inv / "noise.nsn").read_bytes())
        scale5, scale4 = 4 * 16 * 16 * 64, 4 * 8 * 8 * 64
        data[-scale5 - scale4 : -scale5] = struct.pack("<f", np.nan) * (scale4 // 4)
        bad = tmp_path / "bad.nsn"
        bad.write_bytes(bytes(data))
        out = tmp_path / "ed"
        assert (
            run(
                "edit", "--grid", "demo:scene-a", "--mode", "varin", "--noise", bad,
                "--lambda", "1", "--start-scale", 1, "--out", out,
            )
            == EXIT_IO
        )
        assert not (out / "edited.nsp").exists()

    def test_nan_in_lambda_zero_map_is_io_error(self, tmp_path):
        """The linear lambda is 0 at scale 5, whose map the edit does not
        mix in; the file is still read and checked in full."""
        inv = tmp_path / "inv"
        assert run("invert", "--grid", "demo:scene-a", "--out", inv) == EXIT_OK
        data = bytearray((inv / "noise.nsn").read_bytes())
        data[-4:] = struct.pack("<f", np.nan)
        bad = tmp_path / "bad.nsn"
        bad.write_bytes(bytes(data))
        out = tmp_path / "ed"
        assert (
            run("edit", "--grid", "demo:scene-a", "--noise", bad, "--lambda", "linear", "--out", out)
            == EXIT_IO
        )
        assert not (out / "edited.nsp").exists()

    def test_missing_noise_is_validation_error(self, tmp_path):
        assert (
            run("edit", "--grid", "demo:scene-a", "--mode", "varin", "--out", tmp_path / "x")
            == EXIT_VALIDATION
        )

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                run(
                    "edit", "--grid", "demo:scene-a", "--mode", "varin",
                    "--auto-invert", "--seed", 9, "--out", out,
                )
                == EXIT_OK
            )
        assert tree_bytes(a) == tree_bytes(b)

    def test_matches_library(self, tmp_path, default_params):
        from invnoise.editing import EditConfig, edit_with_inverse_noise

        out = tmp_path / "ed"
        assert (
            run(
                "edit", "--grid", "demo:scene-a", "--mode", "varin",
                "--auto-invert", "--seed", 12, "--out", out,
            )
            == EXIT_OK
        )
        grid, _, scene = demo_scene("scene-a", default_params)
        cfg = EditConfig(
            source_label=scene.source_label, target_label=scene.target_label, seed=12
        )
        result = edit_with_inverse_noise(grid, cfg, default_params)
        edited, _, _ = read_pyramid(out / "edited.nsp")
        assert all(np.array_equal(a, b) for a, b in zip(edited, result.pyramid))
        edited_grid, _ = read_grid(out / "edited.nsg")
        assert np.array_equal(edited_grid, result.grid.astype("<f4").astype(np.float64))

    def test_target_only_mode_runs(self, tmp_path):
        out = tmp_path / "t"
        assert (
            run(
                "edit", "--grid", "demo:scene-a", "--mode", "target-only",
                "--auto-invert", "--seed", 2, "--out", out,
            )
            == EXIT_OK
        )
        edited, _, _ = read_pyramid(out / "edited.nsp")
        assert len(edited) == 5


def sweep_config(tmp_path, parameter, values, mode="varin", seeds="0:8", context=None):
    context_line = f"context = {context}\n" if context else ""
    text = (
        "[edit]\n"
        "source = red brick house among pines\n"
        "target = blue glass tower among pines\n"
        f"mode = {mode}\n"
        f"{context_line}"
        "[sweep]\n"
        f"parameter = {parameter}\n"
        f"values = {values}\n"
        f"seeds = {seeds}\n"
    )
    path = tmp_path / f"sweep_{parameter}.ini"
    path.write_text(text)
    return path


def mean_rows(csv_path, metric):
    out = {}
    for line in csv_path.read_text().splitlines()[1:]:
        digest, seed, name, scope, value = line.split(",")
        if seed == "mean" and name == metric:
            out[scope] = float(value)
    return out


SWEEP_VALUES = {"tau": "20,14,18", "lambda": "0.0,0.5,1.0", "start_scale": "1,3,5"}
SWEEP_CASES = [
    (parameter, mode, None)
    for parameter in ("tau", "lambda", "start_scale")
    for mode in ("varin", "target-only", "regen")
] + [("tau", "varin", "source-prefix")]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestSweep:
    @pytest.mark.parametrize("parameter,mode,context", SWEEP_CASES)
    def test_parallel_equals_serial(self, tmp_path, parameter, mode, context):
        cfg = sweep_config(
            tmp_path, parameter, SWEEP_VALUES[parameter], mode=mode, seeds="0:3",
            context=context,
        )
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run("sweep", "--config", cfg, "--out", serial) == EXIT_OK
        assert run("sweep", "--config", cfg, "--out", parallel, "--workers", 2) == EXIT_OK
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("demo.ini", "13cf58095c2e3e7f9293fe99c722d13c1c715a2c1d5bbb1dc554e6a1ea7a54b6"),
            ("regen-sweep.ini", "cd57a0c297f7ca9c151bdfcd17e47da9e3d90247c745c217fdf0de76a14f7708"),
        ],
    )
    def test_bundled_config_output_pinned(self, tmp_path, name, digest):
        """The bundled sweeps reproduce their recorded sweep.csv byte for
        byte, serially and with two worker processes."""
        for workers in (1, 2):
            out = tmp_path / f"s{workers}"
            assert (
                run("sweep", "--config", CONFIGS / name, "--out", out, "--workers", workers)
                == EXIT_OK
            )
            assert sha256(out / "sweep.csv") == digest

    def test_setup_once_and_inversion_draws_once_per_seed(self, tmp_path, monkeypatch):
        """V values x S seeds build the params and the scene once, and draw
        the off-label inversion uniforms of each edited scale whose lambda
        is not 0 once per seed: the seeds drawn per scale (the size of the
        seed argument) add up to S.  Scales below the start scale are
        copied, and the linear lambda is 0 at the last scale, which takes
        no inverse noise, so none are drawn there."""
        calls = {"params": 0, "scene": 0, "trunc": 0}
        build_params = ExperimentConfig.build_params
        demo_scene_fn = demo.demo_scene
        uniform_values = inversion.uniform_values

        def counted_params(self):
            calls["params"] += 1
            return build_params(self)

        def counted_scene(*args, **kwargs):
            calls["scene"] += 1
            return demo_scene_fn(*args, **kwargs)

        def counted_uniforms(seed, purpose, *rest):
            if purpose == PURPOSE_TRUNC_DRAW:
                calls["trunc"] += np.size(seed)
            return uniform_values(seed, purpose, *rest)

        monkeypatch.setattr(ExperimentConfig, "build_params", counted_params)
        monkeypatch.setattr(demo, "demo_scene", counted_scene)
        monkeypatch.setattr(inversion, "uniform_values", counted_uniforms)
        values, seeds, num_scales = 3, 2, 5
        mixed_scales = num_scales - default_start_scale(num_scales)
        cfg = sweep_config(tmp_path, "tau", "14,18,20", seeds=f"0:{seeds}")
        assert run("sweep", "--config", cfg, "--out", tmp_path / "s") == EXIT_OK
        assert calls == {"params": 1, "scene": 1, "trunc": seeds * mixed_scales}
        rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == (values * seeds + values) * 6

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        cfg = sweep_config(tmp_path, "tau", "14", seeds="0:2")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out, "--workers", workers) == EXIT_VALIDATION
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("workers,seeds,started", [(64, 3, [3]), (2, 3, [2]), (5, 1, [])])
    def test_workers_capped_at_seed_count(self, tmp_path, monkeypatch, workers, seeds, started):
        """No process is started here: the pool only records its size."""
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        cfg = sweep_config(tmp_path, "lambda", "0.5", mode="regen", seeds=f"0:{seeds}")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out, "--workers", workers) == EXIT_OK
        assert _RecordingPool.sizes == started
        serial = tmp_path / "serial"
        assert run("sweep", "--config", cfg, "--out", serial) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["varin", "regen"])
    def test_five_seeds_parallel_equals_serial(self, tmp_path, mode):
        """Five seeds run as chunks of 2, 2 and 1, in the calling process or
        over two workers; the rows come back in the same order."""
        cfg = sweep_config(tmp_path, "tau" if mode == "varin" else "start_scale", "2,4",
                           mode=mode, seeds="3:8")
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run("sweep", "--config", cfg, "--out", serial) == EXIT_OK
        assert run("sweep", "--config", cfg, "--out", parallel, "--workers", 2) == EXIT_OK
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
        rows = (serial / "sweep.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"3", "4", "5", "6", "7", "mean"}

    def test_seed_option_rejected(self, tmp_path, capsys):
        """The seeds of a sweep come from [sweep] seeds; --seed is not an option."""
        cfg = sweep_config(tmp_path, "tau", "14", seeds="0:2")
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--config", cfg, "--out", out, "--seed", 5)
        assert exc.value.code == EXIT_VALIDATION
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "seeds", ["18446744073709551616", "-1,18446744073709551615", "0,-3", "5:18446744073709551617"]
    )
    def test_seeds_outside_uint64_rejected(self, tmp_path, seeds):
        cfg = sweep_config(tmp_path, "tau", "14", seeds=seeds)
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out) == EXIT_VALIDATION
        assert not (out / "sweep.csv").exists()

    def test_largest_seed_accepted(self, tmp_path):
        cfg = sweep_config(tmp_path, "lambda", "0.5", mode="regen", seeds="18446744073709551615")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out) == EXIT_OK
        assert ",18446744073709551615,mse," in (out / "sweep.csv").read_text()

    def test_tau_sweep_direction_and_parallel_equality(self, tmp_path):
        cfg = sweep_config(tmp_path, "tau", "14,16,18,20")
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run("sweep", "--config", cfg, "--out", serial) == EXIT_OK
        assert run("sweep", "--config", cfg, "--out", parallel, "--workers", 2) == EXIT_OK
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
        means = mean_rows(serial / "sweep.csv", "bg_mse")
        ordered = [means[f"tau={v!r}"] for v in (14.0, 16.0, 18.0, 20.0)]
        assert all(b <= a for a, b in zip(ordered, ordered[1:]))

    def test_start_scale_sweep_direction(self, tmp_path):
        cfg = sweep_config(tmp_path, "start_scale", "2,3,4", mode="regen")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out) == EXIT_OK
        means = mean_rows(out / "sweep.csv", "psnr")
        ordered = [means[f"start_scale={v!r}"] for v in (2.0, 3.0, 4.0)]
        assert all(b >= a for a, b in zip(ordered, ordered[1:]))

    def test_empty_values_rejected_without_output(self, tmp_path):
        cfg = sweep_config(tmp_path, "tau", "")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out) == EXIT_VALIDATION
        assert not (out / "sweep.csv").exists()

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg = sweep_config(tmp_path, "gamma", "1,2")
        assert run("sweep", "--config", cfg, "--out", tmp_path / "s") == EXIT_VALIDATION

    def test_fractional_start_scale_rejected(self, tmp_path):
        cfg = sweep_config(tmp_path, "start_scale", "2,2.5", mode="regen")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out) == EXIT_VALIDATION
        assert not (out / "sweep.csv").exists()


class TestSeedRange:
    """Seeds are integers in [0, 2^64): anything else is a validation error."""

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_edit_seed_option(self, tmp_path, seed):
        out = tmp_path / "e"
        assert run("edit", "--auto-invert", "--seed", seed, "--out", out) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_edit_seed_key(self, tmp_path, seed):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[edit]\nseed = {seed}\n")
        assert run("invert", "--config", cfg, "--out", tmp_path / "i") == EXIT_VALIDATION

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "e"
        seed = 2**64 - 1
        assert run("edit", "--auto-invert", "--seed", seed, "--out", out) == EXIT_OK
        assert read_pyramid(out / "edited.nsp")[2].seed == seed


class TestRender:
    def test_grid_and_pyramid(self, tmp_path):
        enc = tmp_path / "enc"
        assert run("encode", "--grid", "demo:scene-a", "--out", enc) == EXIT_OK
        ren = tmp_path / "ren"
        assert run("render", "--in", enc / "pyramid.nsp", "--out", ren) == EXIT_OK
        assert run("render", "--in", enc / "recon.nsg", "--out", ren) == EXIT_OK
        assert len(list(ren.glob("pyramid.scale*.pgm"))) == 5
        assert len(list(ren.glob("recon.ch*.pgm"))) == 4

    def test_render_twice_identical(self, tmp_path):
        enc = tmp_path / "enc"
        assert run("encode", "--grid", "demo:scene-a", "--out", enc) == EXIT_OK
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("render", "--in", enc / "pyramid.nsp", "--out", a) == EXIT_OK
        assert run("render", "--in", enc / "pyramid.nsp", "--out", b) == EXIT_OK
        assert tree_bytes(a) == tree_bytes(b)

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("render", "--in", tmp_path / "nope.nsg", "--out", tmp_path) == EXIT_IO

    def test_huge_grid_header_is_io_error(self, tmp_path):
        path = tmp_path / "huge.nsg"
        write_grid(path, np.zeros((4, 2, 2)))
        data = bytearray(path.read_bytes())
        data[32:44] = b"\xff" * 12
        path.write_bytes(bytes(data))
        assert run("render", "--in", path, "--out", tmp_path / "r") == EXIT_IO


    def test_nan_grid_is_io_error(self, tmp_path):
        path = tmp_path / "nan.nsg"
        write_grid(path, np.zeros((4, 2, 2)))
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(data))
        out = tmp_path / "r"
        assert run("render", "--in", path, "--out", out) == EXIT_IO
        assert not list(out.glob("*.pgm"))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "c.ini"
        path.write_text(render_config(cfg))
        assert load_config(path) == cfg

    def test_digest_tracks_content(self):
        from dataclasses import replace

        cfg = ExperimentConfig()
        other = replace(cfg, edit=replace(cfg.edit, seed=1))
        assert config_digest(cfg) != config_digest(other)

    def test_malformed_config_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[edit\nsource = x\n")
        assert run("encode", "--config", path, "--out", tmp_path / "o") == EXIT_VALIDATION

    def test_non_utf8_config_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe")
        assert run("encode", "--config", path, "--out", tmp_path / "o") == EXIT_VALIDATION

    @pytest.mark.parametrize("setting", ["beta = 1e308", "cond_gain = 1e300"])
    @pytest.mark.parametrize(
        "command",
        [
            ["encode"],
            ["invert"],
            ["edit", "--mode", "regen"],
            ["edit", "--auto-invert"],
            ["edit", "--mode", "target-only", "--auto-invert"],
            ["edit", "--noise"],
            ["sweep"],
        ],
    )
    def test_overflowing_logits_are_validation_error(self, tmp_path, setting, command):
        """Every command that computes logits (encode builds the demo
        scene) exits 2 with no numpy warning when the predictor params
        let them overflow."""
        if command == ["edit", "--noise"]:
            assert run("invert", "--out", tmp_path / "n") == EXIT_OK
            command = command + [tmp_path / "n" / "noise.nsn"]
        path = tmp_path / "big.ini"
        path.write_text(f"[predictor]\n{setting}\n\n[sweep]\nparameter = tau\nvalues = 18\nseeds = 0:2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*command, "--config", path, "--out", tmp_path / "o") == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dim", [0, -2])
    def test_codebook_dim_below_one_is_validation_error(self, tmp_path, dim):
        path = tmp_path / "dim.ini"
        path.write_text(f"[codec]\ndim = {dim}\n")
        assert run("encode", "--config", path, "--out", tmp_path / "o") == EXIT_VALIDATION
