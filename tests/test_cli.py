"""CLI harness: end-to-end commands, exit codes, byte-level determinism."""

import concurrent.futures
import hashlib
import os
import struct
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invnoise import _blocks, cli, config, demo, editing, inversion, metrics
from invnoise.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from invnoise.codec import decode, encode
from invnoise.config import ExperimentConfig, config_digest, load_config, render_config
from invnoise.demo import demo_scene
from invnoise.editing import EditConfig, SeedSweep, default_start_scale, seed_chunk_width
from invnoise.errors import ValidationError
from invnoise.fileio import read_grid, read_noise_set, read_pyramid, write_grid
from invnoise.predictor import condition_embed
from invnoise.rng import PURPOSE_TRUNC_DRAW

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(*argv):
    return main([str(a) for a in argv])


# every command, as run with a config
EVERY_COMMAND = [
    ["encode"],
    ["invert"],
    ["edit", "--mode", "regen"],
    ["edit", "--auto-invert"],
    ["sweep"],
    ["render", "--in"],
]


def run_with_config(tmp_path, command, cfg, out):
    """``command`` with ``--config cfg --out out``; ``render`` renders a
    small grid."""
    if command == ["render", "--in"]:
        write_grid(tmp_path / "g.nsg", np.zeros((4, 2, 2)))
        command = command + [tmp_path / "g.nsg"]
    return run(*command, "--config", cfg, "--out", out)


def assert_every_command_rejects(tmp_path, cfg):
    """Every command exits 2 on ``cfg`` and writes nothing."""
    for command in EVERY_COMMAND:
        out = tmp_path / "o"
        assert run_with_config(tmp_path, command, cfg, out) == EXIT_VALIDATION, command
        assert not out.exists(), command


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
        scores = metrics.Scorer(grid).score(recon)
        assert {key: by_metric[key] for key in scores} == scores

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

    @pytest.mark.parametrize("mode", ["varin", "target-only"])
    def test_auto_invert_tau_overflowing_float32_is_validation_error(self, tmp_path, mode):
        """Noise near -1e308 does not fit in float32, in memory as on disk."""
        out = tmp_path / "ed"
        assert (
            run(
                "edit", "--grid", "demo:scene-a", "--mode", mode, "--auto-invert",
                "--tau", "1e308", "--out", out,
            )
            == EXIT_VALIDATION
        )
        assert not (out / "edited.nsp").exists()

    @pytest.mark.parametrize(
        "condition,grid,mode,code",
        [
            ("target", "demo:scene-b", "varin", EXIT_VALIDATION),
            ("target", "demo:scene-a", "varin", EXIT_VALIDATION),
            ("source", "demo:scene-a", "target-only", EXIT_VALIDATION),
            ("source", "demo:scene-a", "varin", EXIT_OK),
            ("target", "demo:scene-a", "target-only", EXIT_OK),
        ],
    )
    def test_noise_label_checked_against_mode(self, tmp_path, condition, grid, mode, code):
        """varin mixes noise inverted under the source label, target-only
        under the target label; a file inverted under another cannot mean
        what the mode says.  Another seed and tau are fine."""
        inv = tmp_path / "inv"
        assert (
            run(
                "invert", "--grid", "demo:scene-a", "--condition", condition,
                "--tau", 3, "--seed", 5, "--out", inv,
            )
            == EXIT_OK
        )
        out = tmp_path / "ed"
        assert (
            run(
                "edit", "--grid", grid, "--mode", mode, "--noise", inv / "noise.nsn",
                "--seed", 9, "--out", out,
            )
            == code
        )
        assert (out / "edited.nsp").exists() == (code == EXIT_OK)

    @pytest.mark.parametrize("scene", ["scene-a", "scene-b"])
    @pytest.mark.parametrize("mode", ["varin", "target-only"])
    def test_auto_invert_equals_noise_file(self, tmp_path, mode, scene):
        """The noise file gives the same edit as inverting in memory: at
        lambda 1 from scale 1 and tau 0, where every scale replays the
        inverted noise's thinnest margins, and with tau and lambda left at
        their defaults, where `invert` takes the margin of the mode."""
        condition = "source" if mode == "varin" else "target"
        cases = {
            "thin": (["--seed", 4, "--tau", 0], ["--lambda", 1, "--start-scale", 1]),
            "defaults": (["--seed", 3], []),
        }
        for name, (common, options) in cases.items():
            common = ["--grid", f"demo:{scene}", *common]
            edit = ["edit", *common, "--mode", mode, *options]
            inv, auto, file = (tmp_path / f"{name}-{step}" for step in ("inv", "auto", "file"))
            assert run("invert", *common, "--condition", condition, "--out", inv) == EXIT_OK
            assert run(*edit, "--auto-invert", "--out", auto) == EXIT_OK
            assert run(*edit, "--noise", inv / "noise.nsn", "--out", file) == EXIT_OK
            assert (auto / "edited.nsp").read_bytes() == (file / "edited.nsp").read_bytes(), name

    def test_noise_with_auto_invert_rejected(self, tmp_path):
        """--noise and --auto-invert exclude each other: neither wins."""
        out = tmp_path / "ed"
        with pytest.raises(SystemExit) as exc:
            run("edit", "--noise", tmp_path / "noise.nsn", "--auto-invert", "--out", out)
        assert exc.value.code == EXIT_VALIDATION
        assert not out.exists()

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

    def test_mask_file_scores_as_the_scorer(self, tmp_path, default_params):
        """--mask FILE takes the file's first channel: nonzero cells are
        the edit region."""
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, :8] = True
        path = tmp_path / "mask.nsg"
        write_grid(path, np.stack([mask, ~mask, mask, ~mask]).astype(float))
        out = tmp_path / "ed"
        options = ["--mode", "regen", "--start-scale", 3, "--seed", 4]
        assert run("edit", *options, "--mask", path, "--out", out) == EXIT_OK
        grid, _, scene = demo_scene("scene-a", default_params)
        result = editing.edit_regeneration(grid, scene.target_label, 3, default_params, 4)
        scores = metrics.Scorer(grid, mask).score(result.grid)
        rows = {
            key: metric_values(out / "edit_metrics.csv", 4, scope)[metric]
            for key, (metric, scope) in cli._QUALITY_ROWS.items()
        }
        assert rows == {key: repr(value) for key, value in scores.items()}

    @pytest.mark.parametrize(
        "mask", [np.ones((4, 16, 16)), np.zeros((4, 8, 8))], ids=["all-ones", "wrong-shape"]
    )
    def test_bad_mask_file_writes_nothing(self, tmp_path, mask):
        path = tmp_path / "mask.nsg"
        write_grid(path, mask)
        out = tmp_path / "ed"
        assert run("edit", "--auto-invert", "--mask", path, "--out", out) == EXIT_VALIDATION
        assert not out.exists()

    def test_all_zero_mask_file_leaves_every_cell_background(self, tmp_path):
        """scene-a at seed 0, whose whole-grid and cell-by-cell MSE sums
        differ in the last bit, writes the background rows as the whole
        grid's."""
        path = tmp_path / "mask.nsg"
        write_grid(path, np.zeros((4, 16, 16)))
        out = tmp_path / "ed"
        assert run("edit", "--auto-invert", "--grid", "demo:scene-a", "--seed", 0,
                   "--mask", path, "--out", out) == EXIT_OK
        assert_background_is_whole(out / "edit_metrics.csv")


@pytest.mark.parametrize(
    "command",
    [["encode"], ["invert"], ["edit", "--auto-invert"], ["edit", "--auto-invert", "--mask", "none"]],
)
def test_small_schedule_demo_scene(tmp_path, command):
    """On a 1x1,2x2 schedule the scene-a disc holds no cell.  No command
    rejects the scene for it, and the edit with the default mask scores
    every cell as background."""
    cfg = tmp_path / "small.ini"
    cfg.write_text("[codec]\nschedule = 1x1,2x2\n")
    out = tmp_path / "o"
    assert run(*command, "--grid", "demo:scene-a", "--config", cfg, "--out", out) == EXIT_OK
    if command == ["edit", "--auto-invert"]:
        assert_background_is_whole(out / "edit_metrics.csv")


def assert_background_is_whole(csv_path):
    """The background MSE and PSNR rows of seed 0 are the whole grid's."""
    background = metric_values(csv_path, 0, "background")
    whole = metric_values(csv_path, 0, "whole")
    assert (background["mse"], background["psnr"]) == (whole["mse"], whole["psnr"])


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


def count_thread_starts(monkeypatch):
    """A list that records every thread started from now on."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "--grid", "demo:scene-a"],
        ["edit", "--grid", "demo:scene-b", "--auto-invert"],
        ["sweep", "--config", CONFIGS / "demo.ini"],
    ],
    ids=["invert", "edit-auto-invert", "demo-sweep"],
)
def test_desk_commands_start_no_thread(tmp_path, monkeypatch, argv):
    """Desk arrays stay below the threaded size: no command at 16x16,
    vocab 64, starts a thread."""
    started = count_thread_starts(monkeypatch)
    running = threading.active_count()
    assert run(*argv, "--out", tmp_path / "o") == EXIT_OK
    assert started == []
    assert threading.active_count() == running


# SHA-256 of the stress-scale scene-a files at seed 0, by inversion margin
STRESS_DIGESTS = {
    18.0: {
        "noise.nsn": "2d7b67d24b02c688c0e19c029440f878756886491e37d10cc24a9b3e5c9970b8",
        "edited.nsp": "2189254f832d9d1fdc1a621fcf5904ddeb30443724eab8e7104af6e2a7527a54",
        "edit_metrics.csv": "bc3baf503608d90849b3f96d66e98acea44331b001e47f65603f292780027a78",
    },
    0.0: {
        "noise.nsn": "210fbd219ff35e9a0dc0b749c60ea29069f38926ba0e078f26b98e42d454c730",
        "edited.nsp": "0f3e1767b729ee2151669eedb54a688c33827154c64df9fcdcb25a81807bffe9",
        "edit_metrics.csv": "842d4b17694048c06666ff8d94832ad1e8b7ba66c3dc36e1a4d0fd82c62af041",
    },
}


def assert_stress_output_pinned(tmp_path, monkeypatch):
    """`invert` and `edit --noise` of stress-scale scene-a at seed 0 give
    the files of STRESS_DIGESTS, each noise file replays the source
    tokens, threads start only on more than one, and none outlives its
    command."""
    started = count_thread_starts(monkeypatch)
    running = threading.active_count()
    scene = demo.scene_record("scene-a")
    cfg = tmp_path / "stress.ini"
    cfg.write_text(
        "[codec]\nvocab = 512\nschedule = 1x1,2x2,4x4,8x8,16x16,32x32,64x64\n\n"
        f"[edit]\nsource = {scene.source_label}\ntarget = {scene.target_label}\n"
    )
    params = load_config(cfg).build_params()
    grid_path = tmp_path / "scene-a.nsg"
    grid = demo_scene("scene-a", params)[0]
    write_grid(grid_path, grid)
    source = encode(grid, params.codebook, params.schedule)
    cond = condition_embed(scene.source_label, params)
    for tau, digests in STRESS_DIGESTS.items():
        out = tmp_path / f"t{tau}"
        common = ["--config", cfg, "--grid", grid_path, "--seed", 0, "--out", out]
        assert run("invert", *common, "--tau", tau) == EXIT_OK
        noise_set, _ = read_noise_set(out / "noise.nsn")
        replayed = inversion.reconstruct_from_noise(noise_set, cond, params)
        assert all(np.array_equal(a, b) for a, b in zip(replayed, source, strict=True))
        assert run("edit", *common, "--mode", "varin", "--noise", out / "noise.nsn",
                   "--lambda", "linear", "--mask", "demo:scene-a") == EXIT_OK
        assert {name: sha256(out / name) for name in digests} == digests
    assert bool(started) == (_blocks.THREADS > 1)
    assert threading.active_count() == running


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    initializer, runs serially."""

    sizes = []
    initializers = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)
        self.initializers.append(initializer)

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

    def test_stress_output_pinned(self, tmp_path, monkeypatch):
        """At stress scale (64x64, vocab 512, 7 scales) `invert` and
        `edit --noise` of scene-a reproduce their recorded files byte for
        byte on the default thread count, at a wide and a zero margin,
        and each noise file replays the source tokens from disk."""
        assert_stress_output_pinned(tmp_path, monkeypatch)

    def test_stress_output_pinned_on_one_thread(self, tmp_path, monkeypatch):
        """The same files, byte for byte, with every loop on one thread."""
        monkeypatch.setattr(_blocks, "THREADS", 1)
        assert_stress_output_pinned(tmp_path, monkeypatch)

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scoring_once_per_chunk(self, tmp_path, monkeypatch, workers):
        """One score_many call per chunk of seeds scores every value at
        every seed of the chunk, and nothing else is scored.  The chunks
        run in this process: the pool only records its size."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(_RecordingPool, "initializers", [])
        batches = []
        score_many = metrics.Scorer.score_many

        def counted(self, grids):
            batches.append(len(grids))
            return score_many(self, grids)

        monkeypatch.setattr(metrics.Scorer, "score_many", counted)
        cfg = sweep_config(tmp_path, "tau", "14,18,20", seeds="0:5")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out, "--workers", workers) == EXIT_OK
        width = min(seed_chunk_width(ExperimentConfig().build_params()), -(-5 // workers))
        assert batches == [3 * len(range(i, min(i + width, 5))) for i in range(0, 5, width)]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        cfg = sweep_config(tmp_path, "tau", "14", seeds="0:2")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out, "--workers", workers) == EXIT_VALIDATION
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("workers,seeds,started", [(64, 3, [3]), (2, 3, [2]), (5, 1, [])])
    def test_workers_capped_at_seed_count(self, tmp_path, monkeypatch, workers, seeds, started):
        """No process is started here: the pool only records its size and
        its initializer, which runs each worker's kernels on one thread."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(_RecordingPool, "initializers", [])
        cfg = sweep_config(tmp_path, "lambda", "0.5", mode="regen", seeds=f"0:{seeds}")
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--out", out, "--workers", workers) == EXIT_OK
        assert _RecordingPool.sizes == started
        assert _RecordingPool.initializers == [_blocks.one_thread] * len(started)
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

    # [sweep] is checked when the config loads, so every command, whether
    # it sweeps or not, rejects a bad one

    def test_empty_values_rejected_without_output(self, tmp_path):
        assert_every_command_rejects(tmp_path, sweep_config(tmp_path, "tau", ""))

    def test_unknown_parameter_rejected(self, tmp_path):
        assert_every_command_rejects(tmp_path, sweep_config(tmp_path, "gamma", "1,2"))

    def test_fractional_start_scale_rejected(self, tmp_path):
        cfg = sweep_config(tmp_path, "start_scale", "2,2.5", mode="regen")
        assert_every_command_rejects(tmp_path, cfg)

    @pytest.mark.parametrize("parameter,values", [("tau", "-1"), ("lambda", "7"), ("start_scale", "0")])
    def test_bad_value_rejected(self, tmp_path, parameter, values):
        """Each sweep value is checked as the edit config it makes."""
        assert_every_command_rejects(tmp_path, sweep_config(tmp_path, parameter, values))

    def test_start_scale_beyond_schedule_left_to_the_edit(self, tmp_path):
        """Start scale K + 1 is valid for regeneration alone, which a
        --mode override can choose after load, so the edit checks it."""
        cfg = sweep_config(tmp_path, "start_scale", "6", seeds="0:2")
        assert run("edit", "--config", cfg, "--mode", "regen", "--out", tmp_path / "e") == EXIT_OK
        assert run("sweep", "--config", cfg, "--out", tmp_path / "v") == EXIT_VALIDATION
        cfg = sweep_config(tmp_path, "start_scale", "6", mode="regen", seeds="0:2")
        assert run("sweep", "--config", cfg, "--out", tmp_path / "r") == EXIT_OK

    def test_seed_range_too_wide_for_a_tuple_rejected(self, tmp_path):
        cfg = sweep_config(tmp_path, "tau", "14", seeds="0:18446744073709551616")
        out = tmp_path / "o"
        assert run("encode", "--config", cfg, "--out", out) == EXIT_VALIDATION
        assert not out.exists()

    def test_seed_range_width_checked_before_it_is_built(self, tmp_path):
        """A range inside [0, 2^64) but wider than 2^20 seeds is rejected
        by its width alone, without building it."""
        assert_every_command_rejects(
            tmp_path, sweep_config(tmp_path, "tau", "14", seeds="0:1099511627776")
        )

    def test_seed_range_limit_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(config, "SEED_RANGE_LIMIT", 4)
        cfg = load_config(sweep_config(tmp_path, "tau", "14", seeds="3:7"))
        assert cfg.sweep.seeds == (3, 4, 5, 6)
        with pytest.raises(ValidationError, match="more than 4 seeds"):
            load_config(sweep_config(tmp_path, "tau", "14", seeds="3:8"))

    def test_configs_follow_the_final_edit(self, tmp_path):
        """The sweep's edit configs derive from the config's edit as built,
        so an edit replaced by flag overrides or a demo scene's labels
        reaches them."""
        cfg = load_config(sweep_config(tmp_path, "lambda", "0.25,0.5"))
        assert [c.lambda_value for c in cfg.sweep_configs] == [0.25, 0.5]
        edit = replace(cfg.edit, tau=3.0, source_label="a")
        assert replace(cfg, edit=edit).sweep_configs == (
            replace(edit, lambda_kind="constant", lambda_value=0.25),
            replace(edit, lambda_kind="constant", lambda_value=0.5),
        )


def metric_values(csv_path, seed, scope):
    """{name: value text} of one seed's rows at one scope of a metrics CSV."""
    rows = (line.split(",") for line in csv_path.read_text().splitlines()[1:])
    return {name: value for _, row_seed, name, row_scope, value in rows
            if row_seed == str(seed) and row_scope == scope}


# edit_metrics.csv (metric, scope) of each sweep.csv metric
EDIT_ROWS = {**cli._QUALITY_ROWS, "token_change": ("token_change", "overall")}


@pytest.mark.parametrize(
    "name,parameter,flag",
    [
        ("demo.ini", "tau", "--tau"),
        ("regen-sweep.ini", "start_scale", "--start-scale"),
        ("target-only-lambda", "lambda", "--lambda"),
    ],
)
def test_sweep_rows_equal_single_edits(tmp_path, name, parameter, flag):
    """Every metric of a sweep row equals that of `edit` run with the
    row's value, seed and mode (inverting in memory where the mode
    inverts)."""
    seeds = (5, 30)
    if name in ("demo.ini", "regen-sweep.ini"):
        text = (CONFIGS / name).read_text().replace("seeds = 0:32", "seeds = 5,30")
        cfg = tmp_path / name
        cfg.write_text(text)
    else:
        cfg = sweep_config(tmp_path, parameter, SWEEP_VALUES[parameter], mode="target-only",
                           seeds="5,30")
    loaded = load_config(cfg)
    assert loaded.sweep.seeds == seeds
    assert run("sweep", "--config", cfg, "--out", tmp_path / "s") == EXIT_OK
    auto = [] if loaded.edit.mode == "regen" else ["--auto-invert"]
    for value in loaded.sweep.values:
        arg = int(value) if parameter == "start_scale" else value
        for seed in seeds:
            out = tmp_path / f"e-{value}-{seed}"
            assert run("edit", "--config", cfg, "--seed", seed, flag, arg, *auto,
                       "--out", out) == EXIT_OK
            row = metric_values(tmp_path / "s" / "sweep.csv", seed, f"{parameter}={value!r}")
            assert set(row) == set(EDIT_ROWS)
            single = {
                key: metric_values(out / "edit_metrics.csv", seed, scope)[metric]
                for key, (metric, scope) in EDIT_ROWS.items()
            }
            assert row == single, (value, seed)


STRESS_CODEC = "[codec]\nvocab = 512\nschedule = 1x1,2x2,4x4,8x8,16x16,32x32,64x64\n"
# the stress case runs at the thinnest margin alone, to keep its time down
EDIT_PATH_CASES = [
    pytest.param("", (18.0, 0.0), mode, lam, context, scene, id=f"{mode}-{lam}-{context}-{scene}")
    for mode in ("varin", "target-only")
    for lam in ("linear", "0.5")
    for context in ("generated-prefix", "source-prefix")
    for scene in ("scene-a", "scene-b")
] + [pytest.param(STRESS_CODEC, (0.0,), "varin", "linear", "generated-prefix", "scene-a",
                  id="stress")]


@pytest.mark.parametrize("codec,taus,mode,lam,context,scene", EDIT_PATH_CASES)
def test_every_edit_path_agrees(tmp_path, codec, taus, mode, lam, context, scene):
    """At each margin, every path to an edit gives the same tokens, grid
    and metrics: the library single edit, a SeedSweep chunk of two seeds,
    `edit --auto-invert`, `invert` then `edit --noise`, and a `sweep` row,
    serial and over two workers."""
    seeds = (3, 4)
    lambda_keys = "" if lam == "linear" else f"lambda_kind = constant\nlambda_value = {lam}\n"
    cfg_path = tmp_path / "paths.ini"
    cfg_path.write_text(
        f"{codec}[edit]\nmode = {mode}\ncontext = {context}\n{lambda_keys}[sweep]\n"
        f"parameter = tau\nvalues = {','.join(map(str, taus))}\nseeds = 3,4\n"
    )
    cfg = load_config(cfg_path)
    params = cfg.build_params()
    grid, mask, record = demo_scene(scene, params)
    edit = replace(cfg.edit, source_label=record.source_label, target_label=record.target_label)
    configs = [replace(edit, tau=tau) for tau in taus]
    chunk = SeedSweep(grid, configs, params).run(seeds)
    scorer = metrics.Scorer(grid, mask)

    def scores(result):
        values = {**scorer.score(result.grid), "token_change": result.token_change}
        return {key: repr(value) for key, value in values.items()}

    common = ["--config", cfg_path, "--grid", f"demo:{scene}"]
    sweeps = [tmp_path / f"sweep-{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), sweeps):
        assert run("sweep", *common, "--workers", workers, "--out", out) == EXIT_OK
    assert (sweeps[0] / "sweep.csv").read_bytes() == (sweeps[1] / "sweep.csv").read_bytes()
    condition = "target" if mode == "target-only" else "source"
    for j, tau in enumerate(taus):
        for s, seed in enumerate(seeds):
            assert metric_values(sweeps[0] / "sweep.csv", seed, f"tau={tau!r}") == scores(
                chunk[s][j]
            )
        seed = seeds[0]
        if mode == "varin":
            single = editing.edit_with_inverse_noise(grid, replace(configs[j], seed=seed), params)
        else:
            [[single]] = SeedSweep(grid, (configs[j],), params).run((seed,))
        assert all(map(np.array_equal, chunk[0][j].pyramid, single.pyramid))
        assert np.array_equal(chunk[0][j].grid, single.grid)
        options = [*common, "--seed", seed, "--tau", tau]
        auto, inverted, noise = (tmp_path / f"{name}-{tau}" for name in ("auto", "inv", "noise"))
        assert run("edit", *options, "--auto-invert", "--out", auto) == EXIT_OK
        assert run("invert", *options, "--condition", condition, "--out", inverted) == EXIT_OK
        assert run("edit", *options, "--noise", inverted / "noise.nsn", "--out", noise) == EXIT_OK
        for out in (auto, noise):
            assert all(map(np.array_equal, read_pyramid(out / "edited.nsp")[0], single.pyramid))
            assert np.array_equal(
                read_grid(out / "edited.nsg")[0], single.grid.astype("<f4").astype(np.float64)
            )
            single_rows = {
                key: metric_values(out / "edit_metrics.csv", seed, scope)[metric]
                for key, (metric, scope) in EDIT_ROWS.items()
            }
            assert single_rows == scores(single)


def test_import_leaves_out_the_worker_pool():
    """Importing the CLI loads no process pool and no part of
    ``concurrent.futures``: only ``sweep --workers N`` with N > 1 starts
    a pool, and it imports it there; the threads of large scales are
    plain ``threading`` threads."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = (
        "import sys, invnoise.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestSeedRange:
    """Seeds are integers in [0, 2^64): anything else is a validation error."""

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_edit_seed_option(self, tmp_path, seed):
        out = tmp_path / "e"
        assert run("edit", "--auto-invert", "--seed", seed, "--out", out) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,seed",
        [
            pytest.param(section, key, seed, id=seed if key == "seed" else f"{key}={seed}")
            for section, key in [
                ("edit", "seed"), ("codec", "codebook_seed"), ("predictor", "model_seed")
            ]
            for seed in ["18446744073709551616", "-1"]
        ],
    )
    def test_edit_seed_key(self, tmp_path, section, key, seed):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[{section}]\n{key} = {seed}\n")
        assert run("invert", "--config", cfg, "--out", tmp_path / "i") == EXIT_VALIDATION
        assert not (tmp_path / "i").exists()

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


SEEDS = st.integers(0, 2**64 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# text an INI value keeps as it is: one line, no surrounding whitespace;
# "%" drawn often, as interpolation would read it
INI_TEXT = st.text(
    st.just("%") | st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
).map(str.strip)
SWEEP_VALUES_BY_PARAMETER = {
    "": st.just([]),
    "tau": st.lists(st.floats(0, 1e300), min_size=1, max_size=4),
    "start_scale": st.lists(st.integers(1, 8).map(float), min_size=1, max_size=4),
    "lambda": st.lists(st.floats(0, 1), min_size=1, max_size=4),
}


@st.composite
def experiment_configs(draw):
    """A config with every [codec], [predictor], [edit], [sweep] and
    [output] key drawn."""
    parameter = draw(st.sampled_from(sorted(SWEEP_VALUES_BY_PARAMETER)))
    return ExperimentConfig(
        codec=config.CodecSection(
            dim=draw(st.integers(1, 8)),
            vocab=draw(st.integers(2, 1024)),
            schedule=tuple(
                draw(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 64)), min_size=1,
                              max_size=7))
            ),
            codebook_seed=draw(SEEDS),
        ),
        predictor=config.PredictorSection(
            beta=draw(FINITE), cond_gain=draw(FINITE), model_seed=draw(SEEDS)
        ),
        edit=EditConfig(
            source_label=draw(INI_TEXT),
            target_label=draw(INI_TEXT),
            start_scale=draw(st.none() | st.integers(1, 8)),
            tau=draw(st.none() | st.floats(0, 1e300)),
            lambda_kind=draw(st.sampled_from(("linear", "constant"))),
            lambda_value=draw(st.floats(0, 1)),
            seed=draw(SEEDS),
            context_mode=draw(st.sampled_from((editing.CONTEXT_GENERATED, editing.CONTEXT_SOURCE))),
            mode=draw(st.sampled_from(editing.EDIT_MODES)),
        ),
        sweep=config.SweepSection(
            parameter=parameter,
            values=tuple(draw(SWEEP_VALUES_BY_PARAMETER[parameter])),
            seeds=tuple(draw(st.lists(SEEDS, min_size=1, max_size=4))),
        ),
        output_dir=draw(INI_TEXT),
    )


# every [edit] key but the labels off its default
NON_DEFAULT_EDIT = (
    "[edit]\nstart_scale = 3\ntau = 0.0\nlambda_kind = constant\nlambda_value = 0.5\n"
    "context = source-prefix\nmode = target-only\nseed = 7\n"
)


class TestConfig:
    def test_round_trip(self, tmp_path):
        """The default, both bundled and a non-default config survive
        load, render and load unchanged; the canonical text of the
        non-default one keeps its recorded digest."""
        path = tmp_path / "non-default.ini"
        path.write_text(NON_DEFAULT_EDIT)
        non_default = load_config(path)
        default = ExperimentConfig()
        labels = ("source_label", "target_label")
        assert all(
            (getattr(non_default.edit, f.name) == getattr(default.edit, f.name)) == (f.name in labels)
            for f in fields(default.edit)
        )
        bundled = [load_config(CONFIGS / name) for name in ("demo.ini", "regen-sweep.ini")]
        for cfg in (default, *bundled, non_default):
            path.write_text(render_config(cfg))
            assert load_config(path) == cfg
        assert config_digest(non_default).hex() == "2ed94750318a85dc339cb77c0e9166b7"

    @settings(max_examples=60, deadline=None)
    @given(cfg=experiment_configs())
    def test_round_trip_every_key(self, tmp_path_factory, cfg):
        """Any config, labels with "%" included, renders to text that
        loads back to the same config and digest."""
        path = tmp_path_factory.mktemp("round-trip") / "cfg.ini"
        path.write_text(render_config(cfg), encoding="utf-8")
        loaded = load_config(path)
        assert loaded == cfg
        assert config_digest(loaded) == config_digest(cfg)

    @pytest.mark.parametrize(
        "text", ["[edit]\ntua = 5\n", "[edti]\ntau = 5\n", "[DEFAULT]\nseed = 1\n"],
        ids=["key", "section", "default-section"],
    )
    def test_unknown_section_or_key_rejected(self, tmp_path, text):
        """A misspelt section or key is an error on every command, not a
        line the config ignores."""
        path = tmp_path / "typo.ini"
        path.write_text(f"{text}[sweep]\nparameter = tau\nvalues = 18\nseeds = 0:2\n")
        assert_every_command_rejects(tmp_path, path)

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

    @pytest.mark.parametrize(
        "setting",
        ["context = bogus", "lambda_kind = cosine", "lambda_kind = constant\nlambda_value = 7",
         "tau = -1"],
    )
    @pytest.mark.parametrize("command", EVERY_COMMAND)
    def test_bad_edit_setting_is_validation_error(self, tmp_path, setting, command):
        """Every command checks the whole [edit] section, whether it edits
        or not, and writes nothing."""
        path = tmp_path / "bad.ini"
        path.write_text(f"[edit]\n{setting}\n\n[sweep]\nparameter = tau\nvalues = 18\nseeds = 0:2\n")
        assert run_with_config(tmp_path, command, path, tmp_path / "o") == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,dim",
        [
            pytest.param(command, dim, id=str(dim) if command == ["encode"] else f"render-{dim}")
            for command in (["encode"], ["render", "--in"])
            for dim in (0, -2)
        ],
    )
    def test_codebook_dim_below_one_is_validation_error(self, tmp_path, command, dim):
        path = tmp_path / "dim.ini"
        path.write_text(f"[codec]\ndim = {dim}\n")
        assert run_with_config(tmp_path, command, path, tmp_path / "o") == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting", ["[codec]\nvocab = 1", "[predictor]\nbeta = -1"])
    def test_render_checks_codec_and_predictor(self, tmp_path, setting):
        path = tmp_path / "bad.ini"
        path.write_text(f"{setting}\n")
        assert run_with_config(tmp_path, ["render", "--in"], path, tmp_path / "o") == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()
