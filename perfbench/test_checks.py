"""Each output check accepts a real output and rejects a wrong one.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from invnoise import cli, codec, config, demo, editing, fileio, inversion, predictor  # noqa: E402

SWEEP_INI = """\
[edit]
mode = varin

[sweep]
parameter = tau
values = 16,18
seeds = 3:5
"""


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"invnoise {argv} exited {code}")


class CheckTestCase(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        cls.params = config.ExperimentConfig().build_params()
        cls.resolutions = cls.params.schedule.resolutions
        cls.vocab = cls.params.codebook.size
        cls.grid, _, cls.scene = demo.demo_scene("scene-a", cls.params)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def copy(self, name):
        src = self.tmp / name
        dst = self.tmp / f"bad-{name}"
        shutil.copyfile(src, dst)
        return dst

    def rewrite_csv(self, name, edit):
        """Copy a metrics CSV, passing each row through `edit`."""
        lines = (self.tmp / name).read_text().splitlines()
        out = [lines[0]] + [line for line in map(edit, lines[1:]) if line is not None]
        dst = self.tmp / f"bad-{name}"
        dst.write_text("\n".join(out) + "\n")
        return dst


class SweepChecks(CheckTestCase):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        ini = cls.tmp / "sweep.ini"
        ini.write_text(SWEEP_INI)
        run_cli("sweep", "--config", ini, "--out", cls.tmp)
        cls.values, cls.seeds = (16.0, 18.0), range(3, 5)

    def check(self, path):
        return checks.check_sweep_csv(path, "tau", self.values, self.seeds)

    def library_grid(self, tau, seed):
        edit_cfg = editing.EditConfig(self.scene.source_label, self.scene.target_label,
                                      tau=tau, seed=seed)
        return editing.edit_with_inverse_noise(self.grid, edit_cfg, self.params).grid

    def test_real_sweep_passes(self):
        per_seed = self.check(self.tmp / "sweep.csv")
        checks.check_task_quality(per_seed, "tau=18.0", 4, self.library_grid(18.0, 4),
                                  self.grid)

    def test_missing_row_rejected(self):
        bad = self.rewrite_csv("sweep.csv",
                               lambda r: None if ",4,ssim,tau=16.0," in r else r)
        with self.assertRaises(checks.CheckError):
            self.check(bad)

    def test_non_finite_value_rejected(self):
        bad = self.rewrite_csv("sweep.csv", lambda r: r.rsplit(",", 1)[0] + ",nan"
                               if ",3,mse,tau=18.0," in r else r)
        with self.assertRaises(checks.CheckError):
            self.check(bad)

    def test_token_change_out_of_range_rejected(self):
        # keep the mean row consistent so only the range check can fire
        def edit(row):
            if ",token_change,tau=16.0," in row:
                return row.rsplit(",", 1)[0] + ",1.5"
            return row

        with self.assertRaises(checks.CheckError):
            self.check(self.rewrite_csv("sweep.csv", edit))

    def test_wrong_mean_row_rejected(self):
        def edit(row):
            if ",mean,psnr,tau=16.0," in row:
                head, value = row.rsplit(",", 1)
                return f"{head},{float(value) * (1 + 1e-6)!r}"
            return row

        with self.assertRaises(checks.CheckError):
            self.check(self.rewrite_csv("sweep.csv", edit))

    def test_quality_against_other_edit_rejected(self):
        per_seed = self.check(self.tmp / "sweep.csv")
        with self.assertRaises(checks.CheckError):
            checks.check_task_quality(per_seed, "tau=18.0", 4, self.library_grid(16.0, 4),
                                      self.grid)

    def test_changed_repeat_rejected(self):
        repeats = checks.Repeats()
        repeats.check("sweep", self.tmp / "sweep.csv")
        repeats.check("sweep", self.tmp / "sweep.csv")
        bad = self.rewrite_csv("sweep.csv", lambda r: None if ",3,mse," in r else r)
        with self.assertRaises(checks.CheckError):
            repeats.check("sweep", bad)


class RoundTripChecks(CheckTestCase):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        run_cli("invert", "--grid", "demo:scene-a", "--tau", 18.0, "--seed", 5,
                "--out", cls.tmp)
        run_cli("edit", "--grid", "demo:scene-a", "--mode", "varin", "--noise",
                cls.tmp / "noise.nsn", "--lambda", "linear", "--mask", "demo:scene-a",
                "--seed", 5, "--out", cls.tmp)

    def check_noise(self, path, tau=18.0):
        checks.check_noise_file(path, self.resolutions, self.vocab,
                                self.scene.source_label, tau)

    def test_real_outputs_pass(self):
        self.check_noise(self.tmp / "noise.nsn")
        checks.check_edited_pyramid(self.tmp / "edited.nsp", self.resolutions, self.vocab)
        checks.check_edit_metrics(self.tmp / "edit_metrics.csv", len(self.resolutions))

    def test_truncated_noise_rejected(self):
        bad = self.copy("noise.nsn")
        bad.write_bytes(bad.read_bytes()[:-4])
        with self.assertRaises(checks.CheckError):
            self.check_noise(bad)

    def test_noise_with_trailing_bytes_rejected(self):
        bad = self.copy("noise.nsn")
        bad.write_bytes(bad.read_bytes() + bytes(4))
        with self.assertRaises(checks.CheckError):
            self.check_noise(bad)

    def test_noise_with_other_tau_rejected(self):
        with self.assertRaises(checks.CheckError):
            self.check_noise(self.tmp / "noise.nsn", tau=0.0)

    def test_token_out_of_vocab_rejected(self):
        pyramid = [np.zeros(shape, dtype=np.int32) for shape in self.resolutions]
        pyramid[-1][3, 4] = 999
        bad = self.tmp / "bad-tokens.nsp"
        fileio.write_pyramid(bad, pyramid, 1024)
        with open(bad, "r+b") as fh:  # relabel as a vocab-64 file
            fh.seek(36)
            fh.write(self.vocab.to_bytes(4, "little"))
        with self.assertRaises(checks.CheckError):
            checks.check_edited_pyramid(bad, self.resolutions, self.vocab)

    def test_pyramid_with_wrong_shapes_rejected(self):
        with self.assertRaises(checks.CheckError):
            checks.check_edited_pyramid(self.tmp / "edited.nsp", self.resolutions[:-1],
                                        self.vocab)

    def test_pyramid_with_trailing_bytes_rejected(self):
        bad = self.copy("edited.nsp")
        bad.write_bytes(bad.read_bytes() + bytes(2))
        with self.assertRaises(checks.CheckError):
            checks.check_edited_pyramid(bad, self.resolutions, self.vocab)

    def test_wrong_lambda_rejected(self):
        bad = self.rewrite_csv("edit_metrics.csv", lambda r: r.rsplit(",", 1)[0] + ",0.5"
                               if ",lambda,scale4," in r else r)
        with self.assertRaises(checks.CheckError):
            checks.check_edit_metrics(bad, len(self.resolutions))

    def test_change_below_start_scale_rejected(self):
        bad = self.rewrite_csv("edit_metrics.csv", lambda r: r.rsplit(",", 1)[0] + ",0.25"
                               if ",token_change,scale1," in r else r)
        with self.assertRaises(checks.CheckError):
            checks.check_edit_metrics(bad, len(self.resolutions))

    def replay(self, path):
        noise_set, _ = fileio.read_noise_set(path)
        cond = predictor.condition_embed(noise_set.condition_label, self.params)
        return inversion.reconstruct_from_noise(noise_set, cond, self.params)

    def test_replay_compared_token_for_token(self):
        source = codec.encode(self.grid, self.params.codebook, self.params.schedule)
        replayed = self.replay(self.tmp / "noise.nsn")
        self.assertTrue(checks.pyramids_equal(replayed, source))
        replayed[-1] = replayed[-1].copy()
        replayed[-1][0, 0] = (replayed[-1][0, 0] + 1) % self.vocab
        self.assertFalse(checks.pyramids_equal(replayed, source))


if __name__ == "__main__":
    unittest.main()
