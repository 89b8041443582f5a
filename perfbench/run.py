"""Benchmark of `invnoise`: desk sweeps and the stress-scale round trip.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md):

* ``desk-sweep``: ``invnoise sweep --config configs/demo.ini``, 128 varin
  edits with auto-inversion, plus a desk-scale round trip on each scene.
* ``desk-regen``: ``invnoise sweep --config configs/regen-sweep.ini``, 96
  regeneration edits, plus the same desk-scale round trips.
* ``stress-roundtrip``: at 64x64, vocab 512, 7 scales, on both bundled
  scenes at tau 18 and tau 0: ``invnoise invert``, a replay of the noise
  file, and ``invnoise edit --noise``.
* ``all``: the three in turn.

Every command runs in a fresh process (perfbench/worker.py), serially,
with BLAS/OpenMP threads pinned to 1.  A run repeats whole rounds of the
same operations until ``--seconds`` have passed, checks every output
(perfbench/checks.py), and prints each metric by name and unit, then one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Times are
reported at a fixed host speed: each step's time is scaled by
REFERENCE_S over the time of a fixed reference kernel that every worker
process runs right after its step (see Run.finish_round and
perfbench/README.md).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
rounds alternate between untraced and traced, and the metrics are the
per-layer figures of the traced rounds plus the tracing overhead.

The only failed operations expected are the tau = 0 round trips of
``stress-roundtrip``, whose replay from disk does not reproduce the
source tokens.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("desk-sweep", "desk-regen", "stress-roundtrip")
# Time of worker.reference_kernel on the 2-core host this benchmark was
# tuned on, while that host ran at its full speed.  The host's speed
# drifts by up to 1.5x over minutes, so every step time t is reported as
# t * REFERENCE_S / (the kernel's time around the step).
REFERENCE_S = 0.0074
# Steps at least this long are scaled by the median kernel time of their
# round rather than by the one kernel timing right after them.
LONG_STEP_S = 1.0
# Fresh set-up processes per round.  They are spread over the run
# because the host's speed drifts over seconds.
SETUP_SAMPLES_PER_ROUND = 3
STEP_TIMEOUT_S = 150
DEFAULT_TAU = 18.0
# Trace mode: untraced rounds, span rounds, tracemalloc rounds.
TRACE_CYCLE = (None, "spans", "alloc")
DESK_SCENES = STRESS_SCENES = ("scene-a", "scene-b")
STRESS_TAUS = (DEFAULT_TAU, 0.0)
STRESS_CODEC = {
    "dim": "4",
    "vocab": "512",
    "schedule": "1x1,2x2,4x4,8x8,16x16,32x32,64x64",
    "codebook_seed": "101",
}


class Run:
    """One run of one workload: steps, checks, tallies and timings."""

    def __init__(self, root, workload, seed, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = HERE / "out" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.correct = True
        self.attempted = 0
        self.failed = 0
        # step results by kind; "elapsed" and, once the round ends, "scaled"
        self.samples = {"setup": [], "invert": [], "replay": [], "edit": []}
        # edits that make up edits_per_s, and the steps that made them
        self.rate_edits = 0
        self.rate_steps = []
        self.edits = 0
        self.repeats = checks.Repeats()
        self.steps = 0
        self.round_steps = []
        self.round_alloc = 0
        self.peak_rss_kb = 0
        # trace mode: rounds cycle through TRACE_CYCLE
        self.round_trace = None
        self.round_s = {mode: [] for mode in TRACE_CYCLE}
        self.summary = tracing.Summary()
        self.traced_ops = 0
        self.traced_edits = 0
        self.peak_alloc = []
        self.spans = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def step(self, mode, **fields):
        """Run one worker step in a fresh process; None if it failed."""
        self.steps += 1
        result_path = self.work / f"step-{self.steps}.json"
        spec = dict(fields, mode=mode, src=str(self.root / "src"),
                    result=str(result_path), trace=self.round_trace)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=self.root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=STEP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{self.workload}: {mode} step timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            print(f"{self.workload}: {mode} step exited {proc.returncode}: {tail}",
                  file=sys.stderr)
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result_path.unlink()
        if result.get("code", 0) != 0:
            print(f"{self.workload}: {fields.get('argv')} exited {result['code']}",
                  file=sys.stderr)
            return None
        if "spans" in result:
            self.summary.add(result["spans"])
            self.spans.append({"step": fields.get("argv", mode), "spans": result["spans"]})
        if "peak_alloc" in result:
            self.round_alloc = max(self.round_alloc, result["peak_alloc"])
        result["mode"] = mode
        self.round_steps.append(result)
        if mode != "setup":
            self.peak_rss_kb = max(self.peak_rss_kb, result["maxrss_kb"])
        return result

    def finish_round(self):
        """Scale the round's step times to the reference host speed.

        One kernel timing shows the host's speed over a few milliseconds.
        A step shorter than LONG_STEP_S is scaled by the timing right after
        it; a longer one by the median timing of its round, whose steps
        surround it.  Returns the round's scaled command time.
        """
        kernel = statistics.median(r["reference_s"] for r in self.round_steps)
        for r in self.round_steps:
            ref = kernel if r["elapsed"] >= LONG_STEP_S else r["reference_s"]
            r["scaled"] = r["elapsed"] * REFERENCE_S / ref
        total = sum(r["scaled"] for r in self.round_steps if r["mode"] != "setup")
        self.round_steps = []
        return total

    def sample(self, kind, result):
        self.samples[kind].append(result)

    def count_rate(self, edits, results):
        """Add completed edits and the steps that made them to edits_per_s."""
        self.rate_edits += edits
        self.rate_steps.extend(results)

    def check(self, fn, *args):
        """Apply an output check; a failure marks the run incorrect."""
        try:
            return fn(*args)
        except checks.CheckError as exc:
            self.correct = False
            print(f"{self.workload}: check failed: {exc}", file=sys.stderr)
            return None

    def take_setup_samples(self, config, grid):
        if self.trace:
            return
        for _ in range(SETUP_SAMPLES_PER_ROUND):
            result = self.step("setup", config=str(config), grid=str(grid))
            if result is None:
                self.correct = False
            else:
                self.sample("setup", result)

    def round_trip(self, key, case):
        """invert -> replay from disk -> edit --noise; one operation.

        Returns the three steps' results once the edit is done, else None.
        """
        self.attempted += 1
        out = self.fresh_dir("roundtrip")
        noise = out / "noise.nsn"
        common = ["--config", str(case["config"]), "--grid", str(case["grid"]),
                  "--seed", str(case["seed"]), "--out", str(out)]
        inverted = self.step("cli", argv=["invert", *common, "--tau", repr(case["tau"])])
        if inverted is None:
            self.failed += 1
            return None
        self.sample("invert", inverted)
        self.check(checks.check_noise_file, noise, case["resolutions"], case["vocab"],
                   case["source_label"], case["tau"])
        self.check(self.repeats.check, (key, "noise"), noise)

        tokens = out / "replay.npz"
        replayed = self.step("replay", config=str(case["config"]), noise=str(noise),
                             tokens=str(tokens))
        exact = False
        if replayed is not None:
            self.sample("replay", replayed)
            with np.load(tokens) as npz:
                maps = [npz[f"arr_{k}"] for k in range(len(npz.files))]
            exact = checks.pyramids_equal(maps, case["source_pyramid"])

        edited = self.step("cli", argv=["edit", *common, "--mode", "varin", "--noise",
                                        str(noise), "--lambda", "linear",
                                        "--mask", f"demo:{case['scene']}"])
        if edited is None:
            self.failed += 1
            return None
        self.sample("edit", edited)
        self.edits += 1
        self.check(checks.check_edited_pyramid, out / "edited.nsp", case["resolutions"],
                   case["vocab"])
        self.check(checks.check_edit_metrics, out / "edit_metrics.csv",
                   len(case["resolutions"]))
        for name in ("edited.nsp", "edit_metrics.csv"):
            self.check(self.repeats.check, (key, name), out / name)
        if not exact:
            self.failed += 1
        return [r for r in (inverted, replayed, edited) if r is not None]

    def measure(self, seconds, run_round):
        """Repeat whole rounds until `seconds` have passed.

        Two rounds at least, so that repeats can be compared; in trace
        mode, at least one round of each mode in TRACE_CYCLE.
        """
        deadline = time.perf_counter() + seconds
        least = len(TRACE_CYCLE) if self.trace else 2
        rounds = 0
        while rounds < least or time.perf_counter() < deadline:
            self.round_trace = TRACE_CYCLE[rounds % len(TRACE_CYCLE)] if self.trace else None
            self.round_alloc = 0
            ops, edits = self.attempted, self.edits
            run_round()
            self.round_s[self.round_trace].append(self.finish_round())
            if self.round_trace == "spans":
                self.traced_ops += self.attempted - ops
                self.traced_edits += self.edits - edits
            elif self.round_trace == "alloc":
                self.peak_alloc.append(self.round_alloc)
            rounds += 1
        self.round_trace = None

    def end_to_end(self):
        """name -> (scaled value, unit, unscaled value or None)."""
        out = {}
        for name, kind in (("setup_s", "setup"), ("invert_s", "invert"),
                           ("replay_s", "replay"), ("edit_s", "edit")):
            steps = self.samples[kind]
            out[name] = (statistics.median(r["scaled"] for r in steps), "s",
                         statistics.median(r["elapsed"] for r in steps))
        out["edits_per_s"] = (self.rate_edits / sum(r["scaled"] for r in self.rate_steps),
                              "1/s",
                              self.rate_edits / sum(r["elapsed"] for r in self.rate_steps))
        out["peak_rss_mb"] = (self.peak_rss_kb / 1024.0, "MB", None)
        return out

    def per_layer(self):
        out = {name: (value, unit, None) for name, (value, unit)
               in self.summary.per_layer_metrics(self.traced_ops, self.traced_edits).items()}
        out["trace.peak_alloc_mb"] = (statistics.median(self.peak_alloc) / 2**20, "MB", None)
        overhead = statistics.median(self.round_s["spans"]) / statistics.median(self.round_s[None])
        out["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%", None)
        names = sorted({s[0] for p in self.spans for s in p["spans"]})
        index = {name: i for i, name in enumerate(names)}
        with open(HERE / "out" / f"spans-{self.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": names, "processes": [
                {"step": p["step"], "spans": [[index[s[0]], *s[1:]] for s in p["spans"]]}
                for p in self.spans]}, fh)
        return out


# --- workloads ---------------------------------------------------------------


def desk_workload(run, config_name):
    """A configured sweep plus a desk-scale round trip per scene, per round."""
    from invnoise import codec, config, demo, editing

    parser = configparser.ConfigParser()
    with open(run.root / "configs" / config_name, encoding="utf-8") as fh:
        parser.read_file(fh)
    lo, hi = (int(x) for x in parser["sweep"]["seeds"].split(":"))
    width = hi - lo
    lo += run.seed * width
    seeds = range(lo, lo + width)
    parser["sweep"]["seeds"] = f"{lo}:{lo + width}"
    ini = run.work / "sweep.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    parameter = parser["sweep"]["parameter"]
    values = [float(v) for v in parser["sweep"]["values"].split(",")]

    cfg = config.load_config(ini)
    params = cfg.build_params()
    grid = demo.demo_scene("scene-a", params)[0]
    # One task per sweep is recomputed through the library.
    value, task_seed = values[run.seed % len(values)], seeds[run.seed % width]
    if parameter == "tau":
        edit_cfg = replace(cfg, edit=replace(cfg.edit, tau=value, seed=task_seed))
        library = editing.edit_with_inverse_noise(grid, edit_cfg.build_edit_config(), params)
    else:
        library = editing.edit_regeneration(grid, cfg.edit.target_label, int(value),
                                            params, task_seed)
    cases = []
    for name in DESK_SCENES:
        scene_grid, _, scene = demo.demo_scene(name, params)
        cases.append({
            "scene": name, "grid": f"demo:{name}", "config": ini, "seed": lo,
            "tau": DEFAULT_TAU, "source_label": scene.source_label,
            "resolutions": params.schedule.resolutions, "vocab": params.codebook.size,
            "source_pyramid": codec.encode(scene_grid, params.codebook, params.schedule),
        })

    def run_round():
        run.take_setup_samples(ini, "demo:scene-a")
        out = run.fresh_dir("sweep")
        edits = len(values) * width
        run.attempted += edits
        result = run.step("cli", argv=["sweep", "--config", str(ini), "--workers", "1",
                                       "--out", str(out)])
        if result is None:
            run.failed += edits
        else:
            run.edits += edits
            run.count_rate(edits, [result])
            per_seed = run.check(checks.check_sweep_csv, out / "sweep.csv", parameter,
                                 values, seeds)
            if per_seed is not None:
                run.check(checks.check_task_quality, per_seed, f"{parameter}={value!r}",
                          task_seed, library.grid, grid)
            run.check(run.repeats.check, "sweep", out / "sweep.csv")
        for case in cases:
            run.round_trip(case["scene"], case)

    return run_round


def stress_workload(run):
    """Both scenes at tau 18 and tau 0, one round trip each per round."""
    from invnoise import codec, config, demo, fileio

    cases = []
    for name in STRESS_SCENES:
        scene = demo.scene_record(name)
        parser = configparser.ConfigParser()
        parser["codec"] = STRESS_CODEC
        parser["edit"] = {"source": scene.source_label, "target": scene.target_label,
                          "mode": "varin"}
        ini = run.work / f"stress-{name}.ini"
        with open(ini, "w", encoding="utf-8") as fh:
            parser.write(fh)
        params = config.load_config(ini).build_params()
        grid_path = run.work / f"{name}.nsg"
        fileio.write_grid(grid_path, demo.demo_scene(name, params)[0])
        source, _ = fileio.read_grid(grid_path)
        for tau in STRESS_TAUS:
            cases.append({
                "scene": name, "grid": grid_path, "config": ini, "seed": run.seed,
                "tau": tau, "source_label": scene.source_label,
                "resolutions": params.schedule.resolutions, "vocab": params.codebook.size,
                "source_pyramid": codec.encode(source, params.codebook, params.schedule),
            })

    def run_round():
        run.take_setup_samples(cases[0]["config"], cases[0]["grid"])
        for case in cases:
            steps = run.round_trip((case["scene"], case["tau"]), case)
            if steps is not None:
                run.count_rate(1, steps)

    return run_round


def run_workload(root, workload, seed, seconds, trace):
    run = Run(root, workload, seed, trace)
    try:
        if workload == "stress-roundtrip":
            run_round = stress_workload(run)
        else:
            run_round = desk_workload(run, "demo.ini" if workload == "desk-sweep"
                                      else "regen-sweep.ini")
        run.measure(seconds, run_round)
        metrics = run.per_layer() if trace else run.end_to_end()
    finally:
        run.close()
    for name, (value, unit, unscaled) in metrics.items():
        note = "" if unscaled is None else f"  (unscaled {unscaled:.6f})"
        print(f"{workload:18s} {name:30s} {value:16.6f} {unit}{note}")
    print(f"{workload:18s} attempted {run.attempted}, failed {run.failed}, "
          f"correct {run.correct}")
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    missing = [p for p in ("src/invnoise/cli.py", "configs/demo.ini",
                           "configs/regen-sweep.ini") if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of an invnoise checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run, values = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        correct &= run.correct
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (value, unit, _) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
