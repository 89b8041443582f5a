"""Output checks for the benchmark's operations.

Every check compares an artifact the `invnoise` CLI wrote against an
independent computation or a property the method must have, never
against a stored copy of earlier output.  The binary formats are parsed
here from their documented layout rather than through `invnoise.fileio`,
so a reader that accepts bad data cannot hide it.

A failed check raises `CheckError`.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np

SWEEP_METRICS = ("mse", "psnr", "ssim", "token_change", "bg_mse", "bg_psnr")
REL_TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def default_start_scale(num_scales):
    """Default edit start scale: the reference 6 of 14 scales, rounded."""
    return max(1, min(num_scales, round(6 * num_scales / 14)))


def linear_lambda(k, start, num_scales):
    """The linear ramp 1 - (k - s) / (K - s) at scale k >= s."""
    if num_scales == start:
        return 1.0
    return 1.0 - (k - start) / (num_scales - start)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _unpack(fmt, data, offset):
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error:
        raise CheckError(f"file ends inside its header at byte {offset}") from None


class Repeats:
    """Repeats of one operation with one seed must write identical bytes."""

    def __init__(self):
        self._digests = {}

    def check(self, key, path):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        first = self._digests.setdefault(key, digest)
        _require(first == digest, f"{key}: {Path(path).name} differs from an earlier repeat")


# --- sweep.csv ---------------------------------------------------------------


def read_metric_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["digest", "seed", "metric", "scope", "value"],
             f"{path}: bad CSV header {rows[:1]}")
    for row in rows[1:]:
        _require(len(row) == 5, f"{path}: malformed row {row}")
    return [(r[1], r[2], r[3], float(r[4])) for r in rows[1:]]


def check_sweep_csv(path, parameter, values, seeds):
    """Row counts, finiteness, ranges and mean rows of a sweep summary.

    Returns {(metric, scope, seed): value} for the per-seed rows.
    """
    rows = read_metric_csv(path)
    scopes = [f"{parameter}={float(v)!r}" for v in values]
    seed_keys = {str(s) for s in seeds}
    per_seed = {}
    means = {}
    for seed, metric, scope, value in rows:
        _require(metric in SWEEP_METRICS, f"unexpected metric {metric!r}")
        _require(scope in scopes, f"unexpected scope {scope!r}")
        _require(math.isfinite(value), f"{metric} {scope} seed {seed} is not finite")
        if metric == "token_change":
            _require(0.0 <= value <= 1.0, f"token_change {value} outside [0, 1]")
        key = (metric, scope)
        if seed == "mean":
            _require(key not in means, f"duplicate mean row for {key}")
            means[key] = value
        else:
            _require(seed in seed_keys, f"unexpected seed {seed!r}")
            _require((metric, scope, seed) not in per_seed,
                     f"duplicate row {(metric, scope, seed)}")
            per_seed[(metric, scope, seed)] = value
    counts = Counter(metric for metric, _, _ in per_seed)
    for metric in SWEEP_METRICS:
        _require(counts[metric] == len(values) * len(seeds),
                 f"{metric}: {counts[metric]} seed rows, expected {len(values) * len(seeds)}")
        for scope in scopes:
            _require((metric, scope) in means, f"missing mean row for {metric} {scope}")
            batch = [per_seed[(metric, scope, str(s))] for s in seeds]
            own = math.fsum(batch) / len(batch)
            _require(_close(means[(metric, scope)], own),
                     f"mean row {metric} {scope} = {means[(metric, scope)]!r}, own mean {own!r}")
    return per_seed


def own_mse(a, b):
    d = (np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).ravel()
    return math.fsum((d * d).tolist()) / d.size


def own_psnr(a, b):
    """10 log10(peak^2 / MSE), peak the largest magnitude, capped at 99."""
    err = own_mse(a, b)
    if err == 0.0:
        return 99.0
    peak = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return min(10.0 * math.log10(peak * peak / err), 99.0)


def check_task_quality(per_seed, scope, seed, edited_grid, source_grid):
    """The sweep's whole-grid mse/psnr for one task against own formulas."""
    for metric, own in (("mse", own_mse(edited_grid, source_grid)),
                        ("psnr", own_psnr(edited_grid, source_grid))):
        got = per_seed[(metric, scope, str(seed))]
        _require(_close(got, own), f"{metric} {scope} seed {seed}: csv {got!r}, own {own!r}")


# --- binary artifacts ----------------------------------------------------------


def check_noise_file(path, resolutions, vocab, label, tau):
    """Header fields of an inverse-noise file, and size = header + 4 sum(h w C)."""
    with open(path, "rb") as fh:
        data = fh.read()
    _require(data[:4] == b"NSNZ", f"{path}: bad magic {data[:4]!r}")
    offset = 4 + 2 + 1 + 1 + 8 + 16
    num_scales, file_vocab, file_tau = _unpack("<IId", data, offset)
    offset += 16
    (label_len,) = _unpack("<I", data, offset)
    offset += 4
    file_label = data[offset:offset + label_len].decode("utf-8")
    offset += label_len
    _require(num_scales == len(resolutions), f"noise has {num_scales} scales")
    _require(file_vocab == vocab, f"noise vocab {file_vocab}, expected {vocab}")
    _require(file_tau == tau, f"noise tau {file_tau}, expected {tau}")
    _require(file_label == label, f"noise label {file_label!r}, expected {label!r}")
    shapes = [_unpack("<II", data, offset + 8 * i) for i in range(num_scales)]
    _require(shapes == [tuple(r) for r in resolutions], f"noise shapes {shapes}")
    header = offset + 8 * num_scales
    expect = header + 4 * sum(h * w * vocab for h, w in resolutions)
    _require(len(data) == expect, f"noise file has {len(data)} bytes, expected {expect}")
    noise = np.frombuffer(data, dtype="<f4", offset=header)
    _require(bool(np.all(np.isfinite(noise))), "noise values are not finite")


def read_token_pyramid(path):
    """Parse an NSPY file into (vocab, [token maps]); rejects trailing bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    _require(data[:4] == b"NSPY", f"{path}: bad magic {data[:4]!r}")
    num_scales, vocab = _unpack("<II", data, 32)
    offset = 40
    maps = []
    for _ in range(num_scales):
        h, w = _unpack("<II", data, offset)
        offset += 8
        _require(offset + 2 * h * w <= len(data), f"{path}: truncated scale")
        maps.append(np.frombuffer(data, dtype="<u2", count=h * w, offset=offset).reshape(h, w))
        offset += 2 * h * w
    _require(offset == len(data), f"{path}: {len(data) - offset} trailing bytes")
    return vocab, maps


def check_edited_pyramid(path, resolutions, vocab):
    file_vocab, maps = read_token_pyramid(path)
    _require(file_vocab == vocab, f"edited vocab {file_vocab}, expected {vocab}")
    _require([m.shape for m in maps] == [tuple(r) for r in resolutions],
             f"edited shapes {[m.shape for m in maps]}")
    for k, m in enumerate(maps, start=1):
        _require(int(m.max()) < vocab, f"scale {k} holds token {int(m.max())} >= vocab {vocab}")


def check_edit_metrics(path, num_scales):
    """Per-scale lambda is the linear ramp from the start scale, and
    nothing changes below it."""
    start = default_start_scale(num_scales)
    rows = {(metric, scope): value for _, metric, scope, value in read_metric_csv(path)}
    for k in range(1, num_scales + 1):
        lam = rows.get(("lambda", f"scale{k}"))
        change = rows.get(("token_change", f"scale{k}"))
        _require(lam is not None and change is not None, f"scale {k} rows missing")
        _require(0.0 <= change <= 1.0, f"token_change {change} at scale {k}")
        if k < start:
            _require(math.isnan(lam), f"lambda {lam} at copied scale {k}")
            _require(change == 0.0, f"token_change {change} below the start scale at {k}")
        else:
            own = linear_lambda(k, start, num_scales)
            _require(_close(lam, own), f"lambda {lam} at scale {k}, ramp {own}")
    for (metric, scope), value in rows.items():
        if metric != "lambda":
            _require(math.isfinite(value), f"{metric} {scope} is not finite")


def pyramids_equal(replayed, source):
    return len(replayed) == len(source) and all(
        np.array_equal(a, b) for a, b in zip(replayed, source)
    )
