"""CLI fuzz: drawn argv, config values and corrupt artifacts through
``cli.main``, each ending in a documented exit code, never a traceback.

Every case runs in one child process (this file run as a script) whose
address space ``resource.setrlimit(RLIMIT_AS, ...)`` caps, so a size
bound that no check enforces shows as an allocation failure, not as
memory taken from the machine.  Huge values are drawn only where a
check must reject them before anything of their size is allocated; the
values a check lets through keep every array at desk scale.  No case
starts a process: ``sweep`` runs with one worker or a rejected count.

Run by pytest, the test starts the child once; run as a script, it is
the child: ``PYTHONPATH=src python tests/test_cli_fuzz.py``.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from invnoise import cli

from conftest import child_env

# The child's address-space cap: about 3x the 150-190 MB its cases map
# at their peak with numpy and OpenBLAS loaded, and the size of one
# array at the configs' entry limit, which no desk case comes near.
ADDRESS_SPACE_LIMIT = 1 << 29
EXAMPLES = 300
DOCUMENTED_EXITS = {0, 2, 3, 4}

HUGE = ["18446744073709551616", "1" + "0" * 30, "-1"]
# Each config key and flag as (values a check lets through, values a
# check must reject); a drawn value is a rejected one about one time in
# eight.
CONFIG_VALUES = {
    "codec": {
        "dim": (["1", "2", "4"], ["0", "16384", *HUGE]),
        "vocab": (["2", "3", "64"], ["1", "134217728", *HUGE]),
        "schedule": (
            ["1x1,2x2,4x4", "1,2,4,8,16", "2x3,4x6", "4"],
            ["3,16", "4,2", "0x1", "1x1,1048576x1048576", "", "x"],
        ),
        "codebook_seed": (["101", "0", "18446744073709551615"], HUGE),
    },
    "predictor": {
        "beta": (["4.0", "1e20", "1e-300"], ["1e300", "0", "nan", "inf"]),
        "cond_gain": (["0.5", "0", "-2"], ["1e300", "nan"]),
        "model_seed": (["7", "18446744073709551615"], HUGE),
    },
    "edit": {
        "source": (["red brick house among pines", "100% é", ""], []),
        "target": (["blue glass tower among pines", "x"], []),
        "start_scale": (["", "1", "3", "5"], ["0", "6", *HUGE]),
        "tau": (["", "0", "5e-324", "18", "1e308"], ["-1", "nan", "inf"]),
        "lambda_kind": (["linear", "constant"], ["cosine"]),
        "lambda_value": (["0", "0.5", "1"], ["1.5", "nan"]),
        "seed": (["0", "3", "18446744073709551615"], HUGE),
        "context": (["generated-prefix", "source-prefix"], ["both"]),
        "mode": (["varin", "regen", "target-only"], ["x"]),
    },
    "sweep": {
        "parameter": (["tau", "start_scale", "lambda"], ["", "beta"]),
        "values": (["14,18", "0", "1e308", "0,1", "2"], ["2.5", "", "nan"]),
        "seeds": (
            ["0:2", "5", "0,18446744073709551615"],
            ["0:1048577", "0:18446744073709551616", "-1:2", ""],
        ),
    },
}
FLAG_VALUES = {
    "--seed": (["0", "3", "18446744073709551615"], [*HUGE, "x"]),
    "--tau": (["0", "18", "1e-300", "1e308"], ["1e400", "-1", "nan", "x"]),
    "--kind": (["lai", "oai"], ["x"]),
    "--condition": (["source", "target"], []),
    "--mode": (["varin", "regen", "target-only"], []),
    "--start-scale": (["1", "2", "5"], ["0", *HUGE]),
    "--lambda": (["linear", "0", "0.5", "1"], ["2", "nan", "x"]),
    "--mask": (["none", "demo:scene-a", "@file"], ["demo:nope"]),
    "--workers": (["1"], ["0", "-3", "x"]),
    "--grid": (["demo:scene-a", "demo:scene-b", "@file"], ["demo:nope", "@missing"]),
    "--noise": (["@file"], ["@missing"]),
    "--in": (["@file"], ["@missing"]),
    "--bogus": ([], ["1"]),
}
COMMAND_FLAGS = {
    "encode": ["--grid", "--seed"],
    "invert": ["--grid", "--seed", "--kind", "--tau", "--condition"],
    "edit": ["--grid", "--seed", "--mode", "--noise", "--auto-invert", "--tau",
             "--start-scale", "--lambda", "--mask"],
    "sweep": ["--grid", "--workers"],
    "render": ["--in"],
}
ARTIFACTS = ("grid", "zero-axis grid", "pyramid", "zero-axis pyramid", "noise", "zero-axis noise")
CORRUPTIONS = ("none", "truncate", "flip")


def _value(draw, values):
    valid, rejected = values
    if rejected and (not valid or draw(st.integers(0, 7)) == 0):
        return draw(st.sampled_from(rejected))
    return draw(st.sampled_from(valid))


@st.composite
def config_texts(draw, command):
    """INI text of a drawn subset of the sections ([sweep] always for
    ``sweep``), each setting a drawn subset of its keys ([sweep] all
    three) to drawn values."""
    text = ""
    for section, keys in CONFIG_VALUES.items():
        if section == command or draw(st.booleans()):
            text += f"[{section}]\n"
            for key, values in keys.items():
                if section == "sweep" or draw(st.booleans()):
                    text += f"{key} = {_value(draw, values)}\n"
    return text


@st.composite
def cases(draw):
    """(command, [(flag, value or None)], config text or None, artifact),
    the artifact as (base file, corruption, byte position, bit)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    # each flag about one time in two, and the required --in nine in ten
    flags = [f for f in COMMAND_FLAGS[command] if draw(st.integers(0, 9)) < 5 + 4 * (f == "--in")]
    if draw(st.integers(0, 9)) == 0:
        flags.append("--bogus")
    pairs = [(f, None if f == "--auto-invert" else _value(draw, FLAG_VALUES[f])) for f in flags]
    # sweep needs a [sweep] section; the other commands run without a config half the time
    config = None if command != "sweep" and draw(st.booleans()) else draw(config_texts(command))
    artifact = (
        draw(st.sampled_from(ARTIFACTS)),
        draw(st.sampled_from(CORRUPTIONS)),
        draw(st.integers(0, 2**20)),
        draw(st.integers(0, 7)),
    )
    return command, pairs, config, artifact


def _zero_axis(kind: str, data: bytes) -> bytes:
    """A valid ``kind`` file's bytes with one axis of its first (or only)
    map set to zero length and the payload cut to match."""
    if kind == "grid":  # d, h, w at 32:44, then the payload
        return data[:32] + struct.pack("<III", 1, 0, 5)
    if kind == "pyramid":  # one map of 0 x 3 tokens
        return data[:32] + struct.pack("<IIII", 1, 64, 0, 3)
    # noise: vocab zeroed, so every map is empty; the shapes end the file
    label_len = struct.unpack("<I", data[48:52])[0]
    scales = struct.unpack("<I", data[32:36])[0]
    return data[:36] + struct.pack("<I", 0) + data[40 : 52 + label_len + 8 * scales]


def _input_file(root: Path, bases: dict, artifact) -> Path:
    kind, corruption, position, bit = artifact
    zero_axis, _, base = kind.rpartition(" ")
    data = _zero_axis(base, bases[base]) if zero_axis else bases[base]
    if corruption == "truncate":
        data = data[: position % max(len(data), 1)]
    elif corruption == "flip" and data:
        i = position % len(data)
        data = data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1 :]
    path = root / "input.bin"
    path.write_bytes(data)
    return path


def _run_case(root: Path, bases: dict, case) -> tuple[int, str]:
    """One case through ``cli.main`` in a fresh output directory: its exit
    code and its stderr text."""
    command, pairs, config, artifact = case
    work = Path(tempfile.mkdtemp(dir=root))
    files = {"@file": _input_file(work, bases, artifact), "@missing": work / "missing.nsg"}
    argv = [command]
    for flag, value in pairs:
        argv += [flag] if value is None else [flag, str(files.get(value, value))]
    if config is not None:
        (work / "cfg.ini").write_text(config, encoding="utf-8")
        argv += ["--config", str(work / "cfg.ini")]
    argv += ["--out", str(work / "out")]
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors and -h
                code = exc.code
    finally:
        shutil.rmtree(work)
    return code, err.getvalue()


def _bases(root: Path) -> dict:
    """The valid desk-scale grid, pyramid and noise file bytes that the
    cases corrupt."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["encode", "--out", str(root)]) == 0
        assert cli.main(["invert", "--out", str(root)]) == 0
    names = {"grid": "recon.nsg", "pyramid": "pyramid.nsp", "noise": "noise.nsn"}
    return {kind: (root / name).read_bytes() for kind, name in names.items()}


def fuzz_cli():
    """Every drawn case exits with a documented code and no traceback.
    The explicit examples are the inputs a check once let through."""
    root = Path(tempfile.mkdtemp())
    bases = _bases(root)

    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(case=cases())
    @example(case=("render", [("--in", "@file")], None, ("zero-axis grid", "none", 0, 0)))
    @example(case=("render", [("--in", "@file")], None, ("zero-axis pyramid", "none", 0, 0)))
    @example(case=("edit", [("--noise", "@file")], None, ("zero-axis noise", "none", 0, 0)))
    @example(case=("edit", [("--grid", "@file"), ("--auto-invert", None)], None,
                   ("zero-axis grid", "none", 0, 0)))
    def check(case):
        code, err = _run_case(root, bases, case)
        assert code in DOCUMENTED_EXITS, (code, err)
        assert "Traceback" not in err, err
        assert "not enough memory" not in err, err  # a size no check bounded

    try:
        check()
    finally:
        shutil.rmtree(root)


def test_cli_fuzz(tmp_path):
    """The fuzz, in one child process under the address-space cap; it
    writes only below ``tmp_path``."""
    child = subprocess.run(
        [sys.executable, __file__],
        cwd=tmp_path,
        env=child_env(TMPDIR=str(tmp_path), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    fuzz_cli()
