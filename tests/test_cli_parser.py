"""The CLI's parsing, its help and error text, its exit codes, and the
collector state around ``cli.main``.

``main`` builds the parser of the command ``argv[0]`` names alone, and
the whole command tree only for ``invnoise -h`` and an argv that names
no command.  The texts below are those the whole tree printed when it
parsed every argv, at 80 columns; the one change is that an
unrecognized option now reports the command's usage, not the top-level
usage.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invnoise import cli
from invnoise.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from invnoise.errors import ValidationError

USAGE = {
    "invnoise": "usage: invnoise [-h] {encode,invert,edit,sweep,render} ...\n",
    "encode": """\
usage: invnoise encode [-h] [--config CONFIG] [--seed SEED] [--out OUT]
                       [--grid GRID]
""",
    "invert": """\
usage: invnoise invert [-h] [--config CONFIG] [--seed SEED] [--out OUT]
                       [--grid GRID] [--kind {lai,oai}] [--tau TAU]
                       [--condition {source,target}]
""",
    "edit": """\
usage: invnoise edit [-h] [--config CONFIG] [--seed SEED] [--out OUT]
                     [--grid GRID] [--mode {varin,regen,target-only}]
                     [--noise NOISE | --auto-invert] [--tau TAU]
                     [--start-scale START_SCALE] [--lambda LAM] [--mask MASK]
""",
    "sweep": """\
usage: invnoise sweep [-h] [--config CONFIG] [--out OUT] [--grid GRID]
                      [--workers WORKERS]
""",
    "render": """\
usage: invnoise render [-h] [--config CONFIG] [--seed SEED] [--out OUT] --in
                       INFILE
""",
}

OPTIONS = {
    "invnoise": """
Inverse-noise extraction and editing for next-scale token pyramids.

positional arguments:
  {encode,invert,edit,sweep,render}
    encode              encode a grid and score its reconstruction
    invert              extract an inverse-noise set from a grid
    edit                edit a grid toward the target label
    sweep               run the configured parameter sweep
    render              render a grid or pyramid artifact to PGM

options:
  -h, --help            show this help message and exit
""",
    "encode": """
options:
  -h, --help       show this help message and exit
  --config CONFIG  INI experiment config
  --seed SEED      override the edit/inversion seed
  --out OUT        override the output directory
  --grid GRID      input grid artifact, or demo:<scene> (default demo:scene-a)
""",
    "invert": """
options:
  -h, --help            show this help message and exit
  --config CONFIG       INI experiment config
  --seed SEED           override the edit/inversion seed
  --out OUT             override the output directory
  --grid GRID           input grid artifact, or demo:<scene> (default
                        demo:scene-a)
  --kind {lai,oai}
  --tau TAU             override the inversion margin (default 18, or 12 under
                        --condition target)
  --condition {source,target}
                        which configured label guides the inversion
""",
    "edit": """
options:
  -h, --help            show this help message and exit
  --config CONFIG       INI experiment config
  --seed SEED           override the edit/inversion seed
  --out OUT             override the output directory
  --grid GRID           input grid artifact, or demo:<scene> (default
                        demo:scene-a)
  --mode {varin,regen,target-only}
                        editing pipeline
  --noise NOISE         inverse-noise artifact to reuse
  --auto-invert         extract the inverse noise on the fly instead of
                        --noise
  --tau TAU             override the inversion margin
  --start-scale START_SCALE
  --lambda LAM          'linear' or a constant interpolation weight in [0, 1]
  --mask MASK           edit-region mask: demo:<scene>, grid file, or 'none'
""",
    "sweep": """
options:
  -h, --help         show this help message and exit
  --config CONFIG    INI experiment config
  --out OUT          override the output directory
  --grid GRID        input grid artifact, or demo:<scene> (default
                     demo:scene-a)
  --workers WORKERS
""",
    "render": """
options:
  -h, --help       show this help message and exit
  --config CONFIG  INI experiment config
  --seed SEED      override the edit/inversion seed
  --out OUT        override the output directory
  --in INFILE      artifact to render
""",
}

# argv -> (parser whose usage heads stderr, error line)
ERRORS = {
    ("frobnicate",): (
        "invnoise",
        "invnoise: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'encode', 'invert', 'edit', 'sweep', 'render')",
    ),
    (): ("invnoise", "invnoise: error: the following arguments are required: command"),
    ("invert", "--tau", "x"): (
        "invert", "invnoise invert: error: argument --tau: invalid float value: 'x'"
    ),
    # the whole tree reported the top-level usage and "invnoise: error:"
    ("invert", "--bogus"): ("invert", "invnoise invert: error: unrecognized arguments: --bogus"),
    ("render",): ("render", "invnoise render: error: the following arguments are required: --in"),
    ("edit", "--noise", "n.nsn", "--auto-invert"): (
        "edit", "invnoise edit: error: argument --auto-invert: not allowed with argument --noise"
    ),
}


@pytest.fixture()
def columns(monkeypatch):
    """argparse wraps its text at $COLUMNS; pin the width."""
    monkeypatch.setenv("COLUMNS", "80")


def exits(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``, which argparse ends
    with SystemExit."""
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    out, err = capsys.readouterr()
    return stop.value.code, out, err


@pytest.mark.parametrize("parser", list(USAGE))
def test_help_text_pinned(columns, capsys, parser):
    argv = ["-h"] if parser == "invnoise" else [parser, "-h"]
    assert exits(argv, capsys) == (EXIT_OK, USAGE[parser] + OPTIONS[parser], "")


@pytest.mark.parametrize("argv", list(ERRORS), ids=" ".join)
def test_parse_errors_pinned(columns, capsys, argv):
    parser, line = ERRORS[argv]
    assert exits(argv, capsys) == (EXIT_VALIDATION, "", USAGE[parser] + line + "\n")


def test_whole_tree_matches_the_command_table():
    """``build_parser`` lists every command of ``COMMANDS``, in order,
    each with the arguments its own parser takes."""
    tree = cli.build_parser()
    [sub] = [a for a in tree._actions if a.dest == "command"]
    assert list(sub.choices) == list(cli.COMMANDS)
    for name, parser in sub.choices.items():
        argv = [name, "--in", "x"] if name == "render" else [name]
        assert parser.prog == f"invnoise {name}"
        assert vars(parser.parse_args(argv[1:])) == vars(cli._parse_args(argv))


@pytest.fixture()
def stub(monkeypatch):
    """Run ``render`` as ``behaviour(args)``, recording the freeze count
    the command runs under."""
    seen = []

    def install(behaviour):
        def run(args):
            seen.append(gc.get_freeze_count())
            return behaviour(args)

        monkeypatch.setitem(cli.COMMANDS, "render", (run, *cli.COMMANDS["render"][1:]))
        return seen

    return install


def invalid(args):
    raise ValidationError("stub")


@pytest.mark.parametrize(
    "behaviour, code", [(lambda args: EXIT_OK, EXIT_OK), (invalid, EXIT_VALIDATION)]
)
def test_command_runs_frozen_and_main_unfreezes(stub, behaviour, code):
    seen = stub(behaviour)
    before = gc.get_freeze_count()
    assert before == 0
    assert main(["render", "--in", "x"]) == code
    assert seen[0] > 0
    assert gc.get_freeze_count() == before


def test_parse_exit_unfreezes(stub):
    seen = stub(lambda args: EXIT_OK)
    before = gc.get_freeze_count()
    with pytest.raises(SystemExit):
        main(["render"])  # no --in
    assert seen == []
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [["render", "--in", "x"], ["render"]])
def test_caller_frozen_set_left_as_it_is(stub, argv):
    """A caller that froze objects itself keeps them frozen, and main
    freezes nothing more.  The cyclic collector's lists (which
    ``gc.get_objects`` reads) hold no frozen object.  The freeze count
    alone would not show it: a frozen object may still die by its
    reference count."""
    seen = stub(lambda args: EXIT_OK)
    held = []
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        young = []  # made after the caller's freeze
        try:
            main(argv)
        except SystemExit:
            pass
        assert all(count <= frozen for count in seen)
        tracked = gc.get_objects()
        assert not any(obj is held for obj in tracked)
        assert any(obj is young for obj in tracked)
    finally:
        gc.unfreeze()
    assert any(obj is held for obj in gc.get_objects())


def test_console_path_reads_sys_argv(tmp_path):
    """``python -m invnoise.cli``: ``main`` reads ``sys.argv[1:]`` itself,
    and its return value is the process's exit code."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), COLUMNS="80")
    command = [sys.executable, "-m", "invnoise.cli"]
    done = subprocess.run([*command, "-h"], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (EXIT_OK, USAGE["invnoise"] + OPTIONS["invnoise"])
    done = subprocess.run(
        [*command, "render", "--in", tmp_path / "missing.nsg", "--out", tmp_path / "o"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_IO
    assert done.stderr.startswith("i/o error: ")
