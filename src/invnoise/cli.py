"""Command-line front end.

Commands: encode, invert, edit, sweep, render.  Every command takes an
optional INI config (--config) plus flag overrides; the effective
configuration (after overrides) is hashed and embedded, with the seed,
in every output artifact.  Re-running a command with the same effective
config and seed reproduces its outputs byte for byte.

``sweep`` resolves the params, the source grid and the mask once, and
does the work that depends on neither the seed nor the sweep value once
(an ``editing.SeedSweep``: the encoding, the condition targets and the
logits of the source walks; a ``metrics.Scorer``: the source grid's
metric terms).  Its tasks are chunks of seeds, each covering every
sweep value in one walk with a leading seed axis.  A chunk holds
``editing.seed_chunk_width`` seeds, or ``ceil(seeds / --workers)`` if
that is fewer, and chunks run in the calling process or in up to
``min(--workers, seeds)`` worker processes, each of which runs the
kernels of :mod:`invnoise._blocks` on one thread; rows are written value-major
either way, so ``sweep.csv`` does not depend on the worker count.
Seeds are integers in [0, 2^64).

Exit codes: 0 success, 2 validation error, 3 I/O or file-format error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import _blocks, demo, editing, fileio, metrics
from .codec import decode, encode
from .config import ExperimentConfig, config_digest, load_config
from .errors import FormatError, InvariantError, ValidationError
from .inversion import KIND_LAI, KIND_OAI, invert_pyramid
from .predictor import condition_embed

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

DEMO_PREFIX = "demo:"


def _load_effective_config(args) -> ExperimentConfig:
    """The --config file (or the defaults) with the flag overrides, and
    with a demo scene's own label pair when the labels are still the
    built-in defaults, applied before the config digest is taken, so
    artifacts stay traceable to the labels actually used."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {
        name: value
        for name in ("seed", "tau", "start_scale", "mode")
        if (value := getattr(args, name, None)) is not None
    }
    lam = getattr(args, "lam", None)
    if lam == "linear":
        overrides.update(lambda_kind="linear", lambda_value=1.0)
    elif lam is not None:
        try:
            overrides.update(lambda_kind="constant", lambda_value=float(lam))
        except ValueError:
            raise ValidationError(f"--lambda expects 'linear' or a number, got {lam!r}") from None
    labels = (cfg.edit.source_label, cfg.edit.target_label)
    defaults = ExperimentConfig().edit
    source = getattr(args, "grid", "")
    if source.startswith(DEMO_PREFIX) and labels == (defaults.source_label, defaults.target_label):
        scene = demo.scene_record(source[len(DEMO_PREFIX) :])
        overrides.update(source_label=scene.source_label, target_label=scene.target_label)
    cfg = replace(cfg, edit=replace(cfg.edit, **overrides))
    if (cfg.edit.source_label, cfg.edit.target_label) != labels:
        print(
            f"using {source[len(DEMO_PREFIX) :]} labels: "
            f"{cfg.edit.source_label!r} -> {cfg.edit.target_label!r}"
        )
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _setup(args):
    """(config, params, digest, source grid, default mask) of a command
    that reads --grid: a path to a grid artifact (no default mask; its
    shape is checked where it is encoded), or demo:<name> for a bundled
    scene and its edit-region mask."""
    cfg = _load_effective_config(args)
    params = cfg.build_params()
    if args.grid.startswith(DEMO_PREFIX):
        grid, mask, _ = demo.demo_scene(args.grid[len(DEMO_PREFIX) :], params)
    else:
        grid, mask = fileio.read_grid(args.grid)[0], None
    return cfg, params, config_digest(cfg), grid, mask


def _resolve_mask(mask_arg, default_mask, shape):
    """The edit-region mask of --mask; the ``metrics.Scorer`` checks it."""
    if mask_arg is None:
        return default_mask
    if mask_arg == "none":
        return None
    if mask_arg.startswith(DEMO_PREFIX):
        return demo.demo_mask(mask_arg[len(DEMO_PREFIX) :], shape)
    return fileio.read_grid(mask_arg)[0][0] != 0.0


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# scorer keys -> (metric, scope) of the encode and edit metric rows
_QUALITY_ROWS = {
    "mse": ("mse", "whole"),
    "psnr": ("psnr", "whole"),
    "ssim": ("ssim", "whole"),
    "bg_mse": ("mse", "background"),
    "bg_psnr": ("psnr", "background"),
}


def _quality_rows(digest_hex, seed, scores):
    return [
        fileio.format_metric_row(digest_hex, seed, *_QUALITY_ROWS[key], value)
        for key, value in scores.items()
    ]


def cmd_encode(args) -> int:
    cfg, params, digest, grid, _ = _setup(args)
    seed = cfg.edit.seed
    pyramid = encode(grid, params.codebook, params.schedule)
    recon = decode(pyramid, params.codebook, params.schedule)
    out = _out_dir(cfg)
    fileio.write_pyramid(out / "pyramid.nsp", pyramid, params.codebook.size, seed, digest)
    fileio.write_grid(out / "recon.nsg", recon, seed, digest)
    rows = _quality_rows(digest.hex(), seed, metrics.Scorer(grid).score(recon))
    fileio.write_metrics_csv(out / "encode_metrics.csv", rows)
    print(f"encoded {args.grid}: {len(pyramid)} scales -> {out}")
    for row in rows:
        print("  " + row)
    return EXIT_OK


def cmd_invert(args) -> int:
    cfg, params, digest, grid, _ = _setup(args)
    seed = cfg.edit.seed
    # the label and default margin of the mode that edits with this noise
    if args.condition == "target":
        label, default_tau = cfg.edit.target_label, editing.TARGET_ONLY_DEFAULT_TAU
    else:
        label, default_tau = cfg.edit.source_label, editing.DEFAULT_TAU
    cond = condition_embed(label, params)
    tau = cfg.edit.tau if cfg.edit.tau is not None else default_tau
    pyramid = encode(grid, params.codebook, params.schedule)
    noise_set = invert_pyramid(pyramid, cond, tau, params, seed, kind=args.kind)
    out = _out_dir(cfg)
    fileio.write_noise_set(out / "noise.nsn", noise_set, digest)
    flag = " (sensitive regime: tau=0)" if noise_set.sensitive else ""
    print(
        f"inverted {args.grid} under {label!r}: kind={noise_set.kind} "
        f"tau={noise_set.tau} seed={seed}{flag} -> {out / 'noise.nsn'}"
    )
    return EXIT_OK


def cmd_edit(args) -> int:
    cfg, params, digest, grid, default_mask = _setup(args)
    seed = cfg.edit.seed
    scorer = metrics.Scorer(grid, _resolve_mask(args.mask, default_mask, params.schedule.finest))
    noise_set = None
    if cfg.edit.mode != editing.MODE_REGEN:
        if args.noise is not None:
            noise_set, _ = fileio.read_noise_set(args.noise)
        elif not args.auto_invert:
            raise ValidationError(
                f"mode {cfg.edit.mode} needs --noise FILE or --auto-invert"
            )
    [[result]] = editing.SeedSweep(grid, (cfg.edit,), params, noise_set).run((seed,))
    out = _out_dir(cfg)
    fileio.write_pyramid(out / "edited.nsp", result.pyramid, params.codebook.size, seed, digest)
    fileio.write_grid(out / "edited.nsg", result.grid, seed, digest)
    rows = _quality_rows(digest.hex(), seed, scorer.score(result.grid))
    rows.append(
        fileio.format_metric_row(
            digest.hex(),
            seed,
            "token_change",
            "overall",
            result.token_change,
        )
    )
    for k, (lam, frac) in enumerate(zip(result.lambdas, result.change_fraction), start=1):
        rows.append(fileio.format_metric_row(digest.hex(), seed, "lambda", f"scale{k}", lam))
        rows.append(
            fileio.format_metric_row(digest.hex(), seed, "token_change", f"scale{k}", frac)
        )
    fileio.write_metrics_csv(out / "edit_metrics.csv", rows)
    print(f"edited {args.grid} (mode={cfg.edit.mode}) -> {out}")
    for row in rows[:6]:
        print("  " + row)
    return EXIT_OK


def _sweep_chunk(setup, seeds):
    """Every sweep value at each seed of one chunk: one list per seed of
    one metrics dict per value, in order.  One ``score_many`` call scores
    every edit of the chunk.

    ``setup`` is (``editing.SeedSweep``, ``metrics.Scorer``), built once
    per sweep.
    """
    sweep, scorer = setup
    per_seed = sweep.run(seeds)
    scores = iter(scorer.score_many([result.grid for results in per_seed for result in results]))
    return [
        [dict(next(scores), token_change=result.token_change) for result in results]
        for results in per_seed
    ]


_SWEEP_METRIC_ORDER = ("mse", "psnr", "ssim", "token_change", "bg_mse", "bg_psnr")


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {args.workers}")
    cfg, params, digest, grid, mask = _setup(args)
    sweep = cfg.sweep
    if not sweep.parameter:
        raise ValidationError("config has no [sweep] section with a parameter")
    chunk_task = partial(
        _sweep_chunk,
        (editing.SeedSweep(grid, cfg.sweep_configs, params), metrics.Scorer(grid, mask)),
    )
    width = min(editing.seed_chunk_width(params), -(-len(sweep.seeds) // args.workers))
    chunks = [sweep.seeds[i : i + width] for i in range(0, len(sweep.seeds), width)]
    workers = min(args.workers, len(chunks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded at start-up

        # one thread per worker: the worker processes already share the cores
        with ProcessPoolExecutor(max_workers=workers, initializer=_blocks.one_thread) as pool:
            per_chunk = list(pool.map(chunk_task, chunks))
    else:
        per_chunk = [chunk_task(chunk) for chunk in chunks]
    per_seed = [seed_scores for chunk_scores in per_chunk for seed_scores in chunk_scores]
    names = [name for name in _SWEEP_METRIC_ORDER if name in per_seed[0][0]]
    points = [f"{sweep.parameter}={value!r}" for value in sweep.values]
    # rows are value-major: every seed of the first value, then the next
    rows = [
        fileio.format_metric_row(digest.hex(), seed, name, point, scores[i][name])
        for i, point in enumerate(points)
        for seed, scores in zip(sweep.seeds, per_seed)
        for name in names
    ]
    # summary block: per-value means, seed column = "mean"
    rows += [
        fileio.format_metric_row(
            digest.hex(), "mean", name, point, float(np.mean([x[i][name] for x in per_seed]))
        )
        for i, point in enumerate(points)
        for name in names
    ]
    out = _out_dir(cfg)
    fileio.write_metrics_csv(out / "sweep.csv", rows)
    print(
        f"sweep {sweep.parameter} over {list(sweep.values)} x {len(sweep.seeds)} seeds"
        f" -> {out / 'sweep.csv'}"
    )
    for row in rows[-len(names) * len(sweep.values) :]:
        print("  " + row)
    return EXIT_OK


def cmd_render(args) -> int:
    cfg = _load_effective_config(args)
    cfg.build_params()  # checks [codec] and [predictor], as every other command does
    out = _out_dir(cfg)
    path = Path(args.infile)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    stem = path.stem
    written = []
    if magic == fileio.GRID_MAGIC:
        grid, header = fileio.read_grid(path)
        comment = f"digest={header.digest.hex()} seed={header.seed}"
        for ch in range(grid.shape[0]):
            target = out / f"{stem}.ch{ch}.pgm"
            fileio.write_pgm(target, fileio.gray_from_channel(grid[ch]), comment)
            written.append(target)
    elif magic == fileio.PYRAMID_MAGIC:
        maps, vocab, header = fileio.read_pyramid(path)
        comment = f"digest={header.digest.hex()} seed={header.seed}"
        for k, tokens in enumerate(maps, start=1):
            target = out / f"{stem}.scale{k}.pgm"
            fileio.write_pgm(target, fileio.gray_from_tokens(tokens, vocab), comment)
            written.append(target)
    else:
        raise FormatError(f"{path} is neither a grid nor a pyramid artifact")
    print(f"rendered {path} -> {len(written)} image(s) in {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invnoise",
        description="Inverse-noise extraction and editing for next-scale token pyramids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=True, seed=True):
        p.add_argument("--config", help="INI experiment config")
        if seed:
            p.add_argument("--seed", type=int, help="override the edit/inversion seed")
        p.add_argument("--out", help="override the output directory")
        if grid:
            p.add_argument(
                "--grid",
                default="demo:scene-a",
                help="input grid artifact, or demo:<scene> (default demo:scene-a)",
            )

    p = sub.add_parser("encode", help="encode a grid and score its reconstruction")
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("invert", help="extract an inverse-noise set from a grid")
    common(p)
    p.add_argument("--kind", choices=(KIND_LAI, KIND_OAI), default=KIND_LAI)
    p.add_argument(
        "--tau",
        type=float,
        help="override the inversion margin (default 18, or 12 under --condition target)",
    )
    p.add_argument(
        "--condition",
        choices=("source", "target"),
        default="source",
        help="which configured label guides the inversion",
    )
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("edit", help="edit a grid toward the target label")
    common(p)
    p.add_argument("--mode", choices=editing.EDIT_MODES, help="editing pipeline")
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise", help="inverse-noise artifact to reuse")
    noise.add_argument(
        "--auto-invert",
        action="store_true",
        help="extract the inverse noise on the fly instead of --noise",
    )
    p.add_argument("--tau", type=float, help="override the inversion margin")
    p.add_argument("--start-scale", dest="start_scale", type=int)
    p.add_argument(
        "--lambda",
        dest="lam",
        help="'linear' or a constant interpolation weight in [0, 1]",
    )
    p.add_argument("--mask", help="edit-region mask: demo:<scene>, grid file, or 'none'")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("sweep", help="run the configured parameter sweep")
    common(p, seed=False)  # the seeds come from [sweep] seeds
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="render a grid or pyramid artifact to PGM")
    common(p, grid=False)
    p.add_argument("--in", dest="infile", required=True, help="artifact to render")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
