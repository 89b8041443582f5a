"""Experiment configuration.

Plain INI-style text files (configparser) describe the codec, the
predictor, the edit, and an optional sweep.  Every ``[edit]`` and
``[sweep]`` value is checked when the config is built: ``[sweep]`` by
``SweepSection``, and each sweep value as the ``EditConfig`` it makes.
One table, ``SECTIONS``, lists every section and key with its parser
and renderer; loading and rendering both read it, and a section or key
it does not list is a ``ValidationError``.
A canonical re-rendering of the parsed values is hashed into a 16-byte
digest that every output artifact embeds, so results are traceable to
their exact configuration.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, replace

from .codec import ScaleSchedule, default_codebook
from .editing import EditConfig
from .errors import ValidationError
from .predictor import PredictorParams
from .rng import SEED_LIMIT, seed_array


@dataclass(frozen=True)
class CodecSection:
    dim: int = 4
    vocab: int = 64
    schedule: tuple[tuple[int, int], ...] = ((1, 1), (2, 2), (4, 4), (8, 8), (16, 16))
    codebook_seed: int = 101


@dataclass(frozen=True)
class PredictorSection:
    beta: float = 4.0
    cond_gain: float = 0.5
    model_seed: int = 7


# Most entries one array of a config may hold (512 MiB of float64): the
# codebook, the condition map, the grid and one scale's logits, noise or
# keyed draws.  ``build_params`` checks it before anything is allocated.
ENTRY_LIMIT = 2**26

SWEEP_PARAMETERS = ("tau", "start_scale", "lambda")
# Most seeds a [sweep] range may hold; checked before the range is built.
SEED_RANGE_LIMIT = 2**20


@dataclass(frozen=True)
class SweepSection:
    """No sweep (``parameter`` empty), or one of ``SWEEP_PARAMETERS``
    over non-empty ``values`` (whole numbers for ``start_scale``) at
    non-empty ``seeds``."""

    parameter: str = ""
    values: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()

    def __post_init__(self):
        seed_array(self.seeds)
        if not self.parameter:
            return
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValidationError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {self.parameter!r}"
            )
        if not (self.values and self.seeds):
            raise ValidationError("sweep values and seeds must not be empty")
        if self.parameter == "start_scale" and not all(float(v).is_integer() for v in self.values):
            raise ValidationError(f"start_scale sweep values must be integers, got {self.values}")


def _sweep_point(edit: EditConfig, parameter: str, value: float) -> EditConfig:
    if parameter == "tau":
        return replace(edit, tau=value)
    if parameter == "start_scale":
        return replace(edit, start_scale=int(value))
    return replace(edit, lambda_kind="constant", lambda_value=value)


@dataclass(frozen=True)
class ExperimentConfig:
    codec: CodecSection = field(default_factory=CodecSection)
    predictor: PredictorSection = field(default_factory=PredictorSection)
    edit: EditConfig = field(
        default_factory=lambda: EditConfig(
            "red brick house among pines", "blue glass tower among pines"
        )
    )
    sweep: SweepSection = field(default_factory=SweepSection)
    output_dir: str = "out"
    # the edit of each sweep value, derived from ``edit`` and so checked
    # whenever the config is built or replaced
    sweep_configs: tuple[EditConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sweep = self.sweep
        configs = ()
        if sweep.parameter:
            configs = tuple(_sweep_point(self.edit, sweep.parameter, v) for v in sweep.values)
        object.__setattr__(self, "sweep_configs", configs)

    def build_params(self) -> PredictorParams:
        codec = self.codec
        _check_entries(codec)
        return PredictorParams(
            codebook=default_codebook(size=codec.vocab, dim=codec.dim, seed=codec.codebook_seed),
            schedule=ScaleSchedule(codec.schedule),
            model_seed=self.predictor.model_seed,
            beta=self.predictor.beta,
            cond_gain=self.predictor.cond_gain,
        )

    def build_edit_config(self) -> EditConfig:
        """The ``[edit]`` settings, ``self.edit``."""
        return self.edit


def _check_entries(codec: CodecSection) -> None:
    """Reject a codec one of whose arrays would hold more than
    ``ENTRY_LIMIT`` entries, from its sizes alone."""
    cells = max((h * w for h, w in codec.schedule), default=0)
    arrays = {
        "codebook (vocab x dim)": codec.vocab * codec.dim,
        "condition map (dim x dim)": codec.dim * codec.dim,
        "grid (dim x h x w)": codec.dim * cells,
        "scale (h x w x vocab)": cells * codec.vocab,
    }
    for name, entries in arrays.items():
        if entries > ENTRY_LIMIT:
            raise ValidationError(
                f"a {name} of {entries} entries exceeds the entry limit of {ENTRY_LIMIT}"
            )


def _parse_schedule(text: str) -> tuple[tuple[int, int], ...]:
    """"1,2,4,8,16" (square) or "1x1,2x2,...,16x16"."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "x" in part:
            h, w = part.split("x")
            out.append((int(h), int(w)))
        else:
            out.append((int(part), int(part)))
    if not out:
        raise ValidationError("schedule must list at least one resolution")
    return tuple(out)


def _render_schedule(schedule) -> str:
    return ",".join(f"{h}x{w}" for h, w in schedule)


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma list ("0,1,2") or half-open range ("0:32")."""
    text = text.strip()
    if not text:
        return ()
    if ":" in text:
        lo, hi = (int(p) for p in text.split(":"))
        if lo < 0 or hi > SEED_LIMIT:
            raise ValidationError(f"seed range {lo}:{hi} outside [0, 2^64)")
        if hi - lo > SEED_RANGE_LIMIT:
            raise ValidationError(f"seed range {lo}:{hi} holds more than {SEED_RANGE_LIMIT} seeds")
        return tuple(range(lo, hi))
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_values(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


# The INI format, the only place that names a key: each section in
# canonical order, the ExperimentConfig field it builds (None for
# [output], whose key sets a field of the config itself), and each key
# as (key, field, parse, render).
SECTIONS = (
    ("codec", "codec", (
        ("dim", "dim", int, str),
        ("vocab", "vocab", int, str),
        ("schedule", "schedule", _parse_schedule, _render_schedule),
        ("codebook_seed", "codebook_seed", int, str),
    )),
    ("predictor", "predictor", (
        ("beta", "beta", float, repr),
        ("cond_gain", "cond_gain", float, repr),
        ("model_seed", "model_seed", int, str),
    )),
    ("edit", "edit", (
        ("source", "source_label", str, str),
        ("target", "target_label", str, str),
        # a blank value stands for None
        ("start_scale", "start_scale", lambda t: int(t) if t else None,
         lambda v: "" if v is None else str(v)),
        ("tau", "tau", lambda t: float(t) if t else None,
         lambda v: "" if v is None else repr(float(v))),
        ("lambda_kind", "lambda_kind", str, str),
        ("lambda_value", "lambda_value", float, repr),
        ("seed", "seed", int, str),
        ("context", "context_mode", str, str),
        ("mode", "mode", str, str),
    )),
    ("sweep", "sweep", (
        ("parameter", "parameter", str, str),
        ("values", "values", _parse_values, lambda vs: ",".join(map(repr, vs))),
        ("seeds", "seeds", _parse_seeds, lambda xs: ",".join(map(str, xs))),
    )),
    ("output", None, (("dir", "output_dir", str, str),)),
)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a label may hold "%"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.MissingSectionHeaderError as exc:  # one line, not configparser's 3
        raise ValidationError(f"malformed config: {path}, line {exc.lineno}: "
                              f"{exc.line.strip()!r} comes before any [section] header") from exc
    except configparser.ParsingError as exc:
        raise ValidationError(f"malformed config: {path}, line {exc.errors[0][0]} is not a "
                              "[section] header or a key = value line") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config: {exc}") from exc
    try:
        return _from_parser(parser)
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed config: {exc}") from exc


def _from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    if parser.defaults():
        raise ValidationError("unknown config section [DEFAULT]")
    known = {name: {key for key, *_ in keys} for name, _, keys in SECTIONS}
    for name in parser.sections():
        if name not in known:
            raise ValidationError(f"unknown config section [{name}]")
        unknown = sorted(set(parser[name]) - known[name])
        if unknown:
            raise ValidationError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
    default = ExperimentConfig()  # a missing key keeps its value here
    built = {}
    for name, attr, keys in SECTIONS:
        if not parser.has_section(name):
            continue
        s = parser[name]
        values = {field: parse(s[key]) for key, field, parse, _ in keys if key in s}
        if attr is None:
            built.update(values)
        else:  # through the section's constructor, which checks it
            built[attr] = replace(getattr(default, attr), **values)
    return ExperimentConfig(**built)


def render_config(cfg: ExperimentConfig, include_output: bool = True) -> str:
    """Canonical text form: the sections and keys of ``SECTIONS`` in
    order, each value rendered by its key, and a blank line after every
    section but [output]."""
    text = ""
    for name, attr, keys in SECTIONS:
        if attr is None and not include_output:
            continue
        holder = cfg if attr is None else getattr(cfg, attr)
        text += f"[{name}]\n"
        text += "".join(f"{key} = {render(getattr(holder, field))}\n" for key, field, _, render in keys)
        text += "" if attr is None else "\n"
    return text


def config_digest(cfg: ExperimentConfig) -> bytes:
    """16-byte digest of the canonical rendering.

    The output directory is excluded: it routes artifacts but does not
    shape them, and the same experiment must hash identically wherever
    its files land.
    """
    return hashlib.sha256(render_config(cfg, include_output=False).encode("utf-8")).digest()[:16]
