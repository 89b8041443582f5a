"""Experiment configuration.

Plain INI-style text files (configparser) describe the codec, the
predictor, the edit, and an optional sweep.  Every ``[edit]`` and
``[sweep]`` value is checked when the config is built: ``[sweep]`` by
``SweepSection``, and each sweep value as the ``EditConfig`` it makes.
A section or key that ``render_config`` does not write is a
``ValidationError``.
A canonical re-rendering of the parsed values is hashed into a 16-byte
digest that every output artifact embeds, so results are traceable to
their exact configuration.
"""

from __future__ import annotations

import configparser
import hashlib
import io
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


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a label may hold "%"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config: {exc}") from exc
    try:
        return _from_parser(parser)
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed config: {exc}") from exc


def _from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    d = ExperimentConfig()  # the default of every key
    known = {}  # every section and key a config may hold: those render_config writes
    for line in render_config(d).splitlines():
        if line.startswith("["):
            keys = known[line[1:-1]] = set()
        elif line:
            keys.add(line.split(" = ")[0])
    if parser.defaults():
        raise ValidationError("unknown config section [DEFAULT]")
    for name in parser.sections():
        if name not in known:
            raise ValidationError(f"unknown config section [{name}]")
        unknown = sorted(set(parser[name]) - known[name])
        if unknown:
            raise ValidationError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
    sections = {}
    if parser.has_section("codec"):
        s = parser["codec"]
        sections["codec"] = CodecSection(
            dim=s.getint("dim", d.codec.dim),
            vocab=s.getint("vocab", d.codec.vocab),
            schedule=_parse_schedule(s.get("schedule", _render_schedule(d.codec.schedule))),
            codebook_seed=s.getint("codebook_seed", d.codec.codebook_seed),
        )
    if parser.has_section("predictor"):
        s = parser["predictor"]
        sections["predictor"] = PredictorSection(
            beta=s.getfloat("beta", d.predictor.beta),
            cond_gain=s.getfloat("cond_gain", d.predictor.cond_gain),
            model_seed=s.getint("model_seed", d.predictor.model_seed),
        )
    if parser.has_section("edit"):
        s = parser["edit"]
        start = s.get("start_scale", "")
        tau = s.get("tau", "")
        sections["edit"] = EditConfig(
            source_label=s.get("source", d.edit.source_label),
            target_label=s.get("target", d.edit.target_label),
            start_scale=int(start) if start else None,
            tau=float(tau) if tau else None,
            lambda_kind=s.get("lambda_kind", d.edit.lambda_kind),
            lambda_value=s.getfloat("lambda_value", d.edit.lambda_value),
            seed=s.getint("seed", d.edit.seed),
            context_mode=s.get("context", d.edit.context_mode),
            mode=s.get("mode", d.edit.mode),
        )
    if parser.has_section("sweep"):
        s = parser["sweep"]
        sections["sweep"] = SweepSection(
            parameter=s.get("parameter", ""),
            values=_parse_values(s.get("values", "")),
            seeds=_parse_seeds(s.get("seeds", "")),
        )
    if parser.has_section("output"):
        sections["output_dir"] = parser["output"].get("dir", d.output_dir)
    return ExperimentConfig(**sections)


def render_config(cfg: ExperimentConfig, include_output: bool = True) -> str:
    """Canonical text form: fixed section/key order, normalized values."""
    buf = io.StringIO()
    buf.write("[codec]\n")
    buf.write(f"dim = {cfg.codec.dim}\n")
    buf.write(f"vocab = {cfg.codec.vocab}\n")
    buf.write(f"schedule = {_render_schedule(cfg.codec.schedule)}\n")
    buf.write(f"codebook_seed = {cfg.codec.codebook_seed}\n\n")
    buf.write("[predictor]\n")
    buf.write(f"beta = {cfg.predictor.beta!r}\n")
    buf.write(f"cond_gain = {cfg.predictor.cond_gain!r}\n")
    buf.write(f"model_seed = {cfg.predictor.model_seed}\n\n")
    e = cfg.edit
    buf.write("[edit]\n")
    buf.write(f"source = {e.source_label}\n")
    buf.write(f"target = {e.target_label}\n")
    buf.write(f"start_scale = {'' if e.start_scale is None else e.start_scale}\n")
    buf.write(f"tau = {'' if e.tau is None else repr(float(e.tau))}\n")
    buf.write(f"lambda_kind = {e.lambda_kind}\n")
    buf.write(f"lambda_value = {e.lambda_value!r}\n")
    buf.write(f"seed = {e.seed}\n")
    buf.write(f"context = {e.context_mode}\n")
    buf.write(f"mode = {e.mode}\n\n")
    s = cfg.sweep
    buf.write("[sweep]\n")
    buf.write(f"parameter = {s.parameter}\n")
    buf.write(f"values = {','.join(repr(v) for v in s.values)}\n")
    buf.write(f"seeds = {','.join(str(x) for x in s.seeds)}\n\n")
    if include_output:
        buf.write("[output]\n")
        buf.write(f"dir = {cfg.output_dir}\n")
    return buf.getvalue()


def config_digest(cfg: ExperimentConfig) -> bytes:
    """16-byte digest of the canonical rendering.

    The output directory is excluded: it routes artifacts but does not
    shape them, and the same experiment must hash identically wherever
    its files land.
    """
    return hashlib.sha256(render_config(cfg, include_output=False).encode("utf-8")).digest()[:16]
