"""Run configuration: defaults, INI file parsing, overrides, validation.

The file format is INI with one section per concern (run / dataset /
model / keys / losses / optimizer). The dataclasses below are the schema:
the sections, keys, defaults, parsers and serialized order are all read
off them. Parsing is strict: an unknown section or key is fatal, so
ablation tables can be trusted to test what their configs say.
``--set section.key=value`` overrides use the same schema.

Defaults encode the reference operating point: tau 0.07, key momentum
0.999, bank momentum 0.5, 10x head learning rate, SGD momentum 0.9, all
three loss weights 1.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields, is_dataclass


class ConfigError(ValueError):
    """A config file, key, or value failed validation."""


DATASET_KINDS = ("blobs", "rings", "file")
KEY_GENERATORS = ("moco", "membank")
WARMUP_MODES = ("prefill", "defer")
CCE_VARIANTS = ("literal", "per_key")
REDUCTIONS = ("sum", "mean")


@dataclass
class DatasetConfig:
    kind: str = "blobs"
    classes: int = 3
    per_class: int = 60
    dim: int = 4
    separation: float = 6.0
    noise: float = 1.0
    seed: int | None = None  # fixes the generated data across run seeds
    path: str = ""
    delimiter: str = ","
    label_column: int = 0
    has_header: bool = False
    train_fraction: float = 0.7
    sampling_rate: float = 1.0


@dataclass
class ModelConfig:
    hidden: tuple[int, ...] = (64,)
    feature_dim: int = 32
    projector_dim: int = 128
    classifier_bias: bool = False


@dataclass
class KeysConfig:
    generator: str = "moco"
    queue_size: int = 32
    keys_per_class: int = 2
    momentum: float = 0.999
    bank_momentum: float = 0.5
    bank_uniform: bool = False
    warmup_mode: str = "prefill"


@dataclass
class LossesConfig:
    tau: float = 0.07
    ce: float = 1.0
    cce: float = 1.0
    ccl: float = 1.0
    cce_variant: str = "literal"
    reduction: str = "sum"

    def weights(self) -> tuple[float, float, float]:
        return (self.ce, self.cce, self.ccl)

    @property
    def contrastive(self) -> bool:
        """Whether cce or ccl is on, and so whether a step needs keys."""
        return self.cce != 0.0 or self.ccl != 0.0


@dataclass
class OptimizerConfig:
    # The reference protocol's 0.01 assumes its own scale; with summed
    # losses and a desk-size model the stable default is much smaller.
    # Learning rate is the one optimizer constant meant to be task-tuned.
    base_lr: float = 1e-4
    head_lr_multiplier: float = 10.0
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    iterations: int = 500
    batch_size: int = 32
    schedule: str | tuple[tuple[int, float], ...] = "auto"


@dataclass
class RunConfig:
    seed: int = 0
    log_every: int = 10
    eval_every: int = 100
    out: str | None = None
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    keys: KeysConfig = field(default_factory=KeysConfig)
    losses: LossesConfig = field(default_factory=LossesConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{s!r} is not a boolean")


def _parse_hidden(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s or s == "none":
        return ()
    return tuple(int(part) for part in s.split(","))


def _parse_schedule(s: str):
    s = s.strip()
    if s in ("auto", "none"):
        return s
    points = []
    for part in s.split(","):
        it, mult = part.split(":")
        points.append((int(it), float(mult)))
    return tuple(points)


def _parse_opt_int(s: str) -> int | None:
    s = s.strip()
    return None if s in ("", "none") else int(s)


def _parse_opt_str(s: str) -> str | None:
    s = s.strip()
    return None if s == "" else s


# configparser strips every value, so config.ini names a whitespace delimiter.
_DELIMITER_NAMES = {"tab": "\t", "space": " "}


def _parse_delimiter(s: str) -> str:
    """A delimiter's name, or the text as written (not stripped, so an override can set a space or a tab)."""
    return _DELIMITER_NAMES.get(s.strip(), s)


# Keys whose text form differs from their default's type; every other key
# parses by the type of its default in RunConfig().
_IRREGULAR_PARSERS = {
    ("run", "out"): _parse_opt_str,
    ("dataset", "seed"): _parse_opt_int,
    ("dataset", "delimiter"): _parse_delimiter,
    ("model", "hidden"): _parse_hidden,
    ("optimizer", "schedule"): _parse_schedule,
}
_PARSER_BY_TYPE = {bool: _parse_bool, int: int, float: float, str: str.strip}


def _section(cfg: RunConfig, name: str):
    """The object holding a section's keys: cfg itself for [run], else its sub-dataclass."""
    return cfg if name == "run" else getattr(cfg, name)


def _build_parsers() -> dict[str, dict[str, object]]:
    """Section -> key -> parser, in serialization order, read off the dataclasses.

    [run] holds RunConfig's own scalar fields; each dataclass-valued field
    of RunConfig is a section of its own.
    """
    defaults = RunConfig()
    names = ["run"] + [f.name for f in fields(defaults) if is_dataclass(getattr(defaults, f.name))]
    table: dict[str, dict[str, object]] = {}
    for name in names:
        obj = _section(defaults, name)
        table[name] = {}
        for f in fields(obj):
            default = getattr(obj, f.name)
            if not is_dataclass(default):
                parser = _IRREGULAR_PARSERS.get((name, f.name)) or _PARSER_BY_TYPE[type(default)]
                table[name][f.name] = parser
    return table


_PARSERS = _build_parsers()


def _assign(cfg: RunConfig, section: str, key: str, raw: str) -> None:
    parser = _PARSERS.get(section, {}).get(key)
    if parser is None:
        raise ConfigError(f"unknown config key [{section}] {key}")
    try:
        value = parser(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    setattr(_section(cfg, section), key, value)


def load_config(path: str | None) -> RunConfig:
    """Read an INI file into a RunConfig; missing keys keep their defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _PARSERS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            _assign(cfg, section, key, raw)
    return cfg


def apply_overrides(cfg: RunConfig, sets: list[str]) -> None:
    """Apply repeatable ``section.key=value`` overrides in order."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        section, key = dotted.split(".", 1)
        _assign(cfg, section.strip(), key.strip(), raw)


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # schedule points
            return ",".join(f"{it}:{mult!r}" for it, mult in value)
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text: fixed section and key order, full precision.

    The same text feeds the config hash and the re-runnable config.ini
    written next to results.
    """
    out = io.StringIO()
    for name, keys in _PARSERS.items():
        obj = _section(cfg, name)
        out.write(f"[{name}]\n")
        for key in keys:
            text = _fmt_value(getattr(obj, key))
            if (name, key) == ("dataset", "delimiter"):
                text = {ch: n for n, ch in _DELIMITER_NAMES.items()}.get(text, text)
            out.write(f"{key} = {text}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: RunConfig) -> RunConfig:
    """Range- and enum-check every field; returns cfg for chaining."""
    d, m, k, lo, op = cfg.dataset, cfg.model, cfg.keys, cfg.losses, cfg.optimizer
    _require(cfg.log_every >= 1, "run.log_every must be >= 1")
    _require(cfg.eval_every >= 1, "run.eval_every must be >= 1")
    _require(d.kind in DATASET_KINDS, f"dataset.kind must be one of {DATASET_KINDS}, got {d.kind!r}")
    _require(d.classes >= 2, "dataset.classes must be >= 2")
    _require(d.per_class >= 1, "dataset.per_class must be >= 1")
    _require(d.dim >= 1, "dataset.dim must be >= 1")
    _require(d.noise >= 0.0, "dataset.noise must be >= 0")
    _require(d.separation > 0.0, "dataset.separation must be > 0")
    _require(0.0 < d.train_fraction <= 1.0, "dataset.train_fraction must be in (0, 1]")
    _require(0.0 < d.sampling_rate <= 1.0, "dataset.sampling_rate must be in (0, 1]")
    _require(d.label_column >= 0, "dataset.label_column must be >= 0")
    _require(len(d.delimiter) == 1, f"dataset.delimiter must be exactly one character, got {d.delimiter!r}")
    if d.kind == "file":
        _require(bool(d.path), "dataset.path is required for dataset.kind = file")
    _require(all(h >= 1 for h in m.hidden), "model.hidden entries must be >= 1")
    _require(m.feature_dim >= 1, "model.feature_dim must be >= 1")
    _require(m.projector_dim >= 1, "model.projector_dim must be >= 1")
    _require(k.generator in KEY_GENERATORS, f"keys.generator must be one of {KEY_GENERATORS}, got {k.generator!r}")
    _require(k.queue_size >= 1, "keys.queue_size must be >= 1")
    _require(k.keys_per_class >= 1, "keys.keys_per_class must be >= 1")
    _require(0.0 <= k.momentum <= 1.0, "keys.momentum must be in [0, 1]")
    _require(0.0 <= k.bank_momentum <= 1.0, "keys.bank_momentum must be in [0, 1]")
    _require(k.warmup_mode in WARMUP_MODES, f"keys.warmup_mode must be one of {WARMUP_MODES}")
    _require(lo.tau > 0.0, "losses.tau must be > 0")
    _require(lo.ce >= 0.0 and lo.cce >= 0.0 and lo.ccl >= 0.0, "loss weights must be >= 0")
    _require(any(w != 0.0 for w in lo.weights()), "at least one loss weight must be nonzero")
    _require(lo.cce_variant in CCE_VARIANTS, "losses.cce_variant must be literal or per_key")
    _require(lo.reduction in REDUCTIONS, "losses.reduction must be sum or mean")
    _require(op.base_lr >= 0.0, "optimizer.base_lr must be >= 0")
    _require(op.head_lr_multiplier >= 0.0, "optimizer.head_lr_multiplier must be >= 0")
    _require(0.0 <= op.sgd_momentum < 1.0, "optimizer.sgd_momentum must be in [0, 1)")
    _require(op.weight_decay >= 0.0, "optimizer.weight_decay must be >= 0")
    _require(op.iterations >= 0, "optimizer.iterations must be >= 0")
    _require(op.batch_size >= 1, "optimizer.batch_size must be >= 1")
    if not isinstance(op.schedule, str):
        for point, mult in op.schedule:
            _require(point >= 1 and mult > 0.0, "schedule points must be (iteration >= 1, multiplier > 0)")
    return cfg
