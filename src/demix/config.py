"""Experiment configuration: flat ``section.key = value`` text files.

The keys are the ``section.field`` names of the sections of
``ExperimentConfig``; nested dataclasses flatten into their section
(``LossSpec.dm.eta`` is ``loss.eta``). Each key takes its default from its
field and its parser from the type of that default. Unknown keys are hard
errors, and parse -> serialize -> parse is the identity on the config object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .losses import LossSpec
from .mixers import MixConfig
from .network import TrainConfig
from .semisup import SSLConfig


@dataclass(frozen=True)
class DatasetSpec:
    source: str = "images"  # images | blobs | two_moons | idx
    size: int = 1000  # training subset size
    val_size: int = 1000
    label_fraction: float = 1.0  # fraction of the training subset kept labeled
    noise: float = 0.25
    seed: int = 0
    num_classes: int = 10
    shift: int = 3
    images: str = ""  # idx source paths
    labels: str = ""

    def __post_init__(self):
        if self.source not in ("images", "blobs", "two_moons", "idx"):
            raise ValueError(f"unknown dataset source {self.source!r}")
        if not (0.0 < self.label_fraction <= 1.0):
            raise ValueError("label_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class NetworkConfig:
    arch: str = "mlp"  # mlp | conv
    hidden: int = 256

    def __post_init__(self):
        if self.arch not in ("mlp", "conv"):
            raise ValueError(f"unknown architecture {self.arch!r}")


@dataclass(frozen=True)
class EvalConfig:
    mixed_pairs: bool = False
    mixed_pair_count: int = 200
    fgsm: bool = False
    fgsm_epsilon: float = 8.0 / 255.0
    occlusion: bool = False
    occlusion_patch: int = 4
    occlusion_ratios: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    confidence_bins: int = 0


@dataclass(frozen=True)
class RunConfig:
    name: str = "exp"
    seeds: tuple[int, ...] = (1,)
    out: str = "runs"

    def __post_init__(self):
        if len(self.seeds) == 0:
            raise ValueError("at least one seed required")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    mixer: MixConfig | None = field(default_factory=MixConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ssl: SSLConfig | None = None
    eval: EvalConfig = field(default_factory=EvalConfig)
    run: RunConfig = field(default_factory=RunConfig)


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parser(default):
    """The value parser a key gets from the type of its dataclass default."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return lambda s: tuple(type(default[0])(p) for p in s.split(",") if p.strip())
    return type(default)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(_fmt(p) for p in v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# Every section present, so each key has a default to flatten from.
_FULL = ExperimentConfig(ssl=SSLConfig())


def _section_items(name: str, section) -> dict[str, object]:
    """``name.field`` -> value; nested dataclasses (``LossSpec.dm``,
    ``LossSpec.rescale``) flatten into the same section."""
    out: dict[str, object] = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            out.update(_section_items(name, value))
        elif f"{name}.{f.name}" != "train.seed":  # filled in from run.seeds
            out[f"{name}.{f.name}"] = value
    return out


def _flatten(cfg: ExperimentConfig) -> dict[str, object]:
    out: dict[str, object] = {}
    for f in fields(ExperimentConfig):
        section = getattr(cfg, f.name)
        if f.name == "ssl":
            out["ssl.enabled"] = section is not None
        if section is None:
            section = getattr(_FULL, f.name)
        out.update(_section_items(f.name, section))
    if cfg.mixer is None:
        out["mixer.policy"] = "none"
    return out


_DEFAULTS = _flatten(ExperimentConfig())
_PARSERS = {key: _parser(default) for key, default in _DEFAULTS.items()}


def _build_section(name: str, proto, values: dict[str, object]):
    """The inverse of ``_section_items``: ``proto`` with the flat values put in."""
    changes = {}
    for f in fields(proto):
        value = getattr(proto, f.name)
        if is_dataclass(value):
            changes[f.name] = _build_section(name, value, values)
        else:
            changes[f.name] = values.get(f"{name}.{f.name}", value)
    return type(proto)(**changes)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat config format; any unknown key raises before any work.

    A section's own check fails with the section name and the line of each
    key of that section the text set.
    """
    values = dict(_DEFAULTS)
    seen: dict[str, int] = {}  # key -> line of its last setting
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](val.strip())
        except ValueError as e:
            raise ValueError(f"line {lineno}: bad value for {key}: {e}") from e
        seen[key] = lineno
    # Rescaled-target BCE ships the recommended curve per mixer family unless
    # the curve was set explicitly: cut-based (1, 0.8), interpolation (0.5, 1).
    if values["loss.kind"] == "dm_bce" and not seen.keys() & {"loss.t", "loss.xi"}:
        if values["mixer.policy"] in ("cutmix", "resizemix"):
            values["loss.t"], values["loss.xi"] = 1.0, 0.8
        else:
            values["loss.t"], values["loss.xi"] = 0.5, 1.0
    absent = {"mixer": values["mixer.policy"] == "none", "ssl": not values["ssl.enabled"]}
    sections = {}
    for f in fields(ExperimentConfig):
        if absent.get(f.name):
            sections[f.name] = None
            continue
        try:
            sections[f.name] = _build_section(f.name, getattr(_FULL, f.name), values)
        except ValueError as e:
            keys = sorted((n, k) for k, n in seen.items() if k.startswith(f"{f.name}."))
            where = ", ".join(f"line {n}: {k}" for n, k in keys)
            raise ValueError(f"config section {f.name!r} ({where}): {e}") from e
    return ExperimentConfig(**sections)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{key} = {_fmt(value)}" for key, value in _flatten(cfg).items()]
    return "\n".join(lines) + "\n"
