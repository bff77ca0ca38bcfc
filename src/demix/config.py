"""Experiment configuration: flat ``section.key = value`` text files.

The keys are the ``section.field`` names of the sections of
``ExperimentConfig``; nested dataclasses flatten into their section
(``LossSpec.dm.eta`` is ``loss.eta``). Each key takes its default from its
field and its parser from the type of that default. Unknown keys are hard
errors, and parse -> serialize -> parse is the identity on the config object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .data import _check_fields
from .evaluation import AttackConfig, OcclusionConfig
from .losses import LossSpec, recommended_rescale
from .mixers import CUT_POLICIES, MixConfig
from .network import TrainConfig
from .semisup import SSLConfig


class ConfigError(ValueError):
    """A config text that :func:`parse_config` rejects; the message names the
    line of each key at fault."""


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
        _check_fields(self, "label_fraction", above=0, most=1)
        _check_fields(self, "size", "val_size", "num_classes", above=0)
        _check_fields(self, "noise", "shift", "seed", least=0)
        if self.source in ("blobs", "two_moons") and self.size < 2:
            raise ValueError(f"size must be at least 2 for {self.source}, got {self.size}")
        if self.source == "two_moons" and self.num_classes != 2:
            raise ValueError(f"num_classes must be 2 for two_moons, got {self.num_classes}")
        missing = [key for key in ("images", "labels") if not getattr(self, key)]
        if self.source == "idx" and missing:
            raise ValueError(f"source idx needs {' and '.join(missing)} set to a file path")


@dataclass(frozen=True)
class NetworkConfig:
    arch: str = "mlp"  # mlp | conv
    hidden: int = 256

    def __post_init__(self):
        if self.arch not in ("mlp", "conv"):
            raise ValueError(f"unknown architecture {self.arch!r}")
        _check_fields(self, "hidden", above=0)


@dataclass(frozen=True)
class EvalConfig:
    mixed_pairs: bool = False
    mixed_pair_count: int = 200
    fgsm: bool = False
    fgsm_epsilon: float = AttackConfig.epsilon
    occlusion: bool = False
    occlusion_patch: int = OcclusionConfig.patch_size
    occlusion_ratios: tuple[float, ...] = OcclusionConfig.ratios
    confidence_bins: int = 0

    def __post_init__(self):
        _check_fields(self, "mixed_pair_count", least=1)
        OcclusionConfig(self.occlusion_patch, self.occlusion_ratios)
        AttackConfig(self.fgsm_epsilon)
        _check_fields(self, "confidence_bins", least=0)


@dataclass(frozen=True)
class RunConfig:
    name: str = "exp"
    seeds: tuple[int, ...] = (1,)
    out: str = "runs"

    def __post_init__(self):
        if len(self.seeds) == 0:
            raise ValueError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {self.seeds}")
        # metrics.csv writes the name as a bare field of one line.
        if any(c in self.name for c in ",\n\r"):
            raise ValueError(f"name must hold no comma or line break, got {self.name!r}")


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
        item = _parser(default[0])
        return lambda s: tuple(item(p) for p in s.split(",") if p.strip())
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

# Settings that cut, paste or convolve over image rows and columns.
_IMAGE_ONLY = {
    "mixer.policy": CUT_POLICIES,
    "network.arch": ("conv",),
    "eval.mixed_pairs": (True,),
    "eval.occlusion": (True,),
}


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
    """Parse the flat config format; any fault raises :class:`ConfigError`
    before any work.

    A section's own check fails with the section name and the line of each
    key of that section the text set. A setting that needs images on a
    vector dataset fails with the lines of both keys.
    """
    values = dict(_DEFAULTS)
    seen: dict[str, int] = {}  # key -> line of its setting
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} is already set on line {seen[key]}")
        try:
            values[key] = _PARSERS[key](val.strip())
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
        seen[key] = lineno
    # Unless set: dm_bce takes the curve its mixer recommends, two_moons two classes.
    if values["loss.kind"] == "dm_bce" and not seen.keys() & {"loss.t", "loss.xi"}:
        curve = recommended_rescale(values["mixer.policy"])
        values["loss.t"], values["loss.xi"] = curve.t, curve.xi
    if values["dataset.source"] == "two_moons" and "dataset.num_classes" not in seen:
        values["dataset.num_classes"] = 2
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
            raise ConfigError(f"config section {f.name!r} ({where}): {e}") from e
    source = values["dataset.source"]
    if source in ("blobs", "two_moons"):
        for key, image_values in _IMAGE_ONLY.items():
            if values[key] in image_values:
                where = f"line {seen['dataset.source']}: dataset.source, line {seen[key]}: {key}"
                raise ConfigError(
                    f"config ({where}): {key} = {_fmt(values[key])} needs image inputs, "
                    f"but dataset.source = {source} gives vectors"
                )
    return ExperimentConfig(**sections)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{key} = {_fmt(value)}" for key, value in _flatten(cfg).items()]
    return "\n".join(lines) + "\n"
