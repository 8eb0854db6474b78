"""Experiment configuration: a strict JSON schema around the model types.

One document controls a whole run. Defaults reproduce the two-operator
urban setup the simulator targets: 30 BS/km^2 and 200 UE/km^2 per
operator, 500 MHz licenses (1 GHz pooled), 30 dBm transmit power, 7 dB
noise figure, 28 GHz carrier, 100 drops. The layout comes from the
dataclasses: one key per `ExperimentConfig` field, one object per section
(`region`, `channel`, `antenna`, `scenario`, `rate`), typed by the field
annotations. `densities` is the one renamed group (`_DENSITIES`). Unknown
keys anywhere are hard errors so a typo cannot silently fall back to a
default. Parsing and serialization round-trip exactly, and the canonical
serialization is hashed into every artifact for provenance.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .allocation import RateParams
from .channel import AntennaModel, ChannelParams, require_finite
from .geometry import Region
from .scenario import Scenario

SPEC_REVISION = "1"   # artifact schema revision embedded in every output file


class ConfigError(ValueError):
    """Invalid configuration document (bad key, type, or value)."""


@dataclass
class ExperimentConfig:
    region: Region = field(default_factory=Region)
    bs_density_per_km2: float = 30.0   # per operator
    ue_density_per_km2: float = 200.0  # per operator
    channel: ChannelParams = field(default_factory=ChannelParams)
    antenna: AntennaModel = field(default_factory=AntennaModel)
    scenario: Scenario = field(default_factory=lambda: Scenario("NoSharing"))
    rate: RateParams = field(default_factory=RateParams)
    tx_power_dbm: float = 30.0
    noise_figure_db: float = 7.0
    drops: int = 100
    master_seed: int = 0
    interference_enabled: bool = True
    full_bandwidth_per_ue: bool = False   # optimistic reading: no per-BS split

    def __post_init__(self):
        for density in (self.bs_density_per_km2, self.ue_density_per_km2):
            if not (math.isfinite(density) and density > 0):
                raise ConfigError("densities must be finite and > 0")
        require_finite(self, ConfigError)
        if self.drops < 1:
            raise ConfigError("drops must be >= 1")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


# The document's one departure from the fields: field -> key in the
# "densities" group. It drives both `to_dict` and `from_dict`.
_DENSITIES = {"bs_density_per_km2": "bs_per_km2", "ue_density_per_km2": "ue_per_km2"}


def to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical nested-dict form (the JSON document layout)."""
    doc = dataclasses.asdict(cfg)
    doc["densities"] = {key: doc.pop(name) for name, key in _DENSITIES.items()}
    return doc


def _coerce(value, annotation: type, path: str):
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:   # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if annotation is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported field type {annotation}")


def _read(doc, types: dict, path: str) -> dict:
    """The values of the document object `doc`, checked against `types`.

    `types` maps each allowed key to a scalar type, a dataclass (a section,
    built by `_build`) or a dict of types (a group). `path` names the
    object in errors; "" is the config root.
    """
    where = path or "config root"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(doc) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    values = {}
    for key, value in doc.items():
        ann, at = types[key], f"{path}.{key}" if path else key
        if isinstance(ann, dict):
            values[key] = _read(value, ann, at)
        elif dataclasses.is_dataclass(ann):
            values[key] = _build(ann, value, at)
        else:
            values[key] = _coerce(value, ann, at)
    return values


def _build(cls, doc, path: str = ""):
    """`cls` from its document object, each field typed by its annotation."""
    types = typing.get_type_hints(cls)
    group = {key: types.pop(name) for name, key in _DENSITIES.items() if name in types}
    if group:
        types["densities"] = group
    kwargs = _read(doc, types, path)
    grouped = kwargs.pop("densities", {})
    kwargs.update((name, grouped[key]) for name, key in _DENSITIES.items() if key in grouped)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def from_dict(doc: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, doc)


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the canonical serialization; identifies a run's inputs."""
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file; diagnostics carry the file and field."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    try:
        return from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from exc
