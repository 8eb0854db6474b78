"""Experiment configuration: a strict JSON schema around the model types.

One document controls a whole run. Defaults reproduce the two-operator
urban setup the simulator targets: 30 BS/km^2 and 200 UE/km^2 per
operator, 500 MHz licenses (1 GHz pooled), 30 dBm transmit power, 7 dB
noise figure, 28 GHz carrier, 100 drops. Unknown keys anywhere are hard
errors so a typo cannot silently fall back to a default. Parsing and
serialization round-trip exactly, and the canonical serialization is
hashed into every artifact for provenance.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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


def to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical nested-dict form (the JSON document layout)."""
    return {
        "region": dataclasses.asdict(cfg.region),
        "densities": {
            "bs_per_km2": cfg.bs_density_per_km2,
            "ue_per_km2": cfg.ue_density_per_km2,
        },
        "channel": dataclasses.asdict(cfg.channel),
        "antenna": dataclasses.asdict(cfg.antenna),
        "scenario": dataclasses.asdict(cfg.scenario),
        "rate": dataclasses.asdict(cfg.rate),
        "tx_power_dbm": cfg.tx_power_dbm,
        "noise_figure_db": cfg.noise_figure_db,
        "drops": cfg.drops,
        "master_seed": cfg.master_seed,
        "interference_enabled": cfg.interference_enabled,
        "full_bandwidth_per_ue": cfg.full_bandwidth_per_ue,
    }


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


_SECTION_TYPES = {"region": Region, "channel": ChannelParams, "antenna": AntennaModel,
                  "scenario": Scenario, "rate": RateParams}


def _build_section(cls, doc: dict, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {f.name: f.type for f in dataclasses.fields(cls)}
    types = {"float": float, "int": int, "bool": bool, "str": str}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        ann = known[name]
        ann = types.get(ann, ann) if isinstance(ann, str) else ann
        kwargs[name] = _coerce(value, ann, f"{path}.{name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_TOP_KEYS = ("region", "densities", "channel", "antenna", "scenario", "rate",
             "tx_power_dbm", "noise_figure_db", "drops", "master_seed",
             "interference_enabled", "full_bandwidth_per_ue")


def from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"config root: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for key, cls in _SECTION_TYPES.items():
        if key in doc:
            kwargs[key] = _build_section(cls, doc[key], key)
    if "densities" in doc:
        d = doc["densities"]
        if not isinstance(d, dict):
            raise ConfigError("densities: expected an object")
        unknown = set(d) - {"bs_per_km2", "ue_per_km2"}
        if unknown:
            raise ConfigError(f"densities: unknown key(s) {sorted(unknown)}")
        if "bs_per_km2" in d:
            kwargs["bs_density_per_km2"] = _coerce(d["bs_per_km2"], float, "densities.bs_per_km2")
        if "ue_per_km2" in d:
            kwargs["ue_density_per_km2"] = _coerce(d["ue_per_km2"], float, "densities.ue_per_km2")
    for key, ann in (("tx_power_dbm", float), ("noise_figure_db", float),
                     ("drops", int), ("master_seed", int),
                     ("interference_enabled", bool), ("full_bandwidth_per_ue", bool)):
        if key in doc:
            kwargs[key] = _coerce(doc[key], ann, key)
    try:
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


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


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(
        json.dumps(to_dict(cfg), sort_keys=True, indent=2) + "\n", encoding="utf-8")
