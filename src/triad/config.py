"""Strict JSON run configuration shared by every CLI command.

Each default is written once, on the dataclass it configures, and
`DEFAULT_CONFIG` is derived from them; only `metrics.fpr_limits` has no
dataclass and is written here.  Unknown keys are rejected by name, and every
value must have its default's JSON type.  The resolved configuration
(defaults filled in) is hashed so that every output file can state exactly
which settings produced it.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .losses import LossWeights
from .model import MAPPER_GACM, MAPPER_MLP, ModelDims
from .octa import PromptCatalog
from .scoring import FusionWeights
from .synthdata import SynthConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


def _default_config() -> dict:
    train = asdict(TrainConfig())
    weights = train.pop("loss_weights")
    model = asdict(ModelDims())
    del model["d_rgb"], model["d_3d"]  # the data section sets the feature widths
    return {
        "seed": train.pop("seed"),
        "data": asdict(SynthConfig()),
        "model": {**model, "mapper": MAPPER_GACM},
        "train": {**train, **weights},
        "fusion": asdict(FusionWeights()),
        "metrics": {"fpr_limits": [0.30, 0.01]},
        "prompts": asdict(PromptCatalog()),
    }


DEFAULT_CONFIG: dict = _default_config()


def check_fpr_limits(limits: list[float]) -> None:
    """Every AUPRO FPR limit must lie in (0, 1]; `ConfigError` otherwise."""
    for lim in limits:
        if not 0.0 < lim <= 1.0:
            raise ConfigError(f"fpr limit {lim} out of (0, 1]")

_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               list: "an array", dict: "an object"}


def _strict(default, value, here: str, partial: bool):
    """`value` checked against `default`'s JSON type; an int stands for a float.

    With `partial`, a key missing from an object takes its default.
    """
    if type(value) is int and type(default) is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"config key {here} is out of range") from None
    if type(value) is not type(default):
        raise ConfigError(f"config key {here or '(root)'} must be "
                          f"{_JSON_TYPES[type(default)]}, "
                          f"got {json.dumps(value, default=str)}")
    if isinstance(default, list):
        return [_strict(default[0], v, f"{here}[{i}]", partial)
                for i, v in enumerate(value)]
    if not isinstance(default, dict):
        return value
    prefix = f"{here}." if here else ""
    for key in value:
        if key not in default:
            raise ConfigError(f"unknown config key: {prefix}{key}")
    for key in default:
        if key not in value and not partial:
            raise ConfigError(f"missing config key: {prefix}{key}")
    return {key: _strict(d, value[key], prefix + key, partial) if key in value
            else copy.deepcopy(d) for key, d in default.items()}


def resolve_config(overrides: dict | None = None,
                   seed_override: int | None = None) -> dict:
    resolved = _strict(DEFAULT_CONFIG, overrides or {}, "", partial=True)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    return resolved


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class RunConfig:
    raw: dict
    hash: str
    seed: int
    data: SynthConfig
    dims: ModelDims
    mapper_kind: str
    train: TrainConfig
    fusion: FusionWeights
    fpr_limits: list[float]
    catalog: PromptCatalog


def build_run_config(resolved: dict) -> RunConfig:
    """Check a complete configuration and build each section's dataclass."""
    raw = _strict(DEFAULT_CONFIG, resolved, "", partial=False)
    data = SynthConfig(**raw["data"])
    model = dict(raw["model"])
    mapper = model.pop("mapper")
    train = dict(raw["train"])
    weights = LossWeights(**{f.name: train.pop(f.name) for f in fields(LossWeights)})
    cfg = RunConfig(raw=raw, hash=config_hash(raw), seed=raw["seed"], data=data,
                    dims=ModelDims(d_rgb=data.d_rgb, d_3d=data.d_3d, **model),
                    mapper_kind=mapper,
                    train=TrainConfig(**train, seed=raw["seed"], loss_weights=weights),
                    fusion=FusionWeights(**raw["fusion"]),
                    fpr_limits=raw["metrics"]["fpr_limits"],
                    catalog=PromptCatalog(**raw["prompts"]))
    try:
        if cfg.seed < 0:  # numpy's seed sequences take non-negative integers
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
        for section in (cfg.data, cfg.dims, cfg.train, cfg.fusion, cfg.catalog):
            section.validate()
        check_fpr_limits(cfg.fpr_limits)
        if mapper not in (MAPPER_GACM, MAPPER_MLP):
            raise ValueError(f"model.mapper must be {MAPPER_GACM!r} or "
                             f"{MAPPER_MLP!r}, got {mapper!r}")
        if mapper == MAPPER_GACM and data.d_3d < 2:  # the mapper's LayerNorm
            raise ValueError(f"data.d_3d must be >= 2 with the {MAPPER_GACM!r} "
                             f"mapper, got {data.d_3d}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path=None, seed_override: int | None = None) -> RunConfig:
    overrides: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            overrides = json.loads(text)
        except ValueError as exc:  # also integers too long to convert
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config root must be a JSON object")
    return build_run_config(resolve_config(overrides, seed_override))
