"""Run configuration: defaults, YAML loading, resolved snapshots."""

from __future__ import annotations

import copy
import json
import math
from importlib import resources
from pathlib import Path

import yaml

from .exceptions import ConfigError
from .replay import DEFAULT_A_GRID, DEFAULT_U_GRID

DEFAULT_TOPIC = "The city should adopt participatory budgeting"

# Every leaf is read by a command, and its default fixes the type a
# config file may give it (see _conforms).
DEFAULTS = {
    "sweep": {
        "topic": DEFAULT_TOPIC,
        "grid": [0.2, 0.4, 0.6, 0.8, 1.0],
        "fixed_u": 0.4,
        "fixed_a": 0.70,
        "rounds": 15,
        "seeds_per_side": 10,
        "target": 0.99,
        "rng_seed": 7,
        "theta": 0.80,
        "theta_self": 0.50,
        "k": 5,
        "seed_file": None,
        "opponent_file": None,
    },
    "debate": {
        "topic": DEFAULT_TOPIC,
        "rounds": 15,
        # The full bundled corpus; +-0.75 targets need all 14 claims per
        # side to be reachable at anchoring 0.2 with strengths <= 1.
        "seeds_per_side": 14,
        "targets": [0.75, -0.75],
        "trials": 3,
        "rng_seed": 7,
        "theta": 0.60,
        "theta_self": 0.45,
        "k": 5,
        "pairings": ["open/open", "open/stubborn", "stubborn/open", "stubborn/stubborn"],
        "seed_file": None,
    },
    "replay": {
        "case_file": None,
        "u_grid": list(DEFAULT_U_GRID),
        "a_grid": list(DEFAULT_A_GRID),
        "folds": 5,
        "key": "group",
        "seed": 42,
        "eps_weak": 0.05,
        "clip": 0.995,
        "theta": 0.85,
    },
    "ports": {
        "scorer": "builtin",
        "extractor": "scripted",
        "scorer_url": None,
        "extractor_url": None,
        "timeout": 5.0,
        "retries": 2,
    },
}


def _conforms(value, default) -> bool:
    """Type check against the default: an int default takes an int, a
    float default a finite int or float, a null default a string or
    null, a list default a list whose items conform to its first item.
    A bool is never a number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_conforms(item, default[0]) for item in value)
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, float):
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is type(default)


def _kind(default) -> str:
    if isinstance(default, list):
        return f"a list of items, each {_kind(default[0])}"
    if default is None:
        return "a string or null"
    return {int: "an integer", float: "a finite number", str: "a string", dict: "a mapping"}[type(default)]


def _merge(base: dict, override: dict, path: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in merged:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = _merge(merged[key], value, dotted + ".")
        elif _conforms(value, merged[key]):
            merged[key] = value
        else:
            raise ConfigError(f"config key {dotted!r} must be {_kind(merged[key])}, got {value!r}")
    return merged


def load_config(path=None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULTS)
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config root in {path} must be a mapping")
    return _merge(DEFAULTS, loaded)


def write_snapshot(config: dict, out_dir: Path) -> Path:
    """Canonical JSON snapshot of the resolved config, next to the outputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = out_dir / "resolved_config.json"
    snapshot.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return snapshot


def bundled_text(name: str) -> str:
    return resources.files("credence.data").joinpath(name).read_text(encoding="utf-8")


def load_corpus_text(path_or_none, default_name: str) -> str:
    if path_or_none:
        return Path(path_or_none).read_text(encoding="utf-8")
    return bundled_text(default_name)
