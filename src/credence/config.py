"""Run configuration: defaults, YAML loading, resolved snapshots.

A setting that a run object takes (SweepConfig, DebateConfig,
CalibrationGrid, build_replay_report, ServiceClient) has its default in
that object's signature, and DEFAULTS reads it from there, so a default
is changed in one place.  Only the keys that no run object takes are
written here.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from importlib import resources
from pathlib import Path

from .exceptions import ConfigError
from .judgement import ServiceClient
from .replay import CalibrationGrid, build_replay_report
from .simulation import DebateConfig, SweepConfig

DEFAULT_TOPIC = "The city should adopt participatory budgeting"


# Config keys that a run object takes under another parameter name, by
# section.  DEFAULTS reads those defaults, and the CLI passes those values,
# through this one table.
PARAMETER_OF = {"replay": {"u_grid": "u_values", "a_grid": "a_values", "clip": "clip_bound"}}


def _parameter(section: str, key: str) -> str:
    return PARAMETER_OF.get(section, {}).get(key, key)


def _defaults_of(build, section: str, *keys) -> dict:
    """The defaults of build's parameters for the given config keys of
    section.  Tuples become lists, as a YAML file gives them."""
    parameters = inspect.signature(build).parameters
    defaults = {key: parameters[_parameter(section, key)].default for key in keys}
    return {key: list(value) if isinstance(value, tuple) else value for key, value in defaults.items()}


def arguments_for(build, section: str, values: dict) -> dict:
    """The keys of a config section that build takes, by parameter name;
    the inverse of _defaults_of."""
    parameters = inspect.signature(build).parameters
    named = {_parameter(section, key): value for key, value in values.items()}
    return {name: value for name, value in named.items() if name in parameters}


def _derive_defaults() -> dict:
    """Every leaf is read by a command, and its default fixes the type a
    config file may give it (see _conforms)."""
    return {
        "sweep": {
            "topic": DEFAULT_TOPIC,
            **_defaults_of(
                SweepConfig, "sweep", "grid", "fixed_u", "fixed_a", "rounds", "seeds_per_side", "target",
                "rng_seed", "theta", "theta_self", "k",
            ),
            "seed_file": None,
            "opponent_file": None,
        },
        "debate": {
            "topic": DEFAULT_TOPIC,
            **_defaults_of(
                DebateConfig, "debate", "rounds", "seeds_per_side", "targets", "trials", "rng_seed", "theta",
                "theta_self", "k",
            ),
            "pairings": ["open/open", "open/stubborn", "stubborn/open", "stubborn/stubborn"],
            "seed_file": None,
        },
        "replay": {
            "case_file": None,
            **_defaults_of(CalibrationGrid, "replay", "u_grid", "a_grid"),
            **_defaults_of(build_replay_report, "replay", "folds", "key", "seed", "eps_weak", "clip", "theta"),
        },
        "ports": {
            "scorer": "builtin",
            "extractor": "scripted",
            "scorer_url": None,
            "extractor_url": None,
            **_defaults_of(ServiceClient, "ports", "timeout", "retries"),
        },
    }


DEFAULTS = _derive_defaults()


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
    import yaml  # only a config file needs PyYAML, so a run without one never loads it

    try:
        with open(path, encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(loaded, (dict, type(None))):  # only an empty file or null means no overrides
        raise ConfigError(f"config root in {path} must be a mapping")
    return _merge(DEFAULTS, loaded or {})


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
        try:
            return Path(path_or_none).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {path_or_none}: {exc}") from exc
    return bundled_text(default_name)
