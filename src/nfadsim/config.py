"""Typed INI configuration for the command-line runner.

One section per subsystem, flat key=value entries, comma-separated lists for
grids.  Every key is optional and falls back to the calibrated defaults; any
section or key outside the schema is rejected outright so a typo in a
physical parameter cannot pass silently.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError
from .optimize import (DEFAULT_DEADTIME_GRID, DEFAULT_EFFICIENCY_GRID,
                       DEFAULT_LOSS_GRID_DB, DEFAULT_TEMPERATURE_GRID_C)


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc


def _parse_int(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_float_list(raw: str) -> tuple:
    items = [s.strip() for s in raw.split(",")]
    return tuple(_parse_float(s) for s in items if s)


@dataclass(frozen=True)
class RunSection:
    seed: int = 42
    out: str = "out"


@dataclass(frozen=True)
class CharacterizeSection:
    temperatures_c: tuple = (-110.0,)
    efficiencies: tuple = (0.115,)
    deadtime_us: float = 20.0
    pulses: int = 1_000_000
    laser_mu: float = 0.91
    quiet_window_us: float = 100.0
    histogram_span_us: float = 150.0
    jitter_draws: int = 1_000_000
    jitter_bin_ps: float = 2.0


@dataclass(frozen=True)
class QkdSection:
    losses_db: tuple = DEFAULT_LOSS_GRID_DB
    use_optimizer: bool = True
    # Fixed operating point, used when the optimizer is off.
    temperature_c: float = -110.0
    efficiency: float = 0.115
    deadtime_us: float = 20.0
    efficiency_monitor: Optional[float] = None     # None: mirror the data side
    deadtime_monitor_us: Optional[float] = None
    # Link budget.
    pulse_rate_hz: float = 625e6
    mu: float = 0.06
    monitor_fraction: float = 0.10
    visibility_intrinsic: float = 0.99
    optical_error: float = 0.005
    ec_inefficiency: float = 1.15
    pa_ratio: float = 0.15
    auth_rate_cost_bps: float = 50.0
    monitor_duty: float = 0.25


@dataclass(frozen=True)
class OptimizerSection:
    efficiencies: tuple = DEFAULT_EFFICIENCY_GRID
    deadtimes_us: tuple = tuple(t * 1e6 for t in DEFAULT_DEADTIME_GRID)
    temperatures_c: tuple = DEFAULT_TEMPERATURE_GRID_C
    per_detector: bool = False


@dataclass(frozen=True)
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    characterize: CharacterizeSection = field(
        default_factory=CharacterizeSection)
    qkd: QkdSection = field(default_factory=QkdSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)


# section -> key -> parser; the dataclasses above hold the defaults.
_PARSERS = {
    "run": {"seed": _parse_int, "out": str},
    "characterize": {
        "temperatures_c": _parse_float_list,
        "efficiencies": _parse_float_list,
        "deadtime_us": _parse_float,
        "pulses": _parse_int,
        "laser_mu": _parse_float,
        "quiet_window_us": _parse_float,
        "histogram_span_us": _parse_float,
        "jitter_draws": _parse_int,
        "jitter_bin_ps": _parse_float,
    },
    "qkd": {
        "losses_db": _parse_float_list,
        "use_optimizer": _parse_bool,
        "temperature_c": _parse_float,
        "efficiency": _parse_float,
        "deadtime_us": _parse_float,
        "efficiency_monitor": _parse_float,
        "deadtime_monitor_us": _parse_float,
        "pulse_rate_hz": _parse_float,
        "mu": _parse_float,
        "monitor_fraction": _parse_float,
        "visibility_intrinsic": _parse_float,
        "optical_error": _parse_float,
        "ec_inefficiency": _parse_float,
        "pa_ratio": _parse_float,
        "auth_rate_cost_bps": _parse_float,
        "monitor_duty": _parse_float,
    },
    "optimizer": {
        "efficiencies": _parse_float_list,
        "deadtimes_us": _parse_float_list,
        "temperatures_c": _parse_float_list,
        "per_detector": _parse_bool,
    },
}

_SECTION_TYPES = {
    "run": RunSection,
    "characterize": CharacterizeSection,
    "qkd": QkdSection,
    "optimizer": OptimizerSection,
}


def _check_schema() -> None:
    """Raise TypeError if a section's parser keys differ from its fields."""
    for name, cls in _SECTION_TYPES.items():
        known = {f.name for f in fields(cls)}
        if set(_PARSERS[name]) != known:
            raise TypeError(f"schema drift in [{name}]: parsers "
                            f"{sorted(_PARSERS[name])} != fields "
                            f"{sorted(known)}")


_check_schema()


def _build_section(name: str, raw: dict):
    parsers = _PARSERS[name]
    cls = _SECTION_TYPES[name]
    values = {}
    for key, raw_value in raw.items():
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r} in section [{name}]; "
                              f"valid keys: {sorted(parsers)}")
        try:
            values[key] = parsers[key](raw_value)
        except ConfigError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
    return cls(**values)


def parse_config(path: str) -> RunConfig:
    """Load and type-check an INI file; unknown content is an error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    sections = {}
    for name in parser.sections():
        if name not in _PARSERS:
            raise ConfigError(f"unknown section [{name}]; valid sections: "
                              f"{sorted(_PARSERS)}")
        sections[name] = _build_section(name, dict(parser[name]))
    return RunConfig(**sections)
