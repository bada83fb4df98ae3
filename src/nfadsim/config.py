"""Typed INI configuration for the command-line runner.

One section per subsystem, flat key=value entries, comma-separated lists for
grids.  Every key is optional and falls back to the calibrated defaults; any
section or key outside the schema is rejected outright so a typo in a
physical parameter cannot pass silently.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError
from .optimize import (DEFAULT_DEADTIME_GRID, DEFAULT_EFFICIENCY_GRID,
                       DEFAULT_LOSS_GRID_DB, DEFAULT_TEMPERATURE_GRID_C)


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


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


# Field annotation -> parser.  The section dataclasses are the whole schema:
# an annotation missing here fails at import with a KeyError.
_ANNOTATION_PARSERS = {
    "int": _parse_int,
    "str": str,
    "float": _parse_float,
    "Optional[float]": _parse_float,
    "bool": _parse_bool,
    "tuple": _parse_float_list,
}

_SECTION_TYPES = {f.name: f.default_factory for f in fields(RunConfig)}

# section -> key -> parser
_PARSERS = {name: {f.name: _ANNOTATION_PARSERS[f.type] for f in fields(cls)}
            for name, cls in _SECTION_TYPES.items()}


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
