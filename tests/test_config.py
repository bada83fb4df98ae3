"""INI parsing: schema enforcement and typed defaults."""

import dataclasses

import pytest

from nfadsim import config
from nfadsim.config import RunConfig, parse_config
from nfadsim.errors import ConfigError


def _write(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_defaults():
    cfg = RunConfig()
    assert cfg.run.seed == 42
    assert cfg.run.out == "out"
    assert cfg.characterize.temperatures_c == (-110.0,)
    assert cfg.characterize.pulses == 1_000_000
    assert cfg.qkd.use_optimizer is True
    assert cfg.qkd.losses_db == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert cfg.qkd.efficiency_monitor is None
    assert cfg.optimizer.per_detector is False
    assert len(cfg.optimizer.efficiencies) == 23


def test_full_round_trip(tmp_path):
    cfg = parse_config(_write(tmp_path, """
[run]
seed = 7
out = results

[characterize]
temperatures_c = -110, -90
efficiencies = 0.115, 0.2
deadtime_us = 10
pulses = 50000
laser_mu = 0.8
quiet_window_us = 80
histogram_span_us = 120
jitter_draws = 100000
jitter_bin_ps = 4

[qkd]
losses_db = 5, 15, 25
use_optimizer = no
temperature_c = -90
efficiency = 0.2
deadtime_us = 10
efficiency_monitor = 0.1
deadtime_monitor_us = 5
mu = 0.05
pa_ratio = 0.2

[optimizer]
efficiencies = 0.1, 0.2
deadtimes_us = 2, 20
temperatures_c = -50, -110
per_detector = true
"""))
    assert cfg.run.seed == 7
    assert cfg.run.out == "results"
    assert cfg.characterize.temperatures_c == (-110.0, -90.0)
    assert cfg.characterize.deadtime_us == 10.0
    assert cfg.characterize.pulses == 50_000
    assert cfg.qkd.losses_db == (5.0, 15.0, 25.0)
    assert cfg.qkd.use_optimizer is False
    assert cfg.qkd.efficiency_monitor == 0.1
    assert cfg.qkd.deadtime_monitor_us == 5.0
    assert cfg.qkd.mu == 0.05
    # Untouched keys keep their defaults.
    assert cfg.qkd.pulse_rate_hz == 625e6
    assert cfg.optimizer.per_detector is True
    assert cfg.optimizer.deadtimes_us == (2.0, 20.0)


def test_unknown_key_is_named(tmp_path):
    path = _write(tmp_path, "[qkd]\nloses_db = 5\n")
    with pytest.raises(ConfigError, match="loses_db"):
        parse_config(path)


def test_unknown_section(tmp_path):
    path = _write(tmp_path, "[detector]\ndeadtime_us = 20\n")
    with pytest.raises(ConfigError, match="detector"):
        parse_config(path)


def test_bad_number(tmp_path):
    path = _write(tmp_path, "[qkd]\nmu = fast\n")
    with pytest.raises(ConfigError, match="mu"):
        parse_config(path)


def test_bad_integer(tmp_path):
    path = _write(tmp_path, "[characterize]\npulses = 1e6\n")
    with pytest.raises(ConfigError, match="pulses"):
        parse_config(path)


def test_bad_boolean(tmp_path):
    path = _write(tmp_path, "[qkd]\nuse_optimizer = maybe\n")
    with pytest.raises(ConfigError, match="use_optimizer"):
        parse_config(path)


def test_list_parsing_tolerates_spacing(tmp_path):
    cfg = parse_config(_write(tmp_path, "[qkd]\nlosses_db = 5 , 10,15,\n"))
    assert cfg.qkd.losses_db == (5.0, 10.0, 15.0)


def test_empty_list_value_parses_to_empty(tmp_path):
    # The parser keeps this permissive; the commands reject empty grids.
    cfg = parse_config(_write(tmp_path, "[qkd]\nlosses_db =\n"))
    assert cfg.qkd.losses_db == ()


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/cfg.ini")


def test_malformed_file(tmp_path):
    path = _write(tmp_path, "[run]\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(path)


@pytest.mark.parametrize("name", sorted(config._SECTION_TYPES))
def test_parsers_match_section_fields(name):
    fields = {f.name for f in dataclasses.fields(config._SECTION_TYPES[name])}
    assert set(config._PARSERS[name]) == fields


def test_schema_drift_raises_without_assert(monkeypatch):
    # A raise, not an assert, so the check survives python -O.
    monkeypatch.setitem(config._PARSERS, "run", {"seed": config._parse_int})
    with pytest.raises(TypeError, match=r"\[run\]"):
        config._check_schema()
