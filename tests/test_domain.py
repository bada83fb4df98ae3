"""One validity domain for both answers, fuzzed through the public API.

Fields of the models, the detector, the link and the protocol are set to
0, +-inf, nan, 1e+-300 or any float, a few at a time, on a calibrated base
point.  Then ``simulate``, ``run_protocol``, ``link_metrics`` and
``simulate_session`` run at tiny sizes.  Each constructor and each call
either returns finite, in-range values or raises a type from
``nfadsim.errors``: never an untyped error, nor a silent nan or inf.
A detector that fails a check binding both answers fails when it is
built, so the closed form and the simulations refuse it alike.  A Monte
Carlo call is left out where it would not be tiny: where a bound on the
events it draws passes ``_MAX_EVENTS``.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfadsim import errors
from nfadsim.calibration import (DEFAULT_DARK_MODEL, DEFAULT_JITTER_MODEL,
                                 DEFAULT_TRAP_MODEL)
from nfadsim.characterize import _CYCLE_TIMEOUT, ProtocolConfig, run_protocol
from nfadsim.detector import simulate
from nfadsim.engine import pulsed_laser
from nfadsim.errors import ExtrapolationError, ParameterError
from nfadsim.params import DarkRateModel, DetectorParams
from nfadsim.qkd import (LinkConfig, LinkMetrics, QkdOperatingPoint,
                         link_metrics, simulate_session)

_TYPED = tuple(v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, Exception)
               and v.__module__ == errors.__name__)

# The base point: -90 C, 20%, a 10 us hold-off, a 5 dB link and a protocol
# of two laser pulses.  Trap component 0 is the fast one.
_BASE = {"detector.temperature": 183.15, "detector.efficiency": 0.2,
         "detector.deadtime": 10e-6, "link.channel_loss_db": 5.0,
         "protocol.pulses_requested": 2}
_FIELDS = sorted(
    [f"dark.{f.name}" for f in dataclasses.fields(DarkRateModel)]
    + [f"trap.{name}" for name in (
        "mean_traps_per_avalanche", "efficiency_exponent", "efficiency_ref",
        "reference_temperature", "weight", "tau_ref", "activation")]
    + [f"jitter.{name}" for name in ("fwhm", "tail_fraction",
                                     "tail_scale_factor", "latency")]
    + ["detector.temperature", "detector.efficiency", "detector.deadtime"]
    + [f"link.{f.name}" for f in dataclasses.fields(LinkConfig)]
    + [f"protocol.{f.name}" for f in dataclasses.fields(ProtocolConfig)])
_SPECIAL = [0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300,
            -1e-300]
_MAX_EVENTS = 1e5
_SIMULATED = 1e-4           # seconds that ``simulate`` runs


def _events(det, seconds):
    """A bound on the events a simulation of ``seconds`` draws: its dark
    candidates, and its clicks, at most one a hold-off, with their traps."""
    return seconds * (det.dark_cps + (1.0 + det.mean_traps) / det.deadtime)


def _part(changes, name):
    prefix = name + "."
    return {k[len(prefix):]: v for k, v in {**_BASE, **changes}.items()
            if k.startswith(prefix)}


def _build(changes):
    """The detector, link and protocol of the base point with ``changes``,
    a {"part.field": value} map; "trap.weight", "trap.tau_ref" and
    "trap.activation" set trap component 0, "jitter.fwhm" every FWHM of
    the jitter table."""
    dark = dataclasses.replace(DEFAULT_DARK_MODEL, **_part(changes, "dark"))
    trap_fields = _part(changes, "trap")
    first, *rest = DEFAULT_TRAP_MODEL.release_components
    first = tuple(trap_fields.pop(name, value) for name, value in
                  zip(("weight", "tau_ref", "activation"), first))
    trap = dataclasses.replace(DEFAULT_TRAP_MODEL, **trap_fields,
                               release_components=(first, *rest))
    jitter_fields = _part(changes, "jitter")
    if "fwhm" in jitter_fields:
        fwhm = jitter_fields.pop("fwhm")
        jitter_fields["fwhm_table"] = tuple(
            (eta, fwhm) for eta, _ in DEFAULT_JITTER_MODEL.fwhm_table)
    jitter = dataclasses.replace(DEFAULT_JITTER_MODEL, **jitter_fields)
    det = DetectorParams(**_part(changes, "detector"), dark_model=dark,
                         trap_model=trap, jitter_model=jitter)
    with warnings.catch_warnings():
        # A quiet window off the usual policy range warns, by design.
        warnings.filterwarnings("ignore", "quiet_window outside")
        protocol = ProtocolConfig(**_part(changes, "protocol"))
    return det, LinkConfig(**_part(changes, "link")), protocol


def _check_metrics(m: LinkMetrics) -> None:
    values = dataclasses.astuple(m)
    assert all(math.isfinite(v) for v in values), m
    assert 0.0 <= m.qber <= 0.5 and m.sifted_rate >= 0.0 and m.skr >= 0.0
    assert 0.0 <= m.visibility_raw <= m.visibility_dark_subtracted <= 1.0


def _calls(det, link, protocol, seed):
    """The four entry points at tiny sizes, each with its output check."""
    def clicks():
        duration = _SIMULATED
        s = simulate(det, pulsed_laser(1e-5, 1.0, 10), duration, seed)
        assert np.all(np.isfinite(s.times))
        assert np.all((0.0 <= s.times) & (s.times < duration))
        assert np.all(np.diff(s.times) > 0.0)
        assert set(s.origins.tolist()) <= {0, 1, 2}

    def protocol_counts():
        c = run_protocol(det, protocol, seed)
        assert 0 <= c.c_d <= c.c_lp == protocol.pulses_requested
        assert np.all(c.histogram >= 0)
        for v in (c.r_dc, c.live_time, c.mu):
            assert math.isfinite(v) and v >= 0.0

    op = QkdOperatingPoint(det, det)
    return (clicks, protocol_counts,
            lambda: _check_metrics(link_metrics(link, op)),
            lambda: _check_metrics(simulate_session(link, op, 100_000,
                                                    seed)))


def _tiny_calls(det, link, protocol, seed):
    """``_calls`` without the Monte Carlo calls that would not be tiny."""
    clicks, counts, closed_form, session = _calls(det, link, protocol, seed)
    # Seconds simulated: the run, a protocol cycle's longest quiet wait,
    # and 1e5 frames.
    seconds = {clicks: _SIMULATED, counts: _CYCLE_TIMEOUT,
               session: 2e5 / link.pulse_rate}
    return [closed_form] + [call for call, s in seconds.items()
                            if _events(det, s) <= _MAX_EVENTS]


# Specials, any float, and the [0, 1] that fractions and efficiencies need.
_VALUES = st.sampled_from(_SPECIAL) | st.floats() | st.floats(0.0, 1.0)


class TestApiDomain:
    # About 1.5 s here under the "replay" profile, ten times that under
    # "deep" (tests/conftest.py).  numpy may report an overflow to +-inf
    # on the way: the result's checks and LinkMetrics judge where it ends.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=4 * settings.default.max_examples)
    @given(changes=st.dictionaries(st.sampled_from(_FIELDS), _VALUES,
                                   max_size=2),
           seed=st.sampled_from([0, 7, -1]))
    # An efficiency power law that overflows, for darks and for traps.
    @example(changes={"dark.efficiency_exponent": 1e4,
                      "dark.efficiency_ref": 0.01}, seed=0)
    @example(changes={"trap.efficiency_exponent": 1e4,
                      "trap.efficiency_ref": 0.01}, seed=0)
    @example(changes={"jitter.tail_scale_factor": math.inf}, seed=0)
    @example(changes={"jitter.fwhm": 1e300}, seed=0)      # an inf sigma in ps
    @example(changes={"trap.activation": math.inf}, seed=0)
    # The picosecond grid's cases: the closed form answers, the
    # simulations refuse.
    @example(changes={"detector.deadtime": 1e-300}, seed=0)
    @example(changes={"jitter.latency": 1e300}, seed=0)
    @example(changes={"dark.floor": 1e10}, seed=0)
    # Found by this fuzz: 1/deadtime overflowed to an inf sifted rate, and
    # a raw visibility over a subnormal intrinsic one to an inf key rate.
    @example(changes={"detector.deadtime": 2.2250738585e-313}, seed=0)
    @example(changes={"link.interferometer_visibility_intrinsic": 5e-324},
             seed=7)
    @example(changes={"protocol.laser_mu": math.nan}, seed=0)
    @example(changes={"protocol.pulses_requested": 1.5}, seed=0)
    @example(changes={}, seed=-1)
    @example(changes={}, seed=7)                          # the base point
    def test_every_call_answers_or_raises_a_typed_error(self, changes, seed):
        try:
            det, link, protocol = _build(changes)
        except _TYPED:
            return
        for call in _tiny_calls(det, link, protocol, seed):
            try:
                call()
            except _TYPED:
                pass

    @pytest.mark.parametrize("changes", [
        {"dark.efficiency_exponent": 1e4, "dark.efficiency_ref": 0.01},
        {"trap.efficiency_exponent": 1e4, "trap.efficiency_ref": 0.01},
        {"jitter.tail_scale_factor": math.inf},
        {"jitter.fwhm": 1e300},
        {"trap.activation": math.inf},
        {"detector.efficiency": 0.01},
        {"detector.deadtime": 2.2250738585e-313},
        {"link.mu": math.inf},
        {"link.ec_inefficiency": math.inf},
    ])
    def test_what_binds_both_answers_fails_when_it_is_built(
            self, changes):
        with pytest.raises((ParameterError, ExtrapolationError)):
            _build(changes)

    @pytest.mark.parametrize("changes, message", [
        ({"detector.deadtime": 1e-300}, "rounds to 0 ps"),
        ({"jitter.latency": 1e300}, "2\\*\\*61 ps"),
        ({"dark.floor": 1e10}, "dark count rate"),
    ])
    def test_what_binds_only_the_grid_leaves_the_closed_form_its_answer(
            self, changes, message):
        det, link, protocol = _build(changes)
        _check_metrics(link_metrics(link, QkdOperatingPoint(det, det)))
        clicks, counts, _, session = _calls(det, link, protocol, 0)
        for call in (clicks, session):
            with pytest.raises(ParameterError, match=message):
                call()
        with pytest.raises(ParameterError):   # the protocol checks first
            counts()


@pytest.mark.parametrize("run", [
    lambda det: simulate(det, pulsed_laser(1e-6, 0.1, 10), 1e-5, -1),
    lambda det: run_protocol(det, ProtocolConfig(pulses_requested=2), -1),
    lambda det: simulate_session(LinkConfig(channel_loss_db=5.0),
                                 QkdOperatingPoint(det, det), 100_000, -1),
])
def test_a_negative_seed_is_a_parameter_error(ref_detector, run):
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        run(ref_detector)
