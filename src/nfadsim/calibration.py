"""Factory for detector models matching the measured reference device.

The dark-rate model is fit in closed form to three measured anchors; the
trap and jitter models carry constants tuned once against the protocol
estimators (see the test suite for the closed-loop checks that pin them).
"""

from __future__ import annotations

import math

from .params import (DarkRateModel, DetectorParams, JitterModel, TrapModel,
                     celsius_to_kelvin)

# Measured anchors: (temperature C, efficiency, dark rate cps).
_ANCHOR_COLD_LOW = (-110.0, 0.115, 1.19)
_ANCHOR_COLD_HIGH = (-110.0, 0.277, 15.2)
_ANCHOR_WARM = (-50.0, 0.10, 600.0)
# At the lowest temperature roughly a fifth of the dark rate is attributed
# to the temperature-independent tunneling floor.
_FLOOR_SHARE = 0.20

EFFICIENCY_REF = 0.115


def fit_dark_model() -> DarkRateModel:
    """Closed-form fit of the thermal-plus-floor dark model to three anchors.

    The two cold anchors share a temperature and differ only in efficiency,
    giving the efficiency exponent directly; the warm anchor then fixes the
    activation temperature, and the amplitude follows.  All three anchors are
    reproduced exactly.
    """
    t_cold_c, eta_ref, rate_cold = _ANCHOR_COLD_LOW
    _, eta_high, rate_high = _ANCHOR_COLD_HIGH
    t_warm_c, eta_warm, rate_warm = _ANCHOR_WARM
    gamma = math.log(rate_high / rate_cold) / math.log(eta_high / eta_ref)
    floor = _FLOOR_SHARE * rate_cold
    t_cold = celsius_to_kelvin(t_cold_c)
    t_warm = celsius_to_kelvin(t_warm_c)
    thermal_cold = rate_cold - floor
    thermal_warm = rate_warm / (eta_warm / eta_ref) ** gamma - floor
    activation = (math.log(thermal_warm / thermal_cold)
                  / (1.0 / t_cold - 1.0 / t_warm))
    amplitude = thermal_cold * math.exp(activation / t_cold)
    return DarkRateModel(amplitude_thermal=amplitude,
                         activation_temperature=activation,
                         floor=floor,
                         efficiency_exponent=gamma,
                         efficiency_ref=eta_ref)


DEFAULT_DARK_MODEL = fit_dark_model()

# Trap release: a fast, weakly activated component that empties within a few
# microseconds at every operating temperature, plus a slow strongly activated
# tail.  The fast component carries most of the trapped charge, which is what
# makes sub-5 us hold-offs expensive at any temperature; the slow tail is what
# survives a 20 us hold-off and dominates the measured afterpulse histogram.
# The mean trap count per avalanche is tuned so the quiet-window protocol
# measures a 2.2% total afterpulse probability at (-110 C, eta=0.115, 20 us
# hold-off, 150 us span).
DEFAULT_TRAP_MODEL = TrapModel(
    mean_traps_per_avalanche=0.9763,
    efficiency_exponent=1.0,
    efficiency_ref=EFFICIENCY_REF,
    release_components=((0.96919, 2.0e-6, 250.0), (0.03081, 25.0e-6, 1500.0)),
    reference_temperature=celsius_to_kelvin(-90.0),
)

# Gaussian core with a one-sided release tail; core width follows the
# measured FWHM-versus-efficiency line, the tail sets the 1%-level width.
# The measured anchors sit at 0.11 and 0.275; the same line is extended to
# cover the full supported efficiency range.
_FWHM_ANCHORS = ((0.11, 160e-12), (0.275, 129e-12))


def _fwhm_line(eta: float) -> float:
    (e0, f0), (e1, f1) = _FWHM_ANCHORS
    return f0 + (eta - e0) * (f1 - f0) / (e1 - e0)


DEFAULT_JITTER_MODEL = JitterModel(
    fwhm_table=((0.05, _fwhm_line(0.05)),) + _FWHM_ANCHORS
    + ((0.32, _fwhm_line(0.32)),),
    tail_fraction=0.10,
    tail_scale_factor=2.8,
    latency=1.0e-9,
)


def make_detector(temperature_c: float, efficiency: float,
                  deadtime: float = 20e-6,
                  dark_model: DarkRateModel = DEFAULT_DARK_MODEL,
                  trap_model: TrapModel = DEFAULT_TRAP_MODEL,
                  jitter_model: JitterModel = DEFAULT_JITTER_MODEL,
                  ) -> DetectorParams:
    """Calibrated detector at a Celsius operating temperature."""
    return DetectorParams(temperature=celsius_to_kelvin(temperature_c),
                          efficiency=efficiency,
                          deadtime=deadtime,
                          dark_model=dark_model,
                          trap_model=trap_model,
                          jitter_model=jitter_model)


def parameter_summary() -> str:
    """Human-readable dump of every calibrated constant."""
    d = DEFAULT_DARK_MODEL
    t = DEFAULT_TRAP_MODEL
    j = DEFAULT_JITTER_MODEL
    lines = [
        "dark rate model: (eta/%.3f)^%.4f * (%.4e*exp(-%.1f K / T) + %.3f cps)"
        % (d.efficiency_ref, d.efficiency_exponent, d.amplitude_thermal,
           d.activation_temperature, d.floor),
        "trap model: mean traps/avalanche %.4f * (eta/%.3f)^%.2f"
        % (t.mean_traps_per_avalanche, t.efficiency_ref,
           t.efficiency_exponent),
    ]
    for w, tau, act in t.release_components:
        lines.append("  release component: weight %.2f, tau %.2f us at "
                     "%.2f K, activation %.0f K"
                     % (w, tau * 1e6, t.reference_temperature, act))
    lines.append("jitter: fwhm table %s, tail fraction %.2f, tail scale "
                 "%.2f, latency %.2f ns"
                 % (", ".join("%.3f -> %.0f ps" % (e, f * 1e12)
                              for e, f in j.fwhm_table),
                    j.tail_fraction, j.tail_scale_factor, j.latency * 1e9))
    return "\n".join(lines)
