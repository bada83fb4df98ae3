"""Free-running NFAD single-photon detector simulation toolkit.

Monte Carlo model of a negative-feedback avalanche diode detector (dark
counts, afterpulsing, hold-off deadtime, timing jitter), the free-running
characterization protocol with its estimators, and analytic plus Monte Carlo
evaluation of a two-detector time-bin QKD link, with an operating-point
optimizer on top.
"""

from .calibration import (DEFAULT_DARK_MODEL, DEFAULT_JITTER_MODEL,
                          DEFAULT_TRAP_MODEL, fit_dark_model, make_detector,
                          parameter_summary)
from .characterize import (CharacterizationCounts, CharacterizationResult,
                           Estimate, JitterHistogram, ProtocolConfig,
                           afterpulse_total, characterize_point,
                           dark_rate_estimate, efficiency_estimate,
                           figure_of_merit, measure_jitter_histogram,
                           run_protocol, tcspc_widths)
from .detector import dark_rate, simulate, simulate_reference
from .engine import EventQueue, RandomStream, pulsed_laser, seconds_to_ps
from .errors import (ConfigError, EstimatorDomainError, ExtrapolationError,
                     NoSignalError, OpenSupportError, ParameterError,
                     ProtocolStarvationError)
from .optimize import GridPoint, Optimum, SearchSpace, optimize
from .params import (ClickStream, DarkRateModel, DetectorParams, JitterModel,
                     OpticalTimeline, TrapModel, celsius_to_kelvin,
                     kelvin_to_celsius)
from .qkd import (LinkConfig, LinkMetrics, QkdOperatingPoint, binary_entropy,
                  link_metrics, simulate_session)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DARK_MODEL", "DEFAULT_JITTER_MODEL", "DEFAULT_TRAP_MODEL",
    "fit_dark_model", "make_detector", "parameter_summary",
    "CharacterizationCounts", "CharacterizationResult", "Estimate",
    "JitterHistogram", "ProtocolConfig", "afterpulse_total",
    "characterize_point", "dark_rate_estimate", "efficiency_estimate",
    "figure_of_merit", "measure_jitter_histogram",
    "run_protocol", "tcspc_widths",
    "dark_rate", "simulate", "simulate_reference",
    "EventQueue", "RandomStream", "pulsed_laser", "seconds_to_ps",
    "ConfigError", "EstimatorDomainError", "ExtrapolationError",
    "NoSignalError", "OpenSupportError", "ParameterError",
    "ProtocolStarvationError",
    "GridPoint", "Optimum", "SearchSpace", "optimize",
    "ClickStream", "DarkRateModel", "DetectorParams", "JitterModel",
    "OpticalTimeline", "TrapModel", "celsius_to_kelvin", "kelvin_to_celsius",
    "LinkConfig", "LinkMetrics", "QkdOperatingPoint", "binary_entropy",
    "link_metrics", "simulate_session",
    "__version__",
]
