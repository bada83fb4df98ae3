"""Domain types for the free-running NFAD detector model.

All quantities are SI (seconds, hertz, kelvin, counts per second) unless a
name says otherwise.  Every dataclass validates its physical domain on
construction and raises :class:`~nfadsim.errors.ParameterError` on violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ExtrapolationError, ParameterError

PS_PER_S = 1.0e12

# Detector operating envelope (cooler range with margin).
TEMPERATURE_MIN_K = 153.0
TEMPERATURE_MAX_K = 233.0
EFFICIENCY_MAX = 0.35

# Diagnostic click origin codes. Estimators must never read these
# (enforced by the tag-blindness tests).
ORIGIN_PHOTON = 0
ORIGIN_DARK = 1
ORIGIN_AFTERPULSE = 2


def celsius_to_kelvin(temp_c: float) -> float:
    return temp_c + 273.15


def kelvin_to_celsius(temp_k: float) -> float:
    return temp_k - 273.15


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


@dataclass(frozen=True)
class DarkRateModel:
    """Dark count rate versus temperature and efficiency.

    rate(T, eta) = (eta/efficiency_ref)**efficiency_exponent
                   * (amplitude_thermal * exp(-activation_temperature/T) + floor)

    The Arrhenius term models thermal carrier generation; the constant floor
    models the temperature-independent tunnelling contribution that caps the
    improvement at the cold end.

    Attributes
    ----------
    amplitude_thermal : float
        Prefactor of the Arrhenius term, counts/second.
    activation_temperature : float
        Activation energy expressed as a temperature E_a/k_B, kelvin.
    floor : float
        Temperature-independent dark rate at the reference efficiency,
        counts/second.
    efficiency_exponent : float
        Power-law exponent of the efficiency scaling (gamma).
    efficiency_ref : float
        Efficiency at which amplitude and floor were calibrated.
    """

    amplitude_thermal: float
    activation_temperature: float
    floor: float
    efficiency_exponent: float
    efficiency_ref: float

    def __post_init__(self) -> None:
        for name in ("amplitude_thermal", "activation_temperature", "floor",
                     "efficiency_exponent", "efficiency_ref"):
            value = getattr(self, name)
            _require(math.isfinite(value),
                     f"dark model {name} must be finite")
            _require(value >= 0.0, f"dark model {name} must be >= 0")
        _require(self.efficiency_ref > 0.0, "dark model efficiency_ref must be > 0")

    def rate(self, temperature: float, efficiency: float) -> float:
        """Dark count rate in counts/second. Deterministic closed form."""
        _require(temperature > 0.0, "temperature must be positive kelvin")
        _require(0.0 <= efficiency <= 1.0, "efficiency must lie in [0, 1]")
        if efficiency == 0.0:
            return 0.0
        scale = (efficiency / self.efficiency_ref) ** self.efficiency_exponent
        thermal = self.amplitude_thermal * math.exp(
            -self.activation_temperature / temperature)
        return scale * (thermal + self.floor)


@dataclass(frozen=True)
class TrapModel:
    """Carrier trapping (afterpulse) model.

    Each avalanche fills Poisson(lambda) traps where
    lambda = mean_traps_per_avalanche * (eta/efficiency_ref)**efficiency_exponent.
    A filled trap releases its carrier after an exponential delay; the decay
    constant is drawn among ``release_components`` by weight.  Component
    lifetimes scale with temperature as

        tau_k(T) = tau_ref_k * exp(activation_k * (1/T - 1/reference_temperature))

    so lifetimes grow as the detector gets colder.

    Attributes
    ----------
    mean_traps_per_avalanche : float
        Poisson mean of traps filled per avalanche at ``efficiency_ref``.
    efficiency_exponent : float
        Power-law exponent of the efficiency scaling (more charge per
        avalanche at higher bias fills more traps).
    efficiency_ref : float
        Efficiency at which ``mean_traps_per_avalanche`` was calibrated.
    release_components : tuple of (weight, tau_ref_seconds, activation_kelvin)
        Mixture of exponential release channels; weights sum to 1.
    reference_temperature : float
        Temperature at which tau_ref values are quoted, kelvin.
    """

    mean_traps_per_avalanche: float
    efficiency_exponent: float
    efficiency_ref: float
    release_components: tuple[tuple[float, float, float], ...]
    reference_temperature: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.mean_traps_per_avalanche)
                 and self.mean_traps_per_avalanche >= 0.0,
                 "mean_traps_per_avalanche must be finite and >= 0")
        _require(self.efficiency_ref > 0.0, "trap efficiency_ref must be > 0")
        _require(self.efficiency_exponent >= 0.0,
                 "trap efficiency_exponent must be >= 0")
        _require(self.reference_temperature > 0.0,
                 "reference_temperature must be positive kelvin")
        _require(len(self.release_components) > 0,
                 "at least one release component required")
        total = 0.0
        for weight, tau_ref, activation in self.release_components:
            _require(0.0 <= weight <= 1.0, "component weight must lie in [0, 1]")
            _require(math.isfinite(tau_ref) and tau_ref > 0.0,
                     "component lifetime must be positive and finite")
            _require(activation > 0.0,
                     "component activation temperature must be positive "
                     "(lifetimes must grow as temperature falls)")
            total += weight
        _require(abs(total - 1.0) < 1e-9, "component weights must sum to 1")

    @classmethod
    def disabled(cls) -> "TrapModel":
        """A model that never fills a trap (afterpulsing off)."""
        return cls(mean_traps_per_avalanche=0.0, efficiency_exponent=1.0,
                   efficiency_ref=0.115,
                   release_components=((1.0, 1e-6, 1.0),),
                   reference_temperature=183.15)

    def mean_traps(self, efficiency: float) -> float:
        if efficiency == 0.0:
            return 0.0
        scale = (efficiency / self.efficiency_ref) ** self.efficiency_exponent
        return self.mean_traps_per_avalanche * scale

    def weights(self) -> np.ndarray:
        return np.array([c[0] for c in self.release_components], dtype=np.float64)

    def lifetimes_at(self, temperature: float) -> np.ndarray:
        """Component lifetimes in seconds at the given temperature."""
        _require(temperature > 0.0, "temperature must be positive kelvin")
        taus = []
        for k, (_, tau_ref, activation) in enumerate(self.release_components):
            try:
                taus.append(tau_ref * math.exp(activation * (
                    1.0 / temperature - 1.0 / self.reference_temperature)))
            except OverflowError:
                raise ParameterError(
                    f"trap release component {k} ({tau_ref:g} s, "
                    f"{activation:g} K) has no finite lifetime at "
                    f"{temperature:g} K") from None
        return np.array(taus, dtype=np.float64)


@lru_cache(maxsize=256)
def _mixture_unit_width(tail_fraction: float, tail_scale: float,
                        level: float) -> float:
    """Full width of the standardized jitter density at ``level`` x peak.

    The standardized density (sigma = 1, mode at 0) is
        g(x) = (1-w) * phi(x) + (w/k) * exp(-x/k) * [x >= 0]
    with w = tail_fraction and k = tail_scale.  g is unimodal with peak at 0
    and strictly decreasing on both sides, so both crossings are unique.
    """
    w = tail_fraction
    k = tail_scale
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)
    peak = (1.0 - w) * inv_sqrt2pi + (w / k if w > 0.0 else 0.0)
    target = level * peak
    # Left side: Gaussian term only.
    gauss_peak = (1.0 - w) * inv_sqrt2pi
    if target >= gauss_peak:
        raise ParameterError(
            "jitter tail too heavy: width level is never crossed on the "
            "Gaussian side (reduce tail_fraction or raise tail_scale)")
    x_left = -math.sqrt(-2.0 * math.log(target / gauss_peak))

    def density(x: float) -> float:
        g = (1.0 - w) * inv_sqrt2pi * math.exp(-0.5 * x * x)
        if w > 0.0 and x >= 0.0:
            g += (w / k) * math.exp(-x / k)
        return g

    hi = 1.0
    while density(hi) > target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if density(mid) > target:
            lo = mid
        else:
            hi = mid
    x_right = 0.5 * (lo + hi)
    return x_right - x_left


@dataclass(frozen=True)
class JitterModel:
    """Timing jitter of recorded clicks.

    The delay distribution is a Gaussian core plus a one-sided exponential
    tail (diffusion tail of late avalanches), with the mode shifted to
    ``latency``.  The core sigma at a given efficiency is chosen so that the
    FWHM of the full mixture equals the value interpolated from
    ``fwhm_table``.

    Attributes
    ----------
    fwhm_table : tuple of (efficiency, fwhm_seconds)
        Anchor points, linearly interpolated. Strictly increasing in
        efficiency.
    tail_fraction : float
        Probability weight of the exponential tail component.
    tail_scale_factor : float
        Tail time constant as a multiple of the core sigma.
    latency : float
        Mode position of the delay distribution, seconds. Delays are clamped
        at zero (never negative), so latency should sit several sigma above
        zero; the defaults do.
    """

    fwhm_table: tuple[tuple[float, float], ...]
    tail_fraction: float = 0.0
    tail_scale_factor: float = 1.0
    latency: float = 1.0e-9

    def __post_init__(self) -> None:
        _require(len(self.fwhm_table) > 0, "fwhm_table must not be empty")
        last_eff = -1.0
        for eff, fwhm in self.fwhm_table:
            _require(0.0 <= eff <= 1.0, "table efficiency must lie in [0, 1]")
            _require(eff > last_eff, "fwhm_table efficiencies must increase")
            _require(fwhm > 0.0 and math.isfinite(fwhm),
                     "table FWHM must be > 0")
            last_eff = eff
        _require(0.0 <= self.tail_fraction < 1.0,
                 "tail_fraction must lie in [0, 1)")
        _require(self.tail_scale_factor > 0.0, "tail_scale_factor must be > 0")
        _require(self.latency >= 0.0 and math.isfinite(self.latency),
                 "latency must be finite and >= 0")
        # Fails fast if the tail would swamp the Gaussian peak.
        _mixture_unit_width(self.tail_fraction, self.tail_scale_factor, 0.5)

    def check_efficiency(self, efficiency: float) -> None:
        """Raise ExtrapolationError for an efficiency outside the table."""
        table = self.fwhm_table
        if efficiency < table[0][0] or efficiency > table[-1][0]:
            raise ExtrapolationError(
                f"efficiency {efficiency} outside jitter table range "
                f"[{table[0][0]}, {table[-1][0]}]")

    def fwhm_at(self, efficiency: float) -> float:
        """Interpolated FWHM in seconds; no extrapolation beyond the table."""
        self.check_efficiency(efficiency)
        effs = [p[0] for p in self.fwhm_table]
        fwhms = [p[1] for p in self.fwhm_table]
        return float(np.interp(efficiency, effs, fwhms))

    def core_sigma_at(self, efficiency: float) -> float:
        """Gaussian core sigma making the mixture FWHM match the table."""
        unit_fwhm = _mixture_unit_width(self.tail_fraction,
                                        self.tail_scale_factor, 0.5)
        return self.fwhm_at(efficiency) / unit_fwhm

    def predicted_width(self, efficiency: float, level: float) -> float:
        """Analytic full width of the delay density at ``level`` x peak."""
        _require(0.0 < level < 1.0, "level must lie in (0, 1)")
        unit = _mixture_unit_width(self.tail_fraction, self.tail_scale_factor,
                                   level)
        return self.core_sigma_at(efficiency) * unit


@dataclass(frozen=True)
class DetectorParams:
    """Full physical parameterization of one free-running NFAD channel.

    Attributes
    ----------
    temperature : float
        Operating temperature in kelvin, within [153, 233] K.
    efficiency : float
        Single-photon detection probability while armed, in [0, 0.35].
    deadtime : float
        Active hold-off after each click, seconds (hardware range is
        1 us - 200 us; any positive value is accepted, and a simulation
        takes one that rounds to at least 1 ps).
    dark_model, trap_model, jitter_model
        Component models defined above.
    """

    temperature: float
    efficiency: float
    deadtime: float
    dark_model: DarkRateModel
    trap_model: TrapModel
    jitter_model: JitterModel

    def __post_init__(self) -> None:
        _require(TEMPERATURE_MIN_K <= self.temperature <= TEMPERATURE_MAX_K,
                 f"temperature {self.temperature} K outside valid range "
                 f"[{TEMPERATURE_MIN_K}, {TEMPERATURE_MAX_K}] K")
        _require(0.0 <= self.efficiency <= EFFICIENCY_MAX,
                 f"efficiency {self.efficiency} outside [0, {EFFICIENCY_MAX}]")
        _require(self.deadtime > 0.0 and math.isfinite(self.deadtime),
                 "deadtime must be positive and finite")


@dataclass(frozen=True)
class OpticalTimeline:
    """Incident light: discrete pulses, each with its mean photon number.

    Attributes
    ----------
    times : ndarray
        Pulse arrival times in seconds, strictly increasing.
    mean_photon_numbers : ndarray
        Mean photon number (mu) per pulse, same length as ``times``.
    """

    times: np.ndarray
    mean_photon_numbers: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        mus = np.asarray(self.mean_photon_numbers, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "mean_photon_numbers", mus)
        _require(times.ndim == 1 and mus.ndim == 1 and len(times) == len(mus),
                 "times and mean_photon_numbers must be 1-d and equal length")
        if len(times) > 1:
            _require(bool(np.all(np.diff(times) > 0.0)),
                     "pulse times must be strictly increasing")
        if len(mus):
            _require(bool(np.all(mus >= 0.0)), "mean photon numbers must be >= 0")

    @classmethod
    def empty(cls) -> "OpticalTimeline":
        return cls(times=np.empty(0), mean_photon_numbers=np.empty(0))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ClickStream:
    """Array-backed click list produced by the simulator.

    ``times`` are recorded (jitter-smeared) timestamps in seconds, strictly
    increasing with successive gaps >= deadtime.  ``origins`` holds the
    diagnostic codes ORIGIN_PHOTON / ORIGIN_DARK / ORIGIN_AFTERPULSE; no
    estimator may read them.
    """

    times: np.ndarray
    origins: np.ndarray

    def __post_init__(self) -> None:
        _require(len(self.times) == len(self.origins),
                 "times and origins must have equal length")

    def __len__(self) -> int:
        return len(self.times)
