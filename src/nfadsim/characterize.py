"""Free-running detector test procedure and its estimators.

The protocol emulates the FPGA cycle used to characterize a free-running
detector: wait for a quiet window so trap populations decay, fire one faint
laser pulse, score a click in the synchronized clock bin, and (conditioned on
a detection) histogram every later click for a fixed span.  Efficiency, dark
rate and total afterpulse probability are then recovered by closed-form
estimators with first-order error propagation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .detector import _KERNEL_SUBSTREAMS, _MAX_UNIT_GAP, _kernel_args
from .engine import RandomStream, seconds_to_ps
from .errors import (EstimatorDomainError, NoSignalError, OpenSupportError,
                     ParameterError, ProtocolStarvationError)
from .params import PS_PER_S, DetectorParams


# Most bins a histogram may have: finer bins cost memory and time for nothing.
_MAX_BINS = 10**6
_MAX_DRAWS = 10**9          # the jitter draws' tail flags take a bit each

_FPGA_CLOCK = 50e6          # the protocol's clock; one bin per cycle
_CYCLE_TIMEOUT = 0.05       # sim time to reach a quiet window, else starved
_MU_SYSTEMATIC = 0.029      # calibration-source systematic on laser_mu


class Estimate(NamedTuple):
    """A value with its one-sigma statistical error."""
    value: float
    error: float


@dataclass(frozen=True)
class ProtocolConfig:
    quiet_window: float = 100e-6
    histogram_span: float = 150e-6
    pulses_requested: int = 1_000_000
    laser_mu: float = 0.91

    def __post_init__(self):
        if not 0.0 < self.quiet_window < _CYCLE_TIMEOUT:
            raise ParameterError("quiet_window must be > 0 and below the "
                                 f"{_CYCLE_TIMEOUT:g} s cycle timeout")
        if not 75e-6 <= self.quiet_window <= 150e-6:
            warnings.warn("quiet_window outside the usual 75-150 us policy "
                          "range", stacklevel=2)
        if not 0.0 < self.histogram_span <= _MAX_BINS / _FPGA_CLOCK:
            raise ParameterError("histogram_span must be > 0 and at most "
                                 f"{_MAX_BINS} clock bins")
        if not (isinstance(self.pulses_requested, (int, np.integer))
                and self.pulses_requested >= 1):
            raise ParameterError("pulses_requested must be an integer >= 1")
        if not 0.0 < self.laser_mu < math.inf:
            raise ParameterError("laser_mu must be finite and > 0")

    @property
    def bin_width(self) -> float:
        return 1.0 / _FPGA_CLOCK


@dataclass(frozen=True)
class CharacterizationCounts:
    """Raw tallies of one protocol run plus the laser-disabled dark pass."""

    c_d: int
    c_lp: int
    r_dc: float
    histogram: np.ndarray
    f: float
    mu: float
    deadtime: float            # identifies the structural-zero bins
    live_time: float           # also the dark pass's duration
    dark_counts: int

    def __post_init__(self):
        if self.c_d < 0 or self.c_lp < 0 or self.dark_counts < 0:
            raise ParameterError("counts must be >= 0")
        if self.c_d > self.c_lp:
            raise ParameterError("c_d cannot exceed c_lp")
        if np.any(self.histogram < 0):
            raise ParameterError("histogram counts must be >= 0")
        if self.r_dc < 0.0 or self.r_dc >= self.f:
            raise ParameterError("r_dc must be in [0, f)")

    @property
    def bin_width(self) -> float:
        return 1.0 / self.f

    @property
    def structural_bins(self) -> int:
        # Bins fully inside the hold-off window can never hold a count.
        return int(seconds_to_ps(self.deadtime)
                   // seconds_to_ps(self.bin_width))

    @property
    def r_dc_error(self) -> float:
        if self.live_time <= 0.0:
            return 0.0
        return math.sqrt(self.dark_counts) / self.live_time


@dataclass(frozen=True)
class JitterHistogram:
    bin_width: float
    counts: np.ndarray

    def __post_init__(self):
        if self.bin_width <= 0.0:
            raise ParameterError("bin_width must be > 0")
        counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(counts < 0):
            raise ParameterError("histogram counts must be >= 0")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class CharacterizationResult:
    efficiency: Estimate
    dark_rate: Estimate
    afterpulse_total: Estimate
    efficiency_systematic: float    # multiplicative band from the source mu
    counts: CharacterizationCounts

    def __post_init__(self):
        if not 0.0 <= self.efficiency.value <= 1.0:
            raise ParameterError("efficiency estimate outside [0, 1]")
        for est in (self.efficiency, self.dark_rate, self.afterpulse_total):
            if est.error < 0.0:
                raise ParameterError("standard errors must be >= 0")


def _check_deadtime(cfg: ProtocolConfig, deadtime: float) -> None:
    """Reject a hold-off outside the protocol's operating regime."""
    deadtime_ps = seconds_to_ps(deadtime)
    if seconds_to_ps(min(cfg.histogram_span, cfg.quiet_window)) < deadtime_ps:
        raise ParameterError("deadtime exceeds histogram_span or quiet_window")
    if deadtime_ps < seconds_to_ps(cfg.bin_width):
        raise ParameterError("deadtime below one clock bin is outside the "
                             "protocol's operating regime")


def _never_quiet(det, quiet_ps: int) -> bool:
    """Whether, for any seed, no quiet window can complete after a click:
    the hold-off, the longest dark gap (``_MAX_UNIT_GAP / rate``; a release
    only comes sooner) and the longest jitter delay (sigma * max(13, 37.4 *
    tail scale) + latency; a polar variate is at most about 12.01) fit in
    it with 1 ps to spare, so each click recorded in a quiet wait has a
    successor recorded inside the window."""
    deadtime_ps, rate, _, (sigma_ps, _, tail_scale, latency_ps) = det
    if not rate > 0.0:
        return False
    gap_ps = math.ceil(_MAX_UNIT_GAP / rate * PS_PER_S)
    delay_ps = sigma_ps * max(13.0, 37.4 * tail_scale) + latency_ps
    return deadtime_ps + gap_ps + 1 + delay_ps < quiet_ps


def run_protocol(detector: DetectorParams, cfg: ProtocolConfig,
                 seed) -> CharacterizationCounts:
    """Run the quiet-window protocol; dark rate from an equal-time dark pass.

    The laser pass and the laser-disabled pass use independent child random
    streams of the given seed, so togging one never perturbs the other.
    Where ``_never_quiet``, the kernel gets a 0 ps timeout: it starves at
    the first click of a quiet wait, not 0.05 s later, with the same
    outcome.  A dark pass at or above the clock's rate is out of the
    estimators' domain.
    """
    _check_deadtime(cfg, detector.deadtime)
    bin_ps = seconds_to_ps(cfg.bin_width)
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    det = _kernel_args(detector)
    p_click = -math.expm1(-cfg.laser_mu * detector.efficiency)
    quiet_ps = seconds_to_ps(cfg.quiet_window)
    timeout_ps = (0 if _never_quiet(det, quiet_ps)
                  else seconds_to_ps(_CYCLE_TIMEOUT))

    c_d, c_lp, hist, live_ps, starved = _kernels.characterize(
        cfg.pulses_requested, quiet_ps, bin_ps,
        seconds_to_ps(cfg.histogram_span), p_click, timeout_ps, det,
        stream.child(0).generators(_KERNEL_SUBSTREAMS))
    if starved:
        raise ProtocolStarvationError(
            "quiet window of %.3g s not reached within %.3g s of simulated "
            "time; detector too noisy for the protocol" %
            (cfg.quiet_window, _CYCLE_TIMEOUT))

    live_time = live_ps / PS_PER_S
    dark_times, _ = _kernels.free_run(
        live_ps, [], [], det, stream.child(1).generators(_KERNEL_SUBSTREAMS))
    dark_counts = int(len(dark_times))
    r_dc = dark_counts / live_time if live_time > 0.0 else 0.0
    if r_dc >= _FPGA_CLOCK:
        raise EstimatorDomainError(
            "dark pass rate %.3g cps is at or above the %g Hz protocol "
            "clock" % (r_dc, _FPGA_CLOCK))

    return CharacterizationCounts(
        c_d=int(c_d), c_lp=int(c_lp), r_dc=r_dc,
        histogram=np.asarray(hist, dtype=np.int64),
        f=_FPGA_CLOCK, mu=cfg.laser_mu, deadtime=detector.deadtime,
        live_time=live_time, dark_counts=dark_counts)


def efficiency_estimate(counts: CharacterizationCounts) -> Estimate:
    """Efficiency from laser-bin statistics, inverting Poisson photon stats.

    eta = (1/mu) * ln[(1 - r_dc/f) / (1 - C_d/C_lp)].  The error combines the
    binomial error on C_d/C_lp with the Poisson error on r_dc by the delta
    method.  Raises EstimatorDomainError when the counts imply an efficiency
    outside [0, 1].
    """
    if counts.c_lp == 0:
        raise EstimatorDomainError("no laser pulses recorded")
    p = counts.c_d / counts.c_lp
    d = counts.r_dc / counts.f
    if p >= 1.0 - d:
        raise EstimatorDomainError("click fraction saturates the estimator")
    eta = math.log((1.0 - d) / (1.0 - p)) / counts.mu
    if eta < 0.0:
        raise EstimatorDomainError("clicks below the dark expectation imply "
                                   "a negative efficiency")
    if eta > 1.0:
        raise EstimatorDomainError("counts imply an efficiency above 1")
    sigma_p = math.sqrt(p * (1.0 - p) / counts.c_lp)
    sigma_d = counts.r_dc_error / counts.f
    err = math.hypot(sigma_p / (1.0 - p), sigma_d / (1.0 - d)) / counts.mu
    return Estimate(eta, err)


def dark_rate_estimate(counts: CharacterizationCounts) -> Estimate:
    return Estimate(counts.r_dc, counts.r_dc_error)


def afterpulse_total(counts: CharacterizationCounts) -> Estimate:
    """Total afterpulse probability: histogram sum minus the dark baseline.

    P_ap = sum_i (C_i/C_d - r_dc*tau) over live bins; bins inside the
    hold-off window are structural zeros and excluded from the subtraction
    (counting them would bias the estimate low).  Error combines Poisson
    errors on the C_i with the dark-rate subtraction error.
    """
    if counts.c_d == 0:
        raise NoSignalError("no detections to condition the histogram on")
    n_live = len(counts.histogram) - counts.structural_bins
    if n_live <= 0:
        raise ParameterError("histogram has no bins beyond the deadtime")
    live = counts.histogram[counts.structural_bins:]
    tau = counts.bin_width
    total = float(live.sum()) / counts.c_d - counts.r_dc * tau * n_live
    var = float(live.sum()) / counts.c_d ** 2
    var += (n_live * tau * counts.r_dc_error) ** 2
    return Estimate(total, math.sqrt(var))


def characterize_point(detector: DetectorParams, cfg: ProtocolConfig,
                       seed) -> CharacterizationResult:
    """Protocol run + estimators bundled into one result with its counts."""
    counts = run_protocol(detector, cfg, seed)
    eta = efficiency_estimate(counts)
    return CharacterizationResult(
        efficiency=eta,
        dark_rate=dark_rate_estimate(counts),
        afterpulse_total=afterpulse_total(counts),
        efficiency_systematic=eta.value * _MU_SYSTEMATIC,
        counts=counts)


# Delays drawn and binned per step; 8 K to 64 K took the same time.
_JITTER_CHUNK = 16_384


def _exact_histogram(chunks, bin_width: float) -> np.ndarray:
    """Counts of the nonnegative chunks' values v in n = ceil(max(v) /
    bin_width) + 1 bins, bin i holding those with fl(v / bin_width) in
    [i, i + 1).  No view of a chunk is kept, so the next chunk may reuse
    its buffer."""
    counts, top = np.zeros(0, dtype=np.intp), 0.0
    for v in chunks:
        top = v.max(initial=top)
        if top / bin_width > _MAX_BINS - 1:   # n below would pass _MAX_BINS
            raise ParameterError(f"bin_width gives over {_MAX_BINS} bins")
        binned = np.bincount((v / bin_width).astype(np.intp),
                             minlength=len(counts))
        binned[:len(counts)] += counts
        counts = binned
    n = int(np.ceil(top / bin_width)) + 1
    return np.pad(counts, (0, n - len(counts)))


def _check_jitter_bins(detector: DetectorParams, draws: int,
                       bin_width: float) -> None:
    """Reject draws off the integers in [1, _MAX_DRAWS]; a bin width not
    finite and > 0, or wider than the FWHM it resolves; or one giving over
    _MAX_BINS bins up to latency + sigma * max(1, tail scale) * (ln(draws) +
    30), which a delay passes with chance below e^-30 / draws (Exp(1) tail;
    N(0, 1)'s is less)."""
    if not (isinstance(draws, (int, np.integer))
            and 1 <= draws <= _MAX_DRAWS):
        raise ParameterError(f"draws must be an integer in [1, {_MAX_DRAWS}]")
    jm = detector.jitter_model
    fwhm = jm.fwhm_at(detector.efficiency)
    span = jm.latency + detector.core_sigma \
        * max(1.0, jm.tail_scale_factor) * (math.log(draws) + 30.0)
    if not (0.0 < bin_width < math.inf and span <= bin_width * _MAX_BINS):
        raise ParameterError(f"bin_width must be finite, > 0 and give at "
                             f"most {_MAX_BINS} bins over {span:g} s")
    if bin_width > fwhm:
        raise ParameterError(f"bin_width must be at most the {fwhm:g} s "
                             f"FWHM it resolves")


def measure_jitter_histogram(detector: DetectorParams, draws: int, seed,
                             bin_width: float = 2e-12) -> JitterHistogram:
    """Histogram of response delays, emulating a TCSPC acquisition.

    Bin i of n = ceil(max / bin_width) + 1 counts the delays d with
    fl(d / bin_width) in [i, i + 1).  The delays are drawn (all tail
    decisions, kept as one bit each, then normals, then tail exponentials)
    and binned in _JITTER_CHUNK steps through one reused buffer.
    """
    _check_jitter_bins(detector, draws, bin_width)
    jm = detector.jitter_model
    sigma = detector.core_sigma
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    gen = stream.generator("jitter")
    buf = np.empty(min(draws, _JITTER_CHUNK))
    flags = np.empty(len(buf), dtype=bool)
    sizes = [min(_JITTER_CHUNK, draws - i)
             for i in range(0, draws, _JITTER_CHUNK)]
    packed, n_tail = [], 0
    for n in sizes:
        tail = np.less(gen.random(out=buf[:n]), jm.tail_fraction,
                       out=flags[:n])
        packed.append(np.packbits(tail))
        n_tail += np.count_nonzero(tail)

    def units():
        for n, bits in zip(sizes, packed):
            core = np.unpackbits(bits, count=n) == 0
            yield gen.standard_normal(out=buf[:n])[core]
        for i in range(0, n_tail, _JITTER_CHUNK):
            x = gen.standard_exponential(out=buf[:min(_JITTER_CHUNK,
                                                      n_tail - i)])
            yield np.multiply(x, jm.tail_scale_factor, out=x)

    delays = (np.maximum(0.0, np.add(np.multiply(x, sigma, out=x),
                                     jm.latency, out=x), out=x)
              for x in units())
    return JitterHistogram(bin_width=bin_width,
                           counts=_exact_histogram(delays, bin_width))


def tcspc_widths(hist: JitterHistogram, level: float) -> float:
    """Full width of the histogram at level*peak, linearly interpolated.

    level=0.5 gives the FWHM.  Requires a peak count of at least 100 for a
    meaningful crossing; raises OpenSupportError when the level line is not
    crossed on both flanks.
    """
    if not 0.0 < level < 1.0:
        raise ParameterError("level must be in (0, 1)")
    counts = hist.counts.astype(np.float64)
    peak_idx = int(np.argmax(counts))
    peak = counts[peak_idx]
    if peak < 100:
        raise NoSignalError("peak count below 100; widths are unreliable")
    threshold = level * peak

    def crossing(idx_from: int, step: int) -> float:
        i = idx_from
        while 0 <= i < len(counts):
            if counts[i] < threshold:
                # Interpolate between bin centers i and i-step.
                prev = i - step
                frac = (counts[prev] - threshold) / (counts[prev] - counts[i])
                return prev + frac * step
            i += step
        raise OpenSupportError("histogram never falls below the level on "
                               "one side")

    left = crossing(peak_idx, -1)
    right = crossing(peak_idx, +1)
    return (right - left) * hist.bin_width


def figure_of_merit(efficiency: float, dark_rate: float,
                    fwhm: float) -> float:
    """H = eta / (r_dc * dt); higher is better."""
    if dark_rate <= 0.0 or fwhm <= 0.0:
        raise ParameterError("dark_rate and fwhm must be > 0")
    return efficiency / (dark_rate * fwhm)
