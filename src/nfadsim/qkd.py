"""Time-bin QKD link model with a Data and a Monitor detector.

Two evaluation modes share one parameterization: a closed-form rate model
(link_metrics) and a full Monte Carlo session (simulate_session) that runs
the detector simulation frame by frame.  The analytic model carries the
saturation/afterpulse coupling self-consistently (detector._saturated_rates)
so the two modes agree within statistics; the Monte Carlo remains the
authority on anything the closed form approximates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .detector import (_KERNEL_SUBSTREAMS, _kernel_args, _saturated_rates,
                       dark_rate)
from .engine import RandomStream, check_ps, seconds_to_ps
from .errors import NoSignalError, ParameterError
from .params import DetectorParams


# Above it a time-bin slot is under 1 ps, the simulation grid's step.
_MAX_PULSE_RATE = 1e12


@dataclass(frozen=True)
class LinkConfig:
    channel_loss_db: float
    pulse_rate: float = 625e6
    mu: float = 0.06
    monitor_fraction: float = 0.10
    interferometer_visibility_intrinsic: float = 0.99
    optical_error: float = 0.005
    ec_inefficiency: float = 1.15
    pa_ratio: float = 0.15
    auth_rate_cost: float = 50.0
    # Fraction of frames whose monitor-port output interferes coherently.
    monitor_duty: float = 0.25

    def __post_init__(self):
        if not self.channel_loss_db >= 0.0:
            raise ParameterError("channel_loss_db must be >= 0")
        if not 0.0 < self.pulse_rate <= _MAX_PULSE_RATE:
            raise ParameterError(f"pulse_rate must be > 0 and at most "
                                 f"{_MAX_PULSE_RATE:g} Hz")
        if not self.mu >= 0.0:
            raise ParameterError("mu must be >= 0")
        for name in ("monitor_fraction", "interferometer_visibility_intrinsic",
                     "optical_error", "pa_ratio", "monitor_duty"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1]")
        if not self.ec_inefficiency >= 1.0:
            raise ParameterError("ec_inefficiency must be >= 1")
        if not self.auth_rate_cost >= 0.0:
            raise ParameterError("auth_rate_cost must be >= 0")

    @property
    def transmittance(self) -> float:
        return 10.0 ** (-self.channel_loss_db / 10.0)

    @property
    def frame_rate(self) -> float:
        # One bit frame spans two pulse slots.
        return self.pulse_rate / 2.0


@dataclass(frozen=True)
class QkdOperatingPoint:
    data_detector: DetectorParams
    monitor_detector: DetectorParams


@dataclass(frozen=True)
class LinkMetrics:
    sifted_rate: float
    qber: float
    visibility_raw: float
    visibility_dark_subtracted: float
    skr: float

    def __post_init__(self):
        if not 0.0 <= self.qber <= 0.5:
            raise ParameterError("qber must be in [0, 0.5]")
        for name in ("visibility_raw", "visibility_dark_subtracted"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1]")
        if self.visibility_dark_subtracted < self.visibility_raw:
            raise ParameterError("dark-subtracted visibility cannot fall "
                                 "below the raw visibility")
        if self.skr < 0.0 or self.sifted_rate < 0.0:
            raise ParameterError("rates must be >= 0")


def binary_entropy(p: float) -> float:
    """Binary entropy in bits.

    >>> binary_entropy(0.0)
    0.0
    >>> binary_entropy(0.5)
    1.0
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must be in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _slot_slip_tail(op_data: DetectorParams, slot: float) -> tuple[float, float]:
    """P(jitter pushes a click one slot late) split at one/two slots.

    Returns (P_one_slot, P_beyond): upper-tail masses of the centered jitter
    deviation past slot/2 and 3*slot/2.  The mixture is a Gaussian core plus
    a one-sided exponential tail, so only late slips matter.
    """
    jm = op_data.jitter_model
    sigma = jm.core_sigma_at(op_data.efficiency)
    w, k = jm.tail_fraction, jm.tail_scale_factor

    def upper(y: float) -> float:
        u = y / sigma
        return (1.0 - w) * 0.5 * math.erfc(u / math.sqrt(2.0)) \
            + w * math.exp(-u / k)

    p_half = upper(0.5 * slot)
    p_three_half = upper(1.5 * slot)
    return p_half - p_three_half, p_three_half


def _data_budget(cfg: LinkConfig, op: QkdOperatingPoint):
    """Per-frame signal/dark candidate probabilities at the Data detector."""
    det = op.data_detector
    p_sig = (1.0 - cfg.monitor_fraction) * \
        -math.expm1(-cfg.mu * cfg.transmittance * det.efficiency)
    p_dk = 2.0 * dark_rate(det) / cfg.pulse_rate
    return p_sig, p_dk


def _monitor_budget(cfg: LinkConfig, op: QkdOperatingPoint):
    """The Monitor's arms at the two interference extremes (+, then -), each
    as (per-frame signal candidate probability, closed-form detected rate,
    armed fraction), and its dark rate."""
    det = op.monitor_detector
    v0 = cfg.interferometer_visibility_intrinsic
    a = cfg.mu * cfg.transmittance * det.efficiency
    scale = cfg.monitor_duty * cfg.monitor_fraction
    r_dark = dark_rate(det)
    p_arms = (scale * -math.expm1(-a * (1.0 + v0)),
              scale * -math.expm1(-a * (1.0 - v0)))
    return [(p, *_saturated_rates(det, cfg.frame_rate * p + r_dark))
            for p in p_arms], r_dark


def _key_factor(cfg: LinkConfig, sifted: float, qber: float) -> float:
    """Data-detector half of the key rate: sifted * (1 - f*h(qber)) * pa."""
    return sifted * (1.0 - cfg.ec_inefficiency * binary_entropy(qber)) \
        * cfg.pa_ratio


def _vis_factor(cfg: LinkConfig, vis_raw: float) -> float:
    """Monitor-detector half of the key rate: raw over intrinsic visibility."""
    v0 = cfg.interferometer_visibility_intrinsic
    return vis_raw / v0 if v0 > 0.0 else 0.0


def _link_result(cfg: LinkConfig, sifted: float, qber: float,
                 monitor) -> LinkMetrics:
    """Both modes' metrics from the Data sifted rate and QBER and, per
    Monitor arm (+, then -), its clicks and the detected dark baseline."""
    (n_plus, dark_plus), (n_minus, dark_minus) = monitor
    if n_plus + n_minus > 0:
        vis_raw = max(0.0, (n_plus - n_minus) / (n_plus + n_minus))
        den = (n_plus - dark_plus) + (n_minus - dark_minus)
        vis_ds = ((n_plus - dark_plus) - (n_minus - dark_minus)) / den \
            if den > 0.0 else vis_raw
        vis_ds = min(1.0, max(vis_raw, vis_ds))
    else:
        vis_raw = vis_ds = 0.0
    # The key rate factors into a Data half and a Monitor half; the
    # optimizer relies on this split (and on this association order) to
    # take the product over detector pairs without re-evaluating them.
    secret = _key_factor(cfg, sifted, qber) * _vis_factor(cfg, vis_raw)
    return LinkMetrics(sifted_rate=sifted, qber=qber, visibility_raw=vis_raw,
                       visibility_dark_subtracted=vis_ds,
                       skr=max(0.0, secret - cfg.auth_rate_cost))


def link_metrics(cfg: LinkConfig, op: QkdOperatingPoint) -> LinkMetrics:
    """Closed-form link budget at one operating point.

    Data side: frame-level signal and dark candidates saturate together with
    the afterpulse feedback; QBER mixes the armed-fraction-thinned primary
    errors with the coin-flip afterpulse clicks.  Monitor side: the two
    interference extremes are evaluated as separate detected rates and
    contrasted the same way the Monte Carlo estimator does; the
    dark-subtracted variant removes the detected dark baseline per arm.
    """
    f_b = cfg.frame_rate
    det = op.data_detector
    p_sig, p_dk = _data_budget(cfg, op)
    r0 = f_b * (p_sig + p_dk)
    clicks, armed = _saturated_rates(det, r0)

    if clicks > 0.0:
        slot = 1.0 / cfg.pulse_rate
        p_one, p_more = _slot_slip_tail(det, slot)
        e_sig = cfg.optical_error + (1.0 - cfg.optical_error) * \
            (0.75 * p_one + 0.5 * p_more)
        primaries = r0 * armed
        errors = armed * f_b * (p_dk / 2.0 + p_sig * e_sig) \
            + (clicks - primaries) / 2.0
        qber = min(0.5, errors / clicks)
    else:
        qber = 0.5

    arms, r_dark_m = _monitor_budget(cfg, op)
    return _link_result(cfg, clicks, qber,
                        [(c_arm, r_dark_m * armed_arm)
                         for _, c_arm, armed_arm in arms])


def simulate_session(cfg: LinkConfig, op: QkdOperatingPoint, frames: int,
                     seed) -> LinkMetrics:
    """Monte Carlo session over the given number of bit frames.

    The Data detector decodes arrival slots against the true random bit
    sequence; the Monitor detector is run at both interference extremes to
    estimate visibility the way a scanned interferometer would.
    """
    if frames < 100_000:
        raise ParameterError("need at least 1e5 frames for meaningful "
                             "statistics")
    frame_ps = seconds_to_ps(2.0 / cfg.pulse_rate)
    check_ps(frames * frame_ps, "session duration")
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    slot_ps = frame_ps // 2
    duration = frames * (2.0 / cfg.pulse_rate)

    det_d = _kernel_args(op.data_detector)
    p_sig, p_dk = _data_budget(cfg, op)
    n_sifted, n_errors = _kernels.qkd_data(
        frames, frame_ps, slot_ps, p_sig, cfg.optical_error, det_d,
        stream.child(0).generators((*_KERNEL_SUBSTREAMS, "bits")))
    if n_sifted == 0:
        raise NoSignalError("no sifted detections in the session")
    sifted = n_sifted / duration
    qber = min(0.5, n_errors / n_sifted)

    det_m = _kernel_args(op.monitor_detector)
    arms, r_dark_m = _monitor_budget(cfg, op)
    totals = []
    for child, (p_frame, _, armed) in enumerate(arms, 1):
        n_arm = _kernels.qkd_monitor(
            frames, frame_ps, slot_ps, p_frame, det_m,
            stream.child(child).generators(_KERNEL_SUBSTREAMS))
        # The model-expected detected dark counts in this arm.
        totals.append((n_arm, duration * r_dark_m * armed))
    return _link_result(cfg, sifted, qber, totals)
