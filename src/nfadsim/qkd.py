"""Time-bin QKD link model with a Data and a Monitor detector.

Two evaluation modes share one parameterization: a closed-form rate model
(link_metrics) and a full Monte Carlo session (simulate_session) that runs
the detector simulation frame by frame.  The analytic model carries the
saturation/afterpulse coupling self-consistently so the two modes agree
within statistics; the Monte Carlo remains the authority on anything the
closed form approximates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .detector import _kernel_args, afterpulse_feedback
from .engine import RandomStream, seconds_to_ps
from .errors import NoSignalError, ParameterError
from .params import DetectorParams


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
        if self.channel_loss_db < 0.0:
            raise ParameterError("channel_loss_db must be >= 0")
        if self.pulse_rate <= 0.0:
            raise ParameterError("pulse_rate must be > 0")
        if self.mu < 0.0:
            raise ParameterError("mu must be >= 0")
        for name in ("monitor_fraction", "interferometer_visibility_intrinsic",
                     "optical_error", "pa_ratio", "monitor_duty"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1]")
        if self.ec_inefficiency < 1.0:
            raise ParameterError("ec_inefficiency must be >= 1")
        if self.auth_rate_cost < 0.0:
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


def detected_rate(incident: float, deadtime: float) -> float:
    """Non-paralyzable saturation: incident/(1 + incident*deadtime)."""
    if incident < 0.0:
        raise ParameterError("incident rate must be >= 0")
    if deadtime < 0.0:
        raise ParameterError("deadtime must be >= 0")
    return incident / (1.0 + incident * deadtime)


def _saturated_rates(candidate_rate: float, deadtime: float,
                     feedback: tuple[float, float]) -> tuple[float, float]:
    """Detected click rate C and armed fraction with afterpulse feedback.

    Primary candidates arrive memorylessly and click with the armed-time
    fraction 1 - C*deadtime.  Each click seeds afterpulse candidates that
    add b - g*C detected descendants per click (b, g from
    afterpulse_feedback).  The balance

        C = r0*(1 - C*deadtime) + (b - g*C)*C

    is a quadratic in C (g > 0 whenever b > 0).  In afterpulse runaway,
    where each click breeds a detected descendant almost surely, the root
    can push the armed fraction to zero; it is floored at 0.1% there, which
    pins QBER near a coin flip and the key rate at zero without a special
    case.  b=0 reduces to the plain saturation law.
    """
    r0, tau = candidate_rate, deadtime
    b, g = feedback
    if r0 <= 0.0:
        return 0.0, 1.0
    k = 1.0 + tau * r0 - b
    if g <= 0.0:
        c = r0 / k
    else:
        # Root written without the -k + sqrt cancellation; k may go negative
        # in runaway, where the g term keeps the root finite.
        c = 2.0 * r0 / (k + math.sqrt(k * k + 4.0 * g * r0))
    armed = 1.0 - c * tau
    if tau > 0.0 and armed < 1.0e-3:
        c = 0.999 / tau
        armed = 1.0e-3
    return c, armed


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
    r_dark = det.dark_model.rate(det.temperature, det.efficiency)
    p_dk = 2.0 * r_dark / cfg.pulse_rate
    return p_sig, p_dk


def _monitor_budget(cfg: LinkConfig, op: QkdOperatingPoint):
    det = op.monitor_detector
    v0 = cfg.interferometer_visibility_intrinsic
    a = cfg.mu * cfg.transmittance * det.efficiency
    scale = cfg.monitor_duty * cfg.monitor_fraction
    p_plus = scale * -math.expm1(-a * (1.0 + v0))
    p_minus = scale * -math.expm1(-a * (1.0 - v0))
    r_dark = det.dark_model.rate(det.temperature, det.efficiency)
    return p_plus, p_minus, r_dark


def _arm_rates(det: DetectorParams, candidate_rate: float):
    """Detected clicks and armed fraction for one detector at one rate."""
    fb = afterpulse_feedback(det, candidate_rate)
    return _saturated_rates(candidate_rate, det.deadtime, fb)


def _key_factor(cfg: LinkConfig, sifted: float, qber: float) -> float:
    """Data-detector half of the key rate: sifted * (1 - f*h(qber)) * pa."""
    return sifted * (1.0 - cfg.ec_inefficiency * binary_entropy(qber)) \
        * cfg.pa_ratio


def _vis_factor(cfg: LinkConfig, vis_raw: float) -> float:
    """Monitor-detector half of the key rate: raw over intrinsic visibility."""
    v0 = cfg.interferometer_visibility_intrinsic
    return vis_raw / v0 if v0 > 0.0 else 0.0


def _skr(cfg: LinkConfig, sifted: float, qber: float,
         vis_raw: float) -> float:
    # The key rate factors into a Data half and a Monitor half; the
    # optimizer relies on this split (and on this association order) to
    # take the product over detector pairs without re-evaluating them.
    secret = _key_factor(cfg, sifted, qber) * _vis_factor(cfg, vis_raw)
    return max(0.0, secret - cfg.auth_rate_cost)


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
    clicks, armed = _arm_rates(det, r0)

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

    mon = op.monitor_detector
    p_plus, p_minus, r_dark_m = _monitor_budget(cfg, op)
    arms = []
    for p_frame in (p_plus, p_minus):
        c_arm, armed_arm = _arm_rates(mon, f_b * p_frame + r_dark_m)
        arms.append((c_arm, r_dark_m * armed_arm))
    (c_plus, dark_plus), (c_minus, dark_minus) = arms
    if c_plus + c_minus > 0.0:
        vis_raw = max(0.0, (c_plus - c_minus) / (c_plus + c_minus))
        den = (c_plus - dark_plus) + (c_minus - dark_minus)
        if den > 0.0:
            vis_ds = ((c_plus - dark_plus) - (c_minus - dark_minus)) / den
            vis_ds = min(1.0, max(vis_raw, vis_ds))
        else:
            vis_ds = vis_raw
    else:
        vis_raw = 0.0
        vis_ds = 0.0

    return LinkMetrics(sifted_rate=clicks, qber=qber, visibility_raw=vis_raw,
                       visibility_dark_subtracted=vis_ds,
                       skr=_skr(cfg, clicks, qber, vis_raw))


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
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    frame_ps = seconds_to_ps(2.0 / cfg.pulse_rate)
    slot_ps = frame_ps // 2
    duration = frames * (2.0 / cfg.pulse_rate)

    det = op.data_detector
    args_d = _kernel_args(det)
    p_sig, p_dk = _data_budget(cfg, op)
    gens = stream.child(0).generators(
        ("darks", "photons", "traps", "jitter", "bits"))
    n_sifted, n_errors = _kernels.qkd_data(
        frames, frame_ps, slot_ps, args_d["deadtime_ps"],
        p_sig, cfg.optical_error, args_d["dark_rate"],
        args_d["trap_lambda"], args_d["trap_cum_weights"],
        args_d["trap_tau_ps"],
        args_d["sigma_ps"], args_d["tail_fraction"], args_d["tail_scale"],
        args_d["latency_ps"],
        gens["darks"], gens["photons"], gens["traps"], gens["jitter"],
        gens["bits"])
    if n_sifted == 0:
        raise NoSignalError("no sifted detections in the session")
    sifted = n_sifted / duration
    qber = min(0.5, n_errors / n_sifted)

    args_m = _kernel_args(op.monitor_detector)
    p_plus, p_minus, r_dark_m = _monitor_budget(cfg, op)

    def monitor_pass(child: int, p_frame: float) -> int:
        g = stream.child(child).generators(
            ("darks", "photons", "traps", "jitter"))
        return _kernels.qkd_monitor(
            frames, frame_ps, slot_ps, args_m["deadtime_ps"],
            p_frame, args_m["dark_rate"],
            args_m["trap_lambda"], args_m["trap_cum_weights"],
            args_m["trap_tau_ps"],
            args_m["sigma_ps"], args_m["tail_fraction"], args_m["tail_scale"],
            args_m["latency_ps"],
            g["darks"], g["photons"], g["traps"], g["jitter"])

    n_plus = monitor_pass(1, p_plus)
    n_minus = monitor_pass(2, p_minus)
    total = n_plus + n_minus
    if total > 0:
        vis_raw = max(0.0, (n_plus - n_minus) / total)
        # Subtract the model-expected detected dark counts from each arm.
        f_b = cfg.frame_rate
        dark_detected = []
        for p_frame in (p_plus, p_minus):
            _, armed_arm = _arm_rates(op.monitor_detector,
                                      f_b * p_frame + r_dark_m)
            dark_detected.append(duration * r_dark_m * armed_arm)
        num = (n_plus - dark_detected[0]) - (n_minus - dark_detected[1])
        den = (n_plus - dark_detected[0]) + (n_minus - dark_detected[1])
        vis_ds = num / den if den > 0.0 else vis_raw
        vis_ds = min(1.0, max(vis_raw, vis_ds))
    else:
        vis_raw = 0.0
        vis_ds = 0.0

    return LinkMetrics(sifted_rate=sifted, qber=qber, visibility_raw=vis_raw,
                       visibility_dark_subtracted=vis_ds,
                       skr=_skr(cfg, sifted, qber, vis_raw))
