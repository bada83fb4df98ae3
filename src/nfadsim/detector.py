"""Detector-level API: Monte Carlo click streams and small analytic helpers."""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import _kernels
from .engine import (EVENT_DARK, EVENT_PULSE, EVENT_RELEASE, EventQueue,
                     RandomStream, check_ps, seconds_to_ps, timeline_to_ps)
from .errors import ParameterError
from .params import (ClickStream, DetectorParams, OpticalTimeline,
                     ORIGIN_AFTERPULSE, ORIGIN_DARK, ORIGIN_PHOTON, PS_PER_S)

_KERNEL_SUBSTREAMS = ("darks", "photons", "traps", "jitter")


def dark_rate(params: DetectorParams) -> float:
    """Dark count rate (cps) at the detector's operating point."""
    return params.dark_model.rate(params.temperature, params.efficiency)


@lru_cache(maxsize=256)
def _trap_components(trap, temperature: float):
    """(weight, lifetime in s) per release component of ``trap`` at
    ``temperature``, as Python floats."""
    return tuple(zip(trap.weights().tolist(),
                     trap.lifetimes_at(temperature).tolist()))


_SQRT_MAX = math.sqrt(sys.float_info.max)   # below it k * k is finite
# Below it 1 - C*deadtime keeps under half its digits.
_ARMED_NOISE = math.sqrt(sys.float_info.epsilon)


def _saturated_rates(params: DetectorParams,
                     candidate_rate: float) -> tuple[float, float]:
    """Detected click rate C and armed fraction with afterpulse feedback.

    Primary candidates arrive memorylessly at candidate_rate r0 and click
    with the armed-time fraction 1 - C*deadtime.  Each click adds b - g*C
    detected afterpulse descendants: a trap release counts if it outlives
    the hold-off (survival e^(-deadtime/tau)) and then finds the detector
    armed, within the first armed window after re-arm (b_first) if no fresh
    candidate came since re-arm, later if the stationary process put no
    click in the deadtime before it (probability exactly 1 - C*deadtime).
    Blocking by siblings of the same cascade is second order and ignored.
    C is the root 2*r0 / (k + sqrt(k^2 + 4*g*r0)) of g*C^2 + k*C - r0 with
    k = 1 + r0*deadtime - b, the plain law to the bit at g = b = 0.  Where
    k^2 overflows (r0*deadtime past about 1.3e154, so C is about
    1/deadtime) it is the same root with r0 divided out,
    2 / (k' + hypot(k', 2*sqrt(g/r0))) with k' = deadtime + (1 - b)/r0,
    which holds where r0*deadtime itself overflows.  The armed fraction is
    1 - C*deadtime, or C*(1 - b + g*C)/r0 by the root's equation where
    that difference is rounding noise.  Time stays armed unless
    lam*b_first >= 1 (lam traps per click), which no calibrated detector
    reaches: b_first <= 1/4 and lam <= 2.97.  Past it the rates are the
    runaway limit, (1/deadtime, 0.0): a coin-flip QBER and no key.
    """
    r0, td = candidate_rate, params.deadtime
    b = g = 0.0
    lam = params.trap_model.mean_traps(params.efficiency)
    if lam != 0.0:
        # Python floats: (r0 + 1/tau)*td overflows to inf without a warning.
        b_first = b_late = 0.0
        for w, tau in _trap_components(params.trap_model,
                                       params.temperature):
            survive = math.exp(-td / tau)
            first = -math.expm1(-(r0 + 1.0 / tau) * td) / (1.0 + r0 * tau)
            b_first += w * survive * first
            b_late += w * survive * survive
        # numpy scalars: the closed form's reprs, which the session digests
        # hash, pin their type.
        b = np.float64(lam * (b_first + b_late))
        g = np.float64(lam * b_late * td)
    if r0 <= 0.0:
        return 0.0, 1.0
    k = 1.0 + td * r0 - b
    # No -k + sqrt cancellation; k < 0 or den = 0 only happen in runaway.
    if -_SQRT_MAX < k < _SQRT_MAX:
        num, den = 2.0 * r0, k + math.sqrt(k * k + 4.0 * g * r0)
    else:   # k * k would overflow; float() keeps numpy from warning
        k = float(td + (1.0 - b) / r0)
        num, den = 2.0, k + math.hypot(k, 2.0 * math.sqrt(g / r0))
    c = num / den if den > 0.0 else math.inf
    armed = 1.0 - c * td
    if abs(armed) < _ARMED_NOISE:
        armed = c * (1.0 - b + g * c) / r0
    if not armed > 0.0:
        return 1.0 / td, 0.0
    return c, armed


_MAX_UNIT_GAP = math.log(2.0 ** 53)  # -ln(1 - u) at the largest u below 1


def _kernel_args(params: DetectorParams):
    """The detector bundle every kernel call site passes as ``det``.

    ``(deadtime_ps, dark_rate, traps, jitter)``: ``traps`` is (mean traps
    per avalanche, cumulative component weights, component lifetimes in ps)
    and ``jitter`` is (core sigma in ps, tail fraction, tail scale, latency
    in ps).  Native floats and tuples, not numpy scalars and arrays: the
    kernels' arithmetic on them gives the same values and runs faster in
    the interpreter.  Dark rates below about 2e-295 cps (a gap can be ``inf``
    ps) or above 1e9 cps (whole-ps gaps run them >= 0.05% high) are rejected,
    and so is a hold-off that rounds to 0 ps: a click would re-arm at once.
    So is a trap mean past about 708.4, where exp(-mean) underflows and
    Knuth's product would stop near 745 traps a click whatever the mean.
    """
    deadtime_ps = seconds_to_ps(params.deadtime)
    if deadtime_ps < 1:
        raise ParameterError("hold-off %.3g s rounds to 0 ps on the 1 ps "
                             "grid of the simulation" % params.deadtime)
    trap = params.trap_model
    lam = trap.mean_traps(params.efficiency)
    if not math.exp(-lam) >= sys.float_info.min:
        raise ParameterError("mean traps per avalanche %.4g is past about "
                             "708.4: exp(-mean), the limit of the trap "
                             "count's product, is not a normal double" % lam)
    cum_weights = tuple(accumulate(float(c[0])
                                   for c in trap.release_components))
    tau_ps = tuple(tau * PS_PER_S for _, tau in
                   _trap_components(trap, params.temperature))
    if not all(map(math.isfinite, tau_ps)):
        raise ParameterError("trap lifetime overflows the picosecond grid")
    rate = float(dark_rate(params))
    if rate > 0.0 and not (math.isfinite(_MAX_UNIT_GAP / rate * PS_PER_S)
                           and rate <= 1e9):
        raise ParameterError("dark count rate %.3g cps is off the picosecond "
                             "grid, which carries about 2e-295 to 1e9 cps"
                             % rate)
    jit = params.jitter_model
    sigma_ps = jit.core_sigma_at(params.efficiency) * PS_PER_S
    return (deadtime_ps, rate,
            (float(lam), cum_weights, tau_ps),
            (float(sigma_ps), float(jit.tail_fraction),
             float(jit.tail_scale_factor), seconds_to_ps(jit.latency)))


def _duration_ps(duration: float) -> int:
    """Duration on the ps grid, rejected where it would reach ``NEVER``."""
    if not (duration > 0.0) or not math.isfinite(duration):
        raise ParameterError("duration must be positive and finite")
    return check_ps(seconds_to_ps(duration), "duration")


def simulate(params: DetectorParams, timeline: OpticalTimeline,
             duration: float, seed) -> ClickStream:
    """Simulate the detector against an optical timeline for duration seconds.

    seed is an integer or a RandomStream.  Returns the recorded click stream
    with per-click origin tags (photon, dark, afterpulse).
    """
    duration_ps = _duration_ps(duration)
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    det = _kernel_args(params)
    pulse_times_ps, pulse_p = timeline_to_ps(timeline, params.efficiency)
    times_ps, origins = _kernels.free_run(
        duration_ps, memoryview(pulse_times_ps), memoryview(pulse_p), det,
        stream.generators(_KERNEL_SUBSTREAMS))
    return ClickStream(np.frombuffer(times_ps, dtype=np.int64) / PS_PER_S,
                       np.frombuffer(origins, dtype=np.uint8))


def simulate_reference(params: DetectorParams, timeline: OpticalTimeline,
                       duration: float, seed) -> ClickStream:
    """Event-queue reimplementation of simulate(); must match it bit for bit.

    Kept deliberately independent of the kernel's merge loop: candidates go
    through an explicit priority queue.  Equality of the two click streams is
    enforced in the test suite and pins down event ordering, armed-state
    semantics and the per-substream draw order.
    """
    duration_ps = _duration_ps(duration)
    stream = seed if isinstance(seed, RandomStream) else RandomStream(seed)
    gens = stream.generators(_KERNEL_SUBSTREAMS)
    (deadtime_ps, rate_dark, (lam, cum, trap_tau_ps),
     (sigma_ps, _, _, latency_ps)) = _kernel_args(params)
    pulse_times_ps, pulse_p = timeline_to_ps(timeline, params.efficiency)

    def gap_ps(generator, rate: float) -> int:
        # Truncate like the kernels do; round() would disagree by 1 ps.
        return int(-math.log(1.0 - generator.random()) / rate * PS_PER_S)

    queue = EventQueue()
    for t, p in zip(pulse_times_ps, pulse_p):
        queue.push(int(t), EVENT_PULSE, float(p))
    if rate_dark > 0.0:
        queue.push(gap_ps(gens["darks"], rate_dark), EVENT_DARK, None)

    def jitter_delay_ps() -> int:
        g = gens["jitter"]
        jm = params.jitter_model
        if g.random() < jm.tail_fraction:
            x = -jm.tail_scale_factor * math.log(1.0 - g.random())
        else:
            while True:  # polar method, matching the kernel's variate
                a = 2.0 * g.random() - 1.0
                b = 2.0 * g.random() - 1.0
                s = a * a + b * b
                if 0.0 < s < 1.0:
                    x = a * math.sqrt(-2.0 * math.log(s) / s)
                    break
        return max(0, latency_ps + int(x * sigma_ps))

    def spawn_traps(t_raw: int) -> None:
        g = gens["traps"]
        if lam <= 0.0:
            return
        limit = math.exp(-lam)
        k, p = 0, 1.0
        while True:
            p *= g.random()
            if p <= limit:
                break
            k += 1
        for _ in range(k):
            u = g.random()
            comp = len(cum) - 1
            for i in range(len(cum)):
                if u < cum[i]:
                    comp = i
                    break
            tau_ps = trap_tau_ps[comp]
            delay = int(-math.log(1.0 - g.random()) * tau_ps)
            queue.push(t_raw + delay, EVENT_RELEASE, None)

    out_times: list[int] = []
    out_origins: list[int] = []
    armed_from = 0

    while queue and queue.peek_time() < duration_ps:
        t, kind, payload = queue.pop()
        clicked = False
        origin = ORIGIN_PHOTON
        if kind == EVENT_PULSE:
            if t >= armed_from and gens["photons"].random() < payload:
                clicked = True
        elif kind == EVENT_DARK:
            queue.push(t + gap_ps(gens["darks"], rate_dark), EVENT_DARK, None)
            if t >= armed_from:
                clicked = True
                origin = ORIGIN_DARK
        else:
            if t >= armed_from:
                clicked = True
                origin = ORIGIN_AFTERPULSE
        if clicked:
            recorded = t + jitter_delay_ps()
            if recorded < duration_ps:
                out_times.append(recorded)
                out_origins.append(origin)
            armed_from = recorded + deadtime_ps
            spawn_traps(t)

    return ClickStream(np.asarray(out_times, dtype=np.float64) / PS_PER_S,
                       np.asarray(out_origins, dtype=np.uint8))

