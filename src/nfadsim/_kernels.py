"""Simulation kernels, written in numba-compatible plain Python.

Every function here is compiled with ``numba.njit`` unless the pure-Python
backend is selected (see ``_backend``).  To keep both backends bit-identical
the kernels draw nothing but ``gen.random()`` uniforms and use only
``math.*`` scalar routines; exponential, normal, Poisson and categorical
variates are derived here by inversion/rejection.

Draw contract.  Each ``gen_*`` argument is one named substream.  Under numba
it is the raw ``numpy.random.Generator``.  In the interpreter the call sites
pass the sources of ``RandomStream.uniforms``: ``random()`` reads the same
doubles from buffered blocks, exactly as scalar calls would, and on exit
each generator is rewound past the values it drew but never served, so it
ends where scalar calls leave it.  A kernel fed raw generators gives the
same outputs and end states (``tests/test_backends.py``).

Time is integer picoseconds throughout.  In the interpreter every event time
is a Python int: the pulse inputs arrive as lists, the release heap is a
list driven by ``heapq`` and floored by the ``NEVER`` sentinel, and clicks
and histogram bins are collected in lists.  Event tie-breaks at equal times
follow the fixed kind priority: re-arm happens first (armed state is checked
with ``>=``), then optical pulse, then continuous background, then dark
candidate, then trap release.

Per-click draw order (the contract shared with the reference simulator in
``detector.py``): jitter delay first, then trap count, then per-trap
(component, release-delay) pairs.  Dark/background candidates consume one gap
draw when the previous candidate is processed, armed or not.
"""

import math
from heapq import heappop, heappush

from ._backend import compile_kernel
from .params import ORIGIN_AFTERPULSE, ORIGIN_DARK, ORIGIN_PHOTON, PS_PER_S

# Far future sentinel; beyond any simulated time but safely below 2**63.
# It also sits at the bottom of every release heap, so the heap is never
# empty and its top can be compared without a length test.
NEVER = 1 << 62


def _poisson_small(gen, lam):
    # Knuth product-of-uniforms; lam stays well below 1 in this model.
    if lam <= 0.0:
        return 0
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= gen.random()
        if p <= limit:
            return k
        k += 1


def _exp_gap_ps(gen, rate_per_s):
    # rate > 0 required by callers.
    u = gen.random()
    return int(-math.log(1.0 - u) / rate_per_s * PS_PER_S)


def _exp_tau_ps(gen, tau_ps):
    u = gen.random()
    return int(-math.log(1.0 - u) * tau_ps)


def _pick_component(gen, cum_weights):
    u = gen.random()
    n = len(cum_weights)
    for i in range(n):
        if u < cum_weights[i]:
            return i
    return n - 1


def _normal_unit(gen):
    # Marsaglia polar method; second variate intentionally discarded so the
    # draw count depends only on the rejection path.
    while True:
        a = 2.0 * gen.random() - 1.0
        b = 2.0 * gen.random() - 1.0
        s = a * a + b * b
        if 0.0 < s < 1.0:
            return a * math.sqrt(-2.0 * math.log(s) / s)


def _jitter_delay_ps(gen, sigma_ps, tail_fraction, tail_scale, latency_ps):
    # Mixture: Gaussian core (mode at latency) + one-sided exponential tail.
    u = gen.random()
    if u < tail_fraction:
        x = -tail_scale * math.log(1.0 - gen.random())
    else:
        x = _normal_unit(gen)
    delay = latency_ps + int(x * sigma_ps)
    if delay < 0:
        delay = 0
    return delay


def free_run(duration_ps, deadtime_ps,
             dark_rate, bg_rate,
             pulse_times_ps, pulse_p_click,
             trap_lambda, trap_cum_weights, trap_tau_ps,
             sigma_ps, tail_fraction, tail_scale, latency_ps,
             gen_darks, gen_photons, gen_traps, gen_jitter, gen_background):
    """Free-running detector over [0, duration): returns the click stream.

    Dark and background candidates are homogeneous Poisson processes whose
    candidates are generated regardless of armed state and thinned by it.
    Pulses click with their per-pulse probability while armed.  Every click
    is recorded at raw time + jitter delay; the detector re-arms at
    recorded time + deadtime.  Trap releases while disarmed are lost.
    """
    times = []
    origins = []

    rel_heap = [NEVER]

    next_dark = _exp_gap_ps(gen_darks, dark_rate) if dark_rate > 0.0 else NEVER
    next_bg = _exp_gap_ps(gen_background, bg_rate) if bg_rate > 0.0 else NEVER
    i_pulse = 0
    n_pulses = len(pulse_times_ps)
    armed_from = 0  # armed when t >= armed_from

    while True:
        # Next event by (time, kind priority): pulse=1, bg=2, dark=3, release=4.
        t_next = NEVER
        kind = 9
        if i_pulse < n_pulses and pulse_times_ps[i_pulse] < t_next:
            t_next = pulse_times_ps[i_pulse]
            kind = 1
        if next_bg < t_next:
            t_next = next_bg
            kind = 2
        if next_dark < t_next:
            t_next = next_dark
            kind = 3
        if rel_heap[0] < t_next:
            t_next = rel_heap[0]
            kind = 4
        if t_next >= duration_ps:
            break

        clicked = False
        code = 0
        if kind == 1:
            p = pulse_p_click[i_pulse]
            i_pulse += 1
            if t_next >= armed_from:
                if gen_photons.random() < p:
                    clicked = True
                    code = ORIGIN_PHOTON
        elif kind == 2:
            next_bg = t_next + _exp_gap_ps(gen_background, bg_rate)
            if t_next >= armed_from:
                clicked = True
                code = ORIGIN_PHOTON
        elif kind == 3:
            next_dark = t_next + _exp_gap_ps(gen_darks, dark_rate)
            if t_next >= armed_from:
                clicked = True
                code = ORIGIN_DARK
        else:
            heappop(rel_heap)
            if t_next >= armed_from:
                clicked = True
                code = ORIGIN_AFTERPULSE

        if clicked:
            recorded = t_next + _jitter_delay_ps(
                gen_jitter, sigma_ps, tail_fraction, tail_scale, latency_ps)
            if recorded < duration_ps:
                times.append(recorded)
                origins.append(code)
            armed_from = recorded + deadtime_ps
            n_traps = _poisson_small(gen_traps, trap_lambda)
            for _ in range(n_traps):
                comp = _pick_component(gen_traps, trap_cum_weights)
                release = t_next + _exp_tau_ps(gen_traps, trap_tau_ps[comp])
                heappush(rel_heap, release)

    return times, origins


def characterize(n_pulses, quiet_ps, bin_ps, span_ps, deadtime_ps,
                 p_click_laser, dark_rate,
                 trap_lambda, trap_cum_weights, trap_tau_ps,
                 sigma_ps, tail_fraction, tail_scale, latency_ps,
                 timeout_ps,
                 gen_darks, gen_photons, gen_traps, gen_jitter):
    """FPGA characterization cycle, adapted to free-running operation.

    Per cycle: wait until no recorded click for quiet_ps, fire one laser
    pulse, look for a recorded click inside the synchronized bin of width
    bin_ps, and conditioned on one, histogram every further recorded click
    for span_ps after the detection.  Returns
    (c_d, c_lp, histogram, live_ps, starved).
    """
    n_bins = span_ps // bin_ps
    hist = [0] * n_bins
    c_d = 0
    c_lp = 0

    rel_heap = [NEVER]
    next_dark = _exp_gap_ps(gen_darks, dark_rate) if dark_rate > 0.0 else NEVER
    armed_from = 0
    last_click = -quiet_ps  # lets the first pulse fire at t = 0
    t_now = 0
    starved = False

    for _ in range(n_pulses):
        cycle_start = t_now
        target = last_click + quiet_ps
        if target < t_now:
            target = t_now
        pending = NEVER  # recorded click that lands at/after the laser fires

        # Quiet wait: process events until a full quiet window elapses.
        while True:
            t_next = NEVER
            kind = 9
            if next_dark < t_next:
                t_next = next_dark
                kind = 3
            if rel_heap[0] < t_next:
                t_next = rel_heap[0]
                kind = 4
            if t_next >= target:
                break

            clicked = False
            if kind == 3:
                next_dark = t_next + _exp_gap_ps(gen_darks, dark_rate)
                if t_next >= armed_from:
                    clicked = True
            else:
                heappop(rel_heap)
                if t_next >= armed_from:
                    clicked = True

            if clicked:
                recorded = t_next + _jitter_delay_ps(
                    gen_jitter, sigma_ps, tail_fraction, tail_scale,
                    latency_ps)
                armed_from = recorded + deadtime_ps
                n_traps = _poisson_small(gen_traps, trap_lambda)
                for _ in range(n_traps):
                    comp = _pick_component(gen_traps, trap_cum_weights)
                    release = t_next + _exp_tau_ps(gen_traps,
                                                   trap_tau_ps[comp])
                    heappush(rel_heap, release)
                last_click = recorded
                if recorded < target:
                    target = recorded + quiet_ps
                    if target - cycle_start > timeout_ps:
                        starved = True
                        return c_d, c_lp, hist, t_now, starved
                else:
                    # Quiet window already satisfied before this click was
                    # recorded; the pulse still fires at target.
                    pending = recorded
                    break

        # Fire the laser at target.
        c_lp += 1
        t_q = target
        bin_end = t_q + bin_ps
        detection = NEVER

        if pending != NEVER:
            if pending < bin_end:
                detection = pending
        else:
            # Laser pulse processed first at t_q (optical beats dark/release
            # on ties); then remaining events inside the bin window.
            if t_q >= armed_from and gen_photons.random() < p_click_laser:
                recorded = t_q + _jitter_delay_ps(
                    gen_jitter, sigma_ps, tail_fraction, tail_scale,
                    latency_ps)
                armed_from = recorded + deadtime_ps
                n_traps = _poisson_small(gen_traps, trap_lambda)
                for _ in range(n_traps):
                    comp = _pick_component(gen_traps, trap_cum_weights)
                    release = t_q + _exp_tau_ps(gen_traps, trap_tau_ps[comp])
                    heappush(rel_heap, release)
                last_click = recorded
                if recorded < bin_end:
                    detection = recorded
            else:
                while True:
                    t_next = NEVER
                    kind = 9
                    if next_dark < t_next:
                        t_next = next_dark
                        kind = 3
                    if rel_heap[0] < t_next:
                        t_next = rel_heap[0]
                        kind = 4
                    if t_next >= bin_end:
                        break
                    clicked = False
                    if kind == 3:
                        next_dark = t_next + _exp_gap_ps(gen_darks, dark_rate)
                        if t_next >= armed_from:
                            clicked = True
                    else:
                        heappop(rel_heap)
                        if t_next >= armed_from:
                            clicked = True
                    if clicked:
                        recorded = t_next + _jitter_delay_ps(
                            gen_jitter, sigma_ps, tail_fraction, tail_scale,
                            latency_ps)
                        armed_from = recorded + deadtime_ps
                        n_traps = _poisson_small(gen_traps, trap_lambda)
                        for _ in range(n_traps):
                            comp = _pick_component(gen_traps,
                                                   trap_cum_weights)
                            release = t_next + _exp_tau_ps(
                                gen_traps, trap_tau_ps[comp])
                            heappush(rel_heap, release)
                        last_click = recorded
                        if recorded < bin_end:
                            detection = recorded
                        break  # deadtime >> bin: no further click possible

        if detection != NEVER:
            c_d += 1
            span_end = detection + span_ps
            while True:
                t_next = NEVER
                kind = 9
                if next_dark < t_next:
                    t_next = next_dark
                    kind = 3
                if rel_heap[0] < t_next:
                    t_next = rel_heap[0]
                    kind = 4
                if t_next >= span_end:
                    break
                clicked = False
                if kind == 3:
                    next_dark = t_next + _exp_gap_ps(gen_darks, dark_rate)
                    if t_next >= armed_from:
                        clicked = True
                else:
                    heappop(rel_heap)
                    if t_next >= armed_from:
                        clicked = True
                if clicked:
                    recorded = t_next + _jitter_delay_ps(
                        gen_jitter, sigma_ps, tail_fraction, tail_scale,
                        latency_ps)
                    armed_from = recorded + deadtime_ps
                    n_traps = _poisson_small(gen_traps, trap_lambda)
                    for _ in range(n_traps):
                        comp = _pick_component(gen_traps, trap_cum_weights)
                        release = t_next + _exp_tau_ps(gen_traps,
                                                       trap_tau_ps[comp])
                        heappush(rel_heap, release)
                    last_click = recorded
                    offset = recorded - detection
                    idx = offset // bin_ps
                    if 0 <= idx < n_bins:
                        hist[idx] += 1
            t_now = span_end
        else:
            t_now = bin_end

    return c_d, c_lp, hist, t_now, starved


def qkd_data(n_frames, frame_ps, slot_ps, deadtime_ps,
             p_click_frame, p_optical_error, dark_rate,
             trap_lambda, trap_cum_weights, trap_tau_ps,
             sigma_ps, tail_fraction, tail_scale, latency_ps,
             gen_darks, gen_photons, gen_traps, gen_jitter, gen_bits):
    """Data-detector half of a time-bin QKD session.

    Each frame carries one pulse, centered in slot 0 or 1 according to a
    random bit; while armed the pulse clicks with p_click_frame.  Frames are
    skipped geometrically between signal clicks so cost scales with clicks,
    not frames.  The receiver decodes each recorded click (minus the known
    latency) to a (frame, slot) pair and counts an error when the decoded
    slot disagrees with that frame's bit.  Returns (n_sifted, n_errors).
    """
    duration_ps = n_frames * frame_ps
    half_slot = slot_ps // 2
    n_sifted = 0
    n_errors = 0

    rel_heap = [NEVER]
    next_dark = _exp_gap_ps(gen_darks, dark_rate) if dark_rate > 0.0 else NEVER
    armed_from = 0

    # Signal candidate state: absolute raw time, frame index, frame bit.
    sig_time = NEVER
    sig_frame = -1
    sig_bit = 0

    use_signal = p_click_frame > 0.0
    log_q = 0.0
    if use_signal and p_click_frame < 1.0:
        log_q = math.log(1.0 - p_click_frame)

    # Draw order at (re)scheduling: geometric skip, frame bit, error flip.
    if use_signal:
        first_frame = 0
        if p_click_frame >= 1.0:
            skip = 0
        else:
            skip = int(math.log(1.0 - gen_photons.random()) / log_q)
        sig_frame = first_frame + skip
        u_bit = gen_bits.random()
        sig_bit = 0 if u_bit < 0.5 else 1
        slot = sig_bit
        if gen_photons.random() < p_optical_error:
            slot = 1 - slot
        sig_time = sig_frame * frame_ps + slot * slot_ps + half_slot

    while True:
        t_next = NEVER
        kind = 9
        if sig_time < t_next:
            t_next = sig_time
            kind = 1
        if next_dark < t_next:
            t_next = next_dark
            kind = 3
        if rel_heap[0] < t_next:
            t_next = rel_heap[0]
            kind = 4
        if t_next >= duration_ps:
            break

        clicked = False
        is_signal = False
        if kind == 1:
            # Scheduled while armed and never stale: always a click.
            clicked = True
            is_signal = True
        elif kind == 3:
            next_dark = t_next + _exp_gap_ps(gen_darks, dark_rate)
            if t_next >= armed_from:
                clicked = True
        else:
            heappop(rel_heap)
            if t_next >= armed_from:
                clicked = True

        if clicked:
            recorded = t_next + _jitter_delay_ps(
                gen_jitter, sigma_ps, tail_fraction, tail_scale, latency_ps)
            armed_from = recorded + deadtime_ps
            n_traps = _poisson_small(gen_traps, trap_lambda)
            for _ in range(n_traps):
                comp = _pick_component(gen_traps, trap_cum_weights)
                release = t_next + _exp_tau_ps(gen_traps, trap_tau_ps[comp])
                heappush(rel_heap, release)

            # Receiver-side decode against the frame's true bit.
            decoded = recorded - latency_ps
            if decoded < 0:
                decoded = 0
            frame_hat = decoded // frame_ps
            slot_hat = (decoded - frame_hat * frame_ps) // slot_ps
            if slot_hat > 1:
                slot_hat = 1
            if is_signal and frame_hat == sig_frame:
                true_bit = sig_bit
            else:
                # Bits of frames without a scheduled signal pulse are drawn
                # lazily; a fair coin either way.
                true_bit = 0 if gen_bits.random() < 0.5 else 1
            n_sifted += 1
            if slot_hat != true_bit:
                n_errors += 1

            # A candidate inside the new dead window is absorbed without an
            # avalanche; redraw from the first fully armed frame.  A candidate
            # beyond it keeps its already-decided frame, bit and flip.
            if use_signal and sig_time < armed_from:
                first_frame = armed_from // frame_ps + 1
                if p_click_frame >= 1.0:
                    skip = 0
                else:
                    skip = int(math.log(1.0 - gen_photons.random()) / log_q)
                sig_frame = first_frame + skip
                u_bit = gen_bits.random()
                sig_bit = 0 if u_bit < 0.5 else 1
                slot = sig_bit
                if gen_photons.random() < p_optical_error:
                    slot = 1 - slot
                sig_time = sig_frame * frame_ps + slot * slot_ps + half_slot

    return n_sifted, n_errors


def qkd_monitor(n_frames, frame_ps, slot_ps, deadtime_ps,
                p_click_frame, dark_rate,
                trap_lambda, trap_cum_weights, trap_tau_ps,
                sigma_ps, tail_fraction, tail_scale, latency_ps,
                gen_darks, gen_photons, gen_traps, gen_jitter):
    """Monitor-detector click counter at one interferometer extremum.

    Same detector mechanics as qkd_data without bit bookkeeping; returns the
    number of clicks over n_frames frames.
    """
    duration_ps = n_frames * frame_ps
    half_slot = slot_ps // 2
    n_clicks = 0

    rel_heap = [NEVER]
    next_dark = _exp_gap_ps(gen_darks, dark_rate) if dark_rate > 0.0 else NEVER
    armed_from = 0

    sig_time = NEVER
    use_signal = p_click_frame > 0.0
    log_q = 0.0
    if use_signal and p_click_frame < 1.0:
        log_q = math.log(1.0 - p_click_frame)
    if use_signal:
        if p_click_frame >= 1.0:
            skip = 0
        else:
            skip = int(math.log(1.0 - gen_photons.random()) / log_q)
        sig_time = skip * frame_ps + half_slot

    while True:
        t_next = NEVER
        kind = 9
        if sig_time < t_next:
            t_next = sig_time
            kind = 1
        if next_dark < t_next:
            t_next = next_dark
            kind = 3
        if rel_heap[0] < t_next:
            t_next = rel_heap[0]
            kind = 4
        if t_next >= duration_ps:
            break

        clicked = False
        if kind == 1:
            clicked = True
        elif kind == 3:
            next_dark = t_next + _exp_gap_ps(gen_darks, dark_rate)
            if t_next >= armed_from:
                clicked = True
        else:
            heappop(rel_heap)
            if t_next >= armed_from:
                clicked = True

        if clicked:
            recorded = t_next + _jitter_delay_ps(
                gen_jitter, sigma_ps, tail_fraction, tail_scale, latency_ps)
            armed_from = recorded + deadtime_ps
            n_traps = _poisson_small(gen_traps, trap_lambda)
            for _ in range(n_traps):
                comp = _pick_component(gen_traps, trap_cum_weights)
                release = t_next + _exp_tau_ps(gen_traps, trap_tau_ps[comp])
                heappush(rel_heap, release)
            n_clicks += 1
            if use_signal and sig_time < armed_from:
                first_frame = armed_from // frame_ps + 1
                if p_click_frame >= 1.0:
                    skip = 0
                else:
                    skip = int(math.log(1.0 - gen_photons.random()) / log_q)
                sig_time = (first_frame + skip) * frame_ps + half_slot

    return n_clicks


# Compiled entry points (identical objects when numba is disabled).
_poisson_small = compile_kernel(_poisson_small)
_exp_gap_ps = compile_kernel(_exp_gap_ps)
_exp_tau_ps = compile_kernel(_exp_tau_ps)
_pick_component = compile_kernel(_pick_component)
_normal_unit = compile_kernel(_normal_unit)
_jitter_delay_ps = compile_kernel(_jitter_delay_ps)
free_run = compile_kernel(free_run)
characterize = compile_kernel(characterize)
qkd_data = compile_kernel(qkd_data)
qkd_monitor = compile_kernel(qkd_monitor)
