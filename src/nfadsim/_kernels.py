"""Simulation kernels: the detector's event loop in plain Python.

The kernels draw nothing but uniforms, one at a time from ``gen.random()``
or, for the laser decisions of ``characterize``, as ndarrays from
``gen.block(n)``, and use only ``math.*`` scalar routines; exponential,
normal, Poisson and categorical variates are derived here by
inversion/rejection.

Event-step core.  Every click goes through one cycle: avalanche, timing
jitter, trap filling, hold-off, re-arm.  ``_next_click(t_limit, ...)``
walks dark candidates and trap releases strictly before ``t_limit`` and
returns the first that finds the detector armed, or ``NEVER``; the ones
that find it held off are consumed.  ``_avalanche_step(det, gens,
rel_heap)``, built once per kernel call, gives ``avalanche(t)``: it turns
a click at raw time ``t`` into its recorded time and pushes the releases
of the traps it fills that come at or after re-arm.  Scheduled events
belong to the caller (pulses and background photons in ``free_run``, the
signal in ``_session``), which passes the next one as the exclusive
``t_limit``.  So at equal times the order is: re-arm (armed means
``t >= armed_from``), scheduled event (a pulse before a background
photon), dark candidate, trap release: the kinds ``engine.EVENT_*``
numbers for the reference simulator.

Each kernel takes its own scalars, then ``det``, the ``(deadtime_ps,
dark_rate, traps, jitter)`` of ``detector._kernel_args``, and ``gens``, a
substream name -> uniform source map such as ``RandomStream.uniforms``
yields; it unpacks both at entry.  Draw contract, shared with
``detector.simulate_reference``: per click, the jitter delay, then the trap
count, then one (component, release delay) pair per trap.  A dark or
background candidate draws the next gap when it is processed, armed or
not; a pulse draws its click decision only while armed.

Skip rules.  Work that cannot produce a click is skipped exactly, so the
draw contract above and every output bit stay those of the plain event
loop:
- ``avalanche`` keeps a release earlier than re-arm off the heap: popped,
  it would draw nothing and find the detector held off.  A release uniform
  below ``_skip_below`` is drawn but not turned into a delay: the delay is
  under the hold-off, so the release comes before re-arm >= t + hold-off.
- After each click, ``free_run`` draws the next gaps of the held-off dark
  and background candidates in tight loops, stopping at the duration so
  each substream ends where the event loop leaves it.  It steps past one
  held-off pulse with a single test and past more by bisection.
- In ``characterize``, an armed cycle whose pulse misses, with no dark or
  release due inside its bin, is followed at once by the next cycle at the
  bin's end.  Such an idle run reads its laser decisions from a block of
  photon draws and jumps to the first one below ``p_click_laser``; with
  none, it ends after k + 1 misses, k = min(cycles until the next dark or
  release is due, pulses left), where the cycle-by-cycle loop would stop.
  Draws it did not use go back to the source with ``unread``.

Time is integer picoseconds in Python ints, which do not wrap: a gap or a
frame skip beyond ``NEVER`` stays exact and is never reached.  Only an
infinite gap has no int; ``detector`` rejects the rates that would draw one.
"""

import math
from bisect import bisect_left
from heapq import heappop, heappush

from .params import ORIGIN_AFTERPULSE, ORIGIN_DARK, ORIGIN_PHOTON, PS_PER_S

# Far future sentinel; beyond any simulated time but safely below 2**63.
# It also sits at the bottom of every release heap, so the heap is never
# empty and its top can be compared without a length test.
NEVER = 1 << 62

# Laser decisions ``characterize`` reads per photon block.
_LASER_BLOCK = 1024


def _exp_gap_ps(gen, rate_per_s):
    # rate > 0 required by callers.
    return int(-math.log(1.0 - gen.random()) / rate_per_s * PS_PER_S)


def _skip_below(deadtime_ps, tau_ps):
    """Release uniforms u below this have -ln(1 - u) * tau_ps < deadtime_ps,
    rounding included.  At tau_ps = 0 or beyond 1e6 hold-offs the rounding
    of 1 - u could outgrow the margin: nothing is skipped there."""
    if 0.0 < tau_ps < deadtime_ps * 1e6:
        return -math.expm1(-deadtime_ps / tau_ps) * (1.0 - 1e-9)
    return 0.0


def _avalanche_step(det, gens, rel_heap):
    """One detector's click step: ``avalanche(t)``, for a click at raw time
    t, draws the jitter delay, then the trap count (Knuth's product of
    uniforms), then one (component, exponential delay) pair per trap, and
    returns the recorded time.  A release at t + delay goes onto rel_heap
    unless it falls before re-arm at recorded + deadtime_ps."""
    deadtime_ps, _, (lam, cum_weights, tau_ps), jitter = det
    sigma_ps, tail_fraction, tail_scale, latency_ps = jitter
    jitter_random, trap_random = gens["jitter"].random, gens["traps"].random
    log, sqrt, push = math.log, math.sqrt, heappush
    limit = math.exp(-lam)
    last = len(cum_weights) - 1
    skip_below = [_skip_below(deadtime_ps, tau) for tau in tau_ps]

    def avalanche(t):
        # Jitter: Gaussian core (mode at latency) + one-sided exponential tail.
        if jitter_random() < tail_fraction:
            x = -tail_scale * log(1.0 - jitter_random())
        else:
            # Marsaglia polar method; the second variate is discarded so
            # the draw count depends only on the rejection path.
            while True:
                a = 2.0 * jitter_random() - 1.0
                b = 2.0 * jitter_random() - 1.0
                s = a * a + b * b
                if 0.0 < s < 1.0:
                    break
            x = a * sqrt(-2.0 * log(s) / s)
        delay = latency_ps + int(x * sigma_ps)
        recorded = t + delay if delay > 0 else t
        if lam > 0.0:
            n_traps = 0
            p = trap_random()
            while p > limit:
                n_traps += 1
                p *= trap_random()
            armed_from = recorded + deadtime_ps
            for _ in range(n_traps):
                u = trap_random()
                comp = 0
                while comp < last and u >= cum_weights[comp]:
                    comp += 1
                u = trap_random()
                if u >= skip_below[comp]:
                    release = t + int(-log(1.0 - u) * tau_ps[comp])
                    if release >= armed_from:
                        push(rel_heap, release)
        return recorded

    return avalanche


def _next_click(t_limit, next_dark, armed_from, rel_heap, dark_rate,
                gen_darks):
    """First armed dark candidate or trap release strictly before t_limit.

    Returns (t, origin, next_dark) with t = NEVER when none arrives in
    time.  A dark candidate goes before a release at the same time.
    """
    while True:
        t = rel_heap[0]
        if next_dark <= t:
            t = next_dark
            if t >= t_limit:
                return NEVER, ORIGIN_DARK, next_dark
            next_dark = t + _exp_gap_ps(gen_darks, dark_rate)
            if t >= armed_from:
                return t, ORIGIN_DARK, next_dark
        else:
            if t >= t_limit:
                return NEVER, ORIGIN_AFTERPULSE, next_dark
            heappop(rel_heap)
            if t >= armed_from:
                return t, ORIGIN_AFTERPULSE, next_dark


def free_run(duration_ps, bg_rate, pulse_times_ps, pulse_p_click, det, gens):
    """Free-running detector over [0, duration): returns the click stream.

    Dark and background candidates are homogeneous Poisson processes whose
    candidates are generated regardless of armed state and thinned by it.
    Pulses click with their per-pulse probability while armed.  Every click
    is recorded at raw time + jitter delay; the detector re-arms at
    recorded time + deadtime.  Trap releases while disarmed are lost.
    The pulse arguments are any indexable sequences (lists, or memoryviews
    of int64 and float64 arrays), times sorted ascending.
    """
    deadtime_ps, dark_rate, _, _ = det
    gen_darks, gen_photons, gen_background = (
        gens["darks"], gens["photons"], gens["background"])
    log, dark_random, bg_random = (math.log, gen_darks.random,
                                   gen_background.random)
    times, origins = [], []

    rel_heap = [NEVER]
    avalanche = _avalanche_step(det, gens, rel_heap)
    next_dark = _exp_gap_ps(gen_darks, dark_rate) if dark_rate > 0.0 else NEVER
    next_bg = _exp_gap_ps(gen_background, bg_rate) if bg_rate > 0.0 else NEVER
    i_pulse = 0
    n_pulses = len(pulse_times_ps)
    armed_from = 0  # armed when t >= armed_from

    while True:
        t_sched = next_bg
        is_pulse = i_pulse < n_pulses and pulse_times_ps[i_pulse] <= t_sched
        if is_pulse:
            t_sched = pulse_times_ps[i_pulse]
        t, origin, next_dark = _next_click(
            t_sched if t_sched < duration_ps else duration_ps,
            next_dark, armed_from, rel_heap, dark_rate, gen_darks)
        if t == NEVER:
            if t_sched >= duration_ps:
                break
            t = t_sched
            origin = ORIGIN_PHOTON
            if is_pulse:
                p = pulse_p_click[i_pulse]
                i_pulse += 1
                if t < armed_from or gen_photons.random() >= p:
                    continue
            else:
                next_bg = t + _exp_gap_ps(gen_background, bg_rate)
                if t < armed_from:
                    continue

        recorded = avalanche(t)
        if recorded < duration_ps:
            times.append(recorded)
            origins.append(origin)
        armed_from = recorded + deadtime_ps

        # Held-off candidates draw only their next gap and held-off pulses
        # draw nothing: skip them here.  Stopping at duration_ps leaves each
        # substream where the event loop would.
        stop = armed_from if armed_from < duration_ps else duration_ps
        while next_dark < stop:
            next_dark += int(-log(1.0 - dark_random()) / dark_rate * PS_PER_S)
        while next_bg < stop:
            next_bg += int(-log(1.0 - bg_random()) / bg_rate * PS_PER_S)
        if i_pulse < n_pulses and pulse_times_ps[i_pulse] < armed_from:
            i_pulse += 1
            if i_pulse < n_pulses and pulse_times_ps[i_pulse] < armed_from:
                i_pulse = bisect_left(pulse_times_ps, armed_from, i_pulse)

    return times, origins


def characterize(n_pulses, quiet_ps, bin_ps, span_ps, p_click_laser,
                 timeout_ps, det, gens):
    """FPGA characterization cycle, adapted to free-running operation.

    Per cycle: wait until no recorded click for quiet_ps, fire one laser
    pulse, look for a recorded click inside the synchronized bin of width
    bin_ps, and conditioned on one, histogram every further recorded click
    for span_ps after the detection.  Returns
    (c_d, c_lp, histogram, live_ps, starved).
    """
    deadtime_ps, dark_rate, _, _ = det
    gen_darks, photons = gens["darks"], gens["photons"]
    n_bins = span_ps // bin_ps
    hist = [0] * n_bins
    c_d = c_lp = 0

    rel_heap = [NEVER]
    avalanche = _avalanche_step(det, gens, rel_heap)
    next_dark = _exp_gap_ps(gen_darks, dark_rate) if dark_rate > 0.0 else NEVER
    armed_from = 0
    last_click = -quiet_ps  # lets the first pulse fire at t = 0
    t_now = 0
    # Laser decisions: a block of photon draws, the positions of its hits
    # (draws below p_click_laser) closed by NEVER, and the next one to read.
    block = photons.block(0)
    hits, i_hit, pos = [NEVER], 0, 0

    while c_lp < n_pulses:
        cycle_start = t_now
        target = last_click + quiet_ps
        if target < t_now:
            target = t_now
        pending = NEVER  # recorded click that lands at/after the laser fires

        # Quiet wait: process events until a full quiet window elapses.
        # The loop tests stand in for a _next_click call that would find
        # nothing, which most cycles of a cold detector do.
        while next_dark < target or rel_heap[0] < target:
            t, _, next_dark = _next_click(target, next_dark, armed_from,
                                          rel_heap, dark_rate, gen_darks)
            if t == NEVER:
                break
            last_click = avalanche(t)
            armed_from = last_click + deadtime_ps
            if last_click >= target:
                # Quiet window already satisfied before this click was
                # recorded; the pulse still fires at target.
                pending = last_click
                break
            target = last_click + quiet_ps
            if target - cycle_start > timeout_ps:
                photons.unread(block[pos:])
                return c_d, c_lp, hist, t_now, True

        c_lp += 1
        bin_end = target + bin_ps
        detection = NEVER
        if pending != NEVER:
            if pending < bin_end:
                detection = pending
        else:
            # The laser pulse goes first at target (a scheduled event);
            # otherwise the first armed dark or release inside the bin.
            # Deadtime >> bin: at most one click either way.
            t = NEVER
            due = next_dark if next_dark < rel_heap[0] else rel_heap[0]
            if target >= armed_from:
                # Idle run: while the pulse misses and nothing else is due
                # inside its bin, the next cycle fires at this bin's end
                # with no quiet wait.  Up to the next due event or the
                # budget, k more cycles can follow this one, one draw each:
                # the run jumps to its first hit.
                k = n_pulses - c_lp
                if due < bin_end + k * bin_ps:  # due >= target: k >= 0
                    k = (due - bin_end) // bin_ps + 1
                while hits[i_hit] - pos > k and pos + k >= len(block):
                    # The draws left in the block all miss and the run goes
                    # on: read them again with the next ones.
                    photons.unread(block[pos:])
                    block = photons.block(min(len(block) - pos + _LASER_BLOCK,
                                              n_pulses - c_lp + 1))
                    hits = (block < p_click_laser).nonzero()[0].tolist()
                    hits.append(NEVER)
                    i_hit = pos = 0
                skip = hits[i_hit] - pos
                if skip <= k:                   # a hit after skip misses
                    t = target + skip * bin_ps
                    i_hit += 1
                else:                           # k + 1 misses
                    skip = k
                pos += skip + 1
                c_lp += skip
                target += skip * bin_ps
                bin_end = target + bin_ps
            if t == NEVER and due < bin_end:
                t, _, next_dark = _next_click(bin_end, next_dark, armed_from,
                                              rel_heap, dark_rate, gen_darks)
            if t != NEVER:
                last_click = avalanche(t)
                armed_from = last_click + deadtime_ps
                if last_click < bin_end:
                    detection = last_click

        if detection == NEVER:
            t_now = bin_end
            continue
        c_d += 1
        t_now = detection + span_ps
        while next_dark < t_now or rel_heap[0] < t_now:
            t, _, next_dark = _next_click(t_now, next_dark, armed_from,
                                          rel_heap, dark_rate, gen_darks)
            if t == NEVER:
                break
            last_click = avalanche(t)
            armed_from = last_click + deadtime_ps
            idx = (last_click - detection) // bin_ps
            if 0 <= idx < n_bins:
                hist[idx] += 1

    photons.unread(block[pos:])
    return c_d, c_lp, hist, t_now, False


def _session(n_frames, frame_ps, slot_ps, p_click_frame, p_optical_error,
             det, gens, decode):
    """One detector over a QKD session: returns (n_clicks, n_errors).

    Frames are skipped geometrically between signal clicks so cost scales
    with clicks, not frames.  With decode, each recorded click (minus the
    known latency) is decoded to a (frame, slot) pair and counted as an
    error when the slot disagrees with that frame's bit.
    """
    deadtime_ps, dark_rate, _, jitter = det
    gen_darks = gens["darks"]
    photon_random = gens["photons"].random
    bits_random = gens["bits"].random if decode else None
    log = math.log
    duration_ps = n_frames * frame_ps
    latency_ps = jitter[3]
    n_clicks = n_errors = 0

    rel_heap = [NEVER]
    avalanche = _avalanche_step(det, gens, rel_heap)
    next_dark = _exp_gap_ps(gen_darks, dark_rate) if dark_rate > 0.0 else NEVER
    armed_from = 0

    # A p that leaves 1 - p == 1 (p <= 2**-54) expects fewer than 0.1 signal
    # clicks in the NEVER // frame_ps frames of the whole picosecond grid,
    # and its log(1 - p) is 0: it is run as no signal at all.
    use_signal = 1.0 - p_click_frame < 1.0
    log_q = log(1.0 - p_click_frame) if p_click_frame < 1.0 else 0.0
    # sig_time -1: the first signal click is drawn before the first event.
    sig_time = -1 if use_signal else NEVER
    sig_frame = sig_bit = 0

    while True:
        # A signal click inside the dead window is absorbed without an
        # avalanche; redraw from the first fully armed frame.  One beyond it
        # keeps its already-decided frame, bit and flip.  Draw order: the
        # geometric frame skip, then (decoding only) the bit and the flip.
        if use_signal and sig_time < armed_from:
            sig_frame = armed_from // frame_ps + 1 if n_clicks else 0
            if log_q < 0.0:
                sig_frame += int(log(1.0 - photon_random()) / log_q)
            slot = 0
            if decode:
                sig_bit = 0 if bits_random() < 0.5 else 1
                slot = sig_bit
                if photon_random() < p_optical_error:
                    slot = 1 - slot
            sig_time = sig_frame * frame_ps + slot * slot_ps + slot_ps // 2

        # As in characterize, the tests skip a _next_click call that would
        # find nothing: most clicks of a lossy link are signal clicks.
        t_limit = sig_time if sig_time < duration_ps else duration_ps
        t = NEVER
        if next_dark < t_limit or rel_heap[0] < t_limit:
            t, _, next_dark = _next_click(t_limit, next_dark, armed_from,
                                          rel_heap, dark_rate, gen_darks)
        is_signal = t == NEVER
        if is_signal:
            if sig_time >= duration_ps:
                break
            # Scheduled while armed and never stale: always a click.
            t = sig_time
        recorded = avalanche(t)
        armed_from = recorded + deadtime_ps
        n_clicks += 1

        if decode:
            # Receiver-side decode against the frame's true bit.
            decoded = recorded - latency_ps if recorded > latency_ps else 0
            frame_hat = decoded // frame_ps
            slot_hat = 1 if decoded - frame_hat * frame_ps >= slot_ps else 0
            if is_signal and frame_hat == sig_frame:
                true_bit = sig_bit
            else:
                # Bits of frames without a scheduled signal pulse are drawn
                # lazily; a fair coin either way.
                true_bit = 0 if bits_random() < 0.5 else 1
            if slot_hat != true_bit:
                n_errors += 1

    return n_clicks, n_errors


def qkd_data(n_frames, frame_ps, slot_ps, p_click_frame, p_optical_error,
             det, gens):
    """Data-detector half of a time-bin QKD session.

    Each frame carries one pulse, centered in slot 0 or 1 according to a
    random bit; while armed the pulse clicks with p_click_frame.  Returns
    (n_sifted, n_errors).
    """
    return _session(n_frames, frame_ps, slot_ps, p_click_frame,
                    p_optical_error, det, gens, True)


def qkd_monitor(n_frames, frame_ps, slot_ps, p_click_frame, det, gens):
    """Monitor-detector click counter at one interferometer extremum.

    Same detector mechanics as qkd_data without bit bookkeeping; returns the
    number of clicks over n_frames frames.  It draws no bit, so gens needs
    no "bits" source.
    """
    return _session(n_frames, frame_ps, slot_ps, p_click_frame, 0.0, det,
                    gens, False)[0]
