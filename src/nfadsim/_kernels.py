"""Simulation kernels: the detector's event loop in plain Python.

The kernels draw nothing but uniforms, and every draw is read ahead from
its substream's numpy generator by a ``_ReadAhead``, which owns that
generator's position for the kernel call.  Exponential, normal, Poisson
and categorical variates are derived from the uniforms in the scalar
loop's order and arithmetic.  A block of ``gen.random`` draws is parsed with
numpy into the values of the events it holds whole, in draw order: per
click the jitter delay and the trap release delays (``_parse_jitter``,
``_parse_traps``), per signal click of a session its frame skip and flip
(``_parse_schedule``), the bits, ``free_run``'s pulse decisions one per
draw, ``characterize``'s laser decisions as runs of misses
(``_parse_laser``) and the dark gaps a block at a time, which
``_DarkCandidates`` sums into candidate times.  On every exit a kernel
closes its readers, and each rewinds its generator past the draws it did
not serve, so every substream ends where one-at-a-time draws leave it.

The parse keeps every byte.  Comparisons (branch, polar acceptance,
Knuth's product, component, flip, bit) and the IEEE-rounded products,
quotients and square roots give numpy the scalar loop's values; only
``np.log`` may differ from ``math.log``, by an ulp or so.  A value
truncated after a log (dark gap, jitter delay, release delay, frame skip)
that a 64-ulp error could move to another int (``_LOG_SLACK``) is redone
with ``math.log``, and a value past 2**61 stays a Python int.  On an Intel
Xeon (Python 3.11, numpy 2.4) a block of 1024 dark gaps costs about 30 ns
a gap this way, 105 ns with Python-int sums after ``np.log`` and 220 to
250 ns with ``math.log`` per gap, which is no faster than drawing each gap
as its candidate comes up.  A 4096-uniform block costs about 160 ns a
jitter delay and 170 ns a click's traps, against about 1.75 us a click for
both drawn one at a time; an event is a C-level ``chain.__next__`` away.
Of a block's trap parse, Knuth's count (running products over whole
slices) takes about 30% and the walk over the event starts (four events
a step) about 25%.

Event-step core.  Every click goes through one cycle: avalanche, timing
jitter, trap filling, hold-off, re-arm.  ``_next_click(t_limit,
armed_from, rel_heap, darks)`` walks dark candidates and trap releases
strictly before ``t_limit`` and returns the first that finds the detector
armed, or ``NEVER``; the ones that find it held off are consumed.
``_avalanche_step(det, gens, rel_heap)``, built once per kernel call,
gives ``avalanche(t)``: it turns a click at raw time ``t`` into its
recorded time and pushes the releases of the traps it fills that come at
or after re-arm.  Scheduled events belong to the caller (pulses in
``free_run``, the signal in ``_session``), which passes the next one as
the exclusive ``t_limit``.  So at equal times the order is: re-arm (armed
means ``t >= armed_from``), scheduled event, dark candidate, trap release:
the kinds ``engine.EVENT_*`` number for the reference simulator.

Each kernel takes its own scalars, then ``det``, the ``(deadtime_ps,
dark_rate, traps, jitter)`` of ``detector._kernel_args``, and ``gens``, a
substream name -> numpy Generator map such as ``RandomStream.generators``
gives; it unpacks both at entry.  Outputs are plain Python containers:
``free_run`` returns the recorded times as an ``array("q")`` of ps and
the origin codes as a ``bytearray``, 9 bytes per click, which
``detector.simulate`` reads with ``np.frombuffer``; ``characterize``
returns ints, its histogram as a list of ints and a bool; ``qkd_data``
returns two ints and ``qkd_monitor`` one.  Draw contract, shared with
``detector.simulate_reference``: per click, the jitter delay, then the trap
count, then one (component, release delay) pair per trap.  A dark
candidate draws the next gap when it is processed, armed or not; a pulse
draws its click decision only while armed.  A session's signal click draws
its frame skip, then (decoding only) the bit and the flip.  Each substream
serves one mechanism alone, which is what lets it be read ahead.

Skip rules.  Work that cannot produce a click is skipped exactly, so the
draw contract above and every output bit stay those of the plain event
loop:
- ``avalanche`` keeps a release earlier than re-arm off the heap: popped,
  it would draw nothing and find the detector held off.  A release uniform
  below ``_skip_below`` is drawn but not turned into a delay: the delay is
  under the hold-off, so the release comes before re-arm >= t + hold-off.
- Held-off dark candidates are skipped by bisection: ``_next_click``
  consumes the read-ahead candidates before min(armed_from, t_limit) in
  one step.  ``free_run`` steps past one held-off pulse with a single test
  and past more by bisection.
- In ``characterize``, an armed cycle whose pulse misses, with no dark or
  release due inside its bin, is followed at once by the next cycle at the
  bin's end.  Such an idle run reads its laser decisions as runs of
  misses and jumps to the first one below ``p_click_laser``; with none,
  it ends after k + 1 misses, k = min(cycles until the next dark or
  release is due, pulses left), where the cycle-by-cycle loop would stop.
  The draws of a run it used in part go back with the reader's close.

Time is integer picoseconds in Python ints, which do not wrap: a gap or a
frame skip beyond ``NEVER`` stays exact and is never reached.  Only an
infinite gap has no int; ``detector`` rejects the rates that would draw one.
"""

import math
from bisect import bisect_left
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, chain
from operator import length_hint

import numpy as np

from .params import ORIGIN_AFTERPULSE, ORIGIN_DARK, ORIGIN_PHOTON, PS_PER_S

# Far future sentinel; beyond any simulated time but safely below 2**63.
# It also sits at the bottom of every release heap, so the heap is never
# empty and its top can be compared without a length test.
NEVER = 1 << 62

# Fresh uniforms per read-ahead block: the first block, doubled up to the
# last (see _ReadAhead).
_FIRST_BLOCK = 1024
_LAST_BLOCK = 4096
# PCG64's period: advancing by -n modulo it steps back n outputs.
_PCG64_PERIOD = 1 << 128
# Relative slack around a gap inside which np.log's error could move its
# truncation: 64 ulps of a double.
_LOG_SLACK = 2.0 ** -46


def _exp_gap_ps(u, rate_per_s):
    """The exponential gap in ps that uniform u draws at rate_per_s > 0."""
    return int(-math.log(1.0 - u) / rate_per_s * PS_PER_S)


def _skip_below(deadtime_ps, tau_ps):
    """Release uniforms u below this have -ln(1 - u) * tau_ps < deadtime_ps,
    rounding included.  At tau_ps = 0 or beyond 1e6 hold-offs the rounding
    of 1 - u could outgrow the margin: nothing is skipped there."""
    if 0.0 < tau_ps < deadtime_ps * 1e6:
        return -math.expm1(-deadtime_ps / tau_ps) * (1.0 - 1e-9)
    return 0.0


def _truncated(v, exact):
    """int(x) for each x of v, which was computed with np.log: an int64
    array, or an object array of Python ints where a value reaches 2**61.
    Where np.log's error could move x across an int, the value is
    exact(j), row j computed the scalar loop's way with math.log."""
    if not len(v) or float(np.abs(v).max()) < 2.0 ** 61:
        ints = v.astype(np.int64)
    else:   # also raises the scalar loop's error on inf or nan
        ints = np.array([int(x) for x in v.tolist()], dtype=object)
    for j in (np.trunc(v * (1.0 - _LOG_SLACK))
              != np.trunc(v * (1.0 + _LOG_SLACK))).nonzero()[0].tolist():
        ints[j] = exact(j)
    return ints


def _event_starts(end, n):
    """The starts of the events a block of n uniforms holds whole, the
    first at 0, as an int array: an event at i ends at end[i], past n where
    the block cuts it.

    The walk steps four events at a time: g is end with a cut at n + 1,
    and n and n + 1 step to themselves.  From each step s of g4 = g2[g2],
    g2 = g[g], the events s, g(s), g2(s) and g(g2(s)) are gathered, and
    those past the block's last whole event are dropped."""
    g = np.empty(n + 2, np.intp)
    np.minimum(end[:n], n + 1, out=g[:n])
    g[n:] = n, n + 1
    g2 = g[g]
    walk = memoryview(g2[g2])   # Python ints without a list of all n
    steps = []
    i = 0
    while i < n:
        steps.append(i)
        i = walk[i]
    s = np.empty((len(steps), 4), np.intp)
    s[:, 0] = steps
    s[:, 1] = g[s[:, 0]]
    s[:, 2] = g2[s[:, 0]]
    s[:, 3] = g[s[:, 2]]
    s = s.ravel()
    return s[(s < n) & (g[s] <= n)]


def _parse_jitter(u, jitter):
    """The jitter delays, clamped at 0, of the variates a block holds whole,
    and the draw count after each.  A variate draws its branch uniform,
    then the tail's one uniform or polar pairs up to the first inside the
    unit circle."""
    sigma_ps, tail_fraction, tail_scale, latency_ps = jitter
    n = len(u)
    # s[j] = a*a + b*b for the polar pair (a, b) = 2 * u[j:j + 2] - 1.
    s = 2.0 * u
    s -= 1.0
    s *= s
    s[:-1] += s[1:]
    # pair[j]: the first of the pairs j, j + 2, ... inside the circle, or
    # n.  A core variate at i ends 2 past pair[i + 1], a tail one at i + 2.
    pair = np.arange(n + 1)
    pair[:-2][(s[:-1] <= 0.0) | (s[:-1] >= 1.0)] = n
    pair[-2:] = n
    for half in (pair[0::2], pair[1::2]):
        np.minimum.accumulate(half[::-1], out=half[::-1])
    end = pair[1:]
    end += 2
    tail = u < tail_fraction
    end[tail] = tail.nonzero()[0] + 2
    starts = _event_starts(end, n)
    ends = end[starts]
    tail = tail[starts]

    # A tail variate's uniform, or a core variate's pair (a, b), ends at
    # its end: the argument of log is 1 - u or s.
    at = ends - 1
    a = 2.0 * u[at - 1]
    a -= 1.0
    arg = np.where(tail, 1.0 - u[at], s[at - 1])
    x = np.log(arg)
    core = x * -2.0
    core /= arg
    np.sqrt(core, out=core)
    core *= a
    x *= -tail_scale
    x = np.where(tail, x, core)
    x *= sigma_ps

    def exact(j):
        if tail[j]:
            x = -tail_scale * math.log(float(arg[j]))
        else:
            x = float(a[j]) * math.sqrt(
                -2.0 * math.log(float(arg[j])) / float(arg[j]))
        return int(x * sigma_ps)

    delays = _truncated(x, exact)
    if not -2 ** 61 < latency_ps < 2 ** 61:
        delays = delays.astype(object)
    delays += latency_ps
    np.maximum(delays, 0, out=delays)
    return delays.tolist(), ends


def _parse_traps(u, traps, skip_below):
    """Per click whose draws a block holds whole, the release delays of its
    traps whose uniform is not below ``skip_below``, as a tuple, and the
    draw count after each click.  A click draws Knuth's product of
    uniforms for its trap count n, then a (component, delay) pair per
    trap: 1 + n + 2n uniforms.  At lam = 0 a click draws nothing."""
    lam, cum_weights, tau_ps = traps
    n = len(u)
    if not lam > 0.0:
        return [()] * n, np.zeros(n, np.intp)
    limit = math.exp(-lam)
    # count[i]: the trap count of a click whose draws start at i.  p[i] is
    # the product of u[i:i + k + 1], taken left to right at every i at
    # once; a product at or below limit stays there, so its count stops.
    # A product that runs past the block counts a trap a draw, so its
    # click's draws end past the block.
    p = u.copy()
    more = p > limit
    count = more.astype(np.intp)
    k = 1
    while more.any():
        p[:n - k] *= u[k:]
        more = p[:n - k] > limit
        count[:n - k] += more
        k += 1
    end = count * 3
    end += 1
    end += np.arange(n)
    starts = _event_starts(end, n)
    count = count[starts]
    releases = [()] * len(starts)
    n_traps = int(count.sum())
    if n_traps:
        # Each trap's component uniform; its delay uniform comes next.
        click = np.repeat(np.arange(len(starts)), count)
        first = count.cumsum()
        first -= count
        first *= -2
        first += starts
        first += count
        at = np.arange(1, 2 * n_traps + 1, 2)
        at += np.repeat(first, count)
        comp = np.searchsorted(np.array(cum_weights[:-1]), u[at],
                               side="right")
        u = u[at + 1]
        kept = (u >= np.array(skip_below)[comp]).nonzero()[0]
        arg = 1.0 - u[kept]
        tau = np.array(tau_ps)[comp[kept]]
        x = np.log(arg)
        np.negative(x, out=x)
        x *= tau
        delays = _truncated(x, lambda j: int(
            -math.log(float(arg[j])) * float(tau[j]))).tolist()
        for i, delay in zip(click[kept].tolist(), delays):
            releases[i] += (delay,)
    return releases, end[starts]


def _parse_schedule(u, log_q, p_flip, decode):
    """Per signal click whose draws a block holds whole, 2 * frame skip +
    flip, and the draw count after each.  A click draws its frame skip
    int(ln(1 - u) / log_q) unless log_q = 0 (p_click = 1: the skip is 0),
    then, decoding only, its flip, u < p_flip."""
    stride = (log_q < 0.0) + decode
    n = len(u)
    if not stride:
        return [0] * n, np.zeros(n, np.intp)
    m = n // stride
    skip2 = np.zeros(m, np.int64)
    if log_q < 0.0:
        arg = 1.0 - u[0:m * stride:stride]
        x = np.log(arg)
        x /= log_q
        skip2 = _truncated(x, lambda j: int(
            math.log(float(arg[j])) / log_q))
        skip2 *= 2
    if decode:
        skip2 += u[stride - 1::stride][:m] < p_flip
    return skip2.tolist(), np.arange(stride, m * stride + 1, stride)


def _parse_draws(u):
    """Each uniform of a block as a float, one draw each."""
    return u.tolist(), np.arange(1, len(u) + 1)


def _parse_bits(u):
    """The bits u >= 0.5 of a block, one draw each."""
    return ((u >= 0.5).view(np.int8).tolist(),
            np.arange(1, len(u) + 1))


def _parse_laser(u, p_click):
    """Laser decisions as runs, each a hit (u < p_click) and the misses
    before it, given as its draw count, then the misses after the last hit
    as minus their count, and the draw count after each run."""
    n = len(u)
    ends = (u < p_click).nonzero()[0]
    ends += 1
    runs = np.diff(ends, prepend=0).tolist()
    last = int(ends[-1]) if len(ends) else 0
    if last < n:
        runs.append(last - n)
        ends = np.append(ends, n)
    return runs, ends


def _parse_gaps(u, rate):
    """A block's dark gaps ``int(-ln(1 - u) / rate * PS_PER_S)``, drawn
    ``_exp_gap_ps``'s way, as one value: an int64 or object array."""
    # np.log may differ from math.log by an ulp or so (0.35% of draws): a
    # gap that such an error could truncate to another int is computed
    # again with math.log.  Below about 0.015 cps most gaps pass 2**46 ps
    # and are redone; a kernel call draws few there.
    x = np.log(1.0 - u)
    np.negative(x, out=x)
    x /= rate
    x *= PS_PER_S
    return [_truncated(x, lambda j: _exp_gap_ps(float(u[j]), rate))], (len(u),)


def _rewind(gen, n):
    """Step gen back over its last n doubles, one 64-bit output each."""
    bits = gen.bit_generator
    # advance() also clears the half-used 32-bit output; keep it.
    spare = bits.state
    bits.advance(-n % _PCG64_PERIOD)
    if spare["has_uint32"]:
        state = bits.state
        state["has_uint32"] = spare["has_uint32"]
        state["uinteger"] = spare["uinteger"]
        bits.state = state


class _ReadAhead:
    """One substream's per-event values, read ahead from its generator.

    ``parse(u)`` gives the values of the events a block of uniforms holds
    whole, in draw order, and the draw count after each.  A block is the
    draws the last one did not serve, filled to n with ``gen.random``, n =
    ``_FIRST_BLOCK`` doubling up to ``_LAST_BLOCK`` (past it while a block
    holds no whole event): events that draw nothing reuse one block.  A
    parse pays about 60 us of fixed numpy calls, so a short call's blocks
    start at 1024 uniforms: a session's monitor call, about 900 clicks,
    reads two or three blocks a substream.  A first block of 4096 would
    cost ``simulate`` over 4 bytes a pulse of peak memory.
    ``next()``, a C-level ``chain.__next__``, serves the values one at a
    time.  The reader owns the generator's position: ``close(back)``
    rewinds it past every draw not served, and ``back`` more, so it ends
    where one-at-a-time draws would have left it.  Nothing is drawn before
    the first ``next()``.  The reader adds itself to ``readers``, the
    kernel call's list of readers to close on every exit.
    """

    __slots__ = ("next", "_gen", "_parse", "_u", "_ends", "_values")

    def __init__(self, gen, parse, readers):
        self._gen, self._parse = gen, parse
        self._u, self._ends, self._values = np.empty(0), (), iter(())
        self.next = chain.from_iterable(self._blocks()).__next__
        readers.append(self)

    def _rest(self):
        """The block's uniforms after the last value served."""
        served = len(self._ends) - length_hint(self._values)
        return self._u[self._ends[served - 1]:] if served else self._u

    def _blocks(self):
        n = _FIRST_BLOCK
        while True:
            u = self._rest()
            u = np.concatenate((u, self._gen.random(max(n - len(u), 0))))
            self._u, self._ends = u, ()
            values, ends = self._parse(self._u)
            self._ends, self._values = ends, iter(values)
            n = min(2 * n, _LAST_BLOCK) if len(ends) else 2 * n
            yield self._values

    def close(self, back=0):
        rewind = len(self._rest()) + back
        if rewind:
            _rewind(self._gen, rewind)
        # Closed, the reader holds nothing, so a second close rewinds
        # nothing; and the chain's generator, which holds self, goes now.
        self._u, self._ends, self._values = np.empty(0), (), iter(())
        self.next = None


def _avalanche_step(det, gens, rel_heap, readers):
    """One detector's click step: ``avalanche(t)``, for a click at raw time
    t, takes the jitter delay, then the release delays of the traps it
    fills, and returns the recorded time.  A release at t + delay goes onto
    rel_heap unless it falls before re-arm at recorded + deadtime_ps.  The
    delays are read ahead from the "jitter" and "traps" generators by two
    readers added to ``readers``."""
    deadtime_ps, _, traps, jitter = det
    skip_below = [_skip_below(deadtime_ps, tau) for tau in traps[2]]
    delays = _ReadAhead(gens["jitter"], partial(_parse_jitter,
                                                jitter=jitter), readers)
    releases = _ReadAhead(gens["traps"], partial(
        _parse_traps, traps=traps, skip_below=skip_below), readers)
    next_delay, next_releases, push = delays.next, releases.next, heappush

    def avalanche(t):
        recorded = t + next_delay()
        filled = next_releases()
        if filled:
            armed_from = recorded + deadtime_ps
            for delay in filled:
                if t + delay >= armed_from:
                    push(rel_heap, t + delay)
        return recorded

    return avalanche


class _DarkCandidates:
    """The dark-candidate process of one kernel call, read ahead.

    ``times[i]``, also kept as ``next``, is the next candidate's time; the
    candidates before it are consumed.  Times are exact running sums of
    the gaps ``_parse_gaps`` gives, one block at a time.  ``close`` rewinds
    the generator past the candidates after ``next``, so it ends where
    one-at-a-time draws would have left it.  At rate 0 there is one
    candidate, at ``NEVER``, and nothing is drawn.  Like a ``_ReadAhead``,
    it adds itself to ``readers``.
    """

    __slots__ = ("times", "i", "next", "_gaps")

    def __init__(self, gen, rate, readers):
        readers.append(self)
        # Its own reader, closed by close() with the candidates left.
        self._gaps = _ReadAhead(gen, partial(_parse_gaps, rate=rate), [])
        self.times, self.i, self.next = [NEVER], 0, NEVER
        if rate > 0.0:
            self.times = [0]
            self._refill()

    def _refill(self):
        """Replace the consumed block by the next one; return its times."""
        gaps = self._gaps.next()
        start = self.times[-1]
        if start + float(gaps.max()) * len(gaps) < 2.0 ** 62:
            times = np.cumsum(gaps)
            times += start
            times = times.tolist()
        else:  # a time near int64's end; below 4e-6 cps a gap can pass it
            gaps = gaps.tolist()
            gaps[0] += start
            times = list(accumulate(gaps))
        self.times = times
        self.i = 0
        self.next = times[0]
        return times

    def skip_to(self, stop):
        """Consume every candidate before stop; return the next one's time."""
        times = self.times
        i = bisect_left(times, stop, self.i)
        while i == len(times):
            times = self._refill()
            i = bisect_left(times, stop)
        self.i = i
        self.next = t = times[i]
        return t

    def pop(self):
        """Consume the next candidate."""
        i = self.i + 1
        if i == len(self.times):
            self._refill()
        else:
            self.i = i
            self.next = self.times[i]

    def close(self):
        self._gaps.close(len(self.times) - self.i - 1)


def _next_click(t_limit, armed_from, rel_heap, darks):
    """First armed dark candidate or trap release strictly before t_limit.

    Returns (t, origin) with t = NEVER when none arrives in time.  The dark
    candidates before min(armed_from, t_limit) find the detector held off:
    they are skipped by bisection.  A dark candidate goes before a release
    at the same time.
    """
    stop = armed_from if armed_from < t_limit else t_limit
    dark = darks.next
    if dark < stop:
        dark = darks.skip_to(stop)
    while True:
        t = rel_heap[0]
        if dark <= t:
            if dark >= t_limit:
                return NEVER, ORIGIN_DARK
            darks.pop()
            return dark, ORIGIN_DARK
        if t >= t_limit:
            return NEVER, ORIGIN_AFTERPULSE
        heappop(rel_heap)
        if t >= armed_from:
            return t, ORIGIN_AFTERPULSE


def free_run(duration_ps, pulse_times_ps, pulse_p_click, det, gens):
    """Free-running detector over [0, duration): returns the click stream.

    Dark candidates are a homogeneous Poisson process whose candidates are
    generated regardless of armed state and thinned by it.  Pulses click
    with their per-pulse probability while armed.  Every click is recorded
    at raw time + jitter delay; the detector re-arms at recorded time +
    deadtime.  Trap releases while disarmed are lost.  The pulse arguments
    are any indexable sequences (lists, or memoryviews of int64 and float64
    arrays), times sorted ascending.
    """
    # Imported here: the module maps about 0.2 MB, which the commands that
    # record no clicks (qkd, optimize) need not load.
    from array import array

    deadtime_ps, dark_rate, _, _ = det
    times, origins = array("q"), bytearray()
    rel_heap = [NEVER]
    i_pulse = 0
    n_pulses = len(pulse_times_ps)
    armed_from = 0  # armed when t >= armed_from

    readers = []    # closed on every exit
    try:
        avalanche = _avalanche_step(det, gens, rel_heap, readers)
        darks = _DarkCandidates(gens["darks"], dark_rate, readers)
        photon_random = _ReadAhead(gens["photons"], _parse_draws,
                                   readers).next
        while True:
            t_sched = (pulse_times_ps[i_pulse] if i_pulse < n_pulses
                       else NEVER)
            t, origin = _next_click(
                t_sched if t_sched < duration_ps else duration_ps,
                armed_from, rel_heap, darks)
            if t == NEVER:
                if t_sched >= duration_ps:
                    break
                t = t_sched
                origin = ORIGIN_PHOTON
                p = pulse_p_click[i_pulse]
                i_pulse += 1
                if t < armed_from or photon_random() >= p:
                    continue

            recorded = avalanche(t)
            if recorded < duration_ps:
                times.append(recorded)
                origins.append(origin)
            armed_from = recorded + deadtime_ps

            # Held-off pulses draw nothing: skip them here.
            if i_pulse < n_pulses and pulse_times_ps[i_pulse] < armed_from:
                i_pulse += 1
                if (i_pulse < n_pulses
                        and pulse_times_ps[i_pulse] < armed_from):
                    i_pulse = bisect_left(pulse_times_ps, armed_from,
                                          i_pulse)
    finally:
        for reader in readers:
            reader.close()

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
    n_bins = span_ps // bin_ps
    hist = [0] * n_bins
    c_d = c_lp = 0
    rel_heap = [NEVER]
    armed_from = 0
    last_click = -quiet_ps  # lets the first pulse fire at t = 0
    t_now = 0
    # The laser decisions left of the run being read (see _parse_laser):
    # r > 0 draws ending on a hit, or -r misses; 0 when none are left.
    run = 0

    readers = []    # closed on every exit
    try:
        laser = _ReadAhead(gens["photons"], partial(
            _parse_laser, p_click=p_click_laser), readers)
        avalanche = _avalanche_step(det, gens, rel_heap, readers)
        darks = _DarkCandidates(gens["darks"], dark_rate, readers)
        next_run = laser.next
        while c_lp < n_pulses:
            cycle_start = t_now
            target = last_click + quiet_ps
            if target < t_now:
                target = t_now
            # The recorded click that lands at/after the laser fires.
            pending = NEVER

            # Quiet wait: process events until a full quiet window elapses.
            # The loop tests stand in for a _next_click call that would
            # find nothing, which most cycles of a cold detector do.
            while darks.next < target or rel_heap[0] < target:
                t, _ = _next_click(target, armed_from, rel_heap, darks)
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
                due = darks.next if darks.next < rel_heap[0] else rel_heap[0]
                if target >= armed_from:
                    # Idle run: while the pulse misses and nothing else is
                    # due inside its bin, the next cycle fires at this bin's
                    # end with no quiet wait.  Up to the next due event or
                    # the budget, k more cycles can follow this one, one
                    # draw each: the run jumps to its first hit.
                    k = n_pulses - c_lp
                    if due < bin_end + k * bin_ps:  # due >= target: k >= 0
                        k = (due - bin_end) // bin_ps + 1
                    left = k + 1                    # draws the run may take
                    while True:
                        if not run:
                            run = next_run()
                        if 0 < run <= left:         # a hit within reach
                            left -= run
                            run = 0
                            t = target + (k - left) * bin_ps
                            break
                        if abs(run) >= left:        # k + 1 draws, no hit
                            run += left if run < 0 else -left
                            left = 0
                            break
                        left += run                 # -run misses, all taken
                        run = 0
                    skip = k - left                 # k when no hit
                    c_lp += skip
                    target += skip * bin_ps
                    bin_end = target + bin_ps
                if t == NEVER and due < bin_end:
                    t, _ = _next_click(bin_end, armed_from, rel_heap, darks)
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
            while darks.next < t_now or rel_heap[0] < t_now:
                t, _ = _next_click(t_now, armed_from, rel_heap, darks)
                if t == NEVER:
                    break
                last_click = avalanche(t)
                armed_from = last_click + deadtime_ps
                idx = (last_click - detection) // bin_ps
                if 0 <= idx < n_bins:
                    hist[idx] += 1
    finally:
        if run:     # a run used in part gives back the rest of its draws
            laser.close(abs(run))
        for reader in readers:
            reader.close()
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
    duration_ps = n_frames * frame_ps
    latency_ps = jitter[3]
    n_clicks = n_errors = 0

    rel_heap = [NEVER]
    armed_from = 0

    # A p that leaves 1 - p == 1 (p <= 2**-54) expects fewer than 0.1 signal
    # clicks in the NEVER // frame_ps frames of the whole picosecond grid,
    # and its log(1 - p) is 0: it is run as no signal at all.
    use_signal = 1.0 - p_click_frame < 1.0
    log_q = math.log(1.0 - p_click_frame) if p_click_frame < 1.0 else 0.0
    # sig_time -1: the first signal click is drawn before the first event.
    sig_time = -1 if use_signal else NEVER
    sig_frame = sig_bit = 0

    readers = []    # closed on every exit
    try:
        avalanche = _avalanche_step(det, gens, rel_heap, readers)
        darks = _DarkCandidates(gens["darks"], dark_rate, readers)
        # The signal schedule: per signal click, 2 * frame skip + flip.
        next_signal = _ReadAhead(gens["photons"], partial(
            _parse_schedule, log_q=log_q, p_flip=p_optical_error,
            decode=decode), readers).next
        if decode:
            next_bit = _ReadAhead(gens["bits"], _parse_bits, readers).next
        while True:
            # A signal click inside the dead window is absorbed without an
            # avalanche; redraw from the first fully armed frame.  One beyond
            # it keeps its already-decided frame, bit and flip.  Draw order:
            # the geometric frame skip, then (decoding only) the bit and the
            # flip.
            if use_signal and sig_time < armed_from:
                skip2 = next_signal()
                sig_frame = ((armed_from // frame_ps + 1 if n_clicks else 0)
                             + (skip2 >> 1))
                slot = 0
                if decode:
                    sig_bit = next_bit()
                    slot = sig_bit ^ (skip2 & 1)
                sig_time = (sig_frame * frame_ps + slot * slot_ps
                            + slot_ps // 2)

            # As in characterize, the tests skip a _next_click call that
            # would find nothing: most clicks of a lossy link are signal
            # clicks.
            t_limit = sig_time if sig_time < duration_ps else duration_ps
            t = NEVER
            if darks.next < t_limit or rel_heap[0] < t_limit:
                t, _ = _next_click(t_limit, armed_from, rel_heap, darks)
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
                decoded = (recorded - latency_ps if recorded > latency_ps
                           else 0)
                frame_hat = decoded // frame_ps
                slot_hat = (1 if decoded - frame_hat * frame_ps >= slot_ps
                            else 0)
                if is_signal and frame_hat == sig_frame:
                    true_bit = sig_bit
                else:
                    # Bits of frames without a scheduled signal pulse are
                    # drawn lazily; a fair coin either way.
                    true_bit = next_bit()
                if slot_hat != true_bit:
                    n_errors += 1
    finally:
        for reader in readers:
            reader.close()

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
    no "bits" generator.
    """
    return _session(n_frames, frame_ps, slot_ps, p_click_frame, 0.0, det,
                    gens, False)[0]
