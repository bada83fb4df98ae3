"""Bit-equality of the kernels' read-ahead draws with scalar draws, and
their outputs.

Every call site feeds the kernels the generators of
``RandomStream.generators``, which the kernels read ahead in blocks.  Fed
generators whose blocks are scalar draws one at a time instead, the
kernels must give equal outputs and leave every substream in the same
state.  Recorded outputs pin each kernel and the branches it takes.
"""

import dataclasses
import hashlib
import math
from bisect import bisect_left
from functools import partial
from itertools import accumulate
from operator import length_hint

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfadsim import _kernels
from nfadsim.calibration import make_detector
from nfadsim.detector import _kernel_args, simulate
from nfadsim.engine import RandomStream, seconds_to_ps, timeline_to_ps, pulsed_laser
from nfadsim.params import DarkRateModel, TrapModel


def _small_free_run():
    det = make_detector(-90.0, 0.25, 3e-6)
    tl = pulsed_laser(period=1e-6, mean_photon_number=0.3, count=2000)
    pulse_ps, pulse_p = timeline_to_ps(tl, det.efficiency)
    fixed = (seconds_to_ps(0.003), pulse_ps.tolist(), pulse_p.tolist(),
             _kernel_args(det))
    return fixed, ("darks", "photons", "traps", "jitter")


def _flat_dark(rate_cps):
    return DarkRateModel(amplitude_thermal=0.0, activation_temperature=0.0,
                         floor=rate_cps, efficiency_exponent=0.0,
                         efficiency_ref=0.115)


def _small_characterize(det=None, quiet=100e-6, bin_width=20e-9,
                        span=150e-6, timeout=0.05, mu=0.91):
    det = det or make_detector(-70.0, 0.2, 10e-6)
    p_click = float(1.0 - np.exp(-mu * det.efficiency))
    fixed = (2000, seconds_to_ps(quiet), seconds_to_ps(bin_width),
             seconds_to_ps(span), p_click, seconds_to_ps(timeout),
             _kernel_args(det))
    return fixed, ("darks", "photons", "traps", "jitter")


def _pending_characterize():
    # A 3 us response latency inside a 5 us bin at 1e5 cps: about a quarter
    # of the quiet waits end on a dark click whose raw time is inside the
    # window and whose recorded time falls in the laser's bin.
    det = make_detector(-70.0, 0.2, 6e-6, dark_model=_flat_dark(1e5))
    det = dataclasses.replace(det, jitter_model=dataclasses.replace(
        det.jitter_model, latency=3e-6))
    return _small_characterize(det, quiet=10e-6, bin_width=5e-6, span=20e-6)


def _starved_characterize():
    # 1e6 cps against a 100 us quiet window: no window within 1 ms.
    det = make_detector(-70.0, 0.2, 1e-6, dark_model=_flat_dark(1e6))
    return _small_characterize(det, timeout=1e-3)


def _small_qkd(*budget, det=None):
    # A short hold-off and 25% efficiency: plenty of afterpulse releases.
    det = det or make_detector(-90.0, 0.25, 2e-6)
    frame_ps = seconds_to_ps(2.0 / 625e6)
    return (2_000_000, frame_ps, frame_ps // 2, *budget, _kernel_args(det))


def _idle_characterize():
    # 5% efficiency at -110 C: a pulse clicks with p = 4.4% and darks are
    # rare, so misses come in long idle runs; at seed 3 the budget of 2000
    # pulses runs out 84 cycles into one.
    return _small_characterize(make_detector(-110.0, 0.05, 10e-6))


def _sparse_characterize():
    # 5% efficiency and a 0.1 photon pulse: a pulse clicks with p = 0.5%,
    # so idle runs are about 200 cycles long.  At seed 3 one run crosses the
    # photon block boundary at draw 1024 and the last one ends on the budget
    # of 2000 pulses.
    return _small_characterize(make_detector(-110.0, 0.05, 10e-6), mu=0.1)


def _held_off_characterize():
    # A 101 us hold-off against a 100 us quiet window: after a click in the
    # quiet wait, the pulse fires while the detector is still held off.
    return _small_characterize(make_detector(-70.0, 0.2, 101e-6))


def _short_hold(eta):
    # At -50 C the trap lifetimes are 1.6 and 5.8 us against a 2 us
    # hold-off, so trap delays fall both before and after re-arm.
    return make_detector(-50.0, eta, 2e-6)


_DATA = ("darks", "photons", "traps", "jitter", "bits")
_MONITOR = ("darks", "photons", "traps", "jitter")

# Keys name the kernel, then after a slash the branch a case pins.
_SMALL_CASES = {
    "free_run": _small_free_run,
    "characterize": _small_characterize,
    "characterize/pending": _pending_characterize,
    "characterize/starved": _starved_characterize,
    "characterize/idle_end": _idle_characterize,
    "characterize/held_off": _held_off_characterize,
    "characterize/sparse": _sparse_characterize,
    "characterize/no_darks": lambda: _small_characterize(make_detector(
        -70.0, 0.2, 10e-6, dark_model=_flat_dark(0.0))),
    "characterize/short_hold": lambda: _small_characterize(_short_hold(0.2)),
    "qkd_data": lambda: (_small_qkd(2e-3, 0.005), _DATA),
    "qkd_data/always": lambda: (_small_qkd(1.0, 0.005), _DATA),
    "qkd_data/never": lambda: (_small_qkd(0.0, 0.005), _DATA),
    "qkd_data/rare": lambda: (_small_qkd(1e-15, 0.005), _DATA),
    # p = 2**-54 leaves 1 - p == 1: run as no signal at all.
    "qkd_data/tiny": lambda: (_small_qkd(2.0 ** -54, 0.005), _DATA),
    "qkd_data/short_hold": lambda: (
        _small_qkd(2e-3, 0.005, det=_short_hold(0.25)), _DATA),
    "qkd_monitor": lambda: (_small_qkd(1e-3), _MONITOR),
    "qkd_monitor/always": lambda: (_small_qkd(1.0), _MONITOR),
    "qkd_monitor/never": lambda: (_small_qkd(0.0), _MONITOR),
    "qkd_monitor/tiny": lambda: (_small_qkd(2.0 ** -54), _MONITOR),
}


def _kernel(case):
    return getattr(_kernels, case.split("/")[0])


def _plain(result):
    """Kernel output as nested Python values, for exact comparison."""
    if isinstance(result, tuple):
        return tuple(_plain(part) for part in result)
    if isinstance(result, (list, np.ndarray)):
        return np.asarray(result).tolist()
    return result


class _ScalarDraws:
    """A generator whose block read ``random(n)`` is n scalar draws; the
    readers rewind it through its bit generator."""

    def __init__(self, gen):
        self._random = gen.random
        self.bit_generator = gen.bit_generator

    def random(self, n):
        return np.array([self._random() for _ in range(n)])


class _CountingDraws:
    """A generator that counts the uniforms its block reads draw."""

    def __init__(self, gen):
        self._random = gen.random
        self.bit_generator = gen.bit_generator
        self.drawn = 0

    def random(self, n):
        self.drawn += n
        return self._random(n)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(_SMALL_CASES))
def test_block_reads_match_scalar_draws(name, seed):
    kernel = _kernel(name)
    fixed, names = _SMALL_CASES[name]()
    raw_stream = RandomStream(seed)
    raw = kernel(*fixed, {n: _ScalarDraws(g) for n, g
                          in raw_stream.generators(names).items()})
    stream = RandomStream(seed)
    buffered = kernel(*fixed, stream.generators(names))
    assert _plain(buffered) == _plain(raw)
    for n in names:
        assert (stream.generator(n).bit_generator.state
                == raw_stream.generator(n).bit_generator.state), n


# Recorded with raw generators before the kernels read buffered uniforms,
# the branch cases before the kernels shared one event-step core, and the
# rare-signal case before the kernels took the detector bundle and the
# substream map (seed 4 draws a first frame skip of about 1.2e19 ps, past
# 2**63), and the idle-run and held-off cases before the kernels skipped
# the events that cannot click, and the short-hold cases before the kernels
# skipped the release delays that end before re-arm, and the sparse case
# before the kernel read its laser decisions in blocks:
# (c_d, c_lp, sha256 of the int64 histogram, live ps, starved) and
# (n_sifted, n_errors) and the monitor click count.
_GOLDEN = {
    ("characterize", 3): (
        316, 2000,
        "bdc1693b8d92e836a13dbf56489e54f1150abe64c19027976ca1e64d1c74f212",
        49098387844, False),
    ("characterize", 11): (
        307, 2000,
        "11635a834fbd1f7c8da6f4b4b652fd7f880974e5bd34410e6245d60d6aaf6b4c",
        47229852203, False),
    ("qkd_data", 3): (2110, 379),
    ("qkd_data", 11): (2102, 374),
    ("qkd_monitor", 3): 1718,
    ("qkd_monitor", 11): 1674,
    ("characterize/no_darks", 3): (
        316, 2000,
        "f0e497b43599969a626615b78b2215c6bf4ff03e9b68e7ce7bcb25f77b1c9cc1",
        47434002046, False),
    ("characterize/pending", 3): (
        793, 2000,
        "6a256e03d629c073cc9a20095ea20269e701751111e1076303c699bf11695751",
        32074810596, False),
    ("characterize/starved", 3): (
        1, 1,
        "fbe2dc77cb9bf665a6ed03dc853a987a31da055c89496c4126e5d9589199edc8",
        150001000, True),
    ("characterize/idle_end", 3): (
        89, 2000,
        "661415a365f18120df3b836ddecb4989cdbfe074229e18016d15ffe037db1b53",
        13388310764, False),
    ("characterize/held_off", 3): (
        252, 2000,
        "efc430a9d4eb88d9d8af3cee6a177acb65063d13ce07b55ddf04e0d456eeea8e",
        38400841165, False),
    ("characterize/sparse", 3): (
        10, 2000,
        "0946e2eb0fb9ea7ddd935efd1922bc7d1f27101c69ce6d2f5145c7ee28f1b6ba",
        1539810118, False),
    ("characterize/sparse", 11): (
        8, 2000,
        "0946e2eb0fb9ea7ddd935efd1922bc7d1f27101c69ce6d2f5145c7ee28f1b6ba",
        1239848801, False),
    ("characterize/short_hold", 3): (
        316, 2000,
        "c15c7941c149b59020963af2e30c95a0730d88409b7cf4ce77da8f9c11eb8f29",
        55126213561, False),
    ("qkd_data/always", 3): (3193, 23),
    ("qkd_data/never", 3): (1, 1),
    ("qkd_data/rare", 3): (1, 1),
    ("qkd_data/rare", 4): (0, 0),
    ("qkd_data/short_hold", 3): (2064, 329),
    ("qkd_data/tiny", 3): (1, 1),
    ("qkd_monitor/always", 3): 3195,
    ("qkd_monitor/never", 3): 1,
    ("qkd_monitor/tiny", 3): 1,
}


@pytest.mark.parametrize("name, seed", sorted(_GOLDEN))
def test_kernels_keep_their_recorded_outputs(name, seed):
    fixed, names = _SMALL_CASES[name]()
    out = _kernel(name)(*fixed, RandomStream(seed).generators(names))
    if name.startswith("characterize"):
        c_d, c_lp, hist, live_ps, starved = out
        hist_sha = hashlib.sha256(
            np.asarray(hist, dtype=np.int64).tobytes()).hexdigest()
        out = (c_d, c_lp, hist_sha, live_ps, starved)
    assert _plain(out) == _GOLDEN[name, seed]


# The next photon draw after each characterize case at seed 3, recorded
# with the loop that drew one laser decision per cycle.  The scalar side
# of the test above reads blocks through the same kernel code, so this is
# what shows a block's unused draws going back to the stream.
_NEXT_PHOTON = {
    "characterize": 0.20700743807743294,
    "characterize/held_off": 0.43135843027709264,
    "characterize/idle_end": 0.20700743807743294,
    "characterize/no_darks": 0.20700743807743294,
    "characterize/pending": 0.34275622794544436,
    "characterize/short_hold": 0.20700743807743294,
    "characterize/sparse": 0.20700743807743294,
    "characterize/starved": 0.6325138865874828,
}


@pytest.mark.parametrize("name", sorted(_NEXT_PHOTON))
def test_characterize_leaves_the_photon_stream_where_it_read_to(name):
    fixed, names = _SMALL_CASES[name]()
    stream = RandomStream(3)
    _kernel(name)(*fixed, stream.generators(names))
    assert stream.generator("photons").random() == _NEXT_PHOTON[name]


# The next dark draw after each case at seed 3, recorded when the kernels
# drew one dark gap at a time: a kernel gives back, on every exit, the
# uniforms of the candidates it read ahead and did not reach.
_NEXT_DARK = {
    "characterize": 0.7096016758850539,
    "characterize/held_off": 0.22953430095990757,
    "characterize/idle_end": 0.37867835260281935,
    "characterize/no_darks": 0.5413696492633944,
    "characterize/pending": 0.6669696755549619,
    "characterize/short_hold": 0.7458514225145578,
    "characterize/sparse": 0.37867835260281935,
    "characterize/starved": 0.9136724157823595,
    "free_run": 0.37867835260281935,
    "qkd_data": 0.899579830295347,
    "qkd_data/always": 0.899579830295347,
    "qkd_data/never": 0.899579830295347,
    "qkd_data/rare": 0.899579830295347,
    "qkd_data/short_hold": 0.5142990804242584,
    "qkd_data/tiny": 0.899579830295347,
    "qkd_monitor": 0.899579830295347,
    "qkd_monitor/always": 0.899579830295347,
    "qkd_monitor/never": 0.899579830295347,
    "qkd_monitor/tiny": 0.899579830295347,
}


@pytest.mark.parametrize("name", sorted(_NEXT_DARK))
def test_kernels_leave_the_dark_stream_where_they_read_to(name):
    fixed, names = _SMALL_CASES[name]()
    stream = RandomStream(3)
    _kernel(name)(*fixed, stream.generators(names))
    assert stream.generator("darks").random() == _NEXT_DARK[name]


# The next draw of the other substreams after each case at seed 3,
# recorded when the kernels drew the jitter, trap, signal and bit uniforms
# one at a time (the photon draws of characterize are in _NEXT_PHOTON).
# Every session case ends partway through a read-ahead block of each.
_NEXT_DRAWS = {
    "characterize": {"jitter": 0.16081385363841816,
                     "traps": 0.03968592474284949},
    "characterize/held_off": {"jitter": 0.613248716689675,
                              "traps": 0.8837947204957993},
    "characterize/idle_end": {"jitter": 0.6260095204038598,
                              "traps": 0.9066868442000304},
    "characterize/no_darks": {"jitter": 0.34157111330165735,
                              "traps": 0.18280129752301388},
    "characterize/pending": {"jitter": 0.6193888611223568,
                             "traps": 0.25602137727094865},
    "characterize/short_hold": {"jitter": 0.03024914303436399,
                                "traps": 0.38154087651237656},
    "characterize/sparse": {"jitter": 0.222962769256963,
                            "traps": 0.7434522399196803},
    "characterize/starved": {"jitter": 0.44107538095995047,
                             "traps": 0.7083079142205214},
    "free_run": {"jitter": 0.4193267515584401, "traps": 0.131892567248295,
                 "photons": 0.054253563515460956},
    "qkd_data": {"jitter": 0.18921976029812382,
                 "traps": 0.23534543101561667,
                 "photons": 0.37743448761579446,
                 "bits": 0.8129089034858586},
    "qkd_data/always": {"jitter": 0.9823085115443351,
                        "traps": 0.12345737528464573,
                        "photons": 0.9680787433679144,
                        "bits": 0.6700709994828119},
    "qkd_data/never": {"jitter": 0.8981707686770491,
                       "traps": 0.09457830442392834,
                       "photons": 0.10033602866159974,
                       "bits": 0.9036039314424413},
    "qkd_data/rare": {"jitter": 0.8981707686770491,
                      "traps": 0.09457830442392834,
                      "photons": 0.5288834801304864,
                      "bits": 0.09685979900311847},
    "qkd_data/short_hold": {"jitter": 0.057510399138914314,
                            "traps": 0.615333416955053,
                            "photons": 0.8587239873784898,
                            "bits": 0.9027838778027376},
    "qkd_data/tiny": {"jitter": 0.8981707686770491,
                      "traps": 0.09457830442392834,
                      "photons": 0.10033602866159974,
                      "bits": 0.9036039314424413},
    "qkd_monitor": {"jitter": 0.9120503229998651,
                    "traps": 0.1829473069736901,
                    "photons": 0.701563274719472},
    "qkd_monitor/always": {"jitter": 0.9588640999277662,
                           "traps": 0.9264553203196075,
                           "photons": 0.10033602866159974},
    "qkd_monitor/never": {"jitter": 0.8981707686770491,
                          "traps": 0.09457830442392834,
                          "photons": 0.10033602866159974},
    "qkd_monitor/tiny": {"jitter": 0.8981707686770491,
                         "traps": 0.09457830442392834,
                         "photons": 0.10033602866159974},
}


@pytest.mark.parametrize("name, substream", sorted(
    (name, n) for name, draws in _NEXT_DRAWS.items() for n in draws))
def test_kernels_leave_every_stream_where_they_read_to(name, substream):
    fixed, names = _SMALL_CASES[name]()
    stream = RandomStream(3)
    _kernel(name)(*fixed, stream.generators(names))
    assert (stream.generator(substream).random()
            == _NEXT_DRAWS[name][substream])


def _scalar_dark_times(seed, rate, n):
    """Running sums of n ``_exp_gap_ps`` gaps, one scalar per uniform of
    the "darks" substream (a block read gives the scalar calls' values)."""
    us = RandomStream(seed).generator("darks").random(n).tolist()
    return list(accumulate(_kernels._exp_gap_ps(u, rate) for u in us))


def _block_dark_times(gen, rate, n):
    """The first n candidate times of a dark generator, block by block."""
    darks = _kernels._DarkCandidates(gen, rate, [])
    times = list(darks.times)
    while len(times) < n:
        times.extend(darks._refill())
    return times[:n]


class TestDarkCandidates:
    """The read-ahead dark process keeps the one-at-a-time draws' times."""

    @pytest.mark.parametrize("rate", [1.0, 15.6, 1e4, 1e7, 1e9])
    def test_times_are_running_sums_of_scalar_gaps(self, rate):
        n = 1_000_000
        assert (_block_dark_times(RandomStream(5).generator("darks"), rate,
                                  n) == _scalar_dark_times(5, rate, n))

    def test_gaps_at_or_past_never_read_never(self):
        # Below about 8e-6 cps a gap can reach NEVER = 2**62 ps, and at
        # 1e-6 cps every gap is within the log slack of an int: each is
        # redone with math.log.  A gap at or past NEVER reads NEVER, one
        # below it keeps its scalar value, and the times are their exact
        # running sums, past int64's end.
        rate, n, never = 1e-6, 100_000, _kernels.NEVER
        us = RandomStream(6).generator("darks").random(n).tolist()
        gaps = [_kernels._exp_gap_ps(u, rate) for u in us]
        assert max(gaps) > 2 ** 63 and min(gaps) < never
        expected = list(accumulate(min(gap, never) for gap in gaps))
        assert _block_dark_times(RandomStream(6).generator("darks"), rate,
                                 n) == expected

    def test_a_gap_near_an_int_is_drawn_again_with_math_log(
            self, monkeypatch, scripted):
        # Uniforms whose gaps at 1e7 cps are within rounding of k * 1 ps,
        # k = 1e5 + j: each lands inside the slack and is redone.
        rate = 1e7
        us = [-math.expm1(-(100_000 + j) * rate / 1e12)
              for j in range(_kernels._FIRST_BLOCK)]
        redone = []

        def exp_gap_ps(u, rate_per_s):
            redone.append(u)
            return int(-math.log(1.0 - u) / rate_per_s * 1e12)

        monkeypatch.setattr(_kernels, "_exp_gap_ps", exp_gap_ps)
        darks = _kernels._DarkCandidates(scripted(us), rate, [])
        assert darks.times == list(accumulate(
            int(-math.log(1.0 - u) / rate * 1e12) for u in us))
        assert len(redone) == len(us)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("candidate",
                             [63, 64, 191, 192, 1023, 1024, 3071, 3072])
    def test_a_kernel_that_stops_at_a_refill_gives_back_the_rest(
            self, candidate, offset):
        # Darks only at r * tau = 5, no jitter and no traps.  Blocks hold
        # candidates 0-1023, 1024-3071 and 3072-7167; consuming the last
        # one of a block draws the next block (63-192 stop inside the
        # first).  The run ends 1 ps before, at or after the candidate's
        # time: the darks substream must end where the event loop leaves
        # it, one draw past the last candidate before the end.
        rate, seed = 1e9, 9
        det = (5000, rate, (0.0, (1.0,), (1.0,)), (0.0, 1.0, 0.0, 0))
        ticks = _scalar_dark_times(seed, rate, 3100)
        duration = ticks[candidate] + offset
        stream = RandomStream(seed)
        _kernels.free_run(duration, [], [], det, stream.generators(_MONITOR))
        scalar = RandomStream(seed).generator("darks")
        scalar.random(bisect_left(ticks, duration) + 1)
        assert (stream.generator("darks").bit_generator.state
                == scalar.bit_generator.state)


def test_consecutive_simulate_calls_continue_one_stream():
    # Each call rewinds its read-ahead substreams on exit, so the second
    # call starts exactly where scalar draws would have left the first.
    det = make_detector(-90.0, 0.25, 3e-6)
    tl = pulsed_laser(period=1e-6, mean_photon_number=0.3, count=10_000)
    stream = RandomStream(4242)
    digest = hashlib.sha256()
    for _ in range(2):
        s = simulate(det, tl, 0.011, stream)
        digest.update(s.times.tobytes())
        digest.update(s.origins.tobytes())
    assert digest.hexdigest() == (
        "81ea1df1fdfa50cc8dfaa8f50953cc8f9e50f25755944dfd02c6ed365e7b3548")


_KERNEL_ARGS = {
    "T-110_eta0.115_tau20us": (
        make_detector(-110.0, 0.115, 20e-6),
        "(20000000, 1.19, (0.9763, (0.96919, 1.0), (2364290.614069294, "
        "68228399.46380536)), (69.25006681960173, 0.1, 2.8, 1000))"),
    "T-50_eta0.30_tau2us": (
        make_detector(-50.0, 0.30, 2e-6),
        "(2000000, 14478.195040684588, (2.5468695652173907, (0.96919, 1.0), "
        "(1565912.1043181166, 5759228.659182656)), (54.117693673843846, 0.1, "
        "2.8, 1000))"),
    "traps_disabled": (
        dataclasses.replace(make_detector(-90.0, 0.2, 5e-6),
                            trap_model=TrapModel.disabled()),
        "(5000000, 77.63951971962554, (0.0, (1.0,), (1000000.0,)), "
        "(62.297354833712966, 0.1, 2.8, 1000))"),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_ARGS))
def test_kernel_args_keep_their_values(name):
    # Recorded from the bundle built with np.cumsum and ndarray products;
    # the repr pins every value and every native type the kernels receive.
    det, expected = _KERNEL_ARGS[name]
    assert repr(_kernel_args(det)) == expected


# The scalar loops the parsers stand in for, as the kernels drew one
# uniform at a time: each gives the values of the events a block holds
# whole and the draw count after each.
def _scalar_events(us, draw_event):
    draws = iter(us.tolist())
    values, ends = [], []
    try:
        while True:
            values.append(draw_event(draws.__next__))
            ends.append(len(us) - length_hint(draws))
    except StopIteration:
        return values, ends


def _scalar_jitter(us, jitter):
    sigma_ps, tail_fraction, tail_scale, latency_ps = jitter

    def delay(random):
        if random() < tail_fraction:
            x = -tail_scale * math.log(1.0 - random())
        else:
            while True:
                a = 2.0 * random() - 1.0
                b = 2.0 * random() - 1.0
                s = a * a + b * b
                if 0.0 < s < 1.0:
                    break
            x = a * math.sqrt(-2.0 * math.log(s) / s)
        delay = latency_ps + int(x * sigma_ps)
        return delay if delay > 0 else 0

    return _scalar_events(us, delay)


def _scalar_traps(us, traps, skip_below):
    lam, cum_weights, tau_ps = traps
    limit, last = math.exp(-lam), len(cum_weights) - 1

    def releases(random):
        n_traps = 0
        p = random()
        while p > limit:
            n_traps += 1
            p *= random()
        filled = []
        for _ in range(n_traps):
            u = random()
            comp = 0
            while comp < last and u >= cum_weights[comp]:
                comp += 1
            u = random()
            if u >= skip_below[comp]:
                filled.append(int(-math.log(1.0 - u) * tau_ps[comp]))
        return tuple(filled)

    return _scalar_events(us, releases)


def _scalar_schedule(us, log_q, p_flip, decode):
    def skip2_flip(random):
        skip = int(math.log(1.0 - random()) / log_q) if log_q < 0.0 else 0
        flip = 0
        if decode and random() < p_flip:
            flip = 1
        return 2 * skip + flip

    return _scalar_events(us, skip2_flip)


def _scalar_bits(us):
    return _scalar_events(us, lambda random: 0 if random() < 0.5 else 1)


def _scalar_laser(us, p_click):
    """Laser decisions as runs: each hit with the misses before it as its
    draw count, then minus the misses after the last hit."""
    runs, ends, draws = [], [], 0
    for i, u in enumerate(us.tolist(), 1):
        draws += 1
        if u < p_click:
            runs.append(draws)
            ends.append(i)
            draws = 0
    if draws:
        runs.append(-draws)
        ends.append(len(us))
    return runs, ends


def _assert_parses_as(parsed, scalar):
    values, ends = parsed
    assert (values, ends.tolist()) == scalar


class _CountingMath:
    """``math`` with a count of ``log`` calls: the parsers call math.log
    only to redo a value that np.log could truncate to another int."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


_BLOCKS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300))


def _examples(n):
    """n examples under the "replay" profile, scaled with the loaded one:
    ten times n under "deep" (tests/conftest.py)."""
    return (n * settings.default.max_examples
            // settings.get_profile("replay").max_examples)


def _block(seed, n):
    return np.random.default_rng(seed).random(n)


class TestReadAheadParsers:
    """Each block parser gives its scalar loop's values and draw counts."""

    @settings(max_examples=_examples(200))
    @given(**_BLOCKS, sigma_ps=st.floats(0.0, 1e4),
           tail_fraction=st.floats(0.0, 0.99),
           tail_scale=st.floats(1.0, 5.0),
           latency_ps=st.integers(-10 ** 4, 10 ** 4))
    def test_jitter(self, seed, n, sigma_ps, tail_fraction, tail_scale,
                    latency_ps):
        jitter = (sigma_ps, tail_fraction, tail_scale, latency_ps)
        us = _block(seed, n)
        _assert_parses_as(_kernels._parse_jitter(us, jitter),
                          _scalar_jitter(us, jitter))

    @settings(max_examples=_examples(200))
    @given(**_BLOCKS, lam=st.floats(0.0, 6.0),
           weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           tau_ps=st.lists(st.floats(0.0, 1e9), min_size=3, max_size=3),
           deadtime_ps=st.integers(1, 10 ** 8))
    def test_traps(self, seed, n, lam, weights, tau_ps, deadtime_ps):
        cum_weights = tuple(accumulate(weights))
        traps = (lam, cum_weights, tuple(tau_ps[:len(weights)]))
        skip_below = [_kernels._skip_below(deadtime_ps, tau)
                      for tau in traps[2]]
        us = _block(seed, n)
        parsed = _kernels._parse_traps(us, traps, skip_below)
        if lam > 0.0:
            _assert_parses_as(parsed, _scalar_traps(us, traps, skip_below))
        else:   # a click draws nothing
            assert parsed[0] == [()] * n and not parsed[1].any()

    @settings(max_examples=_examples(200))
    @given(**_BLOCKS, p_click=st.sampled_from(
        [1.0, 1.0 - 2.0 ** -53, 0.3, 1e-4, 2.0 ** -53]),
        p_flip=st.floats(0.0, 1.0), decode=st.booleans())
    def test_schedule(self, seed, n, p_click, p_flip, decode):
        log_q = math.log(1.0 - p_click) if p_click < 1.0 else 0.0
        us = _block(seed, n)
        parsed = _kernels._parse_schedule(us, log_q, p_flip, decode)
        if log_q < 0.0 or decode:
            _assert_parses_as(parsed,
                              _scalar_schedule(us, log_q, p_flip, decode))
        else:   # p_click = 1 without decoding: a click draws nothing
            assert parsed[0] == [0] * n and not parsed[1].any()

    @settings(max_examples=_examples(50))
    @given(**_BLOCKS)
    def test_bits(self, seed, n):
        us = _block(seed, n)
        us[::7] = 0.5
        _assert_parses_as(_kernels._parse_bits(us), _scalar_bits(us))

    def test_a_polar_pair_at_the_center_is_rejected(self):
        # u = 0.5 twice is the pair (0, 0): s = 0, rejected like s >= 1.
        jitter = (60.0, 0.1, 2.8, 1000)
        us = np.array([0.9, 0.5, 0.5, 0.99, 0.3, 0.7, 0.6, 0.05, 0.4])
        values, ends = _kernels._parse_jitter(us, jitter)
        assert ends.tolist() == [7, 9]
        _assert_parses_as((values, ends), _scalar_jitter(us, jitter))

    @pytest.mark.parametrize("parse, scalar, us, ends", [
        # A tail variate, then a core one with two pairs outside the
        # circle before (0.2, 0.0).
        (lambda us: _kernels._parse_jitter(us, (60.0, 0.1, 2.8, 1000)),
         lambda us: _scalar_jitter(us, (60.0, 0.1, 2.8, 1000)),
         [0.0, 0.3, 0.9, 0.01, 0.01, 0.99, 0.99, 0.6, 0.5], [2, 9]),
        # A click with no trap, then one with three (0.9**3 > e^-1).
        (lambda us: _kernels._parse_traps(
            us, (1.0, (0.5, 1.0), (1e6, 1e7)), [0.0, 0.0]),
         lambda us: _scalar_traps(
             us, (1.0, (0.5, 1.0), (1e6, 1e7)), [0.0, 0.0]),
         [0.1, 0.9, 0.9, 0.9, 0.1, 0.2, 0.3, 0.7, 0.4, 0.6, 0.5], [1, 11]),
    ])
    def test_an_event_cut_by_the_block_end_waits_for_the_next(
            self, parse, scalar, us, ends):
        us = np.array(us)
        assert parse(us)[1].tolist() == ends
        for cut in range(len(us) + 1):
            parsed = parse(us[:cut])
            assert parsed[1].tolist() == [e for e in ends if e <= cut]
            _assert_parses_as(parsed, scalar(us[:cut]))

    def test_values_near_an_int_are_redone_with_math_log(self, monkeypatch):
        # Delays and frame skips within rounding of an int: each parse redoes
        # every one of them with math.log and keeps the scalar value.
        counting = _CountingMath()
        monkeypatch.setattr(_kernels, "math", counting)
        ks = range(1, 9)
        near = [-math.expm1(-k) for k in ks]        # -ln(1 - u) ~ k
        a, b = 0.8, 0.5                             # a core pair off 0
        x = (2 * a - 1) * math.sqrt(-2.0 * math.log((2 * a - 1) ** 2)
                                    / (2 * a - 1) ** 2)
        cases = [
            # Tail variates (branch uniform 0 < 0.1) and one core variate
            # whose x * sigma sits on 3.
            (lambda us: _kernels._parse_jitter(us, (1.0, 0.1, 1.0, 0)),
             lambda us: _scalar_jitter(us, (1.0, 0.1, 1.0, 0)),
             [v for u in near for v in (0.0, u)], len(ks)),
            (lambda us: _kernels._parse_jitter(us, (3.0 / x, 0.1, 1.0, 0)),
             lambda us: _scalar_jitter(us, (3.0 / x, 0.1, 1.0, 0)),
             [0.5, a, b], 1),
            # One trap per click (0.5 * 0.1 < e^-1), component 0.
            (lambda us: _kernels._parse_traps(
                us, (1.0, (1.0,), (1.0,)), [0.0]),
             lambda us: _scalar_traps(us, (1.0, (1.0,), (1.0,)), [0.0]),
             [v for u in near for v in (0.5, 0.1, 0.0, u)], len(ks)),
            # Frame skips ln(1 - u) / ln(1 - p) ~ k.
            (lambda us: _kernels._parse_schedule(
                us, math.log(0.75), 0.0, False),
             lambda us: _scalar_schedule(us, math.log(0.75), 0.0, False),
             [-math.expm1(k * math.log(0.75)) for k in ks], len(ks)),
        ]
        for parse, scalar, us, redone in cases:
            us = np.array(us)
            counting.logs = 0
            parsed = parse(us)
            assert counting.logs == redone
            monkeypatch.setattr(_kernels, "math", math)
            _assert_parses_as(parsed, scalar(us))
            monkeypatch.setattr(_kernels, "math", counting)

    def test_values_at_or_past_never_read_never(self):
        # Release delays of a 1e35 ps lifetime pass NEVER and read NEVER;
        # those of a 1e18 ps one, some past 2**61 ps, keep their scalar
        # values below it.  Jitter delays keep theirs up to the 2**61 ps
        # bound the detector puts on them (sigma * 37.4 * tail scale).
        never = _kernels.NEVER
        us = _block(4, 300)
        traps = (2.0, (0.5, 1.0), (1e35, 1e18))
        values, ends = _kernels._parse_traps(us, traps, [0.0, 0.0])
        scalar, scalar_ends = _scalar_traps(us, traps, [0.0, 0.0])
        assert (values, ends.tolist()) == (
            [tuple(min(d, never) for d in click) for click in scalar],
            scalar_ends)
        delays = [d for click in values for d in click]
        assert never in delays
        assert any(2 ** 61 < d < never for d in delays)
        jitter = (2.0 ** 61 / (37.4 * 2.0), 0.3, 2.0, 0)
        _assert_parses_as(_kernels._parse_jitter(us, jitter),
                          _scalar_jitter(us, jitter))

    @settings(max_examples=_examples(50))
    @given(**_BLOCKS)
    def test_draws(self, seed, n):
        us = _block(seed, n)
        _assert_parses_as(_kernels._parse_draws(us),
                          _scalar_events(us, lambda random: random()))

    @settings(max_examples=_examples(200))
    @given(**_BLOCKS, p_click=st.sampled_from(
        [0.0, 2.0 ** -53, 0.005, 0.3, 1.0]) | st.floats(0.0, 1.0))
    def test_laser(self, seed, n, p_click):
        us = _block(seed, n)
        _assert_parses_as(_kernels._parse_laser(us, p_click),
                          _scalar_laser(us, p_click))

    def test_a_laser_run_cut_at_every_block_length(self):
        # Hits at draws 3, 4 and 9 of 12: whole runs of 3, 1 and 5 draws,
        # then 3 misses.  A block cut anywhere keeps the runs before the
        # cut whole and ends on the misses after its last hit.
        us = np.array([0.9, 0.8, 0.1, 0.05, 0.7, 0.9, 0.6, 0.9, 0.2, 0.8,
                       0.9, 0.7])
        runs, ends = _kernels._parse_laser(us, 0.3)
        assert (runs, ends.tolist()) == ([3, 1, 5, -3], [3, 4, 9, 12])
        for cut in range(len(us) + 1):
            parsed = _kernels._parse_laser(us[:cut], 0.3)
            whole = [e for e in ends[:-1].tolist() if e <= cut]
            tail = cut - (whole[-1] if whole else 0)
            assert parsed[1].tolist() == whole + ([cut] if tail else [])
            assert parsed[0] == runs[:len(whole)] + ([-tail] if tail else [])
            _assert_parses_as(parsed, _scalar_laser(us[:cut], 0.3))

    @pytest.mark.parametrize("us, ends", [
        # A click with no trap, then one whose product 0.9**4 is still
        # above e^-1 at the block's last draw: it waits for the next block.
        ([0.1, 0.9, 0.9, 0.9, 0.9], [1]),
        ([0.9], []),
        ([0.1], [1]),
        ([0.0], [1]),
    ], ids=["product_above_the_limit_at_the_last_draw", "n_1_cut",
            "n_1_no_trap", "n_1_zero"])
    def test_traps_at_the_block_end(self, us, ends):
        traps = (1.0, (0.5, 1.0), (1e6, 1e7))
        us = np.array(us)
        parsed = _kernels._parse_traps(us, traps, [0.0, 0.0])
        assert parsed[1].tolist() == ends
        _assert_parses_as(parsed, _scalar_traps(us, traps, [0.0, 0.0]))

    def test_traps_whose_every_product_outlasts_the_block(self):
        # At lam = 6 and u = 0.999 no click's product falls to e^-6 within
        # 300 draws: no click is whole.
        us = np.full(300, 0.999)
        assert _scalar_traps(us, (6.0, (1.0,), (1e6,)), [0.0]) == ([], [])
        parsed = _kernels._parse_traps(us, (6.0, (1.0,), (1e6,)), [0.0])
        assert parsed[0] == [] and parsed[1].tolist() == []


def _scalar_starts(end, n):
    """The scalar walk over event ends: each event starts where the last
    one ended, up to the first the block cuts."""
    starts, i = [], 0
    while i < n and end[i] <= n:
        starts.append(i)
        i = end[i]
    return starts


@settings(max_examples=_examples(300))
@given(n=st.sampled_from([1, 2, 3, 4096]) | st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1), longest=st.integers(1, 12),
       far=st.sampled_from([0.0, 0.02, 0.5]), to_n=st.booleans())
def test_event_starts_match_the_scalar_walk(n, seed, longest, far, to_n):
    # Events of 1 to longest draws, a share far of them ending far past
    # n, as a click whose trap product outlasts the block does; with
    # to_n, the walk's last event ends exactly at n.
    rng = np.random.default_rng(seed)
    end = np.arange(1, n + 1) + rng.integers(0, longest, n)
    end[rng.random(n) < far] += 4 * n
    if to_n:
        starts = _scalar_starts(end, n)
        cut = end[starts[-1]] if starts else 0
        if cut < n:
            end[cut] = n
    expected = _scalar_starts(end, n)
    assert not to_n or (end[expected[-1]] == n)
    got = _kernels._event_starts(end, n)
    assert got.dtype == np.intp
    assert got.tolist() == expected


def _scalar_draws(seed, name, n):
    """n scalar Generator.random() calls on a fresh substream, and its
    state after them."""
    gen = RandomStream(seed).generator(name)
    return [gen.random() for _ in range(n)], gen.bit_generator.state


_N_DRAWS = st.integers(min_value=0, max_value=3 * 4096 + 17)
_SEED = st.integers(min_value=0, max_value=2**32 - 1)


class _Raised(Exception):
    pass


class _RaisingAt(list):
    """Pulse click probabilities that raise from index ``stop`` on, and
    keep the index they raised at."""

    def __init__(self, values, stop):
        super().__init__(values)
        self.stop, self.raised_at = stop, None

    def __getitem__(self, i):
        if i >= self.stop:
            self.raised_at = i
            raise _Raised(i)
        return list.__getitem__(self, i)


class TestReadAhead:
    """A reader serves its generator's scalar draws and, closed, leaves the
    generator where those draws would."""

    @given(n=_N_DRAWS, seed=_SEED)
    @example(n=0, seed=0)
    @example(n=63, seed=1)
    @example(n=64, seed=2)
    @example(n=65, seed=3)
    @example(n=4032, seed=4)
    @example(n=4096, seed=5)
    @example(n=8128, seed=6)
    @example(n=3 * 4096 + 17, seed=7)
    @example(n=1023, seed=8)
    @example(n=1024, seed=9)    # the first block
    @example(n=1025, seed=10)
    @example(n=3072, seed=11)   # the first two, 1024 and 2048
    @example(n=7168, seed=12)   # and the first 4096 one
    def test_values_and_end_state_match_scalar_calls(self, n, seed):
        expected, end_state = _scalar_draws(seed, "darks", n)
        stream = RandomStream(seed)
        reader = _kernels._ReadAhead(stream.generator("darks"),
                                     _kernels._parse_draws, [])
        drawn = [reader.next() for _ in range(n)]
        reader.close()
        assert drawn == expected
        assert stream.generator("darks").bit_generator.state == end_state

    @given(n=_N_DRAWS, back=st.integers(0, 300), seed=_SEED)
    @example(n=0, back=0, seed=0)
    @example(n=65, back=2, seed=1)      # back into the first block
    @example(n=192, back=192, seed=2)   # every draw served
    @example(n=1024, back=1024, seed=3)  # every draw served, at a block end
    def test_close_gives_back_the_last_draws_served(self, n, back, seed):
        back = min(back, n)
        _, end_state = _scalar_draws(seed, "darks", n - back)
        stream = RandomStream(seed)
        reader = _kernels._ReadAhead(stream.generator("darks"),
                                     _kernels._parse_draws, [])
        for _ in range(n):
            reader.next()
        reader.close(back)
        assert stream.generator("darks").bit_generator.state == end_state

    @pytest.mark.parametrize("parse, scalar", [
        (partial(_kernels._parse_jitter, jitter=(60.0, 0.1, 2.8, 1000)),
         lambda us: _scalar_jitter(us, (60.0, 0.1, 2.8, 1000))),
        # About 15 draws a click: blocks often cut one.
        (partial(_kernels._parse_traps, traps=(4.5, (0.5, 1.0), (1e6, 1e7)),
                 skip_below=[0.0, 0.0]),
         lambda us: _scalar_traps(us, (4.5, (0.5, 1.0), (1e6, 1e7)),
                                  [0.0, 0.0])),
    ])
    @pytest.mark.parametrize("events", [0, 1, 17, 700, 3000])
    def test_events_cut_by_a_block_are_served_whole(self, parse, scalar,
                                                    events):
        us = RandomStream(5).generator("traps").random(60_000)
        values, ends = scalar(us)
        stream = RandomStream(5)
        reader = _kernels._ReadAhead(stream.generator("traps"), parse, [])
        assert [reader.next() for _ in range(events)] == values[:events]
        reader.close()
        _, end_state = _scalar_draws(5, "traps", ends[events - 1]
                                     if events else 0)
        assert stream.generator("traps").bit_generator.state == end_state

    @pytest.mark.parametrize("p_click", [0.0, 1e-3, 0.3, 1.0])
    def test_laser_runs_across_blocks_are_the_scalar_decisions(self,
                                                              p_click):
        stream = RandomStream(8)
        reader = _kernels._ReadAhead(stream.generator("photons"), partial(
            _kernels._parse_laser, p_click=p_click), [])
        hits = []
        while len(hits) < 20_000:
            run = reader.next()
            hits += [False] * (abs(run) - (run > 0)) + [True] * (run > 0)
        reader.close()
        us, end_state = _scalar_draws(8, "photons", len(hits))
        assert hits == [u < p_click for u in us]
        assert stream.generator("photons").bit_generator.state == end_state

    def test_substreams_are_read_and_rewound_independently(self):
        stream = RandomStream(9)
        readers = []
        darks, jitter = (_kernels._ReadAhead(stream.generator(name),
                                             _kernels._parse_draws, readers)
                         for name in ("darks", "jitter"))
        drawn_darks = [darks.next() for _ in range(100)]
        drawn_jitter = [jitter.next() for _ in range(5000)]
        for reader in readers:
            reader.close()
        scalar = RandomStream(9)
        assert drawn_darks == [scalar.generator("darks").random()
                               for _ in range(100)]
        assert drawn_jitter == [scalar.generator("jitter").random()
                                for _ in range(5000)]
        for name in ("darks", "jitter", "traps"):
            assert (stream.generator(name).bit_generator.state
                    == scalar.generator(name).bit_generator.state)

    def test_half_used_32_bit_output_survives_the_rewind(self):
        stream, scalar = RandomStream(4), RandomStream(4)
        for s in (stream, scalar):
            s.generator("bits").integers(0, 10, dtype=np.uint32)
        reader = _kernels._ReadAhead(stream.generator("bits"),
                                     _kernels._parse_draws, [])
        reader.next()
        reader.close()
        scalar.generator("bits").random()
        state = stream.generator("bits").bit_generator.state
        assert state["has_uint32"] == 1
        assert state == scalar.generator("bits").bit_generator.state

    def test_reader_is_unusable_after_close(self):
        reader = _kernels._ReadAhead(RandomStream(1).generator("darks"),
                                     _kernels._parse_draws, [])
        reader.next()
        reader.close()
        with pytest.raises(TypeError):
            reader.next()

    @pytest.mark.parametrize("stop", [0, 1, 700, 1999])
    def test_a_kernel_that_raises_mid_call_rewinds_every_substream(
            self, stop):
        (duration, pulse_ps, pulse_p, det), names = _small_free_run()
        p_click = _RaisingAt(pulse_p, stop)
        stream = RandomStream(3)
        with pytest.raises(_Raised):
            _kernels.free_run(duration, pulse_ps, p_click, det,
                              stream.generators(names))
        # A call that ends at the pulse it raised at takes the same draws.
        whole = RandomStream(3)
        _kernels.free_run(pulse_ps[p_click.raised_at], pulse_ps, pulse_p,
                          det, whole.generators(names))
        for name in names:
            assert (stream.generator(name).bit_generator.state
                    == whole.generator(name).bit_generator.state), name

    def test_a_kernel_short_of_a_substream_rewinds_the_others(self):
        # qkd_data fails at its "bits" reader, after the dark process drew
        # its first block: that gives back all but the first candidate,
        # which the event loop draws at the start.
        fixed, _ = _SMALL_CASES["qkd_data"]()
        stream = RandomStream(3)
        with pytest.raises(KeyError):
            _kernels.qkd_data(*fixed, stream.generators(_MONITOR))
        for name in _MONITOR:
            _, end_state = _scalar_draws(3, name, name == "darks")
            assert stream.generator(name).bit_generator.state == end_state

    def test_an_all_miss_laser_reads_bounded_blocks(self):
        # No darks, no traps and a laser that never clicks: one idle run of
        # 10**6 cycles reads one decision a cycle in blocks of at most
        # 4096, where a run would otherwise wait for its hit.
        det = (10**4, 0.0, (0.0, (1.0,), (1.0,)), (0.0, 1.0, 0.0, 0))
        stream = RandomStream(2)
        out = _kernels.characterize(10**6, 10**5, 20_000, 10**5, 0.0,
                                    10**10, det, stream.generators(_MONITOR))
        assert out == (0, 10**6, [0] * 5, 10**6 * 20_000, False)
        _, end_state = _scalar_draws(2, "photons", 10**6)
        assert stream.generator("photons").bit_generator.state == end_state

    @pytest.mark.parametrize("parse, value", [
        (partial(_kernels._parse_traps, traps=(0.0, (1.0,), (1e6,)),
                 skip_below=[0.0]), ()),
        (partial(_kernels._parse_schedule, log_q=0.0, p_flip=0.0,
                 decode=False), 0),
    ], ids=["traps_at_lam_0", "schedule_at_p_click_1"])
    def test_events_that_draw_nothing_parse_one_bounded_block(self, parse,
                                                              value):
        # No traps, or a monitor's signal at p_click = 1: every event
        # draws nothing, so a block serves its events and is parsed again.
        stream = RandomStream(6)
        gen = _CountingDraws(stream.generator("traps"))
        reader = _kernels._ReadAhead(gen, parse, [])
        longest = 0
        for _ in range(10**5):
            assert reader.next() == value
            longest = max(longest, len(reader._u))
        reader.close()
        assert longest <= _kernels._LAST_BLOCK
        assert gen.drawn <= _kernels._LAST_BLOCK
        _, end_state = _scalar_draws(6, "traps", 0)
        assert stream.generator("traps").bit_generator.state == end_state

    def test_a_monitor_at_p_click_1_draws_a_bounded_schedule(self):
        # Every signal click of the session draws nothing from "photons":
        # about 3 * 10**4 clicks read one block of at most 4096 uniforms
        # and give it all back.
        fixed = (2 * 10**7, *_small_qkd(1.0)[1:])
        stream = RandomStream(4)
        gens = stream.generators(_MONITOR)
        gens["photons"] = photons = _CountingDraws(gens["photons"])
        clicks = _kernels.qkd_monitor(*fixed, gens)
        assert clicks > 6 * _kernels._LAST_BLOCK
        assert photons.drawn <= _kernels._LAST_BLOCK
        _, end_state = _scalar_draws(4, "photons", 0)
        assert stream.generator("photons").bit_generator.state == end_state
