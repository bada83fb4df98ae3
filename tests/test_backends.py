"""Bit-equality of the kernels across uniform sources, and their outputs.

Every call site feeds the kernels the buffered uniform sources of
``RandomStream.uniforms``.  Fed the raw generators of
``RandomStream.generators`` instead, read one scalar draw at a time, the
kernels must give equal outputs and leave every substream in the same
state.  Recorded outputs pin each kernel and the branches it takes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from nfadsim import _kernels
from nfadsim.calibration import make_detector
from nfadsim.detector import _kernel_args, simulate
from nfadsim.engine import RandomStream, seconds_to_ps, timeline_to_ps, pulsed_laser
from nfadsim.params import DarkRateModel, TrapModel


def _small_free_run():
    det = make_detector(-90.0, 0.25, 3e-6)
    tl = pulsed_laser(period=1e-6, mean_photon_number=0.3, count=2000)
    pulse_ps, pulse_p = timeline_to_ps(tl, det.efficiency)
    fixed = (seconds_to_ps(0.003), tl.background_rate * det.efficiency,
             pulse_ps.tolist(), pulse_p.tolist(), _kernel_args(det))
    return fixed, ("darks", "photons", "traps", "jitter", "background")


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
    "qkd_data/short_hold": lambda: (
        _small_qkd(2e-3, 0.005, det=_short_hold(0.25)), _DATA),
    "qkd_monitor": lambda: (_small_qkd(1e-3), _MONITOR),
    "qkd_monitor/always": lambda: (_small_qkd(1.0), _MONITOR),
    "qkd_monitor/never": lambda: (_small_qkd(0.0), _MONITOR),
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


class _ScalarBlocks:
    """A raw generator with the block read of the buffered sources: a block
    is n scalar draws, and unread values are rewound by ``advance``."""

    def __init__(self, gen):
        self.random = gen.random
        self._bits = gen.bit_generator

    def block(self, n):
        return np.array([self.random() for _ in range(n)])

    def unread(self, values):
        self._bits.advance(-len(values) % (1 << 128))


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(_SMALL_CASES))
def test_buffered_uniforms_match_raw_generators(name, seed):
    kernel = _kernel(name)
    fixed, names = _SMALL_CASES[name]()
    raw_stream = RandomStream(seed)
    raw = kernel(*fixed, {n: _ScalarBlocks(g) for n, g
                          in raw_stream.generators(names).items()})
    stream = RandomStream(seed)
    with stream.uniforms(names) as sources:
        buffered = kernel(*fixed, sources)
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
    ("qkd_monitor/always", 3): 3195,
    ("qkd_monitor/never", 3): 1,
}


@pytest.mark.parametrize("name, seed", sorted(_GOLDEN))
def test_kernels_keep_their_recorded_outputs(name, seed):
    fixed, names = _SMALL_CASES[name]()
    with RandomStream(seed).uniforms(names) as sources:
        out = _kernel(name)(*fixed, sources)
    if name.startswith("characterize"):
        c_d, c_lp, hist, live_ps, starved = out
        hist_sha = hashlib.sha256(
            np.asarray(hist, dtype=np.int64).tobytes()).hexdigest()
        out = (c_d, c_lp, hist_sha, live_ps, starved)
    assert _plain(out) == _GOLDEN[name, seed]


# The next photon draw after each characterize case at seed 3, recorded
# with the loop that drew one laser decision per cycle.  The raw side of
# the test above reads blocks through the same kernel code, so this is
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
    with stream.uniforms(names) as sources:
        _kernel(name)(*fixed, sources)
    assert stream.generator("photons").random() == _NEXT_PHOTON[name]


def test_consecutive_simulate_calls_continue_one_stream():
    # Each call rewinds its buffered substreams on exit, so the second call
    # starts exactly where scalar draws would have left the first.
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
