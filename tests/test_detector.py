"""Detector simulation: reference equality, counting laws, monotonicity."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfadsim import _kernels
from nfadsim.calibration import make_detector
from nfadsim.detector import (_kernel_args, _saturated_rates,
                              _trap_components, dark_rate, simulate,
                              simulate_reference)
from nfadsim.engine import RandomStream, pulsed_laser, seconds_to_ps
from nfadsim.errors import ParameterError
from nfadsim.params import (ORIGIN_AFTERPULSE, ORIGIN_DARK, DarkRateModel,
                            DetectorParams, JitterModel, OpticalTimeline,
                            TrapModel, celsius_to_kelvin)
from nfadsim.qkd import LinkConfig, QkdOperatingPoint, link_metrics


def _count_origin(stream, code) -> int:
    return int(np.count_nonzero(stream.origins == code))


class TestReferenceEquality:
    """The event-queue reimplementation pins the kernel's semantics.

    Any drift in event ordering, armed-state checks, or per-substream draw
    order shows up as a mismatch here.
    """

    CASES = [
        # (temp C, eta, deadtime, mu, pulse period)
        (-90.0, 0.25, 3e-6, 0.3, 1e-6),
        (-110.0, 0.115, 20e-6, 0.91, 5e-6),
        (-50.0, 0.10, 2e-6, 0.5, 2e-6),
        (-70.0, 0.32, 10e-6, 0.0, 1e-6),   # dark and afterpulse clicks only
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_kernel_matches_reference(self, case):
        temp_c, eta, deadtime, mu, period = case
        det = make_detector(temp_c, eta, deadtime)
        count = int(0.01 / period)
        tl = pulsed_laser(period=period, mean_photon_number=mu, count=count)
        fast = simulate(det, tl, 0.011, 99)
        slow = simulate_reference(det, tl, 0.011, 99)
        assert len(fast) > 0
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.origins, slow.origins)

    def test_pulses_on_candidate_picoseconds_match_reference(self):
        # Dark candidate times come from their own substream alone, so
        # pulses can be put on exactly those picoseconds: every pulse ties
        # with a candidate, and the pulse must go first.
        det = _fuzz_detector(-90.0, 0.3, 1e-6, 0.2, 0.5, [(1.0, 2.0)],
                             300e-12, 0.1, 2.8, 0.001)
        duration, seed = 2e-3, 8
        gen, rate, t = RandomStream(seed).generator("darks"), dark_rate(det), 0
        ticks = []
        while t < seconds_to_ps(duration):
            t += int(-math.log(1.0 - gen.random()) / rate * 1e12)
            ticks.append(t)
        times = np.array(ticks[::2]) / 1e12
        tl = OpticalTimeline(times=times,
                             mean_photon_numbers=np.full(len(times), 2.0))
        fast = simulate(det, tl, duration, seed)
        slow = simulate_reference(det, tl, duration, seed)
        assert len(fast) > 300
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.origins, slow.origins)

    def test_dark_goes_before_a_release_at_the_same_picosecond(self):
        # The reference pops EVENT_DARK before EVENT_RELEASE at equal times.
        # Release times cannot be set from outside, so the kernel step is
        # checked directly: the dark candidate is served and its successor,
        # drawn from the next uniform, is next; the release stays on the
        # heap.  The rate puts the first candidate at 50 ps.
        u0, u1 = RandomStream(1).generator("darks").random(2).tolist()
        rate = -math.log(1.0 - u0) * 1e12 / 50.5
        heap = [50, _kernels.NEVER]
        darks = _kernels._DarkCandidates(RandomStream(1).generator("darks"),
                                         rate, [])
        assert darks.next == 50
        t, origin = _kernels._next_click(100, 0, heap, darks)
        assert (t, origin) == (50, ORIGIN_DARK)
        assert darks.next == 50 + int(-math.log(1.0 - u1) / rate * 1e12) > 50
        assert heap == [50, _kernels.NEVER]

    @pytest.mark.parametrize("deadtime_ps, kept", [(4000, True),
                                                   (4001, False)])
    def test_release_at_rearm_is_kept_and_earlier_ones_are_not(
            self, deadtime_ps, kept, scripted):
        # A click at 0 ps recorded at 1000 ps (pure latency) fills one trap
        # whose release lands at 5000 ps.  Re-arm at exactly 5000 ps makes it
        # live (armed means t >= armed_from); one more ps of hold-off makes
        # it unable to click, so it never goes onto the heap.
        jitter = (0.0, 1.0, 0.0, 1000)    # always the tail, of scale 0
        traps = (1.0, (1.0,), (5000.5 / math.log(2.0),))
        heap = [_kernels.NEVER]
        recorded = _kernels._avalanche_step(
            (deadtime_ps, 0.0, traps, jitter),
            {"jitter": scripted([0.5, 0.5]),        # tail branch, x = 0
             "traps": scripted([0.5, 0.1, 0.0, 0.5])},  # 1 trap, comp 0, ln 2
            heap, [])(0)
        assert recorded == 1000
        assert heap == ([5000, _kernels.NEVER] if kept else [_kernels.NEVER])

    @pytest.mark.parametrize("pulses, clicks", [
        ([0, 1000], [0, 1000]),                      # nothing held off
        ([0, 999, 1000], [0, 1000]),                 # one held off
        ([0, 999, 1001, 2000, 2001], [0, 1001, 2001]),
        ([0, 1, 500, 999, 1000], [0, 1000]),         # several held off
        ([0, 999, 999, 1999], [0, 1999]),
        ([0, 400, 999], [0]),                        # held off to the end
    ])
    def test_held_off_pulses_are_skipped_up_to_rearm(self, pulses, clicks):
        # No jitter, darks or traps; every armed pulse clicks and re-arms
        # the detector 1000 ps later.  A pulse exactly at re-arm clicks and
        # one 1 ps earlier does not.
        det = (1000, 0.0, (0.0, (1.0,), (1.0,)), (0.0, 1.0, 0.0, 0))
        times = memoryview(np.array(pulses, dtype=np.int64))
        p_click = memoryview(np.ones(len(pulses)))
        recorded, _ = _kernels.free_run(
            5000, times, p_click, det,
            RandomStream(1).generators(RandomStream.SUBSTREAMS))
        assert list(recorded) == clicks


class TestReleaseSkip:
    """Release delays drawn below ``_skip_below`` are not computed."""

    @settings(max_examples=500)
    @given(deadtime_ps=st.integers(1, 10**13),
           tau_ps=st.floats(1e-3, 1e35), u=st.floats(0.0, 1.0,
                                                   exclude_max=True),
           fraction=st.floats(0.0, 1.0), ulps=st.integers(1, 8))
    @example(deadtime_ps=1, tau_ps=1e16, u=0.0, fraction=1.0, ulps=1)
    @example(deadtime_ps=1, tau_ps=9.99e5, u=0.0, fraction=1.0, ulps=1)
    @example(deadtime_ps=10**7, tau_ps=1e-3, u=0.0, fraction=1.0, ulps=1)
    def test_skipped_uniforms_release_before_rearm(self, deadtime_ps, tau_ps,
                                                   u, fraction, ulps):
        # Random uniforms, uniforms spread below the bound, and uniforms a
        # few ulps below it.
        bound = _kernels._skip_below(deadtime_ps, tau_ps)
        near = bound
        for _ in range(ulps):
            near = math.nextafter(near, 0.0)
        for v in (u, bound * fraction, near):
            if v < bound:
                assert int(-math.log(1.0 - v) * tau_ps) < deadtime_ps

    @pytest.mark.parametrize("tau_ps", [0.0, 1e12])
    def test_no_skip_where_rounding_could_win(self, tau_ps):
        # A zero lifetime, and one a million hold-offs long.
        assert _kernels._skip_below(10**6, tau_ps) == 0.0

    @pytest.mark.parametrize("ulps_below, kept", [(0, True), (1, False)])
    def test_a_release_exactly_at_rearm_is_kept(self, ulps_below, kept,
                                                scripted):
        # Zero jitter: a click at 0 ps is recorded at 0 ps and re-arms at
        # 1000 ps.  u is the smallest uniform whose delay from a 1500 ps
        # lifetime reaches 1000 ps: its release is kept.  One ulp less
        # releases at 999 ps, during the hold-off.
        deadtime_ps, tau_ps = 1000, 1500.0
        u = -math.expm1(-deadtime_ps / tau_ps)
        while int(-math.log(1.0 - u) * tau_ps) >= deadtime_ps:
            u = math.nextafter(u, 0.0)
        while int(-math.log(1.0 - u) * tau_ps) < deadtime_ps:
            u = math.nextafter(u, 1.0)
        for _ in range(ulps_below):
            u = math.nextafter(u, 0.0)
        heap = [_kernels.NEVER]
        recorded = _kernels._avalanche_step(
            (deadtime_ps, 0.0, (1.0, (1.0,), (tau_ps,)), (0.0, 1.0, 0.0, 0)),
            {"jitter": scripted([0.5, 0.5]),        # tail branch, x = 0
             "traps": scripted([0.5, 0.1, 0.0, u])},  # 1 trap, comp 0
            heap, [])(0)
        assert recorded == 0
        assert heap == ([1000, _kernels.NEVER] if kept else [_kernels.NEVER])


def _lifetime_detector(temp_c, component):
    """A detector that fills one trap per avalanche on average, with one
    release component (weight, tau_ref in s, activation in K)."""
    return dataclasses.replace(
        make_detector(temp_c, 0.2, 5e-6),
        trap_model=TrapModel(mean_traps_per_avalanche=1.0,
                             efficiency_exponent=0.0, efficiency_ref=0.115,
                             release_components=(component,),
                             reference_temperature=183.15))


def _dense_laser():
    return pulsed_laser(period=1e-6, mean_photon_number=3.0, count=2000)


def _fuzz_detector(temp_c, eta, deadtime, dark_rt, trap_mean, components,
                   fwhm, tail_fraction, tail_scale, latency_dt):
    """A detector whose rates and times are given in units of its deadtime."""
    total = sum(w for w, _ in components)
    release = tuple((w / total, tau_dt * deadtime, 100.0)
                    for w, tau_dt in components)
    return DetectorParams(
        temperature=celsius_to_kelvin(temp_c), efficiency=eta,
        deadtime=deadtime,
        dark_model=DarkRateModel(amplitude_thermal=0.0,
                                 activation_temperature=0.0,
                                 floor=dark_rt / deadtime,
                                 efficiency_exponent=0.0,
                                 efficiency_ref=0.115),
        trap_model=TrapModel(mean_traps_per_avalanche=trap_mean,
                             efficiency_exponent=0.0, efficiency_ref=0.115,
                             release_components=release,
                             reference_temperature=183.15),
        jitter_model=JitterModel(fwhm_table=((0.0, fwhm), (1.0, fwhm)),
                                 tail_fraction=tail_fraction,
                                 tail_scale_factor=tail_scale,
                                 latency=latency_dt * deadtime))


def _fuzz_timeline(ticks, duration, mu):
    """Pulses at ticks/1000 of the duration on the ps grid.

    A repeated tick becomes a pulse 0.1 ps later per repeat: strictly
    increasing in seconds, the same picosecond on the kernel's grid.
    """
    duration_ps = seconds_to_ps(duration)
    times = []
    repeats = {}
    for tick in sorted(ticks):
        k = repeats.get(tick, 0)
        repeats[tick] = k + 1
        times.append((tick * duration_ps // 1000) / 1e12 + k * 1e-13)
    return OpticalTimeline(times=np.asarray(times),
                           mean_photon_numbers=np.full(len(times), mu))


_FUZZ_BASE = dict(temp_c=-90.0, eta=0.2, deadtime=2e-6, n_dead=200,
                  dark_rt=0.5, trap_mean=0.6, components=[(1.0, 2.0)],
                  fwhm=300e-12, tail_fraction=0.1, tail_scale=2.8,
                  latency_dt=0.0005, ticks=list(range(0, 1001, 50)), mu=0.5,
                  seed=1)


class TestReferenceFuzz:
    """simulate == simulate_reference over random detectors and timelines.

    Rates and times are drawn in units of the deadtime so that every example
    stays small (at most a few thousand candidates) for the event-queue
    reference.  Candidate rates are whole hundredths of one per deadtime (at
    least 500 cps when positive).  One example runs darks at 1e-7 cps, whose
    first gap lands beyond ``NEVER``; rates whose gaps are infinite are
    rejected before any draw (``TestStreamInvariants``).
    """

    @settings(max_examples=300)
    @given(temp_c=st.floats(-120.0, -41.0),
           eta=st.floats(0.01, 0.35),
           deadtime=st.floats(1e-7, 2e-5), n_dead=st.integers(1, 300),
           dark_rt=st.integers(0, 1000).map(lambda k: k / 100),
           trap_mean=st.floats(0.0, 1.2),
           components=st.lists(st.tuples(st.floats(0.01, 1.0),
                                         st.floats(0.05, 5.0)),
                               min_size=1, max_size=3),
           fwhm=st.floats(1e-11, 2e-9), tail_fraction=st.floats(0.0, 0.3),
           tail_scale=st.floats(1.5, 5.0), latency_dt=st.floats(0.0, 3.0),
           ticks=st.lists(st.integers(0, 1000), max_size=60),
           mu=st.floats(0.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(**dict(_FUZZ_BASE, dark_rt=0.0))                 # no darks
    @example(**dict(_FUZZ_BASE, ticks=[5, 5, 5, 70, 70, 900]))  # same ps
    @example(**dict(_FUZZ_BASE, ticks=[0, 0, 1000, 1000], mu=3.0))  # ends
    @example(**dict(_FUZZ_BASE, latency_dt=2.5, dark_rt=3.0))  # late jitter
    @example(**dict(_FUZZ_BASE, ticks=[995] * 5, mu=3.0, eta=0.35,
                    dark_rt=0.0, latency_dt=1.0, fwhm=1e-13,
                    tail_fraction=0.0))          # recorded exactly at the end
    @example(**dict(_FUZZ_BASE, trap_mean=1.2, dark_rt=0.0, mu=3.0,
                    components=[(1.0, 5.0)]))                 # near runaway
    @example(**dict(_FUZZ_BASE, dark_rt=2e-13))  # 1e-7 cps: gaps past NEVER
    def test_kernel_matches_reference(self, temp_c, eta, deadtime, n_dead,
                                      dark_rt, trap_mean, components, fwhm,
                                      tail_fraction, tail_scale, latency_dt,
                                      ticks, mu, seed):
        det = _fuzz_detector(temp_c, eta, deadtime, dark_rt, trap_mean,
                             components, fwhm, tail_fraction, tail_scale,
                             latency_dt)
        duration = n_dead * deadtime
        tl = _fuzz_timeline(ticks, duration, mu)
        fast_stream, slow_stream = RandomStream(seed), RandomStream(seed)
        fast = simulate(det, tl, duration, fast_stream)
        slow = simulate_reference(det, tl, duration, slow_stream)
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.origins, slow.origins)
        # Every substream ends where the reference leaves it, so a later
        # call on the same stream continues from the same draw.
        for name in ("darks", "photons", "traps", "jitter"):
            assert (fast_stream.generator(name).bit_generator.state
                    == slow_stream.generator(name).bit_generator.state), name

        times_ps = np.round(fast.times * 1e12).astype(np.int64)
        assert np.all(np.diff(times_ps) >= seconds_to_ps(deadtime))
        assert np.all(times_ps < seconds_to_ps(duration))
        assert set(fast.origins.tolist()) <= {0, 1, 2}


class TestStreamInvariants:
    def test_successive_gaps_at_least_deadtime(self, flat_dark):
        det = flat_dark(2e5, 7e-6)
        s = simulate(det, OpticalTimeline.empty(), 0.5, 5)
        assert len(s) > 1000
        assert float(np.min(np.diff(s.times))) >= det.deadtime

    def test_identical_inputs_identical_streams(self):
        det = make_detector(-90.0, 0.2, 5e-6)
        tl = pulsed_laser(period=1e-6, mean_photon_number=0.4, count=5000)
        a = simulate(det, tl, 0.006, 123)
        b = simulate(det, tl, 0.006, 123)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.origins, b.origins)

    def test_duration_must_be_positive_finite(self):
        det = make_detector(-90.0, 0.2, 5e-6)
        with pytest.raises(ParameterError):
            simulate(det, OpticalTimeline.empty(), 0.0, 1)
        with pytest.raises(ParameterError):
            simulate(det, OpticalTimeline.empty(), math.inf, 1)

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_duration_must_end_before_the_ps_grid_does(self, sim):
        # 4.7e6 s is past NEVER = 2**62 ps (about 4.61e6 s).
        det = make_detector(-90.0, 0.2, 5e-6)
        with pytest.raises(ParameterError, match="picosecond grid"):
            sim(det, OpticalTimeline.empty(), 4.7e6, 1)

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    @pytest.mark.parametrize("last", [4.7e6, 1e7, math.inf])
    def test_pulse_times_must_end_before_the_ps_grid_does(self, sim, last):
        # 1e7 s cast to int64 picoseconds wrapped to -2**63; 4.7e6 s landed
        # past NEVER.
        det = make_detector(-90.0, 0.2, 5e-6)
        tl = OpticalTimeline(np.array([0.0, last]), np.array([0.1, 0.1]))
        with pytest.raises(ParameterError, match="picosecond grid"):
            sim(det, tl, 1.0, 1)

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_pulse_times_must_start_after_the_ps_grid_does(self, sim):
        # -1e7 s is below -2**63 ps, where the int64 cast is undefined.
        det = make_detector(-90.0, 0.2, 5e-6)
        tl = OpticalTimeline(np.array([-1e7, 1e-3]), np.array([0.1, 0.1]))
        with pytest.raises(ParameterError, match="picosecond grid"):
            sim(det, tl, 1.0, 1)

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_pulse_times_just_inside_the_ps_grid_run(self, sim, flat_dark):
        tl = OpticalTimeline(np.array([4.6e6]), np.array([0.0]))
        assert len(sim(flat_dark(0.0, 5e-6), tl, 1.0, 1)) == 0

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_duration_just_inside_the_ps_grid_runs(self, sim, flat_dark):
        s = sim(flat_dark(0.0, 5e-6), OpticalTimeline.empty(), 4.6e6, 1)
        assert len(s) == 0

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_rates_with_infinite_gaps_are_rejected(self, sim, flat_dark):
        # Below about 2e-295 cps, -ln(1 - u) / rate in ps is inf.
        with pytest.raises(ParameterError, match="picosecond grid"):
            sim(flat_dark(1e-300, 5e-6), OpticalTimeline.empty(), 0.01, 1)

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    @pytest.mark.parametrize("rate", [1.01e9, 1e12])
    def test_rates_the_ps_grid_truncates_high_are_rejected(self, sim, rate,
                                                           flat_dark):
        # Each gap loses up to 1 ps, which runs the rate high by about
        # rate * 0.5 ps: 0.05% at 1e9 cps and 50% at 1e12.
        with pytest.raises(ParameterError, match="picosecond grid"):
            sim(flat_dark(rate, 1e-6), OpticalTimeline.empty(), 1e-4, 1)

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_the_highest_dark_rate_runs(self, sim, flat_dark):
        assert len(sim(flat_dark(1e9, 1e-6), OpticalTimeline.empty(), 1e-5,
                       1)) > 0

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    @pytest.mark.parametrize("component", [(1.0, math.inf, 2000.0),
                                           (1.0, 1e300, 2000.0)])
    def test_trap_lifetimes_with_no_int_delay_are_rejected(self, sim,
                                                           component):
        # An infinite lifetime is refused by the model; 1e300 s is finite
        # but reaches inf on the picosecond grid (3.8e312 ps at -110 C).
        with pytest.raises(ParameterError, match="lifetime"):
            sim(_lifetime_detector(-110.0, component), _dense_laser(), 0.002,
                1)

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_a_lifetime_exponent_past_the_float_range_is_rejected(self, sim):
        # 2e6 K puts the Arrhenius exponent at 1339 at -110 C, past the
        # 709.8 where exp() overflows.
        det = _lifetime_detector(-110.0, (1.0, 1e-6, 2e6))
        with pytest.raises(ParameterError,
                           match=r"component 0 \(.*\) .* at 163\.15 K"):
            sim(det, _dense_laser(), 0.002, 1)

    def test_a_lifetime_that_underflows_to_zero_ps_runs(self):
        # 5e-324 s shrinks to 0.0 at -50 C: every release comes at its
        # avalanche's raw time, inside the hold-off.
        det = _lifetime_detector(-50.0, (1.0, 5e-324, 2000.0))
        fast = simulate(det, _dense_laser(), 0.002, 1)
        slow = simulate_reference(det, _dense_laser(), 0.002, 1)
        assert len(fast) > 100
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.origins, slow.origins)

    @staticmethod
    def _trap_mean_detector(mean, exponent=1.0):
        # At 11.5% against a 10% reference the mean is mean * 1.15**exponent.
        return make_detector(-90.0, 0.115, 10e-6, trap_model=TrapModel(
            mean_traps_per_avalanche=mean, efficiency_exponent=exponent,
            efficiency_ref=0.1, release_components=((1.0, 1e-6, 100.0),),
            reference_temperature=183.15))

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    @pytest.mark.parametrize("mean, exponent", [
        (616.0, 1.0), (1000.0, 0.0), (5000.0, 0.0), (1e300, 0.0),
        (2.0, 800.0)])
    def test_a_trap_mean_whose_count_limit_underflows_is_rejected(
            self, sim, mean, exponent):
        # Past about 708.4 traps a click exp(-mean) is subnormal, and past
        # 745 it is 0.0: Knuth's product stopped near 745 traps a click
        # whatever the mean (746.8 at 1000, 744.2 at 5000).
        det = self._trap_mean_detector(mean, exponent)
        with pytest.raises(ParameterError,
                           match=r"mean traps per avalanche .* 708\.4"):
            sim(det, _dense_laser(), 0.002, 1)

    def test_a_trap_mean_whose_count_limit_is_normal_is_kept(self):
        # 615.99 * 1.15 = 708.389 leaves exp(-mean) a normal double; 616
        # (708.4) does not.
        assert _kernel_args(self._trap_mean_detector(615.99))[2][0] == \
            pytest.approx(708.389, abs=1e-3)

    def test_no_generation_mechanism_no_clicks(self, flat_dark):
        det = flat_dark(0.0, 5e-6)
        tl = pulsed_laser(period=1e-6, mean_photon_number=0.0, count=5000)
        assert len(simulate(det, tl, 0.006, 44)) == 0


def _traced_peak(run):
    """(run(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPulseMemory:
    def test_simulate_adds_little_beyond_the_pulse_arrays(self):
        # The kernel reads the int64 times and float64 click probabilities
        # in place; list copies of them cost about 76 bytes per pulse, and
        # a float64 temporary beside them 8.  The uniform blocks add about
        # 2 bytes per pulse here.
        n = 200_000
        det = make_detector(-110.0, 0.115, 20e-6)
        tl = pulsed_laser(period=1e-6, mean_photon_number=3.0, count=n)
        simulate(det, tl, 1e-4, RandomStream(1))        # lazy imports
        clicks, peak = _traced_peak(
            lambda: simulate(det, tl, n * 1e-6, RandomStream(1)))
        assert len(clicks) > 1000
        assert (peak - 16 * n) / n < 4


class TestClickMemory:
    def test_simulate_adds_little_beyond_the_click_arrays(self, flat_dark):
        # The kernel records 9 bytes per click and simulate divides the
        # int64 times into its float64 output: 8 bytes per click beyond the
        # output, and about 3.5 of uniform blocks over 1e5 clicks.  Python
        # int lists took about 56.
        det = flat_dark(1e5, 1e-6)
        simulate(det, OpticalTimeline.empty(), 1e-4, 1)  # lazy imports
        clicks, peak = _traced_peak(
            lambda: simulate(det, OpticalTimeline.empty(), 1.2, 3))
        assert len(clicks) > 100_000
        output = clicks.times.nbytes + clicks.origins.nbytes
        assert (peak - output) / len(clicks) < 16


_LAW_TAU = 1e-6


@pytest.fixture(scope="module")
def law_stream(flat_dark):
    """Factory: (detector, duration, clicks) of the flat-dark detector at a
    given r*tau, tau = 1 us, seed 17, about 1e5 clicks; each rate is
    simulated once per module (0.25 s at r*tau = 1, 0.6 s at 10)."""
    streams = {}

    def stream(r_tau):
        if r_tau not in streams:
            rate = r_tau / _LAW_TAU
            expected_rate = rate / (1.0 + rate * _LAW_TAU)
            duration = 1.0e5 / expected_rate
            det = flat_dark(rate, _LAW_TAU)
            streams[r_tau] = (det, duration, simulate(
                det, OpticalTimeline.empty(), duration, 17))
        return streams[r_tau]

    return stream


class TestDeadtimeLaw:
    @pytest.mark.parametrize("r_tau", [0.01, 0.1, 1.0, 10.0])
    def test_saturation_within_three_sigma(self, law_stream, r_tau):
        _, duration, s = law_stream(r_tau)
        rate = r_tau / _LAW_TAU
        expected = rate / (1.0 + rate * _LAW_TAU) * duration
        # Poisson bound overestimates the variance of a deadtime-thinned
        # count, so three of these sigmas is conservative.
        assert abs(len(s) - expected) <= 3.0 * math.sqrt(expected)


def _delay_law(det):
    """(latency, core sigma, tail fraction, tail scale) of the jitter delay
    D = latency + sigma * x in ps, x a unit Gaussian or, with the tail
    fraction, tail scale times a unit exponential.  The clamp at 0 never
    acts at a 1 ns latency (14 sigma) and truncation to whole ps is left
    out: it moves D by under 1 ps."""
    jm = det.jitter_model
    return (jm.latency * 1e12, jm.core_sigma_at(det.efficiency) * 1e12,
            jm.tail_fraction, jm.tail_scale_factor)


def _interval_moments(det, rate):
    """Mean, variance and third central moment (ps) of X = tau + E + D."""
    latency, sigma, f, scale = _delay_law(det)
    x1, x2, x3 = f * scale, (1.0 - f) + 2.0 * f * scale ** 2, \
        6.0 * f * scale ** 3
    gap = 1e12 / rate
    return (_LAW_TAU * 1e12 + gap + latency + sigma * x1,
            gap ** 2 + sigma ** 2 * (x2 - x1 ** 2),
            2.0 * gap ** 3 + sigma ** 3 * (x3 - 3.0 * x1 * x2 + 2.0 * x1 ** 3))


def _interval_cdf(det, rate, y):
    """P(E + D <= y), y in ps: Exp(r) convolved with the delay law.  The
    core part is the exponentially modified Gaussian, the tail part the
    sum of two exponentials."""
    latency, sigma, f, scale = _delay_law(det)
    lam, beta = rate / 1e12, 1.0 / (sigma * scale)
    z = np.asarray(y, dtype=np.float64) - latency
    phi = np.frompyfunc(lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)), 1, 1)
    core = (phi(z / sigma) - np.exp(-lam * z + (lam * sigma) ** 2 / 2.0)
            * phi(z / sigma - lam * sigma)).astype(np.float64)
    zp = np.maximum(z, 0.0)
    tail = 1.0 - (beta * np.exp(-lam * zp) - lam * np.exp(-beta * zp)) \
        / (beta - lam)
    return (1.0 - f) * core + f * tail


class TestRenewalLaw:
    """The flat-dark stream's spread against renewal theory, not just its
    mean rate.

    With no traps, a click at raw time t is recorded at t + D and re-arms
    the detector at t + D + tau.  Dark candidates are memoryless (to within
    the 1 ps grid), so the next click comes a gap E ~ Exp(r) after re-arm.
    Recorded intervals are therefore X = tau + E + D', D' the next click's
    delay: independent and identically distributed, a renewal process.
    Both tests read the ``law_stream`` streams.
    """

    @pytest.mark.parametrize("r_tau, window_us", [(1.0, 10), (10.0, 50)])
    def test_count_fano_factor_matches_renewal_theory(self, law_stream,
                                                      r_tau, window_us):
        # Counts N in windows of length T of a stationary renewal process
        # with interval mean mu, variance s2 and third central moment m3
        # (Cox, Renewal Theory, 1962):
        #   Var N = s2 T / mu^3 + 1/6 + s2^2 / (2 mu^4) - m3 / (3 mu^3)
        #           + o(1),   E N = T / mu,
        # so the Fano factor is s2 / mu^2 + (mu / T) (1/6 + ...).  At
        # D = 0, s2 / mu^2 is Mueller's 1 / (1 + r tau)^2.  The o(1) term
        # decays like |E exp(2 pi i X / mu)|^(T / mu): 0.30^5 at
        # r tau = 1 (T = 5 mu) and 0.87^45 = 2e-3 at 10 (T = 45 mu).
        # The first window, which starts at a click-free detector, is left
        # out.  The bound is 4 standard errors, from the spread of the
        # factor over 20 contiguous batches of windows.  Over 25 seeds
        # (17 and 100-123) the deviations in those errors had mean 0.0 and
        # 0.0, spread 1.0 and 1.1, worst 2.2; seed 17 reads -2.0 and
        # -1.5, while the asymptote alone is 7.7 and 7.4 errors off.
        det, duration, s = law_stream(r_tau)
        rate = r_tau / _LAW_TAU
        window = window_us * 1_000_000
        n = seconds_to_ps(duration) // window
        ps = np.round(s.times * 1e12).astype(np.int64)
        counts = np.bincount(ps // window, minlength=n)[1:n]
        fano = counts.var(ddof=1) / counts.mean()
        batches = [b.var(ddof=1) / b.mean()
                   for b in np.array_split(counts, 20)]
        err = np.std(batches, ddof=1) / math.sqrt(len(batches))

        mu, s2, m3 = _interval_moments(det, rate)
        expected = s2 / mu ** 2 + mu / window * (
            1.0 / 6.0 + s2 ** 2 / (2.0 * mu ** 4) - m3 / (3.0 * mu ** 3))
        assert abs(fano - expected) < 4.0 * err, (fano, expected, err)

    @pytest.mark.parametrize("r_tau", [1.0, 10.0])
    def test_intervals_follow_exp_convolved_with_the_delay(self, law_stream,
                                                           r_tau):
        # Kolmogorov-Smirnov test of X - tau against E + D over the 1e5
        # intervals: sqrt(n) * D_n below 1.95, the asymptotic Kolmogorov
        # law's 0.1% point.  Seed 17 reads 0.62 and 0.74 (p = 0.84 and
        # 0.64).  At r tau = 10 the delay matters: against Exp(r) alone
        # the same intervals read 3.4 (p ~ 1e-10).
        det, _, s = law_stream(r_tau)
        ps = np.round(s.times * 1e12).astype(np.int64)
        y = np.sort(np.diff(ps) - seconds_to_ps(_LAW_TAU))
        cdf = _interval_cdf(det, r_tau / _LAW_TAU, y)
        n = len(y)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf),
                 np.max(cdf - np.arange(n) / n))
        assert math.sqrt(n) * ks < 1.95, ks


class TestMonotonicity:
    """Paired-seed sign tests over 10 seeds; substream separation makes the
    comparisons meaningful (changing one knob does not shift the other
    mechanisms' draws)."""

    SEEDS = range(10)

    def test_dark_counts_grow_with_temperature(self):
        for seed in self.SEEDS:
            cold = simulate(make_detector(-110.0, 0.115, 20e-6),
                            OpticalTimeline.empty(), 2.0, seed)
            warm = simulate(make_detector(-70.0, 0.115, 20e-6),
                            OpticalTimeline.empty(), 2.0, seed)
            assert len(warm) >= len(cold)

    def test_dark_counts_grow_with_efficiency(self):
        for seed in self.SEEDS:
            low = simulate(make_detector(-70.0, 0.115, 20e-6),
                           OpticalTimeline.empty(), 2.0, seed)
            high = simulate(make_detector(-70.0, 0.277, 20e-6),
                            OpticalTimeline.empty(), 2.0, seed)
            assert len(high) >= len(low)

    def test_afterpulses_fall_with_deadtime(self):
        tl = pulsed_laser(period=1e-6, mean_photon_number=0.3, count=100_000)
        for seed in self.SEEDS:
            short = simulate(make_detector(-90.0, 0.2, 2e-6), tl, 0.101, seed)
            long = simulate(make_detector(-90.0, 0.2, 10e-6), tl, 0.101, seed)
            assert _count_origin(short, ORIGIN_AFTERPULSE) > \
                _count_origin(long, ORIGIN_AFTERPULSE)

    def test_afterpulses_grow_as_temperature_falls(self):
        tl = pulsed_laser(period=1e-6, mean_photon_number=0.3, count=100_000)
        for seed in self.SEEDS:
            cold = simulate(make_detector(-110.0, 0.2, 20e-6), tl, 0.101,
                            seed)
            warm = simulate(make_detector(-50.0, 0.2, 20e-6), tl, 0.101, seed)
            assert _count_origin(cold, ORIGIN_AFTERPULSE) > \
                _count_origin(warm, ORIGIN_AFTERPULSE)


# Each click fills 50 traps that outlive a 1 us hold-off: every click breeds
# a detected descendant almost surely.
RUNAWAY = TrapModel(mean_traps_per_avalanche=50.0, efficiency_exponent=1.0,
                    efficiency_ref=0.115,
                    release_components=((1.0, 100e-6, 100.0),),
                    reference_temperature=183.15)

# Each click fills 50 traps of 2 us: past the hold-off, a release finds the
# detector armed before any fresh candidate almost surely (lambda * b_first
# is about 12), so the quadratic root leaves no armed time.
PAST_RUNAWAY = TrapModel(mean_traps_per_avalanche=50.0,
                         efficiency_exponent=1.0, efficiency_ref=0.115,
                         release_components=((1.0, 2e-6, 100.0),),
                         reference_temperature=183.15)

# (C, armed) reprs of the closed form at candidate rates 0, 1e5 and 1e9 cps.
# The first two were recorded before the afterpulse feedback and the
# saturation root became one function; the 1e9-cps ones are the root's own,
# recorded when the 0.1% armed-fraction floor was dropped.
CLOSED_FORM_REPRS = {
    "disabled": ("(0.0, 1.0)",
                 "(33333.333333333336, 0.33333333333333326)",
                 "(49997.50012499375, 4.999750012490978e-05)"),
    "reference": ("(0.0, 1.0)",
                  "(np.float64(33425.68548835774), "
                  "np.float64(0.33148629023284515))",
                  "(np.float64(49997.50012811948), "
                  "np.float64(4.9997437610360684e-05))"),
    "warm": ("(0.0, 1.0)",
             "(np.float64(173843.26776680222), "
             "np.float64(0.6523134644663956))",
             "(np.float64(499750.265861503), "
             "np.float64(0.0004994682769939862))"),
    "runaway": ("(0.0, 1.0)",
                "(np.float64(989183.0807879195), "
                "np.float64(0.010816919212080611))",
                "(np.float64(999048.0567546842), "
                "np.float64(0.0009519432453158894))"),
}


CLOSED_FORM_DETECTORS = {
    "disabled": make_detector(-110.0, 0.115, 20e-6,
                              trap_model=TrapModel.disabled()),
    "reference": make_detector(-110.0, 0.115, 20e-6),
    "warm": make_detector(-50.0, 0.30, 2e-6),
    "runaway": make_detector(-90.0, 0.115, 1e-6, trap_model=RUNAWAY),
}


class TestAfterpulseAnalytics:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_REPRS))
    def test_closed_form_keeps_its_bits(self, name):
        # repr pins the value and its type: numpy scalars where the trap
        # sum ran, native floats elsewhere (session digests hash reprs).
        det = CLOSED_FORM_DETECTORS[name]
        got = tuple(repr(_saturated_rates(det, r)) for r in (0.0, 1e5, 1e9))
        assert got == CLOSED_FORM_REPRS[name]

    def test_closed_form_limits(self):
        plain = CLOSED_FORM_DETECTORS["disabled"]
        r0, tau = 1e5, plain.deadtime
        assert _saturated_rates(plain, r0)[0] == r0 / (1.0 + r0 * tau)
        assert _saturated_rates(plain, 0.0) == (0.0, 1.0)
        clicks, _ = _saturated_rates(CLOSED_FORM_DETECTORS["reference"], r0)
        assert clicks > r0 / (1.0 + r0 * tau)
        _, armed = _saturated_rates(CLOSED_FORM_DETECTORS["runaway"], r0)
        assert 0.0 < armed < 1.0

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_DETECTORS))
    def test_past_1e154_candidates_per_hold_off_one_click_per_hold_off(
            self, name):
        # k * k overflowed here: the root read (0.0, 1.0), with numpy's
        # overflow warning where the trap sum ran.
        det = CLOSED_FORM_DETECTORS[name]
        clicks, armed = _saturated_rates(det, 1e300)
        assert clicks == pytest.approx(1.0 / det.deadtime, rel=1e-12)
        assert 0.0 <= armed < 1e-12

    @pytest.mark.parametrize("deadtime", [1e4, 1e44, 1e134])
    def test_near_saturation_the_armed_fraction_keeps_its_digits(
            self, deadtime):
        # 1 - C*deadtime kept only rounding noise here: 1 - 2.7e-8 times
        # the fraction at 1e4 s, and 0.0 at 1e44 s.
        det = make_detector(-110.0, 0.115, deadtime,
                            trap_model=TrapModel.disabled())
        _, armed = _saturated_rates(det, 1e5)
        assert armed == pytest.approx(1.0 / (1.0 + 1e5 * deadtime),
                                      rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("deadtime", [1e44, 1e134, 1e294, 1e302])
    def test_at_saturation_every_click_is_a_primary(self, deadtime):
        # No release outlives these hold-offs, so the link's QBER is the
        # trap-free one.  It read 0.5: the armed fraction was rounding
        # noise or 0, and at 1e302 s r0*deadtime overflowed to no clicks.
        cfg = LinkConfig(channel_loss_db=5.0, mu=1e9)
        free = make_detector(-90.0, 0.115, 20e-6,
                             trap_model=TrapModel.disabled())
        det = make_detector(-90.0, 0.115, deadtime)
        metrics = link_metrics(cfg, QkdOperatingPoint(det, det))
        trap_free = link_metrics(cfg, QkdOperatingPoint(free, free))
        assert metrics.qber == pytest.approx(trap_free.qber, rel=1e-9)
        assert metrics.sifted_rate == pytest.approx(1.0 / deadtime,
                                                    rel=1e-9, abs=0.0)
        assert metrics.skr == 0.0

    def test_equal_trap_models_share_one_cache_entry(self):
        _trap_components.cache_clear()
        a = make_detector(-90.0, 0.115, 10e-6)
        b = make_detector(-90.0, 0.2, 40e-6,
                          trap_model=dataclasses.replace(a.trap_model))
        assert b.trap_model is not a.trap_model
        _saturated_rates(a, 1e5)
        _saturated_rates(b, 1e5)
        info = _trap_components.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    def test_a_lifetime_that_overflows_raises_on_every_call(self):
        # An error is not cached: the second call raises it again.
        det = _lifetime_detector(-110.0, (1.0, 1e-6, 2e6))
        for _ in range(2):
            with pytest.raises(ParameterError, match="component 0"):
                _saturated_rates(det, 1e5)

    def test_the_trap_cache_is_bounded(self):
        _trap_components.cache_clear()
        size = _trap_components.cache_info().maxsize
        assert size is not None
        trap = make_detector(-90.0, 0.115, 10e-6).trap_model
        for k in range(size + 10):
            _trap_components(trap, 150.0 + 0.01 * k)
        assert _trap_components.cache_info().currsize == size

    def test_runaway_link_has_no_key(self):
        det = CLOSED_FORM_DETECTORS["runaway"]
        metrics = link_metrics(LinkConfig(channel_loss_db=5.0),
                               QkdOperatingPoint(det, det))
        assert metrics.skr == 0.0
        assert metrics.qber <= 0.5

    @pytest.mark.parametrize("r0", [1e3, 1e5])
    def test_past_runaway_the_rates_are_the_limit(self, r0):
        det = make_detector(-90.0, 0.115, 1e-6, trap_model=PAST_RUNAWAY)
        assert _saturated_rates(det, r0) == (1e6, 0.0)

    def test_a_root_lost_to_rounding_is_the_runaway_limit(self):
        # Releases of a 2 ns trap survive a 1 us hold-off with e^-500: b is
        # about 7, but b_late, and with it g, underflows to 0.  So k < 0
        # and k + sqrt(k^2 + 4*g*r0) is 0.
        traps = dataclasses.replace(PAST_RUNAWAY,
                                    mean_traps_per_avalanche=1e218,
                                    release_components=((1.0, 2e-9, 100.0),))
        det = make_detector(-90.0, 0.115, 1e-6, trap_model=traps)
        assert _saturated_rates(det, 1e3) == (1e6, 0.0)

    def test_past_runaway_the_link_has_no_key(self):
        det = make_detector(-90.0, 0.115, 1e-6, trap_model=PAST_RUNAWAY)
        metrics = link_metrics(LinkConfig(channel_loss_db=5.0),
                               QkdOperatingPoint(det, det))
        assert metrics.qber == 0.5
        assert metrics.skr == 0.0

    def test_dark_rate_shortcut(self):
        det = make_detector(-110.0, 0.115, 20e-6)
        assert dark_rate(det) == det.dark_model.rate(
            celsius_to_kelvin(-110.0), 0.115)

