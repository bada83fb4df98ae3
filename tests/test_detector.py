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
from nfadsim.detector import (afterpulse_feedback, dark_rate,
                              first_generation_afterpulses, simulate,
                              simulate_reference, total_afterpulses)
from nfadsim.engine import RandomStream, pulsed_laser, seconds_to_ps
from nfadsim.errors import ParameterError
from nfadsim.params import (ORIGIN_AFTERPULSE, ORIGIN_DARK, DarkRateModel,
                            DetectorParams, JitterModel, OpticalTimeline,
                            TrapModel, celsius_to_kelvin)


def _count_origin(stream, code) -> int:
    return int(np.count_nonzero(stream.origins == code))


class TestReferenceEquality:
    """The event-queue reimplementation pins the kernel's semantics.

    Any drift in event ordering, armed-state checks, or per-substream draw
    order shows up as a mismatch here.
    """

    CASES = [
        # (temp C, eta, deadtime, mu, pulse period, background cps)
        (-90.0, 0.25, 3e-6, 0.3, 1e-6, 0.0),
        (-110.0, 0.115, 20e-6, 0.91, 5e-6, 0.0),
        (-50.0, 0.10, 2e-6, 0.5, 2e-6, 2e4),
        (-70.0, 0.32, 10e-6, 0.0, 1e-6, 5e4),   # dark/background only clicks
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_kernel_matches_reference(self, case):
        temp_c, eta, deadtime, mu, period, bg = case
        det = make_detector(temp_c, eta, deadtime)
        count = int(0.01 / period)
        tl = pulsed_laser(period=period, mean_photon_number=mu, count=count)
        if bg:
            tl = OpticalTimeline(times=tl.times,
                                 mean_photon_numbers=tl.mean_photon_numbers,
                                 background_rate=bg)
        fast = simulate(det, tl, 0.011, 99)
        slow = simulate_reference(det, tl, 0.011, 99)
        assert len(fast) > 0
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.origins, slow.origins)

    def test_pulses_on_candidate_picoseconds_match_reference(self):
        # Dark and background candidate times come from their own substreams
        # alone, so pulses can be put on exactly those picoseconds: every
        # pulse ties with a candidate, and the pulse must go first.
        det = _fuzz_detector(-90.0, 0.3, 1e-6, 0.2, 0.5, [(1.0, 2.0)],
                             300e-12, 0.1, 2.8, 0.001)
        duration, bg_rate, seed = 2e-3, 2e5 / 0.3, 8
        stream = RandomStream(seed)
        ticks = set()
        for name, rate in (("darks", dark_rate(det)),
                           ("background", bg_rate * det.efficiency)):
            gen, t = stream.generator(name), 0
            while t < seconds_to_ps(duration):
                t += int(-math.log(1.0 - gen.random()) / rate * 1e12)
                ticks.add(t)
        times = np.array(sorted(ticks)[::2]) / 1e12
        tl = OpticalTimeline(times=times,
                             mean_photon_numbers=np.full(len(times), 2.0),
                             background_rate=bg_rate)
        fast = simulate(det, tl, duration, seed)
        slow = simulate_reference(det, tl, duration, seed)
        assert len(fast) > 300
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.origins, slow.origins)

    def test_dark_goes_before_a_release_at_the_same_picosecond(self):
        # The reference pops EVENT_DARK before EVENT_RELEASE at equal times.
        # Release times cannot be set from outside, so the kernel step is
        # checked directly: the dark candidate is served and draws its
        # successor's gap, and the release stays on the heap.
        heap = [50, _kernels.NEVER]
        t, origin, next_dark = _kernels._next_click(
            100, 50, 0, heap, 1e6, RandomStream(1).generator("darks"))
        assert (t, origin) == (50, ORIGIN_DARK) and next_dark > 50
        assert heap == [50, _kernels.NEVER]

    @pytest.mark.parametrize("deadtime_ps, kept", [(4000, True),
                                                   (4001, False)])
    def test_release_at_rearm_is_kept_and_earlier_ones_are_not(
            self, deadtime_ps, kept):
        # A click at 0 ps recorded at 1000 ps (pure latency) fills one trap
        # whose release lands at 5000 ps.  Re-arm at exactly 5000 ps makes it
        # live (armed means t >= armed_from); one more ps of hold-off makes
        # it unable to click, so it never goes onto the heap.
        jitter = (0.0, 1.0, 0.0, 1000)    # always the tail, of scale 0
        traps = (1.0, (1.0,), (5000.5 / math.log(2.0),))
        heap = [_kernels.NEVER]
        recorded = _kernels._avalanche_step(
            (deadtime_ps, 0.0, traps, jitter),
            {"jitter": _Scripted([0.5, 0.5]),       # tail branch, x = 0
             "traps": _Scripted([0.5, 0.1, 0.0, 0.5])},  # 1 trap, comp 0, ln 2
            heap)(0)
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
        with RandomStream(1).uniforms(RandomStream.SUBSTREAMS) as gens:
            recorded, _ = _kernels.free_run(5000, 0.0, times, p_click, det,
                                            gens)
        assert recorded == clicks


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
    def test_a_release_exactly_at_rearm_is_kept(self, ulps_below, kept):
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
            {"jitter": _Scripted([0.5, 0.5]),       # tail branch, x = 0
             "traps": _Scripted([0.5, 0.1, 0.0, u])},  # 1 trap, comp 0
            heap)(0)
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


class _Scripted:
    """A uniform source that returns given values in order."""

    def __init__(self, values):
        self.random = iter(values).__next__


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


def _fuzz_timeline(ticks, duration, mu, bg_rt, deadtime):
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
                           mean_photon_numbers=np.full(len(times), mu),
                           background_rate=bg_rt / deadtime)


_FUZZ_BASE = dict(temp_c=-90.0, eta=0.2, deadtime=2e-6, n_dead=200,
                  dark_rt=0.5, trap_mean=0.6, components=[(1.0, 2.0)],
                  fwhm=300e-12, tail_fraction=0.1, tail_scale=2.8,
                  latency_dt=0.0005, ticks=list(range(0, 1001, 50)), mu=0.5,
                  bg_rt=0.0, seed=1)


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
           bg_rt=st.integers(0, 500).map(lambda k: k / 100),
           seed=st.integers(0, 2**32 - 1))
    @example(**dict(_FUZZ_BASE, dark_rt=0.0))                 # no darks
    @example(**dict(_FUZZ_BASE, bg_rt=2.0))                   # background
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
                                      ticks, mu, bg_rt, seed):
        det = _fuzz_detector(temp_c, eta, deadtime, dark_rt, trap_mean,
                             components, fwhm, tail_fraction, tail_scale,
                             latency_dt)
        duration = n_dead * deadtime
        tl = _fuzz_timeline(ticks, duration, mu, bg_rt, deadtime)
        fast_stream, slow_stream = RandomStream(seed), RandomStream(seed)
        fast = simulate(det, tl, duration, fast_stream)
        slow = simulate_reference(det, tl, duration, slow_stream)
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.origins, slow.origins)
        # Every substream ends where the reference leaves it, so a later
        # call on the same stream continues from the same draw.
        for name in ("darks", "photons", "traps", "jitter", "background"):
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
    def test_pulse_times_just_inside_the_ps_grid_run(self, sim, flat_dark):
        tl = OpticalTimeline(np.array([4.6e6]), np.array([0.0]))
        assert len(sim(flat_dark(0.0, 5e-6), tl, 1.0, 1)) == 0

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    def test_duration_just_inside_the_ps_grid_runs(self, sim, flat_dark):
        s = sim(flat_dark(0.0, 5e-6), OpticalTimeline.empty(), 4.6e6, 1)
        assert len(s) == 0

    @pytest.mark.parametrize("sim", [simulate, simulate_reference])
    @pytest.mark.parametrize("dark_cps, bg_cps", [(1e-300, 0.0),
                                                  (0.0, 1e-300)])
    def test_rates_with_infinite_gaps_are_rejected(self, sim, flat_dark,
                                                   dark_cps, bg_cps):
        # Below about 2e-295 cps, -ln(1 - u) / rate in ps is inf.
        tl = dataclasses.replace(OpticalTimeline.empty(),
                                 background_rate=bg_cps)
        with pytest.raises(ParameterError, match="picosecond grid"):
            sim(flat_dark(dark_cps, 5e-6), tl, 0.01, 1)

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

    def test_no_generation_mechanism_no_clicks(self, flat_dark):
        det = flat_dark(0.0, 5e-6)
        tl = pulsed_laser(period=1e-6, mean_photon_number=0.0, count=5000)
        assert len(simulate(det, tl, 0.006, 44)) == 0


class TestPulseMemory:
    def test_simulate_adds_little_beyond_the_pulse_arrays(self):
        # The kernel reads the int64 times and float64 click probabilities
        # in place; list copies of them cost about 76 bytes per pulse.
        n = 200_000
        det = make_detector(-110.0, 0.115, 20e-6)
        tl = pulsed_laser(period=1e-6, mean_photon_number=3.0, count=n)
        tracemalloc.start()
        try:
            clicks = simulate(det, tl, n * 1e-6, RandomStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clicks) > 1000
        assert (peak - 16 * n) / n < 16


class TestDeadtimeLaw:
    @pytest.mark.parametrize("r_tau", [0.01, 0.1, 1.0, 10.0])
    def test_saturation_within_three_sigma(self, flat_dark, r_tau):
        tau = 1e-6
        rate = r_tau / tau
        expected_rate = rate / (1.0 + rate * tau)
        duration = 1.0e5 / expected_rate   # about 1e5 detected events
        det = flat_dark(rate, tau)
        s = simulate(det, OpticalTimeline.empty(), duration, 17)
        expected = expected_rate * duration
        # Poisson bound overestimates the variance of a deadtime-thinned
        # count, so three of these sigmas is conservative.
        assert abs(len(s) - expected) <= 3.0 * math.sqrt(expected)


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


class TestAfterpulseAnalytics:
    def test_first_generation_hand_formula(self):
        det = make_detector(-90.0, 0.115, 20e-6)
        trap = det.trap_model
        lam = trap.mean_traps(det.efficiency)
        expected = lam * sum(
            w * math.exp(-det.deadtime / tau) for (w, _, _), tau in
            zip(trap.release_components,
                trap.lifetimes_at(det.temperature)))
        assert first_generation_afterpulses(det) == pytest.approx(
            expected, rel=1e-12)

    def test_cascade_closure_is_geometric(self):
        det = make_detector(-110.0, 0.115, 20e-6)
        b = first_generation_afterpulses(det)
        assert 0.0 < b < 1.0
        assert total_afterpulses(det) == pytest.approx(b / (1.0 - b),
                                                       rel=1e-12)

    def test_divergent_cascade_rejected(self):
        hot = TrapModel(mean_traps_per_avalanche=50.0,
                        efficiency_exponent=1.0, efficiency_ref=0.115,
                        release_components=((1.0, 100e-6, 100.0),),
                        reference_temperature=183.15)
        det = make_detector(-90.0, 0.115, 1e-6, trap_model=hot)
        with pytest.raises(ParameterError):
            total_afterpulses(det)

    def test_feedback_limits(self):
        det = make_detector(-90.0, 0.115, 20e-6)
        b, g = afterpulse_feedback(det, 1e5)
        lam = det.trap_model.mean_traps(det.efficiency)
        assert 0.0 < b < lam
        assert g > 0.0
        disabled = make_detector(-90.0, 0.115, 20e-6,
                                 trap_model=TrapModel.disabled())
        assert afterpulse_feedback(disabled, 1e5) == (0.0, 0.0)

    def test_dark_rate_shortcut(self):
        det = make_detector(-110.0, 0.115, 20e-6)
        assert dark_rate(det) == det.dark_model.rate(
            celsius_to_kelvin(-110.0), 0.115)

