"""Quiet-window protocol estimators: frozen oracles and closed loops."""

import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfadsim import _kernels
from nfadsim.calibration import make_detector
from nfadsim.characterize import (_CYCLE_TIMEOUT, _JITTER_CHUNK, _MAX_BINS,
                                  _MAX_DRAWS, CharacterizationCounts,
                                  JitterHistogram, ProtocolConfig,
                                  _exact_histogram,
                                  afterpulse_total, characterize_point,
                                  efficiency_estimate, figure_of_merit,
                                  measure_jitter_histogram, run_protocol,
                                  tcspc_widths)
from nfadsim.detector import _MAX_UNIT_GAP, _kernel_args
from nfadsim.engine import RandomStream, seconds_to_ps
from nfadsim.errors import (EstimatorDomainError, NoSignalError,
                            OpenSupportError, ParameterError,
                            ProtocolStarvationError)
from nfadsim.params import DarkRateModel


def _counts(c_d=9516, c_lp=100_000, r_dc=50.0, f=50e6, mu=0.91,
            histogram=None, deadtime=20e-6, dark_counts=2500,
            dark_live_time=50.0):
    if histogram is None:
        histogram = np.zeros(7500, dtype=np.int64)
    return CharacterizationCounts(
        c_d=c_d, c_lp=c_lp, r_dc=r_dc, histogram=np.asarray(histogram),
        f=f, mu=mu, deadtime=deadtime, live_time=dark_live_time,
        dark_counts=dark_counts)


class TestProtocolConfig:
    def test_defaults_are_valid(self):
        cfg = ProtocolConfig()
        assert cfg.bin_width == pytest.approx(20e-9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ProtocolConfig(pulses_requested=0)
        with pytest.raises(ParameterError):
            ProtocolConfig(quiet_window=0.05)  # the cycle timeout
        # NaN passed "<= 0" and ran with mu = nan; 1.5 pulses raised an
        # untyped TypeError inside the kernel.
        for field, value in (("laser_mu", math.nan), ("laser_mu", math.inf),
                             ("pulses_requested", 1.5)):
            with pytest.raises(ParameterError, match=field):
                ProtocolConfig(**{field: value})

    def test_quiet_window_policy_warning(self):
        with pytest.warns(UserWarning):
            ProtocolConfig(quiet_window=50e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ProtocolConfig(quiet_window=75e-6)
            ProtocolConfig(quiet_window=150e-6)


class TestCountsContainer:
    def test_click_fraction_bounds(self):
        with pytest.raises(ParameterError):
            _counts(c_d=101, c_lp=100)
        with pytest.raises(ParameterError):
            _counts(c_d=100, c_lp=100)

    def test_dark_rate_below_clock(self):
        with pytest.raises(ParameterError):
            _counts(r_dc=60e6, f=50e6)

    def test_structural_bins_cover_the_holdoff(self):
        counts = _counts(deadtime=20e-6, f=50e6)
        assert counts.structural_bins == 1000
        assert _counts(deadtime=1e-6, f=1e6).structural_bins == 1

    def test_r_dc_error_is_poisson(self):
        counts = _counts(dark_counts=2500, dark_live_time=50.0)
        assert counts.r_dc_error == pytest.approx(1.0)


class TestEfficiencyEstimator:
    def test_frozen_oracle(self):
        # Hand-computed from eta = ln((1-r_dc/f)/(1-C_d/C_lp))/mu with
        # binomial + Poisson errors through the delta method.
        est = efficiency_estimate(_counts())
        assert est.value == pytest.approx(0.10988587526593656, rel=1e-12)
        assert est.error == pytest.approx(0.0011269377547741687, rel=1e-12)

    def test_dark_free_value(self):
        counts = _counts(c_d=9940, c_lp=100_000, r_dc=0.0, dark_counts=0)
        assert efficiency_estimate(counts).value == pytest.approx(0.11505,
                                                                  abs=2e-5)

    def test_dark_corrected_value(self):
        counts = _counts(c_d=10_000, c_lp=100_000, r_dc=100.0)
        assert efficiency_estimate(counts).value == pytest.approx(0.11578,
                                                                  abs=2e-5)

    def test_strictly_increasing_in_click_fraction(self):
        values = [efficiency_estimate(_counts(c_d=c)).value
                  for c in range(5_000, 30_000, 2_500)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_dark_rate(self):
        values = [efficiency_estimate(_counts(r_dc=r)).value
                  for r in (0.0, 10.0, 100.0, 1000.0, 10000.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(EstimatorDomainError):
            efficiency_estimate(_counts(c_d=0, c_lp=0))
        # Clicks below the dark expectation imply negative efficiency.
        with pytest.raises(EstimatorDomainError):
            efficiency_estimate(_counts(c_d=1, c_lp=100_000, r_dc=25e6))


class TestAfterpulseEstimator:
    def test_frozen_single_live_bin_oracle(self):
        hist = np.array([0, 22], dtype=np.int64)
        counts = _counts(c_d=1000, c_lp=10_000, r_dc=1.0, f=1e6,
                         histogram=hist, deadtime=1e-6, dark_counts=1,
                         dark_live_time=1.0)
        est = afterpulse_total(counts)
        assert est.value == pytest.approx(0.021998999999999998, rel=1e-12)
        assert est.error == pytest.approx(0.004690415866423787, rel=1e-12)

    def test_requires_detections(self):
        with pytest.raises(NoSignalError):
            afterpulse_total(_counts(c_d=0, c_lp=100))

    def test_requires_live_bins(self):
        hist = np.zeros(2, dtype=np.int64)
        counts = _counts(histogram=hist, deadtime=40e-6, f=50e3)
        with pytest.raises(ParameterError):
            afterpulse_total(counts)


class TestProtocolHistogram:
    def test_structural_bins_stay_empty(self):
        det = make_detector(-110.0, 0.115, 20e-6)
        counts = run_protocol(det, ProtocolConfig(pulses_requested=50_000),
                              RandomStream(56))
        assert counts.structural_bins == 1000
        assert int(counts.histogram[:counts.structural_bins].sum()) == 0


class TestProtocolClosedLoop:
    def test_efficiency_recovered_within_three_errors(self, cascade_bound):
        # Operating point safely inside the estimator's stated envelope:
        # analytic afterpulse total about 1.9%, dark rate about 41 cps.
        det = make_detector(-90.0, 0.16, 20e-6)
        assert cascade_bound(det) < 0.10
        assert det.dark_model.rate(det.temperature, det.efficiency) < 1e4
        counts = run_protocol(det, ProtocolConfig(), RandomStream(77))
        est = efficiency_estimate(counts)
        assert abs(est.value - 0.16) <= 3.0 * est.error

    def test_quiet_window_choice_does_not_move_the_estimate(self):
        det = make_detector(-110.0, 0.115, 20e-6)
        estimates = []
        for window in (75e-6, 150e-6):
            cfg = ProtocolConfig(quiet_window=window,
                                 pulses_requested=200_000)
            counts = run_protocol(det, cfg, RandomStream(60))
            estimates.append(efficiency_estimate(counts))
        (a, b) = estimates
        combined = math.hypot(a.error, b.error)
        assert abs(a.value - b.value) < combined

    def test_afterpulse_estimate_matches_cascade_oracle(self):
        # Warm + short-lifetime point: every release chain is resolved well
        # within one histogram span and the quiet window, so an isolated
        # cascade Monte Carlo is a faithful oracle for the protocol output.
        det = make_detector(-50.0, 0.115, 5e-6)
        counts = run_protocol(det, ProtocolConfig(pulses_requested=300_000),
                              RandomStream(88))
        est = afterpulse_total(counts)
        oracle = _cascade_oracle(det, span=150e-6, n_trials=10_000_000,
                                 seed=123456)
        assert abs(est.value - oracle) <= 3.0 * est.error

    def test_characterize_point_bundles_consistently(self):
        det = make_detector(-110.0, 0.115, 20e-6)
        result = characterize_point(det, ProtocolConfig(
            pulses_requested=100_000), RandomStream(61))
        assert abs(result.efficiency.value - 0.115) < 4 * result.efficiency.error
        assert result.efficiency_systematic == pytest.approx(
            result.efficiency.value * 0.029)
        assert result.dark_rate.value >= 0.0
        assert len(result.counts.histogram) == 7500

    def test_characterize_point_keeps_a_negative_afterpulse_estimate(self):
        # Few afterpulses survive a 100 us hold-off, the longest the default
        # quiet window allows, so on some seeds the estimate falls more
        # than one standard error below zero; the command writes such
        # estimates, and the bundle returns them too.
        det = make_detector(-70.0, 0.20, 100e-6)
        result = characterize_point(det, ProtocolConfig(
            pulses_requested=20_000), RandomStream(6))
        assert result.efficiency.value == pytest.approx(0.20, abs=0.002)
        assert result.afterpulse_total == (-0.008747818170398665,
                                           0.0036183151936906768)
        assert result.afterpulse_total == afterpulse_total(result.counts)


def _cascade_oracle(det, span, n_trials, seed):
    """Expected afterpulse clicks per detection from the trap model alone.

    Generation-by-generation vectorized cascade: each click fills
    Poisson(lambda) traps, a release clicks when it outlives the parent's
    hold-off and lands inside the span.  Blocking between cascade siblings
    is ignored (second order here, far below the comparison's resolution).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    trap = det.trap_model
    lam = trap.mean_traps(det.efficiency)
    weights = trap.weights()
    taus = trap.lifetimes_at(det.temperature)
    parents = np.zeros(n_trials)
    clicks = 0
    while len(parents):
        k = rng.poisson(lam, len(parents))
        t_parent = np.repeat(parents, k)
        comp = rng.choice(len(weights), size=len(t_parent), p=weights)
        delay = rng.exponential(taus[comp])
        t_release = t_parent + delay
        alive = (delay >= det.deadtime) & (t_release < span)
        clicks += int(np.count_nonzero(alive))
        parents = t_release[alive]
    return clicks / n_trials


def _flat_dark(rate_cps, deadtime=10e-6):
    """The calibrated -90 C, 11.5% detector with a flat dark rate."""
    flat = DarkRateModel(amplitude_thermal=0.0, activation_temperature=0.0,
                         floor=rate_cps, efficiency_exponent=0.0,
                         efficiency_ref=0.115)
    return make_detector(-90.0, 0.115, deadtime, dark_model=flat)


class TestProtocolValidation:
    def test_span_must_cover_deadtime(self):
        det = make_detector(-90.0, 0.115, 200e-6)
        with pytest.raises(ParameterError):
            run_protocol(det, ProtocolConfig(), RandomStream(1))

    def test_deadtime_beyond_the_quiet_window_rejected(self):
        # The pulse after the quiet window would meet a held-off detector:
        # at 101 us the efficiency read 0.145 of 0.20.
        det = make_detector(-70.0, 0.20, 101e-6)
        with pytest.raises(ParameterError, match="deadtime"):
            run_protocol(det, ProtocolConfig(), RandomStream(1))

    def test_span_of_over_a_million_clock_bins_rejected(self):
        # The kernel holds one list entry per bin of the span.
        ProtocolConfig(histogram_span=20e-3)        # 10**6 bins at 50 MHz
        for span in (20.001e-3, 1e300):
            with pytest.raises(ParameterError, match="histogram_span"):
                ProtocolConfig(histogram_span=span)

    def test_deadtime_below_clock_bin_rejected(self):
        det = make_detector(-90.0, 0.115, 10e-9)
        with pytest.raises(ParameterError):
            run_protocol(det, ProtocolConfig(), RandomStream(1))

    def test_noisy_detector_starves_the_quiet_window(self):
        with pytest.raises(ProtocolStarvationError):
            run_protocol(_flat_dark(2e5, 20e-6),
                         ProtocolConfig(pulses_requested=10), RandomStream(2))

    def test_a_detector_that_never_keeps_quiet_starves_at_once(
            self, monkeypatch):
        # At 1e9 cps every re-arm meets a dark candidate within 37 ns, so no
        # 100 us quiet window completes after a click: the kernel gets a 0 ps
        # timeout and stops at the first click of its first quiet wait.
        timeouts, kernel = [], _kernels.characterize

        def recorded(*args):
            timeouts.append(args[5])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "characterize", recorded)
        with pytest.raises(ProtocolStarvationError):
            run_protocol(_flat_dark(1e9), ProtocolConfig(pulses_requested=2),
                         RandomStream(1))
        assert timeouts == [0]

    @pytest.mark.parametrize("pulses", [1, 2, 20])
    @pytest.mark.parametrize("factor", [0.5, 0.97, 1.03, 3.0])
    def test_a_quick_starvation_keeps_the_outcome(self, monkeypatch, factor,
                                                  pulses):
        # On each side of the rate above which no quiet window can complete
        # after a click, the kernel run_protocol calls gives what it gives
        # with the full 0.05 s timeout, or both starve.
        deadtime_ps, _, _, (sigma_ps, _, tail_scale, latency_ps) = \
            _kernel_args(_flat_dark(1.0))
        slack_ps = (seconds_to_ps(100e-6) - deadtime_ps - 2 - latency_ps
                    - sigma_ps * max(13.0, 37.4 * tail_scale))
        det = _flat_dark(factor * _MAX_UNIT_GAP * 1e12 / slack_ps)
        full_ps = seconds_to_ps(_CYCLE_TIMEOUT)
        seen, kernel = [], _kernels.characterize

        def both(*args):
            full = kernel(*args[:5], full_ps, args[6], copy.deepcopy(args[7]))
            seen.append((args[5], full, kernel(*args)))
            return seen[-1][2]

        monkeypatch.setattr(_kernels, "characterize", both)
        for seed in (1, 2, 3):
            raised = None
            try:
                run_protocol(det, ProtocolConfig(pulses_requested=pulses),
                             RandomStream(seed))
            except (ProtocolStarvationError, EstimatorDomainError) as exc:
                raised = type(exc)
            timeout_ps, full, got = seen[-1]
            assert timeout_ps == (0 if factor > 1.0 else full_ps)
            if full[4]:
                assert raised is ProtocolStarvationError
            else:
                assert got == full and raised is not ProtocolStarvationError

    def test_a_dark_pass_at_the_clock_rate_is_out_of_domain(self):
        # One pulse, no click in its bin: the dark pass spans the 20 ns bin
        # and counts one dark click, 50 MHz, which the estimators cannot
        # take (r_dc must stay below f).
        with pytest.raises(EstimatorDomainError, match="clock"):
            run_protocol(_flat_dark(1e6), ProtocolConfig(pulses_requested=1),
                         RandomStream(1))


class TestJitterWidths:
    def test_widths_track_the_analytic_mixture(self):
        det = make_detector(-110.0, 0.16, 20e-6)
        hist = measure_jitter_histogram(det, 1_000_000, RandomStream(7))
        assert hist.counts.sum() == 1_000_000
        jm = det.jitter_model
        for level in (0.5, 0.01):
            measured = tcspc_widths(hist, level)
            assert measured == pytest.approx(
                jm.predicted_width(0.16, level), rel=0.05)

    def test_histogram_peak_memory_is_bounded_by_the_chunk(self):
        # Drawing 4e6 delays whole and binning them with np.histogram
        # traced 39 MB, and 64 K chunks with one bool per tail decision
        # 6 MB.  The tail decisions packed one bit each (0.5 MB) and one
        # 16 K chunk's temporaries remain: 1.2 MB.
        det = make_detector(-110.0, 0.16, 20e-6)
        measure_jitter_histogram(det, 10, RandomStream(7))   # lazy imports
        tracemalloc.start()
        try:
            measure_jitter_histogram(det, 4_000_000, RandomStream(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    # 1.5 raised numpy's untyped TypeError.
    @pytest.mark.parametrize("draws", [0, _MAX_DRAWS + 1, 10**11, 1.5])
    def test_a_draw_count_off_its_range_is_rejected(self, draws):
        det = make_detector(-110.0, 0.16, 20e-6)
        with pytest.raises(ParameterError, match="draws"):
            measure_jitter_histogram(det, draws, RandomStream(7))

    @pytest.mark.parametrize("bin_width",
                             [1e-300, 0.0, -2e-12, math.nan, math.inf])
    def test_a_bin_width_off_its_range_is_rejected(self, bin_width):
        # 1e-300 s asks for about 1e291 bins, past what numpy can allocate;
        # an infinite width gives np.histogram an infinite range.
        det = make_detector(-110.0, 0.115, 20e-6)
        with pytest.raises(ParameterError, match="bin_width"):
            measure_jitter_histogram(det, 1000, RandomStream(1),
                                     bin_width=bin_width)

    def test_the_old_narrowest_bin_is_rejected_before_drawing(self):
        # latency + 10 FWHM over 10**6 bins, the narrowest width accepted
        # before the span grew with the draw count: 1e6 delays reached
        # 1.18e6 to 1.24e6 such bins (seeds 1-3), the exponential tail's
        # maximum growing with ln(draws).
        det = make_detector(-110.0, 0.115, 20e-6)
        jm = det.jitter_model
        width = (jm.latency + 10.0 * jm.fwhm_at(0.115)) / _MAX_BINS
        for seed in (1, 2, 3):
            with pytest.raises(ParameterError, match="bin_width"):
                measure_jitter_histogram(det, 1_000_000, RandomStream(seed),
                                         bin_width=width)

    def test_a_bin_just_wider_than_the_bound_runs(self):
        # 10**6 bins of 10 fs span 10 ns, just past the 9.50 ns bound
        # latency + sigma * 2.8 * (ln(1e6) + 30).
        det = make_detector(-110.0, 0.115, 20e-6)
        hist = measure_jitter_histogram(det, 1_000_000, RandomStream(1),
                                        bin_width=10e-15)
        assert len(hist.counts) <= _MAX_BINS
        assert hist.counts.sum() == 1_000_000

    def test_binning_past_the_bin_bound_raises(self):
        # Widths and delays in binary fractions: the last value's bin is
        # exactly 10**6 - 1, then 10**6.
        top = (_MAX_BINS - 1) * 0.5
        assert len(_exact_histogram([np.array([0.0, top])], 0.5)) == _MAX_BINS
        with pytest.raises(ParameterError, match="bin_width"):
            _exact_histogram([np.array([0.0]), np.array([top + 0.5])], 0.5)

    def test_too_few_draws_rejected(self):
        det = make_detector(-110.0, 0.16, 20e-6)
        hist = measure_jitter_histogram(det, 1_000, RandomStream(8))
        with pytest.raises(NoSignalError):
            tcspc_widths(hist, 0.5)

    def test_open_support_detected(self):
        hist = JitterHistogram(bin_width=2e-12,
                               counts=np.array([1000, 900], dtype=np.int64))
        with pytest.raises(OpenSupportError):
            tcspc_widths(hist, 0.5)

    def test_level_domain(self):
        hist = JitterHistogram(bin_width=2e-12,
                               counts=np.array([10, 1000, 10],
                                               dtype=np.int64))
        with pytest.raises(ParameterError):
            tcspc_widths(hist, 0.0)
        with pytest.raises(ParameterError):
            tcspc_widths(hist, 1.0)


def _jitter_expression(params, n, generator):
    """The delays drawn whole, with every temporary kept: the byte oracle."""
    jm = params.jitter_model
    sigma = jm.core_sigma_at(params.efficiency)
    u = generator.random(n)
    tail = u < jm.tail_fraction
    x = generator.standard_normal(n)
    x[tail] = generator.exponential(jm.tail_scale_factor, tail.sum())
    return np.maximum(0.0, jm.latency + x * sigma)


def _numpy_histogram(delays, bin_width):
    n = int(np.ceil(delays.max() / bin_width)) + 1
    return np.histogram(delays, bins=n, range=(0.0, n * bin_width))[0]


def _assert_oracle_bytes(det, draws, seed, bin_width=2e-12):
    """The histogram, and the generator's end state, of the oracle."""
    stream = RandomStream(seed)
    got = measure_jitter_histogram(det, draws, stream, bin_width=bin_width)
    want_gen = RandomStream(seed).generator("jitter")
    delays = _jitter_expression(det, draws, want_gen)
    want = _numpy_histogram(delays, bin_width)
    assert got.counts.tobytes() == want.astype(np.int64).tobytes()
    assert (stream.generator("jitter").bit_generator.state
            == want_gen.bit_generator.state)
    return delays


@st.composite
def _chunked_edges(draw):
    """(bin width, chunks): values at i * bin width and one ulp either
    side, and zeros, in a random order and random chunks."""
    bw = draw(st.sampled_from([2e-12, 5e-12, 10e-15, 0.5]))
    i = np.array(draw(st.lists(st.integers(0, 4000)
                               | st.integers(0, _MAX_BINS - 2), max_size=30)))
    on = i * bw
    values = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, 1.0),
                             np.zeros(draw(st.integers(0, 3)))])
    values = values[draw(st.permutations(range(len(values))))]
    cuts = draw(st.lists(st.integers(0, len(values)), max_size=6))
    return bw, np.split(values, sorted(cuts))


class TestJitterSampling:
    @pytest.mark.parametrize("latency", [None, 0.0, 20e-12])
    def test_chunked_draws_keep_their_bytes(self, latency):
        det = make_detector(-110.0, 0.16, 20e-6)
        if latency is not None:     # near zero: many delays clamp to 0.0
            det = dataclasses.replace(det, jitter_model=dataclasses.replace(
                det.jitter_model, latency=latency))
        delays = _assert_oracle_bytes(det, 100_000, 6)
        if latency is not None:
            assert np.count_nonzero(delays == 0.0) > 1000

    @pytest.mark.parametrize("draws", [1, _JITTER_CHUNK - 1, _JITTER_CHUNK + 1,
                                       65_535, 65_537, 1_000_000])
    def test_draws_around_the_chunk_keep_their_bytes(self, draws):
        _assert_oracle_bytes(make_detector(-110.0, 0.115, 20e-6), draws, 9)

    def test_counts_sum_to_the_draws(self):
        det = make_detector(-110.0, 0.16, 20e-6)
        hist = measure_jitter_histogram(det, 1_000_000, RandomStream(3))
        assert hist.counts.sum() == 1_000_000

    def test_mode_sits_near_latency(self):
        det = make_detector(-110.0, 0.16, 20e-6)
        hist = measure_jitter_histogram(det, 500_000, RandomStream(4))
        mode = (np.argmax(hist.counts) + 0.5) * hist.bin_width
        assert abs(mode - det.jitter_model.latency) < 25e-12

    def test_tail_is_one_sided(self):
        # Below-mode mass comes from the Gaussian half alone:
        # (1 - tail_fraction) / 2 of all draws.  The latency, 1 ns, is the
        # start of bin 500.
        det = make_detector(-110.0, 0.16, 20e-6)
        jm = det.jitter_model
        hist = measure_jitter_histogram(det, 1_000_000, RandomStream(5))
        below = hist.counts[:round(jm.latency / hist.bin_width)].sum()
        assert below / 1_000_000 == pytest.approx(
            (1.0 - jm.tail_fraction) / 2.0, abs=0.003)

    @given(_chunked_edges())
    @example((2e-12, [np.array([0.0])]))
    @example((5e-12, [np.array([]), np.array([7.3e-12])]))
    @example((0.5, [np.array([1.0])]))
    @settings(max_examples=300)
    def test_chunks_bin_by_the_floor_of_the_quotient(self, case):
        # Bin i counts the values v with fl(v / bin width) in [i, i + 1);
        # n = ceil(max(v) / bin width) + 1 bins.
        bw, chunks = case
        q = np.concatenate(chunks) / bw
        n = int(np.ceil(q.max(initial=0.0))) + 1
        want = np.bincount(np.floor(q).astype(np.intp), minlength=n)
        got = _exact_histogram(iter(chunks), bw)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestFigureOfMerit:
    def test_value(self):
        assert figure_of_merit(0.10, 1.0, 1e-9) == pytest.approx(1e8)
        assert figure_of_merit(0.115, 1.19, 160e-12) == pytest.approx(
            6.04e8, rel=0.01)

    def test_requires_positive_inputs(self):
        with pytest.raises(ParameterError):
            figure_of_merit(0.17, 0.0, 150e-12)
        with pytest.raises(ParameterError):
            figure_of_merit(0.17, 3.0, 0.0)
