"""Domain validation and closed-form behavior of the parameter types."""

import math

import numpy as np
import pytest

from nfadsim.errors import ExtrapolationError, ParameterError
from nfadsim.params import (ClickStream, DarkRateModel, JitterModel,
                            OpticalTimeline, TrapModel, celsius_to_kelvin,
                            kelvin_to_celsius)
from nfadsim.calibration import (DEFAULT_DARK_MODEL, DEFAULT_JITTER_MODEL,
                                 DEFAULT_TRAP_MODEL, make_detector)


def test_temperature_conversion_round_trip():
    assert celsius_to_kelvin(-110.0) == pytest.approx(163.15)
    assert kelvin_to_celsius(celsius_to_kelvin(-63.2)) == pytest.approx(-63.2)


class TestDarkRateModel:
    def test_closed_form(self):
        model = DarkRateModel(amplitude_thermal=2.0e8,
                              activation_temperature=1800.0, floor=0.25,
                              efficiency_exponent=2.0, efficiency_ref=0.1)
        t, eta = 200.0, 0.2
        expected = (eta / 0.1) ** 2 * (2.0e8 * math.exp(-1800.0 / t) + 0.25)
        assert model.rate(t, eta) == pytest.approx(expected, rel=1e-12)

    def test_zero_efficiency_gives_zero_rate(self):
        assert DEFAULT_DARK_MODEL.rate(163.15, 0.0) == 0.0

    def test_rate_increases_with_temperature_and_efficiency(self):
        r = DEFAULT_DARK_MODEL.rate
        assert r(223.15, 0.115) > r(163.15, 0.115)
        assert r(163.15, 0.277) > r(163.15, 0.115)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            DEFAULT_DARK_MODEL.rate(-10.0, 0.1)
        with pytest.raises(ParameterError):
            DEFAULT_DARK_MODEL.rate(163.15, 1.5)
        with pytest.raises(ParameterError):
            DarkRateModel(amplitude_thermal=-1.0, activation_temperature=1.0,
                          floor=0.0, efficiency_exponent=1.0,
                          efficiency_ref=0.1)


class TestTrapModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            TrapModel(mean_traps_per_avalanche=0.5, efficiency_exponent=1.0,
                      efficiency_ref=0.115,
                      release_components=((0.6, 1e-6, 100.0),
                                          (0.3, 5e-6, 100.0)),
                      reference_temperature=183.15)

    def test_activation_must_be_positive(self):
        # Lifetimes have to grow toward lower temperature.
        with pytest.raises(ParameterError):
            TrapModel(mean_traps_per_avalanche=0.5, efficiency_exponent=1.0,
                      efficiency_ref=0.115,
                      release_components=((1.0, 1e-6, 0.0),),
                      reference_temperature=183.15)

    @pytest.mark.parametrize("tau_ref", [math.inf, math.nan, 0.0])
    def test_lifetime_must_be_positive_and_finite(self, tau_ref):
        with pytest.raises(ParameterError, match="lifetime"):
            TrapModel(mean_traps_per_avalanche=0.5, efficiency_exponent=1.0,
                      efficiency_ref=0.115,
                      release_components=((1.0, tau_ref, 100.0),),
                      reference_temperature=183.15)

    def test_disabled_model_fills_no_traps(self):
        assert TrapModel.disabled().mean_traps(0.3) == 0.0

    def test_mean_traps_scaling(self):
        t = DEFAULT_TRAP_MODEL
        lam_ref = t.mean_traps(t.efficiency_ref)
        assert lam_ref == pytest.approx(t.mean_traps_per_avalanche)
        scale = (0.23 / t.efficiency_ref) ** t.efficiency_exponent
        assert t.mean_traps(0.23) == pytest.approx(lam_ref * scale)

    def test_lifetimes_grow_as_temperature_falls(self):
        cold = DEFAULT_TRAP_MODEL.lifetimes_at(163.15)
        warm = DEFAULT_TRAP_MODEL.lifetimes_at(223.15)
        assert np.all(cold > warm)

    def test_lifetimes_at_reference_equal_quoted_values(self):
        t = DEFAULT_TRAP_MODEL
        taus = t.lifetimes_at(t.reference_temperature)
        for tau, (_, tau_ref, _) in zip(taus, t.release_components):
            assert tau == pytest.approx(tau_ref, rel=1e-12)


class TestJitterModel:
    def test_fwhm_interpolation_hits_anchors(self):
        jm = DEFAULT_JITTER_MODEL
        assert jm.fwhm_at(0.275) == pytest.approx(129e-12, rel=1e-9)
        assert jm.fwhm_at(0.11) == pytest.approx(160e-12, rel=1e-9)

    def test_fwhm_refuses_extrapolation(self):
        with pytest.raises(ExtrapolationError):
            DEFAULT_JITTER_MODEL.fwhm_at(0.01)
        with pytest.raises(ExtrapolationError):
            DEFAULT_JITTER_MODEL.fwhm_at(0.34)

    def test_predicted_width_at_half_level_is_fwhm(self):
        jm = DEFAULT_JITTER_MODEL
        assert jm.predicted_width(0.16, 0.5) == pytest.approx(
            jm.fwhm_at(0.16), rel=1e-9)

    def test_width_grows_as_level_drops(self):
        jm = DEFAULT_JITTER_MODEL
        w = [jm.predicted_width(0.16, level) for level in (0.5, 0.1, 0.01)]
        assert w[0] < w[1] < w[2]

    def test_pure_gaussian_one_percent_width(self):
        # Without a tail the 1% full width is 2*sigma*sqrt(2*ln 100).
        jm = JitterModel(fwhm_table=((0.1, 100e-12),), tail_fraction=0.0)
        sigma = jm.core_sigma_at(0.1)
        expected = 2.0 * sigma * math.sqrt(2.0 * math.log(100.0))
        assert jm.predicted_width(0.1, 0.01) == pytest.approx(expected,
                                                              rel=1e-6)

    def test_table_must_increase(self):
        with pytest.raises(ParameterError):
            JitterModel(fwhm_table=((0.2, 100e-12), (0.1, 120e-12)))

    def test_overwhelming_tail_rejected(self):
        with pytest.raises(ParameterError):
            JitterModel(fwhm_table=((0.1, 100e-12),), tail_fraction=0.99,
                        tail_scale_factor=0.01)


class TestDetectorParams:
    def test_operating_envelope(self):
        with pytest.raises(ParameterError):
            make_detector(-130.0, 0.115)      # below 153 K
        with pytest.raises(ParameterError):
            make_detector(-30.0, 0.115)       # above 233 K
        with pytest.raises(ParameterError):
            make_detector(-90.0, 0.40)
        with pytest.raises(ParameterError):
            make_detector(-90.0, 0.115, deadtime=0.0)
        with pytest.raises(ParameterError):
            make_detector(-90.0, 0.115, deadtime=-5e-6)

    def test_valid_point_constructs(self):
        det = make_detector(-70.0, 0.2, 5e-6)
        assert det.temperature == pytest.approx(203.15)
        assert det.deadtime == 5e-6


class TestOpticalTimeline:
    def test_pulse_times_must_increase(self):
        with pytest.raises(ParameterError):
            OpticalTimeline(times=np.array([0.0, 1e-6, 1e-6]),
                            mean_photon_numbers=np.array([0.1, 0.1, 0.1]))

    def test_negative_mu_rejected(self):
        with pytest.raises(ParameterError):
            OpticalTimeline(times=np.array([0.0]),
                            mean_photon_numbers=np.array([-0.1]))

    def test_empty(self):
        tl = OpticalTimeline.empty()
        assert len(tl) == 0


class TestClickStream:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            ClickStream(times=np.array([1.0, 2.0]),
                        origins=np.array([0], dtype=np.uint8))
