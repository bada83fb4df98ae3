"""Link budget, analytic rate model, and the frame-level Monte Carlo."""

import dataclasses
import math

import pytest

from nfadsim._kernels import NEVER
from nfadsim.calibration import make_detector
from nfadsim.engine import seconds_to_ps
from nfadsim.errors import NoSignalError, ParameterError
from nfadsim.params import DarkRateModel, TrapModel
from nfadsim.qkd import (LinkConfig, LinkMetrics, QkdOperatingPoint,
                         binary_entropy, link_metrics, simulate_session)


def _op(temp_c=-110.0, eta=0.115, tau=20e-6):
    det = make_detector(temp_c, eta, tau)
    return QkdOperatingPoint(data_detector=det, monitor_detector=det)


# link_metrics reprs at 10 dB at the default grid's four temperatures, the
# Data detector at 11.5% and 10 us and the Monitor at 20% and 40 us;
# recorded before the trap constants were cached.
LINK_REPRS = {
    -50.0: "LinkMetrics(sifted_rate=np.float64(66178.77413033824), "
           "qber=np.float64(0.010436496486575138), "
           "visibility_raw=np.float64(0.5134417541038456), "
           "visibility_dark_subtracted=np.float64(0.9837229362142781), "
           "skr=np.float64(4602.932124211656))",
    -70.0: "LinkMetrics(sifted_rate=np.float64(66175.02453278302), "
           "qber=np.float64(0.010354478286234862), "
           "visibility_raw=np.float64(0.86582365988939), "
           "visibility_dark_subtracted=np.float64(0.9826593528656229), "
           "skr=np.float64(7801.238727719255))",
    -90.0: "LinkMetrics(sifted_rate=np.float64(66264.39933400413), "
           "qber=np.float64(0.012306924684911175), "
           "visibility_raw=np.float64(0.9684980644087122), "
           "visibility_dark_subtracted=np.float64(0.9824229707432486), "
           "skr=np.float64(8603.345602365507))",
    -110.0: "LinkMetrics(sifted_rate=np.float64(66406.76107684764), "
            "qber=np.float64(0.015406050014549848), "
            "visibility_raw=np.float64(0.9812360049499281), "
            "visibility_dark_subtracted=np.float64(0.9823023060856276), "
            "skr=np.float64(8519.376075397173))",
}


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528,
                                                     rel=1e-12)

    def test_symmetry(self):
        for p in (0.03, 0.2, 0.41):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p))

    def test_domain(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.01)
        with pytest.raises(ParameterError):
            binary_entropy(1.01)


class TestLinkConfig:
    def test_transmittance(self):
        assert LinkConfig(channel_loss_db=10.0).transmittance == pytest.approx(0.1)
        assert LinkConfig(channel_loss_db=0.0).transmittance == 1.0

    def test_frame_rate_halves_the_pulse_rate(self):
        cfg = LinkConfig(channel_loss_db=5.0)
        assert cfg.frame_rate == pytest.approx(cfg.pulse_rate / 2.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            LinkConfig(channel_loss_db=-1.0)
        for name in ("channel_loss_db", "pulse_rate", "mu",
                     "ec_inefficiency", "auth_rate_cost"):
            with pytest.raises(ParameterError, match=name):
                LinkConfig(**{"channel_loss_db": 10.0, name: float("nan")})
        with pytest.raises(ParameterError):
            LinkConfig(channel_loss_db=10.0, mu=-0.1)
        with pytest.raises(ParameterError):
            LinkConfig(channel_loss_db=10.0, monitor_fraction=1.2)
        with pytest.raises(ParameterError):
            LinkConfig(channel_loss_db=10.0,
                       interferometer_visibility_intrinsic=1.2)
        with pytest.raises(ParameterError):
            LinkConfig(channel_loss_db=10.0, ec_inefficiency=0.9)

    def test_pulse_rate_keeps_a_slot_on_the_ps_grid(self):
        # Above 1e12 Hz a time-bin slot is under 1 ps: a 1.5e12 Hz session
        # read QBER 0.0 against the closed form's 0.279, and a 5e12 Hz one
        # raised NoSignalError.
        assert LinkConfig(channel_loss_db=0.0, pulse_rate=1e12).frame_rate \
            == 5e11
        for rate in (math.nextafter(1e12, math.inf), 1.5e12, 1e300):
            with pytest.raises(ParameterError, match="pulse_rate"):
                LinkConfig(channel_loss_db=0.0, pulse_rate=rate)


class TestLinkMetricsContainer:
    def test_qber_range_enforced(self):
        with pytest.raises(ParameterError):
            LinkMetrics(sifted_rate=1e3, qber=0.6, visibility_raw=0.9,
                        visibility_dark_subtracted=0.95, skr=0.0)

    def test_dark_subtraction_cannot_lower_visibility(self):
        with pytest.raises(ParameterError):
            LinkMetrics(sifted_rate=1e3, qber=0.1, visibility_raw=0.95,
                        visibility_dark_subtracted=0.90, skr=0.0)


class TestAnalyticModel:
    def test_skr_never_improves_with_loss(self):
        op = _op()
        skr = [link_metrics(LinkConfig(channel_loss_db=float(db)), op).skr
               for db in range(0, 41, 2)]
        assert all(b <= a + 1e-9 for a, b in zip(skr, skr[1:]))
        assert skr[0] > 0.0

    def test_qber_approaches_coin_flip_when_signal_vanishes(self):
        # At 60 dB the dark and signal candidate rates are comparable, so
        # the coin-flip limit is probed by shrinking mu at fixed loss.
        op = _op()
        qbers = [link_metrics(LinkConfig(channel_loss_db=60.0, mu=m), op).qber
                 for m in (0.06, 6e-3, 6e-4, 6e-5, 6e-6)]
        assert all(b > a for a, b in zip(qbers, qbers[1:]))
        assert qbers[-1] > 0.499
        assert qbers[-1] <= 0.5

    def test_dark_subtracted_visibility_dominates(self):
        for loss in (5.0, 15.0, 30.0):
            for tau in (2e-6, 20e-6):
                for temp in (-50.0, -110.0):
                    m = link_metrics(LinkConfig(channel_loss_db=loss),
                                     _op(temp, 0.115, tau))
                    assert m.visibility_dark_subtracted >= m.visibility_raw

    def test_sifted_rate_bounded_by_monitor_split(self):
        cfg = LinkConfig(channel_loss_db=5.0)
        m = link_metrics(cfg, _op())
        data_frames = cfg.frame_rate * (1.0 - cfg.monitor_fraction)
        assert 0.0 < m.sifted_rate <= data_frames

    def test_a_lifetime_exponent_past_the_float_range_is_rejected(self):
        # 2e6 K puts the Arrhenius exponent at 1339 at -110 C, past the
        # 709.8 where exp() overflows.
        trap = TrapModel(mean_traps_per_avalanche=1.0, efficiency_exponent=0.0,
                         efficiency_ref=0.115,
                         release_components=((1.0, 1e-6, 2e6),),
                         reference_temperature=183.15)
        det = make_detector(-110.0, 0.115, 20e-6, trap_model=trap)
        op = QkdOperatingPoint(data_detector=det, monitor_detector=det)
        with pytest.raises(ParameterError, match="component 0"):
            link_metrics(LinkConfig(channel_loss_db=30.0), op)

    @pytest.mark.parametrize("temp_c", sorted(LINK_REPRS))
    def test_link_metrics_keep_their_bits(self, temp_c):
        op = QkdOperatingPoint(make_detector(temp_c, 0.115, 10e-6),
                               make_detector(temp_c, 0.2, 40e-6))
        for _ in range(2):  # the trap constants computed, then cached
            got = repr(link_metrics(LinkConfig(channel_loss_db=10.0), op))
            assert got == LINK_REPRS[temp_c]

    def test_skr_costs_reduce_the_rate(self):
        lean = LinkConfig(channel_loss_db=10.0, ec_inefficiency=1.0,
                          pa_ratio=1.0, auth_rate_cost=0.0)
        costly = LinkConfig(channel_loss_db=10.0)
        op = _op()
        assert link_metrics(lean, op).skr > link_metrics(costly, op).skr


class TestMonteCarlo:
    def test_minimum_frames_enforced(self):
        with pytest.raises(ParameterError):
            simulate_session(LinkConfig(channel_loss_db=10.0), _op(),
                             frames=99_999, seed=1)

    def test_session_must_end_before_the_ps_grid_does(self):
        cfg = LinkConfig(channel_loss_db=10.0)
        frame_ps = seconds_to_ps(2.0 / cfg.pulse_rate)
        with pytest.raises(ParameterError, match="picosecond grid"):
            simulate_session(cfg, _op(), frames=NEVER // frame_ps + 1,
                             seed=1)

    @staticmethod
    def _bare_op(deadtime):
        # No darks, no traps, no latency: every click is a signal click.
        det = make_detector(-90.0, 0.115, deadtime, dark_model=DarkRateModel(
            amplitude_thermal=0.0, activation_temperature=0.0, floor=0.0,
            efficiency_exponent=0.0, efficiency_ref=0.115),
            trap_model=TrapModel.disabled())
        det = dataclasses.replace(det, jitter_model=dataclasses.replace(
            det.jitter_model, latency=0.0))
        return QkdOperatingPoint(data_detector=det, monitor_detector=det)

    def test_a_hold_off_that_rounds_to_0_ps_is_rejected(self):
        # A 0 ps hold-off re-arms at the click itself: a signal pulse whose
        # jitter delay is 0 would click again (0.725 clicks a frame at
        # p_sig = 0.394).
        with pytest.raises(ParameterError, match=r"hold-off 1e-13 s .*1 ps"):
            simulate_session(LinkConfig(channel_loss_db=0.0, mu=5.0),
                             self._bare_op(1e-13), frames=100_000, seed=1)

    def test_a_trap_mean_whose_count_limit_underflows_is_rejected(self):
        # 2 * 1.15**800 traps a click: exp(-mean) underflows to 0.0.
        det = make_detector(-90.0, 0.115, 10e-6, trap_model=TrapModel(
            mean_traps_per_avalanche=2.0, efficiency_exponent=800.0,
            efficiency_ref=0.1, release_components=((1.0, 1e-6, 100.0),),
            reference_temperature=183.15))
        with pytest.raises(ParameterError,
                           match=r"mean traps per avalanche .* 708\.4"):
            simulate_session(LinkConfig(channel_loss_db=10.0),
                             QkdOperatingPoint(det, det), frames=100_000,
                             seed=1)

    def test_a_1_ps_hold_off_runs(self):
        # 6e-13 s rounds to 1 ps: each frame clicks at most once, with the
        # Data detector's signal probability.
        cfg = LinkConfig(channel_loss_db=0.0, mu=5.0)
        m = simulate_session(cfg, self._bare_op(6e-13), frames=100_000,
                             seed=1)
        p_sig = 0.9 * -math.expm1(-5.0 * 0.115)
        assert abs(m.sifted_rate / cfg.frame_rate / p_sig - 1.0) < 0.01

    def test_deterministic_replay(self):
        cfg = LinkConfig(channel_loss_db=10.0)
        a = simulate_session(cfg, _op(), frames=200_000, seed=5)
        b = simulate_session(cfg, _op(), frames=200_000, seed=5)
        assert repr(a) == repr(b)

    def test_starved_session_raises(self):
        with pytest.raises(NoSignalError):
            simulate_session(LinkConfig(channel_loss_db=60.0), _op(),
                             frames=100_000, seed=11)

    def test_loss_that_rounds_the_click_probability_away_raises(self):
        # At 200 dB the frame click probability p leaves 1 - p == 1, whose
        # geometric frame skip would divide by log(1 - p) == 0.
        with pytest.raises(NoSignalError):
            simulate_session(LinkConfig(channel_loss_db=200.0), _op(),
                             frames=100_000, seed=11)

    def test_matches_analytic_model(self):
        # One deep cell; the 3x3 operating grid lives in the acceptance
        # suite where the frame budgets are much larger.
        cfg = LinkConfig(channel_loss_db=10.0)
        op = _op(-90.0, 0.115, 10e-6)
        frames = 30_000_000
        mc = simulate_session(cfg, op, frames=frames, seed=777)
        an = link_metrics(cfg, op)
        duration = frames / cfg.frame_rate
        n_sifted = max(1.0, round(mc.sifted_rate * duration))
        sigma_q = math.sqrt(an.qber * (1.0 - an.qber) / n_sifted)
        assert abs(mc.qber - an.qber) <= 3.0 * sigma_q
        assert abs(mc.sifted_rate / an.sifted_rate - 1.0) <= 0.10
        assert mc.visibility_dark_subtracted >= mc.visibility_raw

    @pytest.mark.parametrize("mu", [5.0, 50.0])
    def test_saturated_link_matches_analytic_model(self, mu):
        # At 0 dB the Data detector is saturated: a candidate comes every
        # one to three frames, and the armed fraction, 4.1e-4 (mu = 5) and
        # 1.8e-4 (mu = 50), is below the 0.1% floor the closed form had.
        cfg = LinkConfig(channel_loss_db=0.0, mu=mu)
        op = _op()
        frames = 300_000_000
        mc = simulate_session(cfg, op, frames=frames, seed=11)
        an = link_metrics(cfg, op)
        n_sifted = round(mc.sifted_rate * frames / cfg.frame_rate)
        sigma_q = math.sqrt(an.qber * (1.0 - an.qber) / n_sifted)
        assert abs(mc.qber - an.qber) <= 3.0 * sigma_q
        assert abs(mc.sifted_rate / an.sifted_rate - 1.0) <= 0.10
