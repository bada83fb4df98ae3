"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints its verdict with capture suspended so the lines show up
in a plain ``pytest -v`` run, then asserts.  Tolerances and time budgets
are part of the criteria; the statistical ones run with fixed seeds.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from nfadsim import cli
from nfadsim.calibration import (DEFAULT_DARK_MODEL, DEFAULT_JITTER_MODEL,
                                 make_detector)
from nfadsim.characterize import (ProtocolConfig, afterpulse_total,
                                  characterize_point, efficiency_estimate,
                                  figure_of_merit, measure_jitter_histogram,
                                  run_protocol, tcspc_widths)
from nfadsim.detector import simulate
from nfadsim.engine import RandomStream, pulsed_laser
from nfadsim.optimize import DEFAULT_LOSS_GRID_DB, SearchSpace, optimize
from nfadsim.params import OpticalTimeline, celsius_to_kelvin
from nfadsim.qkd import (LinkConfig, QkdOperatingPoint, link_metrics,
                         simulate_session)


@pytest.fixture
def report(capsys):
    def emit(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}",
                  flush=True)
        assert ok, detail

    return emit


def test_criterion_01_dark_rate_anchors(report):
    model = DEFAULT_DARK_MODEL
    cold = celsius_to_kelvin(-110.0)
    warm = celsius_to_kelvin(-50.0)
    checks = [
        (model.rate(cold, 0.115), 1.19, 0.05),
        (model.rate(cold, 0.277), 15.2, 0.10),
        (model.rate(warm, 0.10), 600.0, 0.25),
    ]
    devs = [abs(got / want - 1.0) for got, want, _ in checks]
    ok = all(dev <= tol for dev, (_, _, tol) in zip(devs, checks))
    report(1, ok, "dark rate anchors hit within "
           + "/".join(f"{d * 100:.2f}%" for d in devs)
           + " of 1.19/15.2/600 cps")


def test_criterion_02_closed_loop_efficiency(report):
    t0 = time.perf_counter()
    det = make_detector(-110.0, 0.115, 20e-6)
    counts = run_protocol(det, ProtocolConfig(), RandomStream(22))
    est = efficiency_estimate(counts)
    elapsed = time.perf_counter() - t0
    dev = abs(est.value - 0.115) / est.error
    ok = dev <= 3.0 and est.error <= 0.003 and elapsed < 120.0
    report(2, ok, f"eta=0.115 recovered as {est.value:.6f} "
           f"({dev:.2f} sigma, SE {est.error:.4f}, {elapsed:.1f} s)")


def test_criterion_03_closed_loop_afterpulse(report):
    t0 = time.perf_counter()
    det = make_detector(-110.0, 0.115, 20e-6)
    cfg = ProtocolConfig(pulses_requested=1_030_000)
    counts = run_protocol(det, cfg, RandomStream(30))
    pap = afterpulse_total(counts)
    elapsed = time.perf_counter() - t0
    dev = abs(pap.value - 0.022) / pap.error
    ok = counts.c_d >= 100_000 and dev <= 3.0 and elapsed < 300.0
    report(3, ok, f"P_ap {pap.value * 100:.3f}% from {counts.c_d} detections "
           f"({dev:.2f} sigma from 2.2%, {elapsed:.1f} s)")


def test_criterion_04_deadtime_law(report, flat_dark):
    t0 = time.perf_counter()
    tau = 1e-6
    worst = 0.0
    for i, rate in enumerate((1e4, 1e5, 1e6, 1e7)):
        expected = rate / (1.0 + rate * tau)
        duration = 1.0e6 / expected          # about 1e6 detected events
        det = flat_dark(rate, tau)
        clicks = simulate(det, OpticalTimeline.empty(), duration,
                          RandomStream(400 + i))
        worst = max(worst, abs(len(clicks) / duration / expected - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and elapsed < 60.0
    report(4, ok, f"saturation law matched to {worst * 100:.3f}% over "
           f"r*tau in [0.01, 10] ({elapsed:.1f} s)")


def test_criterion_05_jitter_widths(report):
    t0 = time.perf_counter()
    det_hi = make_detector(-110.0, 0.275, 20e-6)
    fwhm = tcspc_widths(
        measure_jitter_histogram(det_hi, 1_000_000, RandomStream(501)), 0.5)
    det_lo = make_detector(-110.0, 0.16, 20e-6)
    w1 = tcspc_widths(
        measure_jitter_histogram(det_lo, 1_000_000, RandomStream(502)), 0.01)
    elapsed = time.perf_counter() - t0
    ok = abs(fwhm - 129e-12) <= 5e-12 and abs(w1 - 600e-12) <= 60e-12 \
        and elapsed < 60.0
    report(5, ok, f"FWHM {fwhm * 1e12:.1f} ps (129+-5), 1% width "
           f"{w1 * 1e12:.0f} ps (600+-60) ({elapsed:.1f} s)")


def test_criterion_06_figure_of_merit(report):
    eta = 0.17
    dcr = DEFAULT_DARK_MODEL.rate(celsius_to_kelvin(-110.0), eta)
    h = figure_of_merit(eta, dcr, DEFAULT_JITTER_MODEL.fwhm_at(eta))
    ok = 1e8 <= h <= 1e9
    report(6, ok, f"H = {h:.3g} at eta=0.17, -110 C (window 1e8..1e9)")


def test_criterion_07_optimizer_trends(report):
    t0 = time.perf_counter()
    results = optimize(SearchSpace(), [LinkConfig(channel_loss_db=loss)
                                       for loss in DEFAULT_LOSS_GRID_DB])
    skrs = [r.skr for r in results]
    taus = [r.point.deadtime_data for r in results]
    etas = [r.point.efficiency_data for r in results]
    elapsed = time.perf_counter() - t0
    ok = (10_000 / 3 <= skrs[0] <= 10_000 * 3
          and 350 / 3 <= skrs[-1] <= 350 * 3
          and all(b < a for a, b in zip(skrs, skrs[1:]))
          and all(b >= a for a, b in zip(taus, taus[1:]))
          and all(b >= a for a, b in zip(etas, etas[1:]))
          and elapsed < 60.0)
    report(7, ok, f"SKR {skrs[0]:.0f} bps at 5 dB and {skrs[-1]:.0f} bps "
           f"at 30 dB, monotone trends ({elapsed:.1f} s)")


def test_criterion_08_session_matches_analytics(report, cascade_bound):
    t0 = time.perf_counter()
    worst_q = 0.0
    worst_r = 0.0
    ap_ok = True
    for i, loss in enumerate((10.0, 20.0, 30.0)):
        cfg = LinkConfig(channel_loss_db=loss)
        frames = 400_000_000 if loss < 15.0 else 1_200_000_000
        for j, tau_us in enumerate((10.0, 20.0, 40.0)):
            det = make_detector(-90.0, 0.115, tau_us * 1e-6)
            ap_ok = ap_ok and cascade_bound(det) < 0.05
            op = QkdOperatingPoint(det, det)
            mc = simulate_session(cfg, op, frames, seed=5000 + 10 * i + j)
            an = link_metrics(cfg, op)
            duration = frames / cfg.frame_rate
            n_sifted = max(1.0, round(mc.sifted_rate * duration))
            sigma = math.sqrt(an.qber * (1.0 - an.qber) / n_sifted)
            worst_q = max(worst_q, abs(mc.qber - an.qber) / sigma)
            worst_r = max(worst_r, abs(mc.sifted_rate / an.sifted_rate - 1.0))
    elapsed = time.perf_counter() - t0
    ok = ap_ok and worst_q <= 3.0 and worst_r <= 0.10 and elapsed < 600.0
    report(8, ok, f"3x3 loss/deadtime grid: QBER within {worst_q:.2f} sigma, "
           f"sifted within {worst_r * 100:.2f}% ({elapsed:.0f} s)")


def test_criterion_09_byte_identical_outputs(tmp_path, report):
    char_ini = tmp_path / "char.ini"
    char_ini.write_text("[characterize]\npulses = 20000\n"
                        "jitter_draws = 100000\n", encoding="utf-8")
    qkd_ini = tmp_path / "qkd.ini"
    qkd_ini.write_text("[qkd]\nuse_optimizer = false\n"
                       "losses_db = 5, 20\n", encoding="utf-8")
    mismatches = []
    for label, ini in (("characterize", char_ini), ("qkd", qkd_ini)):
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{label}_{run}"
            rc = cli.main([label, "--config", str(ini), "--seed", "42",
                           "--out", str(out)])
            assert rc == 0
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        if names != sorted(p.name for p in dirs[1].iterdir()):
            mismatches.append(f"{label}: file sets differ")
            continue
        for name in names:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatches.append(f"{label}/{name}")
    ok = not mismatches
    report(9, ok, "reruns byte-identical across all CSV/JSON outputs"
           if ok else "differs: " + ", ".join(mismatches))


def test_criterion_10_origin_tags_do_not_leak(report):
    det = make_detector(-50.0, 0.2, 5e-6)
    timeline = pulsed_laser(1e-6, 0.3, 100_000)
    stream = RandomStream(864)
    clicks = simulate(det, timeline, 0.101, stream)
    assert set(clicks.origins.tolist()) == {0, 1, 2}

    def estimates(s):
        gaps = np.diff(s.times)
        return (len(s.times),
                len(s.times) / 0.101,
                float(np.sum(gaps < 30e-6)),
                float(np.histogram(gaps, bins=50)[0].std()))

    before = estimates(clicks)
    rng = np.random.Generator(np.random.PCG64(1))
    shuffled = dataclasses.replace(
        clicks, origins=clicks.origins[rng.permutation(len(clicks.origins))])
    after = estimates(shuffled)
    ok = before == after and np.array_equal(shuffled.times, clicks.times)
    report(10, ok, "permuting origin tags changes no estimate "
           f"({before[0]} clicks, all statistics identical)")


def test_paper_ledger():
    """The model's figures beside the abstract's, each pinned at 1e-3.

    The abstract reports 1 cps of dark counts at 10% efficiency and
    -110 C, 2.2% afterpulsing at a 20 us hold-off, and 350 bps of secret
    key over 30 dB on the 625 MHz COW link.  Operating points:

    - dark rate: -110 C at 10% (0.7937 cps; the paper's 1 cps) and at the
      11.5% calibration anchor (1.19 cps);
    - total afterpulsing, cascades included, as the quiet-window protocol
      measures it (criterion 03's 1,030,000 pulses and seed 30): -110 C,
      20 us hold-off, at 10% (1.865%) and 11.5% (2.170%; the paper's 2.2%);
    - key rate: ``link_metrics`` with the default ``LinkConfig`` at 30 dB,
      Data and Monitor both at -110 C and 20 us, at 10% (162.1 bps) and
      30% (432.7 bps), against the paper's 350 bps.
    """
    rows = []
    for eta, dcr, p_ap in ((0.10, 0.7937, 0.01865),
                            (0.115, 1.19, 0.02170)):
        det = make_detector(-110.0, eta, 20e-6)
        rows.append((det.dark_model.rate(det.temperature, eta), dcr))
        point = characterize_point(
            det, ProtocolConfig(pulses_requested=1_030_000), RandomStream(30))
        rows.append((point.afterpulse_total.value, p_ap))
    for eta, skr in ((0.10, 162.1), (0.30, 432.7)):
        det = make_detector(-110.0, eta, 20e-6)
        metrics = link_metrics(LinkConfig(channel_loss_db=30.0),
                               QkdOperatingPoint(det, det))
        rows.append((metrics.skr, skr))
    for got, want in rows:
        assert got == pytest.approx(want, rel=1e-3)
