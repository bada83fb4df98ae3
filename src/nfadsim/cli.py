"""Command-line runner: characterize | qkd | optimize | selftest.

Every run is two-phase: first all configuration is parsed and every physical
object constructed (validation errors exit 1 before anything touches disk),
then simulations run and files are written (runtime/IO errors exit 2).  A
selftest that runs but fails its checks exits 3.

Output files are deterministic byte for byte for a given config and seed:
floats are serialized with ``repr`` (lossless round-trip), JSON keys are
sorted, and nothing records wall time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration
from .characterize import (ProtocolConfig, afterpulse_total,
                           dark_rate_estimate, efficiency_estimate,
                           figure_of_merit, measure_jitter_histogram,
                           run_protocol, tcspc_widths)
from .config import RunConfig, parse_config
from .engine import RandomStream
from .errors import (ConfigError, EstimatorDomainError, ExtrapolationError,
                     NoSignalError, ParameterError)
from .optimize import GridPoint, SearchSpace, optimize
from .params import DarkRateModel, DetectorParams, TrapModel
from .qkd import (LinkConfig, QkdOperatingPoint, link_metrics,
                  simulate_session)

# Carried as output metadata; the simplified rate formula has no finite-key
# term that would consume it.
SECURITY_PARAMETER = 4e-9
PA_RATIO_MEANING = "secret bits per sifted bit (compression ratio)"

_VALIDATION_ERRORS = (ConfigError, ParameterError, ExtrapolationError)


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value                    # text already formatted by a caller
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    """Write the header and rows, each row as it is formatted.

    Rows stream to disk, so memory stays bounded by one row; a runtime
    error part-way (exit 2) leaves a partial file behind.
    """
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt_cell, row)) + "\n" for row in rows)


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="")


def _point_tag(temp_c: float, eta: float) -> str:
    return f"T{temp_c:g}_eta{eta:g}"


# ---------------------------------------------------------------- characterize

def _prep_characterize(cfg: RunConfig):
    c = cfg.characterize
    if not c.temperatures_c or not c.efficiencies:
        raise ConfigError("characterization grid is empty (temperatures_c "
                          "and efficiencies must be non-empty)")
    pcfg = ProtocolConfig(quiet_window=c.quiet_window_us / 1e6,
                          histogram_span=c.histogram_span_us / 1e6,
                          pulses_requested=c.pulses,
                          laser_mu=c.laser_mu)
    if c.jitter_draws < 1:
        raise ConfigError("jitter_draws must be >= 1")
    if c.jitter_bin_ps <= 0.0:
        raise ConfigError("jitter_bin_ps must be > 0")
    points = []
    for t in c.temperatures_c:
        for eta in c.efficiencies:
            det = calibration.make_detector(t, eta, c.deadtime_us / 1e6)
            # Probe the jitter table now: width extraction must not die
            # halfway through a sweep.
            det.jitter_model.fwhm_at(eta)
            points.append((t, eta, det))
    return pcfg, points


def _histogram_rows(bin_width: float, counts: np.ndarray):
    """The (bin start in s, count) lines as one preformatted cell, the text
    ``_fmt_cell`` would give the float start and the integer count; none
    without bins.  A generator, so the writer does the formatting."""
    if len(counts):
        bw = float(bin_width)
        yield ("\n".join([f"{i * bw!r},{n}"
                          for i, n in enumerate(counts.tolist())]),)


def cmd_characterize(cfg: RunConfig, seed: int, outdir: Path) -> int:
    c = cfg.characterize
    pcfg, points = _prep_characterize(cfg)

    outdir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    dcr_rows = []
    ap_rows = []
    for index, (temp_c, eta, det) in enumerate(points):
        base = RandomStream(seed).child(index)
        counts = run_protocol(det, pcfg, base)
        eta_est = efficiency_estimate(counts)
        dcr = dark_rate_estimate(counts)
        p_ap = afterpulse_total(counts)
        hist = measure_jitter_histogram(det, c.jitter_draws, base.child(2),
                                        bin_width=c.jitter_bin_ps * 1e-12)
        fwhm = tcspc_widths(hist, 0.5)
        w1pct = tcspc_widths(hist, 0.01)
        fom = figure_of_merit(eta_est.value, dcr.value, fwhm) \
            if dcr.value > 0.0 else None

        tag = _point_tag(temp_c, eta)
        _write_csv(outdir / f"afterpulse_hist_{tag}.csv",
                   ("bin_start_s", "count"),
                   _histogram_rows(counts.bin_width, counts.histogram))
        _write_csv(outdir / f"jitter_{tag}.csv",
                   ("bin_start_s", "count"),
                   _histogram_rows(hist.bin_width, hist.counts))

        dcr_rows.append((temp_c, eta, dcr.value, dcr.error))
        ap_rows.append((temp_c, eta, p_ap.value, p_ap.error))
        summary_rows.append((temp_c, eta, eta_est.value, eta_est.error,
                             dcr.value, dcr.error, p_ap.value, p_ap.error,
                             fwhm * 1e12, w1pct * 1e12, fom))

    _write_csv(outdir / "dcr_vs_eff.csv",
               ("temp_C", "eta_set", "dcr_cps", "dcr_err_cps"), dcr_rows)
    _write_csv(outdir / "afterpulse_vs_eff.csv",
               ("temp_C", "eta_set", "p_ap", "p_ap_err"), ap_rows)
    _write_csv(outdir / "estimates.csv",
               ("temp_C", "eta_set", "eta_est", "eta_err", "dcr_cps",
                "dcr_err_cps", "p_ap", "p_ap_err", "fwhm_ps", "w1pct_ps",
                "H"), summary_rows)
    _write_json(outdir / "summary.json", {
        "seed": seed,
        "protocol": {
            "pulses": c.pulses,
            "laser_mu": c.laser_mu,
            "quiet_window_us": c.quiet_window_us,
            "histogram_span_us": c.histogram_span_us,
            "deadtime_us": c.deadtime_us,
            "fpga_clock_hz": pcfg.fpga_clock,
        },
        "points": [
            {"temp_c": row[0], "eta_set": row[1],
             "efficiency": {"value": row[2], "error": row[3],
                            "systematic": row[2] * pcfg.mu_systematic},
             "dark_rate_cps": {"value": row[4], "error": row[5]},
             "afterpulse_total": {"value": row[6], "error": row[7]},
             "fwhm_ps": row[8], "width_1pct_ps": row[9],
             "figure_of_merit": row[10]}
            for row in summary_rows
        ],
    })
    (outdir / "parameters.txt").write_text(
        calibration.parameter_summary() + "\n", encoding="utf-8", newline="")
    return 0


# ------------------------------------------------------------------------ qkd

def _link_config(cfg: RunConfig, loss_db: float) -> LinkConfig:
    q = cfg.qkd
    return LinkConfig(channel_loss_db=loss_db,
                      pulse_rate=q.pulse_rate_hz,
                      mu=q.mu,
                      monitor_fraction=q.monitor_fraction,
                      interferometer_visibility_intrinsic=
                      q.visibility_intrinsic,
                      optical_error=q.optical_error,
                      ec_inefficiency=q.ec_inefficiency,
                      pa_ratio=q.pa_ratio,
                      auth_rate_cost=q.auth_rate_cost_bps,
                      monitor_duty=q.monitor_duty)


def _check_losses(cfg: RunConfig) -> None:
    if not cfg.qkd.losses_db:
        raise ConfigError("losses_db must be non-empty")


def _search_space(cfg: RunConfig) -> SearchSpace:
    _check_losses(cfg)
    o = cfg.optimizer
    return SearchSpace(efficiency_grid=o.efficiencies,
                       deadtime_grid=tuple(t / 1e6 for t in o.deadtimes_us),
                       temperature_grid=o.temperatures_c,
                       loss_grid=cfg.qkd.losses_db)


def _fixed_point(cfg: RunConfig):
    q = cfg.qkd
    eta_m = q.efficiency if q.efficiency_monitor is None \
        else q.efficiency_monitor
    tau_m_us = q.deadtime_us if q.deadtime_monitor_us is None \
        else q.deadtime_monitor_us
    data = calibration.make_detector(q.temperature_c, q.efficiency,
                                     q.deadtime_us / 1e6)
    monitor = calibration.make_detector(q.temperature_c, eta_m,
                                        tau_m_us / 1e6)
    return QkdOperatingPoint(data_detector=data, monitor_detector=monitor)


_SKR_HEADER = ("loss_db", "sifted_bps", "qber", "vis_raw", "vis_dark_sub",
               "skr_bps", "eta_D", "eta_M", "tau_D_us", "tau_M_us", "temp_C")


def _skr_row(loss_db, metrics, point):
    if metrics is None or point is None:
        return (loss_db, 0.0, None, None, None, 0.0,
                None, None, None, None, None)
    return (loss_db, metrics.sifted_rate, metrics.qber,
            metrics.visibility_raw, metrics.visibility_dark_subtracted,
            metrics.skr, point.efficiency_data, point.efficiency_monitor,
            point.deadtime_data * 1e6, point.deadtime_monitor * 1e6,
            point.temperature_c)


def _op_row(loss_db, found, point, skr):
    if point is None:
        return (loss_db, found, None, None, None, None, None, skr)
    return (loss_db, found, point.temperature_c, point.efficiency_data,
            point.deadtime_data * 1e6, point.efficiency_monitor,
            point.deadtime_monitor * 1e6, skr)


def _fixed_rows(cfg: RunConfig, op: QkdOperatingPoint):
    d, m = op.data_detector, op.monitor_detector
    point = GridPoint(cfg.qkd.temperature_c, d.efficiency, d.deadtime,
                      m.efficiency, m.deadtime)
    skr_rows, op_rows = [], []
    for loss in cfg.qkd.losses_db:
        metrics = link_metrics(_link_config(cfg, loss), op)
        skr_rows.append(_skr_row(loss, metrics, point))
        op_rows.append(_op_row(loss, True, point, metrics.skr))
    return skr_rows, op_rows, ()


def _qkd_payload(cfg: RunConfig, seed: int, rows, optimizer_used: bool):
    q = cfg.qkd
    return {
        "seed": seed,
        "optimizer": optimizer_used,
        "security_parameter": SECURITY_PARAMETER,
        "pa_ratio": q.pa_ratio,
        "pa_ratio_meaning": PA_RATIO_MEANING,
        "mu": q.mu,
        "pulse_rate_hz": q.pulse_rate_hz,
        "auth_rate_cost_bps": q.auth_rate_cost_bps,
        "losses": [
            {"loss_db": r[0], "sifted_bps": r[1], "qber": r[2],
             "vis_raw": r[3], "vis_dark_sub": r[4], "skr_bps": r[5],
             "eta_data": r[6], "eta_monitor": r[7],
             "deadtime_data_us": r[8], "deadtime_monitor_us": r[9],
             "temp_c": r[10]}
            for r in rows
        ],
    }


def _dump_rows(space: SearchSpace, per_detector: bool, optima):
    """``grid_dump.csv`` text in ``Optimum.table`` order, one cell per (loss,
    temperature, Data side) group: the group's lines joined by newlines.

    One template holds a group's Monitor sides, so a single format call
    writes its key rates; the rest of its text is formatted once.
    """
    side = [f"{_fmt_cell(eta)},{_fmt_cell(tau * 1e6)}"
            for eta in space.efficiency_grid for tau in space.deadtime_grid]
    temps = [_fmt_cell(t) for t in space.temperature_grid]
    monitors = [m + "," for m in side] if per_detector else [""]
    heads = [d + "," if per_detector else f"{d},{d}," for d in side]
    template = "\n".join("{0}%s{%d!r}" % (m, k)
                         for k, m in enumerate(monitors, 1))
    for o in optima:
        chunks = zip(*[iter(o.table.tolist())] * len(monitors))
        for t in temps:
            prefix = f"{_fmt_cell(o.loss_db)},{t},"
            for head, chunk in zip(heads, chunks):
                yield (template.format(prefix + head, *chunk),)


def _optimize_rows(cfg: RunConfig, grid_dump: bool):
    space = _search_space(cfg)
    base = _link_config(cfg, space.loss_grid[0])
    per_detector = cfg.optimizer.per_detector
    optima = optimize(space, base, per_detector=per_detector,
                      keep_table=grid_dump)
    skr_rows = [_skr_row(o.loss_db, o.metrics, o.point) for o in optima]
    op_rows = [_op_row(o.loss_db, o.found, o.point, o.skr) for o in optima]
    dump_rows = _dump_rows(space, per_detector, optima) if grid_dump else ()
    return skr_rows, op_rows, dump_rows


_OP_HEADER = ("loss_db", "found", "temp_C", "eta_D", "tau_D_us", "eta_M",
              "tau_M_us", "skr_bps")
_DUMP_HEADER = ("loss_db", "temp_C", "eta_D", "tau_D_us", "eta_M", "tau_M_us",
                "skr_bps")


def cmd_qkd(cfg: RunConfig, seed: int, outdir: Path,
            grid_dump: bool = False) -> int:
    if cfg.qkd.use_optimizer:
        _search_space(cfg)                      # validate before running
    elif grid_dump:
        raise ConfigError("--grid-dump needs the optimizer (use_optimizer = "
                          "true): a fixed point has no grid")
    else:
        _check_losses(cfg)
        prepared = _fixed_point(cfg)

    outdir.mkdir(parents=True, exist_ok=True)
    skr_rows, op_rows, dump_rows = _optimize_rows(cfg, grid_dump) \
        if cfg.qkd.use_optimizer else _fixed_rows(cfg, prepared)

    _write_csv(outdir / "skr_vs_loss.csv", _SKR_HEADER, skr_rows)
    _write_csv(outdir / "qber_vis_vs_loss.csv",
               ("loss_db", "qber", "vis_raw", "vis_dark_sub"),
               ((r[0], r[2], r[3], r[4]) for r in skr_rows))
    _write_csv(outdir / "operating_points.csv", _OP_HEADER, op_rows)
    if grid_dump:
        _write_csv(outdir / "grid_dump.csv", _DUMP_HEADER, dump_rows)
    _write_json(outdir / "qkd_summary.json",
                _qkd_payload(cfg, seed, skr_rows, cfg.qkd.use_optimizer))
    return 0


def cmd_optimize(cfg: RunConfig, seed: int, outdir: Path,
                 grid_dump: bool = False) -> int:
    _search_space(cfg)                          # validate before running
    outdir.mkdir(parents=True, exist_ok=True)
    _, op_rows, dump_rows = _optimize_rows(cfg, grid_dump)
    _write_csv(outdir / "operating_points.csv", _OP_HEADER, op_rows)
    if grid_dump:
        _write_csv(outdir / "grid_dump.csv", _DUMP_HEADER, dump_rows)
    return 0


# ------------------------------------------------------------------- selftest

def _flat_dark_detector(rate_cps: float, deadtime: float) -> DetectorParams:
    """Dark-only detector with a rate independent of T and eta."""
    flat = DarkRateModel(amplitude_thermal=0.0, activation_temperature=0.0,
                         floor=rate_cps, efficiency_exponent=0.0,
                         efficiency_ref=0.115)
    return dataclasses.replace(
        calibration.make_detector(-90.0, 0.115, deadtime, dark_model=flat),
        trap_model=TrapModel.disabled())


def _selftest_checks(seed: int):
    from .detector import simulate
    from .params import OpticalTimeline

    # Saturation against the closed form at r*tau = 1.
    rate, deadtime = 50e3, 20e-6
    duration = 8.0
    det = _flat_dark_detector(rate, deadtime)
    clicks = simulate(det, OpticalTimeline.empty(), duration,
                      RandomStream(seed).child(0))
    expected = rate / (1.0 + rate * deadtime)
    rel = abs(len(clicks) / duration - expected) / expected
    yield ("deadtime-law", rel < 0.01,
           f"observed rate within {rel * 100:.2f}% of r/(1+r*tau)")

    # Closed-loop efficiency and afterpulse estimates on the calibrated
    # reference point.
    ref = calibration.make_detector(-110.0, 0.115, 20e-6)
    counts = run_protocol(ref, ProtocolConfig(pulses_requested=200_000),
                          RandomStream(seed).child(1))
    eta = efficiency_estimate(counts)
    dev = abs(eta.value - 0.115) / eta.error
    yield ("efficiency-closed-loop", dev < 3.5,
           f"estimate {eta.value:.4f} is {dev:.2f} sigma from truth")
    pap = afterpulse_total(counts)
    dev = abs(pap.value - 0.022) / pap.error
    yield ("afterpulse-closed-loop", dev < 3.5,
           f"estimate {pap.value:.4f} is {dev:.2f} sigma from 0.022")

    # Same seed, same bytes.
    cfg = LinkConfig(channel_loss_db=10.0)
    op = QkdOperatingPoint(ref, ref)
    a = simulate_session(cfg, op, 1_000_000, seed)
    b = simulate_session(cfg, op, 1_000_000, seed)
    yield ("determinism", repr(a) == repr(b),
           "repeated session metrics are identical")

    # Invariant enforcement.
    try:
        calibration.make_detector(-110.0, 0.115, -5e-6)
        ok = False
    except ParameterError:
        ok = True
    yield ("parameter-validation", ok, "negative deadtime rejected")


def _validate_config(cfg: RunConfig) -> None:
    """Construct every configured physical object, discarding the results.

    Runs before any simulation so that an invalid value (say a negative
    deadtime) fails the command without partial output.
    """
    _prep_characterize(cfg)
    _check_losses(cfg)
    _link_config(cfg, cfg.qkd.losses_db[0])
    _fixed_point(cfg)
    _search_space(cfg)


def cmd_selftest(cfg: RunConfig, seed: int) -> int:
    failures = 0
    total = 0
    for name, ok, detail in _selftest_checks(seed):
        total += 1
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"selftest: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 3


# ------------------------------------------------------------------ interface

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfadsim",
        description="Free-running NFAD detector simulation and COW QKD "
                    "link evaluation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_dump in (("characterize", False), ("qkd", True),
                             ("optimize", True), ("selftest", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH",
                       help="INI config; omitted keys use calibrated "
                            "defaults")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the [run] seed")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default from [run] out)")
        if needs_dump:
            p.add_argument("--grid-dump", action="store_true",
                           help="also write every evaluated grid point")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        seed = cfg.run.seed if args.seed is None else args.seed
        outdir = Path(cfg.run.out if args.out is None else args.out)
        if args.command == "selftest":
            _validate_config(cfg)
            runner = lambda: cmd_selftest(cfg, seed)
        elif args.command == "characterize":
            runner = lambda: cmd_characterize(cfg, seed, outdir)
        elif args.command == "qkd":
            runner = lambda: cmd_qkd(cfg, seed, outdir, args.grid_dump)
        else:
            runner = lambda: cmd_optimize(cfg, seed, outdir, args.grid_dump)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return runner()
    except _VALIDATION_ERRORS as exc:
        # Grid construction may still surface a physical-domain violation.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, EstimatorDomainError, NoSignalError,
            RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
