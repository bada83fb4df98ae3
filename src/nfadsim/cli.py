"""Command-line runner: characterize | qkd | optimize | selftest.

Every run is two-phase: "compute", then "write".  A command checks its
configuration, runs and returns its outputs; then one writer makes the output
directory and writes them.  So a validation error (exit 1) or a runtime error
(exit 2) leaves no output directory, unless it is an OSError while writing.
selftest writes nothing, and exits 3 if one of its checks fails.

Output files are deterministic byte for byte for a given config and seed:
floats are serialized with ``repr`` (lossless round-trip), JSON keys are
sorted, and nothing records wall time.  characterize measures its grid
points in forked processes, one per CPU this process may use (``taskset -c
0`` keeps it to one); each point's draws come from its own substream, so the
bytes are the same.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import signal
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import calibration
from .characterize import (_FPGA_CLOCK, ProtocolConfig, _check_deadtime,
                           _check_jitter_bins, characterize_point,
                           figure_of_merit, measure_jitter_histogram,
                           tcspc_widths)
from .config import RunConfig, parse_config
from .engine import RandomStream
from .errors import (ConfigError, EstimatorDomainError, ExtrapolationError,
                     NoSignalError, OpenSupportError, ParameterError)
from .optimize import (MAX_TABLE_CELLS, GridPoint, Optimum, SearchSpace,
                       optimize)
from .params import DarkRateModel, DetectorParams, TrapModel
from .qkd import (LinkConfig, QkdOperatingPoint, link_metrics,
                  simulate_session)

# Carried as output metadata; the simplified rate formula has no finite-key
# term that would consume it.
SECURITY_PARAMETER = 4e-9
PA_RATIO_MEANING = "secret bits per sifted bit (compression ratio)"


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


def _write_outputs(outdir: Path, outputs) -> None:
    """Make ``outdir``, then write each (file name, content) by its suffix:
    a CSV's (header, rows), a JSON payload or text."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in outputs:
        path = outdir / name
        if path.suffix == ".csv":
            _write_csv(path, *content)
        elif path.suffix == ".json":
            _write_json(path, content)
        else:
            path.write_text(content, encoding="utf-8", newline="")


def _ini_text(value) -> str:
    """A config value as an INI line writes it: lists joined by commas,
    whole numbers without ".0"."""
    if isinstance(value, tuple):
        return ", ".join(map(_ini_text, value))
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def _config_error(exc: ValueError, section: str, values,
                  **keys) -> ConfigError:
    """``exc`` as a ConfigError that starts ``[section] key``: ``keys`` maps
    the message's first word, a parameter, to its INI key.  The key's value
    in ``values``, the parsed section, follows as the INI writes it, since
    the message may give it in SI units."""
    name, _, rest = str(exc).partition(" ")
    key = keys.get(name, name)
    value = getattr(values, key, None)
    if value is not None:
        key += f" = {_ini_text(value)}:"
    return ConfigError(f"[{section}] {key} {rest}")


# ---------------------------------------------------------------- characterize

def _prep_characterize(cfg: RunConfig):
    c = cfg.characterize
    if not c.temperatures_c or not c.efficiencies:
        raise ConfigError("[characterize] temperatures_c and efficiencies "
                          "must not be empty")
    points = []
    try:
        pcfg = ProtocolConfig(quiet_window=c.quiet_window_us / 1e6,
                              histogram_span=c.histogram_span_us / 1e6,
                              pulses_requested=c.pulses,
                              laser_mu=c.laser_mu)
        for t in c.temperatures_c:
            for eta in c.efficiencies:
                det = calibration.make_detector(t, eta, c.deadtime_us / 1e6)
                _check_deadtime(pcfg, det.deadtime)
                # Width extraction must not die halfway through a sweep.
                _check_jitter_bins(det, c.jitter_draws,
                                   c.jitter_bin_ps * 1e-12)
                points.append((t, eta, det))
    except (ParameterError, ExtrapolationError) as exc:
        raise _config_error(
            exc, "characterize", c, temperature="temperatures_c",
            efficiency="efficiencies", deadtime="deadtime_us",
            quiet_window="quiet_window_us", histogram_span="histogram_span_us",
            pulses_requested="pulses", draws="jitter_draws",
            bin_width="jitter_bin_ps") from exc
    return pcfg, points


def _histogram_rows(bin_width: float, counts: np.ndarray, starts: dict):
    """The (bin start in s, count) lines as one preformatted cell, the text
    ``_fmt_cell`` would give the float start and the integer count; none
    without bins.  A generator, so the writer does the formatting.  Calls
    sharing ``starts`` share the bin-start texts, keyed by bin width."""
    if len(counts):
        bw = float(bin_width)
        col = starts.setdefault(bw, [])
        col.extend(repr(i * bw) for i in range(len(col), len(counts)))
        yield ("\n".join(map("{},{}".format, col, counts.tolist())),)


def _processes(jobs: int) -> int:
    """Processes to share ``jobs``: one per CPU this process may use, at
    most one per job.  One where the affinity call is missing (not Linux)
    or another thread runs, which a fork would copy mid-step."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), jobs))


# What Python 3.12+ warns in os.fork while another OS thread runs, such as
# numpy's BLAS pool.  _fork ignores it: the children run no BLAS routine
# (nfadsim calls no linalg, dot or matmul), and _processes forks only
# while one Python thread runs, which catch_warnings, not thread-safe,
# needs.
_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, "
                 r"use of fork\(\) may lead to deadlocks in the child")


def _fork(func, indices) -> tuple[int, int]:
    """Fork a child that sends ``func(i)`` for each index in order, up to
    and including the first exception raised instead, pickled down a pipe;
    return its pid and the pipe's read end.  The child exits 0 only once
    it has sent them."""
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        values = []
        for i in indices:
            try:
                values.append(func(i))
            except Exception as exc:
                values.append(exc)
                break
        with open(write_fd, "wb") as fh:
            pickle.dump(values, fh)
        code = 0
    finally:
        os._exit(code)


def _fork_map(func, count: int) -> list:
    """``[func(0), ..., func(count - 1)]``, the indices split into
    contiguous runs, one per process (``_processes``).  This process forks
    a child for each later run, computes the first run itself, then reads
    each child's values and reaps it.  As in a loop, the exception of the
    lowest failing index is raised; a child that dies before sending its
    values is a RuntimeError.  No child outlives the call."""
    procs = _processes(count)
    bounds = [count * i // procs for i in range(procs + 1)]
    children = []                       # (pid, read end), not yet reaped
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            children.append(_fork(func, range(lo, hi)))
        results = [func(i) for i in range(bounds[1])]
        while children:
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as fh:
                data = fh.read()
            del children[0]
            os.close(read_fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise RuntimeError(f"worker process {pid} exited with "
                                   f"{code} before sending its results")
            for value in pickle.loads(data):
                if isinstance(value, Exception):
                    raise value
                results.append(value)
        return results
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_characterize(cfg: RunConfig, seed: int, grid_dump: bool = False):
    c = cfg.characterize
    pcfg, points = _prep_characterize(cfg)

    def measure(index):
        det, base = points[index][2], RandomStream(seed).child(index)
        return (characterize_point(det, pcfg, base),
                measure_jitter_histogram(det, c.jitter_draws, base.child(2),
                                         bin_width=c.jitter_bin_ps * 1e-12))

    outputs, rows, starts = [], [], {}
    for (temp_c, eta, _), (point, hist) in zip(
            points, _fork_map(measure, len(points))):
        fwhm = tcspc_widths(hist, 0.5)
        w1pct = tcspc_widths(hist, 0.01)
        dcr = point.dark_rate.value
        fom = figure_of_merit(point.efficiency.value, dcr, fwhm) \
            if dcr > 0.0 else None

        tag = f"T{temp_c:g}_eta{eta:g}"
        outputs += [
            (f"afterpulse_hist_{tag}.csv", (("bin_start_s", "count"),
             _histogram_rows(point.counts.bin_width, point.counts.histogram,
                             starts))),
            (f"jitter_{tag}.csv", (("bin_start_s", "count"),
             _histogram_rows(hist.bin_width, hist.counts, starts)))]

        # The estimates.csv columns, then the efficiency systematic.
        rows.append((temp_c, eta, *point.efficiency, *point.dark_rate,
                     *point.afterpulse_total, fwhm * 1e12, w1pct * 1e12, fom,
                     point.efficiency_systematic))

    return [*outputs,
            ("dcr_vs_eff.csv",
             (("temp_C", "eta_set", "dcr_cps", "dcr_err_cps"),
              ((r[0], r[1], r[4], r[5]) for r in rows))),
            ("afterpulse_vs_eff.csv",
             (("temp_C", "eta_set", "p_ap", "p_ap_err"),
              ((r[0], r[1], r[6], r[7]) for r in rows))),
            ("estimates.csv", (("temp_C", "eta_set", "eta_est", "eta_err",
                                "dcr_cps", "dcr_err_cps", "p_ap", "p_ap_err",
                                "fwhm_ps", "w1pct_ps", "H"),
                               (r[:11] for r in rows))),
            ("summary.json", {
                "seed": seed,
                "protocol": {
                    "pulses": c.pulses,
                    "laser_mu": c.laser_mu,
                    "quiet_window_us": c.quiet_window_us,
                    "histogram_span_us": c.histogram_span_us,
                    "deadtime_us": c.deadtime_us,
                    "fpga_clock_hz": _FPGA_CLOCK,
                },
                "points": [
                    {"temp_c": row[0], "eta_set": row[1],
                     "efficiency": {"value": row[2], "error": row[3],
                                    "systematic": row[11]},
                     "dark_rate_cps": {"value": row[4], "error": row[5]},
                     "afterpulse_total": {"value": row[6], "error": row[7]},
                     "fwhm_ps": row[8], "width_1pct_ps": row[9],
                     "figure_of_merit": row[10]}
                    for row in rows
                ],
            }),
            ("parameters.txt", calibration.parameter_summary() + "\n")]


# ------------------------------------------------------------------------ qkd

# [qkd] key -> the LinkConfig field it sets; losses_db sets channel_loss_db,
# one LinkConfig per loss.
_LINK_FIELDS = {"pulse_rate_hz": "pulse_rate",
                "visibility_intrinsic": "interferometer_visibility_intrinsic",
                "auth_rate_cost_bps": "auth_rate_cost",
                **{k: k for k in ("mu", "monitor_fraction", "optical_error",
                                  "ec_inefficiency", "pa_ratio",
                                  "monitor_duty")}}


def _link_configs(cfg: RunConfig) -> list:
    """One LinkConfig per [qkd] loss; an error names its [qkd] key."""
    q = cfg.qkd
    if not q.losses_db:
        raise ConfigError("[qkd] losses_db must not be empty")
    fields = {f: getattr(q, k) for k, f in _LINK_FIELDS.items()}
    try:
        return [LinkConfig(channel_loss_db=loss, **fields)
                for loss in q.losses_db]
    except ParameterError as exc:
        raise _config_error(exc, "qkd", q, channel_loss_db="losses_db", **{
            f: k for k, f in _LINK_FIELDS.items()}) from exc


def _search_space(cfg: RunConfig) -> SearchSpace:
    o = cfg.optimizer
    taus = tuple(t / 1e6 for t in o.deadtimes_us)
    try:
        space = SearchSpace(efficiency_grid=o.efficiencies,
                            deadtime_grid=taus,
                            temperature_grid=o.temperatures_c)
        # optimize builds the grid detectors, whose efficiencies must be on
        # the jitter table, outside this key mapping.
        for eta in o.efficiencies:
            calibration.DEFAULT_JITTER_MODEL.fwhm_at(eta)
    except (ParameterError, ExtrapolationError) as exc:
        raise _config_error(exc, "optimizer", o,
                            efficiency_grid="efficiencies",
                            efficiency="efficiencies",
                            deadtime_grid="deadtimes_us",
                            temperature_grid="temperatures_c") from exc
    cells = space.table_cells(o.per_detector)
    if cells > MAX_TABLE_CELLS:
        raise ConfigError(
            "[optimizer] efficiencies x deadtimes_us x temperatures_c"
            + (" with per_detector = true" if o.per_detector else "")
            + f": {cells:,} key rates per loss, past the "
            f"{MAX_TABLE_CELLS:,} a search may tabulate")
    return space


def _fixed_point(cfg: RunConfig):
    q = cfg.qkd
    eta_m = q.efficiency if q.efficiency_monitor is None \
        else q.efficiency_monitor
    tau_m_us = q.deadtime_us if q.deadtime_monitor_us is None \
        else q.deadtime_monitor_us
    keys = {"temperature": "temperature_c", "deadtime": "deadtime_us"}
    try:
        data = calibration.make_detector(q.temperature_c, q.efficiency,
                                         q.deadtime_us / 1e6)
        keys = {"efficiency": "efficiency_monitor",  # unset: the Data
                "deadtime": "deadtime_monitor_us"}   # values, just checked
        monitor = calibration.make_detector(q.temperature_c, eta_m,
                                            tau_m_us / 1e6)
    except (ParameterError, ExtrapolationError) as exc:
        raise _config_error(exc, "qkd", q, **keys) from exc
    return QkdOperatingPoint(data_detector=data, monitor_detector=monitor)


_SKR_HEADER = ("loss_db", "sifted_bps", "qber", "vis_raw", "vis_dark_sub",
               "skr_bps", "eta_D", "eta_M", "tau_D_us", "tau_M_us", "temp_C")


def _skr_row(o: Optimum):
    m, p = o.metrics, o.point
    if not o.found:
        return (o.loss_db, 0.0, None, None, None, 0.0,
                None, None, None, None, None)
    return (o.loss_db, m.sifted_rate, m.qber, m.visibility_raw,
            m.visibility_dark_subtracted, m.skr, p.efficiency_data,
            p.efficiency_monitor, p.deadtime_data * 1e6,
            p.deadtime_monitor * 1e6, p.temperature_c)


def _op_row(o: Optimum):
    p = o.point
    if not o.found:
        return (o.loss_db, False, None, None, None, None, None, o.skr)
    return (o.loss_db, True, p.temperature_c, p.efficiency_data,
            p.deadtime_data * 1e6, p.efficiency_monitor,
            p.deadtime_monitor * 1e6, o.skr)


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
            for eta, tau in space.sides()]
    temps = [_fmt_cell(t) for t in space.temperature_grid]
    monitors = [m + "," for m in side] if per_detector else [""]
    heads = [d + "," if per_detector else f"{d},{d}," for d in side]
    template = "\n".join("{0}%s{%d!r}" % (m, k)
                         for k, m in enumerate(monitors, 1))
    for o in optima:
        for t, rates in zip(temps, o.table.reshape(len(temps), len(side), -1)):
            prefix = f"{_fmt_cell(o.loss_db)},{t},"
            for head, chunk in zip(heads, rates.tolist()):
                yield (template.format(prefix + head, *chunk),)


def _optima(cfg: RunConfig, use_optimizer: bool, grid_dump: bool):
    """One Optimum per [qkd] loss, searched for or at the fixed point, and
    the grid dump output when asked for."""
    if grid_dump and not use_optimizer:
        raise ConfigError("--grid-dump needs the optimizer (use_optimizer = "
                          "true): a fixed point has no grid")
    links = _link_configs(cfg)
    if not use_optimizer:
        op = _fixed_point(cfg)
        d, m = op.data_detector, op.monitor_detector
        point = GridPoint(cfg.qkd.temperature_c, d.efficiency, d.deadtime,
                          m.efficiency, m.deadtime)
        return [Optimum(link.channel_loss_db, point, link_metrics(link, op))
                for link in links], []
    space = _search_space(cfg)
    per_detector = cfg.optimizer.per_detector
    optima = optimize(space, links, per_detector=per_detector)
    dump = [("grid_dump.csv",
             (_DUMP_HEADER, _dump_rows(space, per_detector, optima)))]
    return optima, dump if grid_dump else []


_OP_HEADER = ("loss_db", "found", "temp_C", "eta_D", "tau_D_us", "eta_M",
              "tau_M_us", "skr_bps")
_DUMP_HEADER = ("loss_db", "temp_C", "eta_D", "tau_D_us", "eta_M", "tau_M_us",
                "skr_bps")


def cmd_qkd(cfg: RunConfig, seed: int, grid_dump: bool = False):
    optima, dump = _optima(cfg, cfg.qkd.use_optimizer, grid_dump)
    skr_rows = [_skr_row(o) for o in optima]
    return [("skr_vs_loss.csv", (_SKR_HEADER, skr_rows)),
            ("qber_vis_vs_loss.csv",
             (("loss_db", "qber", "vis_raw", "vis_dark_sub"),
              ((r[0], r[2], r[3], r[4]) for r in skr_rows))),
            ("operating_points.csv", (_OP_HEADER, map(_op_row, optima))),
            *dump,
            ("qkd_summary.json",
             _qkd_payload(cfg, seed, skr_rows, cfg.qkd.use_optimizer))]


def cmd_optimize(cfg: RunConfig, seed: int, grid_dump: bool = False):
    optima, dump = _optima(cfg, True, grid_dump)
    return [("operating_points.csv", (_OP_HEADER, map(_op_row, optima))),
            *dump]


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
    point = characterize_point(ref, ProtocolConfig(pulses_requested=200_000),
                               RandomStream(seed).child(1))
    eta = point.efficiency
    dev = abs(eta.value - 0.115) / eta.error
    yield ("efficiency-closed-loop", dev < 3.5,
           f"estimate {eta.value:.4f} is {dev:.2f} sigma from truth")
    pap = point.afterpulse_total
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
    """Construct every configured object; selftest runs none of them."""
    _prep_characterize(cfg)
    _link_configs(cfg)
    _search_space(cfg)
    _fixed_point(cfg)


def cmd_selftest(cfg: RunConfig, seed: int) -> int:
    passed = []
    for name, ok, detail in _selftest_checks(seed):
        passed.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"selftest: {sum(passed)}/{len(passed)} checks passed")
    return 0 if all(passed) else 3


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
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        if args.command == "selftest":
            _validate_config(cfg)
            return cmd_selftest(cfg, seed)
        command = {"characterize": cmd_characterize, "qkd": cmd_qkd,
                   "optimize": cmd_optimize}[args.command]
        outputs = command(cfg, seed, getattr(args, "grid_dump", False))
        _write_outputs(Path(cfg.run.out if args.out is None else args.out),
                       outputs)
        return 0
    except (ConfigError, ParameterError, ExtrapolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, EstimatorDomainError, NoSignalError, OpenSupportError,
            RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
