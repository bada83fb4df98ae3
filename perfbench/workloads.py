"""The benchmark workloads, their parts, and the parts' output checks.

A workload answers one of the two questions nfadsim exists for.  Its pass
runs two parts one after the other, each at a fixed input size and each
stressing other layers; the two parts pair a mechanism with a control.

``detector``: what click stream does an NFAD give?

- ``characterize_sweep``: the CLI ``characterize`` command over a 2x2
  (temperature, efficiency) grid.  The quiet-window kernel dominates and
  dark candidates are rare, so skipping dead candidates should not move it
  while cheaper uniform draws should.  It writes eleven small files.
- ``clickstream_saturated``: ``detector.simulate`` on a free-running
  detector at r*tau = 10 with the calibrated trap model and a periodic
  laser.  About eleven candidates arrive per click and most are dead.

``link``: what key rate does the COW link get, at which operating point?

- ``link_search``: the CLI ``qkd`` command with the per-detector optimizer
  and ``--grid-dump`` over two losses.  No kernel runs; time goes to
  ``link_metrics``, the optimizer fold and the ~7 MB CSV.  Largest memory.
- ``qkd_session``: ``qkd.simulate_session`` over a loss x deadtime grid in
  the style of acceptance criterion 08, which exercises the ``qkd_data`` and
  ``qkd_monitor`` kernels.

Part code calls nfadsim through module attributes (``detector.simulate``,
``cli.main``), never through names imported into this module, so that the
tracer's patched bindings are the ones called.

A part's inputs come from the seed alone; every pass of one run repeats the
same inputs, so every pass must write the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from nfadsim import calibration, cli, config, detector, engine, qkd
from nfadsim.params import DarkRateModel

from tracer import Site


def _first(args, result):
    return int(result[0])


def _second(args, result):
    return int(result[1])


def _clicks(args, result):
    return len(result[0])


def _file_bytes(args, result):
    return Path(args[0]).stat().st_size


# Layer boundaries the tracer records, with the count each one derives from
# its call's inputs or outputs.
SITES = (
    Site("kernels.free_run", "nfadsim._kernels", "free_run", _clicks),
    Site("kernels.characterize", "nfadsim._kernels", "characterize",
         _second),
    Site("kernels.qkd_data", "nfadsim._kernels", "qkd_data", _first),
    Site("kernels.qkd_monitor", "nfadsim._kernels", "qkd_monitor",
         lambda args, result: int(result)),
    Site("detector.simulate", "nfadsim.detector", "simulate"),
    Site("engine.timeline_to_ps", "nfadsim.engine", "timeline_to_ps"),
    Site("characterize.run_protocol", "nfadsim.characterize",
         "run_protocol"),
    Site("characterize.measure_jitter_histogram", "nfadsim.characterize",
         "measure_jitter_histogram"),
    Site("characterize.tcspc_widths", "nfadsim.characterize",
         "tcspc_widths"),
    Site("qkd.link_metrics", "nfadsim.qkd", "link_metrics"),
    Site("qkd.simulate_session", "nfadsim.qkd", "simulate_session"),
    Site("optimize.optimize", "nfadsim.optimize", "optimize"),
    Site("calibration.make_detector", "nfadsim.calibration",
         "make_detector"),
    Site("cli.write", "nfadsim.cli", "_write_csv", _file_bytes),
    Site("cli.write", "nfadsim.cli", "_write_json", _file_bytes),
    Site("config.parse_config", "nfadsim.config", "parse_config"),
)


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0")
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def _write_ini(path: Path, sections: dict) -> None:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def _joined(values) -> str:
    return ", ".join(repr(v) for v in values)


class Part:
    """One part of a workload pass, at one seed.

    ``run_pass`` is the timed unit (one CLI call, one simulation job or one
    session grid); it returns an output handle that ``digest``, ``items``
    and ``check`` read, untimed.  ``first_simulation`` names the call that
    ends set-up.
    """

    name = ""
    item_unit = ""
    first_simulation: tuple[str, str] = ("", "")
    sizes: dict = {}

    def __init__(self, seed: int, workdir: Path, size: str = "full"):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.size = dict(self.sizes[size])

    def prepare(self) -> None:
        """Write the part's inputs (config files) into ``workdir``."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, outdir: Path):
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def items(self, output) -> int:
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Failed output checks, one message per failed operation."""
        return []

    def layer_counts(self, output) -> dict[str, float]:
        """Per-layer figures derived from the inputs and the outputs."""
        return {}


class CharacterizeSweep(Part):
    name = "characterize_sweep"
    item_unit = "pulses"
    first_simulation = ("nfadsim._kernels", "characterize")
    sizes = {
        "full": {"pulses": 125_000, "jitter_draws": 1_000_000},
        "smoke": {"pulses": 5_000, "jitter_draws": 100_000},
    }
    temperatures_c = (-110.0, -90.0)
    efficiencies = (0.115, 0.16)

    @property
    def ini(self) -> Path:
        return self.workdir / "characterize.ini"

    def prepare(self) -> None:
        super().prepare()
        _write_ini(self.ini, {
            "run": {"seed": self.seed},
            "characterize": {
                "temperatures_c": _joined(self.temperatures_c),
                "efficiencies": _joined(self.efficiencies),
                "pulses": self.size["pulses"],
                "jitter_draws": self.size["jitter_draws"],
            },
        })

    def run_pass(self, outdir: Path):
        rc = cli.main(["characterize", "--config", str(self.ini),
                       "--out", str(outdir)])
        if rc != 0:
            raise RuntimeError(f"nfadsim characterize exited with {rc}")
        return outdir

    def ops_per_pass(self) -> int:
        return len(self.temperatures_c) * len(self.efficiencies)

    def items(self, output) -> int:
        return self.ops_per_pass() * self.size["pulses"]

    def digest(self, output) -> str:
        return _dir_digest(output)

    def check(self, output) -> list[str]:
        failures = []
        with open(output / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.ops_per_pass():
            return [f"estimates.csv has {len(rows)} rows"] \
                * self.ops_per_pass()
        for row in rows:
            tag = f"T{float(row['temp_C']):g}_eta{float(row['eta_set']):g}"
            missing = [f for f in (f"afterpulse_hist_{tag}.csv",
                                   f"jitter_{tag}.csv")
                       if not (output / f).is_file()]
            eta, err = float(row["eta_est"]), float(row["eta_err"])
            dev = abs(eta - float(row["eta_set"])) / err if err > 0 else 0.0
            fwhm = float(row["fwhm_ps"])
            if missing:
                failures.append(f"{tag}: missing {missing}")
            elif not dev <= 5.0:
                # A closed-loop estimate 5 sigma off is a defect, not noise.
                failures.append(f"{tag}: efficiency {eta} is {dev:.1f} "
                                f"sigma from the set value")
            elif not 50.0 < fwhm < 500.0:
                failures.append(f"{tag}: FWHM {fwhm} ps out of range")
        return failures


class ClickstreamSaturated(Part):
    name = "clickstream_saturated"
    item_unit = "clicks"
    first_simulation = ("nfadsim._kernels", "free_run")
    sizes = {"full": {"duration": 0.02}, "smoke": {"duration": 0.002}}
    dark_rate_cps = 1.0e7
    deadtime = 1.0e-6            # r * tau = 10: ~11 candidates per click
    laser_period = 1.0e-6
    laser_mu = 0.91
    prefix = 0.002               # span replayed by simulate_reference

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        flat = DarkRateModel(amplitude_thermal=0.0,
                             activation_temperature=0.0,
                             floor=self.dark_rate_cps,
                             efficiency_exponent=0.0, efficiency_ref=0.115)
        # Calibrated trap model stays on: afterpulse candidates add to the
        # dead ones.
        self.det = calibration.make_detector(-90.0, 0.115, self.deadtime,
                                             dark_model=flat)
        self.duration = self.size["duration"]
        self.timeline = engine.pulsed_laser(
            self.laser_period, self.laser_mu,
            int(round(self.duration / self.laser_period)))

    def run_pass(self, outdir: Path):
        return detector.simulate(self.det, self.timeline, self.duration,
                                 engine.RandomStream(self.seed))

    def ops_per_pass(self) -> int:
        return 1

    def items(self, output) -> int:
        return len(output)

    def digest(self, output) -> str:
        h = hashlib.sha256(output.times.tobytes())
        h.update(output.origins.tobytes())
        return h.hexdigest()

    def check(self, output) -> list[str]:
        t, o = output.times, output.origins
        if len(t) == 0:
            return ["no clicks"]
        if np.any(np.diff(t) < self.det.deadtime) or t[-1] >= self.duration:
            return ["click stream violates deadtime or duration"]
        if not np.all(o <= 2):
            return ["unknown origin tag"]
        prefix = min(self.prefix, self.duration)
        ref = detector.simulate_reference(self.det, self.timeline, prefix,
                                          engine.RandomStream(self.seed))
        head = t < prefix
        if not (np.array_equal(t[head], ref.times)
                and np.array_equal(o[head], ref.origins)):
            return [f"first {prefix} s differ from simulate_reference"]
        return []

    def expected_candidates(self) -> float:
        p = -np.expm1(-self.timeline.mean_photon_numbers
                      * self.det.efficiency)
        return detector.dark_rate(self.det) * self.duration + float(p.sum())

    def layer_counts(self, output) -> dict[str, float]:
        return {"clickstream.live_frac":
                len(output) / self.expected_candidates()}


class LinkSearch(Part):
    name = "link_search"
    item_unit = "grid_points"
    first_simulation = ("nfadsim.qkd", "link_metrics")
    sizes = {
        "full": {"efficiencies": None, "deadtimes_us": None,
                 "temperatures_c": None},
        "smoke": {"efficiencies": (0.1, 0.14), "deadtimes_us": (5.0, 20.0),
                  "temperatures_c": (-90.0, -110.0)},
    }

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        # Two losses drawn from the seed: one short and one long link.
        rng = random.Random(self.seed)
        self.losses = (round(rng.uniform(5.0, 15.0), 1),
                       round(rng.uniform(15.0, 30.0), 1))
        o = config.OptimizerSection()
        pick = lambda key: self.size[key] or getattr(o, key)
        self.efficiencies = pick("efficiencies")
        self.deadtimes_us = pick("deadtimes_us")
        self.temperatures_c = pick("temperatures_c")
        self._dumps = {}

    @property
    def ini(self) -> Path:
        return self.workdir / "qkd.ini"

    def prepare(self) -> None:
        super().prepare()
        _write_ini(self.ini, {
            "run": {"seed": self.seed},
            "qkd": {"losses_db": _joined(self.losses),
                    "use_optimizer": "true"},
            "optimizer": {"efficiencies": _joined(self.efficiencies),
                          "deadtimes_us": _joined(self.deadtimes_us),
                          "temperatures_c": _joined(self.temperatures_c),
                          "per_detector": "true"},
        })

    def run_pass(self, outdir: Path):
        rc = cli.main(["qkd", "--config", str(self.ini), "--out",
                       str(outdir), "--grid-dump"])
        if rc != 0:
            raise RuntimeError(f"nfadsim qkd exited with {rc}")
        return outdir

    def ops_per_pass(self) -> int:
        return len(self.losses)

    def grid_points(self) -> int:
        per_side = len(self.efficiencies) * len(self.deadtimes_us)
        return len(self.temperatures_c) * per_side * per_side

    def items(self, output) -> int:
        return self.grid_points() * len(self.losses)

    def digest(self, output) -> str:
        return _dir_digest(output)

    def _dump(self, output):
        """Rows per loss, and the best SKR and positive count per loss."""
        if output in self._dumps:
            return self._dumps[output]
        rows, best, positive = {}, {}, {}
        with open(output / "grid_dump.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for rec in reader:
                loss, skr = float(rec[0]), float(rec[-1])
                rows[loss] = rows.get(loss, 0) + 1
                best[loss] = max(best.get(loss, 0.0), skr)
                positive[loss] = positive.get(loss, 0) + (skr > 0.0)
        self._dumps[output] = rows, best, positive
        return rows, best, positive

    def check(self, output) -> list[str]:
        rows, best, _ = self._dump(output)
        failures = []
        with open(output / "operating_points.csv", newline="") as fh:
            optima = {float(r["loss_db"]): r for r in csv.DictReader(fh)}
        for loss in self.losses:
            n = rows.get(loss, 0)
            opt = optima.get(loss)
            if n != self.grid_points():
                failures.append(f"{loss} dB: {n} dump rows, expected "
                                f"{self.grid_points()}")
                continue
            if opt is None:
                failures.append(f"{loss} dB: no operating point row")
                continue
            if opt["found"] != "1":
                if best[loss] != 0.0:
                    failures.append(f"{loss} dB: no optimum reported, but "
                                    f"the grid reaches {best[loss]!r}")
                continue
            # The CSV holds deadtime * 1e6; map it back to the exact value.
            tau = {repr(d / 1e6 * 1e6): d / 1e6 for d in self.deadtimes_us}
            if not {opt["tau_D_us"], opt["tau_M_us"]} <= tau.keys():
                failures.append(f"{loss} dB: optimum off the deadtime grid")
                continue
            temp = float(opt["temp_C"])
            point = qkd.QkdOperatingPoint(
                calibration.make_detector(temp, float(opt["eta_D"]),
                                          tau[opt["tau_D_us"]]),
                calibration.make_detector(temp, float(opt["eta_M"]),
                                          tau[opt["tau_M_us"]]))
            again = qkd.link_metrics(qkd.LinkConfig(channel_loss_db=loss),
                                     point).skr
            if repr(float(again)) != opt["skr_bps"] or again != best[loss]:
                failures.append(f"{loss} dB: optimum {opt['skr_bps']} is "
                                f"not link_metrics {again!r} or the grid "
                                f"maximum {best[loss]!r}")
        return failures

    def layer_counts(self, output) -> dict[str, float]:
        rows, _, positive = self._dump(output)
        return {"optimize.grid_points": float(self.items(output)),
                "optimize.positive_skr_frac":
                sum(positive.values()) / max(1, sum(rows.values()))}


class QkdSession(Part):
    name = "qkd_session"
    item_unit = "frames"
    first_simulation = ("nfadsim._kernels", "qkd_data")
    # Criterion 08 runs 4e8 frames below 15 dB and 1.2e9 above; a quarter
    # here.  Far fewer frames would leave the sifted-rate check too noisy.
    sizes = {"full": {"deadtimes_us": (10.0, 20.0, 40.0)},
             "smoke": {"deadtimes_us": (40.0,)}}
    frames_short = 100_000_000
    frames_long = 300_000_000
    losses_db = (10.0, 15.0, 20.0, 30.0)

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.grid = []
        for loss in self.losses_db:
            frames = self.frames_short if loss < 15.0 else self.frames_long
            for tau in self.size["deadtimes_us"]:
                det = calibration.make_detector(-90.0, 0.115, tau * 1e-6)
                self.grid.append((qkd.LinkConfig(channel_loss_db=loss),
                                  qkd.QkdOperatingPoint(det, det), frames))

    def run_pass(self, outdir: Path):
        stream = engine.RandomStream(self.seed)
        return [qkd.simulate_session(cfg, op, frames, stream.child(i))
                for i, (cfg, op, frames) in enumerate(self.grid)]

    def ops_per_pass(self) -> int:
        return len(self.grid)

    def items(self, output) -> int:
        return sum(frames for _, _, frames in self.grid)

    def digest(self, output) -> str:
        return hashlib.sha256(repr(output).encode()).hexdigest()

    def check(self, output) -> list[str]:
        # Criterion 08's statistics: QBER against the analytic value in
        # binomial sigmas, sifted rate as a relative deviation.  Criterion 08
        # runs fixed seeds with a 3 sigma limit.  Over arbitrary seeds a
        # 3 sigma limit on each of twelve sessions fails about 3% of seeds
        # by chance, so the QBER limit here is 5 sigma.  The sifted-rate
        # limit is criterion 08's.
        failures = []
        for (cfg, op, frames), mc in zip(self.grid, output):
            an = qkd.link_metrics(cfg, op)
            n_sifted = max(1.0, round(mc.sifted_rate * frames
                                      / cfg.frame_rate))
            sigma = math.sqrt(an.qber * (1.0 - an.qber) / n_sifted)
            z = abs(mc.qber - an.qber) / sigma
            rel = abs(mc.sifted_rate / an.sifted_rate - 1.0)
            if not (z <= 5.0 and rel <= 0.10):
                failures.append(
                    f"{cfg.channel_loss_db} dB, "
                    f"{op.data_detector.deadtime * 1e6:g} us: QBER "
                    f"{z:.2f} sigma, sifted rate {rel * 100:.2f}% off")
        return failures


WORKLOADS = {"detector": (CharacterizeSweep, ClickstreamSaturated),
             "link": (LinkSearch, QkdSession)}
PART_UNITS = {cls.name: cls.item_unit
              for parts in WORKLOADS.values() for cls in parts}


def build(workload: str, seed: int, workdir: Path, size: str = "full"):
    """The parts of one workload, each with its own directory."""
    return [cls(seed, Path(workdir) / cls.name, size)
            for cls in WORKLOADS[workload]]


def load_digests(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
