"""End-to-end command tests: exit codes, file layout, byte determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import signal
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfadsim import cli, config
from nfadsim.calibration import make_detector
from nfadsim.errors import NoSignalError, ParameterError
from nfadsim.optimize import SearchSpace, optimize
from nfadsim.params import TrapModel
from nfadsim.qkd import LinkConfig, QkdOperatingPoint, link_metrics

CHAR_INI = """
[characterize]
temperatures_c = -110
efficiencies = 0.115, 0.16
pulses = 20000
jitter_draws = 150000
"""

QKD_FIXED_INI = """
[qkd]
use_optimizer = false
losses_db = 5, 15
temperature_c = -90
efficiency = 0.115
deadtime_us = 10
"""

QKD_OPT_INI = """
[qkd]
losses_db = 10, 25

[optimizer]
efficiencies = 0.1, 0.2
deadtimes_us = 2, 20
temperatures_c = -50, -110
"""


def _cfg(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestCharacterize:
    def test_writes_expected_files(self, tmp_path):
        cfg = _cfg(tmp_path, CHAR_INI)
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--seed", "7",
                         "--out", str(out)]) == 0
        expected = {"estimates.csv", "dcr_vs_eff.csv", "afterpulse_vs_eff.csv",
                    "summary.json", "parameters.txt",
                    "afterpulse_hist_T-110_eta0.115.csv",
                    "afterpulse_hist_T-110_eta0.16.csv",
                    "jitter_T-110_eta0.115.csv", "jitter_T-110_eta0.16.csv"}
        assert {p.name for p in out.iterdir()} == expected

        header, rows = _read_rows(out / "estimates.csv")
        assert header == ["temp_C", "eta_set", "eta_est", "eta_err",
                          "dcr_cps", "dcr_err_cps", "p_ap", "p_ap_err",
                          "fwhm_ps", "w1pct_ps", "H"]
        assert len(rows) == 2
        for row in rows:
            for cell in row:
                # Lossless float serialization: text -> float -> text.
                assert repr(float(cell)) == cell
        payload = json.loads((out / "summary.json").read_text())
        assert payload["seed"] == 7
        assert len(payload["points"]) == 2

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = _cfg(tmp_path, CHAR_INI)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["characterize", "--config", cfg, "--seed", "5",
                             "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_changes_counts_but_not_physics(self, tmp_path):
        cfg = _cfg(tmp_path, CHAR_INI)
        runs = []
        for seed in ("5", "6"):
            out = tmp_path / f"s{seed}"
            assert cli.main(["characterize", "--config", cfg, "--seed", seed,
                             "--out", str(out)]) == 0
            runs.append(_read_rows(out / "estimates.csv")[1])
        assert runs[0] != runs[1]
        for a, b in zip(runs[0], runs[1]):
            eta_a, err_a = float(a[2]), float(a[3])
            eta_b, err_b = float(b[2]), float(b[3])
            assert abs(eta_a - eta_b) <= 3.0 * (err_a ** 2 + err_b ** 2) ** 0.5

    def test_outputs_keep_their_bytes(self, tmp_path):
        # sha256 recorded from the kernel that drew one laser decision per
        # cycle and the writer that formatted one histogram row at a time.
        golden = {
            "afterpulse_hist_T-90_eta0.115.csv": (
                "815ee606ce4ac02541a705686dd9e9e7"
                "4b5b338d8eff103dde72f1f69f8a073f"),
            "afterpulse_hist_T-90_eta0.16.csv": (
                "d20c69cf654620e3ced4e0d20b1a29d7"
                "893e6faa96679d09be5cbbb8cd116d03"),
            "afterpulse_vs_eff.csv": (
                "7d429f757596f5ce44a62813d4980c7a"
                "12ebbde9591ebd5ab71b71a2742089f5"),
            "dcr_vs_eff.csv": (
                "efe70b84e245174225137b5cd670d683"
                "7dfa839813e42b45e2853526fb542615"),
            "estimates.csv": (
                "9702a58634e6b5231887125aec005e7b"
                "ca550e2efa194cfaf0a2ff548b967646"),
            "jitter_T-90_eta0.115.csv": (
                "e7e36562b31460da7724d100ff0308b0"
                "426303f3d44c1a8ab455c7a66cb8609d"),
            "jitter_T-90_eta0.16.csv": (
                "9c4a76d3220a9abbdac1274522be6ecd"
                "dcfde0865f7c4745ac19e44f767ca18a"),
            "parameters.txt": (
                "e2b9e014705849e85e0597a602939172"
                "38bf73ee4860bf06b5b930770af6204a"),
            "summary.json": (
                "8a03ae83377d720b32d07d6102a6d58c"
                "f91e5891c2acf37606c894abaed1b7c5"),
        }
        cfg = _cfg(tmp_path, "[characterize]\ntemperatures_c = -90\n"
                   "efficiencies = 0.115, 0.16\npulses = 4000\n"
                   "jitter_draws = 20000\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--seed", "7",
                         "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == set(golden)
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == digest, name

    def test_empty_point_grid_exits_1_without_output(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[characterize]\ntemperatures_c =\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        assert not out.exists()


# Grids of 1, 2, 3 and 5 points, each small enough to run in a blink.
_GRIDS = {1: ("-110", "0.115"),
          2: ("-110", "0.115, 0.16"),
          3: ("-110", "0.1, 0.115, 0.16"),
          5: ("-110, -100, -90, -80, -70", "0.115")}
_FAILING_ETAS = (0.1, 0.115, 0.13, 0.16)
_FAILING_GRID = ("-110", ", ".join(map(str, _FAILING_ETAS)))


def _grid_cfg(tmp_path, temps, etas):
    return _cfg(tmp_path, f"[characterize]\ntemperatures_c = {temps}\n"
                f"efficiencies = {etas}\npulses = 1000\n"
                "jitter_draws = 20000\n")


def _allow_cpus(monkeypatch, cpus):
    """Let this process use ``cpus`` CPUs; return the pids it forks."""
    monkeypatch.setattr(cli.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(cli.os, "fork", counted)
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_at(monkeypatch, failing):
    """Make the points at indices ``failing`` raise: ParameterError (exit
    1) at odd indices, NoSignalError (exit 2) at even ones."""
    point = cli.characterize_point

    def failing_point(det, pcfg, base):
        index = _FAILING_ETAS.index(det.efficiency)
        if index in failing:
            raise (ParameterError if index % 2 else NoSignalError)(
                f"point {index} fails")
        return point(det, pcfg, base)

    monkeypatch.setattr(cli, "characterize_point", failing_point)


class TestForkedPoints:
    @pytest.mark.parametrize("points", sorted(_GRIDS))
    def test_every_cpu_count_writes_the_same_bytes(self, tmp_path,
                                                   monkeypatch, points):
        cfg = _grid_cfg(tmp_path, *_GRIDS[points])
        outs = {}
        for cpus in (1, 2, 3):
            forks = _allow_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["characterize", "--config", cfg, "--seed", "3",
                             "--out", str(out)]) == 0
            assert len(forks) == min(cpus, points) - 1
            _assert_no_children()
            outs[cpus] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert outs[2] == outs[1] and outs[3] == outs[1]

    @pytest.mark.parametrize("failing", [{3}, {2, 3}, {1, 3}, {2}])
    def test_the_lowest_failing_point_decides_the_exit(
            self, tmp_path, monkeypatch, capsys, failing):
        # Two CPUs run points 0-1 here and 2-3 in a child; three CPUs run
        # point 0 here, 1 in one child and 2-3 in another.
        _fail_at(monkeypatch, failing)
        cfg = _grid_cfg(tmp_path, *_FAILING_GRID)
        seen = []
        for cpus in (1, 2, 3):
            forks = _allow_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            code = cli.main(["characterize", "--config", cfg, "--out",
                             str(out)])
            seen.append((code, capsys.readouterr().err))
            assert len(forks) == cpus - 1
            assert not out.exists()
            _assert_no_children()
        lowest = min(failing)
        assert seen[0] == (1 if lowest % 2 else 2, (
            "error: " if lowest % 2 else "runtime error: ")
            + f"point {lowest} fails\n")
        assert seen[1] == seen[0] and seen[2] == seen[0]

    def test_a_killed_child_exits_2(self, tmp_path, monkeypatch, capsys):
        parent, point = os.getpid(), cli.characterize_point

        def killed_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return point(*args)

        monkeypatch.setattr(cli, "characterize_point", killed_in_child)
        _allow_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config",
                         _grid_cfg(tmp_path, *_FAILING_GRID), "--out",
                         str(out)]) == 2
        assert capsys.readouterr().err.startswith("runtime error: worker ")
        assert not out.exists()
        _assert_no_children()

    def test_an_interrupt_here_stops_every_child(self, tmp_path,
                                                 monkeypatch):
        parent, point = os.getpid(), cli.characterize_point

        def interrupted_here(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return point(*args)

        monkeypatch.setattr(cli, "characterize_point", interrupted_here)
        forks = _allow_cpus(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["characterize", "--config",
                      _grid_cfg(tmp_path, *_FAILING_GRID), "--out",
                      str(tmp_path / "out")])
        assert len(forks) == 2
        _assert_no_children()


class TestQkdFixedPoint:
    def test_rows_match_direct_evaluation(self, tmp_path):
        cfg = _cfg(tmp_path, QKD_FIXED_INI)
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _read_rows(out / "skr_vs_loss.csv")
        assert header == list(cli._SKR_HEADER)
        det = make_detector(-90.0, 0.115, 10e-6)
        op = QkdOperatingPoint(det, det)
        for row, loss in zip(rows, (5.0, 15.0)):
            m = link_metrics(LinkConfig(channel_loss_db=loss), op)
            assert float(row[0]) == loss
            assert float(row[1]) == m.sifted_rate
            assert float(row[2]) == m.qber
            assert float(row[5]) == m.skr
            assert float(row[6]) == 0.115
            assert float(row[8]) == 10.0

        _, op_rows = _read_rows(out / "operating_points.csv")
        assert [r[1] for r in op_rows] == ["1", "1"]
        payload = json.loads((out / "qkd_summary.json").read_text())
        assert payload["optimizer"] is False
        assert payload["security_parameter"] == 4e-9
        assert "compression" in payload["pa_ratio_meaning"]

    def test_a_loss_without_key_keeps_its_point_and_rates(self, tmp_path):
        # At 60 dB the fixed point is still written, found, at zero key rate.
        cfg = _cfg(tmp_path, "[qkd]\nuse_optimizer = false\n"
                             "losses_db = 5, 60\n")
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out)]) == 0
        ops = (out / "operating_points.csv").read_text().splitlines()
        assert ops[2] == "60.0,1,-110.0,0.115,20.0,0.115,20.0,0.0"
        det = make_detector(-110.0, 0.115, 20e-6)
        m = link_metrics(LinkConfig(channel_loss_db=60.0),
                         QkdOperatingPoint(det, det))
        _, rows = _read_rows(out / "skr_vs_loss.csv")
        assert rows[1][:3] == ["60.0", cli._fmt_cell(m.sifted_rate),
                               cli._fmt_cell(m.qber)]
        assert m.sifted_rate > 0.0 and rows[1][5] == "0.0"

    def test_qber_vis_file_mirrors_skr_file(self, tmp_path):
        cfg = _cfg(tmp_path, QKD_FIXED_INI)
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out)]) == 0
        _, skr_rows = _read_rows(out / "skr_vs_loss.csv")
        _, qv_rows = _read_rows(out / "qber_vis_vs_loss.csv")
        for s, q in zip(skr_rows, qv_rows):
            assert [s[0], s[2], s[3], s[4]] == q

    def test_outputs_keep_their_bytes(self, tmp_path):
        # sha256 recorded from the fixed-point branch that spelled out its
        # own rows; a distinct monitor detector fills every column.
        golden = {
            "skr_vs_loss.csv": "8ea4b4a95fbe81bc3c3721ecc2e5e83f"
                               "e915373c695f6dd459692dccad087dcd",
            "qber_vis_vs_loss.csv": "d7805d2e23c836b2a2a1440eac718218"
                                    "3e80349b582a7f1b3696ae13fe1af66c",
            "operating_points.csv": "eb8c38a97d56f0004dfc0d007c8b8f4d"
                                    "8abcc428ffafad1cb8b372d615ade196",
            "qkd_summary.json": "b7a8149fbf46dc73bdbaed6e5b181e83"
                                "5d749821ef49ee6f25281bce3264aa31",
        }
        cfg = _cfg(tmp_path, QKD_FIXED_INI + "efficiency_monitor = 0.2\n"
                   "deadtime_monitor_us = 5\n")
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out)]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == digest, name


class TestSaturatedLink:
    # Both once exited 1 with "p must be in [0, 1]": a 0.1% floor on the
    # armed fraction gave more primaries than clicks at plain saturation.
    @pytest.mark.parametrize("ini", [
        "[qkd]\nuse_optimizer = false\nmu = 1e9\nlosses_db = 5\n",
        "[qkd]\nmu = 10\nlosses_db = 5\n",
    ], ids=["fixed_point_mu_1e9", "optimizer_mu_10"])
    def test_a_saturated_link_exits_0_with_its_rates(self, tmp_path, ini):
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", _cfg(tmp_path, ini), "--out",
                         str(out)]) == 0
        _, rows = _read_rows(out / "skr_vs_loss.csv")
        assert [row[0] for row in rows] == ["5.0"]

    # Past 1e154 candidates per hold-off, numpy warned: at 1e300 us the
    # squared candidates overflowed and the root read no clicks at all, and
    # at 1e308 us so did the trap releases' first-window term.
    @pytest.mark.parametrize("deadtime_us, mu", [(1e300, 0.06), (1e308, 1e9)])
    def test_a_hold_off_past_1e294_s_has_no_key_and_no_warning(
            self, tmp_path, capsys, deadtime_us, mu):
        ini = f"[qkd]\nuse_optimizer = false\ndeadtime_us = {deadtime_us}\n" \
            f"mu = {mu}\nlosses_db = 5\n"
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["qkd", "--config", _cfg(tmp_path, ini), "--out",
                             str(out)])
        assert code == 0 and caught == []
        assert capsys.readouterr().err == ""
        header, rows = _read_rows(out / "skr_vs_loss.csv")
        row = dict(zip(header, rows[0]))
        # No release outlives the hold-off, so every click is a primary:
        # not the coin-flip QBER of an armed fraction rounded to 0.
        assert 0.0 < float(row["qber"]) < 0.5
        assert float(row["skr_bps"]) == 0.0
        # One click per hold-off; at 1e308 us r0 * hold-off overflowed and
        # the root read no clicks.
        assert float(row["sifted_bps"]) == pytest.approx(1e6 / deadtime_us,
                                                         rel=1e-6, abs=0.0)

    # 1 - C*hold-off kept only rounding noise (1.1e-16 where the root gives
    # about 1e-50): more primaries than clicks, and the run exited 1 with
    # "p must be in [0, 1]".
    @pytest.mark.parametrize("deadtime_us", [1e50, 1e140])
    def test_a_hold_off_near_saturation_exits_0_without_key(
            self, tmp_path, capsys, deadtime_us):
        ini = f"[qkd]\nuse_optimizer = false\ndeadtime_us = {deadtime_us}\n" \
            "losses_db = 5\n"
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", _cfg(tmp_path, ini), "--out",
                         str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = _read_rows(out / "skr_vs_loss.csv")
        row = dict(zip(header, rows[0]))
        assert 0.0 <= float(row["qber"]) <= 0.5
        assert float(row["skr_bps"]) == 0.0


class TestQkdOptimized:
    def test_grid_dump_and_operating_points(self, tmp_path):
        cfg = _cfg(tmp_path, QKD_OPT_INI)
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out),
                         "--grid-dump"]) == 0
        _, dump = _read_rows(out / "grid_dump.csv")
        assert len(dump) == 2 * 8      # losses x (2 eta, 2 tau, 2 T) shared

        space = SearchSpace(efficiency_grid=(0.1, 0.2),
                            deadtime_grid=(2e-6, 20e-6),
                            temperature_grid=(-50.0, -110.0))
        optima = optimize(space, [LinkConfig(channel_loss_db=loss)
                                  for loss in (10.0, 25.0)])
        _, op_rows = _read_rows(out / "operating_points.csv")
        assert len(op_rows) == 2
        for row, opt in zip(op_rows, optima):
            assert float(row[0]) == opt.loss_db
            assert row[1] == "1"
            assert float(row[3]) == opt.point.efficiency_data
            assert float(row[4]) == opt.point.deadtime_data * 1e6
            assert float(row[7]) == opt.skr

    def test_per_detector_outputs_keep_their_bytes(self, tmp_path):
        # sha256 recorded from the scalar fold that evaluated link_metrics
        # at every (Data, Monitor) pair.
        golden = {
            "grid_dump.csv": "332f194f2ca6453a15664e4fb3deb722"
                             "ce7ad9bb25c0c0c79e736502452fa10f",
            "operating_points.csv": "58e524745a3d4b43a4137011f2997da4"
                                    "130a956488de028b38f5803fde99008a",
        }
        cfg = _cfg(tmp_path, QKD_OPT_INI + "per_detector = true\n")
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out),
                         "--grid-dump"]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == digest, name

    def test_per_detector_dump_of_an_uneven_grid_keeps_its_bytes(
            self, tmp_path):
        # Six Data sides (3 eta x 2 tau) over three temperatures and three
        # losses: 324 rows in 54 groups of six.  sha256 recorded from the
        # writer that formatted the dump one row at a time.
        text = (QKD_OPT_INI.replace("10, 25", "10, 25, 30")
                .replace("0.1, 0.2", "0.1, 0.15, 0.2")
                .replace("-50, -110", "-50, -90, -110"))
        cfg = _cfg(tmp_path, text + "per_detector = true\n")
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out),
                         "--grid-dump"]) == 0
        data = (out / "grid_dump.csv").read_bytes()
        assert data.count(b"\n") == 1 + 3 * 3 * 6 * 6
        assert hashlib.sha256(data).hexdigest() == (
            "a886c351ff0e77e6c80acc902b2c7ddf0d4780c5430cd625b10d6a69b82b4791")

    def test_zero_key_rate_dumps_positive_zero(self, tmp_path):
        # At 200 dB, K < 0 (QBER 0.5) times V == 0 is -0.0; with no
        # authentication cost the dump must still print 0.0.
        text = QKD_OPT_INI.replace("losses_db = 10, 25",
                                   "losses_db = 200\nauth_rate_cost_bps = 0")
        cfg = _cfg(tmp_path, text + "per_detector = true\n")
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out),
                         "--grid-dump"]) == 0
        _, dump = _read_rows(out / "grid_dump.csv")
        assert len(dump) == 2 * (2 * 2) ** 2
        assert {row[-1] for row in dump} == {"0.0"}


class TestOptimizeCommand:
    def test_writes_only_operating_points(self, tmp_path):
        cfg = _cfg(tmp_path, QKD_OPT_INI)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out",
                         str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"operating_points.csv"}

    def test_grid_dump_flag_adds_the_table(self, tmp_path):
        cfg = _cfg(tmp_path, QKD_OPT_INI)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out),
                         "--grid-dump"]) == 0
        assert {p.name for p in out.iterdir()} == {"operating_points.csv",
                                                   "grid_dump.csv"}

    def test_shared_outputs_keep_their_bytes(self, tmp_path):
        golden = {
            "grid_dump.csv": "2f2facef37e9e0915c06c66cff684c8d"
                             "74db82bd86c2f531719288858e9f4ee6",
            "operating_points.csv": "586451b5473419f7696d1ef9d502968d"
                                    "081fc3f6db77ba20d820d69af6b9f949",
        }
        cfg = _cfg(tmp_path, QKD_OPT_INI)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out),
                         "--grid-dump"]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == digest, name


    @pytest.mark.parametrize("past, code", [(0, 0), (1, 1)])
    def test_a_table_past_the_bound_exits_1_without_output(
            self, tmp_path, capsys, monkeypatch, past, code):
        # The bound set to this grid's per-detector table (2 temperatures
        # x 4 sides, squared): at it the command runs; one cell past it,
        # it exits 1 before any detector is built.
        monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 32 - past)
        if code:
            monkeypatch.setattr(cli, "optimize", None)
        cfg = _cfg(tmp_path, QKD_OPT_INI + "per_detector = true\n")
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out",
                         str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("error: [optimizer] efficiencies x deadtimes_us "
                           "x temperatures_c with per_detector = true: 32 "
                           f"key rates per loss, past the {32 - past} a "
                           "search may tabulate\n")
            assert not out.exists()
        else:
            assert err == "" and out.exists()

    def test_a_ten_times_finer_grid_exits_1_before_it_allocates(
            self, tmp_path, capsys):
        # 230 efficiencies x 60 hold-offs x 4 temperatures, per detector:
        # 7.6e8 key rates, a 6.1 GB table per loss.
        etas = ", ".join(str(round(0.05 + 0.001 * k, 3)) for k in range(230))
        taus = ", ".join(str(k) for k in range(1, 61))
        cfg = _cfg(tmp_path, f"[optimizer]\nper_detector = true\n"
                             f"efficiencies = {etas}\ndeadtimes_us = {taus}\n")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert cli.main(["optimize", "--config", cfg, "--out",
                             str(out)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        err = capsys.readouterr().err
        assert err.startswith("error: [optimizer] ")
        assert "761,760,000 key rates" in err
        assert not out.exists()


class TestSelftest:
    def test_passes_with_defaults(self, capsys):
        assert cli.main(["selftest", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "selftest: 5/5 checks passed" in out
        assert "FAIL" not in out

    def test_report_is_reproducible(self, capsys):
        cli.main(["selftest", "--seed", "42"])
        first = capsys.readouterr().out
        cli.main(["selftest", "--seed", "42"])
        assert capsys.readouterr().out == first

    def test_failing_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_selftest_checks",
                            lambda seed: iter([("forced", False, "boom")]))
        assert cli.main(["selftest"]) == 3
        out = capsys.readouterr().out
        assert "FAIL forced" in out
        assert "0/1 checks passed" in out


class TestExitCodes:
    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[qkd]\nloses_db = 5\n")
        assert cli.main(["qkd", "--config", cfg]) == 1
        assert "loses_db" in capsys.readouterr().err

    def test_invalid_physics_exits_1_before_selftest(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[qkd]\ndeadtime_us = -5\n")
        assert cli.main(["selftest", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_a_lifetime_exponent_past_the_float_range_exits_1(
            self, tmp_path, capsys, monkeypatch):
        # No INI key sets the trap model, so the detector factory is
        # replaced: 2e6 K puts the Arrhenius exponent past exp()'s range.
        trap = TrapModel(mean_traps_per_avalanche=1.0, efficiency_exponent=0.0,
                         efficiency_ref=0.115,
                         release_components=((1.0, 1e-6, 2e6),),
                         reference_temperature=183.15)
        real = cli.calibration.make_detector
        monkeypatch.setattr(cli.calibration, "make_detector",
                            lambda *args: real(*args, trap_model=trap))
        cfg = _cfg(tmp_path, QKD_FIXED_INI.replace("-90", "-110"))
        assert cli.main(["qkd", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 1
        assert "component 0" in capsys.readouterr().err

    def test_efficiency_off_the_jitter_table_exits_1(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[characterize]\nefficiencies = 0.01\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        assert not out.exists()

    def test_empty_loss_list_exits_1_without_output(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[qkd]\nlosses_db =\n")
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out)]) == 1
        assert "losses_db" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_outdir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        cfg = _cfg(tmp_path, QKD_FIXED_INI)
        assert cli.main(["qkd", "--config", cfg, "--out", str(blocker)]) == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("qkd", "[qkd]\nuse_optimizer = false\nlosses_db = nan\n",
         "losses_db"),
        ("characterize", "[characterize]\njitter_bin_ps = nan\n",
         "jitter_bin_ps"),
    ])
    def test_non_finite_value_exits_1_without_output(self, tmp_path, capsys,
                                                     command, text, key):
        cfg = _cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_a_negative_seed_exits_1_without_output(self, tmp_path, capsys,
                                                    where):
        out = tmp_path / "out"
        argv = ["characterize", "--out", str(out)]
        argv += ["--seed", "-1"] if where == "flag" else \
            ["--config", _cfg(tmp_path, "[run]\nseed = -1\n")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("deadtime_us", ["0.01", "101", "160"])
    def test_a_deadtime_outside_the_protocol_exits_1_without_output(
            self, tmp_path, capsys, deadtime_us):
        # Below one 20 ns clock bin, longer than the 100 us quiet window, or
        # longer than the 150 us span.
        cfg = _cfg(tmp_path, f"[characterize]\ndeadtime_us = {deadtime_us}\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "deadtime" in err
        assert not out.exists()

    def test_a_deadtime_equal_to_the_quiet_window_runs(self, tmp_path):
        cfg = _cfg(tmp_path, "[characterize]\ntemperatures_c = -70\n"
                             "efficiencies = 0.2\ndeadtime_us = 100\n"
                             "pulses = 2000\njitter_draws = 100000\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 0
        assert (out / "estimates.csv").exists()

    @pytest.mark.parametrize("bin_ps", ["1e9", "160"])
    def test_a_jitter_bin_wider_than_the_fwhm_exits_1_naming_it(
            self, tmp_path, capsys, monkeypatch, bin_ps):
        # At 1e9 ps every delay lands in the first bin, so the histogram
        # never falls below half its peak on the left; 160 ps is just over
        # the 159.1 ps FWHM at the default 11.5% efficiency.  Both are
        # rejected before any point runs.
        monkeypatch.setattr(cli, "characterize_point", None)
        cfg = _cfg(tmp_path, f"[characterize]\njitter_bin_ps = {bin_ps}\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [characterize] jitter_bin_ps ")
        assert "FWHM" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_jitter_bin_the_draws_overflow_exits_1_naming_it(
            self, tmp_path, capsys, monkeypatch):
        # 0.0026 ps was accepted over latency + 10 FWHM, yet 1e6 draws
        # reach about 1.2e6 such bins; checked before any point runs.
        monkeypatch.setattr(cli, "characterize_point", None)
        cfg = _cfg(tmp_path, "[characterize]\njitter_bin_ps = 0.0026\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [characterize] jitter_bin_ps = 0.0026: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_jitter_bin_of_the_fwhm_runs(self, tmp_path):
        cfg = _cfg(tmp_path, "[characterize]\npulses = 2000\n"
                             "jitter_draws = 100000\njitter_bin_ps = 158\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 0
        assert (out / "estimates.csv").exists()

    @pytest.mark.parametrize("draws", ["0", "1000000001", "100000000000"])
    def test_a_jitter_draw_count_off_its_range_exits_1_without_output(
            self, tmp_path, capsys, monkeypatch, draws):
        # Checked before any point runs, so nothing is allocated.
        monkeypatch.setattr(cli, "characterize_point", None)
        cfg = _cfg(tmp_path, f"[characterize]\njitter_draws = {draws}\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [characterize] jitter_draws ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_quiet_window_past_the_cycle_timeout_exits_1_naming_it(
            self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[characterize]\nquiet_window_us = 60000\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [characterize] quiet_window_us ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("jitter_bin_ps", "1e-300"),        # about 1e303 bins
        ("jitter_bin_ps", "1e-320"),        # 0.0 in seconds
        ("jitter_bin_ps", "-2"),
        ("histogram_span_us", "1e300"),
        ("histogram_span_us", "20000.1"),   # 10**6 bins
    ])
    def test_a_histogram_of_too_many_bins_exits_1_without_output(
            self, tmp_path, capsys, key, value):
        cfg = _cfg(tmp_path, f"[characterize]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [characterize] {key} ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("mu", "-1"),
        ("visibility_intrinsic", "2"),
        ("pulse_rate_hz", "-1"),
        ("pulse_rate_hz", "1e300"),     # a slot far below 1 ps
        ("auth_rate_cost_bps", "-1"),
        ("losses_db", "-5"),
    ])
    @pytest.mark.parametrize("command, mode", [
        ("qkd", "use_optimizer = true"),
        ("qkd", "use_optimizer = false"),
        ("optimize", "use_optimizer = true"),
    ])
    def test_a_bad_link_key_exits_1_naming_it_without_output(
            self, tmp_path, capsys, key, value, command, mode):
        cfg = _cfg(tmp_path, f"[qkd]\n{mode}\n{key} = {value}\n"
                             "[optimizer]\nefficiencies = 0.115\n"
                             "deadtimes_us = 20\ntemperatures_c = -110\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [qkd] {key} ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("qkd", "qkd", "deadtime_us", "-1"),
        ("qkd", "qkd", "temperature_c", "100"),
        ("qkd", "qkd", "efficiency", "0.5"),
        ("qkd", "qkd", "efficiency_monitor", "0.5"),
        ("qkd", "qkd", "deadtime_monitor_us", "-1"),
        ("optimize", "optimizer", "deadtimes_us", "-1"),
        ("optimize", "optimizer", "efficiencies", "0.5"),
        ("qkd", "optimizer", "temperatures_c", "100"),
        ("characterize", "characterize", "deadtime_us", "-1"),
        ("characterize", "characterize", "temperatures_c", "100"),
        ("characterize", "characterize", "temperatures_c", "-110, 100"),
        ("characterize", "characterize", "efficiencies", "0.5"),
        ("characterize", "characterize", "pulses", "0"),
        ("characterize", "characterize", "laser_mu", "0"),
        # Inside [0, 0.35] but below the jitter table's 0.05.
        ("characterize", "characterize", "efficiencies", "0.01"),
        ("optimize", "optimizer", "efficiencies", "0.01"),
        ("qkd", "qkd", "efficiency", "0.01"),
        ("qkd", "qkd", "efficiency_monitor", "0.01"),
    ])
    def test_a_bad_detector_key_exits_1_naming_it_without_output(
            self, tmp_path, capsys, monkeypatch, command, section, key,
            value):
        # The [qkd] detector keys set the fixed point, which a search
        # does not build.  Each value is caught before any point runs or
        # the search starts, and shown as the INI writes it: the library
        # sees -1 us as -1e-06 s and 100 C as 373.15 K.
        for name in ("characterize_point", "optimize", "link_metrics"):
            monkeypatch.setattr(cli, name, None)
        fixed = "use_optimizer = false\n" if section == "qkd" else ""
        cfg = _cfg(tmp_path, f"[{section}]\n{fixed}{key} = {value}\n")
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{section}] {key} = {value}: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_grid_dump_without_optimizer_exits_1_without_output(
            self, tmp_path, capsys):
        cfg = _cfg(tmp_path, QKD_FIXED_INI)
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out),
                         "--grid-dump"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "optimizer" in err
        assert not out.exists()


def _csv_rows(n):
    """n rows holding every cell type ``_fmt_cell`` formats."""
    for i in range(n):
        yield (f"r{i}", None, i % 3 == 0, i - 7, np.int64(i) * 3,
               i * 0.1 - 50.0, np.float64(i) / 7.0, -0.0, float("inf"))


class TestCsvWriter:
    @pytest.mark.parametrize("n", [0, 1, 10_000])
    def test_bytes_match_the_joined_text(self, tmp_path, n):
        header = ("a", "b", "c", "d", "e", "f", "g", "h", "i")
        lines = [",".join(map(cli._fmt_cell, row)) for row in _csv_rows(n)]
        expected = "\n".join([",".join(header), *lines]) + "\n"
        path = tmp_path / "t.csv"
        cli._write_csv(path, header, _csv_rows(n))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_a_histogram_without_bins_writes_the_header_alone(self,
                                                               tmp_path):
        path = tmp_path / "h.csv"
        cli._write_csv(path, ("bin_start_s", "count"),
                       cli._histogram_rows(1e-9, np.zeros(0, np.int64), {}))
        assert path.read_bytes() == b"bin_start_s,count\n"

    def test_histograms_sharing_bin_starts_keep_their_text(self):
        # A shorter, a longer and a shorter histogram at one bin width, as
        # the jitter points of one run are, and one at another width.
        starts = {}
        for bw, n in ((2e-12, 3), (2e-12, 7), (2e-9, 5), (2e-12, 4)):
            counts = np.arange(n, dtype=np.int64) * 11
            (shared,), = cli._histogram_rows(bw, counts, starts)
            assert shared == "\n".join(f"{cli._fmt_cell(i * bw)},{c}"
                                        for i, c in enumerate(counts))
        assert sorted(len(col) for col in starts.values()) == [5, 7]

    def test_peak_memory_is_bounded_by_a_line(self, tmp_path):
        # One preformatted cell per row, as in the grid dump; the joined
        # text is about 4.5 MB.
        rows = [(f"{i},{i / 7.0!r}",) for i in range(200_000)]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "t.csv", ("n", "x"), rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


# Raw INI numbers: zero, negative, boundary, tiny, huge, non-finite,
# malformed and empty, then any finite float.
_NUMBER = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "1", "2", "0.5", "1e-300", "1e300",
                     "-1e300", "nan", "inf", "x", ""]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_RAW = {
    config._parse_float: _NUMBER,
    config._parse_int: st.one_of(st.sampled_from(["", "1.5"]),
                                 st.integers(-2, 2**70).map(str)),
    config._parse_bool: st.sampled_from(["true", "false", "maybe"]),
    # At most one value, so that every grid has at most one point.
    config._parse_float_list: st.lists(_NUMBER, max_size=1).map(", ".join),
}
# Run sizes are drawn no larger than these, so that a run stays tiny.
_SIZES = {"pulses": 500, "jitter_draws": 20_000}
_BASE = {"characterize": {k: str(v) for k, v in _SIZES.items()},
         "optimizer": {"efficiencies": "0.115", "deadtimes_us": "20",
                       "temperatures_c": "-110"}}


def _raw(section, field):
    """Raw values of one key: a drawn one, or its scalar default."""
    parser = config._PARSERS[section][field.name]
    if field.name in _SIZES:
        return st.integers(-1, _SIZES[field.name]).map(str)
    if field.default is None or parser is config._parse_float_list:
        return _RAW[parser]
    return st.just(str(field.default)) | _RAW[parser]


# Every key of every section but [run] out, the output path --out sets.
_SECTIONS = st.fixed_dictionaries({}, optional={
    name: st.fixed_dictionaries({}, optional={
        f.name: _raw(name, f) for f in dataclasses.fields(cls)
        if config._PARSERS[name][f.name] is not str})
    for name, cls in config._SECTION_TYPES.items()})


class TestAnyConfig:
    @settings(max_examples=150)
    @given(command=st.sampled_from(["characterize", "qkd", "optimize"]),
           sections=_SECTIONS, seed=st.none() | st.integers(-2, 2**70),
           grid_dump=st.booleans())
    @example(command="qkd", sections={"qkd": {"mu": "-1"}}, seed=None,
             grid_dump=False)
    @example(command="optimize", sections={"qkd": {"mu": "-1"}}, seed=None,
             grid_dump=False)
    @example(command="qkd", sections={"qkd": {"use_optimizer": "false",
                                              "monitor_fraction": "2"}},
             seed=None, grid_dump=False)
    @example(command="characterize",
             sections={"characterize": {"jitter_bin_ps": "1e9"}}, seed=None,
             grid_dump=False)
    @example(command="characterize",
             sections={"characterize": {"jitter_bin_ps": "1e-300"}},
             seed=None, grid_dump=False)
    @example(command="characterize", sections={}, seed=-1, grid_dump=False)
    @example(command="characterize",
             sections={"characterize": {"jitter_draws": str(10**9 + 1)}},
             seed=None, grid_dump=False)
    @example(command="characterize",
             sections={"characterize": {"jitter_draws": str(10**11)}},
             seed=None, grid_dump=False)
    @example(command="characterize",             # a hold-off of 1e297 s
             sections={"characterize": {"deadtime_us": "1e303"}}, seed=None,
             grid_dump=False)
    def test_every_exit_is_typed_and_a_failure_writes_nothing(
            self, command, sections, seed, grid_dump):
        merged = {name: dict(keys) for name, keys in _BASE.items()}
        for name, keys in sections.items():
            merged.setdefault(name, {}).update(keys)
        ini = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                              for k, v in keys.items())
                      for name, keys in merged.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.ini", Path(tmp) / "out"
            cfg.write_text(ini, encoding="utf-8")
            argv = [command, "--config", str(cfg), "--out", str(out)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            if grid_dump and command != "characterize":
                argv.append("--grid-dump")
            err = io.StringIO()
            # A shell user's warning filter: ProtocolConfig warns, and the
            # test suite would turn that warning into an error.
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("default")
                code = cli.main(argv)
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code in (1, 2):
                failures = [line for line in err.getvalue().splitlines()
                            if line.startswith(("error: ", "runtime error: "))]
                assert len(failures) == 1, err.getvalue()
                assert not out.exists()
            elif code == 0:
                assert out.is_dir()
