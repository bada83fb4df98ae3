"""End-to-end command tests: exit codes, file layout, byte determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from nfadsim import cli
from nfadsim.calibration import make_detector
from nfadsim.optimize import SearchSpace, optimize
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

    def test_empty_point_grid_exits_1_without_output(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "[characterize]\ntemperatures_c =\n")
        out = tmp_path / "out"
        assert cli.main(["characterize", "--config", cfg, "--out",
                         str(out)]) == 1
        assert not out.exists()


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

    def test_qber_vis_file_mirrors_skr_file(self, tmp_path):
        cfg = _cfg(tmp_path, QKD_FIXED_INI)
        out = tmp_path / "out"
        assert cli.main(["qkd", "--config", cfg, "--out", str(out)]) == 0
        _, skr_rows = _read_rows(out / "skr_vs_loss.csv")
        _, qv_rows = _read_rows(out / "qber_vis_vs_loss.csv")
        for s, q in zip(skr_rows, qv_rows):
            assert [s[0], s[2], s[3], s[4]] == q


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
                            temperature_grid=(-50.0, -110.0),
                            loss_grid=(10.0, 25.0))
        optima = optimize(space, LinkConfig(channel_loss_db=10.0))
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


def test_bench_runs_both_backends():
    proc = subprocess.run(
        [sys.executable, "-m", "nfadsim.bench", "--repeat", "1",
         "--duration", "0.02", "--frames", "200000"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "outputs match" in proc.stdout
