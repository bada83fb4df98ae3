"""Grid search over operating points: exactness, ordering, tie-breaks."""

import dataclasses
import sys

import numpy as np
import pytest

from nfadsim.calibration import make_detector
from nfadsim.errors import ParameterError
from nfadsim.optimize import (DEFAULT_DEADTIME_GRID, DEFAULT_EFFICIENCY_GRID,
                              DEFAULT_LOSS_GRID_DB,
                              DEFAULT_TEMPERATURE_GRID_C, GridPoint, Optimum,
                              SearchSpace, _tie_key, optimize)
from nfadsim.qkd import LinkConfig, QkdOperatingPoint, link_metrics

SMALL = SearchSpace(efficiency_grid=(0.1, 0.2),
                    deadtime_grid=(5e-6, 20e-6),
                    temperature_grid=(-50.0, -110.0),
                    loss_grid=(10.0,))


def test_default_grids():
    assert len(DEFAULT_EFFICIENCY_GRID) == 23
    assert DEFAULT_EFFICIENCY_GRID[0] == 0.08
    assert DEFAULT_EFFICIENCY_GRID[-1] == 0.30
    assert len(DEFAULT_DEADTIME_GRID) == 6
    assert len(DEFAULT_TEMPERATURE_GRID_C) == 4
    assert DEFAULT_LOSS_GRID_DB == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


class TestSearchSpace:
    def test_point_counts(self):
        assert len(list(SMALL.points(False))) == 2 * 2 * 2
        assert len(list(SMALL.points(True))) == 2 * (2 * 2) ** 2

    def test_shared_points_tie_both_detectors(self):
        for p in SMALL.points(False):
            assert p.efficiency_data == p.efficiency_monitor
            assert p.deadtime_data == p.deadtime_monitor

    @pytest.mark.parametrize("kwargs", [
        dict(efficiency_grid=()),
        dict(efficiency_grid=(0.0,)),
        dict(efficiency_grid=(0.4,)),
        dict(efficiency_grid=(float("nan"),)),
        dict(deadtime_grid=(0.0,)),
        dict(deadtime_grid=(-1e-6,)),
        dict(temperature_grid=(-130.0,)),
        dict(temperature_grid=(-20.0,)),
        dict(loss_grid=(-5.0,)),
    ])
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ParameterError):
            SearchSpace(**kwargs)


class TestOptimum:
    def test_payload_must_match_found_flag(self):
        with pytest.raises(ParameterError):
            Optimum(loss_db=10.0, found=True, point=None, metrics=None)
        point = GridPoint(-90.0, 0.1, 5e-6, 0.1, 5e-6)
        with pytest.raises(ParameterError):
            Optimum(loss_db=10.0, found=False, point=point, metrics=None)

    def test_skr_defaults_to_zero(self):
        assert Optimum(10.0, False, None, None).skr == 0.0


class TestTieBreaks:
    def test_preference_order(self):
        short = GridPoint(-90.0, 0.1, 2e-6, 0.1, 2e-6)
        longer = GridPoint(-90.0, 0.1, 5e-6, 0.1, 5e-6)
        assert _tie_key(short, 1.0) < _tie_key(longer, 1.0)
        assert _tie_key(longer, 2.0) < _tie_key(short, 1.0)
        hungrier = GridPoint(-90.0, 0.2, 2e-6, 0.2, 2e-6)
        assert _tie_key(short, 1.0) < _tie_key(hungrier, 1.0)
        warmer = GridPoint(-50.0, 0.1, 2e-6, 0.1, 2e-6)
        assert _tie_key(warmer, 1.0) < _tie_key(short, 1.0)

    @pytest.mark.parametrize("per_detector", [False, True])
    def test_optimize_resolves_a_full_tie_by_key(self, monkeypatch,
                                                 per_detector):
        # Every detector gets the same metrics, so every point ties and the
        # key alone picks the optimum, which is neither the first nor the
        # last point in enumeration order.
        cfg = LinkConfig(channel_loss_db=10.0)
        det = make_detector(-90.0, 0.1, 5e-6)
        same = link_metrics(cfg, QkdOperatingPoint(det, det))
        monkeypatch.setattr(sys.modules[optimize.__module__],
                            "link_metrics", lambda cfg, op: same)
        space = SearchSpace(efficiency_grid=(0.1, 0.2),
                            deadtime_grid=(20e-6, 5e-6),
                            temperature_grid=(-110.0, -50.0),
                            loss_grid=(10.0,))
        (opt,) = optimize(space, cfg, per_detector=per_detector)
        assert opt.point == GridPoint(-50.0, 0.1, 5e-6, 0.1, 5e-6)
        assert opt.metrics == same


class TestOptimize:
    def test_singleton_space_equals_direct_evaluation(self):
        space = SearchSpace(efficiency_grid=(0.2,), deadtime_grid=(10e-6,),
                            temperature_grid=(-90.0,), loss_grid=(10.0,))
        (opt,) = optimize(space, LinkConfig(channel_loss_db=10.0))
        det = make_detector(-90.0, 0.2, 10e-6)
        direct = link_metrics(LinkConfig(channel_loss_db=10.0),
                              QkdOperatingPoint(det, det))
        assert opt.found
        assert opt.point == GridPoint(-90.0, 0.2, 10e-6, 0.2, 10e-6)
        assert opt.metrics == direct

    def test_optimum_dominates_random_subsample(self):
        space = SearchSpace(loss_grid=(10.0,))
        (opt,) = optimize(space, LinkConfig(channel_loss_db=10.0))
        points = list(space.points(False))
        rng = np.random.Generator(np.random.PCG64(3))
        cfg = LinkConfig(channel_loss_db=10.0)
        for i in rng.choice(len(points), size=100, replace=False):
            p = points[i]
            det = make_detector(p.temperature_c, p.efficiency_data,
                                p.deadtime_data)
            assert link_metrics(cfg, QkdOperatingPoint(det, det)).skr \
                <= opt.skr

    def test_hopeless_loss_reports_not_found(self):
        space = SearchSpace(efficiency_grid=(0.1, 0.2),
                            deadtime_grid=(5e-6, 20e-6),
                            temperature_grid=(-110.0,), loss_grid=(60.0,))
        (opt,) = optimize(space, LinkConfig(channel_loss_db=60.0),
                          keep_table=True)
        assert not opt.found
        assert opt.point is None and opt.metrics is None
        assert opt.skr == 0.0
        assert len(opt.table) == len(list(space.points(False)))
        assert all(skr == 0.0 for skr in opt.table.tolist())

    def test_per_detector_can_only_help(self):
        cfg = LinkConfig(channel_loss_db=10.0)
        (shared,) = optimize(SMALL, cfg)
        (split,) = optimize(SMALL, cfg, per_detector=True)
        assert split.skr >= shared.skr

    def test_keep_table_lists_every_point(self):
        cfg = LinkConfig(channel_loss_db=10.0)
        (opt,) = optimize(SMALL, cfg, keep_table=True)
        assert len(opt.table) == len(list(SMALL.points(False)))
        assert opt.table.max() == opt.skr
        (bare,) = optimize(SMALL, cfg)
        assert bare.table is None

    def test_default_space_trends_across_loss(self):
        cfg = LinkConfig(channel_loss_db=5.0)
        results = optimize(SearchSpace(), cfg)
        skrs = [r.skr for r in results]
        assert all(r.found for r in results)
        assert all(b < a for a, b in zip(skrs, skrs[1:]))
        taus = [r.point.deadtime_data for r in results]
        etas = [r.point.efficiency_data for r in results]
        assert all(b >= a for a, b in zip(taus, taus[1:]))
        assert all(b >= a for a, b in zip(etas, etas[1:]))


def _brute_force(space, cfg, per_detector, order_seed):
    """Scalar fold: one link_metrics call per point, in shuffled order."""
    points = list(space.points(per_detector))
    skrs = [None] * len(points)
    order = np.random.Generator(np.random.PCG64(order_seed)).permutation(
        len(points))
    best_key = best = None
    for i in order.tolist():
        p = points[i]
        op = QkdOperatingPoint(
            make_detector(p.temperature_c, p.efficiency_data,
                          p.deadtime_data),
            make_detector(p.temperature_c, p.efficiency_monitor,
                          p.deadtime_monitor))
        metrics = link_metrics(cfg, op)
        skrs[i] = metrics.skr
        key = _tie_key(p, metrics.skr)
        if best_key is None or key < best_key:
            best_key, best = key, (p, metrics)
    if best[1].skr > 0.0:
        return best[0], best[1], skrs
    return None, None, skrs


DUPLICATES = SearchSpace(efficiency_grid=(0.1, 0.1, 0.2),
                         deadtime_grid=(5e-6, 5e-6),
                         temperature_grid=(-90.0, -110.0),
                         loss_grid=(10.0,))


class TestAgainstScalarFold:
    @pytest.mark.parametrize("per_detector", [False, True])
    @pytest.mark.parametrize("space", [
        SMALL,
        dataclasses.replace(SMALL, loss_grid=(60.0,)),
        DUPLICATES,
    ], ids=["small", "60dB", "duplicates"])
    def test_matches_brute_force_fold(self, space, per_detector):
        cfg = LinkConfig(channel_loss_db=space.loss_grid[0])
        (opt,) = optimize(space, cfg, per_detector=per_detector,
                          keep_table=True)
        point, metrics, skrs = _brute_force(space, cfg, per_detector, 2)
        assert opt.point == point
        assert opt.metrics == metrics
        assert opt.found == (point is not None)
        assert [repr(v) for v in opt.table.tolist()] == \
            [repr(float(v)) for v in skrs]

    def test_zero_key_rate_is_positive_zero(self):
        # K < 0 (QBER 0.5) times V == 0 minus a zero authentication cost is
        # -0.0; the table must still hold 0.0, as max(0.0, -0.0) does.
        space = dataclasses.replace(SMALL, loss_grid=(200.0,))
        cfg = LinkConfig(channel_loss_db=200.0, auth_rate_cost=0.0)
        (opt,) = optimize(space, cfg, per_detector=True, keep_table=True)
        assert not opt.found
        assert {repr(v) for v in opt.table.tolist()} == {"0.0"}
