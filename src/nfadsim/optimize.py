"""Exhaustive operating-point search maximizing secret key rate per loss.

The key rate separates into a Data half and a Monitor half: the sifted rate
and QBER read only the Data detector, the visibility only the Monitor
detector, and SKR = max(0, K_data * V_monitor - auth) with
K = sifted * (1 - f*h(qber)) * pa and V = vis_raw / v0.  So ``link_metrics``
runs once per grid detector and loss (that detector on both sides, which is
the shared-mode point itself), and every (Data, Monitor) pair at one
temperature is the numpy outer product of the two factor vectors; shared
mode is its diagonal.  The product uses the same IEEE operations in the
same order as the scalar formula, so each table entry is bit-identical to
``link_metrics`` at that pair; exactness keeps the argmax reproducible and
testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .calibration import make_detector
from .errors import ParameterError
from .params import (EFFICIENCY_MAX, TEMPERATURE_MAX_K, TEMPERATURE_MIN_K,
                     kelvin_to_celsius)
from .qkd import (LinkConfig, LinkMetrics, QkdOperatingPoint, _key_factor,
                  _vis_factor, link_metrics)

DEFAULT_EFFICIENCY_GRID = tuple(round(0.08 + 0.01 * k, 2) for k in range(23))
DEFAULT_DEADTIME_GRID = (2e-6, 5e-6, 10e-6, 20e-6, 40e-6, 80e-6)
DEFAULT_TEMPERATURE_GRID_C = (-50.0, -70.0, -90.0, -110.0)
DEFAULT_LOSS_GRID_DB = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

# Key rates one search tabulates per loss: 2**24 float64 are 128 MB, 220
# times the default per-detector grid's 76,176 (4 temperatures x 138**2).
MAX_TABLE_CELLS = 2 ** 24


class GridPoint(NamedTuple):
    """One candidate operating point (temperatures in Celsius)."""

    temperature_c: float
    efficiency_data: float
    deadtime_data: float
    efficiency_monitor: float
    deadtime_monitor: float


def _check_grid(name: str, values: Sequence[float], lo: float, hi: float,
                lo_open: bool = False) -> None:
    if len(values) == 0:
        raise ParameterError(f"{name} must not be empty")
    for v in values:
        if not math.isfinite(v):
            raise ParameterError(f"{name} values must be finite")
        if v < lo or v > hi or (lo_open and v == lo):
            raise ParameterError(
                f"{name} value {v} outside the valid range "
                f"{'(' if lo_open else '['}{lo}, {hi}]")


@dataclass(frozen=True)
class SearchSpace:
    """Grids swept by :func:`optimize`; defaults mirror the studied device.

    Temperatures are Celsius, deadtimes seconds.
    """

    efficiency_grid: tuple = DEFAULT_EFFICIENCY_GRID
    deadtime_grid: tuple = DEFAULT_DEADTIME_GRID
    temperature_grid: tuple = DEFAULT_TEMPERATURE_GRID_C

    def __post_init__(self):
        _check_grid("efficiency_grid", self.efficiency_grid,
                    0.0, EFFICIENCY_MAX, lo_open=True)
        _check_grid("deadtime_grid", self.deadtime_grid,
                    0.0, math.inf, lo_open=True)
        _check_grid("temperature_grid", self.temperature_grid,
                    kelvin_to_celsius(TEMPERATURE_MIN_K),
                    kelvin_to_celsius(TEMPERATURE_MAX_K))

    def sides(self) -> list[tuple[float, float]]:
        """The (efficiency, deadtime) settings of one detector, deadtime
        varying fastest."""
        return [(eta, tau) for eta in self.efficiency_grid
                for tau in self.deadtime_grid]

    def table_cells(self, per_detector: bool = False) -> int:
        """Key rates one search tabulates per loss: temperatures x sides,
        x sides again per detector."""
        sides = len(self.efficiency_grid) * len(self.deadtime_grid)
        return (len(self.temperature_grid) * sides
                * (sides if per_detector else 1))

    def points(self, per_detector: bool = False):
        """Candidate operating points in deterministic enumeration order."""
        sides = self.sides()
        for t in self.temperature_grid:
            for data in sides:
                for monitor in sides if per_detector else (data,):
                    yield GridPoint(t, *data, *monitor)


@dataclass(frozen=True)
class Optimum:
    """Best operating point at one channel loss.

    ``point`` and ``metrics`` are None when every grid point evaluated to
    zero key rate, rather than an arbitrary zero-rate entry.  ``table``,
    from a search, is a read-only float64 array of every grid point's key
    rate, shaped (temperature, Data side) in shared mode and (temperature,
    Data side, Monitor side) per detector; its C order is
    ``SearchSpace.points(per_detector)`` order.
    """

    loss_db: float
    point: Optional[GridPoint]
    metrics: Optional[LinkMetrics]
    table: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if (self.point is None) != (self.metrics is None):
            raise ParameterError("a point needs its metrics, and metrics "
                                 "need a point")

    @property
    def found(self) -> bool:
        return self.point is not None

    @property
    def skr(self) -> float:
        return self.metrics.skr if self.metrics is not None else 0.0


def _tie_key(point: GridPoint, skr: float):
    # Argmax by SKR; ties prefer the shorter deadtime, then the lower
    # efficiency, then the higher temperature (data side outranks monitor).
    return (-skr, point.deadtime_data, point.deadtime_monitor,
            point.efficiency_data, point.efficiency_monitor,
            -point.temperature_c)


def optimize(space: SearchSpace, links: Sequence[LinkConfig],
             per_detector: bool = False) -> list[Optimum]:
    """Best operating point for each link, searched at its channel loss.

    Every detector on the grid is constructed (and therefore validated)
    before the first evaluation.  The optimum is the largest key rate, ties
    going to the smallest ``_tie_key``; the key totally orders the grid, so
    the result does not depend on enumeration order.  A table past
    ``MAX_TABLE_CELLS`` is refused before any detector is built.
    """
    cells = space.table_cells(per_detector)
    if cells > MAX_TABLE_CELLS:
        raise ParameterError(f"the search would tabulate {cells:,} key "
                             f"rates per loss, past {MAX_TABLE_CELLS:,}")
    temps = space.temperature_grid
    side = space.sides()
    detectors = [[make_detector(t, eta, tau) for eta, tau in side]
                 for t in temps]

    def point_at(i: tuple) -> GridPoint:
        # A table index: (temperature, Data side[, Monitor side]).
        return GridPoint(temps[i[0]], *side[i[1]], *side[i[-1]])

    results = []
    for link in links:
        halves = [[link_metrics(link, QkdOperatingPoint(det, det))
                   for det in row] for row in detectors]
        key = np.array([[_key_factor(link, m.sifted_rate, m.qber)
                         for m in row] for row in halves], dtype=np.float64)
        vis = np.array([[_vis_factor(link, m.visibility_raw)
                         for m in row] for row in halves], dtype=np.float64)
        secret = key[:, :, None] * vis[:, None, :] if per_detector \
            else key * vis
        secret -= link.auth_rate_cost
        # Same as max(0.0, x), which gives 0.0 for x = -0.0 (K < 0 times
        # V == 0) and for NaN; np.maximum can return -0.0 or NaN there.
        table = np.where(secret > 0.0, secret, 0.0)
        table.flags.writeable = False

        best = float(table.max())
        point = metrics = None
        if best > 0.0:
            # First minimal key in C (enumeration) order among the maxima.
            i = min(zip(*np.nonzero(table == best)),
                    key=lambda j: _tie_key(point_at(j), best))
            point = point_at(i)
            metrics = link_metrics(link, QkdOperatingPoint(
                detectors[i[0]][i[1]], detectors[i[0]][i[-1]]))
        results.append(Optimum(link.channel_loss_db, point, metrics, table))
    return results
