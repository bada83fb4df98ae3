"""Deterministic Monte Carlo plumbing: random substreams, event ordering,
and photon-source builders.

Times inside the simulation kernels live on an integer grid of 1 ps; this
module's public API works in float seconds and the conversion happens at the
kernel boundary.  The picosecond grid removes floating-point ordering
ambiguity so replays are bit-exact.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterable

import numpy as np

from ._kernels import NEVER
from .errors import ParameterError
from .params import PS_PER_S, OpticalTimeline

# Event kinds in tie-break priority order (lower pops first at equal time).
# Re-arming is implicit: armed checks use >=, so a click candidate exactly at
# the re-arm instant is already live.
EVENT_PULSE = 1
EVENT_DARK = 2
EVENT_RELEASE = 3

# Substream indices are reserved below _CHILD_OFFSET; child streams start at it.
_CHILD_OFFSET = 16


class RandomStream:
    """Named, independent random substreams derived from one integer seed.

    Each physical mechanism draws from its own generator so that toggling one
    mechanism never shifts another's draws (this is what makes paired-seed
    monotonicity tests meaningful).  Substreams and child streams are derived
    through ``numpy.random.SeedSequence`` spawn keys, so the mapping from
    (seed, name) to a bit stream is stable and documented.  The kernels take
    ``generators(names)`` as their ``gens`` map; a kernel call reads each
    generator ahead and, on every exit, rewinds it past the draws it did not
    use, so it ends where one scalar ``random()`` call per draw leaves it.
    """

    # A name's position is its spawn index.  No kernel draws from
    # "background" any more; it keeps its place so "bits" stays at index 5.
    SUBSTREAMS = ("darks", "photons", "traps", "jitter", "background", "bits")

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self._key = tuple(_key)
        self._generators: dict[str, np.random.Generator] = {}

    def _sequence(self, index: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=self._key + (index,))

    def generator(self, name: str) -> np.random.Generator:
        """The generator for one named substream (created on first use)."""
        if name not in self.SUBSTREAMS:
            raise ParameterError(f"unknown substream {name!r}; "
                                 f"valid names: {self.SUBSTREAMS}")
        if name not in self._generators:
            index = self.SUBSTREAMS.index(name)
            self._generators[name] = np.random.Generator(
                np.random.PCG64(self._sequence(index)))
        return self._generators[name]

    def generators(self, names: Iterable[str]) -> dict[str, np.random.Generator]:
        """The named substreams' generators, by name."""
        return {n: self.generator(n) for n in names}

    def child(self, index: int) -> "RandomStream":
        """An independent derived stream (e.g. per detector, per pass)."""
        if index < 0:
            raise ParameterError("child index must be >= 0")
        return RandomStream(self.seed, self._key + (_CHILD_OFFSET + index,))


class EventQueue:
    """Time-ordered pending events with deterministic tie-breaking.

    Pop order is non-decreasing in time; ties are broken by event kind
    (re-arm < pulse < dark < release) and then by insertion order.  Times
    are integer picoseconds.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Any]] = []
        self._counter = 0

    def push(self, time_ps: int, kind: int, payload: Any = None) -> None:
        heapq.heappush(self._heap, (int(time_ps), kind, self._counter, payload))
        self._counter += 1

    def pop(self) -> tuple[int, int, Any]:
        time_ps, kind, _, payload = heapq.heappop(self._heap)
        return time_ps, kind, payload

    def peek_time(self) -> int:
        return self._heap[0][0]

    def __bool__(self) -> bool:
        return bool(self._heap)


def pulsed_laser(period: float, mean_photon_number: float,
                 count: int) -> OpticalTimeline:
    """Periodic pulse train: ``count`` pulses at ``k*period``.

    Args:
        period: pulse spacing in seconds, > 0.
        mean_photon_number: mu per pulse, >= 0.
        count: number of pulses, >= 0.
    """
    if period <= 0.0:
        raise ParameterError("laser period must be > 0")
    if count < 0:
        raise ParameterError("pulse count must be >= 0")
    if mean_photon_number < 0.0:
        raise ParameterError("mean photon number must be >= 0")
    times = np.arange(count, dtype=np.float64) * period
    mus = np.full(count, float(mean_photon_number))
    return OpticalTimeline(times=times, mean_photon_numbers=mus)


def seconds_to_ps(t: float) -> int:
    """Convert seconds to the internal integer picosecond grid."""
    ps = t * PS_PER_S
    if not math.isfinite(ps):
        raise ParameterError(f"time {t!r} s is off the picosecond grid")
    return int(round(ps))


def check_ps(ps: int, what: str) -> int:
    """``ps``, checked to lie strictly inside (-NEVER, NEVER)."""
    if not -NEVER < ps < NEVER:
        raise ParameterError("%s must lie within +-%.4g s, strictly inside "
                             "the picosecond grid" % (what, NEVER / PS_PER_S))
    return ps


def timeline_to_ps(timeline: OpticalTimeline, efficiency: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Pulse times on the ps grid and per-pulse click probabilities.

    The click probability of a pulse with mean photon number mu is
    1 - exp(-mu * efficiency) (Poisson photon statistics, at-least-one-photon
    detection while armed).  Times strictly increase, so the first and the
    last one alone are checked against the picosecond grid.  Both results
    are computed in place: a pulse costs their 16 bytes and no temporaries.
    """
    if len(timeline):
        for t in (timeline.times[0], timeline.times[-1]):
            check_ps(seconds_to_ps(float(t)), "pulse times")
    times_ps = np.multiply(timeline.times, PS_PER_S)
    times_ps = np.round(times_ps, out=times_ps).astype(np.int64)
    p_click = np.multiply(timeline.mean_photon_numbers, -efficiency)
    return times_ps, np.negative(np.expm1(p_click, out=p_click), out=p_click)
