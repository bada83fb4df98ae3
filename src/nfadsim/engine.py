"""Deterministic Monte Carlo plumbing: random substreams, event ordering,
and photon-source builders.

Times inside the simulation kernels live on an integer grid of 1 ps; this
module's public API works in float seconds and the conversion happens at the
kernel boundary.  The picosecond grid removes floating-point ordering
ambiguity so replays are bit-exact.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import operator
from typing import Any, Iterable, Iterator

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
    (seed, name) to a bit stream is stable and documented.
    """

    # A name's position is its spawn index.  No kernel draws from
    # "background" any more; it keeps its place so "bits" stays at index 5.
    SUBSTREAMS = ("darks", "photons", "traps", "jitter", "background", "bits")

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
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
        return {n: self.generator(n) for n in names}

    @contextlib.contextmanager
    def uniforms(self, names: Iterable[str]) -> Iterator[dict]:
        """Kernel-ready uniform sources for the named substreams.

        Yields a name -> source mapping, the ``gens`` argument of the
        kernels.  Each source's ``random()`` returns exactly the doubles
        that scalar ``Generator.random()`` calls would, read from growing
        blocks.  ``block(n)`` reads the next n of those doubles as one
        ndarray, and ``unread(values)`` gives back the ones a caller did
        not use.  On exit, also when the body raises, every generator is
        rewound past its unread values, so it ends where the scalar calls
        would have left it.
        """
        sources = {n: _BufferedUniforms(g)
                   for n, g in self.generators(names).items()}
        try:
            yield sources
        finally:
            for source in sources.values():
                source.close()

    def child(self, index: int) -> "RandomStream":
        """An independent derived stream (e.g. per detector, per pass)."""
        if index < 0:
            raise ParameterError("child index must be >= 0")
        return RandomStream(self.seed, self._key + (_CHILD_OFFSET + index,))


_FIRST_BLOCK = 64
_LAST_BLOCK = 4096
_PCG64_PERIOD = 1 << 128


def _closed() -> float:
    raise RuntimeError("uniform source used outside its uniforms() block")


class _BufferedUniforms:
    """``Generator.random()`` look-alike served from ``random(n)`` blocks.

    ``random`` is the bound ``__next__`` of a chain over blocks of 64 to
    4096 values.  A block draw consumes one 64-bit output per double, as the
    scalar call does, so the values are the same; ``close`` rewinds the
    generator by the values drawn but never read.

    ``block(n)`` reads the next n values as an ndarray: what is left of
    the list block, then fresh draws.  ``unread(values)`` puts the unused
    tail of a block read back in front: later reads return those values
    again, and ``close`` counts them as never read.
    """

    __slots__ = ("random", "_gen", "_block")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._block: list = [iter(())]  # the block being read
        self.random = itertools.chain.from_iterable(
            _blocks(gen, self._block)).__next__

    def block(self, n: int) -> np.ndarray:
        head = list(itertools.islice(self._block[0], n))
        return np.concatenate((head, self._gen.random(n - len(head))))

    def unread(self, values: np.ndarray) -> None:
        # The chain still holds the emptied block; _blocks serves this one
        # next.
        self._block[0] = iter(values.tolist() + list(self._block[0]))

    def close(self) -> None:
        self.random = _closed
        unread = operator.length_hint(self._block[0])
        if unread:
            bits = self._gen.bit_generator
            # advance() also clears the half-used 32-bit output; keep it.
            spare = bits.state
            bits.advance(-unread % _PCG64_PERIOD)
            if spare["has_uint32"]:
                state = bits.state
                state["has_uint32"] = spare["has_uint32"]
                state["uinteger"] = spare["uinteger"]
                bits.state = state


def _blocks(gen: np.random.Generator, current: list):
    size = _FIRST_BLOCK
    while True:
        if not operator.length_hint(current[0]):
            current[0] = iter(gen.random(size).tolist())
            size = min(2 * size, _LAST_BLOCK)
        yield current[0]


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
