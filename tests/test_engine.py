"""Random substream plumbing, event ordering, and source builders."""

import numpy as np
import pytest

from nfadsim.engine import (EVENT_DARK, EVENT_PULSE, EVENT_RELEASE,
                            EventQueue, RandomStream, pulsed_laser,
                            seconds_to_ps, timeline_to_ps)
from nfadsim.errors import ParameterError


class TestRandomStream:
    def test_same_seed_same_substream_reproduces(self):
        a = RandomStream(7).generator("darks").random(100)
        b = RandomStream(7).generator("darks").random(100)
        assert np.array_equal(a, b)

    def test_named_substreams_differ(self):
        s = RandomStream(7)
        draws = {name: s.generator(name).random(50)
                 for name in RandomStream.SUBSTREAMS}
        names = list(draws)
        for i, n1 in enumerate(names):
            for n2 in names[i + 1:]:
                assert not np.array_equal(draws[n1], draws[n2])

    def test_generator_is_cached(self):
        s = RandomStream(3)
        g = s.generator("photons")
        assert s.generator("photons") is g

    def test_unknown_substream_rejected(self):
        with pytest.raises(ParameterError):
            RandomStream(1).generator("gremlins")

    def test_children_are_independent_and_stable(self):
        base = RandomStream(42)
        a = base.child(0).generator("darks").random(64)
        b = base.child(1).generator("darks").random(64)
        a_again = RandomStream(42).child(0).generator("darks").random(64)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, a_again)

    def test_child_does_not_collide_with_substream(self):
        # Child spawn keys live above the substream index range.
        parent = RandomStream(5).generator("bits").random(32)
        child = RandomStream(5).child(0).generator("bits").random(32)
        assert not np.array_equal(parent, child)

    # Spawn index of each substream.  The qkd_data goldens and every
    # recorded digest depend on it, so a retired name keeps its index.
    SPAWN_INDEX = {"darks": 0, "photons": 1, "traps": 2, "jitter": 3,
                   "background": 4, "bits": 5}

    def test_every_substream_is_pinned(self):
        assert set(RandomStream.SUBSTREAMS) == set(self.SPAWN_INDEX)

    @pytest.mark.parametrize("name", sorted(SPAWN_INDEX))
    def test_substreams_keep_their_spawn_index(self, name):
        # Child streams prefix their index plus 16 to the spawn key.
        for stream, key in ((RandomStream(9), ()),
                            (RandomStream(9).child(2), (18,))):
            seq = np.random.SeedSequence(
                9, spawn_key=key + (self.SPAWN_INDEX[name],))
            expected = np.random.Generator(np.random.PCG64(seq)).random(8)
            assert np.array_equal(stream.generator(name).random(8), expected)

    def test_negative_child_index_rejected(self):
        with pytest.raises(ParameterError):
            RandomStream(1).child(-1)


class TestEventQueue:
    def test_replay_gives_identical_sequence(self):
        rng = np.random.Generator(np.random.PCG64(0))
        events = [(int(t), int(k)) for t, k in
                  zip(rng.integers(0, 1000, 500), rng.integers(1, 5, 500))]

        def drain():
            q = EventQueue()
            for i, (t, k) in enumerate(events):
                q.push(t, k, i)
            out = []
            while q:
                out.append(q.pop())
            return out

        first = drain()
        assert first == drain()
        times = [t for t, _, _ in first]
        assert times == sorted(times)

    def test_kind_breaks_time_ties(self):
        q = EventQueue()
        q.push(100, EVENT_RELEASE, "release")
        q.push(100, EVENT_PULSE, "pulse")
        q.push(100, EVENT_DARK, "dark")
        order = [q.pop()[2] for _ in range(3)]
        assert order == ["pulse", "dark", "release"]

    def test_insertion_order_breaks_kind_ties(self):
        q = EventQueue()
        q.push(5, EVENT_DARK, "first")
        q.push(5, EVENT_DARK, "second")
        assert q.pop()[2] == "first"
        assert q.pop()[2] == "second"

    def test_peek_matches_pop(self):
        q = EventQueue()
        q.push(9, EVENT_DARK)
        q.push(4, EVENT_DARK)
        assert q.peek_time() == 4
        assert q.pop()[0] == 4


class TestSources:
    def test_pulsed_laser_layout(self):
        tl = pulsed_laser(period=1e-6, mean_photon_number=0.5, count=4)
        assert np.allclose(tl.times, [0.0, 1e-6, 2e-6, 3e-6])
        assert np.all(tl.mean_photon_numbers == 0.5)

    def test_pulsed_laser_validation(self):
        with pytest.raises(ParameterError):
            pulsed_laser(period=0.0, mean_photon_number=0.5, count=4)
        with pytest.raises(ParameterError):
            pulsed_laser(period=1e-6, mean_photon_number=-0.5, count=4)
        with pytest.raises(ParameterError):
            pulsed_laser(period=1e-6, mean_photon_number=0.5, count=-1)


def test_seconds_to_ps_rounds_to_grid():
    assert seconds_to_ps(1e-6) == 1_000_000
    assert seconds_to_ps(1.5e-12) == 2  # banker's rounding on the half grid
    assert seconds_to_ps(0.0) == 0


def test_timeline_to_ps_click_probability():
    tl = pulsed_laser(period=1e-6, mean_photon_number=0.91, count=3)
    times_ps, p = timeline_to_ps(tl, efficiency=0.115)
    assert times_ps.dtype == np.int64
    assert np.allclose(p, 1.0 - np.exp(-0.91 * 0.115))
