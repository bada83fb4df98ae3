"""Random substream plumbing, event ordering, and source builders."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nfadsim.engine import (EVENT_BACKGROUND, EVENT_DARK, EVENT_PULSE,
                            EVENT_RELEASE, EventQueue, RandomStream,
                            pulsed_laser, seconds_to_ps, timeline_to_ps)
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

    def test_negative_child_index_rejected(self):
        with pytest.raises(ParameterError):
            RandomStream(1).child(-1)


def _scalar_draws(seed, n):
    """n scalar Generator.random() calls on a fresh "darks" substream."""
    gen = RandomStream(seed).generator("darks")
    return [gen.random() for _ in range(n)], gen.bit_generator.state


_N_DRAWS = st.integers(min_value=0, max_value=3 * 4096 + 17)
_SEED = st.integers(min_value=0, max_value=2**32 - 1)


class TestBufferedUniforms:
    @given(n=_N_DRAWS, seed=_SEED)
    @example(n=0, seed=0)
    @example(n=63, seed=1)
    @example(n=64, seed=2)
    @example(n=65, seed=3)
    @example(n=4095, seed=4)
    @example(n=4096, seed=5)
    @example(n=4097, seed=6)
    @example(n=3 * 4096 + 17, seed=7)
    def test_values_and_end_state_match_scalar_calls(self, n, seed):
        expected, end_state = _scalar_draws(seed, n)
        stream = RandomStream(seed)
        with stream.uniforms(("darks",)) as sources:
            drawn = [sources["darks"].random() for _ in range(n)]
        assert drawn == expected
        assert stream.generator("darks").bit_generator.state == end_state

    @given(n=_N_DRAWS, seed=_SEED)
    @example(n=0, seed=0)
    @example(n=64, seed=1)
    @example(n=4097, seed=2)
    def test_body_that_raises_still_rewinds(self, n, seed):
        expected, end_state = _scalar_draws(seed, n)
        stream = RandomStream(seed)
        drawn = []
        with pytest.raises(KeyError):
            with stream.uniforms(("darks",)) as sources:
                drawn.extend(sources["darks"].random() for _ in range(n))
                raise KeyError("body failed")
        assert drawn == expected
        assert stream.generator("darks").bit_generator.state == end_state

    @given(ops=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 5000),
                                  st.integers(0, 5000)), max_size=5),
           seed=_SEED)
    @example(ops=[], seed=0)
    @example(ops=[(1, 10, 3), (60, 100, 50)], seed=1)   # inside a list block
    @example(ops=[(0, 4097, 0), (5, 0, 0)], seed=2)
    def test_block_reads_and_unread_tails_follow_scalar_calls(self, ops,
                                                              seed):
        # Each op: that many scalar reads, a block read, and the tail after
        # the first `keep` values of the block given back.
        stream = RandomStream(seed)
        read = []
        with stream.uniforms(("darks",)) as sources:
            source = sources["darks"]
            for n_scalar, size, keep in ops:
                read.extend(source.random() for _ in range(n_scalar))
                block = source.block(size)
                assert block.dtype == np.float64 and len(block) == size
                read.extend(block[:keep].tolist())
                source.unread(block[keep:])
        expected, end_state = _scalar_draws(seed, len(read))
        assert read == expected
        assert stream.generator("darks").bit_generator.state == end_state

    def test_substreams_are_read_and_rewound_independently(self):
        stream = RandomStream(9)
        with stream.uniforms(("darks", "jitter")) as sources:
            darks = [sources["darks"].random() for _ in range(100)]
            jitter = [sources["jitter"].random() for _ in range(5000)]
        scalar = RandomStream(9)
        assert darks == [scalar.generator("darks").random()
                         for _ in range(100)]
        assert jitter == [scalar.generator("jitter").random()
                          for _ in range(5000)]
        for name in ("darks", "jitter", "traps"):
            assert (stream.generator(name).bit_generator.state
                    == scalar.generator(name).bit_generator.state)

    def test_half_used_32_bit_output_survives_the_rewind(self):
        stream, scalar = RandomStream(4), RandomStream(4)
        for s in (stream, scalar):
            s.generator("bits").integers(0, 10, dtype=np.uint32)
        with stream.uniforms(("bits",)) as sources:
            sources["bits"].random()
        scalar.generator("bits").random()
        state = stream.generator("bits").bit_generator.state
        assert state["has_uint32"] == 1
        assert state == scalar.generator("bits").bit_generator.state

    def test_source_is_unusable_after_the_block(self):
        with RandomStream(1).uniforms(("darks",)) as sources:
            sources["darks"].random()
        with pytest.raises(RuntimeError):
            sources["darks"].random()


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
        q.push(100, EVENT_BACKGROUND, "bg")
        order = [q.pop()[2] for _ in range(4)]
        assert order == ["pulse", "bg", "dark", "release"]

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
