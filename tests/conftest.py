import math

import numpy as np
import pytest
from hypothesis import settings

from nfadsim import cli
from nfadsim.calibration import make_detector
from nfadsim.params import DetectorParams

# Property tests draw the same examples on every run and every machine, and
# slow shared hosts do not turn a pass into a deadline failure.
settings.register_profile("replay", derandomize=True, deadline=None,
                          database=None)
# The same replay with ten times the examples, for a deeper run of chosen
# property tests: ``pytest --hypothesis-profile=deep``.  Tests that set
# their own example count scale it with the loaded profile
# (``test_kernels._examples``).
settings.register_profile("deep", settings.get_profile("replay"),
                          max_examples=10 * settings.default.max_examples)
settings.load_profile("replay")


@pytest.fixture(scope="session")
def ref_detector() -> DetectorParams:
    """Calibrated reference operating point: -110 C, 11.5%, 20 us hold-off."""
    return make_detector(-110.0, 0.115, 20e-6)


@pytest.fixture(scope="session")
def flat_dark():
    """Factory for a dark-only detector with a rate independent of T and eta.

    Afterpulsing is disabled, so the click stream is a pure Poisson process
    thinned by the deadtime; that is what the saturation-law oracles need.
    It is the detector of the CLI's deadtime-law self-test.
    """
    return cli._flat_dark_detector


@pytest.fixture
def cascade_bound():
    """Mean afterpulse clicks per primary click, cascades included, from the
    trap model alone: b / (1 - b), b the mean first-generation clicks, where
    a trap released within the hold-off is lost.  Blocking of a release by
    a fresh click is ignored, so it reads above what the protocol measures;
    the guards only need it small at their operating points.
    """
    def bound(det) -> float:
        trap = det.trap_model
        b = trap.mean_traps(det.efficiency) * sum(
            w * math.exp(-det.deadtime / tau) for w, tau in
            zip(trap.weights(), trap.lifetimes_at(det.temperature)))
        assert b < 1.0, "the afterpulse cascade does not end on average"
        return b / (1.0 - b)

    return bound


class _ScriptedBits:
    """The bit generator of a ``_Scripted`` source: its position, which
    ``advance`` moves modulo PCG64's period, and a state with no half-used
    32-bit output."""

    state = {"has_uint32": 0}

    def __init__(self):
        self.position = 0

    def advance(self, delta):
        self.position = (self.position + delta) % (1 << 128)


class _Scripted:
    """A generator-like source that serves given uniforms in order:
    ``random(n)`` returns up to n of them, and a rewind of its
    ``bit_generator`` serves the last ones again."""

    def __init__(self, values):
        self._values = list(values)
        self.bit_generator = _ScriptedBits()

    def random(self, n):
        i = self.bit_generator.position
        head = self._values[i:i + n]
        self.bit_generator.position += len(head)
        return np.array(head, dtype=np.float64)


@pytest.fixture
def scripted():
    """Factory for a generator-like source of given uniforms, for a kernel
    part to read."""
    return _Scripted
