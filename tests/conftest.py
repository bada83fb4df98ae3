import dataclasses

import pytest
from hypothesis import settings

from nfadsim.calibration import make_detector
from nfadsim.params import DarkRateModel, DetectorParams, TrapModel

# Property tests draw the same examples on every run and every machine, and
# slow shared hosts do not turn a pass into a deadline failure.
settings.register_profile("replay", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("replay")


@pytest.fixture(scope="session")
def ref_detector() -> DetectorParams:
    """Calibrated reference operating point: -110 C, 11.5%, 20 us hold-off."""
    return make_detector(-110.0, 0.115, 20e-6)


@pytest.fixture
def flat_dark():
    """Factory for a dark-only detector with a rate independent of T and eta.

    Afterpulsing is disabled, so the click stream is a pure Poisson process
    thinned by the deadtime; that is what the saturation-law oracles need.
    """

    def build(rate_cps: float, deadtime: float) -> DetectorParams:
        model = DarkRateModel(amplitude_thermal=0.0,
                              activation_temperature=0.0,
                              floor=rate_cps, efficiency_exponent=0.0,
                              efficiency_ref=0.115)
        det = make_detector(-90.0, 0.115, deadtime, dark_model=model)
        return dataclasses.replace(det, trap_model=TrapModel.disabled())

    return build
