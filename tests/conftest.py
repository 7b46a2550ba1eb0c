import pytest

from mwmono import HELIUM_4, MonochromatorSetting, RunConfig


@pytest.fixture(scope="session")
def helium():
    return HELIUM_4


@pytest.fixture(scope="session")
def grating():
    return RunConfig.from_dict({"material": "si111-h1x1"}).grating()


@pytest.fixture(scope="session")
def setting():
    # Default working point: theta_out = 85 deg, first total order.
    return MonochromatorSetting(total_order=-1)


@pytest.fixture()
def default_config():
    return RunConfig.from_dict({})
