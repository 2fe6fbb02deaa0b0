import pytest
from hypothesis import HealthCheck, settings

from conformal_zeta.zonal import make_grid

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid4():
    return make_grid(4, 256)


@pytest.fixture(scope="session")
def grid6():
    return make_grid(6, 256)


@pytest.fixture(scope="session")
def grid4_small():
    return make_grid(4, 96)


@pytest.fixture()
def refuse_grid_build(monkeypatch):
    """Fail the test if any grid's nodes or basis tables get built."""
    import conformal_zeta.zonal as zonal

    def refuse(*args, **kwargs):
        raise AssertionError("grid tables were built")

    monkeypatch.setattr(zonal, "_jacobi_nodes", refuse)
    monkeypatch.setattr(zonal, "_gegenbauer_table", refuse)
