import numpy as np
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
def fresh_grid_memo():
    """Empty ``make_grid``'s memo, so the test's first ``make_grid`` builds its grid."""
    import conformal_zeta.zonal as zonal

    zonal._memo_grid.cache_clear()


@pytest.fixture()
def refuse_grid_build(monkeypatch):
    """Fail the test if any grid's nodes or basis tables get built."""
    import conformal_zeta.zonal as zonal

    def refuse(*args, **kwargs):
        raise AssertionError("grid tables were built")

    monkeypatch.setattr(zonal, "jacobi_start", refuse)
    monkeypatch.setattr(zonal, "_gegenbauer_table", refuse)


@pytest.fixture()
def kernel_products(monkeypatch):
    """The input shape of every ``ZonalGrid._product`` call made from here on,
    one entry per kernel product."""
    import conformal_zeta.zonal as zonal

    product = zonal.ZonalGrid._product
    calls = []

    def counted(self, table, vec):
        calls.append(np.shape(vec))
        return product(self, table, vec)

    monkeypatch.setattr(zonal.ZonalGrid, "_product", counted)
    return calls
