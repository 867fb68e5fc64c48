import numpy as np
import pytest

from superconc.covariance import CovarianceModel


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    """Every test starts under the default memory cap, whatever the shell
    exports; a test that needs a cap sets its own."""
    monkeypatch.delenv("SUPERCONC_CAP_BYTES", raising=False)


@pytest.fixture(scope="session")
def iid():
    return CovarianceModel("iid")


@pytest.fixture(scope="session")
def ou():
    return CovarianceModel("ornstein_uhlenbeck", rate=1.0)


@pytest.fixture(scope="session")
def gs():
    return CovarianceModel("gaussian_smooth", lam2=1.0)


@pytest.fixture(scope="session")
def pd_model():
    return CovarianceModel("power_decay", amp=1.5, alpha_cov=2.0)


@pytest.fixture
def rng_np():
    return np.random.default_rng(12345)
