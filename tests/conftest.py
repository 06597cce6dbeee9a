import os

import numpy as np
import pytest

import wigmatch


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: full acceptance-gate criteria (slow)")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def subprocess_env():
    """os.environ with this checkout's package first on PYTHONPATH, for
    tests that run wigmatch in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(wigmatch.__file__))
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
