import numpy as np
import pytest

from pqinv.densela import record


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_linalg():
    """A function that runs ``run()`` and returns how many LAPACK calls of
    each kind named in ``kinds`` it made, as :func:`pqinv.densela.record`
    counts them."""

    def count(run, kinds=("svd",)) -> dict[str, int]:
        with record() as rec:
            run()
        return {kind: rec.calls[kind] for kind in kinds}

    return count


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: end-to-end acceptance criteria")
