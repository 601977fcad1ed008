import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_linalg():
    """A function that runs ``run()`` and returns how many times it called
    each numpy.linalg decomposition named in ``kinds``.  Calls are counted
    in numpy.linalg and in numpy.linalg._linalg, where numpy's own helpers
    look them up; the counting wrappers are removed when ``run()`` returns."""

    def count(run, kinds=("svd",)) -> dict[str, int]:
        calls = dict.fromkeys(kinds, 0)
        with pytest.MonkeyPatch.context() as patch:
            for kind in kinds:
                original = getattr(np.linalg, kind)

                def counting(*args, _kind=kind, _fn=original, **kwargs):
                    calls[_kind] += 1
                    return _fn(*args, **kwargs)

                for namespace in (np.linalg, sys.modules.get("numpy.linalg._linalg")):
                    if getattr(namespace, kind, None) is original:
                        patch.setattr(namespace, kind, counting)
            run()
        return calls

    return count


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: end-to-end acceptance criteria")
