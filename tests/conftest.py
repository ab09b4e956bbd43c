import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import wmix

settings.register_profile("wmix", deadline=None, max_examples=50)
settings.load_profile("wmix")


def _family_state(kind, n, d, seed):
    """One n-party state: a sampler kind, "reduced" (p0 > 0) or "pure"."""
    if kind == "reduced":
        # one party traced out of an (n+1)-party state: vacuum weight > 0
        state = next(iter(wmix.random_mixed(
            wmix.SampleConfig(n_parties=n + 1, local_dim=d, seed=seed))))
        return wmix.partial_trace(state, {1 + seed % (n + 1)})
    if kind == "pure":
        return wmix.as_mixed_state(next(iter(wmix.random_pure(
            wmix.SampleConfig(n_parties=n, local_dim=d, seed=seed,
                              kind="pure_sphere")))))
    return next(iter(wmix.random_mixed(
        wmix.SampleConfig(n_parties=n, local_dim=d, seed=seed, kind=kind))))


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    """Let ``python -m wmix`` in child processes import the package under test.

    The pytest settings put ``src`` on this process's path only.
    """
    src = str(Path(wmix.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


@pytest.fixture(scope="session")
def family_state():
    """Builder ``(kind, n, d, seed) -> WMixedState`` for property tests.

    Session-scoped so hypothesis tests can take it.
    """
    return _family_state


@pytest.fixture
def w3():
    return wmix.make_w_state(3)


@pytest.fixture
def w3_mixed(w3):
    return wmix.as_mixed_state(w3)


@pytest.fixture
def block_mixture():
    # equal-weight mixture of (1,1,1)/sqrt(3) and (1,1,-1)/sqrt(3):
    # separable across party 1 | rest, entangled inside {2,3}
    coeff = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex) / 3.0
    return wmix.WMixedState(wmix.SystemShape(3), 0.0, coeff)


@pytest.fixture
def diagonal_state():
    coeff = np.diag(np.array([0.2, 0.3, 0.5], dtype=complex))
    return wmix.WMixedState(wmix.SystemShape(3), 0.0, coeff)
