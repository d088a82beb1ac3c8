import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples, so tier-1 reruns are identical
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(n_sites: int, rng) -> np.ndarray:
    d = 2**n_sites
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T
