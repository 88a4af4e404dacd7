import numpy as np
import pytest

from pairhull.verify import _sample_s2_array


@pytest.fixture(scope="session")
def s2_batch() -> np.ndarray:
    """Shared batch of exact vertex samples as (n, 7) rows."""
    return _sample_s2_array(np.random.default_rng(20240805), 10_000)
