import os

# One BLAS thread, set before numpy is imported: with OpenBLAS's default of a
# thread per core, the large products of the gradient check contend with any
# other busy process on a small machine and miss acceptance 05's time gate.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
