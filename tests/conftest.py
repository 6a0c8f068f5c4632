import random
import time

import pytest
from hypothesis import settings

SESSION_START = time.time()

# CI runs with --hypothesis-profile=ci, so a failing example found there
# is found again by the same command anywhere.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
