import hypothesis
import pytest

from gaussgap import moments

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True)
hypothesis.settings.register_profile(
    "thorough", deadline=None, max_examples=400)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def _fresh_series_cache():
    """Start every test with an empty series cache, so no test depends on
    test order or has a patched ``special`` function bypassed by a hit."""
    moments.correlation_factor.cache_clear()
    yield
