import hypothesis
import pytest

from gaussgap import bounds, moments

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True)
hypothesis.settings.register_profile(
    "thorough", deadline=None, max_examples=400)
hypothesis.settings.load_profile("default")

# Every per-key memo of the library: the series factor, the prefactor P
# and the rho-free factors of the gap bound.
CACHES = (moments.correlation_factor, moments.prefactor,
          bounds._rho_free_factors)


def _clear_all():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Start every test with empty caches, so no test depends on test
    order or has a patched ``special`` function bypassed by a hit."""
    _clear_all()
    yield


@pytest.fixture
def clear_caches():
    """The function that empties every cache, for cold evaluations."""
    return _clear_all
