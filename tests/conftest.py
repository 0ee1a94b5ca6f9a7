import pytest
from hypothesis import settings

# CI runs tier-1 with --hypothesis-profile=ci: a fixed, larger sample, so a
# red run reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True, max_examples=500, deadline=None)


@pytest.fixture
def cold_caches():
    """Clear the library's per-n caches, so the test starts with them cold.

    Its value clears them again, for a test that starts each column cold.
    """
    import ramseychoice.certificates as cm
    import ramseychoice.decomposition as dm

    def clear():
        for cached in (cm._walk, cm._gap_prime, cm._run, cm._decomposition, dm._part_primes):
            cached.cache_clear()

    clear()
    return clear
