from hypothesis import settings

# CI runs tier-1 with --hypothesis-profile=ci: a fixed, larger sample, so a
# red run reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True, max_examples=500, deadline=None)
