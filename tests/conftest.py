"""Settings shared by every test module."""

from hypothesis import settings

# Property tests run whole filter passes, whose time varies a lot on shared
# CI runners; wall-clock bounds live in the acceptance tests instead.
settings.register_profile("trafficstate", deadline=None)
settings.load_profile("trafficstate")
