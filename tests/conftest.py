from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# deadline, so a run cannot fail on a new example or on a slow first call.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
