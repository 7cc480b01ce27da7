from hypothesis import settings

# derandomized: the property tests draw the same examples on every run
settings.register_profile("boxmatch", derandomize=True, deadline=None)
settings.load_profile("boxmatch")
