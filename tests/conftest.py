"""One hypothesis profile for the whole suite: derandomized, so every run draws
the same examples, with no deadline and a bounded example count."""
from hypothesis import settings

settings.register_profile("derainkit", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("derainkit")
