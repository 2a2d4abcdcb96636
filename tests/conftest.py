"""Hypothesis profiles for the property tests.

tier1, the default, is derandomized and keeps no example database, so every
run draws the same examples. explore, chosen with HYPOTHESIS_PROFILE=explore,
draws fresh random examples at 20 times the tier-1 counts. The property tests
take their counts from test_properties.examples, which scales them by the
loaded profile's max_examples.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", max_examples=100, deadline=None,
                              derandomize=True, database=None)
    settings.register_profile("explore", max_examples=2000, deadline=None, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
