"""Hypothesis profiles.

Local runs draw fresh examples.  CI sets ``HYPOTHESIS_PROFILE=ci``, which
derandomizes every property test, so a CI failure is one that reproduces
and a run cannot fail on a new random draw; no test's ``max_examples``
depends on the profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
