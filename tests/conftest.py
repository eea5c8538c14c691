"""Test-session settings shared by every test module.

Hypothesis properties draw the same examples on every run and keep no
example database, so a test result can be reproduced from the tree alone.
Each property still sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
