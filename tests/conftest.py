"""Test-session setup: one Hypothesis profile for every property test.

Examples are derived from each test's source, so every run draws the same
ones on every machine; no example database is read or written, and no
test has a per-example deadline.  Hypothesis still caches the constants
it reads from local modules; that cache goes to a temporary directory
removed at exit, so a run leaves no .hypothesis/ behind.
"""

import atexit
import os
import tempfile

from hypothesis import settings

_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
atexit.register(_STORAGE.cleanup)
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _STORAGE.name)

settings.register_profile("entrokit", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("entrokit")
