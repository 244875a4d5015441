"""Repeatable hypothesis draws for the suite under tests/.

The profile "repeatable" sets derandomize: each property test seeds its
draws from the test itself, so every run draws the same examples, and keeps
no example database to replay.  A verdict then changes only with the code or
the test, not from run to run.  A draw that once failed stays covered as an
explicit case (an @example, or a plain test where the test draws with
st.data()).
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
