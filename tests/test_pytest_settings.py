"""The suite's own pytest settings report every failure.

``pyproject.toml`` turns every warning into an error.  On a failing
``@given`` test, hypothesis's report hook imports ``libcst``, which imports
``mypy_extensions.TypedDict`` and so raises a ``DeprecationWarning``; as an
error, that ended the whole run in ``INTERNALERROR`` and hid every result
after it.  The one warning is ignored by message, and this test runs pytest
with the repository's settings on a file holding one failing ``@given``
test and one passing test.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TESTS = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
"""


def test_failing_given_test_is_reported_without_internal_error(tmp_path):
    (tmp_path / "test_sample.py").write_text(TESTS)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    text = out.stdout + out.stderr
    assert "INTERNALERROR" not in text, text
    assert "1 failed, 1 passed" in text, text
    assert "Falsifying example: test_fails(" in text, text
