"""The suite's pytest settings report a failing property and go on.

``filterwarnings = ["error"]`` turns every warning into an error, also
one that a plugin raises while it reports a failure: Hypothesis' report
hook touching the deprecated ``mypy_extensions.TypedDict`` once ended the
whole session in ``INTERNALERROR`` at the first failing property.  A
module with one failing property and one passing test, run under the
repository's ``pyproject.toml``, must read "1 failed, 1 passed".
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_failing_property(n):
    assert n != n


def test_passing():
    pass
'''


def test_failing_property_is_reported(tmp_path):
    (tmp_path / "test_module.py").write_text(MODULE, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
