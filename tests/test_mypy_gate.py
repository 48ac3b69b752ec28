"""Local mirror of CI's mypy gate over the annotated packages.

The container image may not ship mypy (it is installed in CI); the test
skips rather than fails in that case so the tier-1 suite stays
environment-independent.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

pytest.importorskip("mypy", reason="mypy is not installed; CI runs this gate")


def test_mypy_clean_on_annotated_packages():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", str(REPO_ROOT / "mypy.ini")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, f"mypy failures:\n{result.stdout}{result.stderr}"
