"""An unclosed file fails the test that leaves it: a ResourceWarning, and the
warning pytest raises for one that comes from a finalizer, are errors for the
tests of this directory."""
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
UNCLOSED_IS_AN_ERROR = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            for mark in UNCLOSED_IS_AN_ERROR:
                item.add_marker(mark)
