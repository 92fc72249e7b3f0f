import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def suite():
    """``tools/optimizer_suite.py``, loaded once as a module."""
    spec = importlib.util.spec_from_file_location(
        "optimizer_suite", Path(__file__).resolve().parent.parent / "tools" / "optimizer_suite.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
