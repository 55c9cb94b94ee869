"""The benchmark's trace hooks name attributes that exist in the program."""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("table", ["ANALYTIC_HOOKS", "SAMPLE_HOOKS"])
def test_hooked_names_exist_and_are_callable(table):
    for mod, attr, *_ in getattr(tracing, table):
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
