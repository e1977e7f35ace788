import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_collection_modifyitems(config, items):
    run_slow = os.environ.get("RUN_SLOW") == "1"
    run_full = os.environ.get("KEMPETORUS_FULL") == "1"
    skip_slow = pytest.mark.skip(reason="slow; set RUN_SLOW=1 to run")
    skip_full = pytest.mark.skip(reason="multi-hour T(6,9) class job; "
                                        "set KEMPETORUS_FULL=1 to run")
    for item in items:
        if "full" in item.keywords and not run_full:
            item.add_marker(skip_full)
        elif "slow" in item.keywords and not run_slow:
            item.add_marker(skip_slow)
