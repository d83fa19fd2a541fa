"""Every name the benchmark's span tracer wraps still exists in rigidlab.

perfbench/tracer.py patches each TARGETS entry by name when a traced
run starts, so a refactor that deletes or moves one of those names
breaks only `perfbench/run.py --trace 1`.  This reads TARGETS from that
file and resolves each entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("home, path",
                         [(home, path) for home, path, *_ in tracer.TARGETS],
                         ids=lambda v: v)
def test_traced_name_resolves(home, path):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{home}")
    if "." in path:
        cls_name, attr = path.split(".")
        # The tracer patches methods on the class itself.
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))
