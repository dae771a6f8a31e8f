"""Every function the benchmark's span tracer wraps still exists.

``perfbench/tracer.py`` lists (module, attribute, span name) triples and
patches each attribute at run time.  Renaming or deleting one of them
breaks the benchmark; this check makes that show in the main suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module,attr,span", TARGETS,
                         ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(module, attr, span):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
