"""Every layer the benchmark tracer wraps still exists in the package.

perfbench/tracing.py names its entry points as (layer, module, attribute)
triples and reports a missing one only at benchmark time; this test reads
that list and resolves each attribute the way the tracer does, so a
refactor that drops or renames a traced layer fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_traced_entry_point_resolves():
    missing = []
    for _layer, module_name, attr in _entry_points():
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        # The tracer replaces methods on the class that defines them.
        found = (method in vars(getattr(module, owner_name, object))
                 if owner_name else callable(getattr(module, attr, None)))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
