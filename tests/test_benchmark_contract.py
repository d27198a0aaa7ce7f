"""The package names the benchmark's tracer reaches into still resolve.

`perfbench/tracing.py` wraps each layer in its `LAYERS` table by module
and attribute, and reads `check_axioms.cache_info()`; a rename in the
package would break `perfbench/run.py --trace 1` without any other test
failing.  The tracer module is only imported here, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import bckcodes as bc

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _tracing().LAYERS
    assert layers
    for name, module, attr, kind in layers:
        target = getattr(importlib.import_module(module), attr)
        if kind == "class":
            # the tracer counts constructions by wrapping the class's own __init__
            assert isinstance(target, type) and "__init__" in vars(target), name
        else:
            assert callable(target), name


def test_check_axioms_keeps_its_cache_info():
    assert bc.algebra.check_axioms is bc.check_axioms
    assert bc.check_axioms.cache_info().maxsize is not None
