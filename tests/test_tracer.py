"""The benchmark tracer resolves every layer it times by module and name.

`Tracer()` looks up each (module, function) pair of `perfbench/tracer.py`'s
LAYERS, so constructing one fails as soon as a traced function is deleted
or renamed in `src/pointloc`.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_layer():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    patched = {(getattr(fn, "__module__", None), fn.__name__) for _, _, fn, _ in tracer._patches}
    for module_name, attr, _, _ in tracer_module.LAYERS:
        assert (module_name, attr) in patched, f"{module_name}.{attr} is never rebound"
    with tracer.installed():
        pass
    for holder, key, fn, _ in tracer._patches:
        assert getattr(holder, key) is fn
