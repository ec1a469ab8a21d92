"""The names the benchmark's traced run rebinds must exist in the library.

`bench/spans.py` looks each traced function up on its gibbslab module and
each traced method in its class's `__dict__`; a renamed one would only show
up as a crash of `bench/run.py --trace 1`.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_on_its_module():
    for module, names in _spans().TRACED_FUNCTIONS.items():
        home = importlib.import_module(f"gibbslab.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"gibbslab.{module}.{name}"


def test_every_traced_method_is_defined_on_its_class():
    for span, (module, cls, method) in _spans().TRACED_METHODS.items():
        klass = getattr(importlib.import_module(f"gibbslab.{module}"), cls)
        assert method in klass.__dict__, span
