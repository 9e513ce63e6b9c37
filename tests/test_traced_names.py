"""Every function and method that the bench tracer wraps still exists.

``bench/tracing.py`` wraps its ``LAYERS`` by module and attribute name, so a
renamed or deleted one would only fail a traced bench run.  The module is
loaded by path and its ``install`` is not called.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = load_tracing().LAYERS
    assert layers
    missing = []
    for name, modname, attr, clsname, *_ in layers:
        module = importlib.import_module(modname)
        if clsname is None:
            found = hasattr(module, attr)
        else:
            found = attr in getattr(module, clsname).__dict__
        if not found:
            missing.append(f"{name}: {modname}.{clsname or ''}"
                           f"{'.' if clsname else ''}{attr}")
    assert not missing, missing
