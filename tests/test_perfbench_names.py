"""The benchmark's tracer must still find every name it wraps.

``perfbench/tracing.py`` names flagmaps functions, one method and the
modules that may bind them.  A rename in the package would otherwise
surface only when the benchmark itself runs.
"""

import importlib
import importlib.util
import os
import sys

import flagmaps

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    for name in tracing.BINDING_MODULES:
        importlib.import_module(f"flagmaps.{name}")
    tracer = tracing.Tracer()
    try:
        tracer.install(flagmaps)
        for module, names in tracing.TRACED.items():
            for name in names:
                assert hasattr(getattr(getattr(flagmaps, module), name), "__wrapped__")
        for module, methods in tracing.TRACED_METHODS.items():
            for cls, name in methods:
                method = getattr(getattr(flagmaps, module), cls).__dict__[name]
                assert hasattr(method, "__wrapped__")
    finally:
        tracer.uninstall()
