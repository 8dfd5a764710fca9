"""The benchmark's traced mode stays installable: ``perfbench/tracer.py``
wraps crossbell names by attribute lookup, so its ``install`` raises
``AttributeError`` once the package drops one of them. This loads the tracer
by path, installs it against the package under test, and checks that
``uninstall`` puts every wrapped name back."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import crossbell.cli  # noqa: F401  the tracer reads every crossbell module
import crossbell.oracle  # noqa: F401  from sys.modules

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstall_restores_every_wrapped_name():
    tracer_module = load_tracer()
    modules = [sys.modules[name] for name in tracer_module.MODULES]
    bound = [dict(vars(module)) for module in modules]
    methods = [
        (cls, attr, cls.__dict__[attr])
        for layer, cls_name, attr, _ in tracer_module.METHODS
        for cls in [getattr(sys.modules[f"crossbell.{layer}"], cls_name)]
    ]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for layer, attr in tracer_module.FUNCTIONS:
            defining = sys.modules[f"crossbell.{layer}"]
            original = bound[modules.index(defining)][attr]
            assert getattr(defining, attr) is not original, f"{layer}.{attr}"
        for cls, attr, raw in methods:
            assert cls.__dict__[attr] is not raw, f"{cls.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, names in zip(modules, bound):
        assert vars(module).keys() == names.keys()
        changed = [key for key, value in names.items() if vars(module)[key] is not value]
        assert changed == [], module.__name__
    for cls, attr, raw in methods:
        assert cls.__dict__[attr] is raw, f"{cls.__name__}.{attr}"
