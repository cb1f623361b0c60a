"""The traced benchmark run patches and reads mzvkit internals by name.

A rename that the tracer does not follow leaves it blind without an error,
so every name it lists must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import mzvkit

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_resolves():
    for module_name, names in tracing.SPANS.items():
        module = importlib.import_module(f"mzvkit.{module_name}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            assert owner is not None and attr in vars(owner), f"{module_name}.{name}"
    for module_name, names in tracing.CACHES.items():
        module = importlib.import_module(f"mzvkit.{module_name}")
        for name in names:
            assert hasattr(getattr(module, name, None), "cache_info"), f"{module_name}.{name}"
    # the tracer also counts Poly sums and products and reads the evaluator's memo table
    assert {"__add__", "__mul__"} <= set(vars(mzvkit.words.Poly))
    assert isinstance(mzvkit.numerics._mzv_cache, dict)
