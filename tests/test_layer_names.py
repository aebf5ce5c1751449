"""The benchmark's tracer (``bench/tracer.py``) wraps kernel functions by
``module:function`` name; a change that deletes or renames one of them
breaks the traced benchmark run.  This catches it among the unit tests."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    """``LAYERS`` as written in the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS in {TRACER}")


def test_every_function_the_tracer_wraps_resolves():
    layers = _layers()
    specs = [spec for names in layers.values() for spec in names]
    assert len(specs) > 30 and "check.ctx" in layers
    missing = []
    for spec in specs:
        mod, fn = spec.split(":")
        if not callable(getattr(importlib.import_module(f"mtt.{mod}"), fn, None)):
            missing.append(spec)
    assert missing == []
