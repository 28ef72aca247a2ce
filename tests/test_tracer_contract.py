"""The traced benchmark's patch list names methods that exist where it looks.

``benchmarks/e2e/tracer.py`` wraps each ``(owner, attr)`` of
``run.layer_patches()`` by reading ``owner.__dict__[attr]``, so a method
a refactor moves to a base class makes every ``--trace 1`` run raise
``KeyError``.  This test catches that move in the unit suite; the
benchmark files are only imported, never changed.
"""

import importlib
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def test_every_patched_method_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    run = importlib.import_module("run")
    patches = run.layer_patches()
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in owner.__dict__]
    assert missing == []
