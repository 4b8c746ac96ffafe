"""Every library name the bench harness binds still resolves.

The harness in ``bench/`` runs only on one interpreter in CI; these tests
run with the tier-1 suite on every supported one, so pruning a name the
harness uses fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    # Resolved as Tracer.install does: "Class.method" must be defined on
    # the class itself, a plain name on its defining module.
    missing = []
    for _, span, module_name, attr in _load("tracing").TARGETS:
        try:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            resolved = callable(vars(owner)[attr])
        except (ImportError, AttributeError, KeyError):
            resolved = False
        if not resolved:
            missing.append(span)
    assert not missing


def test_checks_imports():
    checks = _load("checks")
    assert callable(checks.check_item)
