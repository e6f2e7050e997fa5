"""The benchmark tracer's targets exist, and its patching is undone in full.

``perfbench/spans.py`` patches padelab functions by name at run time, so a
renamed or deleted target would otherwise surface only when the benchmark
runs.  The module is loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import padelab

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(spans) -> list:
    """Every module and class whose attributes the tracer may replace."""
    modules = [importlib.import_module(f"padelab.{m}") for m in spans.MODULES] + [padelab]
    owners = [getattr(importlib.import_module(f"padelab.{m}"), owner)
              for m, owner, _, _, _ in spans.TARGETS if owner is not None]
    return modules + owners


def snapshot(spans) -> list[dict]:
    return [dict(vars(namespace)) for namespace in namespaces(spans)]


def test_every_target_resolves():
    spans = load_spans()
    for module_name, owner, attr, name, _ in spans.TARGETS:
        namespace = importlib.import_module(f"padelab.{module_name}")
        if owner is not None:
            namespace = getattr(namespace, owner)
        assert callable(getattr(namespace, attr, None)), f"{name}: padelab.{module_name} has no {owner or ''} {attr}"


def test_uninstall_restores_every_patched_attribute():
    spans = load_spans()
    before = snapshot(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = snapshot(spans)
        assert patched != before
    finally:
        tracer.uninstall()
    after = snapshot(spans)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())
