"""The library names that perfbench's tracer wraps must exist.

`perfbench/tracing.py` learns about the library by replacing module
attributes by name, so renaming or deleting one of them breaks `--trace 1`
without failing a scan.  This loads the tracer from its file, without
writing its bytecode, and resolves every name it would wrap.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = [(module, attr) for module, attr, _span, _hook in tracing.TARGETS]
    assert ("localpow._parallel", "tf_scan_parallel") in names
    # the tracer swaps the pool class to time each chunk
    names.append(("localpow._parallel", "ProcessPoolExecutor"))
    for module, attr in names:
        owner = importlib.import_module(module)
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), (module, attr)
