"""The library names that perfbench's tracer and the kernel benchmark use must exist.

`perfbench/tracing.py` learns about the library by replacing module
attributes by name, and `benchmarks/bench_kernels.py` imports localpow
names and calls the pure kernels by attribute, so renaming or deleting one
of them breaks `--trace 1` or the benchmark without failing a scan.  Each
script is loaded from its file, without writing its bytecode or running
its `main`, and every name it would use is resolved.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
BENCH_KERNELS = ROOT / "benchmarks" / "bench_kernels.py"


def load_script(monkeypatch, path, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = load_script(monkeypatch, TRACING, "perfbench_tracing")
    names = [(module, attr) for module, attr, _span, _hook in tracing.TARGETS]
    assert ("localpow._parallel", "tf_scan_parallel") in names
    # the tracer swaps the pool class to time each chunk
    names.append(("localpow._parallel", "ProcessPoolExecutor"))
    for module, attr in names:
        owner = importlib.import_module(module)
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), (module, attr)


def test_every_benchmarked_kernel_resolves(monkeypatch):
    # its top-level imports (the compiled module's is optional, in a try),
    # and each kernel it reads off pure, or off m (pure or the compiled
    # module, which mirrors pure's names)
    bench = load_script(monkeypatch, BENCH_KERNELS, "bench_kernels")
    tree = ast.parse(BENCH_KERNELS.read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.startswith("localpow")
        for alias in node.names
    ]
    assert ("localpow.kernels", "pure") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
    kernels = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("pure", "m")
    }
    assert {"sieve", "class_counts", "cubic_class_counts", "prime_segments"} <= kernels
    for name in kernels:
        assert callable(getattr(bench.pure, name)), name
