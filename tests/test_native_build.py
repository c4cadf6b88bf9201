"""The compiled backend, built from a copy of the sources, against the pure one.

The extension is compiled in a temporary directory with the project's own
`setup.py`, so no build output lands in the source tree; the compiler must
print no warning.  The kernel tests then run against that build, CLI
reports from both backends are compared byte for byte, one argv for each
benchmark invocation at a smaller limit, and the golden corpus
(`tests/golden/reports.json`) is replayed on the build as `test_golden.py`
replays it on pure.  Skipped only where no C compiler or no Python headers
exist.  This file is kept apart from test_kernels.py, which it runs.
"""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMPILER = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
HEADERS = Path(sysconfig.get_paths()["include"], "Python.h").is_file()

pytestmark = pytest.mark.skipif(
    COMPILER is None or not HEADERS, reason="no C compiler or no Python.h"
)

TABLE_F = json.dumps({"kind": "table", "overrides": {"2": "5", "3": "7", "5": "11"}})
# f(2) = 2^70 is wider than a machine word: the compiled kernel raises
# OverflowError and localpow.kernels reruns the call on pure
WIDE_F = json.dumps({"kind": "table", "overrides": {"2": str(2**70), "3": "5", "5": "7"}})
# x -> x^3: every prime is a member, so each verdict returns k_p from the CRT
CUBE_F = json.dumps({"kind": "power", "exponent": 3})
# the shape of the heuristic benchmark's function at seed 1
SEED1_F = json.dumps({
    "kind": "table", "sign_value": -1, "default_exponent": 2,
    "overrides": {"2": "53", "17": "89", "29": "67"},
})
ARGVS = (
    ("density-scan", "--ell", "3", "--limit", "20000", "--tuple", "2,3,5,7", "--mode", "c4"),
    ("density-scan", "--ell", "3", "--limit", "20000", "--tuple", "2,5", "--mode", "split"),
    ("density-scan", "--ell", "17", "--limit", "20000", "--tuple", "2,3,5,10", "--mode", "c4"),
    # ell = 53 > 47: each c4 log is a baby-step giant-step lookup
    ("density-scan", "--ell", "53", "--tuple", "2,3,5,7", "--limit", "200000", "--mode", "c4"),
    # a denominator in [2^63, 2^64): the compiled kernel holds it as an
    # unsigned word
    ("density-scan", "--ell", "3", "--limit", "20000", "--tuple", "2,3,5,1/9223372036854775837",
     "--mode", "c4"),
    # a sign, a denominator, 3, and primes 2 and 5 mod 3 and 7 ≡ 1 (mod 3),
    # which the pure kernel's cubic reciprocity tables decide and the
    # compiled one's powers check
    ("density-scan", "--ell", "3", "--limit", "20000", "--tuple=-2/9,3,14,5", "--mode", "c4"),
    ("density-scan", "--ell", "3", "--limit", "20000", "--tuple", "12,18/7", "--mode", "split"),
    # each worker's range crosses a boundary of the segments of p ≡ 1 (mod 6)
    ("density-scan", "--ell", "3", "--limit", "2000000", "--tuple", "2,3,5,7", "--mode", "c4",
     "--workers", "2"),
    ("heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "20000"),
    ("heuristic", "--function", WIDE_F, "--witnesses", "2,3,5", "--limit", "5000"),
    # past two fan-out spans, so --workers 2 cuts two chunks
    ("heuristic", "--function", SEED1_F, "--witnesses", "2,17,29", "--limit", "600000",
     "--workers", "2"),
    # the witness 300007 has no quadratic-character table (4·300007 > 2^20),
    # so every parity code is -1 and the kernel takes its own q = 2 step
    ("heuristic", "--function", TABLE_F, "--witnesses", "2,3,300007", "--limit", "20000"),
    ("sf-scan", "--function", TABLE_F, "--limit", "20000"),
    ("sf-scan", "--function", TABLE_F, "--limit", "3000", "--mode", "empirical"),
    ("sf-scan", "--function", CUBE_F, "--limit", "3000", "--mode", "empirical"),
    ("sf-scan", "--function", CUBE_F, "--limit", "3000", "--mode", "empirical",
     "--domain", "rational"),
    # 17 tabulated primes, all of them witnesses of the compiled kernel
    ("sf-scan", "--function", SEED1_F, "--limit", "20000", "--mode", "empirical",
     "--bound", "60"),
    ("sf-scan", "--function", TABLE_F, "--limit", "3000", "--mode", "empirical",
     "--bound", "60", "--domain", "rational"),
    ("sf-scan", "--function", WIDE_F, "--limit", "3000", "--mode", "empirical",
     "--bound", "60", "--domain", "rational"),
    ("tf-scan", "--function", TABLE_F, "--limit", "3000"),
    ("bounds", "--x", "1e7", "--mertens", "5,20000", "--chebyshev-z", "20000"),
    ("frobenius", "--p", "7", "--ell", "3", "--tuple", "2,3"),
    ("frobenius", "--p", "1000003", "--ell", "3", "--tuple", "2,3,5,7"),
    # an error report
    ("frobenius", "--p", "7", "--ell", "3", "--tuple", "14"),
)


# Replays the golden corpus in one interpreter, as tests/test_golden.py
# does: each entry at --workers 1, the pool entries at --workers 2 with a
# short fan-out span; prints the backend and the (code, stdout) pairs.
GOLDEN_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from golden.make_corpus import replay
from localpow import _parallel, kernels
corpus = json.loads(Path(sys.argv[1], "golden", "reports.json").read_text())
runs = [replay((*entry["argv"], "--workers", "1")) for entry in corpus]
_parallel.FAN_OUT_SPAN = 100
pooled = [replay((*entry["argv"], "--workers", "2")) for entry in corpus if entry["pool"]]
print(json.dumps([kernels.BACKEND, runs, pooled]))
"""


def _run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True
    )


def _reports(tree: Path) -> list[tuple[int, str, str]]:
    runs = [_run(tree, "-m", "localpow.cli", *argv) for argv in ARGVS]
    return [(proc.returncode, proc.stdout, proc.stderr) for proc in runs]


def _backend(tree: Path) -> str:
    proc = _run(tree, "-c", "from localpow import kernels; print(kernels.BACKEND)")
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def native_tree(tmp_path_factory):
    """A built copy of the project, with the reports its pure run gave first."""
    tree = tmp_path_factory.mktemp("native")
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tree / name)
    shutil.copytree(
        ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("*.so", "__pycache__")
    )
    assert _backend(tree) == "pure"
    pure_reports = _reports(tree)
    build = _run(tree, "setup.py", "build_ext", "--inplace")
    log = build.stdout + build.stderr
    assert _backend(tree) == "native", log
    assert "warning:" not in log, log
    return tree, pure_reports


def test_the_module_exports_the_dispatched_kernels_only(native_tree):
    tree, _ = native_tree
    proc = _run(
        tree, "-c",
        "from localpow.kernels import _native; "
        "print(' '.join(sorted(n for n in dir(_native) if not n.startswith('_'))))",
    )
    assert proc.stdout.split() == [
        "BACKEND", "class_counts", "omega_members", "sieve"
    ], proc.stdout + proc.stderr


def test_kernel_tests_pass_on_the_native_build(native_tree):
    tree, _ = native_tree
    # the two slowest tests exercise only count_primes, which is pure under
    # every backend; the tier-1 run covers them
    proc = _run(
        tree, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        str(ROOT / "tests" / "test_kernels.py"),
        "-k", "not running_sieve_count and not published_values",
    )
    assert proc.returncode == 0, proc.stdout
    assert "skipped" not in proc.stdout, proc.stdout


def test_reports_match_the_pure_backend(native_tree):
    tree, pure_reports = native_tree
    native_reports = _reports(tree)
    for argv, (code, out, err), (native_code, native_out, native_err) in zip(
        ARGVS, pure_reports, native_reports
    ):
        assert (native_code, native_out) == (code, out), argv
        # the scans' progress lines name the backend that ran
        if "(pure kernels)" in err:
            assert "(native kernels)" in native_err, argv
    # density-scan eight times, heuristic four times, sf-scan seven times and
    # tf-scan once
    assert sum("(native kernels)" in err for _, _, err in native_reports) == 20


def test_golden_corpus_replays_on_the_native_build(native_tree):
    tree, _ = native_tree
    proc = _run(tree, "-c", GOLDEN_SCRIPT, str(ROOT / "tests"))
    assert proc.returncode == 0, proc.stderr
    backend, runs, pooled = json.loads(proc.stdout)
    corpus = json.loads((ROOT / "tests" / "golden" / "reports.json").read_text())
    assert backend == "native"
    expected = [[entry["code"], entry["stdout"]] for entry in corpus]
    for entry, run, want in zip(corpus, runs, expected):
        assert run == want, entry["argv"]
    assert pooled == [want for entry, want in zip(corpus, expected) if entry["pool"]]
