import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpow import cli, kernels
from localpow.bounds import cyclotomic_discriminant
from localpow.modular import PrimeCache
from localpow.powermap import MAX_TABLE_SLOTS

TABLE_F = json.dumps(
    {
        "kind": "table",
        "sign_value": 1,
        "default_exponent": 1,
        "overrides": {"2": "5", "3": "7", "5": "11"},
    }
)
OVERRIDE_3 = json.dumps({"kind": "table", "overrides": {"3": "5"}})
WIDE = 2**64 + 13  # wider than any machine word
WIDE_POWER = json.dumps({"kind": "power", "exponent": WIDE})
BIG_POWER = json.dumps({"kind": "power", "exponent": 32768})


@pytest.fixture(autouse=True)
def lift_int_to_text_limit():
    # reports hold exact integers of up to about 14,000 digits, which
    # json.loads reads back only with the limit lifted; cli.run restores
    # whatever limit it finds, so each test lifts it for its own reading
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_sf_scan_worked_example(capsys):
    rep = run_json(capsys, "sf-scan", "--function", TABLE_F, "--limit", "100")
    assert rep["command"] == "sf-scan"
    assert rep["range"] == [2, 100]
    assert rep["counted"] == 2
    assert rep["counted"] + rep["skipped"] == 25  # pi(100)
    assert rep["items"] == [{"p": 2, "k_p": 0}, {"p": 3, "k_p": 1}]
    assert rep["parameters"]["mode"] == "exact"
    assert rep["parameters"]["limit"] == 100
    assert "bound_config" in rep["parameters"]
    # execution knobs must not leak into the echoed parameters
    for key in ("workers", "csv", "prime_cache"):
        assert key not in rep["parameters"]
    assert rep["cache_limit"] >= 100


def test_report_key_order(capsys):
    code, out = run_cli(capsys, "sf-scan", "--function", TABLE_F, "--limit", "100")
    assert code == 0
    keys = list(json.loads(out))
    assert keys == [
        "command",
        "parameters",
        "range",
        "counted",
        "skipped",
        "observed",
        "items",
        "cache_limit",
    ]


def test_disc_payload_is_exact(capsys):
    rep = run_json(capsys, "disc", "--cyclotomic", "5")
    assert rep == {"value": 125}
    rep = run_json(capsys, "disc", "--cyclotomic", "7")
    assert rep == {"value": -16807}
    # the largest exact conductor: a value of about 14,000 digits
    rep = run_json(capsys, "disc", "--cyclotomic", "10000")
    assert rep == {"value": cyclotomic_discriminant(10000)}


def test_usage_errors_exit_64(capsys):
    code, _ = run_cli(capsys, "no-such-command")
    assert code == 64
    code, _ = run_cli(capsys)
    assert code == 64
    code, _ = run_cli(capsys, "sf-scan", "--limit", "100")  # missing --function
    assert code == 64
    code, _ = run_cli(
        capsys, "construct", "--set", "2,3", "--exponents", "1"
    )  # length mismatch
    assert code == 64
    for argv in (
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--workers", "0"),
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--workers", "-3"),
        ("sf-scan", "--function", TABLE_F, "--limit", "1"),
        ("tf-scan", "--function", TABLE_F, "--limit", "-5"),
        ("bounds", "--x", "1e8", "--mertens", "5"),
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--prime-cache", "x"),
        # malformed numbers
        ("density-scan", "--ell", "3", "--tuple", "abc,2,3,5", "--limit", "100"),
        ("relations", "--tuple", "abc,2"),
        ("heuristic", "--function", TABLE_F, "--witnesses", "a,b,c", "--limit", "100"),
        ("construct", "--set", "3,x", "--exponents", "1,2"),
        # vacuous scan bounds: every prime would pass, or none could be decided
        ("tf-scan", "--function", OVERRIDE_3, "--limit", "100", "--shift-bound", "0"),
        ("tf-scan", "--function", OVERRIDE_3, "--limit", "100", "--shift-bound", "-1"),
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--mode", "empirical",
         "--bound", "1"),
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--mode", "empirical",
         "--bound", "-3"),
        # vacuous or contradictory counts
        ("witness", "--function", TABLE_F, "--count", "0"),
        ("witness", "--function", TABLE_F, "--count", "-1"),
        ("witness", "--function", TABLE_F, "--search-limit", "-5"),
        ("construct", "--set", "5,5", "--exponents", "1,2"),
        ("bounds", "--x", "1e8", "--pi-x", "-5"),
        # an unwritable --csv path, found before any report is printed
        ("disc", "--cyclotomic", "5", "--csv", "/nonexistent/x.csv"),
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--csv", "/nonexistent/x.csv"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 64, argv
        assert out == ""


def test_function_spec_errors_exit_65(capsys):
    code, out = run_cli(
        capsys, "sf-scan", "--function", '{"kind": "bogus"}', "--limit", "100"
    )
    assert code == 65
    payload = json.loads(out)
    assert payload["type"] == "malformed-function-spec"
    assert "message" in payload
    code, out = run_cli(
        capsys, "sf-scan", "--function", "/no/such/file.json", "--limit", "100"
    )
    assert code == 65
    # each of these once scanned a different f than the one written
    for spec in (
        '{"kind": "power", "exponent": 1.5}',
        '{"kind": "power", "exponent": true}',
        '{"kind": "power", "exponent": 1e30}',
        '{"kind": "table", "default_exponent": 2.7}',
        '{"kind": "table", "sign_value": -1.5}',
        '{"kind": "table", "overides": {"2": "5"}}',
        '{"kind": "power", "exponent": 2, "overrides": {"2": "5"}}',
    ):
        code, out = run_cli(capsys, "sf-scan", "--function", spec, "--limit", "100")
        assert code == 65, spec
        assert json.loads(out)["type"] == "malformed-function-spec"


def test_domain_errors_exit_2(capsys):
    code, out = run_cli(capsys, "disc", "--cyclotomic", "100000")
    assert code == 2
    payload = json.loads(out)
    assert payload["type"] == "exact-range"
    assert payload["limit"] == 10**4
    code, out = run_cli(capsys, "kummer-degree", "--tuple", "12,18", "--ell", "4")
    assert code == 2
    code, out = run_cli(capsys, "frobenius", "--p", "7", "--ell", "3", "--tuple", "14")
    assert code == 2
    assert json.loads(out)["type"] == "ramified-prime"
    # JSON errors, not tracebacks; the two scans reject before scanning a prime
    for argv in (
        ("bounds", "--x", "nan"),
        ("bounds", "--x", "inf"),
        ("density-scan", "--ell", "4", "--tuple", "2,3,5,7", "--limit", "1000"),
        ("heuristic", "--function", TABLE_F, "--witnesses", "2,3", "--limit", "1000"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["message"]
    for argv in (
        # --pi-x spares the prime count to 10^8 that comes before these checks
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--mertens", "5,inf"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--chebyshev-z", "nan"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--chebyshev-z", "inf"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--b-f", "nan"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--b-f", "inf"),
        # limits that no sieve can index
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--mertens", "5,1e300"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--chebyshev-z", "1e300"),
        ("bounds", "--x", "1e300"),
        # pi(x) is counted only up to 10^12
        ("bounds", "--x", "1e13"),
        ("sf-scan", "--function", TABLE_F, "--limit", str(WIDE)),
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--mode", "empirical",
         "--bound", str(WIDE)),
        ("tf-scan", "--function", TABLE_F, "--limit", "100", "--shift-bound", str(WIDE)),
        # value tables past the cap on their entries
        ("tf-scan", "--function", TABLE_F, "--limit", "100", "--shift-bound", "1000000000000"),
        ("tf-scan", "--function", TABLE_F, "--limit", str(MAX_TABLE_SLOTS)),
        ("witness", "--function", TABLE_F, "--search-limit", str(WIDE)),
        # a report number that overflows to infinity
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--implied-constant", "1e308"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["type"] == "domain-error"
    # non-finite or overflowing bound constants, common to every subcommand
    for argv in (
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--c2", "nan"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--implied-constant", "inf"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--c2", "1e300"),
        ("sf-scan", "--function", TABLE_F, "--limit", "100", "--c1=-inf"),
        ("disc", "--cyclotomic", "5", "--c1", "0"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["type"] == "bad-config"
    # f(n) = n^k with k wider than 64 bits has no exact value to build, and
    # n^32768 up to 10^5 would take about 6 GiB
    for argv in (
        ("tf-scan", "--function", WIDE_POWER, "--limit", "100"),
        ("tf-scan", "--function", BIG_POWER, "--limit", "100000"),
        ("heuristic", "--function", WIDE_POWER, "--witnesses", "2,3,5", "--limit", "100"),
        ("sf-scan", "--function", WIDE_POWER, "--limit", "100", "--mode", "empirical"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["type"] == "exact-range"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_non_integral_value_exits_2(capsys, workers):
    spec = json.dumps({"kind": "table", "overrides": {"3": "1/2"}})
    code, out = run_cli(
        capsys, "tf-scan", "--function", spec, "--limit", "100", "--workers", workers
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["type"] == "non-integral-value"
    assert payload["n"] == 3


def test_rejected_scans_sieve_nothing(capsys, monkeypatch):
    built = []
    init = PrimeCache.__init__

    def recording_init(self, limit):
        built.append(limit)
        init(self, limit)

    monkeypatch.setattr(PrimeCache, "__init__", recording_init)
    for argv in (
        ("density-scan", "--ell", "4", "--tuple", "2,3,5,7", "--limit", "10000000"),
        ("density-scan", "--ell", "3", "--tuple", "2,3", "--limit", "10000000"),
        ("heuristic", "--function", TABLE_F, "--witnesses", "2,3", "--limit", "10000000"),
        ("tf-scan", "--function", TABLE_F, "--limit", "10000000", "--shift-bound",
         str(MAX_TABLE_SLOTS)),
        ("tf-scan", "--function", BIG_POWER, "--limit", "100000"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["message"]
    assert built == []


def test_frobenius_worked_example(capsys):
    rep = run_json(capsys, "frobenius", "--p", "7", "--ell", "3", "--tuple", "2,3")
    assert rep["z_vector"] == [4, 2]
    assert rep["b_vector"] == [1, 2]


def test_relations_worked_example(capsys):
    rep = run_json(capsys, "relations", "--tuple", "12,18")
    assert rep["support"] == [2, 3]
    assert rep["matrix"] == [[2, 1], [1, 2]]
    assert rep["integer_kernel_basis"] == []
    assert rep["minors"] == [3]
    assert rep["delta"] == 6


def test_kummer_degree_worked_example(capsys):
    rep = run_json(capsys, "kummer-degree", "--tuple", "12,18", "--ell", "3")
    assert (rep["dim_v"], rep["degree"], rep["d"]) == (1, 3, 1)
    rep = run_json(capsys, "kummer-degree", "--tuple", "12,18", "--ell", "5")
    assert (rep["dim_v"], rep["degree"], rep["d"]) == (0, 25, 2)


def test_witness_and_construct(capsys):
    rep = run_json(capsys, "witness", "--function", TABLE_F, "--count", "3")
    assert rep["witnesses"] == [2, 3, 5]
    rep = run_json(capsys, "construct", "--set", "3,5,7", "--exponents", "1,2,3")
    assert rep["items"] == [
        {"p": 3, "k_p": 1},
        {"p": 5, "k_p": 2},
        {"p": 7, "k_p": 3},
    ]
    for offset, value in enumerate(rep["values"]):
        n = offset + 1
        for p, k in ((3, 1), (5, 2), (7, 3)):
            assert value % p == pow(n, k, p)
        assert 1 <= value <= rep["modulus"] + 5


def test_density_scan_report(capsys):
    rep = run_json(
        capsys,
        "density-scan",
        "--ell",
        "3",
        "--tuple",
        "2,3,5,7",
        "--limit",
        "20000",
    )
    assert rep["command"] == "density-scan"
    assert rep["expected"] == pytest.approx(25 / 81, abs=1e-9)
    assert abs(rep["observed"] - 25 / 81) < 0.02
    assert rep["counted"] + rep["skipped"] > 0


def test_heuristic_report_fields(capsys):
    code = cli.run(
        ["heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "5000"]
    )
    captured = capsys.readouterr()
    assert code == 0
    rep = json.loads(captured.out)
    assert rep["counted"] == 0
    assert rep["observed"] == 0.0
    assert rep["expected"] > 0
    assert rep["counted"] + rep["skipped"] == 669  # pi(5000)
    # the progress line says how many primes the quadratic characters settled
    assert (
        "tested 669 primes for simultaneous power membership, "
        "525 by quadratic characters"
    ) in captured.err


def test_run_restores_the_int_to_text_limit(capsys):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert cli.run(["disc", "--cyclotomic", "10000"]) == 0
        assert len(capsys.readouterr().out) > 4300  # printed with the limit lifted
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


def test_bounds_report(capsys):
    rep = run_json(
        capsys,
        "bounds",
        "--x",
        "1e8",
        "--b-f",
        "10",
        "--pi-x",
        "5761455",
        "--mertens",
        "5,20",
        "--chebyshev-z",
        "10",
    )
    assert rep["pi_x"] == 5761455
    target = 0.0626 * 5761455
    assert abs(rep["terms"]["main_term"]["value"] - target) / target < 0.005
    assert rep["terms"]["total"]["value"] == pytest.approx(
        rep["terms"]["main_term"]["value"] + 10
    )
    for term in rep["terms"].values():
        assert set(term) == {"value", "formula"}
    assert abs(rep["mertens"] - 0.456543) < 1e-5
    assert rep["chebyshev"]["holds"] is True
    assert rep["schedule"]["y_le_z"] is False  # Y > Z until log x is astronomical
    assert "bound_config" in rep


def test_float_formatting_is_12_significant_digits(capsys):
    rep = run_json(capsys, "bounds", "--x", "1e8", "--pi-x", "5761455")

    def check(node):
        if isinstance(node, float):
            assert float(f"{node:.12g}") == node
        elif isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    check(rep)


@pytest.mark.parametrize(
    "argv",
    [
        ("sf-scan", "--function", TABLE_F, "--limit", "2000"),
        (
            "sf-scan",
            "--function",
            TABLE_F,
            "--limit",
            "1000",
            "--mode",
            "empirical",
            "--bound",
            "50",
        ),
        ("tf-scan", "--function", TABLE_F, "--limit", "500"),
        ("density-scan", "--ell", "3", "--tuple", "2,3,5,7", "--limit", "3000"),
        ("heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "2000"),
    ],
)
def test_worker_count_never_changes_output(capsys, argv):
    code, serial = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0
    code, parallel = run_cli(capsys, *argv, "--workers", "8")
    assert code == 0
    assert serial == parallel


def test_csv_items_written(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _ = run_cli(
        capsys, "sf-scan", "--function", TABLE_F, "--limit", "100", "--csv", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,k_p"
    assert lines[1:] == ["2,0", "3,1"]


def test_csv_scalar_summary(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code, _ = run_cli(
        capsys, "bounds", "--x", "1e8", "--pi-x", "5761455", "--csv", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header plus one row of scalar fields
    assert len(lines[0].split(",")) == len(lines[1].split(","))


def test_exit_codes_through_real_process():
    def invoke(*argv):
        return subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from localpow.cli import run; sys.exit(run(sys.argv[1:]))",
                *argv,
            ],
            capture_output=True,
            text=True,
        )

    proc = invoke("disc", "--cyclotomic", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": 125}
    assert proc.stderr == ""
    proc = invoke("disc", "--cyclotomic", "100000")
    assert proc.returncode == 2
    proc = invoke("bogus")
    assert proc.returncode == 64
    proc = invoke("sf-scan", "--function", "{bad json", "--limit", "10")
    assert proc.returncode == 65


def test_progress_goes_to_stderr_not_stdout():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from localpow.cli import run; sys.exit(run(sys.argv[1:]))",
            "sf-scan",
            "--function",
            TABLE_F,
            "--limit",
            "100",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)  # stdout is pure JSON
    assert "scanning" in proc.stderr
    assert f"({kernels.BACKEND} kernels)" in proc.stderr


# ---------------------------------------------------------------- CLI contract

UNWRITABLE_CSV = (os.devnull + "/x.csv", os.path.dirname(__file__))


def _valid_or(valid, bad):
    # half the draws are valid, so most argv get past the parser
    return st.one_of(st.sampled_from(valid), st.sampled_from(bad))


def _ints(*valid):
    # an integer flag value: a valid one, or zero, negative, wide or not a number
    return _valid_or(valid, ("0", "-1", "-5", str(WIDE), str(-WIDE), "x", ""))


def _floats(*valid):
    return _valid_or(valid, ("0", "-5", "nan", "inf", "-inf", "1e300", "1e308", "x"))


def _entries_text(*valid):
    entry = _valid_or(valid, ("0", "-1", "1", str(WIDE), "1/2", "x", ""))
    return st.lists(entry, max_size=5).map(",".join)


_LIMIT = _ints("2", "100", "2000")
_FUNCTION = st.one_of(
    st.sampled_from(
        (TABLE_F, OVERRIDE_3, '{"kind": "bogus"}', "{bad json", "/no/such/file.json")
    ),
    st.builds(
        lambda e: json.dumps({"kind": "power", "exponent": e}),
        st.sampled_from((0, 1, 3, -2, WIDE)),
    ),
    st.builds(
        lambda q, v, k, s: json.dumps(
            {"kind": "table", "overrides": {q: v}, "default_exponent": k, "sign_value": s}
        ),
        st.sampled_from(("2", "3", "4", "0", "-3", str(WIDE))),
        st.sampled_from(("5", "1/2", "0", "-7", str(WIDE), "x")),
        st.sampled_from((1, 0, -1, 2)),
        st.sampled_from((1, -1, 0, 2)),
    ),
)

_SUBCOMMANDS = {
    "sf-scan": {
        "--function": _FUNCTION,
        "--limit": _LIMIT,
        "--mode": st.sampled_from(("exact", "empirical", "bogus")),
        "--bound": _ints("2", "50"),
        "--domain": st.sampled_from(("positive", "rational", "bogus")),
    },
    "tf-scan": {
        "--function": _FUNCTION,
        "--limit": _LIMIT,
        # a bound past the value-table cap is refused before any allocation
        "--shift-bound": _ints("1", "20", str(MAX_TABLE_SLOTS), str(10**12)),
    },
    "witness": {
        "--function": _FUNCTION,
        "--count": _ints("1", "3"),
        "--search-limit": _ints("2", "100", "2000"),
    },
    "construct": {
        "--set": _entries_text("3", "5", "7", "4"),
        "--exponents": _entries_text("1", "2", "-3"),
    },
    "relations": {"--tuple": _entries_text("12", "18", "-2", "3/4")},
    "kummer-degree": {
        "--tuple": _entries_text("12", "18", "-2", "3/4"),
        "--ell": _ints("2", "3", "5", "4"),
    },
    "frobenius": {
        "--p": _ints("7", "13", "31", str(2**89 - 1)),
        "--ell": _ints("2", "3", "5"),
        "--tuple": _entries_text("2", "3", "-5", "3/4"),
    },
    "density-scan": {
        "--ell": _ints("3", "5", "4"),
        "--tuple": _entries_text("2", "3", "5", "7", "-2", "3/4"),
        "--limit": _LIMIT,
        "--mode": st.sampled_from(("c4", "split", "bogus")),
        "--enumeration-bound": _ints("3", "50"),
    },
    "heuristic": {
        "--function": _FUNCTION,
        "--witnesses": _entries_text("2", "3", "5", "6"),
        "--limit": _LIMIT,
    },
    "bounds": {
        "--x": _floats("4e6", "1e100"),
        "--b-f": _floats("10"),
        "--pi-x": _ints("5761455", "1"),
        "--mertens": st.tuples(_floats("5", "20"), _floats("3", "1000")).map(",".join),
        "--chebyshev-z": _floats("2", "1000"),
    },
    "disc": {"--cyclotomic": _ints("1", "5", "7", "10000", "10001")},
}
_REQUIRED = {
    "sf-scan": ("--function", "--limit"),
    "tf-scan": ("--function", "--limit"),
    "witness": ("--function",),
    "construct": ("--set", "--exponents"),
    "relations": ("--tuple",),
    "kummer-degree": ("--tuple", "--ell"),
    "frobenius": ("--p", "--ell", "--tuple"),
    "density-scan": ("--ell", "--tuple", "--limit"),
    "heuristic": ("--function", "--witnesses", "--limit"),
    "bounds": ("--x",),
    "disc": ("--cyclotomic",),
}
# --workers stays small: a scan starts one process per chunk
_COMMON = {
    "--workers": st.sampled_from(("1", "2", "0", "-3", "x")),
    "--csv": st.sampled_from(UNWRITABLE_CSV),
    "--c1": _floats("1", "0.5"),
    "--c2": _floats("1", "2"),
    "--implied-constant": _floats("1", "3"),
}


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    flags = {**_SUBCOMMANDS[cmd], **_COMMON}
    chosen = set(_REQUIRED[cmd]) | set(
        draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
    )
    # a required flag is dropped now and then, which is a usage error
    if draw(st.integers(0, 9)) == 0:
        chosen.discard(draw(st.sampled_from(_REQUIRED[cmd])))
    argv = [cmd]
    for flag in sorted(chosen):
        argv += [flag, draw(flags[flag])]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_cli_contract_holds_for_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 64, 65), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 64:
        assert out.getvalue() == "", argv
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
