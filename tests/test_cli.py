import json
import math
import subprocess
import sys

import pytest

from localpow import cli
from localpow.modular import PrimeCache

TABLE_F = json.dumps(
    {
        "kind": "table",
        "sign_value": 1,
        "default_exponent": 1,
        "overrides": {"2": "5", "3": "7", "5": "11"},
    }
)


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
    rep = run_json(
        capsys,
        "heuristic",
        "--function",
        TABLE_F,
        "--witnesses",
        "2,3,5",
        "--limit",
        "5000",
    )
    assert rep["counted"] == 0
    assert rep["observed"] == 0.0
    assert rep["expected"] > 0
    assert rep["counted"] + rep["skipped"] == 669  # pi(5000)


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
