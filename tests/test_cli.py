import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from localpow import cli, kernels
from localpow.bounds import PI_COUNT_LIMIT, cyclotomic_discriminant
from localpow.chebotarev import CLASS_RATIO_ELL_LIMIT
from localpow.kernels import pure
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
        ("density-scan", "--ell", "3", "--tuple", "2,3,5,7", "--limit", str(sys.maxsize)),
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
        # an exact sf-scan needs no sieve, but its report counts pi(limit)
        ("sf-scan", "--function", TABLE_F, "--limit", str(10**12 + 1)),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["type"] == "exact-range"
    assert json.loads(out)["limit"] == PI_COUNT_LIMIT


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
    segments = kernels.prime_segments

    def recording_init(self, limit):
        built.append(limit)
        init(self, limit)

    def recording_segments(lo, hi, s):
        built.append((lo, hi, s))
        return segments(lo, hi, s)

    monkeypatch.setattr(PrimeCache, "__init__", recording_init)
    monkeypatch.setattr(kernels, "prime_segments", recording_segments)
    monkeypatch.setattr(kernels, "count_primes", built.append)
    for argv in (
        ("density-scan", "--ell", "4", "--tuple", "2,3,5,7", "--limit", "10000000"),
        ("density-scan", "--ell", "3", "--tuple", "2,3", "--limit", "10000000"),
        # a range that no sequence can index, refused before its length is taken
        ("density-scan", "--ell", "3", "--tuple", "2,3,5,7", "--limit", str(sys.maxsize)),
        ("heuristic", "--function", TABLE_F, "--witnesses", "2,3", "--limit", "10000000"),
        ("tf-scan", "--function", TABLE_F, "--limit", "10000000", "--shift-bound",
         str(MAX_TABLE_SLOTS)),
        ("tf-scan", "--function", BIG_POWER, "--limit", "100000"),
        # pi(limit) is counted only up to 10^12
        ("sf-scan", "--function", TABLE_F, "--limit", str(10**12 + 1)),
        ("sf-scan", "--function", TABLE_F, "--limit", str(sys.maxsize - 1)),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["message"]
    assert built == []


def test_an_unallocatable_prime_list_exits_2(capsys, monkeypatch):
    def refuse(limit):
        raise MemoryError

    monkeypatch.setattr(kernels, "sieve", refuse)
    for argv in (
        # the empirical verdict tabulates f at every prime up to its bound
        ("sf-scan", "--function", TABLE_F, "--mode", "empirical", "--bound",
         "10000000000000", "--limit", "100"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--chebyshev-z", "1e13"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["type"] == "domain-error", argv


@pytest.mark.parametrize(
    "argv",
    [
        # the empirical verdict tabulates f at every prime up to its bound
        ("sf-scan", "--function", TABLE_F, "--mode", "empirical", "--bound",
         "10000000000000", "--limit", "100"),
        ("bounds", "--x", "1e8", "--pi-x", "5761455", "--chebyshev-z", "1e13"),
    ],
)
def test_an_unallocatable_flag_array_exits_2_cleanly(argv):
    # the address space is capped in the child alone, so the sieve's flag
    # array for 10^13 cannot be allocated; a bytearray repeat would print a
    # SystemError on stderr on its way to the MemoryError
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from localpow.cli import run; sys.exit(run(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["type"] == "domain-error"
    assert "SystemError" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_density_scan_sieves_only_its_base_primes(capsys, monkeypatch):
    # the primes p ≡ 1 (mod 6) are generated segment by segment; the only
    # full prime lists are the base primes up to sqrt(limit)
    asked = []

    def recording(sieve):
        def wrapped(limit):
            asked.append(limit)
            return sieve(limit)

        return wrapped

    def refuse(self, limit):
        raise AssertionError(f"built a prime list to {limit}")

    monkeypatch.setattr(pure, "sieve", recording(pure.sieve))
    monkeypatch.setattr(kernels, "sieve", recording(kernels.sieve))
    monkeypatch.setattr(PrimeCache, "__init__", refuse)
    rep = run_json(
        capsys, "density-scan", "--ell", "3", "--tuple", "2,3,5,7", "--limit", "1000000"
    )
    assert rep["counted"] + rep["skipped"] == 39231  # primes ≡ 1 (mod 3) below 10^6
    assert asked and max(asked) == 1000


def test_heuristic_and_empirical_sf_scans_build_no_full_prime_list(capsys, monkeypatch):
    # every prime is generated segment by segment, and the heuristic sum is
    # taken over the same segments; the only full prime lists are the base
    # primes up to sqrt(limit) and the empirical verdict's tabulated q
    asked = []

    def recording(sieve):
        def wrapped(limit):
            asked.append(limit)
            return sieve(limit)

        return wrapped

    def refuse(self, limit):
        raise AssertionError(f"built a prime list to {limit}")

    monkeypatch.setattr(pure, "sieve", recording(pure.sieve))
    monkeypatch.setattr(kernels, "sieve", recording(kernels.sieve))
    monkeypatch.setattr(PrimeCache, "__init__", refuse)
    rep = run_json(
        capsys, "heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "1000000"
    )
    assert rep["counted"] + rep["skipped"] == 78498  # primes below 10^6
    assert asked and max(asked) == 1000
    del asked[:]
    rep = run_json(
        capsys, "sf-scan", "--function", TABLE_F, "--mode", "empirical", "--bound", "2000",
        "--limit", "100000",
    )
    assert rep["counted"] + rep["skipped"] == 9592  # primes below 10^5
    assert asked and max(asked) == max(math.isqrt(100000), 2000)


def test_character_tables_are_built_once_per_chunk(capsys, monkeypatch):
    # the heuristic's quadratic-character tables are built once for the
    # chunk, not once per segment, and the report does not depend on the
    # segment length
    from localpow import powermap

    builds = []
    character_bits = powermap._character_bits

    def counting(v, m):
        builds.append(m)
        return character_bits(v, m)

    monkeypatch.setattr(powermap, "_character_bits", counting)
    argv = ("heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "10000")
    code, whole = run_cli(capsys, *argv)
    assert code == 0 and len(list(kernels.prime_segments(2, 10001, 2))) == 1
    one_segment = list(builds)
    del builds[:]
    monkeypatch.setattr(pure, "SEGMENT", 1000)
    code, segmented = run_cli(capsys, *argv)
    assert code == 0 and len(list(kernels.prime_segments(2, 10001, 2))) >= 3
    assert one_segment and builds == one_segment
    assert segmented == whole


def test_frobenius_worked_example(capsys):
    rep = run_json(capsys, "frobenius", "--p", "7", "--ell", "3", "--tuple", "2,3")
    assert rep["z_vector"] == [4, 2]
    assert rep["b_vector"] == [1, 2]


def test_frobenius_at_a_large_ell_takes_logs_by_bsgs(capsys):
    # a walk over mu_ell would take up to 10^9 steps a log
    p, ell = 44000000309, 1000000007
    with deadline(2):
        rep = run_json(capsys, "frobenius", "--p", str(p), "--ell", str(ell), "--tuple", "2,3")
    z1, z2 = rep["z_vector"]
    assert (z1, z2) == (pow(2, (p - 1) // ell, p), pow(3, (p - 1) // ell, p))
    assert rep["b_vector"][0] == 1
    assert pow(z1, rep["b_vector"][1], p) == z2


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


def test_kummer_degree_factors_a_strong_pseudoprime_to_the_twelve_bases(capsys):
    # psi_12 (OEIS A014233) = 399165290221 · 798330580441 passes Miller-Rabin
    # to the bases 2..37; as a prime it would make the entries independent
    psi12 = 399165290221 * 798330580441
    rep = run_json(
        capsys, "kummer-degree", "--tuple", f"{psi12},399165290221,798330580441", "--ell", "3"
    )
    assert (rep["degree"], rep["d"]) == (9, 2)


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


def test_density_scan_expected_is_exact_beyond_small_ell(capsys):
    rep = run_json(
        capsys, "density-scan", "--ell", "17", "--tuple", "2,3,4,9", "--limit", "20000"
    )
    assert rep["expected"] == rep["observed"] == 1.0
    assert list(rep["parameters"]) == ["ell", "tuple", "limit", "mode", "bound_config"]
    rep = run_json(
        capsys, "density-scan", "--ell", "17", "--tuple", "2,3,5,10", "--limit", "20000"
    )
    assert rep["expected"] == float(f"{273 / 4913:.12g}")
    code, out = run_cli(
        capsys, "density-scan", "--ell", "3", "--tuple", "2,3,5,7", "--limit", "100",
        "--enumeration-bound", "13",
    )
    assert (code, out) == (64, "")


def test_a_tuple_entry_is_refused_only_past_rhos_budget(capsys):
    # (10^6 + 3)(10^6 + 33): a trial division to 10^6 would leave it composite
    rep = run_json(
        capsys, "density-scan", "--ell", "3", "--tuple", "1000036000099,3,5,7", "--limit", "100"
    )
    assert rep["parameters"]["tuple"][0] == "1000036000099"
    p = sympy.nextprime(3 * 2**510)
    q = sympy.nextprime(p + 2**500)
    code, out = run_cli(
        capsys, "density-scan", "--ell", "3", "--tuple", f"2,3,5,{p * q}", "--limit", "100"
    )
    assert code == 2
    payload = json.loads(out)
    assert (payload["type"], payload["cofactor"], payload["bound"]) == (
        "composite-cofactor", p * q, 2**34 // 1024**2
    )


def test_density_scan_refuses_an_ell_past_the_class_count_limit(capsys):
    # the c4 class takes one row reduction per λ mod ell; WIDE is a prime
    # that the contract test below draws as --ell
    for ell in (pure.sieve(CLASS_RATIO_ELL_LIMIT + 100)[-1], WIDE):
        assert pure.is_prime(ell) and ell > CLASS_RATIO_ELL_LIMIT
        code, out = run_cli(
            capsys, "density-scan", "--ell", str(ell), "--tuple", "2,3,5,7", "--limit", "100"
        )
        assert code == 2, ell
        assert json.loads(out) == {
            "type": "exact-range",
            "message": f"the class is counted only up to ell = {CLASS_RATIO_ELL_LIMIT}, "
            f"got {ell}",
            "ell": ell,
            "limit": CLASS_RATIO_ELL_LIMIT,
        }


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


@pytest.mark.parametrize(
    "ell, tuple_, method",
    [
        # the pure kernels walk each p's primary pi at ell = 3; the compiled
        # per-prime kernel is the faster one there
        (
            "3",
            "2,3,5,7",
            "cubic reciprocity" if kernels.BACKEND == "pure" else "power residue characters",
        ),
        ("5", "2,3,5,7", "power residue characters"),
        # 4099 is past the cubic tables' cap
        ("3", "2,3,5,4099", "power residue characters"),
    ],
)
def test_density_progress_line_names_the_method(capsys, ell, tuple_, method):
    code = cli.run(["density-scan", "--ell", ell, "--tuple", tuple_, "--limit", "3000"])
    err = capsys.readouterr().err
    assert code == 0
    assert f"primes = 1 mod {ell} by {method} ({kernels.BACKEND} kernels)" in err


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
        ("density-scan", "--ell", "3", "--tuple=-2/9,3,14,5", "--limit", "20000"),
        ("heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "2000"),
    ],
)
def test_worker_count_never_changes_output(capsys, monkeypatch, argv):
    from localpow import _parallel

    monkeypatch.setattr(_parallel, "FAN_OUT_SPAN", 100)  # so each scan crosses the pool
    code, serial = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0
    code, parallel = run_cli(capsys, *argv, "--workers", "8")
    assert code == 0
    assert serial == parallel


POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

# Runs one sf-scan at --workers 1, then at --workers 2 with two cores and a
# fan-out span short enough to cut the scan, in a fresh interpreter, and
# prints the pool modules loaded after each and the two reports.
FAN_OUT_SCRIPT = """
import contextlib, io, json, os, sys
from localpow import _parallel, cli
_parallel.FAN_OUT_SPAN = 100

def loaded():
    return [name for name in json.loads(sys.argv[1]) if name in sys.modules]

def report(workers):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([*sys.argv[2:], "--workers", workers]) == 0
    return out.getvalue()

serial = report("1")
before = loaded()
os.cpu_count = lambda: 2
parallel = report("2")
print(json.dumps([before, loaded(), serial, parallel]))
"""


def test_the_pool_loads_only_when_a_scan_fans_out():
    argv = ("sf-scan", "--function", TABLE_F, "--limit", "3000", "--mode", "empirical")
    proc = subprocess.run(
        [sys.executable, "-c", FAN_OUT_SCRIPT, json.dumps(POOL_MODULES), *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    before, after, serial, parallel = json.loads(proc.stdout)
    assert before == []
    assert after == list(POOL_MODULES)
    assert serial == parallel
    assert json.loads(serial)["items"]


# Imports localpow.cli in a fresh interpreter, then runs one argv, and prints
# what each step loaded beyond the interpreter's own modules, with the exit
# code.  json is imported only once both sets are taken.
STARTUP_SCRIPT = """
import io, sys
bare = set(sys.modules)
from localpow import cli
imported = sorted(set(sys.modules) - bare)
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
code = cli.run(sys.argv[1:])
ran = sorted(set(sys.modules) - bare)
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
import json
print(json.dumps([imported, code, ran]))
"""

CLI_ONLY = ["localpow", "localpow.cli", "localpow.errors"]
HEAVY_STDLIB = ("fractions", "decimal", "csv", "dataclasses", "inspect")


def loaded_at_startup(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def library(modules):
    return [name for name in modules if name.startswith("localpow")]


def test_importing_the_cli_loads_no_library_module():
    imported, code, ran = loaded_at_startup("--help")
    assert library(imported) == CLI_ONLY
    assert not set(HEAVY_STDLIB) & set(imported)
    assert (code, library(ran)) == (0, CLI_ONLY)


def test_a_usage_error_loads_no_library_module():
    _, code, ran = loaded_at_startup("sf-scan", "--function", TABLE_F, "--limit", "x")
    assert (code, library(ran)) == (64, CLI_ONLY)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ("bounds", "--x", "1e8", "--pi-x", "5761455"),
            ("localpow.powermap", "localpow.chebotarev", "localpow.lattice"),
        ),
        (
            ("sf-scan", "--function", TABLE_F, "--limit", "1000"),
            ("localpow.chebotarev", "localpow.lattice"),
        ),
        (
            ("tf-scan", "--function", TABLE_F, "--limit", "1000"),
            ("localpow.chebotarev", "localpow.lattice"),
        ),
        (("density-scan", "--ell", "3", "--tuple", "2,3,5,7", "--limit", "1000"), ()),
        (("heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "1000"), ()),
    ],
)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, absent):
    _, code, ran = loaded_at_startup(*argv)
    assert code == 0
    assert set(CLI_ONLY) < set(ran)
    assert not set(absent) & set(ran)
    # the library's result types are namedtuples, not dataclasses
    assert not {"dataclasses", "inspect"} & set(ran)


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


# the environment of a CLI run whose stdout is block-buffered, as it is by
# default when stdout is a pipe or a file
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "localpow.cli", *argv],
        capture_output=True,
        text=True,
        env=BUFFERED,
    )


def test_exit_codes_through_real_process():
    # each argv runs through the in-process entry and through main, which
    # ends the process without teardown: both give the same code and stdout
    def invoke(*argv):
        by_run = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from localpow.cli import run; sys.exit(run(sys.argv[1:]))",
                *argv,
            ],
            capture_output=True,
            text=True,
        )
        by_main = run_module(*argv)
        assert (by_main.returncode, by_main.stdout) == (by_run.returncode, by_run.stdout)
        return by_run

    proc = invoke("disc", "--cyclotomic", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": 125}
    assert proc.stderr == ""
    proc = invoke("disc", "--cyclotomic", "100000")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["type"] == "exact-range"
    proc = invoke("bogus")
    assert proc.returncode == 64
    proc = invoke("sf-scan", "--function", "{bad json", "--limit", "10")
    assert proc.returncode == 65
    assert json.loads(proc.stdout)["type"]


@pytest.mark.parametrize(
    "argv",
    [
        # a short report stays buffered until the flush at exit
        ("frobenius", "--p", "7", "--ell", "3", "--tuple", "2,3"),
        # about 14,000 digits: print itself meets the closed pipe
        ("disc", "--cyclotomic", "10000"),
        # a progress line goes to stderr before the report
        ("sf-scan", "--function", json.dumps({"kind": "power", "exponent": 1}), "--limit",
         "10"),
    ],
)
def test_a_closed_stdout_exits_0_without_a_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "localpow.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=BUFFERED,
    )
    # the reader is gone before the report is written, as with `| head -c 0`
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0, stderr
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
    # with stderr's reader gone as well, the run still ends with 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "localpow.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=BUFFERED,
    )
    proc.stdout.close()
    proc.stderr.close()
    assert proc.wait() == 0
    # with stderr closed from the start (`2>&-`), the report still arrives whole
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "localpow.cli", *argv],
        capture_output=True,
        text=True,
        env=BUFFERED,
    )
    assert (proc.returncode, proc.stdout) == (0, run_module(*argv).stdout)


def test_a_usage_error_keeps_its_exit_code_with_stderr_closed():
    # the message is lost, but not on stdout, and the code is still 64
    argv = (sys.executable, "-m", "localpow.cli", "bogus")
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", *argv], capture_output=True, env=BUFFERED
    )
    assert (proc.returncode, proc.stdout) == (64, b"")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=BUFFERED)
    proc.stderr.close()
    assert (proc.stdout.read(), proc.wait()) == (b"", 64)
    proc.stdout.close()


def test_a_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path, capsys):
    # f(n) = n is a local power map at every prime: the report lists all
    # 9,592 primes below 10^5, about 440 KB, and is still being written when
    # the pipe first fills; the process ends only after the last byte
    argv = ("sf-scan", "--function", json.dumps({"kind": "power", "exponent": 1}),
            "--limit", "100000")
    code, out = run_cli(capsys, *argv, "--csv", str(tmp_path / "in-process.csv"))
    proc = run_module(*argv, "--csv", str(tmp_path / "module.csv"))
    assert (code, proc.returncode) == (0, 0), proc.stderr
    assert len(out) > 2**16
    assert proc.stdout == out
    csv_text = (tmp_path / "module.csv").read_text()
    assert csv_text == (tmp_path / "in-process.csv").read_text()
    assert csv_text.count("\n") == 1 + 9592


def test_main_ends_the_process_without_teardown():
    # an exit handler would run in the interpreter's teardown, which main skips
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import atexit, sys; atexit.register(print, 'teardown', file=sys.stderr); "
            "from localpow.cli import main; main()",
            "disc",
            "--cyclotomic",
            "5",
        ],
        capture_output=True,
        text=True,
        env=BUFFERED,
    )
    assert (proc.returncode, json.loads(proc.stdout)) == (0, {"value": 125})
    assert proc.stderr == ""


def test_a_fanned_out_run_leaves_no_process_behind():
    from localpow import _parallel

    # two spans and more: on two or more cores the scan runs in two workers
    assert 1000000 // _parallel.FAN_OUT_SPAN >= 2
    proc = subprocess.Popen(
        [sys.executable, "-m", "localpow.cli", "density-scan", "--ell", "3",
         "--tuple", "2,3,5,7", "--limit", "1000000", "--workers", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=120) == 0
    # the run led its own process group; no worker of it is left in it
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


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
        "--ell": _ints("3", "5", "4", "17"),
        "--tuple": _entries_text("2", "3", "5", "7", "-2", "3/4"),
        "--limit": _LIMIT,
        "--mode": st.sampled_from(("c4", "split", "bogus")),
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
