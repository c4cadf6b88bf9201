"""Write tests/golden/reports.json: the exit code and stdout of each argv below.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_corpus.py

Each argv runs in this process through `cli.run` at `--workers 1`.
`tests/test_golden.py` replays the corpus and asks for the same bytes, so
regenerate it only to record a report change on purpose, and name each
entry that changed, with its old and new values, where the change is
described.  Entries marked `pool` are also replayed at `--workers 2`.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from localpow import cli

TABLE_F = json.dumps(
    {
        "kind": "table",
        "sign_value": 1,
        "default_exponent": 1,
        "overrides": {"2": "5", "3": "7", "5": "11"},
    }
)
OVERRIDE_3 = json.dumps({"kind": "table", "overrides": {"3": "5"}})
HALF_3 = json.dumps({"kind": "table", "overrides": {"3": "1/2"}})
WIDE = 2**64 + 13
WIDE_POWER = json.dumps({"kind": "power", "exponent": WIDE})
BIG_POWER = json.dumps({"kind": "power", "exponent": 32768})
CUBE_F = json.dumps({"kind": "power", "exponent": 3})
# the function specs that perfbench/workloads.py draws at seed 1
MEMBERSHIP_F = json.dumps(
    {
        "kind": "table",
        "sign_value": -1,
        "default_exponent": 2,
        "overrides": {"2": "34", "7": "45", "19": "72"},
    }
)
# membership-1e6's function at seeds 2 to 5 (seed 1 is MEMBERSHIP_F)
MEMBERSHIP_SEEDS = [
    json.dumps({"kind": "table", "sign_value": s, "default_exponent": d, "overrides": o})
    for s, d, o in (
        (-1, 1, {"3": "13", "7": "48", "23": "60"}),
        (1, 2, {"2": "54", "3": "65", "5": "18"}),
        (-1, 1, {"7": "6", "13": "65", "19": "17"}),
        (-1, 1, {"13": "30", "17": "43", "19": "46"}),
    )
]
HEURISTIC_F = json.dumps(
    {
        "kind": "table",
        "sign_value": -1,
        "default_exponent": 2,
        "overrides": {"2": "53", "17": "89", "29": "67"},
    }
)


# a strong pseudoprime to the bases 2..37 (psi_12, OEIS A014233)
PSI12 = 399165290221 * 798330580441


def _tf(f, limit, *rest):
    return ("tf-scan", "--function", f, "--limit", str(limit), *rest)


def _heuristic(f, witnesses, limit):
    return ("heuristic", "--function", f, "--witnesses", witnesses, "--limit", str(limit))


def _density(tuple_, limit, *rest):
    return ("density-scan", "--ell", "3", f"--tuple={tuple_}", "--limit", str(limit), *rest)


# (argv, pool): pool entries are replayed at --workers 2 as well
ARGVS = [
    # heuristic: every argv of tests/test_cli.py and the benchmark's
    (_heuristic(TABLE_F, "a,b,c", 100), False),
    (_heuristic(TABLE_F, "2,3", 1000), False),
    (_heuristic(TABLE_F, "2,3", 10**7), False),
    (_heuristic(WIDE_POWER, "2,3,5", 100), False),
    (_heuristic(TABLE_F, "2,3,5", 1000), False),
    (_heuristic(TABLE_F, "2,3,5", 2000), True),
    (_heuristic(TABLE_F, "2,3,5", 5000), False),
    (_heuristic(TABLE_F, "2,3,5", 10000), False),
    (_heuristic(TABLE_F, "2,3,5", 10**6), True),
    (_heuristic(HEURISTIC_F, "2,17,29", 10**6), False),
    (_heuristic(TABLE_F, "2,3,5", 2), False),
    (_heuristic(TABLE_F, "2,3,5", 3), False),
    # the least limit >= 100 whose expected moves in its 12th digit when
    # the terms are summed in ascending order, not rounded once
    (_heuristic(TABLE_F, "2,3,5", 9391), False),
    # density-scan at ell = 3: every argv of tests/test_cli.py and the benchmark's
    (_density("abc,2,3,5", 100), False),
    (_density("2,3,5,7", sys.maxsize), False),
    (_density("2,3", 10**7), False),
    (_density("2,3,5,7", 100, "--enumeration-bound", "13"), False),
    (_density("2,3,5,7", 100), False),
    (_density("2,3,5,7", 1000), False),
    (_density("2,3,5,7", 3000), False),
    (_density("2,3,5,7", 20000), False),
    (_density("2,3,5,7", 10**6), False),
    (_density("-2/9,3,14,5", 20000), True),
    (_density("42,9,38,39", 10**7, "--mode", "c4"), True),
    (_density("7,29", 10**6, "--mode", "split"), True),
    (_density("2,5", 10**6, "--mode", "split"), False),
    # either side of CUBIC_TABLE_CAP = 4096: a prime factor of 4093 or 4099,
    # and a decision table of 3^7 or 3^8 keys
    (_density("2,3,5,4093", 3000), False),
    (_density("2,3,5,4099", 3000), False),
    (_density("1000036000099,3,5,7", 100), False),
    (_density("210,46189,765049,41", 200000), False),
    (_density("210,46189,765049,4391633", 200000), False),
    # the sieve's callers
    (("bounds", "--x", "1e8", "--mertens", "5,1000000", "--chebyshev-z", "1000000"), False),
    (("bounds", "--x", "1e8", "--pi-x", "5761455", "--mertens", "5,1e6"), False),
    (("bounds", "--x", "1e8", "--pi-x", "5761455"), False),
    (_tf(TABLE_F, 500), True),
    (_tf(MEMBERSHIP_F, 100000), False),
    (_tf(OVERRIDE_3, 100, "--shift-bound", "0"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", "1000", "--mode", "empirical",
      "--bound", "50"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", "100000", "--mode", "empirical",
      "--bound", "2000"), True),
    (("sf-scan", "--function", MEMBERSHIP_F, "--limit", "100000", "--mode", "empirical"),
     False),
    (("sf-scan", "--function", MEMBERSHIP_F, "--limit", "1000000"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", "2000"), False),
    # tf-scan: every argv of tests/test_cli.py, refusals included, and the
    # benchmark's at seeds 2 to 5
    (_tf(TABLE_F, -5), False),
    (_tf(OVERRIDE_3, 100, "--shift-bound", "-1"), False),
    (_tf(TABLE_F, 100, "--shift-bound", str(WIDE)), False),
    (_tf(TABLE_F, 100, "--shift-bound", str(10**12)), False),
    (_tf(TABLE_F, 2 * 10**7), False),
    (_tf(TABLE_F, 10**7, "--shift-bound", str(2 * 10**7)), False),
    (_tf(WIDE_POWER, 100), False),
    (_tf(BIG_POWER, 100000), False),
    (_tf(HALF_3, 100), False),
    (_tf(TABLE_F, 1000), False),
    (_tf(TABLE_F, 3000), False),
    *((_tf(spec, 100000), i == 1) for i, spec in enumerate(MEMBERSHIP_SEEDS)),
    # the other subcommands, the rational domain and each kind of exit
    (("sf-scan", "--function", TABLE_F, "--limit", "2000", "--domain", "rational"), False),
    (("sf-scan", "--function", CUBE_F, "--limit", "3000", "--mode", "empirical",
      "--domain", "rational"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", "3000", "--mode", "empirical",
      "--bound", "60", "--domain", "rational"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", str(10**12 + 1)), False),
    (("witness", "--function", TABLE_F, "--count", "3"), False),
    (("witness", "--function", TABLE_F, "--count", "9", "--search-limit", "20"), False),
    (("construct", "--set", "3,5,7", "--exponents", "1,2,3"), False),
    (("relations", "--tuple", "12,18"), False),
    (("relations", "--tuple=-2/9,3,14,5"), False),
    (("kummer-degree", "--tuple", "12,18", "--ell", "3"), False),
    (("kummer-degree", "--tuple", "12,18", "--ell", "5"), False),
    (("kummer-degree", "--tuple", f"{PSI12},399165290221,798330580441", "--ell", "3"), False),
    (("frobenius", "--p", "7", "--ell", "3", "--tuple", "2,3"), False),
    (("frobenius", "--p", "1000003", "--ell", "3", "--tuple", "2,3,5,7"), False),
    (("frobenius", "--p", "7", "--ell", "3", "--tuple", "14"), False),
    (("disc", "--cyclotomic", "12"), False),
    (("disc", "--cyclotomic", "100000"), False),
    (("no-such-command",), False),
    (("sf-scan", "--function", '{"kind": "bogus"}', "--limit", "100"), False),
]


def replay(argv) -> tuple[int, str]:
    """(exit code, stdout) of one in-process run of the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue()


def main() -> None:
    entries = []
    for argv, pool in ARGVS:
        code, stdout = replay((*argv, "--workers", "1"))
        entries.append({"argv": list(argv), "pool": pool, "code": code, "stdout": stdout})
    path = Path(__file__).with_name("reports.json")
    path.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} entries to {path}")


if __name__ == "__main__":
    main()
