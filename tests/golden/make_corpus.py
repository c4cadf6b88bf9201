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
WIDE_POWER = json.dumps({"kind": "power", "exponent": 2**64 + 13})
# the function specs that perfbench/workloads.py draws at seed 1
MEMBERSHIP_F = json.dumps(
    {
        "kind": "table",
        "sign_value": -1,
        "default_exponent": 2,
        "overrides": {"2": "34", "7": "45", "19": "72"},
    }
)
HEURISTIC_F = json.dumps(
    {
        "kind": "table",
        "sign_value": -1,
        "default_exponent": 2,
        "overrides": {"2": "53", "17": "89", "29": "67"},
    }
)


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
    (("tf-scan", "--function", TABLE_F, "--limit", "500"), False),
    (("tf-scan", "--function", MEMBERSHIP_F, "--limit", "100000"), False),
    (("tf-scan", "--function", OVERRIDE_3, "--limit", "100", "--shift-bound", "0"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", "1000", "--mode", "empirical",
      "--bound", "50"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", "100000", "--mode", "empirical",
      "--bound", "2000"), True),
    (("sf-scan", "--function", MEMBERSHIP_F, "--limit", "100000", "--mode", "empirical"),
     False),
    (("sf-scan", "--function", MEMBERSHIP_F, "--limit", "1000000"), False),
    (("sf-scan", "--function", TABLE_F, "--limit", "2000"), False),
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
