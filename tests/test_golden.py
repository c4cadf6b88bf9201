"""The CLI reports recorded in tests/golden/reports.json, replayed byte for byte.

Each entry holds an argv with its exit code and stdout, written by
`tests/golden/make_corpus.py`.  Every entry is replayed in-process at
`--workers 1`; those marked `pool` also at `--workers 2`, with a fan-out
span short enough that the scan is cut into chunks on a machine with two
cores.  A report that moves by one printed digit fails here.
"""

import json
from pathlib import Path

import pytest

from golden.make_corpus import replay
from localpow import _parallel

CORPUS = json.loads((Path(__file__).parent / "golden" / "reports.json").read_text())


def _ids(entries):
    return [f"{i:02d}-{entry['argv'][0]}" for i, entry in entries]


@pytest.mark.parametrize("entry", CORPUS, ids=_ids(enumerate(CORPUS)))
def test_reports_match_the_corpus(entry):
    assert replay((*entry["argv"], "--workers", "1")) == (entry["code"], entry["stdout"])


POOLED = [(i, entry) for i, entry in enumerate(CORPUS) if entry["pool"]]


@pytest.mark.parametrize("entry", [entry for _, entry in POOLED], ids=_ids(POOLED))
def test_pooled_reports_match_the_corpus(entry, monkeypatch):
    monkeypatch.setattr(_parallel, "FAN_OUT_SPAN", 100)
    assert replay((*entry["argv"], "--workers", "2")) == (entry["code"], entry["stdout"])
