"""Acceptance suite: one test per entry of `verify.CRITERIA`, printing its
PASS/FAIL line.

Counts and residues are exact assertions; the measured time is printed
with each line.  Criterion 4 (the T(6,9) Kempe classes) takes hours and
is opt-in via KEMPETORUS_FULL=1.

Run with `pytest -s tests/test_acceptance.py` to see the lines, or
`kempetorus verify` for the same checks through the CLI.
"""

import os

import pytest

from kempetorus import verify

THREADS = int(os.environ.get("KEMPETORUS_THREADS", "2"))


@pytest.mark.parametrize("entry", [
    pytest.param(entry, id=entry[0],
                 marks=[pytest.mark.full] if entry[2] == "full" else [])
    for entry in verify.CRITERIA])
def test_criterion(entry):
    rec = verify.run_criterion(entry, THREADS)
    print(verify.line(rec))
    assert rec["ok"], verify.line(rec)
