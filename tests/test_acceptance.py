"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Counts and residues are exact assertions.  The stated wall-clock targets
refer to a 4-core workstation; the measured time is printed with each
line.  Criterion 4 (the T(6,9) job) takes hours and is opt-in via
KEMPETORUS_FULL=1.

Run with `pytest -s tests/test_acceptance.py` to see the lines, or
`kempetorus verify` for the same checks through the CLI.
"""

import os

import pytest

from kempetorus import verify


def report(rec, target_s):
    line = (f"{'PASS' if rec['ok'] else 'FAIL'} [{rec['id']}] {rec['name']} "
            f"({rec['elapsed']:.1f}s, target {target_s}) {rec['details']}")
    print(line)
    assert rec["ok"], line


THREADS = int(os.environ.get("KEMPETORUS_THREADS", "2"))


def test_criterion_1_t66_enumeration():
    report(verify.criterion_1(threads=THREADS), "60s")


def test_criterion_2_t66_classes():
    report(verify.criterion_2(threads=THREADS), "10min")


def test_criterion_3_t33():
    report(verify.criterion_3(), "1s")


@pytest.mark.full
def test_criterion_4_t69_full():
    report(verify.criterion_4(threads=THREADS), "hours")


def test_criterion_5_constructions():
    report(verify.criterion_5(), "5s")


def test_criterion_6_mod12_invariance():
    report(verify.criterion_6(), "2min")


def test_criterion_7_degree_well_defined():
    report(verify.criterion_7(), "1min")


def test_criterion_8_ns_minimal_oracle():
    report(verify.criterion_8(), "2min")


def test_criterion_9_gluing_arithmetic():
    report(verify.criterion_9(), "1min")


def test_criterion_10_width3_law():
    report(verify.criterion_10(), "30s")


def test_criterion_11_small_oracle_equivalence():
    report(verify.criterion_11(), "30s")
