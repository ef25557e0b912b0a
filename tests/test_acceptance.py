"""Acceptance suite: every check of ``crnoma-aoi validate --level full``.

The criteria, with their tolerances, seed offsets and grids, are defined once,
in :func:`crnoma_aoi.validation.run_validation`.  This module runs it once, at
full scale, and each criterion test fails on a failed check of that criterion.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per check.
"""

import pytest

from crnoma_aoi.validation import print_report, run_validation

SEED = 2024
CRITERIA = {
    1: ("tdma_gaw_closed_form", "tdma_gaw_simulation"),
    2: ("crnoma_gaw_closed_form", "crnoma_gaw_simulation", "crnoma_gaw_reduction"),
    3: ("gaw_high_snr",),
    4: ("gar_closed_forms", "gar_simulation_u5"),
    5: ("gar_high_snr_gap", "gar_user_m_unimproved", "gar_fairness"),
    6: ("oracle_partition_sums", "oracle_probabilities"),
    7: ("renewal_cross_check",),
    8: ("series_identities",),
    9: ("figure_shapes",),
    10: ("csv_determinism",),
}


@pytest.fixture(scope="module")
def checks():
    result = run_validation("full", SEED)
    print()
    print_report(result)
    return {c.name: c for c in result}


def _require(checks, names):
    failed = [f"{n}: {checks[n].detail}" for n in names if not checks[n].passed]
    assert not failed, "failed checks:\n" + "\n".join(failed)


def test_every_check_passes(checks):
    assert sorted(checks) == sorted(n for names in CRITERIA.values() for n in names)
    _require(checks, checks)


def test_criterion_1_tdma_gaw_closed_form(checks):
    _require(checks, CRITERIA[1])


def test_criterion_2_crnoma_gaw_closed_form(checks):
    _require(checks, CRITERIA[2])


def test_criterion_3_gaw_high_snr(checks):
    _require(checks, CRITERIA[3])


def test_criterion_4_gar_per_user(checks):
    _require(checks, CRITERIA[4])


def test_criterion_5_gar_high_snr_gaps(checks):
    _require(checks, CRITERIA[5])


def test_criterion_6_probability_oracle(checks):
    _require(checks, CRITERIA[6])


def test_criterion_7_renewal_cross_check(checks):
    _require(checks, CRITERIA[7])


def test_criterion_8_series_identities(checks):
    _require(checks, CRITERIA[8])


def test_criterion_9_figure_shapes(checks):
    _require(checks, CRITERIA[9])


def test_criterion_10_csv_determinism(checks):
    _require(checks, CRITERIA[10])
