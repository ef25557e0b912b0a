"""Acceptance suite: every check of ``crnoma-aoi validate --level full``.

The criteria, with their tolerances, scales and grids, are defined once,
in :func:`crnoma_aoi.validation.run_validation`.  This module runs it once, at
full scale, and each case of ``test_criterion``, one per criterion, fails on a
failed check of that criterion.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per check.
"""

import pytest

from crnoma_aoi.validation import print_report, run_validation

SEED = 2024
CRITERIA = {
    "1_tdma_gaw_closed_form": ("tdma_gaw_closed_form", "tdma_gaw_simulation"),
    "2_crnoma_gaw_closed_form": ("crnoma_gaw_closed_form", "crnoma_gaw_simulation",
                                 "crnoma_gaw_reduction"),
    "3_gaw_high_snr": ("gaw_high_snr",),
    "4_gar_per_user": ("gar_closed_forms", "gar_simulation_u5"),
    "5_gar_high_snr_gaps": ("gar_high_snr_gap", "gar_user_m_unimproved",
                            "gar_fairness"),
    "6_probability_oracle": ("oracle_partition_sums", "oracle_probabilities"),
    "7_renewal_cross_check": ("renewal_cross_check",),
    "8_series_identities": ("series_identities",),
    "9_figure_shapes": ("figure_shapes",),
    "10_csv_determinism": ("csv_determinism",),
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
    # each check lies in exactly one criterion, whose test_criterion case
    # fails on it
    assert sorted(checks) == sorted(n for names in CRITERIA.values() for n in names)


@pytest.mark.parametrize("names", CRITERIA.values(), ids=CRITERIA)
def test_criterion(checks, names):
    _require(checks, names)
