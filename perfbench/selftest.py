"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py

The smoke runs use each workload's tiny-horizon command (``smoke_argv``)
and check that every metric is emitted with its unit; the grading tests
check that corrupted rows and FAIL lines are counted as failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench      # noqa: E402
import tracing           # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_names_the_emitted_metrics():
    assert _units(SPEC["end_to_end"]) == bench.END_TO_END_UNITS
    assert _units(SPEC["per_layer"]) == tracing.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace):
    workload = bench.WORKLOADS[name]
    result, record = bench.measure(workload, workload.default_seed, 0.0, trace,
                                   smoke=True)
    json.dumps(result, allow_nan=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == workload.expected_ops
    units = tracing.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    extra = record["extra"]
    expected_extra = set(bench.EXTRA_UNITS)
    if workload.kind != "sweep":
        expected_extra -= {"user_frames_per_s", "rel_halfwidth_median", "max_abs_z"}
    assert set(extra) == expected_extra
    for key in ("git_commit", "src_sha256", "python", "numpy", "nproc", "cpu_model"):
        assert key in record["environment"]
    assert record["argv"] == workload.command(workload.default_seed, smoke=True)
    assert not bench.RUN_AREA.exists() or not any(bench.RUN_AREA.iterdir())
    if trace:
        layers = {k: m["value"] for k, m in result["metrics"].items()}
        if name == "gar-m32":
            # 6 grid points of M=32: the wrappers sit at experiments.run and at
            # the simulator's own bindings of time_average_age and the predicates
            assert layers["experiments.sim_points"] == 6
            assert layers["simulator.simulate_events_calls"] == 6
            assert layers["simulator.time_average_age_calls"] == 6 * 21 * 32
            assert layers["experiments.rows"] == 198
            assert layers["model.classify_calls"] > 0
            assert layers["simulator.event_bytes_computed"] == 24 * layers["simulator.events"]
        if name == "validate-full":
            assert layers["validation.checks"] == 17
            assert layers["oracle.trials"] > 0
            assert layers["simulator.event_log_bytes"] > 0


CSV = """preset,scheme,gen_model,M,T,R,snr_db,user_id,aoi_analytic,aoi_sim,sim_ci_halfwidth,frames,seed
custom,TDMA,GAR,2,0.5,1,0,overall,10,10.1,0.3,2000,1
custom,TDMA,GAR,2,0.5,1,0,1,10,9.9,0.3,2000,1
custom,TDMA,GAR,2,0.5,1,0,2,10,10.2,0.3,2000,1
"""


def _replace_row(text, index, row):
    lines = text.splitlines(keepends=True)
    lines[index] = row + "\n"
    return "".join(lines)


def test_grade_sweep_passes_clean_csv():
    assert bench.grade_sweep(CSV, 3) == (3, 0, True)


def test_grade_sweep_counts_corrupt_rows():
    nan_row = _replace_row(CSV, 1, "custom,TDMA,GAR,2,0.5,1,0,overall,10,nan,0.3,2000,1")
    assert bench.grade_sweep(nan_row, 3) == (3, 1, False)
    # 0.6 away with a 3-sigma half-width of 0.3 is 6 sigma
    far_row = _replace_row(CSV, 2, "custom,TDMA,GAR,2,0.5,1,0,1,10,10.6,0.3,2000,1")
    assert bench.grade_sweep(far_row, 3) == (3, 1, True)
    # 0.45 away is 4.5 sigma: inside the gate
    near_row = _replace_row(CSV, 2, "custom,TDMA,GAR,2,0.5,1,0,1,10,10.45,0.3,2000,1")
    assert bench.grade_sweep(near_row, 3) == (3, 0, True)
    missing = "".join(CSV.splitlines(keepends=True)[:-1])
    assert bench.grade_sweep(missing, 3) == (3, 1, False)
    assert bench.grade_sweep(CSV, 3, exit_code=1) == (3, 0, False)


def _invocations(*outputs, exit_code=0):
    return [{"output": out, "exit_code": exit_code} for out in outputs]


SWEEP = bench.Workload("tiny", "sweep", (), (), 1, 3)


def test_grade_run_does_not_depend_on_the_number_of_invocations():
    far_row = _replace_row(CSV, 2, "custom,TDMA,GAR,2,0.5,1,0,1,10,10.6,0.3,2000,1")
    for n in (1, 2, 6):
        assert bench.grade_run(_invocations(*[far_row] * n), SWEEP) == (3, 1, True)


def test_grade_run_fails_every_row_of_a_nondeterministic_run():
    other = CSV.replace("10.2", "10.21")
    assert bench.grade_run(_invocations(CSV, CSV, other), SWEEP) == (3, 3, False)
    runs = _invocations(CSV, CSV)
    runs[1]["exit_code"] = 1
    assert bench.grade_run(runs, SWEEP) == (3, 3, False)


VALIDATE_OUT = """[PASS] a: ok
[FAIL] b: worst |err|/3sigma=1.11
[PASS] c: ok
2/3 checks passed
"""


def test_grade_validate_counts_fail_lines():
    assert bench.grade_validate(VALIDATE_OUT, 3, 1) == (3, 1, True)
    # the exit code must agree with the verdicts
    assert bench.grade_validate(VALIDATE_OUT, 3, 0)[2] is False
    clean = VALIDATE_OUT.replace("[FAIL]", "[PASS]")
    assert bench.grade_validate(clean, 3, 0) == (3, 0, True)
    # a missing check fails and makes the output incomplete
    assert bench.grade_validate(VALIDATE_OUT, 4, 1) == (4, 2, False)
    validate = bench.Workload("tiny", "validate", (), (), 7, 3)
    assert bench.grade_run(_invocations(VALIDATE_OUT, VALIDATE_OUT, exit_code=1),
                           validate) == (3, 1, True)
    assert bench.grade_run(_invocations(VALIDATE_OUT, clean, exit_code=1),
                           validate) == (3, 3, False)


def test_sweep_stats():
    stats = bench.sweep_stats(CSV)
    assert stats["user_frames"] == 2 * 2000
    assert stats["rel_halfwidth_median"] == pytest.approx(0.3 / 10.1)
    assert stats["max_abs_z"] == pytest.approx(0.2 / 0.1)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig4b", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
