"""End-to-end and per-layer benchmark of crnoma-aoi.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--trace 0|1]

Each invocation of the program runs in a fresh single-threaded interpreter
(child.py) that calls ``crnoma_aoi.cli.main(argv)`` on the package under
``src/`` of the checkout this file sits in.  One client runs one invocation at
a time (a closed loop).  With ``--trace 0`` a run repeats the workload until
``--seconds`` have passed and at least MIN_INVOCATIONS have run, spawning
SETUP_PROBES set-up-only children before each invocation, and reports
medians of the end-to-end metrics.  With ``--trace 1`` it runs the workload
plain, with the wrappers of tracing.py installed, and plain again, and
reports the per-layer metrics of the traced invocation.

The first invocation's output is graded once, and every later one must
repeat it (see grade_run).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  The line before it is a
JSON record of the environment, the argv and the metrics that are not
gated.  Exits 2 without a result when the checkout holds no program, and 1
when an invocation crashes or overruns.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_AREA = ROOT / ".bench_run"

SETUP_PROBES = 5        # set-up-only children before each invocation
MIN_INVOCATIONS = 2      # the second one checks that output is deterministic
TIME_LIMIT_S = 170.0     # a run must end within 180 s
Z_GATE = 5.0             # rows beyond 5 sigma fail; sim_ci_halfwidth is 3 sigma

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# reported in the record line and by --workload all, not gated
EXTRA_UNITS = {
    "user_frames_per_s": "user-frames/s",
    "rel_halfwidth_median": "1",
    "max_abs_z": "sigma",
    "tmp_files_left": "count",
    "ops": "count",
    "ops_failed": "count",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "sweep" (CSV rows) or "validate" (check lines)
    argv: tuple[str, ...]
    smoke_argv: tuple[str, ...]  # a tiny horizon of the same command, for tests
    default_seed: int
    expected_ops: int           # CSV rows, or validation checks

    def command(self, seed: int, smoke: bool = False) -> list[str]:
        return [*(self.smoke_argv if smoke else self.argv), "--seed", str(seed)]


_GAR_M32 = ("run", "--schemes", "TDMA,CR-NOMA", "--gen-model", "GAR", "--M", "32",
            "--T", "0.5", "--R", "1", "--snr-db", "0,10,20")

# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("fig4b", "sweep", ("run", "--preset", "fig4b"),
             ("run", "--preset", "fig4b", "--frames", "2000"), 1, 54),
    Workload("gar-m32", "sweep", _GAR_M32, (*_GAR_M32, "--frames", "2000"), 1, 198),
    Workload("validate-full", "validate", ("validate", "--level", "full"),
             ("validate", "--level", "fast"), 7, 17),
)}


class BenchError(RuntimeError):
    """An invocation crashed, overran, or the checkout holds no program."""


# ---------------------------------------------------------------- grading

def _finite(text: str | None) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_rows(csv_text: str) -> list[dict[str, str]]:
    lines = csv_text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def grade_sweep(csv_text: str, expected_rows: int,
                exit_code: int = 0) -> tuple[int, int, bool]:
    """(attempted, failed, correct) for one sweep invocation.

    One operation is one CSV row.  A row fails if it is missing, if its
    simulated or analytic AoI or half-width is not finite, or if
    |aoi_sim - aoi_analytic| exceeds Z_GATE sigma.  A row beyond Z_GATE
    sigma counts in ``failed`` but leaves ``correct`` true: a Monte Carlo
    estimate lands there at some small rate.  Every other failure, and a
    non-zero exit code, makes ``correct`` false.
    """
    rows = csv_rows(csv_text)
    broken = beyond_gate = 0
    for row in rows:
        sim, ana, hw = (_finite(row.get(k)) for k in
                        ("aoi_sim", "aoi_analytic", "sim_ci_halfwidth"))
        if None in (sim, ana, hw):
            broken += 1
        elif abs(sim - ana) > Z_GATE * hw / 3.0:
            beyond_gate += 1
    attempted = max(expected_rows, len(rows))
    broken += attempted - len(rows)
    return attempted, broken + beyond_gate, exit_code == 0 and broken == 0


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ")


def grade_validate(stdout: str, expected_checks: int,
                   exit_code: int) -> tuple[int, int, bool]:
    """(attempted, failed, correct) for one ``validate`` invocation.

    One operation is one check; each ``[FAIL]`` line and each missing check
    fails.  The program's own FAIL verdicts count in ``failed`` but leave
    ``correct`` true: ``correct`` is false only when the output is
    incomplete or the exit code disagrees with the verdicts.
    """
    verdicts = [m.group(1) for m in map(_CHECK_LINE.match, stdout.splitlines()) if m]
    fails = verdicts.count("FAIL")
    attempted = max(expected_checks, len(verdicts))
    failed = fails + attempted - len(verdicts)
    correct = len(verdicts) >= expected_checks and exit_code == (1 if fails else 0)
    return attempted, failed, correct


def grade_run(invocations: list[dict], workload: Workload) -> tuple[int, int, bool]:
    """(attempted, failed, correct) for a whole run.

    The first invocation is graded once.  Every later one, at the same seed,
    must repeat its output byte for byte (sha256) and its exit code; if one
    does not, every operation fails and ``correct`` is false.  So the counts
    do not depend on how many invocations fit in the run.
    """
    first = invocations[0]
    grade = grade_sweep if workload.kind == "sweep" else grade_validate
    attempted, failed, correct = grade(first["output"], workload.expected_ops,
                                       first["exit_code"])
    digest = _digest(first["output"])
    if any(_digest(inv["output"]) != digest or inv["exit_code"] != first["exit_code"]
           for inv in invocations[1:]):
        return attempted, attempted, False
    return attempted, failed, correct


def sweep_stats(csv_text: str) -> dict[str, float]:
    """User-frames simulated, median relative half-width and largest |z|."""
    rows = csv_rows(csv_text)
    user_frames = sum(int(r["M"]) * int(r["frames"]) for r in rows
                      if r.get("user_id") == "overall" and r.get("aoi_sim"))
    rel, z = [], [0.0]
    for r in rows:
        sim, ana, hw = (_finite(r.get(k)) for k in
                        ("aoi_sim", "aoi_analytic", "sim_ci_halfwidth"))
        if None in (sim, ana, hw) or sim == 0.0 or hw == 0.0:
            continue
        rel.append(hw / sim)
        z.append(abs(sim - ana) / (hw / 3.0))
    return {"user_frames": user_frames,
            "rel_halfwidth_median": statistics.median(rel) if rel else None,
            "max_abs_z": max(z)}


# ---------------------------------------------------------------- children

def _spawn(area: Path, tag: str, argv: list[str], mode: str, deadline: float,
           sweep: bool) -> dict:
    """Run one child in a private directory and TMPDIR; return its result
    plus its output, and remove everything it left behind."""
    work = area / tag
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    csv_path = work / "out.csv" if sweep and mode != "setup" else None
    if csv_path is not None:
        argv = [*argv, "--out", str(csv_path)]
    result_path = work / "result.json"
    job_path = work / "job.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp), TMP=str(tmp),
               TEMP=str(tmp), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    job = {"argv": argv, "mode": mode, "src": str(SRC), "result": str(result_path)}
    job_path.write_text(json.dumps(job))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"{tag}: no time left before the {TIME_LIMIT_S:.0f} s limit")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                              cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag}: {' '.join(argv)} overran the time limit") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{tag}: child exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    res = json.loads(result_path.read_text())
    res["tmp_files_left"] = sum(1 for _ in tmp.rglob("*"))
    if csv_path is None:
        res["output"] = proc.stdout
    else:
        res["output"] = csv_path.read_text() if csv_path.exists() else ""
    shutil.rmtree(work)
    return res


def _quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(child: dict) -> dict:
    return {"git_commit": _git_commit(), "src_sha256": _src_digest(),
            "python": child["python"], "numpy": child["numpy"],
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "platform": platform.platform()}


# ---------------------------------------------------------------- one run

def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result, record) as printed on the last two
    lines of stdout."""
    if not (SRC / "crnoma_aoi" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'crnoma_aoi'} is missing")
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    argv = workload.command(seed, smoke)
    sweep = workload.kind == "sweep"
    area = RUN_AREA / f"{os.getpid()}-{time.time_ns()}"
    try:
        setups: list[dict] = []
        if trace:
            # traced between two plain invocations, so drift does not bias the overhead
            invocations = [_spawn(area, tag, argv, mode, deadline, sweep)
                           for tag, mode in (("plain0", "run"), ("traced", "trace"),
                                             ("plain1", "run"))]
        else:
            invocations = []
            loop_start = time.perf_counter()
            while (len(invocations) < MIN_INVOCATIONS
                   or time.perf_counter() - loop_start < seconds):
                if (len(invocations) >= MIN_INVOCATIONS and time.perf_counter()
                        + 1.5 * invocations[-1]["wall_s"] > deadline):
                    break
                # probes spread over the run, so its set-up median sees the
                # same host speed as its invocations
                setups += [_spawn(area, f"setup{len(setups)}", argv, "setup",
                                  deadline, sweep) for _ in range(SETUP_PROBES)]
                invocations.append(_spawn(area, f"run{len(invocations)}", argv,
                                          "run", deadline, sweep))
    finally:
        shutil.rmtree(area, ignore_errors=True)
        try:
            RUN_AREA.rmdir()
        except OSError:
            pass    # another run still uses it, or it is already gone

    attempted, failed, correct = grade_run(invocations, workload)
    walls = [inv["wall_s"] for inv in invocations]
    stats = sweep_stats(invocations[0]["output"]) if sweep else {}
    extra = {
        "user_frames_per_s": (statistics.median(stats["user_frames"] / w for w in walls)
                              if sweep else None),
        "rel_halfwidth_median": stats.get("rel_halfwidth_median"),
        "max_abs_z": stats.get("max_abs_z"),
        "tmp_files_left": statistics.median(inv["tmp_files_left"] for inv in invocations),
        "ops": attempted,
        "ops_failed": failed,
    }
    if trace:
        values = tracing.layer_metrics(invocations[1]["trace"])
        values["tracing_overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2.0
        values["max_abs_z"] = stats.get("max_abs_z", 0.0)
        units = tracing.PER_LAYER_UNITS
        samples = {"wall_s": walls}
    else:
        samples = {
            "wall_s": walls,
            "setup_s": [s["setup_s"] for s in setups + invocations],
            "peak_rss_mb": [inv["peak_rss_mb"] for inv in invocations],
        }
        values = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END_UNITS
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "argv": argv, "invocations": len(invocations),
        "elapsed_s": time.perf_counter() - start,
        "environment": environment(invocations[0]),
        "samples": samples,
        "quartiles": {k: _quartiles(v) for k, v in samples.items()},
        "extra": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in extra.items()
                  if v is not None},
    }
    return result, record


# ---------------------------------------------------------------- CLI

def _print_table(result: dict, record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"invocations={record['invocations']}  argv: crnoma-aoi "
          f"{' '.join(record['argv'])}")
    quart = record["quartiles"]
    for name, m in {**result["metrics"], **record["extra"]}.items():
        q = quart.get(name)
        spread = f"  [q1 {q[0]:.6g}, q3 {q[1]:.6g}]" if q else ""
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}{spread}")
    print(f"  correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's shipped seed)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            workload = WORKLOADS[name]
            seed = workload.default_seed if args.seed is None else args.seed
            result, record = measure(workload, seed, args.seconds, bool(args.trace))
            if args.workload != "all":
                print(json.dumps({"record": record}))
                print(json.dumps(result))
                return 0
            _print_table(result, record)
            print(json.dumps({"record": record}))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in {**result["metrics"], **record["extra"]}.items():
                combined["metrics"][f"{name}.{key}"] = m
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2 if not (SRC / "crnoma_aoi" / "cli.py").is_file() else 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
