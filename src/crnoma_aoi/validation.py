"""Self-contained pass/fail validation suite (the ``validate`` CLI subcommand).

This is the one definition of the acceptance criteria: ``crnoma-aoi
validate`` prints these checks, and ``tests/test_acceptance.py`` fails on any
of them at ``full`` level with seed 2024.  Every check compares an independent
measurement (simulation, Monte Carlo event counting, or series summation)
against a closed form at an explicit tolerance.  Each ``add`` call is a
top-level statement of :func:`run_validation`, so every level runs the same
17 checks in the same order.  ``LEVELS`` holds all that a level changes:
simulated frames, Monte Carlo trials, the relative simulation tolerance, the
absolute tolerance of the 40 dB GAR gaps and the size of the probability grid.
``fast`` is a quick smoke check, its simulation tolerances widened for its
larger noise; ``full`` runs at the scale the tolerances are calibrated for.
The probability grid runs on a worker thread beside the other checks; its
numbers are those of a serial run, bit for bit.  The renewal cross-check
hands :func:`crnoma_aoi.simulator.deliveries` straight to
:func:`crnoma_aoi.oracle.renewal_aoi`, so ``validate`` writes no file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, oracle
from .experiments import ExperimentSpec, run_experiment
from .model import SCHEMES, SystemConfig, db_to_linear, epsilon_of
from .simulator import AoiReport, deliveries, run

LEVELS = {
    "fast": {"frames": 20_000, "trials": 100_000, "sim_tol": 0.06, "gap_tol": 0.15,
             "n_points": 6},
    "full": {"frames": 200_000, "trials": 1_000_000, "sim_tol": 0.02, "gap_tol": 0.05,
             "n_points": 20},
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _sim(lv: dict, scheme: str, gen_model: str, T: float, P: float,
         seed: int) -> AoiReport:
    """One M=8, R=1, P_S=P simulation at the level's horizon."""
    return run(SystemConfig(M=8, T=T, R=1.0, P=P, P_S=P, scheme=scheme,
                            gen_model=gen_model, frames=lv["frames"],
                            warmup_frames=100, seed=seed))


def partition_table(eps: float, P: float, P_S: float, trials: int,
                    rng: np.random.Generator):
    """Closed-form frame-outcome partitions beside their Monte Carlo estimates
    at one (eps, P, P_S): rows ``(name, Partition, (p0, p_first, p_second)
    estimates)`` for ``gaw``, ``gar_user_m`` and ``gar_user_mprime``.  The
    GAW estimator draws from ``rng`` first, then the joint GAR one."""
    est_gaw = oracle.estimate_gaw_partition(eps, P, P_S, trials, rng)
    est_gm, est_gp = oracle.estimate_gar_partitions(eps, P, P_S, trials, rng)
    return [("gaw", analytic.gaw_partition(eps, P, P_S), est_gaw),
            ("gar_user_m", analytic.gar_partition_user_m(eps, P, P_S), est_gm),
            ("gar_user_mprime", analytic.gar_partition_user_mprime(eps, P, P_S), est_gp)]


def _probability_grid(lv: dict, seed: int) -> tuple[bool, bool, float]:
    """Probability oracle over the level's (eps, P=P_S) grid: (partitions sum
    to 1, estimates cover them, worst |err|/3sigma)."""
    rng = np.random.default_rng(seed + 10)
    n_points = lv["n_points"]
    rs = np.linspace(0.25, 2.0, n_points)
    snrs = np.resize([-5.0, 0.0, 5.0, 10.0, 15.0], n_points)
    worst = 0.0
    prob_ok = True
    sum_ok = True
    for R, snr in zip(rs, snrs):
        P = db_to_linear(float(snr))
        for _, part, est in partition_table(epsilon_of(float(R)), P, P, lv["trials"], rng):
            sum_ok &= abs(sum(part) - 1.0) < 1e-12
            for value, e in zip(part, est):
                prob_ok &= e.covers(value)
                if e.half_width > 0:
                    worst = max(worst, abs(e.estimate - value) / e.half_width)
    return sum_ok, prob_ok, worst


def run_validation(level: str = "fast", seed: int = 7) -> list[CheckResult]:
    if level not in LEVELS:
        raise ValueError(f"level must be one of {sorted(LEVELS)}, got {level!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    lv = LEVELS[level]
    # numpy releases the GIL while the grid draws and classifies, so it runs
    # beside the other checks; imported here to keep the CLI's import lean
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=1)
    grid = pool.submit(_probability_grid, lv, seed)
    pool.shutdown(wait=False)   # the worker exits once the grid is done
    sim_tol, gap_tol = lv["sim_tol"], lv["gap_tol"]
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    # -- GAW closed forms vs simulation at 0 dB ---------------------------
    eps1 = epsilon_of(1.0)
    a_tdma = analytic.tdma_gaw_aoi(8, 1.5, eps1, 1.0)
    r_tdma = _sim(lv, "TDMA", "GAW", 1.5, 1.0, seed)
    add("tdma_gaw_closed_form", abs(a_tdma - 28.119) < 5e-3,
        f"analytic={a_tdma:.4f} expected 28.119")
    add("tdma_gaw_simulation", _rel(r_tdma.overall_aoi, a_tdma) < sim_tol,
        f"sim={r_tdma.overall_aoi:.3f} analytic={a_tdma:.3f} rtol={sim_tol}")

    a_noma = analytic.crnoma_gaw_aoi(8, 1.5, eps1, 1.0, 1.0)
    r_noma = _sim(lv, "CR-NOMA", "GAW", 1.5, 1.0, seed + 1)
    add("crnoma_gaw_closed_form", abs(a_noma - 20.55) < 5e-3,
        f"analytic={a_noma:.4f} expected 20.55")
    add("crnoma_gaw_simulation", _rel(r_noma.overall_aoi, a_noma) < sim_tol,
        f"sim={r_noma.overall_aoi:.3f} analytic={a_noma:.3f} rtol={sim_tol}")
    add("crnoma_gaw_reduction", (a_tdma - a_noma) / a_tdma > 0.25,
        f"reduction={(a_tdma - a_noma) / a_tdma:.1%} > 25%")

    # -- GAW high-SNR convergence at 40 dB, closed form and simulation ----
    P40 = db_to_linear(40.0)
    limit = analytic.gaw_high_snr_aoi(8, 1.5)
    a_t40 = analytic.tdma_gaw_aoi(8, 1.5, eps1, P40)
    a_n40 = analytic.crnoma_gaw_aoi(8, 1.5, eps1, P40, P40)
    s_t40 = _sim(lv, "TDMA", "GAW", 1.5, P40, seed + 6).overall_aoi
    s_n40 = _sim(lv, "CR-NOMA", "GAW", 1.5, P40, seed + 7).overall_aoi
    add("gaw_high_snr", all(
        _rel(n, t) < 0.01 and _rel(t, limit) < 0.01 and _rel(n, limit) < 0.01
        for t, n in ((a_t40, a_n40), (s_t40, s_n40))),
        f"tdma={a_t40:.4f} noma={a_n40:.4f} sim tdma={s_t40:.4f} "
        f"noma={s_n40:.4f} limit={limit}")

    # -- GAR per-user closed forms vs simulation at 0 dB ------------------
    a_gar_t5 = analytic.tdma_gar_user_aoi(5, 8, 0.5, eps1, 1.0)
    a_gar_n5 = analytic.crnoma_gar_user_aoi(5, 8, 0.5, eps1, 1.0, 1.0)
    add("gar_closed_forms", abs(a_gar_t5 - 11.373) < 5e-3
        and abs(a_gar_n5 - 8.00) < 5e-3,
        f"tdma_u5={a_gar_t5:.4f} (11.373), noma_u5={a_gar_n5:.4f} (8.00)")
    r_gar_t = _sim(lv, "TDMA", "GAR", 0.5, 1.0, seed + 2)
    r_gar_n = _sim(lv, "CR-NOMA", "GAR", 0.5, 1.0, seed + 3)
    add("gar_simulation_u5", _rel(r_gar_t.per_user_aoi[4], a_gar_t5) < sim_tol
        and _rel(r_gar_n.per_user_aoi[4], a_gar_n5) < sim_tol,
        f"tdma_sim={r_gar_t.per_user_aoi[4]:.3f} noma_sim={r_gar_n.per_user_aoi[4]:.3f}")

    # -- GAR high-SNR gap at 40 dB ----------------------------------------
    r40t = _sim(lv, "TDMA", "GAR", 0.5, P40, seed + 4)
    r40n = _sim(lv, "CR-NOMA", "GAR", 0.5, P40, seed + 5)
    gap_u5 = r40t.per_user_aoi[4] - r40n.per_user_aoi[4]
    expected_gap = -analytic.gar_high_snr_gap(8, 0.5, eps1)
    fair_t = r40t.per_user_aoi[4] - r40t.per_user_aoi[0]
    fair_n = r40n.per_user_aoi[4] - r40n.per_user_aoi[0]
    add("gar_high_snr_gap", abs(expected_gap - 1.0) < 1e-12
        and abs(gap_u5 - expected_gap) < gap_tol,
        f"tdma-noma gap u5={gap_u5:.3f} expected {expected_gap:.2f}+-{gap_tol}")
    add("gar_user_m_unimproved",
        _rel(r40n.per_user_aoi[0], r40t.per_user_aoi[0]) < 0.01,
        f"u1: tdma={r40t.per_user_aoi[0]:.4f} noma={r40n.per_user_aoi[0]:.4f}")
    add("gar_fairness", abs(fair_t - 2.0) < gap_tol and abs(fair_n - 1.0) < gap_tol,
        f"tdma u5-u1 gap={fair_t:.3f} (2.0), noma gap={fair_n:.3f} (1.0)")

    # -- probability oracle over an (eps, P=P_S) grid ---------------------
    pool.shutdown()             # join the worker; result() re-raises its error
    sum_ok, prob_ok, worst = grid.result()
    add("oracle_partition_sums", sum_ok, "all closed-form partitions sum to 1 (1e-12)")
    add("oracle_probabilities", prob_ok,
        f"{lv['n_points']}-point grid, worst |err|/3sigma={worst:.2f}")

    # -- renewal-reward cross-check on the simulator's deliveries ---------
    renewal_ok = True
    worst_abs = 0.0
    for scheme in ("TDMA", "CR-NOMA"):
        for gen_model in ("GAW", "GAR"):
            cfg = SystemConfig(M=4, T=0.5, R=1.0, P=1.0, P_S=1.0, scheme=scheme,
                               gen_model=gen_model, frames=max(lv["frames"] // 10, 2000),
                               warmup_frames=50, seed=seed + 20)
            t0 = cfg.warmup_frames * cfg.frame_duration
            t1 = cfg.frames * cfg.frame_duration
            recomputed = oracle.renewal_aoi(deliveries(cfg), t1, t0)
            report = run(cfg)
            for k in range(cfg.M):
                d = abs(recomputed[k + 1] - report.per_user_aoi[k])
                worst_abs = max(worst_abs, d)
                renewal_ok &= d < 1e-9
    add("renewal_cross_check", renewal_ok, f"worst |diff|={worst_abs:.2e} < 1e-9")

    # -- series identities ------------------------------------------------
    series_ok = all(max(oracle.geometric_moment_check(x)) < 1e-10
                    for x in (0.1, 0.5, 0.9))
    add("series_identities", series_ok, "residuals < 1e-10 at x in {0.1, 0.5, 0.9}")

    # -- qualitative figure shapes (analytic, desk scale) -----------------
    def gaw_aoi(scheme: str, M: int, T: float, R: float, P: float) -> float:
        return analytic.closed_form_aoi(scheme, "GAW", M, T, epsilon_of(R), P, P)

    mono_M = all(gaw_aoi(s, M, 0.5, 1.5, P) < gaw_aoi(s, M2, 0.5, 1.5, P)
                 for s in SCHEMES for P in (1.0, 10.0, 100.0)
                 for M, M2 in ((4, 8), (8, 16), (16, 32)))
    mono_R = all(gaw_aoi(s, 8, T, 0.5, P) < gaw_aoi(s, 8, T, 1.0, P)
                 for s in SCHEMES for P in (1.0, 10.0) for T in (0.5, 1.5))
    gar_dominance = all(
        analytic.crnoma_gar_overall(8, 0.5, epsilon_of(R), db_to_linear(s),
                                    db_to_linear(s))
        <= analytic.tdma_gar_overall(8, 0.5, epsilon_of(R), db_to_linear(s))
        for R in (0.5, 1.5) for s in range(0, 41, 5))
    add("figure_shapes", mono_M and mono_R and gar_dominance,
        "GAW AoI increasing in M and R for both schemes; "
        "GAR CR-NOMA <= TDMA at every grid SNR")

    # -- CSV determinism --------------------------------------------------
    spec = ExperimentSpec(preset="custom", schemes=SCHEMES, gen_model="GAR",
                          M_values=(4,), T_values=(0.5,), R_values=(1.0,),
                          snr_db_values=(0.0, 10.0, 20.0), frames=5000, warmup=50,
                          seed=seed)
    add("csv_determinism", run_experiment(spec) == run_experiment(spec),
        "same spec + seed -> byte-identical CSV, both schemes")

    return checks


def print_report(checks: list[CheckResult]) -> bool:
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.detail}")
        ok &= c.passed
    n_pass = sum(c.passed for c in checks)
    print(f"{n_pass}/{len(checks)} checks passed")
    return ok
