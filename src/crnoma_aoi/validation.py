"""Self-contained pass/fail validation suite (the ``validate`` CLI subcommand).

This is the one definition of the acceptance criteria: ``crnoma-aoi
validate`` prints these checks, and ``tests/test_acceptance.py`` fails on any
of them at ``full`` level with seed 2024.  Every check compares an independent
measurement (simulation, Monte Carlo event counting, or series summation)
against a closed form at an explicit tolerance.  Each ``add`` call is a
top-level statement of :func:`run_validation`, so every level runs the same
17 checks in the same order.  ``LEVELS`` holds all that a level changes.
``fast`` is a quick smoke check, its simulation tolerances widened for its
larger noise; ``full`` runs at the scale the tolerances are calibrated for.
The probability grid runs inline, on its own generator (seed + 10).  Every
simulation runs at the run's own seed, on the streams that the simulator
derives from (seed, M): the GAW and GAR sweeps share their M = 8 gains, and
the renewal and CSV checks their M = 4 gains, but no check compares the two
of either pair.  The renewal check simulates both schemes of one model in
one ``run_many`` call and hands the deliveries of each straight to
:func:`crnoma_aoi.oracle.renewal_aoi`, so nothing is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, oracle
from .experiments import ExperimentSpec, run_experiment
from .model import (GEN_MODELS, SCHEMES, SystemConfig, check_seed, db_to_linear,
                    epsilon_of)
from .simulator import deliveries, run_many

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


def _sweep(lv: dict, gen_model: str, T: float, seed: int) -> list:
    """TDMA, then CR-NOMA, each at 0 and 40 dB (M=8, R=1, P_S=P), on common draws."""
    return run_many([SystemConfig(M=8, T=T, R=1.0, P=P, P_S=P, scheme=scheme,
                                  gen_model=gen_model, frames=lv["frames"], seed=seed)
                     for scheme in SCHEMES for P in (1.0, db_to_linear(40.0))])


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


def _probability_grid(lv: dict, rng: np.random.Generator) -> tuple[bool, int, int, float]:
    """Probability oracle over the level's (eps, P=P_S) grid, drawn from
    ``rng``: (partitions sum to 1, estimates whose 3sigma interval misses the
    closed form, how many of those intervals have width 0, worst
    |err|/3sigma over the intervals of non-zero width)."""
    n_points = lv["n_points"]
    rs = np.linspace(0.25, 2.0, n_points)
    snrs = np.resize([-5.0, 0.0, 5.0, 10.0, 15.0], n_points)
    worst = 0.0
    misses = zero_width = 0
    sum_ok = True
    for R, snr in zip(rs, snrs):
        P = db_to_linear(float(snr))
        for _, part, est in partition_table(epsilon_of(float(R)), P, P, lv["trials"], rng):
            sum_ok &= abs(sum(part) - 1.0) < 1e-12
            for value, e in zip(part, est):
                if not e.covers(value):
                    misses += 1
                    zero_width += e.half_width == 0
                if e.half_width > 0:
                    worst = max(worst, abs(e.estimate - value) / e.half_width)
    return sum_ok, misses, zero_width, worst


def run_validation(level: str = "fast", seed: int = 7) -> list[CheckResult]:
    if level not in LEVELS:
        raise ValueError(f"level must be one of {sorted(LEVELS)}, got {level!r}")
    check_seed(seed)
    # made before the sweeps fork, so that no worker imports numpy.random
    grid_rng = np.random.default_rng(seed + 10)
    lv = LEVELS[level]
    sim_tol, gap_tol = lv["sim_tol"], lv["gap_tol"]
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    # -- GAW closed forms vs simulation at 0 dB ---------------------------
    eps1 = epsilon_of(1.0)
    s_tdma, s_t40, s_noma, s_n40 = (r.overall_aoi for r in _sweep(lv, "GAW", 1.5, seed))
    a_tdma = analytic.tdma_gaw_aoi(8, 1.5, eps1, 1.0)
    add("tdma_gaw_closed_form", abs(a_tdma - 28.119) < 5e-3,
        f"analytic={a_tdma:.4f} expected 28.119")
    add("tdma_gaw_simulation", _rel(s_tdma, a_tdma) < sim_tol,
        f"sim={s_tdma:.3f} analytic={a_tdma:.3f} rtol={sim_tol}")

    a_noma = analytic.crnoma_gaw_aoi(8, 1.5, eps1, 1.0, 1.0)
    add("crnoma_gaw_closed_form", abs(a_noma - 20.55) < 5e-3,
        f"analytic={a_noma:.4f} expected 20.55")
    add("crnoma_gaw_simulation", _rel(s_noma, a_noma) < sim_tol,
        f"sim={s_noma:.3f} analytic={a_noma:.3f} rtol={sim_tol}")
    add("crnoma_gaw_reduction", (a_tdma - a_noma) / a_tdma > 0.25,
        f"reduction={(a_tdma - a_noma) / a_tdma:.1%} > 25%")

    # -- GAW high-SNR convergence at 40 dB, closed form and simulation ----
    P40 = db_to_linear(40.0)
    limit = analytic.gaw_high_snr_aoi(8, 1.5)
    a_t40 = analytic.tdma_gaw_aoi(8, 1.5, eps1, P40)
    a_n40 = analytic.crnoma_gaw_aoi(8, 1.5, eps1, P40, P40)
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
    r_gar_t, r40t, r_gar_n, r40n = _sweep(lv, "GAR", 0.5, seed)
    add("gar_simulation_u5", _rel(r_gar_t.per_user_aoi[4], a_gar_t5) < sim_tol
        and _rel(r_gar_n.per_user_aoi[4], a_gar_n5) < sim_tol,
        f"tdma_sim={r_gar_t.per_user_aoi[4]:.3f} noma_sim={r_gar_n.per_user_aoi[4]:.3f}")

    # -- GAR high-SNR gap at 40 dB ----------------------------------------
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
    sum_ok, misses, zero_width, worst = _probability_grid(lv, grid_rng)
    add("oracle_partition_sums", sum_ok, "all closed-form partitions sum to 1 (1e-12)")
    add("oracle_probabilities", misses == 0,
        f"{lv['n_points']}-point grid, {misses} of {9 * lv['n_points']} "
        f"outside 3sigma ({zero_width} of width 0), worst |err|/3sigma={worst:.2f}")

    # -- renewal-reward cross-check on the simulator's deliveries ---------
    renewal_ok = True
    worst_abs = 0.0
    for gen_model in GEN_MODELS:
        configs = [SystemConfig(M=4, T=0.5, R=1.0, P=1.0, P_S=1.0, scheme=scheme, seed=seed,
                                gen_model=gen_model, frames=max(lv["frames"] // 10, 2000))
                   for scheme in SCHEMES]
        for cfg, report in zip(configs, run_many(configs)):
            recomputed = oracle.renewal_aoi(deliveries(cfg), cfg.frames * cfg.frame_duration)
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
    def aoi(scheme: str, gen_model: str, M: int, T: float, R: float, P: float) -> float:
        return analytic.closed_form_aoi(scheme, gen_model, M, T, epsilon_of(R), P, P)

    mono_M = all(aoi(s, "GAW", M, 0.5, 1.5, P) < aoi(s, "GAW", M2, 0.5, 1.5, P)
                 for s in SCHEMES for P in (1.0, 10.0, 100.0)
                 for M, M2 in ((4, 8), (8, 16), (16, 32)))
    mono_R = all(aoi(s, "GAW", 8, T, 0.5, P) < aoi(s, "GAW", 8, T, 1.0, P)
                 for s in SCHEMES for P in (1.0, 10.0) for T in (0.5, 1.5))
    gar_dominance = all(
        aoi("CR-NOMA", "GAR", 8, 0.5, R, P) <= aoi("TDMA", "GAR", 8, 0.5, R, P)
        for R in (0.5, 1.5) for P in map(db_to_linear, range(0, 41, 5)))
    add("figure_shapes", mono_M and mono_R and gar_dominance,
        "GAW AoI increasing in M and R for both schemes; "
        "GAR CR-NOMA <= TDMA at every grid SNR")

    # -- CSV determinism --------------------------------------------------
    spec = ExperimentSpec(preset="custom", schemes=SCHEMES, gen_model="GAR",
                          M_values=(4,), T_values=(0.5,), R_values=(1.0,),
                          snr_db_values=(0.0, 10.0, 20.0), frames=5000, seed=seed)
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
