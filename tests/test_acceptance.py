"""Acceptance suite: every criterion at its stated tolerance, full scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The same checks (plus a reduced-scale variant) back the
``crnoma-aoi validate`` subcommand.
"""

import math

import numpy as np
import pytest

from crnoma_aoi import analytic, oracle
from crnoma_aoi.experiments import ExperimentSpec, run_experiment
from crnoma_aoi.model import SystemConfig, db_to_linear, epsilon_of
from crnoma_aoi.simulator import run, simulate_events, write_event_log

EPS1 = epsilon_of(1.0)
FRAMES = 200_000
TRIALS = 1_000_000
SEED = 2024


def _sim(scheme, gen_model, M, T, R, snr_db, seed):
    cfg = SystemConfig(M=M, T=T, R=R, P=db_to_linear(snr_db),
                       P_S=db_to_linear(snr_db), scheme=scheme,
                       gen_model=gen_model, frames=FRAMES,
                       warmup_frames=100, seed=seed)
    return run(cfg)


@pytest.fixture(scope="module")
def gaw_runs():
    return {
        "tdma": _sim("TDMA", "GAW", 8, 1.5, 1.0, 0.0, SEED),
        "noma": _sim("CR-NOMA", "GAW", 8, 1.5, 1.0, 0.0, SEED + 1),
        "tdma40": _sim("TDMA", "GAW", 8, 1.5, 1.0, 40.0, SEED + 2),
        "noma40": _sim("CR-NOMA", "GAW", 8, 1.5, 1.0, 40.0, SEED + 3),
    }


@pytest.fixture(scope="module")
def gar_runs():
    return {
        "tdma": _sim("TDMA", "GAR", 8, 0.5, 1.0, 0.0, SEED + 4),
        "noma": _sim("CR-NOMA", "GAR", 8, 0.5, 1.0, 0.0, SEED + 5),
        "tdma40": _sim("TDMA", "GAR", 8, 0.5, 1.0, 40.0, SEED + 6),
        "noma40": _sim("CR-NOMA", "GAR", 8, 0.5, 1.0, 40.0, SEED + 7),
    }


def report(name, detail):
    print(f"\n[criterion {name}] {detail}")


def test_criterion_1_tdma_gaw_closed_form(gaw_runs):
    a = analytic.tdma_gaw_aoi(8, 1.5, EPS1, 1.0)
    s = gaw_runs["tdma"].overall_aoi
    report("1", f"TDMA/GAW analytic={a:.4f} (28.119), sim={s:.4f}")
    assert a == pytest.approx(28.119, abs=5e-3)
    assert abs(s - a) / a < 0.02


def test_criterion_2_crnoma_gaw_closed_form(gaw_runs):
    a_t = analytic.tdma_gaw_aoi(8, 1.5, EPS1, 1.0)
    a = analytic.crnoma_gaw_aoi(8, 1.5, EPS1, 1.0, 1.0)
    s = gaw_runs["noma"].overall_aoi
    report("2", f"CR-NOMA/GAW analytic={a:.4f} (20.55), sim={s:.4f}, "
                f"reduction={(a_t - a) / a_t:.1%}")
    assert a == pytest.approx(20.55, abs=5e-3)
    assert abs(s - a) / a < 0.02
    assert (a_t - a) / a_t > 0.25


def test_criterion_3_gaw_high_snr(gaw_runs):
    limit = analytic.gaw_high_snr_aoi(8, 1.5)
    t40 = gaw_runs["tdma40"].overall_aoi
    n40 = gaw_runs["noma40"].overall_aoi
    report("3", f"40 dB GAW: tdma={t40:.4f}, noma={n40:.4f}, limit={limit}")
    assert abs(n40 - t40) / t40 < 0.01
    assert abs(t40 - limit) / limit < 0.01
    assert abs(n40 - limit) / limit < 0.01
    # analytic counterparts converge as well
    assert analytic.tdma_gaw_aoi(8, 1.5, EPS1, 1e4) == pytest.approx(limit, rel=0.01)
    assert analytic.crnoma_gaw_aoi(8, 1.5, EPS1, 1e4, 1e4) == pytest.approx(limit, rel=0.01)


def test_criterion_4_gar_per_user(gar_runs):
    a_n5 = analytic.crnoma_gar_user_aoi(5, 1, 8, 0.5, EPS1, 1.0, 1.0)
    a_t5 = analytic.tdma_gar_user_aoi(5, 8, 0.5, EPS1, 1.0)
    s_n5 = gar_runs["noma"].per_user_aoi[4]
    s_t5 = gar_runs["tdma"].per_user_aoi[4]
    report("4", f"GAR u5: NOMA analytic={a_n5:.4f} (8.00) sim={s_n5:.4f}; "
                f"TDMA analytic={a_t5:.4f} (11.37) sim={s_t5:.4f}")
    assert a_n5 == pytest.approx(8.00, abs=5e-3)
    assert a_t5 == pytest.approx(11.37, abs=5e-3)
    assert abs(s_n5 - a_n5) / a_n5 < 0.02
    assert abs(s_t5 - a_t5) / a_t5 < 0.02


def test_criterion_5_gar_high_snr_gaps(gar_runs):
    t40, n40 = gar_runs["tdma40"], gar_runs["noma40"]
    gap_u5 = t40.per_user_aoi[4] - n40.per_user_aoi[4]
    expected_gap = -analytic.gar_high_snr_gap(8, 0.5, EPS1)
    fair_t = t40.per_user_aoi[4] - t40.per_user_aoi[0]
    fair_n = n40.per_user_aoi[4] - n40.per_user_aoi[0]
    report("5", f"40 dB GAR: tdma-noma u5 gap={gap_u5:.4f} (1.00), "
                f"u1 tdma={t40.per_user_aoi[0]:.4f} noma={n40.per_user_aoi[0]:.4f}, "
                f"fairness tdma={fair_t:.4f} (2.0) noma={fair_n:.4f} (1.0)")
    assert expected_gap == pytest.approx(1.0, abs=1e-12)
    assert gap_u5 == pytest.approx(1.00, abs=0.05)
    assert abs(n40.per_user_aoi[0] - t40.per_user_aoi[0]) / t40.per_user_aoi[0] < 0.01
    assert fair_t == pytest.approx(2.0, abs=0.05)
    assert fair_n == pytest.approx(1.0, abs=0.05)


def test_criterion_6_probability_oracle():
    rng = np.random.default_rng(SEED + 10)
    Rs = np.linspace(0.25, 2.0, 20)
    snrs = np.tile([-5.0, 0.0, 5.0, 10.0, 15.0], 4)
    worst = 0.0
    for R, snr_db in zip(Rs, snrs):
        eps = epsilon_of(float(R))
        P = db_to_linear(float(snr_db))
        parts = (analytic.gaw_partition(eps, P, P),
                 analytic.gar_partition_user_m(eps, P, P),
                 analytic.gar_partition_user_mprime(eps, P, P))
        for part in parts:
            assert abs(part.total() - 1.0) < 1e-12
        est_gaw = oracle.estimate_gaw_partition(eps, P, P, TRIALS, rng)
        est_gm, est_gp = oracle.estimate_gar_partitions(eps, P, P, TRIALS, rng)
        for part, est in zip(parts, (est_gaw, est_gm, est_gp)):
            for value, e in zip(part.astuple(), est):
                assert e.covers(value)
                if e.half_width > 0:
                    worst = max(worst, abs(e.estimate - value) / e.half_width)
    report("6", f"nine probabilities x 20 grid points within 3 sigma "
                f"(worst |err|/3sigma={worst:.2f}); partition sums exact")


def test_criterion_7_renewal_cross_check(tmp_path):
    worst = 0.0
    for scheme in ("TDMA", "CR-NOMA"):
        for gen_model in ("GAW", "GAR"):
            cfg = SystemConfig(M=8, T=0.5, R=1.0, P=1.0, P_S=1.0,
                               scheme=scheme, gen_model=gen_model,
                               frames=20_000, warmup_frames=100,
                               seed=SEED + 20)
            rep = run(cfg)
            log = tmp_path / f"{scheme}-{gen_model}.log"
            write_event_log(simulate_events(cfg), log)
            recomputed = oracle.renewal_aoi(
                oracle.parse_event_log(log),
                cfg.frames * cfg.frame_duration,
                cfg.warmup_frames * cfg.frame_duration)
            for k in range(cfg.M):
                worst = max(worst, abs(recomputed[k + 1] - rep.per_user_aoi[k]))
    report("7", f"renewal recomputation vs per-frame kernel: "
                f"worst |diff|={worst:.2e} (tol 1e-9)")
    assert worst < 1e-9


def test_criterion_8_series_identities():
    residuals = {x: oracle.geometric_moment_check(x) for x in (0.1, 0.5, 0.9)}
    report("8", "series residuals: " + ", ".join(
        f"x={x}: ({r1:.1e}, {r2:.1e})" for x, (r1, r2) in residuals.items()))
    for r1, r2 in residuals.values():
        assert r1 < 1e-10 and r2 < 1e-10


def test_criterion_9_figure_shapes():
    # AoI increases with M at fixed (R, T, SNR)
    for P in (1.0, 10.0, 100.0):
        values = [analytic.crnoma_gaw_aoi(M, 0.5, epsilon_of(1.5), P, P)
                  for M in (4, 8, 16, 32)]
        assert values == sorted(values)
        t_values = [analytic.tdma_gaw_aoi(M, 0.5, epsilon_of(1.5), P)
                    for M in (4, 8, 16, 32)]
        assert t_values == sorted(t_values)
    # AoI increases with R at fixed (M, T, SNR)
    for P in (1.0, 10.0):
        for T in (0.5, 1.5):
            assert (analytic.tdma_gaw_aoi(8, T, epsilon_of(0.5), P)
                    < analytic.tdma_gaw_aoi(8, T, epsilon_of(1.0), P))
            assert (analytic.crnoma_gaw_aoi(8, T, epsilon_of(0.5), P, P)
                    < analytic.crnoma_gaw_aoi(8, T, epsilon_of(1.0), P, P))
    # GAR: CR-NOMA overall never worse than TDMA at any grid SNR
    for R in (0.5, 1.5):
        for snr in range(0, 41, 5):
            P = db_to_linear(snr)
            assert (analytic.crnoma_gar_overall(8, 0.5, epsilon_of(R), P, P)
                    <= analytic.tdma_gar_overall(8, 0.5, epsilon_of(R), P))
    report("9", "monotone in M and R; GAR CR-NOMA <= TDMA across the SNR grid")


def test_criterion_10_csv_determinism():
    spec = ExperimentSpec(preset="custom", schemes=("TDMA", "CR-NOMA"),
                          gen_model="GAR", M_values=(4,), T_values=(0.5,),
                          R_values=(1.0,), snr_db_values=(0.0, 20.0),
                          frames=5000, warmup=50, seed=SEED)
    first = run_experiment(spec)
    second = run_experiment(spec)
    report("10", f"CSV rerun byte-identical: {first == second} "
                 f"({len(first.splitlines())} lines)")
    assert first == second
