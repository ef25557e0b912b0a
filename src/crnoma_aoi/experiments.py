"""Experiment harness: figure presets, parameter sweeps, CSV emission.

Each grid point produces one ``overall`` row; GAR grid points additionally
produce one row per requested user (per-user AoI is the interesting quantity
there).  Rows are emitted in sorted axis order so that identical specs yield
byte-identical CSV documents.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

from . import analytic
from .model import SystemConfig, db_to_linear, epsilon_of
from .simulator import run

CSV_HEADER = ("preset,scheme,gen_model,M,T,R,snr_db,user_id,"
              "aoi_analytic,aoi_sim,sim_ci_halfwidth,frames,seed")

_DEFAULT_SNR_GRID = tuple(range(0, 41, 5))


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep over (scheme, M, T, R, SNR); P_S = P throughout the harness."""

    preset: str = "custom"
    schemes: tuple[str, ...] = ("TDMA", "CR-NOMA")
    gen_model: str = "GAW"
    M_values: tuple[int, ...] = (8,)
    T_values: tuple[float, ...] = (1.0,)
    R_values: tuple[float, ...] = (1.0,)
    snr_db_values: tuple[float, ...] = _DEFAULT_SNR_GRID
    users: tuple[int, ...] | None = None   # GAR per-user rows; None = all users
    outputs: str = "both"                  # both | analytic | sim
    frames: int = 200_000
    warmup: int = 100
    seed: int = 1

    def validate(self) -> None:
        """Reject a bad spec before any point is simulated.  Every grid point
        must build a :class:`SystemConfig`, which holds the per-point rules
        (even M, finite T, R and SNR, known scheme, frames > warmup)."""
        if not self.schemes:
            raise ValueError("scheme list must not be empty")
        if self.outputs not in ("both", "analytic", "sim"):
            raise ValueError(f"outputs must be both/analytic/sim, got {self.outputs!r}")
        for scheme, M, T, R, snr in itertools.product(
                self.schemes, self.M_values, self.T_values, self.R_values,
                self.snr_db_values):
            P = db_to_linear(snr)
            SystemConfig(M=M, T=T, R=R, P=P, P_S=P, scheme=scheme,
                         gen_model=self.gen_model, frames=self.frames,
                         warmup_frames=self.warmup)
        if self.users is not None:
            for M in self.M_values:
                for u in self.users:
                    if not 1 <= u <= M:
                        raise ValueError(f"user {u} out of range for M={M}")


# Axis values mirror the reference figure setups; fig5 sweeps M at a small
# documented SNR grid, and the overall-GAR presets sweep two network sizes.
PRESETS: dict[str, ExperimentSpec] = {
    "fig4a": ExperimentSpec(preset="fig4a", gen_model="GAW", M_values=(8,),
                            R_values=(0.5,), T_values=(0.5, 1.0, 1.5)),
    "fig4b": ExperimentSpec(preset="fig4b", gen_model="GAW", M_values=(8,),
                            R_values=(1.0,), T_values=(0.5, 1.0, 1.5)),
    "fig5": ExperimentSpec(preset="fig5", gen_model="GAW", M_values=(4, 8, 16, 32),
                           R_values=(1.5,), T_values=(0.5,),
                           snr_db_values=(0, 10, 20)),
    "fig6a": ExperimentSpec(preset="fig6a", gen_model="GAR", M_values=(8,),
                            R_values=(1.0,), T_values=(0.5,), users=(1, 2, 3, 4)),
    "fig6b": ExperimentSpec(preset="fig6b", gen_model="GAR", M_values=(8,),
                            R_values=(1.0,), T_values=(0.5,), users=(5, 6, 7, 8)),
    "fig7x": ExperimentSpec(preset="fig7x", gen_model="GAR", M_values=(8,),
                            R_values=(1.0,), T_values=(0.5,), users=(1, 5)),
    "fig7a": ExperimentSpec(preset="fig7a", gen_model="GAR", M_values=(8, 16),
                            R_values=(0.5,), T_values=(0.5,)),
    "fig7b": ExperimentSpec(preset="fig7b", gen_model="GAR", M_values=(8, 16),
                            R_values=(1.5,), T_values=(0.5,)),
}


def preset_spec(name: str) -> ExperimentSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {sorted(PRESETS)}")
    return PRESETS[name]


def _analytic_overall(scheme: str, gen_model: str, M: int, T: float,
                      eps: float, P: float) -> float:
    if gen_model == "GAW":
        if scheme == "TDMA":
            return analytic.tdma_gaw_aoi(M, T, eps, P)
        return analytic.crnoma_gaw_aoi(M, T, eps, P, P)
    if scheme == "TDMA":
        return analytic.tdma_gar_overall(M, T, eps, P)
    return analytic.crnoma_gar_overall(M, T, eps, P, P)


def _analytic_user(scheme: str, k: int, M: int, T: float,
                   eps: float, P: float) -> float:
    if scheme == "TDMA":
        return analytic.tdma_gar_user_aoi(k, M, T, eps, P)
    m = k if k <= M // 2 else k - M // 2
    return analytic.crnoma_gar_user_aoi(k, m, M, T, eps, P, P)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def run_experiment(spec: ExperimentSpec) -> str:
    """Execute the sweep and return the CSV document (header included)."""
    spec.validate()
    grid = sorted(
        (scheme, M, T, R, float(snr))
        for scheme in spec.schemes
        for M in spec.M_values
        for T in spec.T_values
        for R in spec.R_values
        for snr in spec.snr_db_values
    )
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for run_index, (scheme, M, T, R, snr) in enumerate(grid):
        P = db_to_linear(snr)
        eps = epsilon_of(R)
        # documented splitting rule: each grid point gets seed XOR run-index
        point_seed = spec.seed ^ run_index
        report = None
        if spec.outputs in ("both", "sim"):
            cfg = SystemConfig(M=M, T=T, R=R, P=P, P_S=P, scheme=scheme,
                               gen_model=spec.gen_model, frames=spec.frames,
                               warmup_frames=spec.warmup, seed=point_seed)
            report = run(cfg)

        rows: list[tuple[str, float | None, float | None, float | None]] = []
        a_overall = (_analytic_overall(scheme, spec.gen_model, M, T, eps, P)
                     if spec.outputs != "sim" else None)
        rows.append(("overall", a_overall,
                     report.overall_aoi if report else None,
                     report.overall_halfwidth if report else None))
        if spec.gen_model == "GAR":
            users = spec.users if spec.users is not None else tuple(range(1, M + 1))
            for k in sorted(u for u in users if u <= M):
                a_k = (_analytic_user(scheme, k, M, T, eps, P)
                       if spec.outputs != "sim" else None)
                rows.append((str(k), a_k,
                             report.per_user_aoi[k - 1] if report else None,
                             report.per_user_halfwidth[k - 1] if report else None))

        for user_id, a_val, s_val, hw in rows:
            out.write(",".join([
                spec.preset, scheme, spec.gen_model,
                str(M), _fmt(T), _fmt(R), _fmt(snr), user_id,
                _fmt(a_val) if a_val is not None else "",
                _fmt(s_val) if s_val is not None else "",
                _fmt(hw) if hw is not None else "",
                str(spec.frames), str(point_seed),
            ]) + "\n")
    return out.getvalue()
