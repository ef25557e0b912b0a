"""Experiment harness: figure presets, parameter sweeps, CSV emission.

Each grid point produces one ``overall`` row; GAR grid points additionally
produce one row per requested user (per-user AoI is the interesting quantity
there).  Rows are emitted in sorted axis order so that identical specs yield
byte-identical CSV documents.

Every grid point is simulated at the spec's seed.  The simulator derives
its streams from (seed, M), so the points of one M share their channel draws
and distinct M draw unrelated ones; adding a grid point reseeds none of the
others.  :meth:`ExperimentSpec.validate` builds each point's
:class:`SystemConfig` once, and :func:`run_experiment` simulates and prints
those configs.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

from .analytic import closed_form_aoi
from .model import SCHEMES, SystemConfig, db_to_linear
from .simulator import run_many

CSV_HEADER = ("preset,scheme,gen_model,M,T,R,snr_db,user_id,"
              "aoi_analytic,aoi_sim,sim_ci_halfwidth,frames,seed")

_DEFAULT_SNR_GRID = tuple(range(0, 41, 5))
OUTPUTS = ("both", "analytic", "sim")


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep over (scheme, M, T, R, SNR); P_S = P throughout the harness."""

    preset: str = "custom"
    schemes: tuple[str, ...] = SCHEMES
    gen_model: str = "GAW"
    M_values: tuple[int, ...] = (8,)
    T_values: tuple[float, ...] = (1.0,)
    R_values: tuple[float, ...] = (1.0,)
    snr_db_values: tuple[float, ...] = _DEFAULT_SNR_GRID
    users: tuple[int, ...] | None = None   # GAR per-user rows; None = all users
    outputs: str = "both"                  # one of OUTPUTS
    frames: int = 200_000
    seed: int = 1

    def validate(self) -> dict[tuple, SystemConfig]:
        """Reject a bad spec before any point is simulated, and return its
        grid in sorted order: ``(scheme, M, T, R, snr_db) -> SystemConfig``,
        each config at the spec's seed.  The configs hold the per-point rules
        (even M, finite T, R and SNR, known scheme, at least N_BATCHES frames,
        seed >= 0).  Axes must be non-empty and, like ``users``, free of
        duplicates; a non-empty ``users`` applies to GAR only."""
        for name in ("schemes", "M_values", "T_values", "R_values",
                     "snr_db_values", "users"):
            values = getattr(self, name)
            if not values and name != "users":
                raise ValueError(f"{name} must not be empty")
            try:
                check_distinct(values)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        if self.outputs not in OUTPUTS:
            raise ValueError(f"outputs must be one of {OUTPUTS}, got {self.outputs!r}")
        configs = {}
        for scheme, M, T, R, snr in sorted(itertools.product(
                self.schemes, self.M_values, self.T_values, self.R_values,
                map(float, self.snr_db_values))):
            P = db_to_linear(snr)
            configs[scheme, M, T, R, snr] = SystemConfig(
                M=M, T=T, R=R, P=P, P_S=P, scheme=scheme, gen_model=self.gen_model,
                frames=self.frames, seed=self.seed)
        if self.users and self.gen_model != "GAR":
            raise ValueError("users apply to GAR only")
        check_users(self.users, self.M_values)
        return configs


def check_distinct(values: tuple | None) -> tuple | None:
    """values itself, if no two of them are equal."""
    if values and len(set(values)) < len(values):
        raise ValueError(f"duplicate values in {values}")
    return values


def check_users(users: tuple[int, ...] | None, M_values: tuple[int, ...]) -> None:
    """Reject a requested user outside 1..M at some M of the sweep."""
    for M in M_values:
        for u in users or ():
            if not 1 <= u <= M:
                raise ValueError(f"user {u} out of range for M={M}")


# Axis values mirror the reference figure setups; fig5 sweeps M at a small
# documented SNR grid, and the overall-GAR presets sweep two network sizes.
PRESETS: dict[str, ExperimentSpec] = {spec.preset: spec for spec in (
    ExperimentSpec(preset="fig4a", gen_model="GAW", M_values=(8,),
                   R_values=(0.5,), T_values=(0.5, 1.0, 1.5)),
    ExperimentSpec(preset="fig4b", gen_model="GAW", M_values=(8,),
                   R_values=(1.0,), T_values=(0.5, 1.0, 1.5)),
    ExperimentSpec(preset="fig5", gen_model="GAW", M_values=(4, 8, 16, 32),
                   R_values=(1.5,), T_values=(0.5,), snr_db_values=(0, 10, 20)),
    ExperimentSpec(preset="fig6a", gen_model="GAR", M_values=(8,),
                   R_values=(1.0,), T_values=(0.5,), users=(1, 2, 3, 4)),
    ExperimentSpec(preset="fig6b", gen_model="GAR", M_values=(8,),
                   R_values=(1.0,), T_values=(0.5,), users=(5, 6, 7, 8)),
    ExperimentSpec(preset="fig7x", gen_model="GAR", M_values=(8,),
                   R_values=(1.0,), T_values=(0.5,), users=(1, 5)),
    ExperimentSpec(preset="fig7a", gen_model="GAR", M_values=(8, 16),
                   R_values=(0.5,), T_values=(0.5,)),
    ExperimentSpec(preset="fig7b", gen_model="GAR", M_values=(8, 16),
                   R_values=(1.5,), T_values=(0.5,)),
)}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def run_experiment(spec: ExperimentSpec) -> str:
    """Execute the sweep and return the CSV document (header included).  A
    row's ``seed`` column is the spec's seed, so ``run_many`` of the row's
    :class:`SystemConfig` at that seed reproduces it."""
    configs = spec.validate()
    reports = {}
    if spec.outputs != "analytic":
        for M in spec.M_values:
            points = [p for p in configs if p[1] == M]
            reports.update(zip(points, run_many([configs[p] for p in points])))
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for point, c in configs.items():
        scheme, M, T, R, snr = point
        report = reports.get(point)
        users = spec.users if spec.users is not None else range(1, M + 1)
        for user in [None, *(sorted(users) if spec.gen_model == "GAR" else ())]:
            a_val = s_val = hw = ""
            if spec.outputs != "sim":
                a_val = _fmt(closed_form_aoi(scheme, spec.gen_model, M, T,
                                             c.eps, c.P, c.P_S, user))
            if report is not None:
                s_val, hw = map(_fmt, (report.overall_aoi, report.overall_halfwidth)
                                if user is None else
                                (report.per_user_aoi[user - 1],
                                 report.per_user_halfwidth[user - 1]))
            out.write(",".join([
                spec.preset, scheme, spec.gen_model,
                str(M), _fmt(T), _fmt(R), _fmt(snr),
                "overall" if user is None else str(user), a_val, s_val, hw,
                str(spec.frames), str(c.seed),
            ]) + "\n")
    return out.getvalue()
