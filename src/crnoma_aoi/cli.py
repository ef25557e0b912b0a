"""Command-line entry point.

Subcommands:
  run       -- execute a preset or custom parameter sweep, emit CSV
  validate  -- run the pass/fail validation suite (exit 1 on failure)
  probs     -- Monte Carlo dump of the frame-outcome probabilities vs closed forms

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import analytic, oracle
from .experiments import PRESETS, ExperimentSpec, preset_spec, run_experiment
from .model import db_to_linear, epsilon_of
from .validation import print_report, run_validation


def _parse_list(text: str, cast):
    return tuple(cast(tok) for tok in text.split(",") if tok.strip())


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key=value document; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_SPEC_PARSERS = {
    "preset": str,
    "schemes": lambda s: _parse_list(s, str),
    "gen_model": str,
    "M_values": lambda s: _parse_list(s, int),
    "T_values": lambda s: _parse_list(s, float),
    "R_values": lambda s: _parse_list(s, float),
    "snr_db_values": lambda s: _parse_list(s, float),
    "users": lambda s: _parse_list(s, int),
    "outputs": str,
    "frames": int,
    "warmup": int,
    "seed": int,
}


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    if args.preset:
        spec = preset_spec(args.preset)
    else:
        spec = ExperimentSpec()
    if args.config:
        overrides = {}
        for key, raw in _load_config_file(args.config).items():
            if key == "preset":
                spec = preset_spec(raw)
                continue
            if key not in _SPEC_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            overrides[key] = _SPEC_PARSERS[key](raw)
        spec = replace(spec, **overrides)
    cli_overrides = {}
    for key in ("schemes", "gen_model", "M_values", "T_values", "R_values",
                "snr_db_values", "users", "frames", "warmup", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            cli_overrides[key] = value
    if args.analytic_only:
        cli_overrides["outputs"] = "analytic"
    if args.sim_only:
        cli_overrides["outputs"] = "sim"
    return replace(spec, **cli_overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    csv_text = run_experiment(spec)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = run_validation(level=args.level, seed=args.seed)
    return 0 if print_report(checks) else 1


def _cmd_probs(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    eps = epsilon_of(args.R)
    P = db_to_linear(args.snr_db)
    P_S = db_to_linear(args.ps_db) if args.ps_db is not None else P
    rng = np.random.default_rng(args.seed)
    gaw = analytic.gaw_partition(eps, P, P_S)
    gm = analytic.gar_partition_user_m(eps, P, P_S)
    gp = analytic.gar_partition_user_mprime(eps, P, P_S)
    est_gaw = oracle.estimate_gaw_partition(eps, P, P_S, args.trials, rng)
    est_gm, est_gp = oracle.estimate_gar_partitions(eps, P, P_S, args.trials, rng)
    print(f"eps={eps:.6g} P={P:.6g} P_S={P_S:.6g} trials={args.trials}")
    print(f"{'probability':<18}{'closed form':>14}{'monte carlo':>14}{'3sigma':>10}")
    names = [("gaw", gaw, est_gaw), ("gar_user_m", gm, est_gm),
             ("gar_user_mprime", gp, est_gp)]
    labels = ("p0", "p_first", "p_second")
    for group, part, est in names:
        for label, value, e in zip(labels, part.astuple(), est):
            flag = "" if e.covers(value) else "   MISMATCH"
            print(f"{group}.{label:<12}{value:>14.6f}{e.estimate:>14.6f}"
                  f"{e.half_width:>10.6f}{flag}")
    if P != P_S:
        print("note: closed forms are certified for P = P_S; the Monte Carlo "
              "column reflects the protocol events themselves")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnoma-aoi",
        description="AoI analysis and simulation for TDMA / CR-NOMA uplinks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a parameter sweep, emit CSV")
    p_run.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_run.add_argument("--config", metavar="FILE", help="flat key=value config file")
    p_run.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--frames", type=int, default=None)
    p_run.add_argument("--warmup", type=int, default=None)
    p_run.add_argument("--analytic-only", action="store_true")
    p_run.add_argument("--sim-only", action="store_true")
    p_run.add_argument("--schemes", type=lambda s: _parse_list(s, str), default=None,
                       metavar="TDMA,CR-NOMA")
    p_run.add_argument("--gen-model", dest="gen_model", choices=("GAW", "GAR"),
                       default=None)
    p_run.add_argument("--M", dest="M_values", type=lambda s: _parse_list(s, int),
                       default=None, metavar="4,8")
    p_run.add_argument("--T", dest="T_values", type=lambda s: _parse_list(s, float),
                       default=None, metavar="0.5,1.5")
    p_run.add_argument("--R", dest="R_values", type=lambda s: _parse_list(s, float),
                       default=None, metavar="0.5,1")
    p_run.add_argument("--snr-db", dest="snr_db_values",
                       type=lambda s: _parse_list(s, float), default=None,
                       metavar="0,5,10")
    p_run.add_argument("--users", type=lambda s: _parse_list(s, int), default=None,
                       metavar="1,5")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--level", choices=("fast", "full"), default="fast")
    p_val.add_argument("--seed", type=int, default=7)
    p_val.set_defaults(func=_cmd_validate)

    p_probs = sub.add_parser("probs", help="Monte Carlo probability dump")
    p_probs.add_argument("--R", type=float, default=1.0)
    p_probs.add_argument("--snr-db", dest="snr_db", type=float, default=0.0)
    p_probs.add_argument("--ps-db", dest="ps_db", type=float, default=None)
    p_probs.add_argument("--trials", type=int, default=1_000_000)
    p_probs.add_argument("--seed", type=int, default=0)
    p_probs.set_defaults(func=_cmd_probs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
