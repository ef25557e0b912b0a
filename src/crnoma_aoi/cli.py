"""Command-line entry point.

Subcommands:
  run       -- execute a preset or custom parameter sweep, emit CSV
  validate  -- run the pass/fail validation suite (exit 1 on failure)
  probs     -- Monte Carlo dump of the frame-outcome probabilities vs closed forms

Exit codes: 0 success, 1 a failed validation check, 2 an error, printed as
one ``error:`` line.  Exit 2 is not only a usage error: it is a bad flag, a
``ValueError`` (a bad spec or config-file line), or an ``OSError``, such as
a config file or ``--out`` that cannot be opened, a fork the OS refuses
(``BlockingIOError``) or a ``run_many`` worker that ends without a reply
(``error: run_many worker N sent no result``).  Any command that simulates,
``validate`` included, can exit 2 the last two ways.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .experiments import (OUTPUTS, PRESETS, ExperimentSpec, check_axis,
                          check_distinct, check_gar_users, check_users,
                          run_experiment)
from .model import (GEN_MODELS, check_frames, check_M, check_R, check_scheme, check_seed,
                    check_snr_db, check_T, check_trials, db_to_linear, epsilon_of)
from .validation import LEVELS, partition_table, print_report, run_validation


def _checked(cast):
    """``cast``, whose rejection is reported with the cast's own message."""
    def parse(text):
        try:
            return cast(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    return parse


def _list_of(cast, check=check_axis):
    """Comma-separated tokens, each stripped and cast by ``_checked(cast)``,
    the tuple of them passed by ``check``: by default, a sweep axis."""
    return _checked(lambda text: check(tuple(
        cast(tok) for tok in map(str.strip, text.split(",")) if tok)))


# Each sweep-spec key once: its ``run`` flag and ``add_argument`` keywords.  A
# config file names the key itself and parses it with the same ``type``
# (default str).  ``outputs`` has no flag of its own: --analytic-only and
# --sim-only set it.  ``preset`` selects the base spec instead of overriding.
_SPEC_KEYS = {
    "schemes": ("--schemes", {"type": _list_of(check_scheme), "metavar": "TDMA,CR-NOMA"}),
    "gen_model": ("--gen-model", {"choices": GEN_MODELS}),
    "M_values": ("--M", {"type": _list_of(lambda tok: check_M(int(tok))),
                         "metavar": "4,8"}),
    "T_values": ("--T", {"type": _list_of(lambda tok: check_T(float(tok))),
                         "metavar": "0.5,1.5"}),
    "R_values": ("--R", {"type": _list_of(lambda tok: check_R(float(tok))),
                         "metavar": "0.5,1"}),
    "snr_db_values": ("--snr-db", {"type": _list_of(lambda tok: check_snr_db(float(tok))),
                                   "metavar": "0,5,10"}),
    "users": ("--users", {"type": _list_of(int, check_distinct), "metavar": "1,5"}),
    "outputs": (None, {"choices": OUTPUTS}),
    "frames": ("--frames", {"type": _checked(lambda tok: check_frames(int(tok)))}),
    "seed": ("--seed", {"type": _checked(lambda tok: check_seed(int(tok)))}),
}


def _load_config_file(path: str) -> tuple[dict, dict]:
    """Flat key=value document; '#' starts a comment.  Each line is checked as
    it is read; an error starts ``path:lineno: key:``.  ``preset`` names a
    preset or is empty (none); other keys parse by their ``_SPEC_KEYS`` type,
    which checks each token of a list, and must be among its choices, if it
    has any.  Returns key -> value and key -> line number."""
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            try:
                if not eq:
                    raise ValueError("expected key=value")
                if key == "preset":
                    if value and value not in PRESETS:
                        raise ValueError(f"unknown preset {value!r}; "
                                         f"valid: {sorted(PRESETS)}")
                elif key not in _SPEC_KEYS:
                    raise ValueError("unknown config key")
                else:
                    kwargs = _SPEC_KEYS[key][1]
                    value = kwargs.get("type", str)(value)
                    if "choices" in kwargs and value not in kwargs["choices"]:
                        raise ValueError(f"must be one of {kwargs['choices']}, "
                                         f"got {value!r}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
            values[key], lines[key] = value, lineno
    return values, lines


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Precedence: flag > config file > preset > defaults; the --preset flag
    beats the file's ``preset``."""
    values, lines = _load_config_file(args.config) if args.config else ({}, {})
    file_preset = values.pop("preset", "")
    preset = args.preset or file_preset
    spec = replace(PRESETS[preset] if preset else ExperimentSpec(), **values)
    flags = {key: getattr(args, key) for key in _SPEC_KEYS
             if getattr(args, key) is not None}
    spec = replace(spec, **flags)
    # the rules over two keys, each checked here if the file set either key
    for rule, keys in ((check_gar_users, ("users", "gen_model")),
                       (check_users, ("users", "M_values"))):
        where = [f"{args.config}:{lines[k]}: {k}" for k in keys
                 if k in lines and k not in flags]
        try:
            if where:
                rule(*(getattr(spec, k) for k in keys))
        except ValueError as exc:
            raise ValueError(f"{' and '.join(where)}: {exc}") from None
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    # checked before the sweep; the file is written only once it ends
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise ValueError(f"--out must be a file in an existing directory, got {args.out!r}")
    csv_text = run_experiment(spec)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    given = {"level": args.level, "seed": args.seed}   # unset: run_validation's default
    checks = run_validation(**{k: v for k, v in given.items() if v is not None})
    return 0 if print_report(checks) else 1


def _cmd_probs(args: argparse.Namespace) -> int:
    eps = epsilon_of(args.R)
    P = db_to_linear(args.snr_db)
    P_S = db_to_linear(args.ps_db) if args.ps_db is not None else P
    rows = partition_table(eps, P, P_S, args.trials, np.random.default_rng(args.seed))
    print(f"eps={eps:.6g} P={P:.6g} P_S={P_S:.6g} trials={args.trials}")
    entries = [(f"{group}.{label}", value, e) for group, part, est in rows
               for label, value, e in zip(part._fields, part, est)]
    width = max(len(name) for name, _, _ in entries)
    print(f"{'probability':<{width}}{'closed form':>14}{'monte carlo':>14}{'3sigma':>10}")
    for name, value, e in entries:
        flag = "" if e.covers(value) else "   MISMATCH"
        print(f"{name:<{width}}{value:>14.6f}{e.estimate:>14.6f}"
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
    for key, (flag, kwargs) in _SPEC_KEYS.items():
        if flag:
            p_run.add_argument(flag, dest=key, default=None, **kwargs)
    only = p_run.add_mutually_exclusive_group()
    only.add_argument("--analytic-only", dest="outputs", action="store_const",
                      const="analytic")
    only.add_argument("--sim-only", dest="outputs", action="store_const", const="sim")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--level", choices=LEVELS)
    seed = _SPEC_KEYS["seed"][1]
    p_val.add_argument("--seed", **seed)
    p_val.set_defaults(func=_cmd_validate)

    p_probs = sub.add_parser("probs", help="Monte Carlo probability dump")
    snr_db = _checked(lambda tok: check_snr_db(float(tok)))
    p_probs.add_argument("--R", type=_checked(lambda tok: check_R(float(tok))),
                         default=1.0)
    p_probs.add_argument("--snr-db", dest="snr_db", type=snr_db, default=0.0)
    p_probs.add_argument("--ps-db", dest="ps_db", type=snr_db, default=None)
    p_probs.add_argument("--trials", type=_checked(lambda tok: check_trials(int(tok))),
                         default=1_000_000)
    p_probs.add_argument("--seed", default=0, **seed)
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
