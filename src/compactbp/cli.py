"""Command-line interface.

Two subcommands share one flag vocabulary::

    compactbp solve --problem linadv-step --order 4 --integrator ms4 \
        --N 100 --T 10 --bp-limiter --tvb 5 --out runs
    compactbp study --problem linadv-sin4 --refine 40,80,160 --T 10 \
        --bp-limiter --out runs

A flat ``key = value`` config file can preload any flag (``--config``);
command-line values override the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .harness import (ConfigError, RunConfig, format_study_table,
                      run_convergence_study, run_single)
from .problems import BUILTIN_IDS
from .timeint import METHODS

_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment.

    Keys are spelled as the flags are (``bp-limiter``, ``N``) and returned
    as ``RunConfig`` field names (``bp_limiter``, ``n``).
    """
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            values["n" if key == "N" else key] = value
    return values


def _coerce(key: str, value: str):
    if key in ("order", "n"):
        return int(value)
    if key in ("T", "tvb", "alpha1", "alpha2"):
        return float(value)
    if key == "refine":
        return tuple(int(tok) for tok in value.split(","))
    if key == "bp_limiter":
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"bad boolean {value!r} for bp-limiter")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value file preloading the flags")
    parser.add_argument("--problem", choices=BUILTIN_IDS)
    parser.add_argument("--order", type=int, choices=(4, 6, 8))
    parser.add_argument("--alpha1", type=float,
                        help="6th-order first-derivative family parameter in (1/3, 5/9]")
    parser.add_argument("--alpha2", type=float,
                        help="6th-order second-derivative family parameter in (2/11, 60/113]")
    parser.add_argument("--integrator", choices=tuple(METHODS))
    parser.add_argument("--T", type=float, help="final time (problem default if omitted)")
    parser.add_argument("--bp-limiter", action="store_const", const=True,
                        dest="bp_limiter", default=None,
                        help="enable the bound-preserving limiter cascade")
    parser.add_argument("--tvb", type=float, metavar="P", nargs="?", const=5.0,
                        help="enable the TVB flux limiter with threshold P*dx^2 "
                             "(default P = 5)")
    parser.add_argument("--dt-scale", choices=("cfl", "dx2"), dest="dt_scale",
                        help="dx2 uses the quadratic convection step for "
                             "temporal-order verification")
    parser.add_argument("--out", help="output directory for CSV files")


def build_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown key {key!r}")
            merged[key] = _coerce(key, raw)
    merged.update((key, value) for key, value in vars(args).items()
                  if key in _CONFIG_KEYS and value is not None)
    if merged.get("problem") is None:
        raise SystemExit("error: --problem is required (flag or config file)")
    return RunConfig(**merged)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compactbp",
        description="Bound-preserving compact finite-difference solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single run with snapshot output")
    _add_common(p_solve)
    p_solve.add_argument("--N", type=int, dest="n", help="grid points (interior points "
                         "for non-periodic problems; per side in 2D)")

    p_study = sub.add_parser("study", help="convergence study over a refinement list")
    _add_common(p_study)
    p_study.add_argument("--refine", type=lambda s: tuple(int(t) for t in s.split(",")),
                         help="comma-separated increasing grid sizes")

    args = parser.parse_args(argv)
    # invalid input is reported in one line; errors raised while stepping
    # keep their traceback
    try:
        config = build_config(args)
    except ValueError as exc:
        return _input_error(exc)

    if args.command == "solve":
        try:
            result, csv_path = run_single(config)
        except ConfigError as exc:
            return _input_error(exc)
        rep = result["report"]
        print(f"problem={config.problem} N={result['n']} steps={result['steps']} "
              f"dt={result['dt']:.6e}")
        print(f"min(u)={result['min_u']:.12e} max(u)={result['max_u']:.12e} "
              f"conservation_drift={result['conservation']:.3e}")
        if "l1" in result:
            print(f"L1={result['l1']:.6e} Linf={result['linf']:.6e}")
        print(f"limiter: modified={rep.modified_count} "
              f"max_displacement={rep.max_displacement:.3e} "
              f"sawtooth_sets={rep.sawtooth_count}")
        if csv_path:
            print(f"wrote {csv_path}")
        return 0

    if not config.refine:
        raise SystemExit("error: study needs --refine n1,n2,...")
    try:
        rows, csv_path = run_convergence_study(config)
    except RuntimeError as exc:
        if not isinstance(exc.__cause__, ConfigError):
            raise
        return _input_error(f"{exc}: {exc.__cause__}")
    print(format_study_table(rows))
    if csv_path:
        print(f"wrote {csv_path}")
    return 0


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
