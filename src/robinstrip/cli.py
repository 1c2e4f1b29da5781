"""Command-line front end.

Subcommands: spectrum (single-point solve, both sectors), sweep (families
over a/d or (alpha0, alpha1)), wavefunction (sample one bound state on a
grid), oracle (finite-difference cross-check table), existence
(variational test report).  Every subcommand accepts --config FILE plus
flag overrides of the config fields it reads; exit codes are 0 on
success, 2 for configuration errors (an unwritable output directory
among them), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, ContractError, NumericalError
from .modematch import (BoundState, ParitySector, WellConfig, bound_states,
                        minimax_brackets, wavefunction)
from .outputs import (SweepResult, SweepRow, sweep_csv, write_sweep_csv,
                      write_sweep_json, write_wavefunction)
from .svg import write_sweep_svg
from .transverse import transversal_eigenvalues
from .variational import BumpProfile, existence_test

_WELL_FLAGS = ("alpha0", "alpha1", "a", "d")
# 2^22 points: 32 MiB per sampled array, about 200 times the default grid
_MAX_WAVEFUNCTION_POINTS = 2**22


def _format_list(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip())


# Every override flag once, by dest: the config field it sets and its type.
# A subcommand takes only the flags whose fields it reads (_COMMAND_FLAGS).
_OVERRIDES = {
    **{name: ("well", name, float) for name in _WELL_FLAGS},
    "N": ("matching", "N", int),
    "out_dir": ("output", "dir", str),
    "formats": ("output", "formats", _format_list),
    "L": ("oracle", "L", float),
    "refinements": ("oracle", "refinements", int),
}
_SOLVE_FLAGS = (*_WELL_FLAGS, "N", "out_dir")
_COMMAND_FLAGS = {
    "spectrum": (*_SOLVE_FLAGS, "formats"),
    "sweep": (*_SOLVE_FLAGS, "formats"),
    "wavefunction": _SOLVE_FLAGS,
    "oracle": (*_SOLVE_FLAGS, "L", "refinements"),
    "existence": (*_WELL_FLAGS, "out_dir"),
}


def _add_command(sub, command: str, func, summary: str) -> argparse.ArgumentParser:
    """Subcommand command, with --config and the override flags it reads."""
    p = sub.add_parser(command, help=summary)
    p.set_defaults(func=func)
    p.add_argument("--config", help="YAML run configuration")
    for dest in _COMMAND_FLAGS[command]:
        section, field, kind = _OVERRIDES[dest]
        note = " (comma separated)" if kind is _format_list else ""
        p.add_argument("--" + dest.replace("_", "-"), type=kind,
                       help=f"override {section}.{field}{note}")
    return p


def _resolve(args: argparse.Namespace) -> RunConfig:
    over: dict[str, dict] = {}
    for dest, (section, field, _) in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            over.setdefault(section, {})[field] = value
    if args.config:
        cfg = load_config(args.config)
    else:
        well = over.pop("well", {})
        missing = [n for n in _WELL_FLAGS if n not in well]
        if missing:
            raise ConfigError(
                f"without --config the well must be fully specified; missing: {missing}"
            )
        cfg = RunConfig(well=WellConfig(**well))
    for section, fields in over.items():
        cfg = dataclasses.replace(
            cfg, **{section: dataclasses.replace(getattr(cfg, section), **fields)})
    return cfg


def _point_rows(well: WellConfig, states: list[BoundState],
                sweep_value: float) -> list[SweepRow]:
    if not states:
        return []
    E1_out = float(transversal_eigenvalues(well.outer, 1)[0])
    unit = (well.d / np.pi) ** 2
    gap1 = (states[1].lam - states[0].lam if len(states) >= 2
            else E1_out - states[0].lam)
    rows = []
    for i, s in enumerate(states, start=1):
        lo, hi = minimax_brackets(well, i)
        rows.append(SweepRow(sweep_value=sweep_value, sector=s.parity.value, n=i,
                             lam=s.lam, lam_pi2=s.lam * unit, bracket_lo=lo, bracket_hi=hi,
                             gap1=gap1))
    return rows


def _write_result(result: SweepResult, cfg: RunConfig, stem: str,
                  xlabel: str = "a/d") -> list[str]:
    written = []
    for fmt in cfg.output.formats:
        path = os.path.join(cfg.output.dir, f"{stem}.{fmt}")
        if fmt == "csv":
            write_sweep_csv(result, path)
        elif fmt == "json":
            write_sweep_json(result, path)
        elif fmt == "svg":
            write_sweep_svg(result, path, xlabel=xlabel)
        written.append(path)
    return written


def _cmd_spectrum(args: argparse.Namespace, cfg: RunConfig) -> int:
    [states] = bound_states([cfg.well], cfg.matching.N)
    rows = _point_rows(cfg.well, states, cfg.well.a / cfg.well.d)
    result = SweepResult(rows=tuple(rows))
    written = _write_result(result, cfg, "spectrum")
    print(sweep_csv(result), end="")
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep requires a 'sweep' section in the config")
    if cfg.sweep.parameter == "a":
        wells = [dataclasses.replace(cfg.well, a=v * cfg.well.d) for v in cfg.sweep.values]
        values = cfg.sweep.values
    else:
        wells = [dataclasses.replace(cfg.well, alpha0=a0, alpha1=a1) for a0, a1 in cfg.sweep.values]
        values = [a0 for a0, _ in cfg.sweep.values]
    # an a/d sweep's points share their cross-sections and are solved together;
    # map lets go of a point's states before the next run of points is solved,
    # so an alpha_pair sweep holds one mode table at a time
    solved = bound_states(wells, cfg.matching.N)
    rows = [row for point in map(_point_rows, wells, solved, values) for row in point]
    rows.sort(key=lambda r: (r.sweep_value, r.lam))
    result = SweepResult(rows=tuple(rows))
    written = _write_result(result, cfg, f"sweep_{cfg.sweep.parameter}",
                            xlabel="a/d" if cfg.sweep.parameter == "a" else "α0")
    print(f"{len(result.rows)} rows over {len(cfg.sweep.values)} sweep points")
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_wavefunction(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.nx < 2 or args.ny < 2:
        raise ConfigError(f"--nx and --ny must be >= 2, got {args.nx} and {args.ny}")
    if args.nx * args.ny > _MAX_WAVEFUNCTION_POINTS:
        raise ConfigError(f"--nx * --ny = {args.nx * args.ny} exceeds "
                          f"{_MAX_WAVEFUNCTION_POINTS} grid points")
    if args.xmax is not None and not (args.xmax > 0.0 and np.isfinite(args.xmax)):
        raise ConfigError(f"--xmax must be positive and finite, got {args.xmax!r}")
    if args.ordinal < 1:
        raise ConfigError(f"--ordinal must be >= 1, got {args.ordinal}")
    [states] = bound_states([cfg.well], cfg.matching.N)
    if args.ordinal > len(states):
        raise NumericalError(
            f"no bound state with ordinal {args.ordinal}: found {len(states)}"
        )
    state = states[args.ordinal - 1]
    xmax = args.xmax if args.xmax is not None else cfg.well.a + 3.0 * cfg.well.d
    x = np.linspace(-xmax, xmax, args.nx)
    y = np.linspace(0.0, cfg.well.d, args.ny)
    grid = wavefunction(cfg.well, state, x, y)
    path = os.path.join(cfg.output.dir, f"wavefunction_{args.ordinal}.txt")
    write_wavefunction(grid, path)
    wy = np.trapezoid(grid.values**2, y, axis=1)
    moment = float(np.trapezoid(x**2 * wy, x))
    print(f"lambda={state.lam!r} parity={state.parity.value} x_second_moment={moment!r}")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .fdoracle import oracle_bound_states  # scipy.linalg and scipy.fft load only here

    [states] = bound_states([cfg.well], cfg.matching.N)
    ref = oracle_bound_states(cfg.well, cfg.oracle.resolve_L(cfg.well), cfg.oracle.refinements)
    lines = ["sector,index,lambda_matching,lambda_oracle,abs_diff"]
    for parity in ParitySector:
        matched = [s.lam for s in states if s.parity is parity]
        oracle = ref[parity]
        for i in range(max(len(matched), len(oracle))):
            lm = repr(matched[i]) if i < len(matched) else ""
            lo = repr(oracle[i]) if i < len(oracle) else ""
            diff = repr(abs(matched[i] - oracle[i])) if lm and lo else ""
            lines.append(f"{parity.value},{i + 1},{lm},{lo},{diff}")
    table = "\n".join(lines) + "\n"
    path = os.path.join(cfg.output.dir, "oracle_compare.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(table)
    print(table, end="")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_existence(args: argparse.Namespace, cfg: RunConfig) -> int:
    bump = BumpProfile(plateau=args.plateau, support=args.support)
    report = existence_test(cfg.well, bump)
    payload = {
        "first_negative_n": report.first_negative_n,
        "q_first": report.q_first,
        "well_hypothesis": report.well_hypothesis,
        "well": dataclasses.asdict(report.config),
    }
    path = os.path.join(cfg.output.dir, "existence.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    if not report.well_hypothesis:
        verdict = "hypothesis false (alpha1 >= alpha0): no claim"
    elif report.first_negative_n is None:
        verdict = "inconclusive: Q changes sign past the largest binary64 n"
    else:
        verdict = f"bound state certified: Q < 0 at n={report.first_negative_n}"
    print(verdict)
    print(f"wrote {path}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    main call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="robinstrip",
        description="Spectrum of the Robin strip with a rectangular coupling well",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "spectrum", _cmd_spectrum, "bound states at a single configuration")
    _add_command(sub, "sweep", _cmd_sweep, "spectrum along a parameter family")
    p = _add_command(sub, "wavefunction", _cmd_wavefunction, "sample one bound state on a grid")
    p.add_argument("--ordinal", type=int, default=1,
                   help="1-based ordinal in the merged spectrum (default 1)")
    p.add_argument("--xmax", type=float, help="half-width of the x grid (default a + 3d)")
    p.add_argument("--nx", type=int, default=241)
    p.add_argument("--ny", type=int, default=81)
    _add_command(sub, "oracle", _cmd_oracle, "finite-difference cross-check")
    p = _add_command(sub, "existence", _cmd_existence, "variational existence test")
    p.add_argument("--plateau", type=float, default=0.125, help="in units of d")
    p.add_argument("--support", type=float, default=0.25, help="in units of d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        os.makedirs(cfg.output.dir, exist_ok=True)
        return args.func(args, cfg)
    except (ConfigError, ContractError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
