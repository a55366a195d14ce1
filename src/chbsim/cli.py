"""Command-line surface.

Subcommands:
  run <config>               full simulation from a config file
  verify                     built-in acceptance suite (ten checks)
  mms                        manufactured-solution convergence tables
  galerkin <config> --k ...  spectral runs with the k-sweep bound report

Exit code 0 iff everything requested passed; 2 for usage errors such as a
missing config file, an unknown criterion number or a mode cutoff the grid
cannot resolve.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import galerkin, io, verify
from .timestepper import StepFailure


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbsim",
        description="Diffuse-interface tumour-growth simulator and checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("config", help="path to the INI config")

    p_ver = sub.add_parser("verify", help="run the built-in acceptance checks")
    p_ver.add_argument("--only", default="",
                       help="comma-separated criterion numbers (default: all)")

    sub.add_parser("mms", help="manufactured-solution convergence tables")

    p_gal = sub.add_parser("galerkin",
                           help="spectral k-sweep with bound report")
    p_gal.add_argument("config", help="path to the INI config")
    p_gal.add_argument("--k", default=",".join(map(str, verify.GALERKIN_KS)),
                       help="comma-separated mode cutoffs")
    return parser


def _load_config(path: str, parser: argparse.ArgumentParser):
    """Config loading with the CLI error contract (missing file -> 2)."""
    if not Path(path).is_file():
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"chbsim: error: config file not found: {path}", file=sys.stderr)
        return None
    return io.load_config(path)


def _usage_error(message: str) -> int:
    print(f"chbsim: error: {message}", file=sys.stderr)
    return 2


def _int_list(text: str) -> list[int] | None:
    """The integers of a comma-separated list, or None if a token is not one."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        return None


def _cmd_run(args, parser) -> int:
    cfg = _load_config(args.config, parser)
    if cfg is None:
        return 2
    try:
        result, outdir = io.run_from_config(cfg)
    except StepFailure as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        print("partial outputs were written.", file=sys.stderr)
        return 1
    last = result.rows[-1]
    print(f"completed {len(result.reports)} steps to t = {last['t']:g}")
    print(f"energy {result.rows[0]['energy']:.6g} -> {last['energy']:.6g}, "
          f"phi range [{last['phi_min']:.3f}, {last['phi_max']:.3f}]")
    print(f"outputs in {outdir}")
    return 0


def _cmd_verify(args) -> int:
    count = len(verify.CRITERIA)
    indices = _int_list(args.only)
    if indices is None or not all(1 <= i <= count for i in indices):
        return _usage_error(f"--only takes criterion numbers 1 to {count}, "
                            f"got {args.only!r}")
    results = verify.run_all(indices=indices,
                             progress=lambda res: print(res.line(), flush=True))
    return 0 if all(r.passed for r in results) else 1


def _print_order(order: float, bracket: tuple[float, float]) -> bool:
    ok = bracket[0] <= order <= bracket[1]
    print(f"  fitted order = {order:.3f} (expected within {list(bracket)}) "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def _print_order_table(title: str, ns, hs, errs, order) -> bool:
    print(title)
    print("  nx        h             L2 error")
    for n, h, e in zip(ns, hs, errs):
        print(f"  {n:<8d}  {h:<12.6g}  {e:.6e}")
    return _print_order(order, verify.SPACE_ORDER)


def _cmd_mms() -> int:
    sizes = (16, 32, 64, 128)
    hs, errs, order = verify.poisson_convergence(sizes)
    ok = _print_order_table("Neumann-Poisson manufactured solution",
                            sizes, hs, errs, order)
    hs, errs, order = verify.robin_convergence(sizes)
    ok &= _print_order_table("Robin-diffusion manufactured solution",
                             sizes, hs, errs, order)
    dts, gaps, order = verify.coupled_dt_convergence()
    print("coupled one-step self-convergence (fixed horizon)")
    print("  dt            |phi(dt) - phi(dt/2)|_L2")
    for dt, gap in zip(dts[:-1], gaps):
        print(f"  {dt:<12.6g}  {gap:.6e}")
    ok &= _print_order(order, verify.TIME_ORDER)
    return 0 if ok else 1


def _cmd_galerkin(args, parser) -> int:
    cfg = _load_config(args.config, parser)
    if cfg is None:
        return 2
    ks = _int_list(args.k)
    if not ks:
        return _usage_error(f"--k takes comma-separated mode cutoffs, got {args.k!r}")
    ks = sorted(set(ks))
    model = cfg.model_spec()
    try:
        for k in ks:
            galerkin.check_cutoff(k, model.grid)
    except ValueError as exc:
        return _usage_error(f"--k: {exc}")
    phi0, sigma0 = cfg.initial_fields()
    steps = cfg.n_steps
    table = verify.galerkin_sweep(model, phi0, sigma0, ks, cfg.dt, steps, flow=cfg.flow)

    names = list(next(iter(table.values())).keys())
    print(f"bounded quantities over {steps} RK4 steps, dt = {cfg.dt:g}")
    header = "  quantity" + " " * 12 + "".join(f"k={k:<12d}" for k in ks)
    print(header)
    for name in names:
        row = "".join(f"{table[k][name]:<14.6g}" for k in ks)
        print(f"  {name:<20s}{row}")
    ok, worst = verify.k_gap_check(table)
    if len(ks) >= 2:
        print(f"max relative gap between k={ks[-2]} and k={ks[-1]}: {worst:.4f} "
              f"(< 0.2) {'ok' if ok else 'FAIL'}")
    elif not ok:
        print("non-finite quantities encountered FAIL")
    return 0 if ok else 1


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "mms":
            return _cmd_mms()
        if args.command == "galerkin":
            return _cmd_galerkin(args, parser)
    except io.ConfigError as exc:
        print(f"chbsim: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"chbsim: error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
