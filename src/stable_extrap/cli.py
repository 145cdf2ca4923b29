"""Command-line front end: fit, extrapolate, verify, and figure commands.

Input samples are two-column CSV (x, y) on an equispaced grid; outputs are
versioned JSON documents, whose floats read back exactly, or CSV tables.
Exit codes: 0 success, 1 a failed verification check other than the known
false statements (verify.KNOWN_FALSE), 2 bad input or usage, 3 numerical
solver failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .basis import EQUISPACING_TOL, GridKind, SampleSet, clenshaw_eval, make_grid
from .extrapolator import ProblemParams, extrapolate, optimal_degree
from .solver import SolverError, fit
from . import experiments, verify

SCHEMA_VERSION = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Serialization: the stdlib writes each float as its shortest round-trip
# repr, which reads back to the same 64-bit value and keeps integral floats
# floats ("rho": 2.0, not 2). Non-finite values use the NaN/Infinity literals
# that json.loads accepts. _emit calls json_dumps through this module's global
# so that a wrapper installed on it sees every document.
# ---------------------------------------------------------------------------

def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def _emit(document, output: str | None) -> None:
    text = json_dumps(document) + "\n"
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Input
# ---------------------------------------------------------------------------

def read_samples_csv(path: str) -> SampleSet:
    """Parse a two-column x,y CSV into a SampleSet on make_grid's equispaced
    grid, rejecting x columns that miss x_k = 2k/N - 1 by more than 1e-12.
    The first non-blank line is a header if its first cell is not a number;
    empty lines are skipped and cells may be quoted with '"'. Errors cite
    the file's 1-based line."""
    skip = 0  # lines before the first line given to loadtxt
    try:
        with open(path, encoding="utf-8") as fh:
            while not (line := fh.readline()).strip():
                if not line:
                    raise CliError(f"{path}: no data rows")
                skip += 1
            try:
                float(line.split(",", 1)[0].strip().strip('"'))
                fh.seek(0)  # no header: loadtxt reads the file from its start
                skip = 0
            except ValueError:
                skip += 1  # the header
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _loadtxt_error(path, skip, str(exc)) from exc
    if len(data) and data.shape[1] != 2:
        raise _row_error(path, skip, 0, f"expected two columns x,y, got {data.shape[1]}")
    if len(data) < 2:
        raise CliError(f"{path}: need at least two samples")
    x, n = data[:, 0], len(data) - 1
    expected = (grid := make_grid(GridKind.EQUISPACED, n)).points
    mismatch = ~(np.abs(x - expected) <= EQUISPACING_TOL)  # NaN is a mismatch
    if np.any(mismatch):
        k = int(np.argmax(mismatch))
        raise CliError(
            f"{path}: x[{k}] = {float(x[k])!r} does not match the equispaced grid "
            f"point 2*{k}/{n} - 1 = {float(expected[k])!r} to {EQUISPACING_TOL}"
        )
    try:
        return SampleSet(grid, np.ascontiguousarray(data[:, 1]))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _loadtxt_error(path: str, skip: int, msg: str) -> CliError:
    """Restate a loadtxt error at the file line of the bad row. numpy counts
    rows over non-empty lines, from 0 in conversion errors and from 1 in
    column-count errors."""
    if m := re.search(r"changed from (\d+) to (\d+) at row (\d+)", msg):
        first, got, row = map(int, m.groups())
        row, got = (0, first) if first != 2 else (row - 1, got)
        return _row_error(path, skip, row, f"expected two columns x,y, got {got}")
    if m := re.search(r"could not convert (string .*) to float64 at row (\d+), column (\d+)", msg):
        return _row_error(path, skip, int(m[2]), f"column {m[3]}: could not convert {m[1]} to float")
    return CliError(f"{path}: {msg}")


def _row_error(path: str, skip: int, row: int, text: str) -> CliError:
    """`text` cited at data row `row` (0-based over the non-empty lines after
    the first `skip`), as path:line with the file's 1-based line number."""
    with open(path, encoding="utf-8") as fh:
        lines = (i for i, line in enumerate(fh, start=1) if i > skip and line != "\n")
        return CliError(f"{path}:{next(itertools.islice(lines, row, None))}: {text}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    samples = read_samples_csv(args.input)
    auto_fields = {}
    if args.auto:
        if args.M is not None:
            raise CliError("--M conflicts with --auto, which chooses the degree")
        if args.rho is None or args.eps is None or args.Q is None:
            raise CliError("--auto needs --rho, --eps, and --Q")
        try:
            params = ProblemParams(samples.n, args.rho, args.eps, args.Q)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        m_star, regime, degenerate = optimal_degree(params)
        degree = m_star
        auto_fields = {"M_star": m_star, "regime": regime.value,
                       "degenerate": degenerate}
    elif args.M is None:
        raise CliError("either --M or --auto is required")
    else:
        degree = args.M
        for flag in ("rho", "eps", "Q"):
            if getattr(args, flag) is not None:
                raise CliError(f"--{flag} has no effect without --auto")

    try:
        result = fit(samples, degree)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except SolverError as exc:
        raise CliError(str(exc), code=3) from exc

    resid = _residual(samples, result.series.coeffs)
    if not math.isfinite(resid):
        raise CliError(f"{args.input}: the residual of these samples' fit overflows")
    document = {
        "schema": SCHEMA_VERSION,
        "basis": "chebyshev",
        "M": result.m_degree,
        "N": result.n_samples,
        **auto_fields,
        "coeffs": [float(c) for c in result.series.coeffs],
        "gram_cond_estimate": result.gram_cond_estimate,
        "residual": resid,
        "warnings": list(result.warnings),
    }
    _emit(document, args.output)
    return 0


def _residual(samples: SampleSet, coeffs: np.ndarray) -> float:
    """||y - p(x)||_2 over the samples. Where that overflows, y and p are
    scaled by a power of two (exact for normal numbers) and the norm back."""
    x, y = samples.grid.points, samples.values
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(y - clenshaw_eval(coeffs, x)))
        if not math.isfinite(resid):
            e = math.frexp(float(np.max(np.abs(y))))[1]
            scaled = np.ldexp(y, -e) - clenshaw_eval(np.ldexp(coeffs, -e), x)
            resid = float(np.ldexp(np.linalg.norm(scaled), e))
    return resid


def cmd_extrapolate(args) -> int:
    samples = read_samples_csv(args.input)
    if args.rho is None or args.eps is None or args.Q is None:
        raise CliError("extrapolate needs --rho, --eps, and --Q")
    try:
        xs = [float(tok) for tok in args.at.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad --at list: {exc}") from exc
    if not xs:
        raise CliError("--at needs at least one evaluation point")
    try:
        params = ProblemParams(samples.n, args.rho, args.eps, args.Q)
        report = extrapolate(samples, params, xs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except SolverError as exc:
        raise CliError(str(exc), code=3) from exc

    document = {
        "schema": SCHEMA_VERSION,
        "N": samples.n,
        "rho": params.rho,
        "eps": params.eps,
        "Q": params.q,
        "M_star": report.m_star,
        "regime": report.regime.value,
        "degenerate": report.degenerate,
        "sigma_min": report.sigma_min,
        "points": [
            {
                "x": p.x,
                "value": p.value,
                "r": p.r,
                "alpha": p.alpha,
                "bound_explicit": p.bound_explicit,
                "bound_factor": p.bound_asymptotic_factor,
                "regime": report.regime.value,
                "M_star": report.m_star,
            }
            for p in report.points
        ],
    }
    _emit(document, args.output)
    return 0


def cmd_verify(args) -> int:
    if args.suite is None:
        raise CliError("verify needs --suite")
    try:
        results = verify.run_suite(args.suite, m_degree=args.M, n_samples=args.N)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit([asdict(r) for r in results], args.output)
    return 0 if all(r.passed or r.name in verify.KNOWN_FALSE for r in results) else 1


_FIGURE_DEFAULT_RHO = 1.0 + math.sqrt(2.0)
_FIGURE_DEFAULT_EPS = 2.2e-16


def cmd_figure(args) -> int:
    if args.figure is None:
        raise CliError("figure needs --figure {1..5}")
    fig = args.figure
    if fig not in range(1, 6):
        raise CliError(f"unknown figure {fig}; expected 1..5")
    if fig == 4 and args.seed is None:
        raise CliError("figure 4 draws noise and needs --seed for reproducibility")
    for flag, only in (("rho", 1), ("eps", 1), ("seed", 4)):
        if getattr(args, flag) is not None and fig != only:
            raise CliError(f"--{flag} has no effect on figure {fig}")
    if fig == 4 and args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")

    # Every table is computed before the output directory is made, so a
    # refused parameter leaves nothing behind.
    if fig == 1:
        rho = args.rho if args.rho is not None else _FIGURE_DEFAULT_RHO
        eps = args.eps if args.eps is not None else _FIGURE_DEFAULT_EPS
        try:
            profile = experiments.run_alpha_profile(rho, eps, x_count=513).columns
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        tables = {
            "figure1_alpha.csv": experiments.Table("alpha", {
                "x": profile["x"], "alpha": profile["alpha"]}),
            "figure1_factor.csv": experiments.Table("factor", {
                "x": profile["x"], "factor": profile["factor"], "capped": profile["capped"]}),
        }
    elif fig == 2:
        tables = {"figure2_singular_bounds.csv":
                  experiments.run_singular_bounds_sweep(range(10, 402))}
    elif fig == 3:
        xs = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
        tables = {fname: experiments.run_extrapolation_decay(f_id, xs, m_max=40)
                  for f_id, fname in (("inv1px2", "figure3_left.csv"),
                                      ("inv1p2x2", "figure3_right.csv"))}
    elif fig == 4:
        tables = {"figure4_coefficients.csv": experiments.run_noise_plateau(
            m_degree=100, n_list=(40_000, 4_000_000), s=1e-3, seed=args.seed).table}
    else:
        tables = {"figure5_timing.csv": experiments.run_gram_timing(
            m_degree=50, n_list=(10_000, 100_000, 1_000_000))}

    outdir = Path(args.output) if args.output else Path(".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for fname, table in tables.items():
            table.write_csv(outdir / fname)
    except OSError as exc:
        raise CliError(f"cannot write {outdir}: {exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-extrap",
        description=("Stable least-squares polynomial fitting and extrapolation "
                     "from perturbed equispaced samples."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def samples_command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", help="input CSV of x,y samples")
        p.add_argument("--output", help="output file (defaults to stdout)")
        for flag in ("--rho", "--eps", "--Q"):
            p.add_argument(flag, type=float)
        return p

    p_fit = samples_command("fit", "least-squares polynomial fit")
    p_fit.add_argument("--M", type=int, help="fit degree")
    p_fit.add_argument("--auto", action="store_true",
                       help="choose the degree from --rho/--eps/--Q")

    p_ext = samples_command("extrapolate", "evaluate beyond [-1, 1] with bounds")
    p_ext.add_argument("--at", required=True,
                       help="comma-separated evaluation points in [1, (rho+1/rho)/2)")

    p_ver = sub.add_parser("verify", help="run a named inequality suite")
    p_ver.add_argument("--output", help="output file (defaults to stdout)")
    p_ver.add_argument("--suite", help=f"one of: {', '.join(verify.SUITE_NAMES)}")
    p_ver.add_argument("--M", type=int, default=None)
    p_ver.add_argument("--N", type=int, default=None)

    p_fig = sub.add_parser("figure", help="write experiment CSVs")
    p_fig.add_argument("--figure", type=int, help="figure id, 1-5")
    p_fig.add_argument("--output", help="output directory (default: .)")
    p_fig.add_argument("--rho", type=float)
    p_fig.add_argument("--eps", type=float)
    p_fig.add_argument("--seed", type=int, default=None)

    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "extrapolate": cmd_extrapolate,
    "verify": cmd_verify,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "input", None) is None and args.command in ("fit", "extrapolate"):
            raise CliError(f"{args.command} needs --input")
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"stable-extrap: error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
