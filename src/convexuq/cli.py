"""Command-line front end.

Subcommands: build, assess, project, sample, verify, reliability.
Exit codes: 0 success, 2 input or validation error, 3 numeric failure.
Row and variable indices printed by or passed to the CLI are 1-based;
the library API underneath is 0-based throughout. Library warnings
(DegenerateData, IllConditioned) are printed as `warning: ...` lines on
stdout after the subcommand's own output.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .correlation import (
    ESTIMATORS,
    CorrelationMatrix,
    ModelVariant,
    ensure_positive_definite,
    fit_correlation_matrix,
)
from .dataio import (
    read_intervals_csv,
    read_matrix_csv,
    read_samples_csv,
    read_text,
    write_samples_csv,
)
from .domain import regularize
from .errors import ConvexUQError, IndexOutOfRange, InputError, NumericError
from .expr import parse_limit_state
from .models import build_model, fitness, load_model, project_2d, save_model
from .reliability import ReliabilityOptions, reliability_index
from .sampling import ccc_recovery_report, sample_uniform, verify_unbiasedness
from .svg import render_projection

__all__ = ["main"]


@contextmanager
def _stage(name: str):
    """Prefix validation failures with the pipeline step they came from."""
    try:
        yield
    except (InputError, OSError, ValueError) as exc:
        raise InputError(f"{name}: {exc}") from exc


def _print_matrix(matrix: np.ndarray, decimals: int = 4) -> None:
    for row in np.asarray(matrix):
        print("  " + "  ".join(f"{v:{decimals + 5}.{decimals}f}" for v in row))


def cmd_build(args: argparse.Namespace) -> int:
    with _stage("data prep"):
        spec = read_intervals_csv(args.intervals)
        samples = read_samples_csv(args.samples)
    variant = ModelVariant(args.variant)
    with _stage("regularization"):
        reg = regularize(spec, samples)
    with _stage("correlation"):
        R = fit_correlation_matrix(
            args.method,
            variant if args.method == "ccc" else None,
            reg.rows,
            on_infeasible="relax",
        )
    with _stage("positive definiteness"):
        R = ensure_positive_definite(R, policy=args.pd)
    with _stage("model build"):
        model = build_model(variant, spec, R)
    report = fitness(model, samples)
    if report.enclosed == 0:
        # e.g. a PD repair that pushed the matrix to near-singular
        raise NumericError(
            f"model build: the {variant.label} model encloses none of the samples "
            f"(kappa 0/{report.total}; characteristic matrix condition number "
            f"{np.linalg.cond(model.characteristic):.3g}); no model written"
        )
    save_model(args.out, model)
    print(f"n = {model.n}")
    print(f"variant = {variant.label}")
    print(f"method = {args.method}")
    print("R =")
    _print_matrix(R.entries)
    print(f"lambda_min = {R.lambda_min:.6g}")
    if R.repair is not None:
        print(
            f"repaired: lambda_min was {R.repair.lambda_min_before:.3e}, "
            f"largest entry change {R.repair.max_entry_change:.3e}"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    with _stage("model load"):
        model = load_model(args.model)
    with _stage("data prep"):
        samples = read_samples_csv(args.samples)
    report = fitness(model, samples)
    print(f"kappa = {report.enclosed}/{report.total}")
    print(f"nu = {100.0 * report.nu:.2f}%")
    print(f"nu_bar = {100.0 * report.nu_bar:.2f}%")
    if report.excluded:
        rows = ", ".join(str(k + 1) for k in report.excluded)
        print(f"excluded sample rows (1-based): {rows}")
    else:
        print("excluded sample rows (1-based): none")
    if args.json:
        import json

        Path(args.json).write_text(json.dumps(asdict(report), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    with _stage("model load"):
        model = load_model(args.model)
    for flag, index in (("--i", args.i), ("--j", args.j)):
        if not 1 <= index <= model.n:
            raise IndexOutOfRange(f"{flag} {index} outside 1..{model.n}")
    if args.i == args.j:
        raise IndexOutOfRange("--i and --j must name two distinct variables")
    i, j = args.i - 1, args.j - 1
    if args.exact:
        # the model operation, defined for the ellipsoid only; a
        # parallelepiped's shadow is a polygon that no 2x2 matrix describes
        sub = project_2d(model, i, j)
        print("projected correlation submatrix =")
        _print_matrix(sub)
    overlay = None
    if args.overlay:
        with _stage("overlay data"):
            overlay = read_samples_csv(args.overlay)
    document = render_projection(model, i, j, overlay)
    Path(args.out).write_text(document + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    with _stage("model load"):
        model = load_model(args.model)
    if args.n < 1:
        raise InputError("sample count must be at least 1")
    draws = sample_uniform(model, args.n, args.seed)
    write_samples_csv(args.out, model.spec.names, draws)
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    variant = ModelVariant(args.variant)
    if args.r is not None:
        if not -1.0 < args.r < 1.0:
            raise InputError("--r must lie strictly between -1 and 1")
        true_r = np.array([[1.0, args.r], [args.r, 1.0]])
    else:
        with _stage("correlation file"):
            true_r = read_matrix_csv(args.corr)
    with _stage("correlation matrix"):
        R = CorrelationMatrix(entries=true_r, method="scc")
    if args.method == "ccc":
        report = ccc_recovery_report(variant, R, args.n, args.seed)
        print("recovered CCC matrix =")
        _print_matrix(report.recovered_R)
        print(
            f"ccc recovery (report only, no pass/fail defined): "
            f"max_shift={report.max_abs_error:.6f}"
        )
        return 0
    report = verify_unbiasedness(variant, R, args.n, args.seed)
    print("recovered SCC matrix =")
    _print_matrix(report.recovered_R)
    print(f"tolerance = {report.tolerance:.6f}")
    print(f"verdict={report.verdict} max_err={report.max_abs_error:.6f}")
    return 0


def _parse_bindings(pairs: list[str]) -> dict[str, float]:
    bindings: dict[str, float] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise InputError(f"binding '{item}' is not of the form name=value")
        try:
            bindings[name] = float(value)
        except ValueError:
            raise InputError(f"binding '{item}' has a non-numeric value") from None
    return bindings


def cmd_reliability(args: argparse.Namespace) -> int:
    with _stage("model load"):
        model = load_model(args.model)
    with _stage("limit state"):
        g = parse_limit_state(read_text(args.g))
    bindings = _parse_bindings(args.bind or [])
    norm = {None: None, "2": "euclidean", "inf": "infinity"}[args.norm]
    options = ReliabilityOptions(bindings=bindings, norm=norm, seed=args.seed)
    result = reliability_index(model, g, options)
    sign = "positive" if result.g_midpoint > 0 else "negative"
    print(f"norm = {result.norm}")
    print(f"g(midpoint) = {result.g_midpoint:.6g} ({sign})")
    print(f"eta = {result.eta:.6f}")
    print("delta* = " + " ".join(f"{v:.6f}" for v in result.delta_star))
    print("x* = " + " ".join(f"{v:.6g}" for v in result.x_star))
    print(f"converged = {'yes' if result.converged else 'no'}")
    print(f"evaluations = {result.evaluations}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexuq",
        description=(
            "Construct, assess, sample, and exploit non-probabilistic convex "
            "uncertainty models (ellipsoid and parallelepiped families)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    variants = [v.value for v in ModelVariant]

    p = sub.add_parser("build", help="fit a convex model from samples and intervals")
    p.add_argument("--samples", required=True, help="sample CSV (header row of names)")
    p.add_argument("--intervals", required=True, help="interval CSV (name,lower,upper)")
    p.add_argument("--variant", required=True, choices=variants)
    p.add_argument("--method", required=True, choices=ESTIMATORS)
    p.add_argument("--pd", default="strict", choices=["strict", "repair"])
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("assess", help="fitness and volume ratios against samples")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("project", help="render a 2D projection as SVG")
    p.add_argument("--model", required=True)
    p.add_argument("--i", required=True, type=int, help="first variable (1-based)")
    p.add_argument("--j", required=True, type=int, help="second variable (1-based)")
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--overlay", help="sample CSV to draw as markers")
    p.add_argument(
        "--exact",
        action="store_true",
        help="also print the exact projected submatrix (ellipsoid models only)",
    )
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("sample", help="draw uniform samples from a model domain")
    p.add_argument("--model", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="sample-and-recover correlation check")
    p.add_argument("--variant", required=True, choices=variants)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, help="single 2x2 coefficient")
    group.add_argument(
        "--corr", help="headerless square numeric CSV holding a full correlation matrix"
    )
    p.add_argument("--n", required=True, type=int, help="draw count")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument(
        "--method",
        default="scc",
        choices=ESTIMATORS,
        help="scc gives the pass/fail verdict; ccc is a report-only demo",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reliability", help="non-probabilistic reliability index")
    p.add_argument("--model", required=True)
    p.add_argument("--g", required=True, help="text file with the limit-state expression")
    p.add_argument(
        "--bind",
        action="append",
        metavar="NAME=VALUE",
        help="constant binding for a non-model name (repeatable)",
    )
    p.add_argument("--norm", choices=["2", "inf"], help="override the natural norm")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reliability)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        # shows every DegenerateData and IllConditioned (both UserWarning);
        # other categories keep the caller's filters, so an "error" filter
        # on RuntimeWarning still raises
        warnings.simplefilter("always", UserWarning)
        try:
            code = args.func(args)
        except NumericError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 3
        except (ConvexUQError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    for item in caught:
        print(f"warning: {item.message}")
    return code


if __name__ == "__main__":
    sys.exit(main())
