"""Command-line front end.

Subcommands: ``series`` (invert, quotient, props), ``check``, ``dilate``,
``charfn``, ``verify-all``.  Reports are deterministic JSON on stdout (or
``--out``); wall-clock timing goes to stderr so report bodies stay
byte-identical across runs.  Exit codes: 0 success, 1 mathematical verdict
failure, 2 usage or configuration error, a model too large to build, or a
truncation the weights cannot carry (``HorizonTooShort``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import CaseConfig, parse_case, report_json
from .corpus import corpus_cases
from .errors import (
    BadBeta,
    BlockBudgetExceeded,
    ConfigError,
    HorizonTooShort,
    InvalidWeights,
    NonDecreasingWeights,
    NotCommuting,
    NotContractive,
    WbergError,
)
from .linalg import POSITIVITY_TOL
from .pipelines import run_case
from .series import MultiWeightSpec, check_properties, quotient_coeffs, reciprocal_series

USAGE_ERRORS = (
    BlockBudgetExceeded,
    ConfigError,
    HorizonTooShort,
    InvalidWeights,
    BadBeta,
    NonDecreasingWeights,
    NotContractive,
    NotCommuting,
    ValueError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wberg",
        description="weighted Bergman hypercontraction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    series = sub.add_parser("series", help="weight-sequence series calculus")
    series_sub = series.add_subparsers(dest="series_command", required=True)
    for name in ("invert", "quotient", "props"):
        p = series_sub.add_parser(name)
        p.add_argument("--weights", required=True,
                       help="comma-separated weight specs, e.g. bergman:2,hardy")
        p.add_argument("--terms", type=int, default=32)
        p.add_argument("--out", type=Path)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "quotient":
            p.add_argument("--r", type=float, required=True)
            p.add_argument("--s", type=float, required=True)
        if name == "props":
            p.add_argument("--r-grid", default="0.5,0.75,0.9",
                           help="comma-separated radii")

    def case_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="JSON case configuration")
        p.add_argument("--weights")
        p.add_argument("--tuple", dest="tuple_spec")
        p.add_argument("--tol", type=float, default=POSITIVITY_TOL)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path)
        p.add_argument("--format", choices=("json", "text"), default="json")

    check = sub.add_parser("check", help="hypercontractivity classification")
    case_flags(check)
    check.add_argument("--gamma", help="comma-separated integer exponents")

    dilate = sub.add_parser("dilate", help="dilation construction and verification")
    case_flags(dilate)
    mode = dilate.add_mutually_exclusive_group()
    mode.add_argument("--pure", action="store_true")
    mode.add_argument("--general", action="store_true")

    charfn = sub.add_parser("charfn", help="characteristic-function suite")
    case_flags(charfn)

    verify = sub.add_parser("verify-all", help="run the bundled verification corpus")
    verify.add_argument("--out", type=Path)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def render_text(value, indent: int = 0) -> list[str]:
    """Plain structured-text outline of a report (deterministic ordering)."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(render_text(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub!r}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item!r}")
    else:
        lines.append(f"{pad}{value!r}")
    return lines


def _emit(report: dict, out: Path | None, fmt: str) -> None:
    if fmt == "text":
        from .config import _sanitize

        text = "\n".join(render_text(_sanitize(report)))
    else:
        text = report_json(report)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        out.write_text(text + "\n")


def _full_check_run(case: CaseConfig) -> tuple[str, ...]:
    """The classification command also cross-checks the equivalent criterion
    (for integer binomial-type weights) and the sub-tuple inheritance."""
    run = ["check", "subtuple"]
    if case.weights.integer_betas() is not None:
        run.insert(1, "equivalence")
    return tuple(run)


def _case_from_args(args, default_run: tuple[str, ...]) -> tuple[CaseConfig, bool]:
    """Build the case; the second value says whether the run list was explicit."""
    if args.config is not None:
        data = json.loads(args.config.read_text())
        explicit = "run" in data
        if not explicit:
            data["run"] = list(default_run)
        return parse_case(data, name=args.config.stem), explicit
    if not args.weights:
        raise ConfigError("either --config or --weights is required")
    data = {"weights": args.weights, "run": list(default_run), "tol": args.tol,
            "seed": args.seed}
    if args.tuple_spec:
        data["tuple"] = args.tuple_spec
    if getattr(args, "gamma", None):
        data["gamma"] = [int(v) for v in args.gamma.split(",")]
    return parse_case(data, name="cli"), False


def _run_series(args) -> int:
    w = MultiWeightSpec.parse(args.weights)
    if args.series_command == "invert":
        series = reciprocal_series(w, args.terms)
        _emit(series.to_dict(), args.out, args.format)
        return 0
    if args.series_command == "quotient":
        if w.n != 1:
            raise ConfigError("quotient coefficients are one-variable")
        coeffs = quotient_coeffs(w[0], args.r, args.s, args.terms)
        out = {"weights": w.text, "r": args.r, "s": args.s,
               "coeffs": [float(v) for v in coeffs]}
        _emit(out, args.out, args.format)
        return 0
    grid = [float(v) for v in args.r_grid.split(",")]
    rep = check_properties(w, grid, args.terms)
    out = {
        "weights": w.text,
        "p1_ok": rep.p1_ok,
        "p1_min": rep.p1_min,
        "p2_bound": rep.p2_bound,
        "p3_abs_sum": rep.p3_abs_sum,
        "liminf_assumed": rep.liminf_assumed,
    }
    _emit(out, args.out, args.format)
    return 0 if rep.p1_ok else 1


def _run_single_case(args, default_run, expand_check: bool = False) -> int:
    case, explicit_run = _case_from_args(args, default_run)
    if expand_check and not explicit_run:
        case.run = _full_check_run(case)
    base = args.config.parent if args.config is not None else None
    ok, report = run_case(case, base_dir=base)
    _emit(report, args.out, args.format)
    return 0 if ok else 1


def _run_verify_all(args) -> int:
    reports = []
    all_ok = True
    for data in corpus_cases():
        case = parse_case(dict(data), name=data["name"])
        if args.seed:
            case.seed += args.seed
        ok, report = run_case(case)
        reports.append(report)
        all_ok = all_ok and ok
    body = {"corpus": reports, "verdict": all_ok, "cases": len(reports)}
    _emit(body, args.out, args.format)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "series":
            code = _run_series(args)
        elif args.command == "check":
            code = _run_single_case(args, ("check",), expand_check=True)
        elif args.command == "dilate":
            run = ("dilate-general",) if args.general else ("dilate-pure",)
            code = _run_single_case(args, run)
        elif args.command == "charfn":
            code = _run_single_case(args, ("charfn",))
        else:
            code = _run_verify_all(args)
    except USAGE_ERRORS as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except WbergError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    sys.stderr.write(f"elapsed: {time.monotonic() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
