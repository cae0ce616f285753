"""Command-line front end.

Subcommands: ``digits`` (one-shot expansions), ``figure`` (grid images),
``limit`` (sequence limit detection), ``verify`` (acceptance checks).

Exit codes: 0 success/converged, 1 verification failure, 2 bad
arguments or precondition violations, 3 not converged, 4 inconclusive.
The environment variable PADICLAB_BUDGET overrides the default sequence
index caps.  ``limit`` reads it once per run and reports "inconclusive"
(exit 4) when the schedule passes the cap; a value that is not an
integer exits 2 for a capped family and is ignored for an uncapped one.
Output on stdout is byte-deterministic for fixed flags; timings go to
stderr.  Sizes above the MAX_* bounds exit 2 before any work starts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .core import padic_from_rational
from .grids import FIGURE_DEFAULTS, emit_image, figure_grid
from .sequences import index_cap, parse_sequence_spec
from .shear import limit_detect
from .verify import run_checks

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_USAGE = 2
_EXIT_NOT_CONVERGED = 3
_EXIT_INCONCLUSIVE = 4

_LIMIT_EXITS = {
    "converged": _EXIT_OK,
    "not-converged": _EXIT_NOT_CONVERGED,
    "inconclusive": _EXIT_INCONCLUSIVE,
}

# Upper bounds on sizes: digits precision (in base 10 digits, so a
# larger base gets as many digits as fit in a residue of the same
# size); limit precision (from --prec or the spec text) and budget;
# cells, rows x columns, of one figure grid after its presets are
# merged; rows of figures 5 and 6, whose cost grows with rows**2 (row n
# is known to width + 2n digits, or divides numbers of n*log2(n) bits),
# which the cell bound does not limit; for a Bell spec mod b**a, the
# min(m + 1, d) Bell triangle rows at its largest sampled index m, with
# d = b(2a-1) the order of its recurrence: ``bell_mod`` costs
# O(min(m, d)**2 + m*d), and once d is within the bound the index cap
# limits the m*d part (about 3 s at index 2**15, d = 510).
# Worst case measured on a 2-core Intel Xeon:
# ``digits --base 10 --prec 1000000 --int -1 --json``, 17.7 s.
MAX_DIGITS_PRECISION = 10**6
MAX_LIMIT_PRECISION = 4096
MAX_LIMIT_BUDGET = 1024
MAX_BELL_ORDER = 512
MAX_FIGURE_CELLS = 2**23
MAX_QUADRATIC_FIGURE_ROWS = 4096


# Size options of the figures, in the order of their first preset.
_FIGURE_OPTION_NAMES = tuple(
    dict.fromkeys(name for preset in FIGURE_DEFAULTS.values() for name in preset)
)


def _check_bound(what: str, value: int | None, bound: int) -> None:
    if value is not None and value > bound:
        raise ValueError(f"{what} {value} exceeds the limit {bound}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiclab",
        description="exact p-adic expansions, limits, and digit grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    digits = sub.add_parser("digits", help="expand an integer or rational")
    digits.add_argument("--base", "--p", dest="base", type=int, required=True)
    digits.add_argument("--prec", type=int, required=True)
    digits.add_argument("--int", dest="integer", type=int)
    digits.add_argument("--num", type=int)
    digits.add_argument("--den", type=int)
    digits.add_argument("--json", action="store_true")

    figure = sub.add_parser("figure", help="emit a built-in grid image")
    figure.add_argument("--id", type=int, required=True, choices=range(1, 8))
    figure.add_argument("--out", required=True)
    for name in _FIGURE_OPTION_NAMES:
        figure.add_argument("--" + name.replace("_", "-"), type=int)
    figure.add_argument("--json", action="store_true")

    limit = sub.add_parser("limit", help="detect a sequence limit")
    limit.add_argument("spec", help="e.g. power:3,2@2^n or catalan@2^n/2^8")
    limit.add_argument("--prec", type=int)
    limit.add_argument("--budget", type=int, default=16)
    limit.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify", help="run the acceptance checks")
    verify.add_argument("--only", help="run only checks whose name contains this")
    verify.add_argument("--json", action="store_true")

    return parser


def _cmd_digits(args) -> int:
    given_int = args.integer is not None
    given_frac = args.num is not None or args.den is not None
    if given_int == given_frac:
        raise ValueError("give either --int or both --num and --den")
    if given_frac and (args.num is None or args.den is None):
        raise ValueError("--num and --den must be given together")
    _check_bound("precision", args.prec, MAX_DIGITS_PRECISION)
    if args.base > 10:
        if not args.json:
            raise ValueError(
                f"base {args.base} needs --json (digit strings need base <= 10)"
            )
        _check_bound(
            f"precision in base {args.base}",
            args.prec,
            int(MAX_DIGITS_PRECISION * math.log(10) / math.log(args.base)),
        )
    if given_int:
        scalar = padic_from_rational(args.integer, 1, args.base, args.prec)
    else:
        scalar = padic_from_rational(args.num, args.den, args.base, args.prec)
    if args.json:
        print(json.dumps(scalar.to_record(), sort_keys=True))
    else:
        print(scalar.digit_string())
    return _EXIT_OK


def _figure_extension(base: int) -> str:
    return ".pbm" if base == 2 else ".pgm"


def _cmd_figure(args) -> int:
    overrides = {
        name: getattr(args, name)
        for name in _FIGURE_OPTION_NAMES
        if getattr(args, name) is not None
    }
    # An option the figure does not take is rejected by figure_grid.
    get = {**FIGURE_DEFAULTS[args.id], **overrides}.get
    height = get("rows", get("rows_before", 0) + get("rows_after", 0))
    width = get("width", get("int_digits", 0) + get("frac_digits", 0))
    _check_bound("grid cells", height * width, MAX_FIGURE_CELLS)
    if args.id in (5, 6):
        _check_bound("rows", height, MAX_QUADRATIC_FIGURE_ROWS)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise ValueError(f"output directory {out_dir!r} is not writable")
    built = figure_grid(args.id, **overrides)
    if isinstance(built, list):
        stem, _ = os.path.splitext(args.out)
        files = [
            (f"{stem}_{name}{_figure_extension(grid.base)}", grid)
            for name, grid in built
        ]
    else:
        files = [(args.out, built)]
    for path, grid in files:
        emit_image(grid, path)
    if args.json:
        print(
            json.dumps(
                {
                    "files": [
                        {
                            "path": path,
                            "base": grid.base,
                            "width": grid.width,
                            "height": grid.height,
                        }
                        for path, grid in files
                    ]
                },
                sort_keys=True,
            )
        )
    else:
        for path, _ in files:
            print(path)
    return _EXIT_OK


def _cmd_limit(args) -> int:
    spec = parse_sequence_spec(args.spec)
    precision = args.prec if args.prec is not None else spec.precision
    _check_bound("precision", precision, MAX_LIMIT_PRECISION)
    _check_bound("budget", args.budget, MAX_LIMIT_BUDGET)
    if spec.family == "bell" and precision is not None:
        order = spec.reduction_base * (2 * precision - 1)
        last = min(spec.index(max(args.budget - 1, 0)), index_cap("bell"))
        rows = min(order, last + 1)
        _check_bound("Bell triangle rows", rows, MAX_BELL_ORDER)
    report = limit_detect(spec, args.prec, budget=args.budget)
    if args.json:
        print(json.dumps(report.to_record(), sort_keys=True))
    else:
        print(report.outcome)
        if report.limit is not None:
            if report.limit.base <= 10:
                print(f"limit {report.limit.digit_string()}")
            else:
                print(f"limit {list(report.limit.digits)}")
        print("agreement " + " ".join(str(d) for d in report.agreement_depth))
    return _LIMIT_EXITS[report.outcome]


def _cmd_verify(args) -> int:
    results = run_checks(args.only)
    if args.json:
        print(
            json.dumps(
                {
                    "checks": [
                        {"name": name, "passed": ok, "detail": detail}
                        for name, ok, detail, _ in results
                    ],
                    "passed": all(ok for _, ok, _, _ in results),
                },
                sort_keys=True,
            )
        )
    else:
        for name, ok, detail, _ in results:
            line = f"{'PASS' if ok else 'FAIL'} {name}"
            if detail:
                line += f": {detail}"
            print(line)
    for name, _, _, seconds in results:
        print(f"{name}: {seconds:.2f}s", file=sys.stderr)
    return _EXIT_OK if all(ok for _, ok, _, _ in results) else _EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "digits": _cmd_digits,
        "figure": _cmd_figure,
        "limit": _cmd_limit,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
