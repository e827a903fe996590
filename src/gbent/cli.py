"""Command-line interface.

Subcommands:

  analyze    classify a function file (gbent / regular / weakly regular),
             with a per-point (alpha, j, r, dual) table when applicable;
             exit 0 on gbent, 1 otherwise.
  construct  build a function file from a construction spec file.
  tables     recompute the bundled reference row-decomposition tables and
             diff them against the golden files; exit 1 on any mismatch.
  spectrum   dump the exact spectrum of a function file.
  enumerate  run the desk-scale bent census / quadratic sweep.
  selftest   run the built-in invariant suites; exit 1 if one fails.

Every subcommand runs through main, which alone writes its output to
--output (or stdout), byte-deterministic for a given input, format, and
seed. Exit codes: 0 and 1 as above; 2 when an input or golden file cannot
be read, the input lies outside what the command accepts, or --output
cannot be written, with "<command>: <reason>" on stderr; 3 when the
command itself fails, with the traceback on stderr. Nothing reaches stdout
unless the command finished, so stdout is empty on every exit 2 and 3.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .classify import analyze, is_gbent
from .errors import FunctionFormatError
from .gbfunc import FunctionDoc, all_points, function_to_text, load_function, point_index
# compare_reference_tables is also reachable here, as cli.compare_reference_tables.
from .construct import _diff_rows, _reference_rows, built_function_doc, \
    compare_reference_tables, enumerate_pary_bent, load_construction, quadratic_sweep
from .transform import spectrum_records, wht_fast


def _fmt_point(u: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in u) + ")"


def _point_labels(p: int, n: int) -> list[str]:
    """The text "x_1,...,x_n" of every point of Z_p^n, in point-index order.

    Built one coordinate at a time: the labels of n coordinates are those
    of n - 1, each followed by every digit.
    """
    digits = [str(d) for d in range(p)]
    labels = digits
    for _ in range(n - 1):
        labels = [f"{label},{d}" for label in labels for d in digits]
    return labels


class _Refusal(Exception):
    """Input a command cannot use; main prints "<command>: <reason>" and exits 2."""


# -- analyze -------------------------------------------------------------------


def cmd_analyze(args, doc: FunctionDoc) -> tuple[list[str], int]:
    f = doc.function
    reg, rows = analyze(doc)
    gb, forms = reg.gbent, reg.spectral

    source = "components" if doc.components is not None else "table"
    verdict = {
        "regular": "gbent, regular (alpha = +1)",
        "weakly_regular": f"gbent, weakly regular (alpha = {reg.alpha})",
        "not_weakly_regular": "gbent, not weakly regular",
        "not_gbent": "not gbent",
    }[reg.verdict]
    if args.format == "text":
        lines = [f"function: p={f.p} n={f.n} q={f.q} points={len(f.table)} source={source}",
                 f"verdict: {verdict}"]
    else:
        lines = [f"function\tp={f.p}\tn={f.n}\tq={f.q}\tsource={source}", f"verdict\t{verdict}"]
    if not gb:
        witnesses = " ".join(_fmt_point(u) for u in gb.failures)
        lines.append(f"failing points ({len(gb.failures)}): {witnesses}")
        return lines, 1
    if forms.failures:
        witnesses = " ".join(_fmt_point(u) for u in forms.failures)
        lines.append(
            f"unmatched spectral values ({len(forms.failures)}): {witnesses}"
        )
    if args.format == "text":
        lines.append("per-point spectral data:")
    lines.append("point\talpha\tj\tr\tdual")
    labels = _point_labels(f.p, f.n)
    for label, form, d in zip(labels, forms.forms, rows or (None,) * len(labels)):
        alpha, dual = (form.alpha, form.dual) if form else ("-", "-")
        j, r = (d.j, d.row) if d else ("-", "-")
        lines.append(f"({label})\t{alpha}\t{j}\t{r}\t{dual}")
    return lines, 0


# -- construct -------------------------------------------------------------------


def cmd_construct(args, spec) -> tuple[str, int]:
    return function_to_text(built_function_doc(spec)), 0


# -- tables ----------------------------------------------------------------------


def cmd_tables(args) -> tuple[list[str], int]:
    lines: list[str] = []
    any_mismatch = False
    try:
        for name in ("q27", "q21"):
            t, decomps, golden = _reference_rows(name, args.golden)
            mismatches, labeling = _diff_rows(t, decomps, golden)
            undecomposed = sum(1 for d in decomps if d is None)
            # Reference-table order: the first coordinate varies fastest.
            points = [u[::-1] for u in all_points(t.p, t.n)]
            if args.format == "text":
                lines.append(
                    f"table {name}: p={t.p} n={t.n} q={t.q}, "
                    f"component vectors as alpha * z3^j * H9[r]"
                )
            for u in points:
                d = decomps[point_index(t.p, u)]
                if args.format != "text":
                    alpha, j, r = (d.alpha, d.j, d.row) if d else ("-", "-", "-")
                    lines.append(
                        f"{name}\t{','.join(str(v) for v in u)}\t{alpha}\t{j}\t{r}"
                    )
                elif d is None:
                    lines.append(f"{_fmt_point(u)}\t<no decomposition>")
                else:
                    prefix = "" if d.alpha == "+1" else f"{d.alpha}*"
                    power = "" if d.j == 0 else f"z3^{d.j}*"
                    lines.append(f"{_fmt_point(u)}\t{prefix}{power}H9[{d.row}]")
            lines.append(
                f"table {name}: {len(golden)} golden rows, "
                f"{len(mismatches)} mismatches, {undecomposed} undecomposed points "
                f"(row labeling: {labeling})"
            )
            if mismatches or undecomposed:
                any_mismatch = True
                for u, expected, got in mismatches:
                    lines.append(f"  differs at {_fmt_point(u)}: golden={expected} computed={got}")
    except (OSError, FunctionFormatError) as e:
        raise _Refusal(e) from None
    return lines, 1 if any_mismatch else 0


# -- spectrum --------------------------------------------------------------------


def cmd_spectrum(args, doc: FunctionDoc) -> tuple[list[str], int]:
    f = doc.function
    s = wht_fast(f)
    lines = []
    records = zip(_point_labels(f.p, f.n), spectrum_records(s))
    if args.format == "text":
        lines.append(
            f"spectrum: p={f.p} n={f.n} q={f.q} modulus={s.modulus} "
            f"(values are unnormalized, S = p^(n/2) H)"
        )
        for label, (_, text, norm) in records:
            lines.append(f"u=({label}) S={text} norm={norm}")
    else:
        for label, (_, text, norm) in records:
            lines.append(f"{label}\t{text}\t{norm}")
    return lines, 0


# -- enumerate -------------------------------------------------------------------


def cmd_enumerate(args) -> tuple[list[str], int]:
    p, n, q = args.p, args.n, args.q if args.q is not None else args.p
    if q != p:
        raise _Refusal(f"census runs at q = p only, got q={q}")
    if (p, n) == (3, 1):
        bent = enumerate_pary_bent(3, 1)
        header = f"{len(bent)} bent / {3 ** 3} total"
    elif (p, n) == (3, 2):
        sweep = quadratic_sweep(3)
        bent = [g for g in sweep if is_gbent(g.as_gbfunction())]
        header = f"{len(bent)} bent / {len(sweep)} tested (quadratic-plus-affine sweep)"
    else:
        raise _Refusal(
            f"supported envelopes are (p,n) = (3,1) census and "
            f"(3,2) quadratic sweep; got ({p},{n})"
        )
    return [header] + [",".join(str(v) for v in g.table) for g in bent], 0


# -- selftest --------------------------------------------------------------------


def cmd_selftest(args) -> tuple[list[str], int]:
    from .selftest import all_checks

    lines = []
    failures = 0
    for name, check in all_checks(args.seed):
        try:
            check()
        except AssertionError as e:
            failures += 1
            lines.append(f"FAIL {name}: {e}")
        else:
            lines.append(f"ok {name}")
    lines.append(
        f"selftest: {len(lines) - failures}/{len(lines)} suites passed (seed={args.seed})"
    )
    return lines, 0 if failures == 0 else 1


# -- parser ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbent",
        description="Exact toolkit for generalized bent functions Z_p^n -> Z_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True, jobs=False, seed=False):
        p.add_argument("--output", help="write output to this path instead of stdout")
        if fmt:
            p.add_argument(
                "--format", choices=("text", "delimited"), default="text",
                help="output layout (default text)",
            )
        if jobs:
            p.add_argument(
                "--jobs", type=_positive_int, default=1,
                help="accepted for compatibility: work runs in one process, "
                "and output is identical for any N",
            )
        if seed:
            p.add_argument(
                "--seed", type=int, default=0, help="seed for randomized sweeps"
            )

    p = sub.add_parser("analyze", help="classify a function file")
    p.add_argument("--input", required=True, help="function file (JSON)")
    add_common(p, jobs=True)
    p.set_defaults(func=cmd_analyze, load=load_function)

    p = sub.add_parser("construct", help="build a function file from a spec file")
    p.add_argument("--input", required=True, help="construction spec file (JSON)")
    p.add_argument("--output", help="write the function file here instead of stdout")
    p.set_defaults(func=cmd_construct, load=load_construction)

    p = sub.add_parser("tables", help="reproduce and diff the bundled reference tables")
    p.add_argument("--golden", help="directory with golden table files")
    add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("spectrum", help="dump the exact spectrum of a function file")
    p.add_argument("--input", required=True, help="function file (JSON)")
    add_common(p, jobs=True)
    p.set_defaults(func=cmd_spectrum, load=load_function)

    p = sub.add_parser("enumerate", help="desk-scale bent census")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, help="target ring (defaults to p)")
    add_common(p, fmt=False)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    add_common(p, fmt=False, seed=True)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand, handing it its --input file loaded, and return the exit
    code; each subcommand returns its output, as lines or as text, and its code."""
    args = build_parser().parse_args(argv)
    try:
        try:
            inputs = [args.load(args.input)] if "load" in args else []
        except OSError as e:
            raise _Refusal(f"cannot read {args.input}: {e}") from None
        except FunctionFormatError as e:
            raise _Refusal(f"{args.input}: {e}") from None
        out, code = args.func(args, *inputs)
        text = out if isinstance(out, str) else "\n".join(out) + "\n"
        if not args.output:
            sys.stdout.write(text)
            return code
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _Refusal(f"cannot write {args.output}: {e.strerror or e}") from None
        return code
    except _Refusal as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # here, so a run that succeeds never pays for the import

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
