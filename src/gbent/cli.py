"""Command-line interface.

Subcommands:

  analyze    classify a function file (gbent / regular / weakly regular),
             with a per-point (alpha, j, r, dual) table when applicable;
             exit 0 on gbent, 1 otherwise, 2 on input errors.
  construct  build a function file from a construction spec file.
  tables     recompute the bundled reference row-decomposition tables and
             diff them against the golden files; exit 1 on any mismatch.
  spectrum   dump the exact spectrum of a function file.
  enumerate  run the desk-scale bent census / quadratic sweep.
  selftest   run the built-in invariant suites.

Output is written to --output (or stdout), byte-deterministic for a given
input, format, and seed. On input errors nothing is written to the output
stream; the diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from typing import Optional, Sequence

from .classify import RowDecomp, component_row_table, is_gbent, regularity
from .errors import FunctionFormatError
from .gbfunc import (
    ComponentTuple,
    FunctionDoc,
    all_points,
    digits,
    function_to_text,
    index_point,
    load_function,
    point_index,
)
from .construct import build_maiorana, built_function_doc, example_maiorana_q21, \
    example_maiorana_q27, enumerate_pary_bent, load_construction, quadratic_sweep
from .transform import spectrum_records, wht_fast

_REFERENCE_TABLES = {
    "q27": ("table_q27.txt", example_maiorana_q27),
    "q21": ("table_q21.txt", example_maiorana_q21),
}


def _fmt_point(u: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in u) + ")"


def _write_output(lines: list[str], path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- analyze -------------------------------------------------------------------


def _analyze_lines(doc: FunctionDoc, fmt: str) -> tuple[list[str], bool]:
    f = doc.function
    reg = regularity(f)
    gb, forms = reg.gbent, reg.spectral

    lines: list[str] = []
    source = "components" if doc.components is not None else "table"
    if reg.verdict == "regular":
        verdict = "gbent, regular (alpha = +1)"
    elif reg.verdict == "weakly_regular":
        verdict = f"gbent, weakly regular (alpha = {reg.alpha})"
    elif reg.verdict == "not_weakly_regular":
        verdict = "gbent, not weakly regular"
    else:
        verdict = "not gbent"
    if fmt == "text":
        lines.append(
            f"function: p={f.p} n={f.n} q={f.q} points={len(f.table)} source={source}"
        )
        lines.append(f"verdict: {verdict}")
    else:
        lines.append(f"function\tp={f.p}\tn={f.n}\tq={f.q}\tsource={source}")
        lines.append(f"verdict\t{verdict}")
    if not gb:
        witnesses = " ".join(_fmt_point(u) for u in gb.failures)
        lines.append(f"failing points ({len(gb.failures)}): {witnesses}")
        return lines, False
    comps = doc.components
    if comps is None and f.is_prime_power:
        comps = digits(f)
    rows: Optional[tuple[Optional[RowDecomp], ...]] = None
    if comps is not None:
        rows = component_row_table(comps)
    if forms.failures:
        witnesses = " ".join(_fmt_point(u) for u in forms.failures)
        lines.append(
            f"unmatched spectral values ({len(forms.failures)}): {witnesses}"
        )
    if fmt == "text":
        lines.append("per-point spectral data:")
    lines.append("point\talpha\tj\tr\tdual")
    points = all_points(f.p, f.n)
    for u in range(len(points)):
        form = forms.forms[u]
        alpha = form.alpha if form else "-"
        dual = str(form.dual) if form else "-"
        if rows is not None and rows[u] is not None:
            j, r = str(rows[u].j), str(rows[u].row)
        else:
            j = r = "-"
        lines.append(f"{_fmt_point(points[u])}\t{alpha}\t{j}\t{r}\t{dual}")
    return lines, True


def cmd_analyze(args) -> int:
    try:
        doc = load_function(args.input)
    except OSError as e:
        print(f"analyze: cannot read {args.input}: {e}", file=sys.stderr)
        return 2
    except FunctionFormatError as e:
        print(f"analyze: {args.input}: {e}", file=sys.stderr)
        return 2
    lines, ok = _analyze_lines(doc, args.format)
    _write_output(lines, args.output)
    return 0 if ok else 1


# -- construct -------------------------------------------------------------------


def cmd_construct(args) -> int:
    try:
        spec = load_construction(args.input)
    except OSError as e:
        print(f"construct: cannot read {args.input}: {e}", file=sys.stderr)
        return 2
    except FunctionFormatError as e:
        print(f"construct: {args.input}: {e}", file=sys.stderr)
        return 2
    doc = built_function_doc(spec)
    text = function_to_text(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- tables ----------------------------------------------------------------------


def _load_golden_rows(name: str, golden_dir: Optional[str]):
    filename, _ = _REFERENCE_TABLES[name]
    if golden_dir:
        with open(f"{golden_dir}/{filename}", "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files("gbent").joinpath(f"data/{filename}").read_text()
    rows = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise FunctionFormatError(f"{filename}:{lineno}: expected 7 fields")
        u = tuple(int(v) for v in parts[:4])
        rows[u] = (parts[4], int(parts[5]), int(parts[6]))
    return rows


def _reference_rows(name: str, golden_dir: Optional[str]):
    """One bundled example's tuple, its computed row table and its golden rows."""
    _, make_spec = _REFERENCE_TABLES[name]
    t = build_maiorana(make_spec())
    return t, component_row_table(t), _load_golden_rows(name, golden_dir)


def _diff_rows(t: ComponentTuple, decomps, golden):
    """(mismatches, labeling) of a computed row table against golden rows."""

    def diff(relabel):
        out = []
        for u, expected in sorted(golden.items()):
            d = decomps[point_index(t.p, u)]
            if d is None:
                out.append((u, expected, None))
                continue
            got = (d.alpha, d.j, relabel(d.row))
            if got != expected:
                out.append((u, expected, got))
        return out

    identity = diff(lambda r: r)
    if not identity:
        return [], "identity"
    reversed_ = diff(lambda r: point_index(t.p, index_point(t.p, t.k - 1, r)[::-1]))
    if not reversed_:
        return [], "digit-reversed"
    return identity, "identity"


def compare_reference_tables(name: str, golden_dir: Optional[str] = None):
    """Recompute one bundled table and diff against its golden rows.

    Returns (mismatches, labeling): mismatches is a list of
    (u, expected, computed); labeling is "identity" or "digit-reversed",
    whichever matches (identity preferred; a single global row relabeling
    is the only tolerated difference).
    """
    return _diff_rows(*_reference_rows(name, golden_dir))


def cmd_tables(args) -> int:
    lines: list[str] = []
    any_mismatch = False
    try:
        for name in ("q27", "q21"):
            t, decomps, golden = _reference_rows(name, args.golden)
            mismatches, labeling = _diff_rows(t, decomps, golden)
            undecomposed = sum(1 for d in decomps if d is None)
            # Reference-table order: the first coordinate varies fastest.
            points = [
                tuple(reversed(index_point(t.p, t.n, i))) for i in range(t.p**t.n)
            ]
            if args.format == "text":
                lines.append(
                    f"table {name}: p={t.p} n={t.n} q={t.q}, "
                    f"component vectors as alpha * z3^j * H9[r]"
                )
                for u in points:
                    d = decomps[point_index(t.p, u)]
                    if d is None:
                        lines.append(f"{_fmt_point(u)}\t<no decomposition>")
                        continue
                    prefix = "" if d.alpha == "+1" else f"{d.alpha}*"
                    power = "" if d.j == 0 else f"z3^{d.j}*"
                    lines.append(f"{_fmt_point(u)}\t{prefix}{power}H9[{d.row}]")
            else:
                for u in points:
                    d = decomps[point_index(t.p, u)]
                    alpha, j, r = (d.alpha, d.j, d.row) if d else ("-", "-", "-")
                    lines.append(
                        f"{name}\t{','.join(str(v) for v in u)}\t{alpha}\t{j}\t{r}"
                    )
            summary = (
                f"table {name}: {len(golden)} golden rows, "
                f"{len(mismatches)} mismatches, {undecomposed} undecomposed points "
                f"(row labeling: {labeling})"
            )
            lines.append(summary)
            if mismatches or undecomposed:
                any_mismatch = True
                for u, expected, got in mismatches:
                    lines.append(f"  differs at {_fmt_point(u)}: golden={expected} computed={got}")
    except (OSError, FunctionFormatError) as e:
        print(f"tables: {e}", file=sys.stderr)
        return 2
    _write_output(lines, args.output)
    return 1 if any_mismatch else 0


# -- spectrum --------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    try:
        doc = load_function(args.input)
    except OSError as e:
        print(f"spectrum: cannot read {args.input}: {e}", file=sys.stderr)
        return 2
    except FunctionFormatError as e:
        print(f"spectrum: {args.input}: {e}", file=sys.stderr)
        return 2
    f = doc.function
    s = wht_fast(f)
    lines = []
    if args.format == "text":
        lines.append(
            f"spectrum: p={f.p} n={f.n} q={f.q} modulus={s.modulus} "
            f"(values are unnormalized, S = p^(n/2) H)"
        )
        for u, text, norm in spectrum_records(s):
            lines.append(f"u={_fmt_point(u)} S={text} norm={norm}")
    else:
        for u, text, norm in spectrum_records(s):
            lines.append(f"{','.join(str(v) for v in u)}\t{text}\t{norm}")
    _write_output(lines, args.output)
    return 0


# -- enumerate -------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    p, n, q = args.p, args.n, args.q if args.q is not None else args.p
    if q != p:
        print(f"enumerate: census runs at q = p only, got q={q}", file=sys.stderr)
        return 2
    lines = []
    if (p, n) == (3, 1):
        census = enumerate_pary_bent(3, 1)
        lines.append(f"{len(census)} bent / {3 ** 3} total")
        for g in census:
            lines.append(",".join(str(v) for v in g.table))
    elif (p, n) == (3, 2):
        sweep = quadratic_sweep(3)
        bent = [g for g in sweep if is_gbent(g.as_gbfunction())]
        lines.append(
            f"{len(bent)} bent / {len(sweep)} tested (quadratic-plus-affine sweep)"
        )
        for g in bent:
            lines.append(",".join(str(v) for v in g.table))
    else:
        print(
            f"enumerate: supported envelopes are (p,n) = (3,1) census and "
            f"(3,2) quadratic sweep; got ({p},{n})",
            file=sys.stderr,
        )
        return 2
    _write_output(lines, args.output)
    return 0


# -- selftest --------------------------------------------------------------------


def cmd_selftest(args) -> int:
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
    _write_output(lines, args.output)
    return 0 if failures == 0 else 1


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
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build a function file from a spec file")
    p.add_argument("--input", required=True, help="construction spec file (JSON)")
    p.add_argument("--output", help="write the function file here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("tables", help="reproduce and diff the bundled reference tables")
    p.add_argument("--golden", help="directory with golden table files")
    add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("spectrum", help="dump the exact spectrum of a function file")
    p.add_argument("--input", required=True, help="function file (JSON)")
    add_common(p, jobs=True)
    p.set_defaults(func=cmd_spectrum)

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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
