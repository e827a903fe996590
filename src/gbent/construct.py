"""Generators of gbent functions.

The main family is quadratic-plus-affine on n = 2m variables: the leading
component f_0(x) = sum_i beta_i x_i x_(i+m) with every beta_i nonzero, and
each remaining digit an affine function of the first m variables only.
Every instance composes to a gbent function; the toolkit never takes that
on faith but re-verifies each generated instance through the row criterion
(or the weak-regularity certificate for general q) in its tests.

Digit rewrites that preserve gbent-ness are provided as tuple surgery:
permuting the non-leading components, and restricting to a subset of them
(which lands in a smaller target ring Z_(p^l)). A brute-force census of
p-ary bent functions at desk scale serves as an independent oracle; it
deliberately uses only the naive transform.

The two bundled example instances come with golden row-decomposition
tables (gbent/data); compare_reference_tables recomputes one and diffs it
against its golden rows, for the tables command and selftest alike.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence

from .classify import component_row_table, is_gbent
from .errors import FunctionFormatError
from .gbfunc import (
    ComponentTuple,
    FunctionDoc,
    PAryFunction,
    _checked_vector,
    _pairing_rows,
    _json_object,
    _Record,
    _require_int,
    _validate_params,
    all_points,
    compose,
    index_point,
    point_index,
    read_text,
    smallest_exponent,
)
from .transform import wht_naive


class AffineSpec(_Record):
    """l(x) = c + sum_i w_i x_i over the first m variables."""

    c: int
    w: tuple[int, ...]


class MaioranaSpec(_Record):
    """Parameters of a quadratic-plus-affine instance on Z_p^(2m) -> Z_q."""

    p: int
    m: int
    q: int
    beta: tuple[int, ...]
    affines: tuple[AffineSpec, ...]

    def __post_init__(self):
        _require_int("m", self.m, 1)
        _require_int("p", self.p, 1)
        # Over 2^32 points cannot be held; 2m > 32 is over at p >= 3.
        if self.p >= 3 and (self.n > 32 or self.p**self.n > 2**32):
            raise ValueError(f"p^(2m) = {self.p}^{self.n} points exceed 2^32")
        _validate_params(self.p, self.n, self.q)
        # The pairwise sums over (x_i, x_(i+m)) degenerate at beta_i = 0
        # and the result cannot be gbent, so zero is rejected outright.
        object.__setattr__(self, "beta", _checked_vector("beta", self.beta, self.m, 1, self.p))
        object.__setattr__(self, "affines", tuple(self.affines))
        if len(self.affines) != self.k - 1:
            raise ValueError(
                f"q={self.q} needs {self.k - 1} affine components, got {len(self.affines)}"
            )
        for i, a in enumerate(self.affines):
            _require_int(f"affines[{i}].c", a.c, 0, self.p)
            _checked_vector(f"affines[{i}].w", a.w, self.m, 0, self.p)

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def k(self) -> int:
        return smallest_exponent(self.p, self.q)


def build_maiorana(spec: MaioranaSpec) -> ComponentTuple:
    """Component tuple of the instance; compose() honors q.

    A point (y, z), y and z in Z_p^m, has index y p^m + z, so on the block
    of p^m points with prefix y, f_0 = (beta y).z is the pairing row of the
    vector beta y, and an affine digit is the constant c + w.y.
    """
    p, m, n = spec.p, spec.m, spec.n
    rows = list(_pairing_rows(p, m))
    f0 = chain.from_iterable(
        rows[point_index(p, [b * yi % p for b, yi in zip(spec.beta, y)])]
        for y in all_points(p, m)
    )
    comps = [PAryFunction(p, n, tuple(f0))]
    for aff in spec.affines:
        values = ((aff.c + d) % p for d in rows[point_index(p, aff.w)])
        table = chain.from_iterable(repeat(v, p**m) for v in values)
        comps.append(PAryFunction(p, n, tuple(table)))
    return ComponentTuple(p, n, spec.q, tuple(comps))


def example_maiorana_q27() -> MaioranaSpec:
    """The bundled demonstration instance into Z_27 (p=3, n=4)."""
    return MaioranaSpec(
        p=3, m=2, q=27, beta=(2, 1),
        affines=(AffineSpec(0, (1, 1)), AffineSpec(0, (1, 0))),
    )


def example_maiorana_q21() -> MaioranaSpec:
    """The bundled demonstration instance into Z_21 (p=3, n=4)."""
    return MaioranaSpec(
        p=3, m=2, q=21, beta=(1, 2),
        affines=(AffineSpec(0, (2, 1)), AffineSpec(1, (0, 0))),
    )


# -- bundled reference tables --------------------------------------------------
#
# Each golden file lists the row decomposition of one example instance at
# some points: "u_1 u_2 u_3 u_4 alpha j r" per line, # for comments.

_REFERENCE_TABLES = {
    "q27": ("table_q27.txt", example_maiorana_q27),
    "q21": ("table_q21.txt", example_maiorana_q21),
}


def _load_golden_rows(name: str, golden_dir: Optional[str]):
    filename, make_spec = _REFERENCE_TABLES[name]
    p = make_spec().p
    if golden_dir:
        try:
            text = read_text(f"{golden_dir}/{filename}")
        except FunctionFormatError as e:
            raise FunctionFormatError(f"{filename}: {e}") from None
    else:
        from importlib import resources  # imported only to read a bundled table

        text = resources.files("gbent").joinpath(f"data/{filename}").read_text()
    rows = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise FunctionFormatError(f"{filename}:{lineno}: expected 7 fields")
        try:
            u = tuple(int(v) for v in parts[:4])
            point_index(p, u)
            rows[u] = (parts[4], int(parts[5]), int(parts[6]))
        except ValueError as e:
            raise FunctionFormatError(f"{filename}:{lineno}: {e}") from None
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


def permute_digits(t: ComponentTuple, pi: Sequence[int]) -> ComponentTuple:
    """Reorder the non-leading components: new f_i = old f_pi(i), i >= 1.

    pi is given as pi[i-1] = pi(i) and must be a bijection of {1,..,k-1};
    f_0 never moves.
    """
    pi = tuple(pi)
    if sorted(pi) != list(range(1, t.k)):
        raise ValueError(f"{pi} is not a permutation of 1..{t.k - 1}")
    comps = (t.components[0],) + tuple(t.components[pi[i]] for i in range(t.k - 1))
    return ComponentTuple(t.p, t.n, t.q, comps)


def restrict_digits(t: ComponentTuple, keep: Iterable[int]) -> ComponentTuple:
    """Keep f_0 plus a subset of the non-leading digits; q = p^k only.

    The selected components (ascending index order) become the digits of a
    function into Z_(p^l), l = 1 + len(keep), with f_0 still leading.
    """
    if t.q != t.p**t.k:
        raise ValueError("digit restriction requires q = p^k")
    keep = sorted(set(keep))
    for i in keep:
        if not 1 <= i <= t.k - 1:
            raise ValueError(f"component index {i} out of range 1..{t.k - 1}")
    l = 1 + len(keep)
    comps = (t.components[0],) + tuple(t.components[i] for i in keep)
    return ComponentTuple(t.p, t.n, t.p**l, comps)


def enumerate_pary_bent(p: int, n: int) -> list[PAryFunction]:
    """Exhaustive census of bent functions Z_p^n -> Z_p; oracle-grade.

    Deliberately restricted to the enumerable envelope (p, n) = (3, 1) and
    deliberately driven by the naive transform only, so the census is
    independent of every fast path it may later be used to check.
    """
    if (p, n) != (3, 1):
        raise ValueError(f"census supports (p, n) = (3, 1) only, got ({p}, {n})")
    out = []
    for entries in all_points(p, p**n):
        # Reversed, so the first table entry varies fastest.
        g = PAryFunction(p, n, entries[::-1])
        f = g.as_gbfunction()
        if is_gbent(f, wht_naive(f)):
            out.append(g)
    return out


def quadratic_sweep(p: int = 3) -> list[PAryFunction]:
    """All of beta x_1 x_2 + b_1 x_1 + b_2 x_2 + c on two variables, beta != 0."""
    points = all_points(p, 2)
    return [
        PAryFunction(p, 2, tuple((beta * x * y + b1 * x + b2 * y + c) % p for x, y in points))
        for beta in range(1, p)
        for b1, b2, c in all_points(p, 3)
    ]


# -- construction spec file format ---------------------------------------------
#
# JSON object: {"p": .., "m": .., "q": .., "beta": [..],
#               "affines": [{"c": .., "w": [..]}, ..]}


def parse_construction_text(text: str) -> MaioranaSpec:
    obj = _json_object(text, "construction", ("p", "m", "q", "beta", "affines"))
    try:
        affines = tuple(
            AffineSpec(a["c"], tuple(a["w"])) for a in obj["affines"]
        )
        return MaioranaSpec(obj["p"], obj["m"], obj["q"], tuple(obj["beta"]), affines)
    except (TypeError, KeyError) as e:
        raise FunctionFormatError(f"malformed construction spec: {e}") from None
    except ValueError as e:
        raise FunctionFormatError(str(e)) from None


def construction_to_text(spec: MaioranaSpec) -> str:
    payload = {
        "p": spec.p,
        "m": spec.m,
        "q": spec.q,
        "beta": list(spec.beta),
        "affines": [{"c": a.c, "w": list(a.w)} for a in spec.affines],
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


def load_construction(path: str) -> MaioranaSpec:
    return parse_construction_text(read_text(path))


def built_function_doc(spec: MaioranaSpec) -> FunctionDoc:
    t = build_maiorana(spec)
    return FunctionDoc(compose(t), t)
