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
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .cyclotomic import is_prime
from .errors import FunctionFormatError
from .gbfunc import (
    ComponentTuple,
    FunctionDoc,
    PAryFunction,
    _Record,
    all_points,
    compose,
    read_text,
    smallest_exponent,
)


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
        if self.p < 3 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.q % self.p != 0:
            raise ValueError(f"q={self.q} is not a multiple of p={self.p}")
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "affines", tuple(self.affines))
        if len(self.beta) != self.m:
            raise ValueError(f"need {self.m} quadratic coefficients")
        for b in self.beta:
            # The pairwise sums over (x_i, x_(i+m)) degenerate at beta_i = 0
            # and the result cannot be gbent, so zero is rejected outright.
            if not 1 <= b < self.p:
                raise ValueError(f"beta entries must be nonzero mod {self.p}, got {b}")
        if len(self.affines) != self.k - 1:
            raise ValueError(
                f"q={self.q} needs {self.k - 1} affine components, got {len(self.affines)}"
            )
        for a in self.affines:
            if not 0 <= a.c < self.p:
                raise ValueError(f"affine constant {a.c} out of range")
            if len(a.w) != self.m:
                raise ValueError("affine coefficients must cover the first m variables")
            for wi in a.w:
                if not 0 <= wi < self.p:
                    raise ValueError(f"affine coefficient {wi} out of range")

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def k(self) -> int:
        return smallest_exponent(self.p, self.q)


def build_maiorana(spec: MaioranaSpec) -> ComponentTuple:
    """Component tuple of the instance; compose() honors q."""
    p, m, n = spec.p, spec.m, spec.n
    points = all_points(p, n)
    f0 = PAryFunction(
        p, n,
        tuple(sum(b * x[i] * x[i + m] for i, b in enumerate(spec.beta)) % p for x in points),
    )
    comps = [f0]
    for aff in spec.affines:
        comps.append(
            PAryFunction(
                p, n,
                tuple((aff.c + sum(w * x[i] for i, w in enumerate(aff.w))) % p for x in points),
            )
        )
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
    from .classify import is_gbent
    from .transform import wht_naive

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
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FunctionFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FunctionFormatError("construction file must be a JSON object")
    for field in ("p", "m", "q", "beta", "affines"):
        if field not in obj:
            raise FunctionFormatError(f"missing field {field!r}")
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
