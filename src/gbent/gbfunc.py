"""Generalized Boolean functions f: Z_p^n -> Z_q and their digit components.

A function is stored as a truth table of length p^n indexed by the
big-endian point index (x_1 is the most significant digit). Values are
validated eagerly at construction; nothing is ever silently reduced mod q.

For q = p^k a function splits into base-p digit components f_0 .. f_(k-1)
with f_0 carrying the highest weight p^(k-1). For general q divisible by p
(p^(k-1) < q < p^k) the composition rule gives f_0 the weight q/p instead,
which is the one coefficient for which zeta_q^((q/p) f_0) = zeta_p^(f_0);
decomposing a bare value table is not well-defined in that case, so
analysis flows for general q start from an explicit component tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .cyclotomic import is_prime
from .errors import FunctionFormatError


def point_index(p: int, x: Sequence[int]) -> int:
    """Big-endian rank of a point of Z_p^n (x_1 most significant)."""
    idx = 0
    for xi in x:
        if not 0 <= xi < p:
            raise ValueError(f"coordinate {xi} out of range for Z_{p}")
        idx = idx * p + xi
    return idx


def index_point(p: int, n: int, idx: int) -> tuple[int, ...]:
    """Inverse of point_index."""
    if not 0 <= idx < p**n:
        raise ValueError(f"index {idx} out of range for Z_{p}^{n}")
    out = []
    for _ in range(n):
        out.append(idx % p)
        idx //= p
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def all_points(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All points of Z_p^n in point-index order."""
    return tuple(index_point(p, n, i) for i in range(p**n))


def smallest_exponent(p: int, q: int) -> int:
    """The smallest k with q <= p^k."""
    k, power = 1, p
    while power < q:
        k += 1
        power *= p
    return k


def _validate_params(p: int, n: int, q: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if q < 1 or q % p != 0:
        raise ValueError(f"q must be a positive multiple of p, got q={q}")


@dataclass(frozen=True)
class GBFunction:
    """A function Z_p^n -> Z_q as a validated truth table."""

    p: int
    n: int
    q: int
    table: tuple[int, ...]

    def __post_init__(self):
        _validate_params(self.p, self.n, self.q)
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.p**self.n:
            raise ValueError(
                f"table length {len(self.table)} != {self.p}^{self.n}"
            )
        for i, v in enumerate(self.table):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.q:
                raise ValueError(f"table[{i}] = {v!r} is not in [0, {self.q})")

    @property
    def k(self) -> int:
        return smallest_exponent(self.p, self.q)

    @property
    def is_prime_power(self) -> bool:
        return self.q == self.p**self.k


@dataclass(frozen=True)
class PAryFunction:
    """A function Z_p^n -> Z_p."""

    p: int
    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        _validate_params(self.p, self.n, self.p)
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.p**self.n:
            raise ValueError(
                f"table length {len(self.table)} != {self.p}^{self.n}"
            )
        for i, v in enumerate(self.table):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.p:
                raise ValueError(f"table[{i}] = {v!r} is not in [0, {self.p})")

    def as_gbfunction(self) -> GBFunction:
        return GBFunction(self.p, self.n, self.p, self.table)


@dataclass(frozen=True)
class ComponentTuple:
    """Digit components (f_0, ..., f_(k-1)) of a function into Z_q."""

    p: int
    n: int
    q: int
    components: tuple[PAryFunction, ...]

    def __post_init__(self):
        _validate_params(self.p, self.n, self.q)
        object.__setattr__(self, "components", tuple(self.components))
        k = smallest_exponent(self.p, self.q)
        if len(self.components) != k:
            raise ValueError(
                f"q={self.q} needs exactly {k} components, got {len(self.components)}"
            )
        for i, c in enumerate(self.components):
            if (c.p, c.n) != (self.p, self.n):
                raise ValueError(
                    f"component {i} has parameters ({c.p}, {c.n}), expected "
                    f"({self.p}, {self.n})"
                )

    @property
    def k(self) -> int:
        return len(self.components)


def digits(f: GBFunction) -> ComponentTuple:
    """Base-p digit components of f; requires q = p^k.

    f_i(x) is the digit of f(x) at weight p^(k-1-i), so f_0 is the most
    significant component and compose(digits(f)) = f.
    """
    if not f.is_prime_power:
        raise ValueError(f"q={f.q} is not a power of p={f.p}; cannot take digits")
    k = f.k
    comps = []
    for i in range(k):
        weight = f.p ** (k - 1 - i)
        comps.append(
            PAryFunction(f.p, f.n, tuple((v // weight) % f.p for v in f.table))
        )
    return ComponentTuple(f.p, f.n, f.q, tuple(comps))


def compose(t: ComponentTuple) -> GBFunction:
    """The function (q/p) f_0 + sum_(i>=1) f_i p^(k-1-i) mod q.

    When q = p^k the leading weight q/p equals p^(k-1) and this inverts
    digits().
    """
    weights = [t.q // t.p] + [t.p ** (t.k - 1 - i) for i in range(1, t.k)]
    size = t.p**t.n
    table = []
    for x in range(size):
        v = sum(w * c.table[x] for w, c in zip(weights, t.components))
        table.append(v % t.q)
    return GBFunction(t.p, t.n, t.q, tuple(table))


def combine(t: ComponentTuple, a: Sequence[int]) -> PAryFunction:
    """The p-ary combination f_0 + sum_i a_i f_i mod p, for a in Z_p^(k-1)."""
    a = tuple(a)
    if len(a) != t.k - 1:
        raise ValueError(f"expected {t.k - 1} coefficients, got {len(a)}")
    for ai in a:
        if not 0 <= ai < t.p:
            raise ValueError(f"coefficient {ai} out of range for Z_{t.p}")
    size = t.p**t.n
    f0 = t.components[0].table
    table = []
    for x in range(size):
        v = f0[x] + sum(ai * c.table[x] for ai, c in zip(a, t.components[1:]))
        table.append(v % t.p)
    return PAryFunction(t.p, t.n, tuple(table))


def combination_tables(t: ComponentTuple) -> tuple[tuple[int, ...], ...]:
    """The tables of f_0 + sum_i a_i f_i mod p for every a in Z_p^(k-1).

    Ordered by the big-endian rank of a, as point_index ranks points: each
    component f_i extends every table built so far by its p multiples, so
    rank r becomes r p + a_i. Entry r is the table that combine builds for
    a = index_point(p, k-1, r).
    """
    p = t.p
    tables = [t.components[0].table]
    for component in t.components[1:]:
        tables = [
            tuple((v + ai * c) % p for v, c in zip(table, component.table))
            for table in tables
            for ai in range(p)
        ]
    return tuple(tables)


# -- function file format -----------------------------------------------------
#
# A function file is a JSON object with fields p, n, q and either
#   table:      array of p^n integers in [0, q), point-index order, or
#   components: array of k arrays of p^n integers in [0, p).
# Canonical emission is single-line JSON in that key order, so a canonical
# file round-trips byte for byte.


@dataclass(frozen=True)
class FunctionDoc:
    """A loaded function file: the function plus its components when given."""

    function: GBFunction
    components: Optional[ComponentTuple]


def parse_function_text(text: str) -> FunctionDoc:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FunctionFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FunctionFormatError("function file must be a JSON object")
    for field in ("p", "n", "q"):
        if field not in obj:
            raise FunctionFormatError(f"missing field {field!r}")
        if not isinstance(obj[field], int):
            raise FunctionFormatError(f"field {field!r} must be an integer")
    p, n, q = obj["p"], obj["n"], obj["q"]
    has_table = "table" in obj
    has_comps = "components" in obj
    if has_table == has_comps:
        raise FunctionFormatError("exactly one of 'table'/'components' is required")
    try:
        if has_table:
            if not isinstance(obj["table"], list):
                raise FunctionFormatError("field 'table' must be an array")
            f = GBFunction(p, n, q, tuple(obj["table"]))
            return FunctionDoc(f, None)
        comps_field = obj["components"]
        if not isinstance(comps_field, list) or not all(
            isinstance(c, list) for c in comps_field
        ):
            raise FunctionFormatError("field 'components' must be an array of arrays")
        comps = tuple(PAryFunction(p, n, tuple(c)) for c in comps_field)
        t = ComponentTuple(p, n, q, comps)
        return FunctionDoc(compose(t), t)
    except ValueError as e:
        raise FunctionFormatError(str(e)) from None


def function_to_text(doc: FunctionDoc) -> str:
    f = doc.function
    payload: dict = {"p": f.p, "n": f.n, "q": f.q}
    if doc.components is not None:
        payload["components"] = [list(c.table) for c in doc.components.components]
    else:
        payload["table"] = list(f.table)
    return json.dumps(payload, separators=(", ", ": ")) + "\n"


def load_function(path: str) -> FunctionDoc:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_function_text(fh.read())


def save_function(doc: FunctionDoc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(function_to_text(doc))
