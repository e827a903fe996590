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

The package's records (functions, spectra, reports, construction specs)
subclass _Record: immutable, compared and hashed by value, and validated
on construction by their __post_init__.
"""

from __future__ import annotations

import json
from array import array
from functools import lru_cache
from itertools import product
from math import lcm
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from .cyclotomic import _check_modulus, is_prime
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
    return tuple(idx // p ** (n - 1 - i) % p for i in range(n))


@lru_cache(maxsize=16)
def all_points(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All points of Z_p^n in point-index order.

    product varies its last coordinate fastest, as the big-endian index does.
    """
    return tuple(product(range(p), repeat=n))


@lru_cache(maxsize=16)
def _digit_tables(p: int) -> tuple[list[bytes], list[bytes]]:
    """For p < 256, the rows of the pairing of Z_p (rows[d] holds d z mod p
    over z) and the bytes.translate tables shifts[t] that map each code
    c < p to (c + t) mod p."""
    rows = [bytes(d * z % p for z in range(p)) for d in range(p)]
    shifts = [(bytes(range(t, p)) + bytes(range(t))).ljust(256, b"\0") for t in range(p)]
    return rows, shifts


@lru_cache(maxsize=16)
def _spread_tables(p: int, s: int) -> tuple[list[bytes], list[bytes]]:
    """Tables that append s digits to a pairing row, p^(s+1) <= 256, with
    P = p^s: blocks[t] holds the codes t P + r, r in [0, P), and steps[v],
    for v in Z_p^s by rank, is the bytes.translate table that maps code
    t P + r to (t + v.z) mod p, z the point of rank r.

    steps[v] is row v of the pairing of Z_p^s shifted by each t in turn;
    those rows append one digit at a time, by the tables at s = 1."""
    rows, shifts = _digit_tables(p)
    for _ in range(s - 1):
        one, ones = _spread_tables(p, 1)
        rows = [b"".join(map(one.__getitem__, row)).translate(t) for row in rows for t in ones]
    size = p**s
    blocks = [bytes(range(t * size, t * size + size)) for t in range(p)]
    steps = [b"".join(map(row.translate, shifts)).ljust(256, b"\0") for row in rows]
    return blocks, steps


def _pairing_rows(p: int, n: int, lead: Sequence[int] = ()) -> Iterator[Sequence[int]]:
    """Row u of the pairing of Z_p^n (entry x is u.x mod p, the exponents of
    H_p tensor ... tensor H_p) for each u with leading digits lead, all in
    point-index order; entries take one byte, or two when p > 255.

    The rows are not cached, and the walk is depth first: appending digits
    v to u and z to x, s of each, multiplies both indexes by p^s and adds
    v.z, so row (u, v) spreads each entry t of row u to the p^s entries
    (t + v.z) mod p. The walk holds O(n p^n) entries, never p^(2n). While
    p^(s+1) <= 256 a row is spread once to the codes t p^s + r, and each
    of its children is one translate of that; the first step takes the
    digits left over. Past p = 15 each step takes one digit: column z of
    child d is the row shifted by d z, so below p = 256 a child is p
    strided slice assignments of the row's p shifted copies, and the
    root's children are the rows of Z_p; past p = 255, entry by entry.
    """
    most = 1
    while p ** (most + 2) <= 256:
        most += 1
    if p * p <= 256:

        def children(row: Sequence[int], s: int, vs: range) -> Iterator[Sequence[int]]:
            blocks, steps = _spread_tables(p, s)
            spread = b"".join(map(blocks.__getitem__, row))
            return map(spread.translate, map(steps.__getitem__, vs))
    elif p < 256:

        def children(row: Sequence[int], s: int, vs: range) -> Iterator[Sequence[int]]:
            ones, shifts = _digit_tables(p)
            if len(row) == 1:  # the root
                yield from map(ones.__getitem__, vs)
                return
            # bytearray copies: a slice takes a bytes value only through a copy.
            shifted = list(map(bytearray(row).translate, shifts))
            for d in vs:
                child = bytearray(len(row) * p)
                for z in range(p):
                    child[z::p] = shifted[d * z % p]
                yield child
    else:

        def children(row: Sequence[int], s: int, vs: range) -> Iterator[Sequence[int]]:
            return (array("H", [(t + d * e) % p for t in row for e in range(p)]) for d in vs)

    def level(rows: Iterator[Sequence[int]], s: int, vs: range) -> Iterator[Sequence[int]]:
        for row in rows:
            yield from children(row, s, vs)

    rows: Iterator[Sequence[int]] = iter([b"\0"])
    done = 0
    for s in [n % most] * (n % most > 0) + [most] * (n // most):
        fixed = lead[done : done + s]
        span = p ** (s - len(fixed))
        first = point_index(p, fixed) * span
        rows, done = level(rows, s, range(first, first + span)), done + s
    return rows


def smallest_exponent(p: int, q: int) -> int:
    """The smallest k with q <= p^k."""
    k, power = 1, p
    while power < q:
        k += 1
        power *= p
    return k


def _require_int(name: str, value, low: int, high: Optional[int] = None) -> None:
    """Refuse value, with a ValueError naming it, unless it is an int (not a
    bool) in [low, high), or at least low when high is None."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not (is_int and low <= value and (high is None or value < high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _checked_vector(name: str, values: Sequence[int], length: int, low: int, high: int) -> tuple:
    """values as a tuple of length entries, each as _require_int checks it."""
    values = tuple(values)
    if len(values) != length:
        raise ValueError(f"{name} must have {length} entries, got {len(values)}")
    for i, v in enumerate(values):
        _require_int(f"{name}[{i}]", v, low, high)
    return values


def _validate_params(p: int, n: int, q: int, length: Optional[int] = None) -> None:
    """Refuse parameters no function Z_p^n -> Z_q has, or whose ring
    Z[zeta_M], M = lcm(4, q), is too large to build. A table length is
    compared first, so a file's own size bounds the p that the primality
    test (trial division) sees; p^n > length once n > its bit length. The
    ring modulus comes next, before any table of q slots is allocated."""
    for name, value in (("p", p), ("n", n), ("q", q)):
        _require_int(name, value, 1)
    if p >= 3 and length is not None and (n > length.bit_length() or length != p**n):
        raise ValueError(f"table length {length} != {p}^{n}")
    _check_modulus(lcm(4, q))
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if q % p != 0:
        raise ValueError(f"q must be a positive multiple of p, got q={q}")


def _checked_table(table: tuple[int, ...], q: int) -> tuple[int, ...]:
    """table, whose length _validate_params has checked, if each entry is an
    int (not a bool) in [0, q).

    The entry types and the range are each one C-level pass; the entries are
    looped over only to name the first bad one, or to vet int subclasses.
    """
    if set(map(type, table)) != {int} or min(table) < 0 or max(table) >= q:
        for i, v in enumerate(table):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < q:
                raise ValueError(f"table[{i}] = {v!r} is not in [0, {q})")
    return table


class _Record:
    """An immutable record whose fields are its class's own annotations.

    Construction takes the fields positionally or by keyword, sets them in
    order and runs __post_init__, which may validate and normalize them
    with object.__setattr__. Records compare equal when they are of the
    same class with equal field values, hash their field values, and
    refuse every assignment and deletion with AttributeError.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Field by field, as a plain assignment would store them: filling
        # __dict__ directly would slow every later attribute read.
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, from positional and keyword arguments."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing fields: {', '.join(missing)}")
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"


class GBFunction(_Record):
    """A function Z_p^n -> Z_q as a validated truth table."""

    p: int
    n: int
    q: int
    table: tuple[int, ...]

    def __post_init__(self):
        table = tuple(self.table)
        _validate_params(self.p, self.n, self.q, len(table))
        object.__setattr__(self, "table", _checked_table(table, self.q))

    @property
    def k(self) -> int:
        return smallest_exponent(self.p, self.q)

    @property
    def is_prime_power(self) -> bool:
        return self.q == self.p**self.k


class PAryFunction(_Record):
    """A function Z_p^n -> Z_p."""

    p: int
    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        table = tuple(self.table)
        _validate_params(self.p, self.n, self.p, len(table))
        object.__setattr__(self, "table", _checked_table(table, self.p))

    def as_gbfunction(self) -> GBFunction:
        return GBFunction(self.p, self.n, self.p, self.table)


class ComponentTuple(_Record):
    """Digit components (f_0, ..., f_(k-1)) of a function into Z_q."""

    p: int
    n: int
    q: int
    components: tuple[PAryFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:  # no k >= 1 matches, and no table bounds p
            raise ValueError(f"q={self.q} needs at least one component, got 0")
        _validate_params(self.p, self.n, self.q)
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
    comps = (
        PAryFunction(f.p, f.n, tuple(map(f.p.__rmod__, map(w.__rfloordiv__, f.table))))
        for w in [f.p ** (f.k - 1 - i) for i in range(f.k)]
    )
    return ComponentTuple(f.p, f.n, f.q, tuple(comps))


def _digit_sum(t: ComponentTuple, weights: Sequence[int], modulus: int) -> tuple[int, ...]:
    """sum_i weights[i] f_i(x) mod modulus at every point x, one C-level
    pass per component table."""
    total: Iterable[int] = [0] * t.p**t.n
    for w, c in zip(weights, t.components):
        total = map(add, total, map(w.__mul__, c.table))
    return tuple(map(modulus.__rmod__, total))


def compose(t: ComponentTuple) -> GBFunction:
    """The function (q/p) f_0 + sum_(i>=1) f_i p^(k-1-i) mod q.

    When q = p^k the leading weight q/p equals p^(k-1) and this inverts
    digits().
    """
    weights = [t.q // t.p] + [t.p ** (t.k - 1 - i) for i in range(1, t.k)]
    return GBFunction(t.p, t.n, t.q, _digit_sum(t, weights, t.q))


def combine(t: ComponentTuple, a: Sequence[int]) -> PAryFunction:
    """The p-ary combination f_0 + sum_i a_i f_i mod p, for a in Z_p^(k-1)."""
    a = _checked_vector("a", a, t.k - 1, 0, t.p)
    return PAryFunction(t.p, t.n, _digit_sum(t, (1, *a), t.p))


# -- function file format -----------------------------------------------------
#
# A function file is a JSON object with fields p, n, q and either
#   table:      array of p^n integers in [0, q), point-index order, or
#   components: array of k arrays of p^n integers in [0, p).
# Canonical emission is single-line JSON in that key order, so a canonical
# file round-trips byte for byte.


class FunctionDoc(_Record):
    """A loaded function file: the function plus its components when given."""

    function: GBFunction
    components: Optional[ComponentTuple]


def _json_object(text: str, kind: str, fields: Sequence[str]) -> dict:
    """text as a JSON object that has every one of fields."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FunctionFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FunctionFormatError(f"{kind} file must be a JSON object")
    for field in fields:
        if field not in obj:
            raise FunctionFormatError(f"missing field {field!r}")
    return obj


def parse_function_text(text: str) -> FunctionDoc:
    obj = _json_object(text, "function", ("p", "n", "q"))
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


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file; FunctionFormatError if it is not."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise FunctionFormatError(f"not UTF-8 text: {e}") from None


def load_function(path: str) -> FunctionDoc:
    return parse_function_text(read_text(path))


def save_function(doc: FunctionDoc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(function_to_text(doc))
