"""Exact arithmetic in rings of cyclotomic integers Z[zeta_M].

An element is a canonical coefficient vector over the power basis
{1, zeta_M, ..., zeta_M^(phi(M)-1)}, reduced modulo the M-th cyclotomic
polynomial Phi_M. Coefficients are plain Python integers, so every
operation is exact at any size; nothing here ever rounds. Equality is a
coefficient comparison.

The modulus is chosen by callers so that a single ring houses every value
a computation needs. For spectra of functions into Z_q the working ring is
Z[zeta_M] with M = lcm(4, q): it contains zeta_q, zeta_p for any p | q,
sqrt(-1) = zeta_4, and sqrt(p) through quadratic Gauss sums.

Phi_M(x) = Phi_R(x^s), with R = rad(M) the product of the primes of M and
s = M/R, so one table per modulus comes from Phi_R alone: the sparse
canonical forms of the R powers of y = zeta_M^s, each stepped from the one
before. The form of zeta_M^(j s + i), i < s, is row j with every index l
moved to l s + i, and the cache keeps it, for each power zeta_M^0 ..
zeta_M^(M-1), as its nonzero (index, coefficient) pairs. A power of zeta_M
reduces to a few basis terms (on average 1.3 at M = 108, 2.7 at M = 84 and
11 at M = 420, against phi(M) = 36, 24 and 96), so multiplication,
conjugation, embedding and parsing reduce each exponent by reading a short
sparse row. A packed element of the group ring Z[Z_M] reduces by the same R
rows in blocks of s slots (_reduce_packed), a bigint product per block, with
no loop over single exponents. All values are immutable; the per-modulus
cache is initialize-once, read-many.

Phi_R comes from one factorisation of M (_prime_factors): it is the
Moebius product over the 2^t subsets of the t primes of R, one factor
y^(R/P) - 1 per subset with product P, multiplied in for an even subset
and divided out for an odd one. Each factor costs one shift-and-subtract
pass over the coefficients, so no dense polynomial product or long
division is ever formed. cyclotomic_polynomial(m) spreads the same Phi_R
to Phi_R(x^(m/R)).

A product of dense operands (nnz(a) nnz(b) > phi(M)) is one bigint
multiply (Kronecker substitution): each operand is packed one coefficient
per signed slot of one Python int, slots wide enough for every coefficient
of the product. Sparse operands, such as roots of unity, keep the loop
over nonzero pairs, which is faster for them. A product with one root of
unity zeta_M^t is a rotation (CycInt.rotate): every exponent moves up by t
and is reduced once. A norm z conj(z) is the same product of the
coefficients with their reversal, an autocorrelation whose nonnegative
exponents are already canonical. The spectrum engine packs its group-ring
elements in the same slots, unsigned.

Text is read and written through one cached table per modulus (_symbols):
the symbols "z", "z^2", ... of the powers below phi(M), in order, each
mapped to its exponent. str() zips the coefficients with it and renders
each nonzero term, sign included, in one f-string; parse_cycint checks the
whole literal once against its grammar, then splits the validated body at
its spaces and each term at its "*", and looks each symbol up in the same
table, so an exponent at or past phi(M) is refused there. No ring is built
for a modulus over MAX_MODULUS.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache
from itertools import combinations, compress
from math import prod
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .errors import ExactDivisionError, InternalConsistencyError, ModulusMismatchError


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending; none for m < 2."""
    primes, d = [], 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return primes + [m] if m > 1 else primes


def is_prime(m: int) -> bool:
    return _prime_factors(m) == [m]


def _divide_out(poly: list[int], d: int) -> list[int]:
    """poly / (x^d - 1), which must be exact.

    poly = quot (x^d - 1) reads poly[i] = quot[i - d] - quot[i], so
    quot[i] = quot[i - d] - poly[i] from the bottom up; the division is
    exact when that leaves the top d coefficients zero.
    """
    quot = [-c for c in poly[:d]]
    for i in range(d, len(poly)):
        quot.append(quot[i - d] - poly[i])
    if any(quot[len(poly) - d :]):
        raise InternalConsistencyError("polynomial division left a remainder")
    return quot[: len(poly) - d]


def _radical_polynomial(primes: Sequence[int]) -> list[int]:
    """Coefficients of Phi_R, R the product of the distinct primes, ascending.

    The Moebius product Phi_R(x) = prod (x^(R/P) - 1)^((-1)^t) runs over the
    subsets of t primes with product P. Each factor x^d - 1 is multiplied in
    by one shift-and-subtract pass; the odd subsets are divided out after.
    """
    radical = prod(primes)
    poly, odd = [1], []
    for t in range(len(primes) + 1):
        for subset in combinations(primes, t):
            d = radical // prod(subset)
            if t % 2:
                odd.append(d)
            else:
                poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in odd:
        poly = _divide_out(poly, d)
    return poly


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m in ascending order (monic): Phi_R(x^(m/R)),
    R = rad(m)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    primes = _prime_factors(m)
    spread = m // prod(primes)
    phi_r = _radical_polynomial(primes)
    poly = [0] * (spread * (len(phi_r) - 1) + 1)
    poly[::spread] = phi_r
    return tuple(poly)


# -- Kronecker packing -----------------------------------------------------------
#
# A packed vector is one Python int whose slot i, 8 nbytes bits wide and
# little-endian (slot 0 lowest), holds entry i.

# Bytes per slot -> the array typecodes (unsigned, signed) with that item size.
_SLOT_TYPECODES = {array(u).itemsize: (u, s) for u, s in zip("BHILQ", "bhilq")}
# Bytes needed -> the smallest item size that holds them, up to the largest.
_ITEM_BYTES = tuple(min(b for b in _SLOT_TYPECODES if b >= max(n, 1))
                    for n in range(max(_SLOT_TYPECODES) + 1))


def _slot_bytes(bound: int) -> int:
    """The fewest bytes per slot that hold any count up to bound.

    Rounded up to an array item size when one is wide enough, so that
    packing and unpacking run through array.
    """
    nbytes = -(-bound.bit_length() // 8)
    return _ITEM_BYTES[nbytes] if nbytes < len(_ITEM_BYTES) else nbytes


def _raw_slots(values: Sequence[int], nbytes: int, signed: bool) -> bytes:
    """The bytes of values, one little-endian slot of nbytes each."""
    codes = _SLOT_TYPECODES.get(nbytes)
    if codes is None:
        return b"".join(v.to_bytes(nbytes, "little", signed=signed) for v in values)
    items = array(codes[signed], values)
    if sys.byteorder != "little":
        items.byteswap()
    return items.tobytes()


def _read_slots(raw: bytes, nbytes: int, signed: bool) -> Sequence[int]:
    """The values of the little-endian slots of raw, nbytes each."""
    codes = _SLOT_TYPECODES.get(nbytes)
    if codes is None:
        return [
            int.from_bytes(raw[i : i + nbytes], "little", signed=signed)
            for i in range(0, len(raw), nbytes)
        ]
    # The slots are read little-endian; array items use the host byte order.
    items = array(codes[signed], raw)
    if sys.byteorder != "little":
        items.byteswap()
    return items


def _pack_slots(counts: Sequence[int], nbytes: int) -> int:
    """Pack nonnegative slot counts, slot 0 lowest, nbytes bytes each."""
    return int.from_bytes(_raw_slots(counts, nbytes, False), "little")


def _slot_counts(packed: int, slots: int, nbytes: int) -> Sequence[int]:
    """The slot counts of a packed element, slot 0 first."""
    return _read_slots(packed.to_bytes(slots * nbytes, "little"), nbytes, False)


@lru_cache(maxsize=64)
def _sign_bits(slots: int, nbytes: int) -> int:
    """The top bit of each of the slots."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * slots, "little")


def _pack_signed(coeffs: Sequence[int], nbytes: int) -> int:
    """sum_i coeffs[i] 2^(8 nbytes i), for |coeffs[i]| < 2^(8 nbytes - 1).

    Read as one unsigned int u, a negative slot in two's complement has
    its sign bit set and has borrowed one from the slot above;
    u - ((u & top) << 1) repays every borrow.
    """
    u = int.from_bytes(_raw_slots(coeffs, nbytes, True), "little")
    return u - ((u & _sign_bits(len(coeffs), nbytes)) << 1)


def _unpack_signed(packed: int, slots: int, nbytes: int) -> Sequence[int]:
    """The balanced digits of packed, slot 0 first; inverse of _pack_signed.

    Each digit must lie in [-2^(8 nbytes - 1), 2^(8 nbytes - 1)). Adding top
    lifts every digit into [0, 2^(8 nbytes)), so no slot borrows; flipping
    each top bit back leaves the digits in two's complement.
    """
    top = _sign_bits(slots, nbytes)
    raw = ((packed + top) ^ top).to_bytes(slots * nbytes, "little")
    return _read_slots(raw, nbytes, True)


def _convolve(a: Sequence[int], b: Optional[Sequence[int]] = None) -> Sequence[int]:
    """The coefficients of the polynomial product of a and b, len(a) = len(b);
    without b, of a and its reversal (the autocorrelation of a).

    Dense operands (nnz(a) nnz(b) > len(a)) take one bigint product of
    their signed packings, in slots above twice the largest product
    coefficient; sparse ones, such as roots of unity, loop over their
    nonzero pairs. A reversal has the nonzero count and bound of a, so an
    autocorrelation takes them once.
    """
    deg = len(a)
    auto = b is None
    if auto:
        b = a[::-1]
    nnz_a = deg - a.count(0)
    nnz_b = nnz_a if auto else deg - b.count(0)
    if nnz_a * nnz_b > deg:
        big_a = max(max(a), -min(a))
        big_b = big_a if auto else max(max(b), -min(b))
        nbytes = _slot_bytes(2 * min(nnz_a, nnz_b) * big_a * big_b)
        product = _pack_signed(a, nbytes) * _pack_signed(b, nbytes)
        return _unpack_signed(product, 2 * deg - 1, nbytes)
    conv = [0] * (2 * deg - 1)
    terms_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms_b:
                conv[i + j] += ai * bj
    return conv


def _power_rows(phi: Sequence[int], order: int) -> list[tuple[tuple[int, int], ...]]:
    """The sparse canonical forms of y^0, ..., y^(order-1) in Z[y]/phi, y of
    that order.

    Each row is the one before times y: every index moves up one, and a
    term pushed to the degree folds back through the nonzero terms of phi.
    """
    degree = len(phi) - 1
    tail = [(i, -t) for i, t in enumerate(phi[:-1]) if t]  # y^degree = sum of these
    rows = []
    row = {0: 1}
    for _ in range(order):
        rows.append(tuple(sorted(row.items())))
        spill = row.pop(degree - 1, 0)
        row = {i + 1: r for i, r in row.items()}
        if spill:
            for i, t in tail:
                c = row.get(i, 0) + spill * t
                if c:
                    row[i] = c
                else:
                    del row[i]
    if row != {0: 1}:
        raise InternalConsistencyError("zeta^M did not reduce to 1")
    return rows


# The largest ring modulus built; a larger one is refused before any table.
# The tables grow with the primes of M more than with M. Under this cap the
# costliest multiple of 4 (as M = lcm(4, q) is) is 4620 = 4*3*5*7*11, built
# in 0.7 s with a 128 MB peak, and the costliest of all 4641 = 3*7*13*17,
# in 3.4 s with 600 MB; M = 12012 = 4*3*7*11*13 would take 4.1 s and 770 MB
# (CPython 3.11, x86-64, peak RSS of a fresh process).
MAX_MODULUS = 5000


def _check_modulus(modulus: int) -> None:
    """Refuse, with a ValueError, a ring modulus M < 1 or over MAX_MODULUS."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus > MAX_MODULUS:
        raise ValueError(f"ring modulus {modulus} exceeds {MAX_MODULUS}")


def _require_roots(modulus: int, order: int) -> None:
    """Refuse, with a ValueError, a modulus M whose ring Z[zeta_M] lacks the
    order-th roots of unity, i.e. one that is not a positive multiple of order."""
    if modulus < 1 or modulus % order:
        raise ValueError(f"modulus {modulus} is not a positive multiple of {order}")


class _Context:
    """Per-modulus tables, read off Phi_M(x) = Phi_R(x^s), R = rad(M), s = M/R.

    rows are the R sparse canonical forms of the powers of y = zeta_M^s, a
    primitive R-th root, in Z[y]/Phi_R. As zeta_M^(j s + i) = x^i y^j for
    i < s, its canonical form is row j with each index l moved to l s + i:
    sparse_powers[e] lists those nonzero (index, coefficient) pairs for
    0 <= e < M, and any exponent reduces through sparse_powers[e % M].

    The same rows reduce a packed element of Z[Z_M] (_reduce_packed) in
    blocks of s slots: block j is a polynomial in x times y^j. fold is the
    largest column weight sum_j |rows[j][l]| of the rows, so no canonical
    coefficient exceeds fold times the largest slot.
    """

    __slots__ = ("modulus", "degree", "spread", "rows", "fold", "sparse_powers")

    def __init__(self, modulus: int):
        _check_modulus(modulus)
        primes = _prime_factors(modulus)
        radical = prod(primes)
        spread = modulus // radical
        phi = _radical_polynomial(primes)
        degree = len(phi) - 1
        rows = _power_rows(phi, radical)
        weights = [0] * degree
        for row in rows:
            for l, r in row:
                weights[l] += abs(r)
        self.modulus = modulus
        self.spread = spread
        self.rows = rows
        self.fold = max(weights)
        self.degree = spread * degree
        self.sparse_powers = tuple(
            tuple((l * spread + i, r) for l, r in row) for row in rows for i in range(spread)
        )


def _reduce_terms(
    ctx: _Context, terms: Iterable[tuple[int, int]], acc: Optional[list[int]] = None
) -> list[int]:
    """Canonical coefficients of acc + sum c zeta_M^e over the (e, c) terms.

    acc, the canonical coefficients already summed (default none), is
    updated in place.
    """
    sparse, modulus = ctx.sparse_powers, ctx.modulus
    if acc is None:
        acc = [0] * ctx.degree
    for e, c in terms:
        if c:
            for i, r in sparse[e % modulus]:
                acc[i] += c * r
    return acc


@lru_cache(maxsize=64)
def _packed_rows(modulus: int, nbytes: int) -> tuple[int, ...]:
    """Rows phi(R), ..., R - 1 of the context, each packed with its entry
    (l, r) as r in slot l s, nbytes bytes a slot: multiplying a block of s
    slots by it adds r times the block at block l for every entry."""
    ctx = _context(modulus)
    bits = 8 * nbytes * ctx.spread
    low = ctx.degree // ctx.spread
    return tuple(sum(r << (l * bits) for l, r in row) for row in ctx.rows[low:])


def _reduce_packed(ctx: _Context, packed: int, nbytes: int) -> Sequence[int]:
    """Canonical coefficients of a packed element of Z[Z_M].

    Slot e, nbytes bytes, holds the nonnegative count of zeta_M^e. Block j,
    the s slots from j s, is a polynomial in x times y^j: blocks below
    phi(R) are already canonical, and each nonzero block above adds
    r times itself at block l for each entry (l, r) of row j, which is one
    product with the packed row. One signed unpack then reads the
    coefficients, so each must lie in [-2^(8 nbytes - 1), 2^(8 nbytes - 1));
    as none exceeds fold times the largest count, slots of
    _slot_bytes(2 fold max(count)) are wide enough.
    """
    bits = 8 * nbytes * ctx.spread
    low = ctx.degree // ctx.spread
    acc = packed & ((1 << (low * bits)) - 1)
    mask = (1 << bits) - 1
    packed >>= low * bits
    for row in _packed_rows(ctx.modulus, nbytes):
        block = packed & mask
        if block:
            acc += block * row
        packed >>= bits
    return _unpack_signed(acc, ctx.degree, nbytes)


@lru_cache(maxsize=None)
def _context(modulus: int) -> _Context:
    return _Context(modulus)


class CycInt:
    """A cyclotomic integer in canonical form.

    Immutable; arithmetic via the usual operators, with plain ints coerced
    into the ring. Operands of different moduli combine only when one
    modulus divides the other (the smaller ring embeds via
    zeta_d -> zeta_M^(M/d)); anything else raises ModulusMismatchError.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Iterable[int]):
        ctx = _context(modulus)
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.degree:
            raise ValueError(
                f"expected {ctx.degree} coefficients for modulus {modulus}, got {len(coeffs)}"
            )
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not setattr.
        return CycInt, (self.modulus, self.coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modulus: int) -> "CycInt":
        return cls(modulus, (0,) * _context(modulus).degree)

    @classmethod
    def one(cls, modulus: int) -> "CycInt":
        return cls.integer(modulus, 1)

    @classmethod
    def integer(cls, modulus: int, value: int) -> "CycInt":
        ctx = _context(modulus)
        return cls(modulus, (value,) + (0,) * (ctx.degree - 1))

    # -- coercion and promotion --------------------------------------------

    def promote(self, modulus: int) -> "CycInt":
        """Embed into Z[zeta_modulus]; requires self.modulus | modulus."""
        if modulus == self.modulus:
            return self
        if modulus % self.modulus != 0:
            raise ModulusMismatchError(
                f"cannot embed Z[zeta_{self.modulus}] into Z[zeta_{modulus}]"
            )
        step = modulus // self.modulus
        terms = ((j * step, c) for j, c in enumerate(self.coeffs))
        return CycInt(modulus, _reduce_terms(_context(modulus), terms))

    def _pair(self, other) -> tuple["CycInt", "CycInt"]:
        if isinstance(other, int):
            return self, CycInt.integer(self.modulus, other)
        if not isinstance(other, CycInt):
            raise TypeError(f"cannot combine CycInt with {type(other).__name__}")
        if other.modulus == self.modulus:
            return self, other
        if other.modulus % self.modulus == 0:
            return self.promote(other.modulus), other
        if self.modulus % other.modulus == 0:
            return self, other.promote(self.modulus)
        raise ModulusMismatchError(
            f"no common field for moduli {self.modulus} and {other.modulus}"
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return CycInt(a.modulus, map(add, a.coeffs, b.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return CycInt(a.modulus, map(sub, a.coeffs, b.coeffs))

    def __rsub__(self, other):
        a, b = self._pair(other)
        return CycInt(a.modulus, map(sub, b.coeffs, a.coeffs))

    def __neg__(self):
        return CycInt(self.modulus, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.modulus, tuple(other * x for x in self.coeffs))
        a, b = self._pair(other)
        ctx = _context(a.modulus)
        deg = ctx.degree
        conv = _convolve(a.coeffs, b.coeffs)
        # Exponents up to 2 deg - 2 reach past M when M is prime.
        spill = zip(range(deg, 2 * deg - 1), conv[deg:])
        return CycInt(a.modulus, _reduce_terms(ctx, spill, list(conv[:deg])))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = CycInt.one(self.modulus)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def rotate(self, t: int) -> "CycInt":
        """self times zeta_M^t, for any integer t.

        Multiplying by a root of unity moves every exponent up by t, so the
        product is one sparse reduction of the shifted terms, with no
        convolution.
        """
        coeffs = self.coeffs
        terms = compress(zip(range(t, t + len(coeffs)), coeffs), coeffs)  # nonzero ones
        return CycInt(self.modulus, _reduce_terms(_context(self.modulus), terms))

    def conj(self) -> "CycInt":
        """Complex conjugation: the automorphism zeta_M -> zeta_M^(-1)."""
        terms = ((-j, c) for j, c in enumerate(self.coeffs))
        return CycInt(self.modulus, _reduce_terms(_context(self.modulus), terms))

    def norm_sq(self) -> "CycInt":
        """z times conj(z); for a root of unity this is 1.

        One autocorrelation: the product of the coefficients with their
        reversal holds sum_i c_i c_(i-e) at slot e + deg - 1, the coefficient
        of zeta_M^e in z conj(z). The exponents 0 <= e < deg are already
        canonical; only the deg - 1 negative ones are reduced, slot i by the
        sparse row of zeta_M^(i - deg + 1) = zeta_M^(M - deg + 1 + i).
        """
        ctx = _context(self.modulus)
        deg = ctx.degree
        conv = _convolve(self.coeffs)
        acc = list(conv[deg - 1 :])
        for c, row in zip(conv, ctx.sparse_powers[ctx.modulus - deg + 1 :]):
            if c:
                for l, r in row:
                    acc[l] += c * r
        return CycInt(self.modulus, acc)

    def divide_exact(self, divisor: int) -> "CycInt":
        """Divide every coefficient by an integer; error on any remainder."""
        if any(map(divisor.__rmod__, self.coeffs)):
            c = next(c for c in self.coeffs if c % divisor)
            raise ExactDivisionError(f"coefficient {c} is not divisible by {divisor}")
        return CycInt(self.modulus, map(divisor.__rfloordiv__, self.coeffs))

    # -- predicates and conversion -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    # -- equality, hashing, text ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational_integer() and self.coeffs[0] == other
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.modulus != other.modulus:
            try:
                a, b = self._pair(other)
            except ModulusMismatchError:
                return False
            return a.coeffs == b.coeffs
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.modulus, self.coeffs))

    def __str__(self):
        # Every nonzero term is rendered with its separator, " + " or " - ";
        # the first one's becomes "-" or nothing.
        coeffs = iter(self.coeffs)
        c = next(coeffs)
        terms = [f" + {c}" if c > 0 else f" - {-c}"] if c else []
        for c, sym in zip(coeffs, _symbols(self.modulus)):
            if c:
                if c > 0:
                    terms.append(f" + {sym}" if c == 1 else f" + {c}*{sym}")
                else:
                    terms.append(f" - {sym}" if c == -1 else f" - {-c}*{sym}")
        if not terms:
            return f"(mod {self.modulus}) 0"
        poly = "".join(terms)
        return f"(mod {self.modulus}) {'-' if poly[1] == '-' else ''}{poly[3:]}"

    def __repr__(self):
        return f"CycInt({self})"


# A term: z with an optional coefficient and exponent, each at least 2, or a
# constant; no number has a leading zero. The patterns compile on first use,
# in re's cache, so a process that never parses does not pay for them.
_TERM = r"(?:(?:[2-9]|[1-9]\d+)\*)?z(?:\^(?:[2-9]|[1-9]\d+))?|[1-9]\d*"
_LITERAL = rf"\(mod ([1-9]\d*)\) (0|-?(?:{_TERM})(?: [+-] (?:{_TERM}))*)"


@lru_cache(maxsize=64)
def _symbols(modulus: int) -> dict[str, int]:
    """The text of each power zeta_M^j, 0 < j < phi(M), mapped to j, in
    ascending order: "z", "z^2", ..."""
    return {f"z^{j}" if j > 1 else "z": j for j in range(1, _context(modulus).degree)}


def parse_cycint(text: str) -> CycInt:
    """Inverse of str(CycInt); accepts exactly the emitted format.

    That is "(mod M) " and then "0", or the nonzero terms at ascending
    exponents below phi(M), joined by " + " and " - ", the first one
    signed only when negative. They are the canonical coefficients, read
    as they stand; any other text is a ValueError.
    """
    m = re.fullmatch(_LITERAL, text)
    if not m:
        raise ValueError(f"not a cyclotomic integer literal: {text!r}")
    modulus, body = int(m.group(1)), m.group(2)
    degree = _context(modulus).degree
    coeffs = [0] * degree
    if body != "0":
        exponents = _symbols(modulus)
        tokens = iter(("- " + body[1:] if body[0] == "-" else "+ " + body).split(" "))
        last = -1
        for sign, term in zip(tokens, tokens):
            coeff, _, sym = term.rpartition("*")
            if sym[0] == "z":
                exponent, c = exponents.get(sym, degree), int(coeff or 1)
            else:
                exponent, c = 0, int(sym)
            if not last < exponent < degree:
                raise ValueError(f"exponents of {text!r} do not ascend below phi({modulus})")
            coeffs[exponent] = -c if sign == "-" else c
            last = exponent
    return CycInt(modulus, coeffs)


def root(modulus: int, t: int) -> CycInt:
    """The canonical form of zeta_modulus^t; root(M, 0) is the identity."""
    _check_modulus(modulus)
    return _root(modulus, t % modulus)


# Tables and generators call root on the same few exponents over and over.
# At most ROOT_CACHE_SIZE roots are kept; each holds phi(M) coefficients, so
# at M = 4620 (phi = 960) a full cache holds about 4 MB.
ROOT_CACHE_SIZE = 512


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def _root(modulus: int, t: int) -> CycInt:
    return CycInt(modulus, _reduce_terms(_context(modulus), ((t, 1),)))


def conj(z: CycInt) -> CycInt:
    return z.conj()


def norm_sq(z: CycInt) -> CycInt:
    return z.norm_sq()


def promote(z: CycInt, modulus: int) -> CycInt:
    return z.promote(modulus)


@lru_cache(maxsize=None)
def _gauss_sqrt_cached(p: int, modulus: int) -> CycInt:
    acc = CycInt.zero(modulus)
    step = modulus // p
    for t in range(1, p):
        chi = 1 if pow(t, (p - 1) // 2, p) == 1 else -1
        acc = acc + chi * root(modulus, t * step)
    if p % 4 == 3:
        # The quadratic character sum equals sqrt(-1)*sqrt(p) here; rotate
        # by zeta_4^3 = -sqrt(-1) to land on sqrt(p) itself.
        acc = acc.rotate(3 * modulus // 4)
    if acc * acc != CycInt.integer(modulus, p):
        raise InternalConsistencyError(f"character sum for p={p} did not square to p")
    return acc


def gauss_sqrt(p: int, modulus: Optional[int] = None) -> CycInt:
    """The exact ring element equal to sqrt(p), for an odd prime p.

    Built from the quadratic-character sum over Z_p, which squares to
    +p when p = 1 (mod 4) and to -p when p = 3 (mod 4); in the latter case
    the sum is rotated by -sqrt(-1). Requires 4p | modulus (default 4p).
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if modulus is None:
        modulus = 4 * p
    if modulus % (4 * p) != 0:
        raise ValueError(f"modulus {modulus} is not a multiple of 4*{p}")
    return _gauss_sqrt_cached(p, modulus)


def sqrt_p_power(p: int, n: int, modulus: int) -> CycInt:
    """p^(n/2) as a ring element: an integer for even n, else an integer
    multiple of gauss_sqrt(p)."""
    if n % 2 == 0:
        return CycInt.integer(modulus, p ** (n // 2))
    return p ** ((n - 1) // 2) * gauss_sqrt(p, modulus)
