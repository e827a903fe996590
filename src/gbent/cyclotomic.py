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

Phi_M is computed once per modulus by the Moebius product
Phi_M(x) = prod_{d|M} (x^d - 1)^{mu(M/d)} via exact polynomial division.
Alongside it is cached, for each power zeta_M^0 .. zeta_M^(M-1), only the
nonzero (index, coefficient) pairs of its canonical form. A power of zeta_M
reduces to a few basis terms (on average 1.3 at M = 108, 2.7 at M = 84 and
11 at M = 420, against phi(M) = 36, 24 and 96), so multiplication,
conjugation, embedding and parsing reduce each exponent by reading a short
sparse row. All values are immutable; the per-modulus cache is
initialize-once, read-many.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import ExactDivisionError, InternalConsistencyError, ModulusMismatchError


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _mobius(m: int) -> int:
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divexact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    # Long division by a monic divisor; the quotient must be exact.
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise InternalConsistencyError("divisor is not monic")
    quot = [0] * (len(num) - dn)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn]
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise InternalConsistencyError("polynomial division left a remainder")
    return quot


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m in ascending order (monic)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    poly = [1]
    dens: list[int] = []
    for d in _divisors(m):
        mu = _mobius(m // d)
        if mu == 1:
            poly = _poly_mul(poly, [-1] + [0] * (d - 1) + [1])
        elif mu == -1:
            dens.append(d)
    for d in dens:
        poly = _poly_divexact(poly, [-1] + [0] * (d - 1) + [1])
    return tuple(poly)


class _Context:
    """Per-modulus tables: Phi_M and the sparse canonical form of each power.

    sparse_powers[e] lists the nonzero (index, coefficient) pairs of the
    canonical form of zeta_M^e, for 0 <= e < M. Any exponent reduces
    through sparse_powers[e % M].
    """

    __slots__ = ("modulus", "degree", "phi", "sparse_powers")

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.phi = cyclotomic_polynomial(modulus)
        self.degree = len(self.phi) - 1
        tail = self.phi[:-1]  # x^degree = -tail in the quotient ring
        rows = []
        cur = [0] * self.degree
        cur[0] = 1
        for _ in range(modulus):
            rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
            spill = cur[-1]
            cur = [0] + cur[:-1]
            if spill:
                for i, t in enumerate(tail):
                    cur[i] -= spill * t
        if cur != [1] + [0] * (self.degree - 1):
            raise InternalConsistencyError("zeta^M did not reduce to 1")
        self.sparse_powers = tuple(rows)


def _reduce_terms(ctx: _Context, terms: Iterable[tuple[int, int]]) -> list[int]:
    """Canonical coefficients of sum c zeta_M^e over the (e, c) terms."""
    sparse, modulus = ctx.sparse_powers, ctx.modulus
    acc = [0] * ctx.degree
    for e, c in terms:
        if c:
            for i, r in sparse[e % modulus]:
                acc[i] += c * r
    return acc


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
        return CycInt(a.modulus, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return CycInt(a.modulus, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        a, b = self._pair(other)
        return CycInt(a.modulus, tuple(y - x for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return CycInt(self.modulus, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.modulus, tuple(other * x for x in self.coeffs))
        a, b = self._pair(other)
        ctx = _context(a.modulus)
        deg = ctx.degree
        terms_b = [(j, bj) for j, bj in enumerate(b.coeffs) if bj]
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in terms_b:
                    conv[i + j] += ai * bj
        acc = conv[:deg]
        sparse, modulus = ctx.sparse_powers, a.modulus
        for e in range(deg, len(conv)):
            c = conv[e]
            if c:
                # Exponents up to 2 deg - 2 reach past M when M is prime.
                for i, r in sparse[e % modulus]:
                    acc[i] += c * r
        return CycInt(modulus, acc)

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

    def conj(self) -> "CycInt":
        """Complex conjugation: the automorphism zeta_M -> zeta_M^(-1)."""
        terms = ((-j, c) for j, c in enumerate(self.coeffs))
        return CycInt(self.modulus, _reduce_terms(_context(self.modulus), terms))

    def norm_sq(self) -> "CycInt":
        """z times conj(z); for a root of unity this is 1."""
        return self * self.conj()

    def divide_exact(self, divisor: int) -> "CycInt":
        """Divide every coefficient by an integer; error on any remainder."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c, divisor)
            if r:
                raise ExactDivisionError(
                    f"coefficient {c} is not divisible by {divisor}"
                )
            out.append(q)
        return CycInt(self.modulus, out)

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
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                sym = "z" if j == 1 else f"z^{j}"
                body = sym if mag == 1 else f"{mag}*{sym}"
            if not terms:
                terms.append(f"-{body}" if c < 0 else body)
            else:
                terms.append(f"{'-' if c < 0 else '+'} {body}")
        poly = " ".join(terms) if terms else "0"
        return f"(mod {self.modulus}) {poly}"

    def __repr__(self):
        return f"CycInt({self})"


_TERM_RE = re.compile(r"(?:(\d+)\*?)?(?:z(?:\^(\d+))?)?")


def parse_cycint(text: str) -> CycInt:
    """Inverse of str(CycInt); accepts exactly the emitted format."""
    m = re.fullmatch(r"\(mod (\d+)\)\s*(.+)", text.strip())
    if not m:
        raise ValueError(f"not a cyclotomic integer literal: {text!r}")
    modulus = int(m.group(1))
    body = m.group(2).strip()
    if body == "0":
        return CycInt.zero(modulus)
    terms = []
    normalized = body.replace("- ", "-").replace("+ ", "+")
    for token in normalized.split():
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        elif token.startswith("+"):
            token = token[1:]
        tm = _TERM_RE.fullmatch(token)
        if not tm or not token:
            raise ValueError(f"bad term {token!r} in {text!r}")
        coeff = int(tm.group(1)) if tm.group(1) else 1
        if "z" in token:
            exponent = int(tm.group(2)) if tm.group(2) else 1
        else:
            exponent = 0
        terms.append((exponent, sign * coeff))
    return CycInt(modulus, _reduce_terms(_context(modulus), terms))


def root(modulus: int, t: int) -> CycInt:
    """The canonical form of zeta_modulus^t; root(M, 0) is the identity."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
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
        acc = acc * root(modulus, 3 * modulus // 4)
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
