"""Generalized Walsh-Hadamard spectra, exactly.

Spectra are stored UNNORMALIZED: values[u] = S_f(u) = p^(n/2) H_f(u)
= sum_x zeta_p^(-u.x) zeta_q^(f(x)), which is always a cyclotomic integer.
The irrational normalizer p^(-n/2) is reintroduced symbolically (through
gauss_sqrt) only at classification time.

One engine computes every spectrum, and two independent paths check it:

  * wht_fast        - the engine, for any q: a radix-p butterfly over the
                      group ring Z[Z_q]. Each point's element is one Python
                      int holding q counts of b bits each, with 2^b > p^n
                      (Kronecker substitution), so multiplying by zeta_p^t is
                      a cyclic rotation and the butterfly adds are native
                      bigint adds. One sparse step then maps every count to
                      the canonical form of its power of zeta_M.
                      wht_pary_fast is the same engine for p-ary functions,
                      with the values embedded in a caller-chosen ring.
  * wht_naive       - direct double loop over (u, x), O(p^(2n)); the trusted
                      oracle the tests compare the engine against.
  * wht_composed    - the paper's composition identity: assembles the
                      spectrum of a composed function from the engine's
                      spectra of its p^(k-1) digit combinations, weighted by
                      the carry coefficients gamma_a and divided exactly by
                      p^(k-1). It equals wht_naive only if the identity holds.

inverse_wht runs the engine's butterfly backwards, kernel zeta_p^(+u.x),
over the M slots of Z[Z_M]: each spectral value is lifted slot for slot
from its canonical coefficients and every slot raised by the largest
coefficient magnitude B, so that all slots are nonnegative. The offset
B sum_e zeta_M^e is fixed by every rotation and is 0 in Z[zeta_M], so it
vanishes when the result is canonicalized; slots of 2^b > p^n 2B bits
never carry. An exact division by p^n finishes the inverse.

The gamma_a coefficient is the character-weighted sum of p^k-th roots of
unity sum_v zeta_p^(-a.v) zeta_(p^k)^(sum_j v_j p^(k-1-j)); it converts
between a radix-p digit expansion and its component spectra. A product
form with one factor per digit evaluates the same element in O(k p) terms,
and a zeta_q analogue covers targets Z_q with p^(k-1) < q < p^k.

All divisions here are exact integer divisions with a hard error on any
remainder: the identities guarantee divisibility, so a failure is a bug
(or, for inverse_wht, an input that is not a valid spectrum).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import lshift
from typing import Optional, Sequence

from .cyclotomic import CycInt, _context, _reduce_terms
from .errors import ExactDivisionError, InternalConsistencyError
from .gbfunc import (
    ComponentTuple,
    GBFunction,
    PAryFunction,
    all_points,
    combination_tables,
)


@dataclass(frozen=True)
class Spectrum:
    """Unnormalized spectrum of a function Z_p^n -> Z_q, indexed by point."""

    p: int
    n: int
    q: int
    modulus: int
    values: tuple[CycInt, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.p**self.n:
            raise ValueError("spectrum length does not match p^n")
        for v in self.values:
            if v.modulus != self.modulus:
                raise ValueError(
                    f"spectral value modulus {v.modulus} != {self.modulus}"
                )


@lru_cache(maxsize=8)
def _dot_table(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """dot(u, x) mod p for all point-index pairs."""
    points = all_points(p, n)
    return tuple(
        tuple(sum(ui * xi for ui, xi in zip(u, x)) % p for x in points)
        for u in points
    )


def _counts_to_cycint(modulus: int, counts: Sequence[int], step: int = 1) -> CycInt:
    """Canonicalize sum_e counts[e] zeta_modulus^(e step), reading sparse rows."""
    terms = zip(range(0, len(counts) * step, step), counts)
    return CycInt(modulus, _reduce_terms(_context(modulus), terms))


def wht_naive(f: GBFunction, jobs: int = 1) -> Spectrum:
    """Direct evaluation of S(u) = sum_x zeta_p^(-u.x) zeta_q^(f(x)).

    The trusted oracle: O(p^(2n)), and independent of the engine's
    butterfly; only the canonicalization is shared. It always runs in this
    process: jobs must be >= 1 and has no other effect.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    p, n, q = f.p, f.n, f.q
    modulus = lcm(4, q)
    step_p = modulus // p
    step_q = modulus // q
    dots = _dot_table(p, n)
    size = p**n
    shifted = [(f.table[x] * step_q) % modulus for x in range(size)]
    values = []
    for u in range(size):
        du = dots[u]
        counts = [0] * modulus
        for x in range(size):
            counts[(shifted[x] - du[x] * step_p) % modulus] += 1
        values.append(_counts_to_cycint(modulus, counts))
    return Spectrum(p, n, q, modulus, tuple(values))


# Bytes per group-ring slot -> the array typecode with that item size.
_SLOT_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _slot_bytes(bound: int) -> int:
    """The fewest bytes per slot that hold any count up to bound.

    Rounded up to an array item size when one is wide enough, so that
    packing and unpacking run through array.
    """
    nbytes = max(1, -(-bound.bit_length() // 8))
    return min((b for b in _SLOT_TYPECODES if b >= nbytes), default=nbytes)


def _pack_slots(counts: Sequence[int], nbytes: int) -> int:
    """Pack nonnegative slot counts, slot 0 lowest, nbytes bytes each."""
    code = _SLOT_TYPECODES.get(nbytes)
    if code is None:
        return int.from_bytes(
            b"".join(c.to_bytes(nbytes, "little") for c in counts), "little"
        )
    items = array(code, counts)
    if sys.byteorder != "little":
        items.byteswap()
    return int.from_bytes(items.tobytes(), "little")


def _slot_counts(packed: int, slots: int, nbytes: int) -> Sequence[int]:
    """The slot counts of a packed element, slot 0 first."""
    raw = packed.to_bytes(slots * nbytes, "little")
    code = _SLOT_TYPECODES.get(nbytes)
    if code is None:
        return [
            int.from_bytes(raw[i : i + nbytes], "little")
            for i in range(0, len(raw), nbytes)
        ]
    # The slots are read little-endian; array items use the host byte order.
    counts = array(code, raw)
    if sys.byteorder != "little":
        counts.byteswap()
    return counts


def _group_ring_butterfly(
    p: int, slots: int, nbytes: int, vals: list[int], sign: int
) -> list[int]:
    """sum_y zeta_p^(sign x.y) vals[y] at every point x of Z_p^n, in place.

    Radix-p butterfly, one pass per coordinate, on packed elements of the
    group ring Z[Z_slots] (p | slots): slot e, b = 8 * nbytes bits wide,
    counts zeta_slots^e. Callers keep every slot nonnegative and pick b so
    that no output slot reaches 2^b, so no slot ever carries into the next.
    The kernel zeta_p^(sign t d) = zeta_slots^((sign t d mod p) slots/p) is
    a cyclic rotation of the slots: shift left, then fold the bits above
    the top slot back onto the bottom one. Point-index order in and out.
    """
    size = len(vals)
    bits = 8 * nbytes
    width = slots * bits
    mask = (1 << width) - 1
    unit = (slots // p) * bits
    kernel = [[((sign * t * d) % p) * unit for d in range(p)] for t in range(p)]
    stride = 1
    while stride < size:
        span = stride * p
        for start in range(0, size, span):
            for base in range(start, start + stride):
                olds = vals[base : base + span : stride]
                for t, shifts in enumerate(kernel):
                    acc = sum(map(lshift, olds, shifts))
                    vals[base + t * stride] = (acc & mask) + (acc >> width)
        stride = span
    return vals


def _group_ring_spectrum(
    p: int, n: int, q: int, table: Sequence[int]
) -> tuple[list[int], int]:
    """S(u) for every point u as a packed element of Z[Z_q], and the slot bytes.

    Point x contributes the single count zeta_q^(f(x)). Counts are
    nonnegative and sum to p^n, so slots of the fewest bytes above p^n
    never carry. Output is in point-index order.
    """
    nbytes = _slot_bytes(p**n)
    bits = 8 * nbytes
    vals = [1 << (v * bits) for v in table]
    return _group_ring_butterfly(p, q, nbytes, vals, -1), nbytes


def _fast_spectrum(
    p: int, n: int, q: int, table: Sequence[int], modulus: int
) -> Spectrum:
    packed, nbytes = _group_ring_spectrum(p, n, q, table)
    step = modulus // q
    # Spectral values repeat (a gbent spectrum takes at most 4q), so each
    # distinct element is canonicalized once.
    canonical: dict[int, CycInt] = {}
    values = []
    for v in packed:
        value = canonical.get(v)
        if value is None:
            value = canonical[v] = _counts_to_cycint(
                modulus, _slot_counts(v, q, nbytes), step
            )
        values.append(value)
    return Spectrum(p, n, q, modulus, tuple(values))


def wht_fast(f: GBFunction) -> Spectrum:
    """The spectrum of any function Z_p^n -> Z_q by the packed butterfly.

    O(n p^(n+1)) bigint shift-adds on (q b)-bit ints, then one sparse
    canonicalization per distinct value. Agrees entrywise with wht_naive.
    """
    return _fast_spectrum(f.p, f.n, f.q, f.table, lcm(4, f.q))


def wht_pary_fast(g: PAryFunction, modulus: Optional[int] = None) -> Spectrum:
    """The engine on a p-ary function, with values in Z[zeta_modulus].

    Agrees entrywise with wht_naive on the embedding of g as a function
    into Z_p. The optional modulus (a multiple of lcm(4, p)) lets callers
    receive the values already embedded in a larger working ring.
    """
    base = lcm(4, g.p)
    if modulus is None:
        modulus = base
    elif modulus % base != 0:
        raise ValueError(f"modulus {modulus} is not a multiple of {base}")
    return _fast_spectrum(g.p, g.n, g.p, g.table, modulus)


def inverse_wht(s: Spectrum) -> tuple[CycInt, ...]:
    """Recover the values zeta_q^(f(x)) from a spectrum, exactly.

    Computes (1/p^n) sum_u zeta_p^(u.x) S(u) on the engine's butterfly,
    over the M = s.modulus slots of Z[Z_M], kernel zeta_p^(+t d). Each S(u)
    is lifted slot for slot from its canonical coefficients, and every
    slot is raised by B, the largest coefficient magnitude, so that all
    slots are nonnegative. The offset vanishes: B sum_e zeta_M^e is fixed
    by every rotation and is 0 in Z[zeta_M], so p^n of it cancel in the
    canonical form. Output slots lie in [0, p^n 2B], which fixes the slot
    width. The exact division by p^n fails (ExactDivisionError) when the
    input is not the spectrum of a Z_q-valued function.
    """
    p, n, modulus = s.p, s.n, s.modulus
    size = p**n
    bound = max((abs(c) for v in s.values for c in v.coeffs), default=0)
    nbytes = _slot_bytes(size * 2 * bound)
    pad = [bound] * (modulus - _context(modulus).degree)
    vals = [
        _pack_slots([c + bound for c in v.coeffs] + pad, nbytes) for v in s.values
    ]
    out = []
    for v in _group_ring_butterfly(p, modulus, nbytes, vals, 1):
        total = _counts_to_cycint(modulus, _slot_counts(v, modulus, nbytes))
        out.append(total.divide_exact(size))
    return tuple(out)


def _check_gamma_params(p: int, k: int, a: Sequence[int]) -> tuple[int, ...]:
    a = tuple(a)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(a) != k - 1:
        raise ValueError(f"expected {k - 1} coefficients, got {len(a)}")
    for ai in a:
        if not 0 <= ai < p:
            raise ValueError(f"coefficient {ai} out of range for Z_{p}")
    return a


def gamma_product(
    p: int, k: int, a: Sequence[int], modulus: Optional[int] = None
) -> CycInt:
    """gamma_a as a product of k-1 digit factors; O(k p) terms.

    Factor i is sum_(l in Z_p) zeta_p^(l a_i) zeta_(p^(i+1))^((p-l) mod p);
    substituting v_i = (p-l) mod p recovers exactly the defining sum, which
    the test suite certifies by comparing against gamma_general at q = p^k.
    """
    a = _check_gamma_params(p, k, a)
    if modulus is None:
        modulus = lcm(4, p**k)
    step_p = modulus // p
    result = CycInt.one(modulus)
    for i, ai in enumerate(a, start=1):
        step_i = modulus // p ** (i + 1)
        counts = [0] * modulus
        for l in range(p):
            e = ((l * ai) % p) * step_p + ((p - l) % p) * step_i
            counts[e % modulus] += 1
        result = result * _counts_to_cycint(modulus, counts)
    return result


def gamma_general(
    p: int, k: int, q: int, a: Sequence[int], modulus: Optional[int] = None
) -> CycInt:
    """gamma_a by its defining sum over v in Z_p^(k-1), with zeta_q in place
    of zeta_(p^k) for a target ring Z_q, p | q <= p^k.

    The exponent sum_j v_j p^(k-1-j) is the big-endian rank of v. At the
    prime-power boundary q = p^k this is the defining sum of gamma_a itself.
    """
    a = _check_gamma_params(p, k, a)
    if q % p != 0 or not (p ** (k - 1) < q <= p**k):
        raise ValueError(f"q={q} incompatible with p={p}, k={k}")
    if modulus is None:
        modulus = lcm(4, q)
    step_p = modulus // p
    step_q = modulus // q
    counts = [0] * modulus
    for rank, v in enumerate(all_points(p, k - 1)):
        dot = sum(ai * vi for ai, vi in zip(a, v)) % p
        e = ((-dot) % p) * step_p + (rank % q) * step_q
        counts[e % modulus] += 1
    return _counts_to_cycint(modulus, counts)


@dataclass(frozen=True)
class GammaTable:
    """All gamma coefficients for fixed (p, k, q), keyed by the vector a in
    big-endian rank order."""

    p: int
    k: int
    q: int
    modulus: int
    entries: dict[tuple[int, ...], CycInt]


@lru_cache(maxsize=None)
def gamma_table(p: int, k: int, q: int, modulus: Optional[int] = None) -> GammaTable:
    if modulus is None:
        modulus = lcm(4, q)
    prime_power = q == p**k
    entries = {
        a: gamma_product(p, k, a, modulus)
        if prime_power
        else gamma_general(p, k, q, a, modulus)
        for a in all_points(p, k - 1)
    }
    return GammaTable(p, k, q, modulus, entries)


def wht_composed(t: ComponentTuple) -> Spectrum:
    """Spectrum of compose(t) assembled from its digit-combination spectra.

    S_f(u) = (1/p^(k-1)) sum_a S_(f_0 + sum a_i f_i)(u) gamma_a, with the
    gamma table shared across all u. The combination tables and the gamma
    entries are both in big-endian rank order of a, so they pair by position.
    Equal entrywise to wht_naive(compose(t)).
    """
    p, k, q = t.p, t.k, t.q
    modulus = lcm(4, q)
    step_p = modulus // p
    size = p**t.n
    gammas = gamma_table(p, k, q)
    divisor = p ** (k - 1)
    # Per combination: digit-count rows plus the sparse exponent form of gamma.
    parts = []
    for table, gamma in zip(combination_tables(t), gammas.entries.values()):
        packed, nbytes = _group_ring_spectrum(p, t.n, p, table)
        digit_rows = [_slot_counts(v, p, nbytes) for v in packed]
        gamma_terms = [(j, gc) for j, gc in enumerate(gamma.coeffs) if gc]
        parts.append((digit_rows, gamma_terms))
    values = []
    for u in range(size):
        counts = [0] * modulus
        for digit_rows, gamma_terms in parts:
            for e, c in enumerate(digit_rows[u]):
                if c:
                    shift = e * step_p
                    for j, gc in gamma_terms:
                        counts[(j + shift) % modulus] += c * gc
        total = _counts_to_cycint(modulus, counts)
        try:
            values.append(total.divide_exact(divisor))
        except ExactDivisionError as e:
            raise InternalConsistencyError(
                f"composed spectrum not divisible by p^(k-1) at point {u}: {e}"
            ) from None
    return Spectrum(t.p, t.n, t.q, modulus, tuple(values))


# -- spectrum dump format ------------------------------------------------------


def spectrum_records(s: Spectrum) -> list[tuple[tuple[int, ...], str, str]]:
    """(point, canonical text of S(u), norm) records in point-index order.

    The norm field is the plain integer whenever norm_sq(S(u)) is rational
    (always the case for gbent-shaped values); otherwise it falls back to
    the canonical polynomial text.
    """
    points = all_points(s.p, s.n)
    # Spectral values repeat: render each distinct value and its norm once.
    texts: dict[CycInt, tuple[str, str]] = {}
    out = []
    for u, val in enumerate(s.values):
        pair = texts.get(val)
        if pair is None:
            norm = val.norm_sq()
            norm_text = str(norm.as_int()) if norm.is_rational_integer() else str(norm)
            pair = texts[val] = (str(val), norm_text)
        out.append((points[u], *pair))
    return out
