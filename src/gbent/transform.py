"""Generalized Walsh-Hadamard spectra, exactly.

Spectra are stored UNNORMALIZED: values[u] = S_f(u) = p^(n/2) H_f(u)
= sum_x zeta_p^(-u.x) zeta_q^(f(x)), which is always a cyclotomic integer.
The irrational normalizer p^(-n/2) is reintroduced symbolically (through
gauss_sqrt) only at classification time.

One engine computes every spectrum, and two independent paths check it:

  * wht_fast        - the engine, for any q: a radix-p butterfly over the
                      group ring Z[Z_q]. Each point's element is one Python
                      int holding q counts of b bits each, with 2^b > 2 p^n
                      (Kronecker substitution), so multiplying by zeta_p^t is
                      a cyclic rotation and the butterfly adds are native
                      bigint adds; point x starts as one count at slot f(x),
                      and equal groups of a pass share their outputs
                      (_group_ring_butterfly). The slot map (below) then
                      reads each distinct element into Z[zeta_M].
                      wht_pary_fast is the same engine for p-ary functions,
                      with the values embedded in a caller-chosen ring.
  * wht_naive       - direct double loop over (u, x), O(p^(2n)); the trusted
                      oracle the tests compare the engine against. It
                      counts each S(u) over the q exponents of zeta_q, one
                      row of gbfunc._pairing_rows at a time, and shares only
                      the ring's canonicalization with the engine.
  * wht_composed    - the paper's composition identity
                      S_f = (1/C) sum_a gamma_a S_a over the C = p^(k-1)
                      digit combinations, through the carry coefficients
                      gamma_a. It equals wht_naive only if the identity holds.

A component tuple runs the same butterfly over p^k digit slots
(_digit_spectra): x starts as one count at the big-endian rank of
(f_0(x), ..., f_(k-1)(x)), and since zeta_p moves only the leading digit,
slot v_0 C + r at u (C = p^(k-1)) counts the x with f_0(x) - u.x = v_0
mod p whose lower digits have rank r. At q = p^k the rank of f(x)'s digits
is f(x), so a table's butterfly over q slots is this same list. One reader
(_engine) turns either layout into values, as wht_naive reads its counts:
slot v_0 C + r, C = slots/p, stands for zeta_q^(((q/p) v_0 + r) mod q),
compose's value of those digits (_slot_exponents), and each distinct
element's nonzero counts are reduced sparsely at those exponents.
wht_composed reads the digit slots so once _gamma_weights has checked the
carry weights zeta_p^(v_0) w_r, w_r the inverse_wht of the gamma table at
r, to be those roots: the root-reconstruction identity w_r = zeta_q^r.

Over p^k slots the packed element itself names its ring element: the
kernel of Z[Z_(p^k)] -> Z[zeta_(p^k)] is the elements constant on every
coset r + iC, and _coset_key maps each element to an integer that is
equal for two elements exactly when they differ by such constants. Coset
r, read as an element of Z[zeta_p], is the inverse Hadamard transform at
row r of the vector of combination spectra (S_a(u))_a, so one key names
both the spectral value at q = p^k and the component-spectrum vector, and
classify.analyze reads the verdict, the spectral form and the row table
off one butterfly by one decode per distinct key: a candidate
p^(n/2) alpha zeta_q^e counts only at the slots r + iC of one column r,
which _key_columns reads off the key's lowest nonzero digit.

inverse_wht runs the engine's butterfly backwards, kernel zeta_p^(+u.x),
over the M slots of Z[Z_M], on spectral values lifted to nonnegative
slots by a constant that is 0 in Z[zeta_M]; each output is reduced
straight from its packed int (cyclotomic._reduce_packed) and divided
exactly by p^n.

The gamma_a coefficient is the character-weighted sum of p^k-th roots of
unity sum_v zeta_p^(-a.v) zeta_(p^k)^(sum_j v_j p^(k-1-j)); it converts
between a radix-p digit expansion and its component spectra. A product
form with one factor per digit evaluates the same element in O(k p) terms,
and a zeta_q analogue covers targets Z_q with p^(k-1) < q < p^k.

All divisions here are exact integer divisions with a hard error on any
remainder: the identities guarantee divisibility, so a failure is a bug
(or, for inverse_wht, an input that is not a valid spectrum; the converse
does not hold, see inverse_wht).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import getitem, lshift
from typing import Callable, Optional, Sequence

from .cyclotomic import (
    CycInt,
    _context,
    _pack_signed,
    _pack_slots,
    _reduce_packed,
    _reduce_terms,
    _require_roots,
    _slot_bytes,
    _slot_counts,
    root,
)
from .errors import ExactDivisionError, InternalConsistencyError
from .gbfunc import (
    ComponentTuple,
    GBFunction,
    PAryFunction,
    _checked_vector,
    _digit_sum,
    _pairing_rows,
    _Record,
    all_points,
)


class Spectrum(_Record):
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
        if self.modulus % lcm(4, self.q):
            raise ValueError(f"modulus {self.modulus} is not a multiple of lcm(4, {self.q})")
        for v in self.values:
            if v.modulus != self.modulus:
                raise ValueError(
                    f"spectral value modulus {v.modulus} != {self.modulus}"
                )


def _counts_to_cycint(modulus: int, counts: Sequence[int], step: int = 1) -> CycInt:
    """Canonicalize sum_e counts[e] zeta_modulus^(e step), reading sparse rows.

    With step = modulus/q, counts[e] counts zeta_q^e, so a sum of q-th roots
    of unity is counted over q slots rather than all of Z_modulus.
    """
    terms = zip(range(0, len(counts) * step, step), counts)
    return CycInt(modulus, _reduce_terms(_context(modulus), terms))


def wht_naive(f: GBFunction, jobs: int = 1) -> Spectrum:
    """Direct evaluation of S(u) = sum_x zeta_p^(-u.x) zeta_q^(f(x)).

    The trusted oracle: O(p^(2n)), and independent of the engine's
    butterfly; only the canonicalization is shared. Each x gets its p
    exponents (f(x) - (q/p) d) mod q of zeta_q once, and S(u) counts its
    terms over the q exponents, picking d = u.x mod p off row u of the
    pairing. It always runs in this process: jobs must be >= 1 and has no
    other effect.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    p, n, q = f.p, f.n, f.q
    modulus = lcm(4, q)
    shift = q // p
    exps = [tuple((v - d * shift) % q for d in range(p)) for v in range(q)]
    rows = [exps[v] for v in f.table]
    values = []
    for dots in _pairing_rows(p, n):
        counts = [0] * q
        for e in map(getitem, rows, dots):
            counts[e] += 1
        values.append(_counts_to_cycint(modulus, counts, modulus // q))
    return Spectrum(p, n, q, modulus, tuple(values))


def _group_ring_butterfly(
    p: int,
    slots: int,
    nbytes: int,
    vals: Sequence,
    sign: int,
    first: Optional[Callable[[tuple], tuple[int, ...]]] = None,
) -> list[int]:
    """sum_y zeta_p^(sign x.y) vals[y] at every point x of Z_p^n, len(vals)
    = p^n, as a new list; vals is not changed.

    Radix-p butterfly on packed elements of the group ring Z[Z_slots]
    (p | slots): slot e, b = 8 * nbytes bits wide, counts zeta_slots^e.
    Callers keep every slot nonnegative and pick b so that no output slot
    reaches 2^b, so no slot ever carries into the next. The kernel
    zeta_p^(sign t d) = zeta_slots^((sign t d mod p) slots/p) is a cyclic
    rotation of the slots: shift left, then fold the bits above the top slot
    back onto the bottom one; the d = 0 term takes no shift. first, if
    given, computes the first pass's p outputs of a group of p items of
    vals in place of the packed group (see _count_butterfly).

    Self-sorting passes: each reads the list as p^(n-1) groups of p
    consecutive items, which differ in the last coordinate only, and writes
    output t of group i at t p^(n-1) + i, so the transformed coordinate
    moves to the front. After n passes the points are back in point-index
    order, with no strided reads or writes.

    A group's p outputs depend only on its p inputs (the kernel is fixed for
    the call), so each pass memoizes them by the tuple of inputs, and groups
    with equal inputs share the same output objects. Structured inputs,
    such as constructed functions, repeat many groups; dense random ones
    stop repeating after a pass or two. The memo is dropped at the end of
    each pass, so it holds at most p^n / p keys, and after a pass in which
    no group repeats, the rest of the call runs without it.
    """
    bits = 8 * nbytes
    width = slots * bits
    mask = (1 << width) - 1
    unit = (slots // p) * bits
    kernel = [[((sign * t * d) % p) * unit for d in range(1, p)] for t in range(1, p)]

    def group(olds: tuple[int, ...]) -> tuple[int, ...]:
        head, tail = olds[0], olds[1:]
        outs = [sum(olds)]  # t = 0 rotates nothing, so nothing folds
        for shifts in kernel:
            acc = sum(map(lshift, tail, shifts), head)
            outs.append((acc & mask) + (acc >> width))
        # The garbage collector untracks a tuple of ints, not a list, so the
        # outputs a pass holds add no work to its older generations.
        return tuple(outs)

    step, memo, span = first or group, True, 1
    while span < len(vals):
        outs, memo = _group_outputs(p, step, vals, memo)
        del vals  # frees the input list, unless the caller holds it, before the output
        vals = [out[t] for t in range(p) for out in outs]  # t of group i at t p^(n-1) + i
        del outs
        step, span = group, span * p
    return vals if span > 1 else list(vals)


def _group_outputs(
    p: int, step: Callable[[tuple], tuple[int, ...]], vals: Sequence, memo: bool
) -> tuple[list[tuple[int, ...]], bool]:
    """step of each group of p consecutive items of vals, and whether some
    group repeated, which decides the memo of the next pass. With memo,
    groups with equal inputs share one step and its output objects."""
    groups = zip(*[iter(vals)] * p)
    if not memo:
        return list(map(step, groups)), False
    seen: dict[tuple, tuple[int, ...]] = {}
    outs = [seen.get(olds) or seen.setdefault(olds, step(olds)) for olds in groups]
    return outs, len(seen) < len(outs)


def _count_butterfly(
    p: int, n: int, slots: int, table: Sequence[int]
) -> tuple[list[int], int]:
    """sum_x zeta_p^(-u.x) zeta_slots^(table[x]) at every point u, packed.

    Point x starts as the single count at slot table[x]. Counts are
    nonnegative and sum to p^n, so slots of the fewest bytes above 2 p^n
    never carry, and the difference of two counts fits in a slot as a
    signed number, which _coset_key needs. Returns the packed elements in
    point-index order and the slot bytes.

    The butterfly reads the table itself: output t of a first-pass group of
    slot indices (e_0, ..., e_(p-1)) is the sum over d of the single count
    at e_d rotated by (-t d mod p) slots/p slots, read off p rotated copies
    of the singles, so that pass is memoized by tuples of small ints.
    """
    nbytes = _slot_bytes(2 * p**n)
    bits = 8 * nbytes
    singles = [1 << (e * bits) for e in range(slots)]
    turn = slots // p
    rotated = [singles[r * turn :] + singles[: r * turn] for r in range(p)]
    rows = [[rotated[(-t * d) % p] for d in range(p)] for t in range(p)]

    def first(slot_indices: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([sum(map(getitem, row, slot_indices)) for row in rows])

    return _group_ring_butterfly(p, slots, nbytes, table, -1, first), nbytes


def _coset_key(p: int, slots: int, nbytes: int) -> Callable[[int], int]:
    """The integer key of a packed element of p blocks of C = slots/p slots,
    slots a power of p: the low p - 1 blocks minus the top block broadcast
    to each, so digit r + iC is count_(r + iC) - count_(r + (p-1) C).

    Keys are equal exactly when the elements differ by a constant on every
    coset r + iC, the kernel of Z[Z_slots] -> Z[zeta_slots]: the digits of
    butterfly output lie in [-p^n, p^n], which slots of 2^b > 2 p^n
    (_count_butterfly) decode uniquely. Four bigint ops per element.
    """
    block = (slots // p) * 8 * nbytes
    top = (p - 1) * block
    low = (1 << top) - 1
    broadcast = sum(1 << (i * block) for i in range(p - 1))

    def key(v: int) -> int:
        return (v & low) - (v >> top) * broadcast

    return key


def _key_columns(p: int, slots: int, nbytes: int) -> tuple[Callable, list[int]]:
    """split, key -> (r, key moved down r slots) with r the column mod
    C = slots/p of the key's lowest nonzero digit, and the keys of single
    counts at slots jC, j < p. An element counted only at slots r + iC
    splits into r and the key of its column-0 shape; any other nonzero key
    keeps a digit outside column 0, and 0 stays 0."""
    bits, combos = 8 * nbytes, slots // p
    key = _coset_key(p, slots, nbytes)

    def split(k: int) -> tuple[int, int]:
        r = ((k & -k).bit_length() - 1) // bits % combos
        return r, k >> (r * bits)

    return split, [key(1 << (j * combos * bits)) for j in range(p)]


def _distinct(items: Sequence) -> tuple[list, list[int]]:
    """The distinct items in first-seen order, and each item's position
    among them: one hash per item."""
    index: dict = {}
    positions = [index.setdefault(v, len(index)) for v in items]
    return list(index), positions


def _per_distinct(items: Sequence, convert: Callable) -> tuple:
    """convert(v) for every v of items, computed once per distinct v.

    Spectra repeat their values (a gbent spectrum takes at most 4q), and
    so do the packed elements they come from.
    """
    distinct, positions = _distinct(items)
    return _spread([convert(v) for v in distinct], positions)


def _spread(done: Sequence, positions: Sequence[int]) -> tuple:
    """The per-item tuple of values computed once per distinct item."""
    return tuple(map(done.__getitem__, positions))


@lru_cache(maxsize=32)
def _slot_exponents(p: int, q: int, modulus: int, slots: int) -> tuple[int, ...]:
    """The slot map in Z_modulus: slot v_0 C + r, C = slots/p, stands for
    zeta_q^(((q/p) v_0 + r) mod q), and entry v_0 C + r is that root's
    exponent as a power of zeta_modulus."""
    step = modulus // q
    return tuple(((q // p) * v + r) % q * step for v in range(p) for r in range(slots // p))


def _digit_spectra(t: ComponentTuple) -> tuple[list[int], int]:
    """The engine's butterfly over the p^k digit slots of a component tuple,
    x starting at the big-endian rank of (f_0(x), ..., f_(k-1)(x)) (see the
    module docstring). Returns the packed elements and the slot bytes.
    """
    ranks = _digit_sum(t, [t.p ** (t.k - 1 - i) for i in range(t.k)], t.p**t.k)
    return _count_butterfly(t.p, t.n, t.p**t.k, ranks)


def _engine(
    source: GBFunction | ComponentTuple, modulus: Optional[int] = None
) -> tuple[int, list[int], int, Callable[[int], CycInt]]:
    """The engine's butterfly on a table, over its q slots, or on a component
    tuple, over its p^k digit slots: the slot count, the packed elements in
    point-index order, the slot bytes, and their reader into Z[zeta_M],
    M = modulus or lcm(4, q). The reader reduces each nonzero slot count at
    its slot-map exponent (_slot_exponents), as wht_naive reduces its
    counts, and builds the ring's tables only at its first read."""
    p, q = source.p, source.q
    modulus = modulus or lcm(4, q)
    if isinstance(source, ComponentTuple):
        slots, (packed, nbytes) = p**source.k, _digit_spectra(source)
    else:
        slots, (packed, nbytes) = q, _count_butterfly(p, source.n, q, source.table)

    def read(v: int) -> CycInt:
        terms = zip(_slot_exponents(p, q, modulus, slots), _slot_counts(v, slots, nbytes))
        return CycInt(modulus, _reduce_terms(_context(modulus), terms))

    return slots, packed, nbytes, read


def _fast_spectrum(source: GBFunction | ComponentTuple, modulus: Optional[int] = None) -> Spectrum:
    """The engine's spectrum of source, read once per distinct packed element."""
    modulus = modulus or lcm(4, source.q)
    _, packed, _, read = _engine(source, modulus)
    return Spectrum(source.p, source.n, source.q, modulus, _per_distinct(packed, read))


def wht_fast(f: GBFunction) -> Spectrum:
    """The spectrum of any function Z_p^n -> Z_q by the packed butterfly.

    O(n p^(n+1)) bigint shift-adds on (q b)-bit ints, then one sparse
    reduction of the nonzero slot counts per distinct value. Agrees
    entrywise with wht_naive.
    """
    return _fast_spectrum(f)


def wht_pary_fast(g: PAryFunction, modulus: Optional[int] = None) -> Spectrum:
    """The engine on a p-ary function, with values in Z[zeta_modulus].

    Agrees entrywise with wht_naive on the embedding of g as a function
    into Z_p. The optional modulus (a multiple of lcm(4, p)) lets callers
    receive the values already embedded in a larger working ring.
    """
    if modulus is not None:
        _require_roots(modulus, lcm(4, g.p))
    return _fast_spectrum(g.as_gbfunction(), modulus)


def inverse_wht(s: Spectrum) -> tuple[CycInt, ...]:
    """Recover the values zeta_q^(f(x)) from a spectrum, exactly.

    Computes (1/p^n) sum_u zeta_p^(u.x) S(u) on the engine's butterfly,
    over the M = s.modulus slots of Z[Z_M], kernel zeta_p^(+t d). Each S(u)
    is lifted slot for slot from its canonical coefficients, and every
    slot is raised by B, the largest coefficient magnitude, so that all
    slots are nonnegative. The offset vanishes: B sum_e zeta_M^e is fixed
    by every rotation and is 0 in Z[zeta_M], so p^n of it cancel in the
    canonical form. Output slots lie in [0, p^n 2B], and each output is
    reduced in blocks (cyclotomic._reduce_packed) to canonical
    coefficients of magnitude at most L p^n B, L the ring's fold; slots of
    2^b > L p^n 2B bits hold both. The map is linear, so the input need
    not be the spectrum of a function: the zero spectrum inverts to zeros
    and c S to c zeta_q^(f(x)). The exact division by p^n fails
    (ExactDivisionError) only when some sum_u zeta_p^(u.x) S(u) is not
    divisible by p^n, which rules out every such input but not every input
    that is not a spectrum.
    """
    p, n, modulus = s.p, s.n, s.modulus
    ctx = _context(modulus)
    size = p**n
    bound = max((max(max(v.coeffs), -min(v.coeffs)) for v in s.values), default=0)
    nbytes = _slot_bytes(ctx.fold * size * 2 * bound)
    lift = _pack_slots([bound] * modulus, nbytes)
    # Passed unnamed, so the butterfly frees the lifted inputs after its first pass.
    outs = _group_ring_butterfly(
        p, modulus, nbytes, [_pack_signed(v.coeffs, nbytes) + lift for v in s.values], 1
    )
    return tuple(
        CycInt(modulus, _reduce_packed(ctx, v, nbytes)).divide_exact(size) for v in outs
    )


def _check_gamma_params(p: int, k: int, a: Sequence[int]) -> tuple[int, ...]:
    if k < 1:
        raise ValueError("k must be >= 1")
    return _checked_vector("a", a, k - 1, 0, p)


def gamma_product(p: int, k: int, a: Sequence[int]) -> CycInt:
    """gamma_a as a product of k-1 digit factors, in Z[zeta_M], M = lcm(4, p^k).

    Factor i is sum_(l in Z_p) zeta_p^(l a_i) zeta_(p^(i+1))^((p-l) mod p);
    substituting v_i = (p-l) mod p recovers exactly the defining sum. This
    is the reference form that the tests and selftest compare gamma_general
    against at q = p^k.
    """
    a = _check_gamma_params(p, k, a)
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


def gamma_general(p: int, k: int, q: int, a: Sequence[int]) -> CycInt:
    """gamma_a by its defining sum over v in Z_p^(k-1), with zeta_q in place
    of zeta_(p^k) for a target ring Z_q, p | q <= p^k, in Z[zeta_M],
    M = lcm(4, q).

    The exponent sum_j v_j p^(k-1-j) is the big-endian rank of v. At the
    prime-power boundary q = p^k this is the defining sum of gamma_a itself.
    """
    a = _check_gamma_params(p, k, a)
    if q % p != 0 or not (p ** (k - 1) < q <= p**k):
        raise ValueError(f"q={q} incompatible with p={p}, k={k}")
    modulus = lcm(4, q)
    shift = q // p
    counts = [0] * q
    for rank, dot in enumerate(next(_pairing_rows(p, k - 1, a))):
        counts[(rank - dot * shift) % q] += 1
    return _counts_to_cycint(modulus, counts, modulus // q)


class GammaTable(_Record):
    """All gamma coefficients for fixed (p, k, q), keyed by the vector a in
    big-endian rank order, in Z[zeta_M], M = lcm(4, q)."""

    p: int
    k: int
    q: int
    modulus: int
    entries: dict[tuple[int, ...], CycInt]


@lru_cache(maxsize=32)
def gamma_table(p: int, k: int, q: int) -> GammaTable:
    """The defining sum (gamma_general) at every a, for every q."""
    entries = {a: gamma_general(p, k, q, a) for a in all_points(p, k - 1)}
    return GammaTable(p, k, q, lcm(4, q), entries)


@lru_cache(maxsize=32)
def _gamma_weights(p: int, k: int, q: int) -> tuple[CycInt, ...]:
    """zeta_p^(v_0) w_r for every digit slot v_0 C + r of _digit_spectra.

    w_r = (1/C) sum_a zeta_p^(a.v') gamma_a, with v' the digits of rank r,
    is inverse_wht of the gamma table over Z_p^(k-1). Each weight is the
    rotation of w_r by v_0 M/p (CycInt.rotate), and is its slot's root
    (_slot_exponents) exactly when the composition identity holds. A
    remainder in the division by C, or a weight off its root, means the
    gamma table is wrong: InternalConsistencyError.
    """
    modulus = lcm(4, q)
    step = modulus // p
    gammas = gamma_table(p, k, q).entries.values()
    try:
        rows = inverse_wht(Spectrum(p, k - 1, q, modulus, tuple(gammas)))
    except ExactDivisionError as e:
        raise InternalConsistencyError(
            f"gamma table not divisible by p^(k-1): {e}"
        ) from None
    weights = tuple(w.rotate(e * step) for e in range(p) for w in rows)
    if weights != tuple(root(modulus, e) for e in _slot_exponents(p, q, modulus, p**k)):
        raise InternalConsistencyError(
            f"carry weights at p={p}, k={k}, q={q} are not the slot map's roots"
        )
    return weights


def wht_composed(t: ComponentTuple) -> Spectrum:
    """Spectrum of compose(t) assembled through the gamma coefficients.

    The composition identity is S_f(u) = (1/C) sum_a gamma_a S_a(u), where
    S_a is the spectrum of the combination f_0 + sum a_i f_i and
    C = p^(k-1). Expanding each S_a over the digit counts of _digit_spectra
    and summing over a first gives S_f(u) = sum over slots v_0 C + r of the
    count times zeta_p^(v_0) w_r, which _gamma_weights checks, once per
    (p, k, q), to be the slot map's roots; so the sum is the engine's read
    of the digit slots. Equal entrywise to wht_naive(compose(t)).
    """
    _gamma_weights(t.p, t.k, t.q)
    return _fast_spectrum(t)


# -- spectrum dump format ------------------------------------------------------


def spectrum_records(s: Spectrum) -> list[tuple[tuple[int, ...], str, str]]:
    """(point, canonical text of S(u), norm) records in point-index order.

    The norm field is the plain integer whenever norm_sq(S(u)) is rational
    (always the case for gbent-shaped values); otherwise it falls back to
    the canonical polynomial text.
    """

    def render(val: CycInt) -> tuple[str, str]:
        norm = val.norm_sq()
        return str(val), str(norm.as_int()) if norm.is_rational_integer() else str(norm)

    pairs = _per_distinct(s.values, render)
    return [(u, *pair) for u, pair in zip(all_points(s.p, s.n), pairs)]
