import os
import random
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbent import (
    ComponentTuple,
    CycInt,
    ExactDivisionError,
    FunctionDoc,
    GBFunction,
    InternalConsistencyError,
    PAryFunction,
    Spectrum,
    all_points,
    analyze,
    build_maiorana,
    compose,
    example_maiorana_q27,
    gamma_general,
    gamma_product,
    gamma_table,
    inverse_wht,
    root,
    spectrum_records,
    wht_composed,
    wht_fast,
    wht_naive,
    wht_pary_fast,
)
from gbent import cyclotomic, transform
from gbent.cyclotomic import _pack_slots, _slot_counts
from gbent.gbfunc import smallest_exponent
from gbent.transform import (
    _coset_key,
    _count_butterfly,
    _counts_to_cycint,
    _digit_spectra,
    _fast_spectrum,
    _gamma_weights,
    _group_ring_butterfly,
    _slot_bytes,
    _slot_exponents,
)
from conftest import (
    all_slices,
    butterfly_bytes,
    coset_key_oracle,
    lone_slice,
    random_gbfunction,
    random_pary,
    random_spec,
    random_tuple,
    rank_vector,
    replace_everywhere,
)

# Targets with several prime factors, even ones included.
GENERAL_Q = (6, 12, 18, 24, 15, 21, 105)


def zeta_q(modulus, q, e):
    return root(modulus, (e * (modulus // q)) % modulus)


def assert_parseval(s: Spectrum):
    total = sum((v.norm_sq() for v in s.values), CycInt.zero(s.modulus))
    assert total == s.p ** (2 * s.n)


def test_naive_constant_zero():
    s = wht_naive(GBFunction(3, 1, 9, (0, 0, 0)))
    assert s.values[0] == 3
    assert s.values[1].is_zero() and s.values[2].is_zero()
    assert_parseval(s)


def test_naive_linear_multiple():
    # f(x) = 3x into Z_9 collapses to a zeta_3 character: S(u) = 3 [u = 1].
    s = wht_naive(GBFunction(3, 1, 9, (0, 3, 6)))
    assert s.values[0].is_zero()
    assert s.values[1] == 3
    assert s.values[2].is_zero()


# Each q with every odd prime p | q and both parities of n, p^n <= 49.
NAIVE_CASES = [(p, n, q) for q in (6, 9, 15, 21, 25, 27, 45, 49, 125)
               for p in (3, 5, 7) if q % p == 0 for n in (1, 2, 3) if p**n <= 49]


@pytest.mark.parametrize("p,n,q", NAIVE_CASES)
def test_naive_equals_direct_root_sum(p, n, q):
    # S(u) = sum_x zeta_p^(-u.x) zeta_q^(f(x)), one root per term, with u.x
    # from the coordinates: no counts, no pairing table.
    rng = random.Random(q * 100 + p * 10 + n)
    f = random_gbfunction(rng, p, n, q)
    modulus = lcm(4, q)
    points = all_points(p, n)
    expected = []
    for u in points:
        acc = CycInt.zero(modulus)
        for x, v in zip(points, f.table):
            dot = sum(a * b for a, b in zip(u, x))
            acc = acc + root(modulus, v * (modulus // q) - dot * (modulus // p))
        expected.append(acc)
    assert wht_naive(f).values == tuple(expected)


def test_naive_oracle_runs_no_engine(monkeypatch, rng):
    # The oracle and the carry sums must not reach the butterfly or the
    # engine's slot map, or engine-vs-naive tests would compare a path with
    # itself. They share only the ring's sparse reduction, which
    # test_counts_to_cycint_matches_sympy checks against sympy.
    cases = [random_gbfunction(rng, p, n, q) for p, n, q in ((3, 3, 27), (3, 2, 21), (5, 2, 25))]
    spectra = [wht_fast(f).values for f in cases]
    gammas = {(p, k, q): [gamma_product(p, k, a) for a in all_points(p, k - 1)]
              for p, k, q in ((3, 3, 27), (5, 3, 125))}
    general = [gamma_general(3, 3, 21, a) for a in all_points(3, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("the naive oracle reached the engine")

    for name in ("_group_ring_butterfly", "_count_butterfly", "_slot_exponents"):
        replace_everywhere(monkeypatch, getattr(transform, name), refuse)
    assert [wht_naive(f).values for f in cases] == spectra
    for (p, k, q), expected in gammas.items():
        assert [gamma_general(p, k, q, a) for a in all_points(p, k - 1)] == expected
    assert [gamma_general(3, 3, 21, a) for a in all_points(3, 2)] == general
    with pytest.raises(AssertionError, match="reached the engine"):
        wht_fast(cases[0])


def test_naive_oracle_runs_in_linear_memory():
    # The oracle holds one pairing row at a time, O(n p^n) entries. At p=3
    # n=6 a table of all p^(2n) pairings, 729 tuples of 729 entries, would
    # take about 4.3 MB on its own; the whole call peaks under 1.5 MB. A
    # fresh process, so no cache filled by another test counts either way.
    code = (
        "import random, tracemalloc\n"
        "from gbent import GBFunction, wht_naive\n"
        "rng = random.Random(1)\n"
        "f = GBFunction(3, 6, 9, tuple(rng.randrange(9) for _ in range(729)))\n"
        "tracemalloc.start()\n"
        "wht_naive(f)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stderr == ""
    assert int(done.stdout) < 1.5 * 2**20


def test_fast_constant_zero():
    s = wht_pary_fast(PAryFunction(3, 2, (0,) * 9))
    assert s.values[0] == 9
    assert all(v.is_zero() for v in s.values[1:])


def test_fast_quadratic_magnitude():
    s = wht_pary_fast(PAryFunction(3, 1, (0, 1, 1)))
    for v in s.values:
        assert v.norm_sq() == 3


def test_fast_equals_naive_oracle(rng):
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 3)):
        for _ in range(4):
            g = random_pary(rng, p, n)
            fast = wht_pary_fast(g)
            naive = wht_naive(g.as_gbfunction())
            assert fast.values == naive.values
            assert_parseval(fast)


def test_fast_modulus_embedding(rng):
    g = random_pary(rng, 3, 2)
    small = wht_pary_fast(g)
    large = wht_pary_fast(g, modulus=108)
    for a, b in zip(small.values, large.values):
        assert a.promote(108) == b


@st.composite
def engine_inputs(draw):
    """A function Z_p^n -> Z_q: random (almost never gbent) or constant."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, 3))
    q = draw(st.sampled_from((p, p**2, p**3) + tuple(q for q in GENERAL_Q if q % p == 0)))
    if draw(st.booleans()):
        return GBFunction(p, n, q, (draw(st.integers(0, q - 1)),) * p**n)
    return random_gbfunction(random.Random(draw(st.integers(0, 2**32))), p, n, q)


@settings(max_examples=60, deadline=None)
@given(engine_inputs())
def test_engine_equals_naive_oracle(f):
    fast = wht_fast(f)
    assert (fast.q, fast.modulus) == (f.q, lcm(4, f.q))
    assert fast.values == wht_naive(f).values


@pytest.mark.parametrize("q", [3, 6, 27, 105])
def test_engine_full_slot(q):
    # 3^5 = 243 points: a constant table puts every point's count into one
    # slot at u = 0. A one-byte slot would hold the count, but not the
    # signed difference of two counts that the coset key needs, so the
    # butterfly takes two bytes.
    f = GBFunction(3, 5, q, (q - 1,) * 243)
    assert _slot_bytes(243) == 1 and _slot_bytes(256) == 2
    assert butterfly_bytes(3, 5) == 2 and butterfly_bytes(5, 3) == 1
    fast = wht_fast(f)
    assert fast.values[0] == 243 * root(fast.modulus, (q - 1) * (fast.modulus // q))
    assert all(v.is_zero() for v in fast.values[1:])
    assert fast.values == wht_naive(f).values


def _structured(rng, case):
    """A function whose butterfly repeats groups: the memo's hit path."""
    if case == "constant":
        return GBFunction(3, 4, 27, (5,) * 81)
    if case == "affine":
        # 4 + 2 x_1 + 7 x_2 + 3 x_4 into Z_9: the output ignores x_3.
        w = (2, 7, 0, 3)
        return GBFunction(3, 4, 9, tuple(
            (4 + sum(wi * xi for wi, xi in zip(w, x))) % 9 for x in all_points(3, 4)
        ))
    p, m, q = {"maiorana-q9": (3, 2, 9), "maiorana-q27": (3, 2, 27),
               "maiorana-q125": (5, 2, 125), "maiorana-q21": (3, 2, 21)}[case]
    return compose(build_maiorana(random_spec(rng, p, m, q)))


STRUCTURED = ("constant", "affine", "maiorana-q9", "maiorana-q27", "maiorana-q125",
              "maiorana-q21")


@pytest.mark.parametrize("case", STRUCTURED)
def test_engine_equals_naive_oracle_structured(rng, case):
    # Equal groups share their output objects, so shared objects among the
    # outputs show that the memo was hit.
    f = _structured(rng, case)
    packed, _ = _count_butterfly(f.p, f.n, f.q, f.table)
    assert len(set(map(id, packed))) < len(packed)
    assert wht_fast(f).values == wht_naive(f).values


def _direct_sum(p, n, slots, nbytes, vals, sign):
    """sum_y zeta_p^(sign x.y) vals[y] at every point x of Z_p^n, slot by
    slot in Z[Z_slots]: each of y's counts moves up (sign x.y mod p) slots/p
    slots. x.y comes from the coordinates, so no pairing code is shared
    with the naive oracle."""
    counts = [_slot_counts(v, slots, nbytes) for v in vals]
    points = all_points(p, n)
    out = []
    for x in points:
        acc = [0] * slots
        for vec, y in zip(counts, points):
            shift = (sign * sum(a * b for a, b in zip(x, y)) % p) * (slots // p)
            for e, c in enumerate(vec):
                acc[(e + shift) % slots] += c
        out.append(_pack_slots(acc, nbytes))
    return out


@pytest.mark.parametrize("dense", [False, True], ids=["repeating", "dense"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_ring_butterfly_equals_direct_sum(monkeypatch, rng, p, n, sign, dense):
    # Repeating inputs, two elements chosen by the leading coordinate, repeat
    # groups in every pass; dense ones repeat no group in the first pass, so
    # the memo is off for the rest of the call. The input list is left as it
    # was.
    slots, size = 2 * p, p**n
    nbytes = _slot_bytes(9 * size)
    pool = [_pack_slots([rng.randrange(10) for _ in range(slots)], nbytes)
            for _ in range(size if dense else 2)]
    vals = pool if dense else [pool[y // p ** (n - 1) % 2] for y in range(size)]
    before = list(vals)
    memos = []
    group_outputs = transform._group_outputs
    monkeypatch.setattr(transform, "_group_outputs",
                        lambda p, step, vals, memo: memos.append(memo) or
                        group_outputs(p, step, vals, memo))
    assert _group_ring_butterfly(p, slots, nbytes, vals, sign) == \
        _direct_sum(p, n, slots, nbytes, vals, sign)
    assert vals == before
    assert memos == [True] + [not dense] * (n - 1)


@pytest.mark.parametrize("case", ["affine", "maiorana-q27", "maiorana-q125"])
def test_count_butterfly_first_pass_shares_equal_slot_groups(monkeypatch, rng, case):
    # The first pass, computed from slot indices, gives groups with equal
    # slot-index tuples the same output objects, and each group's outputs
    # are the one-coordinate butterfly of its single counts.
    f = _structured(rng, case)
    p, q, table = f.p, f.q, f.table
    passes = []
    group_outputs = transform._group_outputs

    def spy(*args):
        outs, memo = group_outputs(*args)
        passes.append(outs)
        return outs, memo

    monkeypatch.setattr(transform, "_group_outputs", spy)
    packed, nbytes = _count_butterfly(p, f.n, q, table)
    assert len(passes) == f.n
    singles = [1 << (8 * nbytes * e) for e in range(q)]
    shared = {}
    for i, outs in enumerate(passes[0]):
        slot_indices = table[i * p : (i + 1) * p]
        assert shared.setdefault(slot_indices, outs) is outs
        assert list(outs) == _group_ring_butterfly(
            p, q, nbytes, [singles[e] for e in slot_indices], -1)
    assert len(shared) < len(passes[0])
    assert packed == _group_ring_butterfly(p, q, nbytes, [singles[v] for v in table], -1)


@pytest.mark.parametrize("case", ["maiorana-q27", "maiorana-q21"])
def test_inverse_round_trip_constructed(rng, case):
    # A gbent spectrum takes few distinct values, so the inverse butterfly
    # (sign +1) repeats groups too.
    f = _structured(rng, case)
    s = wht_fast(f)
    assert len(set(s.values)) < len(s.values)
    assert inverse_wht(s) == tuple(zeta_q(s.modulus, f.q, v) for v in f.table)


def _pack_slices(slices, nbytes):
    """The packed element whose slice r holds slices[r]: slot v_0 C + r is
    slices[r][v_0]."""
    return _pack_slots([s[v0] for v0 in range(len(slices[0])) for s in slices], nbytes)


def _ring_element(counts, p, k):
    """sum_e counts[e] zeta_(p^k)^e, canonical."""
    modulus = lcm(4, p**k)
    return _counts_to_cycint(modulus, counts, modulus // p**k)


def _assert_key_is_ring_equality(p, k, nbytes, first, second):
    key = _coset_key(p, p**k, nbytes)
    pair = [_pack_slots(c, nbytes) for c in (first, second)]
    assert [key(v) for v in pair] == [coset_key_oracle(c, p, nbytes) for c in (first, second)]
    assert (key(pair[0]) == key(pair[1])) == (
        _ring_element(first, p, k) == _ring_element(second, p, k))


def _assert_key_reads_slices(p, k, nbytes, v):
    """The key of v is 0 when every slice is constant and the key of the
    lone nonconstant slice alone when there is one."""
    key, combos = _coset_key(p, p**k, nbytes), p ** (k - 1)
    slices = all_slices(v, p, k, nbytes)
    lone = lone_slice(v, p, k, nbytes)
    if lone is None:
        assert (key(v) == 0) == all(min(s) == max(s) for s in slices)
    else:
        row, counts = lone
        alone = [counts if r == row else [0] * p for r in range(combos)]
        assert key(v) == key(_pack_slices(alone, nbytes))


# (p, k, n, slices, expected lone slice): slot bytes as the butterfly picks
# them for p^n points, and every count at most p^n.
CRAFTED_SLICES = {
    "every-slice-constant": (3, 3, 4, [[r, r, r] for r in range(9)], None),
    "two-nonconstant": (3, 3, 4, [[1, 1, 1]] * 2 + [[0, 1, 2]] + [[1, 1, 1]] * 3
                        + [[2, 1, 0]] + [[1, 1, 1]] * 2, None),
    "lone-at-first": (3, 3, 4, [[4, 1, 1]] + [[r, r, r] for r in range(1, 9)],
                      (0, [4, 1, 1])),
    "lone-at-last": (5, 2, 4, [[r] * 5 for r in range(4)] + [[300, 0, 0, 0, 7]],
                     (4, [300, 0, 0, 0, 7])),
    "differs-in-last-block": (3, 2, 2, [[6, 6, 6], [6, 6, 7], [6, 6, 6]], (1, [6, 6, 7])),
    "two-differ-in-last-block": (3, 2, 2, [[6, 6, 5], [6, 6, 7], [6, 6, 6]], None),
    "k1-lone": (5, 1, 1, [[1, 1, 1, 1, 2]], (0, [1, 1, 1, 1, 2])),
    "k1-constant": (5, 1, 1, [[3, 3, 3, 3, 3]], None),
    # Counts of p^n, the most a butterfly slot holds.
    "full-count-lone": (3, 3, 5, [[0, 0, 0]] * 4 + [[243, 0, 0]] + [[0, 0, 0]] * 4,
                        (4, [243, 0, 0])),
    "full-count-lone-at-last": (3, 3, 5, [[0, 0, 0]] * 8 + [[0, 243, 0]], (8, [0, 243, 0])),
    "full-count-beside-constant": (3, 2, 4, [[81, 81, 81], [0, 0, 81], [0, 0, 0]],
                                   (1, [0, 0, 81])),
    "full-count-two-nonconstant": (3, 2, 5, [[243, 0, 0], [0, 0, 0], [0, 0, 243]], None),
    "full-count-q125": (5, 3, 3, [[0] * 5] * 24 + [[0, 0, 0, 0, 125]], (24, [0, 0, 0, 0, 125])),
    "full-count-q343": (7, 3, 3, [[343] + [0] * 6] + [[0] * 7] * 48, (0, [343] + [0] * 6)),
}


@pytest.mark.parametrize("case", sorted(CRAFTED_SLICES))
def test_coset_key_crafted(case):
    # The key is the per-coset differences, so it is 0 when every slice is
    # constant and equals the key of the lone nonconstant slice alone; a
    # constant added to a coset keeps it and a bumped slot changes it, as
    # they keep and change the ring element.
    p, k, n, slices, expected = CRAFTED_SLICES[case]
    combos = p ** (k - 1)
    assert len(slices) == combos and all(len(s) == p for s in slices)
    assert max(max(s) for s in slices) <= p**n
    nbytes = butterfly_bytes(p, n)
    v = _pack_slices(slices, nbytes)
    key = _coset_key(p, p**k, nbytes)
    assert key(v) == coset_key_oracle(_slot_counts(v, p**k, nbytes), p, nbytes)
    assert lone_slice(v, p, k, nbytes) == expected
    _assert_key_reads_slices(p, k, nbytes, v)
    counts = list(_slot_counts(v, p**k, nbytes))
    for r in range(combos):
        lifted = [c + (e % combos == r) for e, c in enumerate(counts)]
        _assert_key_is_ring_equality(p, k, nbytes, counts, lifted)
        assert key(_pack_slots(lifted, nbytes)) == key(v)
    for e in (0, p**k - 1, combos * (p - 1)):
        bumped = counts[:e] + [counts[e] + 1] + counts[e + 1:]
        _assert_key_is_ring_equality(p, k, nbytes, counts, bumped)
        assert key(_pack_slots(bumped, nbytes)) != key(v)


def test_coset_key_at_the_byte_boundary():
    # At 3^5 = 243 points, 243 X^0 and X + 13 X^9 + 13 X^18 are different
    # elements of Z[zeta_27]. Their key digits are 243 at slot 0, and -13 at
    # slot 0 with 1 at slot 1: in one-byte slots both read 243, in the
    # butterfly's two-byte slots they differ.
    nbytes = butterfly_bytes(3, 5)
    first = [243] + [0] * 26
    second = [0] * 27
    second[1], second[9], second[18] = 1, 13, 13
    _assert_key_is_ring_equality(3, 3, nbytes, first, second)
    key = _coset_key(3, 27, nbytes)
    assert key(_pack_slots(first, nbytes)) != key(_pack_slots(second, nbytes))
    short = _coset_key(3, 27, 1)
    assert short(_pack_slots(first, 1)) == short(_pack_slots(second, 1)) == 243


def test_slice_reader_random_elements(rng):
    # Zero, one or two nonconstant slices among constant ones, in every slot
    # width the butterfly picks for small p^n: the coset key reads the
    # slices (0 when all are constant, the lone nonconstant slice's key when
    # there is one), it is the oracle's, and equal keys are equal ring
    # elements.
    for p, k, n in ((3, 1, 4), (3, 2, 4), (3, 4, 5), (5, 2, 3), (5, 3, 4), (7, 2, 3)):
        combos = p ** (k - 1)
        nbytes = butterfly_bytes(p, n)
        previous = None
        for _ in range(50):
            slices = [[rng.randrange(p**n + 1)] * p for _ in range(combos)]
            for r in rng.sample(range(combos), min(combos, rng.randrange(3))):
                slices[r][rng.randrange(p)] = rng.randrange(p**n + 1)
            v = _pack_slices(slices, nbytes)
            _assert_key_reads_slices(p, k, nbytes, v)
            counts = list(_slot_counts(v, p**k, nbytes))
            if previous is not None:
                _assert_key_is_ring_equality(p, k, nbytes, previous, counts)
            shift = [c + slices[e % combos][0] for e, c in enumerate(counts)]
            _assert_key_is_ring_equality(p, k, nbytes, counts, shift)
            previous = counts


@pytest.mark.parametrize("p,n,q,k", [(3, 2, 3, 1), (3, 4, 27, 3), (5, 2, 125, 3),
                                     (3, 5, 21, 3)])
def test_slice_reader_on_butterfly_outputs(rng, p, n, q, k):
    # The coset key reads the slices of the digit-slot butterfly's outputs,
    # and the keys partition the outputs as the elements of Z[zeta_(p^k)]
    # they stand for do.
    tuples = [random_tuple(rng, p, n, q, k)]
    if n % 2 == 0:
        tuples.append(build_maiorana(random_spec(rng, p, n // 2, q)))
    for t in tuples:
        packed, nbytes = _digit_spectra(t)
        assert nbytes == butterfly_bytes(p, n)
        key = _coset_key(p, p**k, nbytes)
        classes = {}
        for v in packed:
            counts = _slot_counts(v, p**k, nbytes)
            assert key(v) == coset_key_oracle(counts, p, nbytes)
            _assert_key_reads_slices(p, k, nbytes, v)
            classes.setdefault(key(v), set()).add(_ring_element(counts, p, k))
        assert all(len(c) == 1 for c in classes.values())
        assert len(set.union(*classes.values())) == len(classes)


# Every q = p^k <= 343, with p^n up to 343: 125, 243 and 343 sit next to
# the byte boundaries of the slot width.
KEY_SHAPES = [(p, k, n) for p, top in ((3, 5), (5, 3), (7, 3))
              for k in range(1, top + 1) for n in range(1, top + 1)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KEY_SHAPES), st.data())
def test_coset_key_equality_is_ring_equality(shape, data):
    p, k, n = shape
    slots, combos, bound = p**k, p ** (k - 1), p**n
    nbytes = butterfly_bytes(p, n)
    counts = data.draw(st.lists(st.integers(0, bound), min_size=slots, max_size=slots))
    how = data.draw(st.sampled_from(("coset-constants", "bump", "fresh")))
    if how == "coset-constants":
        lift = [data.draw(st.integers(-min(counts[r::combos]), bound - max(counts[r::combos])))
                for r in range(combos)]
        other = [c + lift[e % combos] for e, c in enumerate(counts)]
    elif how == "bump":
        e = data.draw(st.integers(0, slots - 1))
        other = counts[:]
        other[e] = data.draw(st.integers(0, bound).filter(lambda c: c != counts[e]))
    else:
        other = data.draw(st.lists(st.integers(0, bound), min_size=slots, max_size=slots))
    _assert_key_is_ring_equality(p, k, nbytes, counts, other)
    if how == "coset-constants":
        assert _coset_key(p, slots, nbytes)(_pack_slots(other, nbytes)) == \
            _coset_key(p, slots, nbytes)(_pack_slots(counts, nbytes))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(1, 3), st.integers(2, 5), st.integers(0, 2**32))
def test_fast_pary_larger_modulus(p, n, multiple, seed):
    g = random_pary(random.Random(seed), p, n)
    modulus = multiple * lcm(4, p)
    fast = wht_pary_fast(g, modulus)
    assert fast.modulus == modulus
    naive = wht_naive(g.as_gbfunction())
    assert fast.values == tuple(v.promote(modulus) for v in naive.values)


def test_fast_pary_rejects_bad_modulus():
    # Zero and negative multiples too, before the butterfly runs.
    for modulus in (18, 0, -12):
        with pytest.raises(ValueError, match="not a positive multiple of 12"):
            wht_pary_fast(PAryFunction(3, 1, (0, 1, 2)), modulus)


@pytest.mark.parametrize("modulus", [5, 10, 12, 30, 36])
def test_spectrum_refuses_ring_without_zeta_4_and_zeta_q(modulus):
    # Z[zeta_12] has no zeta_5: the butterfly would rotate by 12 // 5 = 2
    # slots, which is zeta_6, and inverse_wht would return zeta_6^x.
    values = [CycInt.zero(modulus)] * 5
    with pytest.raises(ValueError, match=r"not a multiple of lcm\(4, 5\)"):
        Spectrum(5, 1, 5, modulus, values)


def test_spectrum_accepts_multiples_of_lcm_4_q():
    for modulus in (20, 40, 60):
        assert Spectrum(5, 1, 5, modulus, [CycInt.integer(modulus, 5)] * 5).modulus == modulus


# (p, q): q = p, q = p^k, and general q with q/p even (6, 12, 14, 10) and
# odd (15, 21, 35, 105); then rings of hundreds of slots, M = 180, 500, 1372
# and 2916 (WIDE_TARGETS).
WIDE_TARGETS = [(3, 45), (5, 125), (7, 343), (3, 729)]
SLOT_MAP_TARGETS = [(3, 3), (5, 5), (7, 7), (3, 9), (3, 27), (5, 25), (7, 49), (3, 6),
                    (3, 12), (3, 15), (3, 21), (3, 105), (5, 10), (5, 35), (7, 14)] + WIDE_TARGETS


@pytest.mark.parametrize("p,q", SLOT_MAP_TARGETS)
def test_slot_map_spectrum_equals_naive_and_composed(rng, p, q):
    # The spectrum read off the digit-slot butterfly by the slot map, and
    # analyze's, on random tuples (not gbent) and constructed ones (gbent).
    k = smallest_exponent(p, q)
    m = 2 if p == 3 else 1
    tuples = [random_tuple(rng, p, 2 * m, q, k) for _ in range(2)]
    tuples += [build_maiorana(random_spec(rng, p, m, q)) for _ in range(2)]
    verdicts = []
    for t in tuples:
        f = compose(t)
        naive = wht_naive(f)
        assert _fast_spectrum(t) == naive
        assert wht_composed(t) == naive
        reg, _ = analyze(FunctionDoc(f, t))
        assert reg.gbent.spectrum == naive
        verdicts.append(bool(reg.gbent))
    assert verdicts == [False, False, True, True]


def test_no_spectrum_read_packs_weights(monkeypatch, rng):
    # The engine reads each packed element by sparse reduction at the slot
    # map's exponents, as the oracle reads its counts: once the caches are
    # warm (the gamma check runs inverse_wht, and the key tables multiply),
    # no spectrum read packs a ring element, in rings of hundreds of slots.
    cases, paries = [], []
    for p, q in WIDE_TARGETS:
        k = smallest_exponent(p, q)
        for t in (random_tuple(rng, p, 2, q, k), build_maiorana(random_spec(rng, p, 1, q))):
            f = compose(t)
            cases.append((t, f, wht_naive(f)))
            wht_composed(t)
            analyze(FunctionDoc(f, t))
            analyze(FunctionDoc(f, None))
        g = random_pary(rng, p, 2)
        naive = wht_naive(g.as_gbfunction()).values
        for modulus in (4 * p, 12 * p):
            paries.append((g, modulus, tuple(v.promote(modulus) for v in naive)))

    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum read packed a ring element")

    monkeypatch.setattr(cyclotomic, "_pack_signed", refuse)
    monkeypatch.setattr(transform, "_pack_signed", refuse)
    for t, f, naive in cases:
        assert wht_fast(f) == naive
        assert wht_composed(t) == naive
        if f.is_prime_power:  # the norm test at general q multiplies dense values
            for doc in (FunctionDoc(f, t), FunctionDoc(f, None)):
                assert analyze(doc)[0].gbent.spectrum == naive
    for g, modulus, naive in paries:
        assert wht_pary_fast(g, modulus).values == naive


@pytest.mark.parametrize("q", [27, 21])
def test_composed_refuses_a_gamma_table_off_the_identity(monkeypatch, rng, q):
    # p^(k-1) zeta_q added to one gamma entry still divides exactly by
    # p^(k-1), so only the check that each carry weight is its slot's root
    # tells the composition identity broken.
    p, n, k = 3, 2, 3
    t = random_tuple(rng, p, n, q, k)
    honest = transform.gamma_general

    def gamma_general(p, k, q, a):
        value = honest(p, k, q, a)
        if tuple(a) != (1, 0):
            return value
        return value + p ** (k - 1) * root(value.modulus, value.modulus // q)

    monkeypatch.setattr(transform, "gamma_general", gamma_general)
    transform.gamma_table.cache_clear()
    transform._gamma_weights.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="not the slot map's roots"):
            wht_composed(t)
    finally:
        monkeypatch.undo()
        transform.gamma_table.cache_clear()
        transform._gamma_weights.cache_clear()
    assert wht_composed(t) == wht_naive(compose(t))


# Prime-power rings with long blocks (M / rad(M) = 54, 50 and 98), and
# q = 105, whose ring has R = 210 and blocks of two slots, at p^n >= 243.
LARGE_INVERSE = ((3, 5, 81), (5, 4, 125), (7, 3, 343), (3, 5, 105))


def test_inverse_round_trip(rng):
    # The spectra come from the oracle: a sign slip shared by the engine's
    # two directions would survive a round trip through wht_fast.
    small = [(p, n, q) for p in (3, 5, 7) for n in (1, 2, 3)
             for q in sorted({p, p * p, 12, 24, 21, 105}) if q % p == 0]
    for p, n, q in small + list(LARGE_INVERSE):
        f = random_gbfunction(rng, p, n, q)
        s = wht_naive(f)
        expected = tuple(zeta_q(s.modulus, q, v) for v in f.table)
        assert inverse_wht(s) == expected
        # Coefficients past 2^64 need slots wider than any array item.
        c = 2**70 + 1
        scaled = Spectrum(p, n, q, s.modulus, tuple(c * v for v in s.values))
        assert inverse_wht(scaled) == tuple(c * v for v in expected)


def test_inverse_slots_hold_the_fold():
    # Not a spectrum, but 42 times one value per point sums, at x = 1, to a
    # constant coefficient of -168 = -4 * 42: four times the largest input
    # coefficient, past the 127 that slots sized for the butterfly alone
    # (2 * 3 * 42 < 2^8) could read back signed. The oracle is the defining
    # sum (1/p^n) sum_u zeta_p^(u x) S(u) in CycInt arithmetic.
    modulus = 12
    values = tuple(42 * CycInt(modulus, c)
                   for c in ((0, 1, 0, 1), (1, -1, -1, -1), (-1, -1, 0, 1)))
    expected = tuple(
        sum((zeta_q(modulus, 3, u * x) * v for u, v in enumerate(values)),
            CycInt.zero(modulus)).divide_exact(3)
        for x in range(3)
    )
    assert max(abs(c) for v in expected for c in v.coeffs) * 3 == 4 * 42
    assert inverse_wht(Spectrum(3, 1, 3, modulus, values)) == expected


def test_inverse_rejects_perturbed_dense_spectrum(rng):
    # At q = 24 = M a spectral value can fill the whole power basis.
    f = random_gbfunction(rng, 3, 3, 24)
    s = wht_naive(f)
    u = max(range(len(s.values)), key=lambda u: sum(map(bool, s.values[u].coeffs)))
    coeffs = list(s.values[u].coeffs)
    assert sum(map(bool, coeffs)) > len(coeffs) // 2
    coeffs[len(coeffs) // 2] += 1
    values = list(s.values)
    values[u] = CycInt(s.modulus, coeffs)
    with pytest.raises(ExactDivisionError):
        inverse_wht(Spectrum(3, 3, 24, s.modulus, tuple(values)))


def test_inverse_of_point_mass():
    # S(0) = p^n and 0 elsewhere is the spectrum of the constant zero.
    modulus = lcm(4, 9)
    values = [CycInt.integer(modulus, 9)] + [CycInt.zero(modulus)] * 8
    t = inverse_wht(Spectrum(3, 2, 9, modulus, tuple(values)))
    assert all(v == 1 for v in t)


def test_inverse_of_zero_spectrum():
    # The inverse is linear: the zero spectrum, which belongs to no function,
    # inverts to zeros rather than failing.
    modulus = lcm(4, 21)
    zero = CycInt.zero(modulus)
    assert inverse_wht(Spectrum(3, 2, 21, modulus, (zero,) * 9)) == (zero,) * 9


def test_inverse_rejects_invalid_spectrum():
    modulus = lcm(4, 9)
    values = [CycInt.integer(modulus, 1)] + [CycInt.zero(modulus)] * 8
    with pytest.raises(ExactDivisionError):
        inverse_wht(Spectrum(3, 2, 9, modulus, tuple(values)))


def test_gamma_trivial_cases():
    assert gamma_product(3, 1, ()) == 1
    assert gamma_general(3, 1, 3, ()) == 1
    g0 = gamma_general(3, 2, 9, (0,))
    assert g0 == root(36, 0) + root(36, 4) + root(36, 8)  # 1 + z9 + z9^2


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_gamma_product_equals_sum(p, k):
    # gamma_general at q = p^k is the defining sum of gamma_a.
    for rank in range(p ** (k - 1)):
        a = rank_vector(p, k - 1, rank)
        assert gamma_product(p, k, a) == gamma_general(p, k, p**k, a)


def test_gamma_general_matches_definition():
    # Direct instantiation at p=3, k=3, q=21, a=(0,0): sum of zeta_21^(3v1+v2).
    modulus = lcm(4, 21)
    expected = CycInt.zero(modulus)
    for v1 in range(3):
        for v2 in range(3):
            expected = expected + zeta_q(modulus, 21, 3 * v1 + v2)
    assert gamma_general(3, 3, 21, (0, 0)) == expected

    # a = (1,2): definitional sum with the character weights.
    expected = CycInt.zero(modulus)
    for v1 in range(3):
        for v2 in range(3):
            phase = (-(v1 + 2 * v2)) % 3
            expected = expected + root(modulus, phase * (modulus // 3)) * zeta_q(
                modulus, 21, 3 * v1 + v2
            )
    assert gamma_general(3, 3, 21, (1, 2)) == expected


def test_gamma_general_prime_power_boundary():
    # At q = p^k: sum_v zeta_3^(-a.v) zeta_27^(3 v1 + v2), written out.
    modulus = lcm(4, 27)
    for rank in range(9):
        a = rank_vector(3, 2, rank)
        expected = CycInt.zero(modulus)
        for v1 in range(3):
            for v2 in range(3):
                phase = (-(a[0] * v1 + a[1] * v2)) % 3
                expected = expected + root(modulus, phase * (modulus // 3)) * zeta_q(
                    modulus, 27, 3 * v1 + v2
                )
        assert gamma_general(3, 3, 27, a) == expected


def test_gamma_general_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gamma_general(3, 3, 22, (0, 0))  # p does not divide q
    with pytest.raises(ValueError):
        gamma_general(3, 3, 9, (0, 0))  # q <= p^(k-1)


def test_gamma_table_entries():
    table = gamma_table(3, 3, 27)
    assert len(table.entries) == 9
    assert table.entries[(0, 0)] == sum(
        (root(table.modulus, e * (table.modulus // 27)) for e in range(9)),
        CycInt.zero(table.modulus),
    )


def test_root_reconstruction_from_gammas():
    # p^(k-1) zeta_(p^k)^e = sum_a zeta_p^(a.u) gamma_a for e = rank(u).
    for p, k in ((3, 2), (3, 3), (5, 2), (5, 3)):
        modulus = lcm(4, p**k)
        table = gamma_table(p, k, p**k)
        for e in range(p ** (k - 1)):
            u = rank_vector(p, k - 1, e)
            acc = CycInt.zero(modulus)
            for a, gamma in table.entries.items():
                dot = sum(ai * ui for ai, ui in zip(a, u)) % p
                acc = acc + root(modulus, dot * (modulus // p)) * gamma
            assert acc == p ** (k - 1) * zeta_q(modulus, p**k, e)


def test_composed_k1_is_single_spectrum(rng):
    t = random_tuple(rng, 3, 2, 3, 1)
    composed = wht_composed(t)
    fast = wht_pary_fast(t.components[0])
    assert composed.values == fast.values


def test_composed_equals_naive_oracle(rng):
    cases = [(3, 2, 9, 2), (3, 2, 27, 3), (3, 2, 21, 3), (5, 2, 25, 2), (3, 2, 15, 3),
             (3, 2, 6, 2), (3, 2, 12, 3), (3, 2, 24, 3), (5, 2, 125, 3), (7, 2, 49, 2),
             (3, 2, 105, 5)]
    for p, n, q, k in cases:
        for _ in range(4):
            t = random_tuple(rng, p, n, q, k)
            composed = wht_composed(t)
            naive = wht_naive(compose(t))
            assert composed.values == naive.values
            assert_parseval(composed)


@pytest.mark.parametrize("p,n,q,k", [(3, 5, 9, 2), (5, 3, 125, 3), (3, 5, 105, 5)])
def test_composed_constant_function(p, n, q, k):
    # S(0) of a constant function holds p^n times a weight's coefficients:
    # the largest value a slot of the packed composed sum must hold.
    t = ComponentTuple(p, n, q, tuple(
        PAryFunction(p, n, (d % p,) * p**n) for d in range(1, k + 1)
    ))
    values = wht_composed(t).values
    assert values[0] == p**n * zeta_q(lcm(4, q), q, compose(t).table[0])
    assert all(v.is_zero() for v in values[1:])


def test_spectrum_records_are_ordered():
    f = GBFunction(3, 1, 9, (0, 0, 0))
    recs = spectrum_records(wht_naive(f))
    assert [r[0] for r in recs] == list(all_points(3, 1))
    assert recs[0][1] == "(mod 36) 3"
    assert [r[2] for r in recs] == ["9", "0", "0"]


def test_spectrum_records_irrational_norm():
    # a non-gbent function whose norms leave the rational integers: the
    # record falls back to the canonical polynomial text
    f = GBFunction(3, 1, 9, (0, 1, 0))
    recs = spectrum_records(wht_naive(f))
    assert any(r[2].startswith("(mod 36)") for r in recs)


def test_spectrum_records_norm_once_per_distinct_value(monkeypatch):
    # A gbent spectrum repeats few values; each distinct one is normed once.
    t = build_maiorana(example_maiorana_q27())
    s = wht_fast(compose(t))
    distinct = set(s.values)
    assert len(distinct) < len(s.values)
    expected = [
        (u, str(v), str(v.norm_sq().as_int()))
        for u, v in zip(all_points(s.p, s.n), s.values)
    ]
    calls = []
    norm_sq = CycInt.norm_sq

    def counting(self):
        calls.append(self)
        return norm_sq(self)

    monkeypatch.setattr(CycInt, "norm_sq", counting)
    assert spectrum_records(s) == expected
    assert len(calls) == len(distinct)


def test_per_distinct_hashes_each_value_once(rng, monkeypatch):
    s = wht_naive(random_gbfunction(rng, 3, 4, 21))
    distinct = len(set(s.values))
    hashes = []
    hash_ = CycInt.__hash__
    monkeypatch.setattr(CycInt, "__hash__", lambda v: hashes.append(v) or hash_(v))
    records = spectrum_records(s)
    assert [text for _, text, _ in records] == [str(v) for v in s.values]
    assert 0 < len(hashes) <= len(s.values) + distinct


def test_naive_jobs_deterministic():
    rng = random.Random(5)
    f = GBFunction(3, 4, 27, tuple(rng.randrange(27) for _ in range(81)))
    serial = wht_naive(f, jobs=1)
    parallel = wht_naive(f, jobs=2)
    assert serial.values == parallel.values


# Every q = p s with p^k <= 125, and three general q with larger k.
WEIGHT_TARGETS = [(p, q) for p in (3, 5, 7) for q in range(p, 126, p)
                  if p ** smallest_exponent(p, q) <= 125]
WEIGHT_TARGETS += [(p, q) for q in (210, 245, 301) for p in (3, 5, 7) if q % p == 0]


def test_carry_weights_are_the_slot_map_roots():
    # zeta_p^(v_0) w_r = zeta_q^(((q/p) v_0 + r) mod q) slot for slot: the
    # root-reconstruction identity, which _gamma_weights checks so that
    # wht_composed may read the digit slots at the slot map's exponents.
    for p, q in WEIGHT_TARGETS:
        k = smallest_exponent(p, q)
        roots = tuple(root(lcm(4, q), e) for e in _slot_exponents(p, q, lcm(4, q), p**k))
        assert _gamma_weights(p, k, q) == roots, (p, q)
