import itertools
import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gbent import (
    CycInt,
    ExactDivisionError,
    ModulusMismatchError,
    cyclotomic_polynomial,
    gauss_sqrt,
    parse_cycint,
    promote,
    root,
    sqrt_p_power,
)
from gbent import cyclotomic
from gbent.cyclotomic import (
    _context,
    _pack_signed,
    _pack_slots,
    _reduce_packed,
    _reduce_terms,
    _slot_bytes,
    _unpack_signed,
)
from gbent.transform import _counts_to_cycint
from conftest import dense_sparse_powers

X = sympy.Symbol("x")

MODULI = [1, 2, 3, 4, 9, 12, 21, 27, 36, 84, 100, 108]
# Phi_m with a coefficient outside {-1, 0, 1}: 105 is the first (a -2), and
# 3465 = 3^2 5 7 11 is Phi_1155 spread by 3.
WIDE_MODULI = [105, 385, 1155, 2310, 3465, 4620]


def sympy_reduce(modulus, coeffs):
    """Independent reduction: plain polynomial rem by sympy's Phi_M."""
    poly = sympy.Poly(list(reversed(coeffs)), X, domain="ZZ")
    phi = sympy.Poly(sympy.cyclotomic_poly(modulus, X), X, domain="ZZ")
    rem = poly.rem(phi)
    out = [0] * phi.degree()
    for exp, c in zip(rem.monoms(), rem.coeffs()):
        out[exp[0]] = int(c)
    return tuple(out)


@pytest.mark.parametrize("modulus", MODULI + WIDE_MODULI)
def test_cyclotomic_polynomial_matches_sympy(modulus):
    ours = cyclotomic_polynomial(modulus)
    theirs = sympy.Poly(sympy.cyclotomic_poly(modulus, X), X).all_coeffs()
    assert list(ours) == [int(c) for c in reversed(theirs)]


def test_root_basics():
    assert root(3, 3) == CycInt.one(3)
    assert root(3, 1) + root(3, 2) == -1
    assert root(4, 1) * root(4, 1) == -1
    assert root(5, 2) * root(5, 3) == 1
    assert root(9, 1).conj() == root(9, 8)


def test_unit_conjugate_product():
    # (1 + z3)(1 + z3^2) = 1 + z3 + z3^2 + z3^3 = 1; the oracle expands the
    # raw polynomials (1 + x) and (1 + x^2) and reduces through sympy.
    z = 1 + root(3, 1)
    assert z * z.conj() == 1
    pa = sympy.Poly([1, 1], X, domain="ZZ")  # x + 1
    pb = sympy.Poly([1, 0, 1], X, domain="ZZ")  # x^2 + 1
    phi = sympy.Poly(sympy.cyclotomic_poly(3, X), X, domain="ZZ")
    assert (pa * pb).rem(phi) == sympy.Poly(1, X, domain="ZZ")


def test_norm_sq_examples():
    for modulus, t in ((12, 5), (36, 7), (108, 55)):
        assert root(modulus, t).norm_sq() == 1
    assert (3 * root(9, 4)).norm_sq() == 9
    # quadratic character sum for p = 3 has squared magnitude 3
    s = sum((root(3, (x * x) % 3) for x in range(3)), CycInt.zero(3))
    assert s.norm_sq() == 3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_gauss_sqrt_squares_to_p(p):
    g = gauss_sqrt(p)
    assert g * g == p


def test_gauss_sqrt_cube():
    g = gauss_sqrt(7)
    assert g * g * g == 7 * g


def test_gauss_sqrt_rejects_non_prime():
    with pytest.raises(ValueError):
        gauss_sqrt(9)
    with pytest.raises(ValueError):
        gauss_sqrt(2)


def test_sqrt_p_power():
    assert sqrt_p_power(3, 4, 108) == 9
    odd = sqrt_p_power(3, 3, 108)
    assert odd * odd == 27


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatchError):
        root(9, 1) + root(4, 1)  # 9 and 4 have no divisibility relation
    # but 3 embeds into 9
    assert root(3, 1) == root(9, 3)


@pytest.mark.parametrize("modulus", [0, -4])
def test_nonpositive_modulus_is_refused(modulus):
    with pytest.raises(ValueError, match="modulus must be positive"):
        CycInt(modulus, [0, 0])
    with pytest.raises(ValueError, match="modulus must be positive"):
        CycInt.zero(modulus)
    with pytest.raises(ValueError):
        parse_cycint(f"(mod {modulus}) 0")
    with pytest.raises(ValueError, match="modulus must be positive"):
        cyclotomic_polynomial(modulus)


def test_root_memo_reads_exponents_mod_m():
    for modulus in (12, 108, 500):
        for t in (0, 1, modulus // 4, modulus - 1):
            value = root(modulus, t)
            for other in (t + modulus, t - modulus, t - 3 * modulus, -(modulus - t)):
                assert root(modulus, other) == value, (modulus, t, other)
    cyclotomic._root.cache_clear()
    root(84, -1)
    assert root(84, 83) is root(84, 167)
    assert cyclotomic._root.cache_info()[:2] == (2, 1)  # hits, misses
    assert cyclotomic._root.cache_info().maxsize == cyclotomic.ROOT_CACHE_SIZE


@pytest.mark.parametrize("modulus, needle", [
    (0, "modulus must be positive"),
    (-4, "modulus must be positive"),
    (3 * 10**12, f"ring modulus {3 * 10**12} exceeds 5000"),
    (5004, "ring modulus 5004 exceeds 5000"),
])
def test_root_refuses_bad_modulus_and_caches_nothing(modulus, needle):
    roots, contexts = cyclotomic._root.cache_info(), _context.cache_info()
    for t in (0, 1, -1):
        with pytest.raises(ValueError, match=needle):
            root(modulus, t)
    assert cyclotomic._root.cache_info().currsize == roots.currsize
    assert _context.cache_info().currsize == contexts.currsize


def test_ring_cap_refuses_before_any_table():
    # None of these starts a table: sparse_powers alone would hold one
    # entry per power of zeta_M, 3 10^12 of them.
    huge = 3 * 10**12
    for build in (lambda: CycInt.zero(huge), lambda: root(huge, 1),
                  lambda: parse_cycint(f"(mod {huge}) 0")):
        with pytest.raises(ValueError, match=f"ring modulus {huge} exceeds 5000"):
            build()
    with pytest.raises(ValueError, match="exceeds 5000"):
        CycInt.zero(5004)
    assert _context(4620).degree == 960


def test_promotion_is_canonical():
    assert promote(root(3, 1), 36) == root(36, 12)
    assert promote(CycInt.integer(3, 7), 108) == CycInt.integer(108, 7)


def test_divide_exact():
    assert (3 * root(12, 5)).divide_exact(3) == root(12, 5)
    with pytest.raises(ExactDivisionError):
        (3 * root(12, 5) + 1).divide_exact(3)


# Coefficient magnitudes: small ones, and wide ones whose products need
# 4-byte, 8-byte and wider-than-8-byte packed slots.
MAGNITUDES = (6, 2**12, 2**25, 2**70)


@st.composite
def elements(draw, moduli=(3, 4, 5, 7, 9, 11, 12, 36, 84, 420, 500)):
    modulus = draw(st.sampled_from(moduli))
    degree = _context(modulus).degree
    bound = draw(st.sampled_from(MAGNITUDES))
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=degree, max_size=degree))
    return CycInt(modulus, tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 9, 12, 36, 108]), st.integers(-200, 200))
def test_root_periodicity(modulus, t):
    assert root(modulus, t) == root(modulus, t + modulus)


def sympy_product(a, b):
    """The canonical coefficients of a b, multiplied and reduced by sympy."""
    pa = sympy.Poly(list(reversed(a.coeffs)) or [0], X, domain="ZZ")
    pb = sympy.Poly(list(reversed(b.coeffs)) or [0], X, domain="ZZ")
    phi = sympy.Poly(sympy.cyclotomic_poly(a.modulus, X), X, domain="ZZ")
    rem = (pa * pb).rem(phi)
    expected = [0] * phi.degree()
    for exp, c in zip(rem.monoms(), rem.coeffs()):
        expected[exp[0]] = int(c)
    return tuple(expected)


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_multiplication_matches_sympy(a, b):
    if a.modulus != b.modulus:
        b = CycInt(a.modulus, b.coeffs[: _context(a.modulus).degree]) \
            if len(b.coeffs) >= _context(a.modulus).degree else a
    assert (a * b).coeffs == sympy_product(a, b)


@pytest.mark.parametrize("modulus,unit_exponents", [(420, (143, 146)), (500, (200, 203))])
def test_product_branches_match_sympy(modulus, unit_exponents, monkeypatch):
    # Units with 2 (M = 420) or 4 (M = 500) terms multiply on the sparse
    # branch; a unit times a dense element and dense times dense go through
    # the packed product, at every slot width.
    widths = []
    pack = cyclotomic._pack_signed
    monkeypatch.setattr(
        cyclotomic, "_pack_signed", lambda c, nbytes: widths.append(nbytes) or pack(c, nbytes)
    )
    rng = random.Random(modulus)
    degree = _context(modulus).degree
    u, v = (root(modulus, t) for t in unit_exponents)
    assert (u * v).coeffs == sympy_product(u, v)
    assert widths == []
    for bound in (1,) + MAGNITUDES:
        a, b = (CycInt(modulus, [rng.randint(-bound, bound) for _ in range(degree)])
                for _ in range(2))
        assert (u * a).coeffs == sympy_product(u, a)
        assert (a * b).coeffs == sympy_product(a, b)
    assert {1, 2, 4, 8} <= set(widths) and max(widths) > 8


@pytest.mark.parametrize("nbytes", [1, 2, 4, 8, 9, 16])
def test_signed_packing_round_trip(nbytes):
    rng = random.Random(nbytes)
    top = 2 ** (8 * nbytes - 1) - 1
    vectors = [
        [0] * 7,
        [top, -top] * 3,
        [-top, top, 0, -top],
        [rng.randint(-top, top) for _ in range(20)],
    ]
    if nbytes > 8:
        vectors.append([2**70, -(2**70), 1, -1])
    for coeffs in vectors:
        packed = _pack_signed(coeffs, nbytes)
        assert packed == sum(c << (8 * nbytes * i) for i, c in enumerate(coeffs))
        assert list(_unpack_signed(packed, len(coeffs), nbytes)) == coeffs


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_conjugation_is_ring_automorphism(a, b):
    if a.modulus != b.modulus:
        b = b.promote(a.modulus) if a.modulus % b.modulus == 0 else a
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=60, deadline=None)
@given(elements(moduli=(3, 4, 9, 12)), elements(moduli=(3, 4, 9, 12)))
def test_promotion_is_ring_embedding(a, b):
    if a.modulus != b.modulus:
        if a.modulus % b.modulus == 0:
            b = b.promote(a.modulus)
        elif b.modulus % a.modulus == 0:
            a = a.promote(b.modulus)
        else:
            return
    target = a.modulus * 3
    assert promote(a, target) + promote(b, target) == promote(a + b, target)
    assert promote(a, target) * promote(b, target) == promote(a * b, target)


@settings(max_examples=80, deadline=None)
@given(elements())
def test_text_round_trip(a):
    assert parse_cycint(str(a)) == a


@pytest.mark.parametrize("modulus,p,small", [(196, 7, 49), (500, 5, 125)])
def test_sparse_operations_match_sympy(modulus, p, small):
    rng = random.Random(modulus)
    a = CycInt(small, [rng.randrange(-9, 10) for _ in range(_context(small).degree)])
    step = modulus // small
    poly = [0] * modulus
    for j, c in enumerate(a.coeffs):
        poly[j * step] = c
    assert promote(a, modulus).coeffs == sympy_reduce(modulus, poly)

    b = CycInt(modulus, [rng.randrange(-9, 10) for _ in range(_context(modulus).degree)])
    poly = [0] * modulus
    for j, c in enumerate(b.coeffs):
        poly[-j % modulus] = c
    assert b.conj().coeffs == sympy_reduce(modulus, poly)

    g = gauss_sqrt(p, modulus)
    for t in (1, modulus // 4, modulus - 1):
        poly = [0] * (2 * modulus)
        for j, c in enumerate(g.coeffs):
            poly[j + t] = c
        assert (root(modulus, t) * g).coeffs == sympy_reduce(modulus, poly)


@pytest.mark.parametrize("modulus", [12, 20, 36, 84, 100, 108, 196, 500, 1372])
def test_rotate_is_the_product_with_a_root(modulus):
    # rotate moves every exponent by t in one sparse reduction; the
    # reference is the ring product with root(M, t), for t in [-2M, 2M).
    # root(M, t) is root(M, t mod M), so one product per residue serves.
    rng = random.Random(modulus)
    degree = _context(modulus).degree
    dense = CycInt(modulus, [rng.randrange(-9, 10) for _ in range(degree)])
    unit = root(modulus, rng.randrange(modulus))
    products = [(root(modulus, r) * dense, root(modulus, r) * unit) for r in range(modulus)]
    for t in range(-2 * modulus, 2 * modulus):
        assert (dense.rotate(t), unit.rotate(t)) == products[t % modulus], t


def test_text_format_example():
    value = root(108, 0) - root(108, 27)
    assert str(value) == "(mod 108) 1 - z^27"
    assert parse_cycint("(mod 108) 1 - z^27") == value


@pytest.mark.parametrize("modulus, values", [
    (1, (-12, -1, 0, 1, 2)),
    (4, (-12, -1, 0, 1, 2)),
    (12, (-12, -1, 0, 1, 2)),
    (9, (-1, 0, 10)),
])
def test_every_small_element_round_trips(modulus, values):
    # Every coefficient vector over values: signs, unit and multi-digit
    # magnitudes, and every pattern of zero terms.
    degree = _context(modulus).degree
    for coeffs in itertools.product(values, repeat=degree):
        a = CycInt(modulus, coeffs)
        text = str(a)
        parsed = parse_cycint(text)
        assert parsed == a and parsed.coeffs == coeffs and str(parsed) == text


@pytest.mark.parametrize("text", [
    "(mod 12) 3*", "(mod 12) 3z", "(mod 12) 1 z", "(mod 12) z + z",
    "(mod 12) z^0", "(mod 12) z^1", "(mod 12) 1*z", "(mod 12) +1",
    "(mod 12) -0", "(mod 12) 01", "(mod 12) z^5", "(mod 12) z^4",
    "(mod 12) z^2 + 1", "(mod 12) 1 + 0*z", "(mod 12) 1 - -z", "(mod 12) - 1",
    "(mod 12) 1 +", "(mod 12)  1", " (mod 12) 1", "(mod 12) 1\n", "(mod 012) 1",
])
def test_parse_refuses_text_str_never_emits(text):
    with pytest.raises(ValueError):
        parse_cycint(text)
    with pytest.raises(ValueError):
        reference_parse(text)


def reference_str(a):
    """str(CycInt) as one loop over every coefficient, each term built apart."""
    terms = []
    for j, c in enumerate(a.coeffs):
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
    return f"(mod {a.modulus}) {poly}"


TERM_PARTS = r"(-| [+-] |)(?:(?:(\d+)\*)?z(?:\^(\d+))?|(\d+))"


def reference_parse(text):
    """The coefficients of a literal, its terms read by re.findall."""
    m = re.fullmatch(cyclotomic._LITERAL, text)
    if not m:
        raise ValueError(text)
    coeffs = [0] * _context(int(m.group(1))).degree
    last = -1
    for sign, coeff, power, constant in re.findall(TERM_PARTS, m.group(2)):
        exponent = 0 if constant else int(power or 1)
        if not last < exponent < len(coeffs):
            raise ValueError(text)
        coeffs[exponent] = int(constant or coeff or 1) * (-1 if "-" in sign else 1)
        last = exponent
    return tuple(coeffs)


def _text_cases(modulus):
    # Dense elements with unit, multi-digit and 2^70-scale coefficients,
    # then each with a zero constant term and with negative end terms.
    rng = random.Random(modulus)
    degree = _context(modulus).degree
    draws = (lambda: rng.choice((-1, 1)), lambda: rng.randint(-999, 999),
             lambda: rng.randint(-2**71, 2**71),
             lambda: rng.choice((0, 0, -1, 1, rng.randint(-99, 99), rng.randint(-2**71, 2**71))))
    cases = []
    for draw in draws:
        for _ in range(4):
            coeffs = [draw() for _ in range(degree)]
            cases.append(coeffs)
            cases.append([0] + coeffs[1:])
            cases.append([-abs(coeffs[0]) or -1] + coeffs[1:])
            cases.append(coeffs[:-1] + [-abs(coeffs[-1]) or -1])
    return [CycInt(modulus, c) for c in cases] + [CycInt.zero(modulus)]


@pytest.mark.parametrize("modulus", [1, 2, 4, 12, 84, 108, 196, 500, 1372])
def test_text_matches_per_coefficient_reference(modulus):
    for a in _text_cases(modulus):
        text = str(a)
        assert text == reference_str(a)
        assert parse_cycint(text).coeffs == reference_parse(text) == a.coeffs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(12, 1), (12, 4), (36, 4), (84, 4), (84, 12), (100, 5), (108, 1)]), st.data())
def test_counts_to_cycint_matches_sympy(case, data):
    # slot e of the counts stands for zeta_M^(e step), as the spectrum engine
    # reads a Z[Z_q] element with step = M / q
    modulus, step = case
    size = modulus // step
    counts = data.draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    poly = [0] * modulus
    for e, c in enumerate(counts):
        poly[e * step] = c
    assert _counts_to_cycint(modulus, counts, step).coeffs == sympy_reduce(modulus, poly)


@pytest.mark.parametrize(
    "modulus", [1, 2, 3, 4, 12, 20, 36, 60, 84, 108, 196, 324, 420, 500, 1372]
)
def test_sparse_powers_match_dense_oracle(modulus):
    ctx = _context(modulus)
    assert ctx.sparse_powers == dense_sparse_powers(modulus)
    assert ctx.degree == len(cyclotomic_polynomial(modulus)) - 1


@pytest.mark.parametrize("modulus", [12, 84, 420, 196, 500, 1372])
def test_block_reducer_matches_reduce_terms(modulus):
    # s = M / rad(M) is 2 at M = 12, 84 and 420, and 14, 50 and 98 at the
    # others. Counts are nonnegative; the slots hold fold times the largest.
    ctx = _context(modulus)
    rng = random.Random(modulus)
    cases = [[0] * modulus]
    for bound in (1,) + MAGNITUDES:
        cases.append([rng.randint(0, bound) for _ in range(modulus)])
        cases.append([bound] * modulus)
        cases.append([rng.choice((0, bound)) for _ in range(modulus)])
    for counts in cases:
        nbytes = _slot_bytes(2 * ctx.fold * max(counts))
        reduced = _reduce_packed(ctx, _pack_slots(counts, nbytes), nbytes)
        assert list(reduced) == _reduce_terms(ctx, enumerate(counts))


def _norm_cases(modulus):
    rng = random.Random(modulus)
    degree = _context(modulus).degree
    dense = [CycInt(modulus, [rng.randint(-b, b) for _ in range(degree)])
             for b in (1,) + MAGNITUDES]
    units = [root(modulus, t) for t in (1, modulus // 4, modulus - 1) if t]
    flat = [CycInt.zero(modulus), CycInt.integer(modulus, 7), CycInt.integer(modulus, -3)]
    values = dense + units + flat + [root(modulus, 1) + 2 * root(modulus, modulus // 3)]
    return values + [(2**70 + 1) * v for v in values]


@pytest.mark.parametrize("modulus", [1, 2, 3, 4, 12, 84, 108, 196, 420, 500])
def test_norm_sq_matches_product_and_sympy(modulus):
    for v in _norm_cases(modulus):
        norm = v.norm_sq()
        assert norm == v * v.conj()
        # sympy's oracle conjugates on its own: zeta^j -> zeta^(M - j).
        poly = [0] * modulus
        for j, c in enumerate(v.coeffs):
            poly[-j % modulus] = c
        assert norm.coeffs == sympy_product(v, CycInt(modulus, sympy_reduce(modulus, poly)))
