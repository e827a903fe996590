import random

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
from gbent.cyclotomic import _context
from gbent.transform import _counts_to_cycint

X = sympy.Symbol("x")

MODULI = [1, 2, 3, 4, 9, 12, 21, 27, 36, 84, 100, 108]


def sympy_reduce(modulus, coeffs):
    """Independent reduction: plain polynomial rem by sympy's Phi_M."""
    poly = sympy.Poly(list(reversed(coeffs)), X, domain="ZZ")
    phi = sympy.Poly(sympy.cyclotomic_poly(modulus, X), X, domain="ZZ")
    rem = poly.rem(phi)
    out = [0] * phi.degree()
    for exp, c in zip(rem.monoms(), rem.coeffs()):
        out[exp[0]] = int(c)
    return tuple(out)


@pytest.mark.parametrize("modulus", MODULI)
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


def test_promotion_is_canonical():
    assert promote(root(3, 1), 36) == root(36, 12)
    assert promote(CycInt.integer(3, 7), 108) == CycInt.integer(108, 7)


def test_divide_exact():
    assert (3 * root(12, 5)).divide_exact(3) == root(12, 5)
    with pytest.raises(ExactDivisionError):
        (3 * root(12, 5) + 1).divide_exact(3)


coeff_vectors = st.integers(min_value=-6, max_value=6)


@st.composite
def elements(draw, moduli=(3, 4, 5, 7, 9, 11, 12, 36, 84)):
    modulus = draw(st.sampled_from(moduli))
    degree = _context(modulus).degree
    coeffs = draw(st.lists(coeff_vectors, min_size=degree, max_size=degree))
    return CycInt(modulus, tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 9, 12, 36, 108]), st.integers(-200, 200))
def test_root_periodicity(modulus, t):
    assert root(modulus, t) == root(modulus, t + modulus)


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_multiplication_matches_sympy(a, b):
    if a.modulus != b.modulus:
        b = CycInt(a.modulus, b.coeffs[: _context(a.modulus).degree]) \
            if len(b.coeffs) >= _context(a.modulus).degree else a
    product = a * b
    pa = sympy.Poly(list(reversed(a.coeffs)) or [0], X, domain="ZZ")
    pb = sympy.Poly(list(reversed(b.coeffs)) or [0], X, domain="ZZ")
    phi = sympy.Poly(sympy.cyclotomic_poly(a.modulus, X), X, domain="ZZ")
    rem = (pa * pb).rem(phi)
    expected = [0] * phi.degree()
    for exp, c in zip(rem.monoms(), rem.coeffs()):
        expected[exp[0]] = int(c)
    assert list(product.coeffs) == expected


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


def test_text_format_example():
    value = root(108, 0) - root(108, 27)
    assert str(value) == "(mod 108) 1 - z^27"
    assert parse_cycint("(mod 108) 1 - z^27") == value


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
