import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbent import (
    CycInt,
    ExactDivisionError,
    GBFunction,
    PAryFunction,
    Spectrum,
    all_points,
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
from gbent.transform import _slot_bytes
from conftest import rank_vector, random_gbfunction, random_pary, random_tuple

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
    # 3^5 = 243 points fill a one-byte slot to 243 of 255: a constant table
    # puts every point's count into one slot at u = 0
    f = GBFunction(3, 5, q, (q - 1,) * 243)
    assert _slot_bytes(243) == 1 and _slot_bytes(256) == 2
    fast = wht_fast(f)
    assert fast.values[0] == 243 * root(fast.modulus, (q - 1) * (fast.modulus // q))
    assert all(v.is_zero() for v in fast.values[1:])
    assert fast.values == wht_naive(f).values


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
    with pytest.raises(ValueError):
        wht_pary_fast(PAryFunction(3, 1, (0, 1, 2)), 18)


def test_inverse_round_trip(rng):
    # The spectra come from the oracle: a sign slip shared by the engine's
    # two directions would survive a round trip through wht_fast.
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            for q in sorted({p, p * p, 12, 24, 21, 105}):
                if q % p:
                    continue
                f = random_gbfunction(rng, p, n, q)
                s = wht_naive(f)
                expected = tuple(zeta_q(s.modulus, q, v) for v in f.table)
                assert inverse_wht(s) == expected
                # Coefficients past 2^64 need slots wider than any array item.
                c = 2**70 + 1
                scaled = Spectrum(p, n, q, s.modulus, tuple(c * v for v in s.values))
                assert inverse_wht(scaled) == tuple(c * v for v in expected)


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
             (3, 2, 6, 2), (3, 2, 12, 3), (3, 2, 24, 3)]
    for p, n, q, k in cases:
        for _ in range(4):
            t = random_tuple(rng, p, n, q, k)
            composed = wht_composed(t)
            naive = wht_naive(compose(t))
            assert composed.values == naive.values
            assert_parseval(composed)


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


def test_naive_jobs_deterministic():
    rng = random.Random(5)
    f = GBFunction(3, 4, 27, tuple(rng.randrange(27) for _ in range(81)))
    serial = wht_naive(f, jobs=1)
    parallel = wht_naive(f, jobs=2)
    assert serial.values == parallel.values
