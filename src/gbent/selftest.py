"""Built-in invariant suites, runnable from the command line.

Each check re-derives an identity the library depends on and compares the
two sides exactly. Randomized checks draw from a seeded generator, so a
given seed always exercises the same cases.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Callable

from .construct import compare_reference_tables, enumerate_pary_bent
from .cyclotomic import CycInt, gauss_sqrt, root
from .gbfunc import (ComponentTuple, GBFunction, PAryFunction, _dot_table, all_points,
                     compose, smallest_exponent)
from .transform import (
    gamma_general,
    gamma_product,
    inverse_wht,
    wht_composed,
    wht_fast,
    wht_naive,
    wht_pary_fast,
)


def check_root_cycle() -> None:
    for modulus in (3, 4, 9, 12, 36, 108):
        for t in range(modulus):
            assert root(modulus, t) == root(modulus, t + modulus)


def check_conjugation(seed: int) -> None:
    rng = random.Random(seed)
    for modulus in (12, 36, 84):
        for _ in range(20):
            a = _random_element(rng, modulus)
            b = _random_element(rng, modulus)
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()


def check_promotion(seed: int) -> None:
    rng = random.Random(seed)
    for small, large in ((3, 12), (12, 36), (9, 36), (21, 84)):
        for _ in range(20):
            a = _random_element(rng, small)
            b = _random_element(rng, small)
            assert a.promote(large) + b.promote(large) == (a + b).promote(large)
            assert a.promote(large) * b.promote(large) == (a * b).promote(large)


def check_gauss_sums() -> None:
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        g = gauss_sqrt(p)
        assert g * g == p, f"gauss_sqrt({p})^2 != {p}"


def check_digit_delta_identity() -> None:
    # zeta_(p^k)^a = (1/p) sum_i (sum_j zeta_p^((a-i)j)) zeta_(p^k)^i, a in Z_p.
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            modulus = lcm(4, p**k)
            step_p = modulus // p
            step_pk = modulus // p**k
            for a in range(p):
                rhs = CycInt.zero(modulus)
                for i in range(p):
                    inner = CycInt.zero(modulus)
                    for j in range(p):
                        inner = inner + root(modulus, ((a - i) * j % p) * step_p)
                    rhs = rhs + inner * root(modulus, i * step_pk)
                assert rhs.divide_exact(p) == root(modulus, a * step_pk), (p, k, a)


def check_carry_sum_product() -> None:
    # The defining sum (gamma_general at q = p^k) against the product form.
    for p, k in ((3, 2), (3, 3), (5, 2), (5, 3)):
        for a in all_points(p, k - 1):
            assert gamma_general(p, k, p**k, a) == gamma_product(p, k, a), (p, k, a)


def check_root_reconstruction() -> None:
    # p^(k-1) zeta_(p^k)^e = sum_a zeta_p^(a.u) gamma_a, e the big-endian
    # rank of u in Z_p^(k-1).
    for p, k in ((3, 2), (3, 3), (5, 2), (5, 3)):
        modulus = lcm(4, p**k)
        step_p = modulus // p
        step_pk = modulus // p**k
        gammas = [gamma_product(p, k, a) for a in all_points(p, k - 1)]
        for e, dots in enumerate(_dot_table(p, k - 1)):
            acc = CycInt.zero(modulus)
            for gamma, dot in zip(gammas, dots):
                acc = acc + root(modulus, dot * step_p) * gamma
            assert acc == p ** (k - 1) * root(modulus, e * step_pk), (p, k, e)


def check_transform_roundtrip(seed: int) -> None:
    rng = random.Random(seed)
    for p, n, q in ((3, 1, 9), (3, 2, 9), (3, 2, 21), (5, 1, 25)):
        for _ in range(5):
            f = GBFunction(p, n, q, tuple(rng.randrange(q) for _ in range(p**n)))
            s = wht_naive(f)
            parseval = sum((v.norm_sq() for v in s.values), CycInt.zero(s.modulus))
            assert parseval == p ** (2 * n)
            recovered = inverse_wht(s)
            step_q = s.modulus // q
            for x in range(p**n):
                assert recovered[x] == root(s.modulus, f.table[x] * step_q)


def check_fast_equals_naive(seed: int) -> None:
    rng = random.Random(seed)
    for p, n in ((3, 2), (3, 3), (5, 2)):
        for _ in range(5):
            g = PAryFunction(p, n, tuple(rng.randrange(p) for _ in range(p**n)))
            assert wht_pary_fast(g).values == wht_naive(g.as_gbfunction()).values
    for p, n, q in ((3, 2, 9), (3, 3, 12), (3, 3, 21)):
        for _ in range(3):
            f = GBFunction(p, n, q, tuple(rng.randrange(q) for _ in range(p**n)))
            assert wht_fast(f).values == wht_naive(f).values, (p, n, q)


def check_composed_equals_naive(seed: int) -> None:
    rng = random.Random(seed)
    for p, n, q in ((3, 2, 9), (3, 2, 27), (3, 2, 21), (5, 2, 25)):
        k = smallest_exponent(p, q)
        for _ in range(5):
            comps = tuple(
                PAryFunction(p, n, tuple(rng.randrange(p) for _ in range(p**n)))
                for _ in range(k)
            )
            t = ComponentTuple(p, n, q, comps)
            assert wht_composed(t).values == wht_naive(compose(t)).values


def check_census() -> None:
    census = enumerate_pary_bent(3, 1)
    assert len(census) == 18, f"census found {len(census)} bent functions"
    expected = {
        tuple((a * x * x + b * x + c) % 3 for x in range(3))
        for a in (1, 2)
        for b in range(3)
        for c in range(3)
    }
    assert {g.table for g in census} == expected


def check_reference_tables() -> None:
    for name in ("q27", "q21"):
        mismatches, _ = compare_reference_tables(name)
        assert not mismatches, f"{name}: {len(mismatches)} rows differ"


def all_checks(seed: int) -> list[tuple[str, Callable[[], None]]]:
    return [
        ("root_cycle", check_root_cycle),
        ("conjugation", lambda: check_conjugation(seed)),
        ("promotion", lambda: check_promotion(seed + 1)),
        ("gauss_sums", check_gauss_sums),
        ("digit_delta_identity", check_digit_delta_identity),
        ("carry_sum_product", check_carry_sum_product),
        ("root_reconstruction", check_root_reconstruction),
        ("transform_roundtrip", lambda: check_transform_roundtrip(seed + 2)),
        ("fast_equals_naive", lambda: check_fast_equals_naive(seed + 3)),
        ("composed_equals_naive", lambda: check_composed_equals_naive(seed + 4)),
        ("census_3_1", check_census),
        ("reference_tables", check_reference_tables),
    ]


def _random_element(rng: random.Random, modulus: int) -> CycInt:
    from .cyclotomic import _context

    degree = _context(modulus).degree
    return CycInt(modulus, tuple(rng.randrange(-4, 5) for _ in range(degree)))
