import random
import re

import pytest

from gbent import (
    AffineSpec,
    FunctionFormatError,
    MaioranaSpec,
    all_points,
    build_maiorana,
    built_function_doc,
    compose,
    construction_to_text,
    enumerate_pary_bent,
    example_maiorana_q21,
    example_maiorana_q27,
    hadamard_row_criterion,
    is_gbent,
    parse_construction_text,
    permute_digits,
    quadratic_sweep,
    restrict_digits,
    weak_regularity_certificate,
    wht_naive,
)
from conftest import random_spec


def test_example_q27_tables():
    t = build_maiorana(example_maiorana_q27())
    points = all_points(3, 4)
    assert t.components[0].table == tuple(
        (2 * x[0] * x[2] + x[1] * x[3]) % 3 for x in points
    )
    assert t.components[1].table == tuple((x[0] + x[1]) % 3 for x in points)
    assert t.components[2].table == tuple(x[0] % 3 for x in points)
    f = compose(t)
    for i, x in enumerate(points):
        expected = (
            9 * t.components[0].table[i]
            + 3 * t.components[1].table[i]
            + t.components[2].table[i]
        ) % 27
        assert f.table[i] == expected
    assert is_gbent(f)


def test_example_q21_tables():
    t = build_maiorana(example_maiorana_q21())
    points = all_points(3, 4)
    assert t.components[0].table == tuple(
        (x[0] * x[2] + 2 * x[1] * x[3]) % 3 for x in points
    )
    assert t.components[1].table == tuple((2 * x[0] + x[1]) % 3 for x in points)
    assert t.components[2].table == tuple(1 for _ in points)
    assert is_gbent(compose(t))
    assert weak_regularity_certificate(t) is not None


def test_zero_beta_rejected():
    with pytest.raises(ValueError):
        MaioranaSpec(p=3, m=2, q=27, beta=(0, 1), affines=(
            AffineSpec(0, (0, 0)), AffineSpec(0, (0, 0))))


def test_spec_over_2_32_points_refused():
    # Refused from m and p before the primality test (the CLI tests time a
    # huge p); 2m > 32 alone refuses, with no huge power.
    for p, m, needle in [(3, 12, "p^(2m) = 3^24 points exceed 2^32"),
                         (3, 10**9, f"p^(2m) = 3^{2 * 10**9} points exceed 2^32")]:
        with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
            MaioranaSpec(p=p, m=m, q=p, beta=(1,) * min(m, 12), affines=())
    # 3^20 points are under the bound: only the parameters are checked.
    assert MaioranaSpec(p=3, m=10, q=3, beta=(1,) * 10, affines=()).n == 20
    with pytest.raises(ValueError, match="^p must be an odd prime, got 1$"):
        MaioranaSpec(p=1, m=20, q=3, beta=(1,) * 20, affines=())


def test_constant_digits_instance():
    # all-constant companion digits: still gbent
    spec = MaioranaSpec(
        p=3, m=2, q=27, beta=(1, 2),
        affines=(AffineSpec(1, (0, 0)), AffineSpec(2, (0, 0))),
    )
    t = build_maiorana(spec)
    assert hadamard_row_criterion(t).holds
    assert is_gbent(compose(t))


@pytest.mark.parametrize("p,m,k", [(3, 1, 2), (3, 2, 3), (5, 1, 2), (5, 2, 2)])
def test_random_instances_pass_row_criterion(p, m, k):
    rng = random.Random(1000 * p + 100 * m + k)
    for _ in range(8):
        t = build_maiorana(random_spec(rng, p, m, p**k))
        assert hadamard_row_criterion(t).holds


@pytest.mark.parametrize("q", [15, 21])
def test_random_general_q_instances_certify(q):
    rng = random.Random(q)
    for _ in range(8):
        t = build_maiorana(random_spec(rng, 3, 2, q))
        cert = weak_regularity_certificate(t)
        assert cert is not None
        assert is_gbent(compose(t))


def test_permute_digits_identity():
    t = build_maiorana(example_maiorana_q27())
    assert permute_digits(t, (1, 2)) == t


def test_permute_digits_swap_preserves_gbent():
    t = build_maiorana(example_maiorana_q27())
    swapped = permute_digits(t, (2, 1))
    assert swapped.components[1] == t.components[2]
    assert swapped.components[2] == t.components[1]
    assert hadamard_row_criterion(swapped).holds
    assert is_gbent(compose(swapped))


def test_permute_digits_k2_only_identity(rng):
    spec = MaioranaSpec(p=3, m=1, q=9, beta=(1,), affines=(AffineSpec(0, (1,)),))
    t = build_maiorana(spec)
    assert permute_digits(t, (1,)) == t
    with pytest.raises(ValueError):
        permute_digits(t, (2,))


def test_permutation_preserves_weak_regularity():
    t = build_maiorana(example_maiorana_q21())
    swapped = permute_digits(t, (2, 1))
    cert = weak_regularity_certificate(swapped)
    assert cert is not None


def test_restrict_digits_full_set_is_identity():
    t = build_maiorana(example_maiorana_q27())
    assert restrict_digits(t, (1, 2)) == t


def test_restrict_digits_subset():
    t = build_maiorana(example_maiorana_q27())
    r = restrict_digits(t, (2,))
    assert r.q == 9
    assert r.components == (t.components[0], t.components[2])
    assert hadamard_row_criterion(r).holds
    assert is_gbent(compose(r))


def test_restrict_digits_to_leading_only():
    t = build_maiorana(example_maiorana_q27())
    r = restrict_digits(t, ())
    assert r.q == 3 and r.k == 1
    assert is_gbent(compose(r))


def test_restrict_digits_requires_prime_power():
    t = build_maiorana(example_maiorana_q21())
    with pytest.raises(ValueError):
        restrict_digits(t, (1,))


def test_census_3_1_exact_set():
    census = enumerate_pary_bent(3, 1)
    assert len(census) == 18
    expected = {
        tuple((a * x * x + b * x + c) % 3 for x in range(3))
        for a in (1, 2)
        for b in range(3)
        for c in range(3)
    }
    assert {g.table for g in census} == expected


def test_census_excludes_linear_functions():
    census = {g.table for g in enumerate_pary_bent(3, 1)}
    for a in range(3):
        for c in range(3):
            assert tuple((a * x + c) % 3 for x in range(3)) not in census


def test_census_envelope():
    with pytest.raises(ValueError):
        enumerate_pary_bent(3, 2)
    with pytest.raises(ValueError):
        enumerate_pary_bent(5, 1)


def test_quadratic_sweep_all_bent():
    sweep = quadratic_sweep(3)
    assert len(sweep) == 54
    for g in sweep:
        f = g.as_gbfunction()
        assert is_gbent(f, wht_naive(f))


@pytest.mark.parametrize("p,m,k", [(3, 1, 2), (3, 2, 3), (5, 1, 3)])
def test_combination_spectra_closed_form(p, m, k):
    # for a quadratic-plus-affine tuple every digit-combination spectrum is
    # p^m zeta_p^E with E(u, a) = C(a) + sum_i u_(i+m) beta_i^(-1) (s_i(a) - u_i),
    # where s_i(a) is the x_i coefficient of the combined affine part and
    # C(a) its constant; in particular the unit prefactor is always +1
    from math import lcm

    from gbent import all_points, combine, root, wht_pary_fast
    from gbent.gbfunc import index_point

    rng = random.Random(97 * p + m + k)
    spec = random_spec(rng, p, m, p**k)
    t = build_maiorana(spec)
    n = 2 * m
    modulus = lcm(4, p)
    points = all_points(p, n)
    inv = {b: pow(b, -1, p) for b in range(1, p)}
    for rank in range(p ** (k - 1)):
        a = index_point(p, k - 1, rank)
        s = wht_pary_fast(combine(t, a))
        coeff = [sum(aj * aff.w[i] for aj, aff in zip(a, spec.affines)) % p for i in range(m)]
        const = sum(aj * aff.c for aj, aff in zip(a, spec.affines)) % p
        for u_idx, u in enumerate(points):
            e = const
            for i in range(m):
                e += u[i + m] * inv[spec.beta[i]] * (coeff[i] - u[i])
            expected = p**m * root(modulus, (e % p) * (modulus // p))
            assert s.values[u_idx] == expected


def test_construction_file_round_trip():
    spec = example_maiorana_q21()
    text = construction_to_text(spec)
    assert parse_construction_text(text) == spec

    doc = built_function_doc(spec)
    assert doc.components == build_maiorana(spec)


@pytest.mark.parametrize(
    "payload",
    [
        "nope",
        '{"p": 3, "m": 2, "q": 27, "beta": [2, 1]}',
        '{"p": 3, "m": 2, "q": 27, "beta": [0, 1], "affines": [{"c": 0, "w": [0, 0]}, {"c": 0, "w": [0, 0]}]}',
        '{"p": 3, "m": 2, "q": 27, "beta": [2, 1], "affines": [{"c": 0, "w": [0, 0]}]}',
        '{"p": 3, "m": 2, "q": 27, "beta": [2, 1], "affines": [{"w": [0, 0]}, {"c": 0, "w": [0, 0]}]}',
    ],
)
def test_bad_construction_files(payload):
    with pytest.raises(FunctionFormatError):
        parse_construction_text(payload)
