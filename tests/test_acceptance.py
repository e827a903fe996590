"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison in this file is exact (integer or canonical coefficient
equality); there are no numeric tolerances anywhere. Run with `pytest -s`
to see the per-criterion lines as they complete.
"""

import random

from gbent import (
    AffineSpec,
    CycInt,
    GBFunction,
    MaioranaSpec,
    build_maiorana,
    component_row_table,
    compose,
    digits,
    enumerate_pary_bent,
    example_maiorana_q21,
    example_maiorana_q27,
    gamma_general,
    gamma_product,
    gamma_table,
    hadamard_row_criterion,
    inverse_wht,
    is_gbent,
    gauss_sqrt,
    permute_digits,
    point_index,
    regularity,
    restrict_digits,
    root,
    sqrt_p_power,
    weak_regularity_certificate,
    wht_composed,
    wht_naive,
)
from gbent.classify import alpha_element
from gbent.cli import compare_reference_tables
from conftest import rank_vector, random_tuple


def _report(num: int, description: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num:02d} {status}: {description}")
    assert not failures, f"criterion {num}: {failures[:10]}"


def _parseval_ok(s):
    total = sum((v.norm_sq() for v in s.values), CycInt.zero(s.modulus))
    return total == s.p ** (2 * s.n)


def _random_maiorana(rng, p, m, q):
    from gbent.gbfunc import smallest_exponent

    k = smallest_exponent(p, q)
    return MaioranaSpec(
        p=p, m=m, q=q,
        beta=tuple(rng.randrange(1, p) for _ in range(m)),
        affines=tuple(
            AffineSpec(rng.randrange(p), tuple(rng.randrange(p) for _ in range(m)))
            for _ in range(k - 1)
        ),
    )


def test_criterion_01_table_q27_reproduction():
    failures = []
    t = build_maiorana(example_maiorana_q27())
    decomps = component_row_table(t)
    for u, d in enumerate(decomps):
        if d is None:
            failures.append(("undecomposed", u))
    mismatches, labeling = compare_reference_tables("q27")
    failures.extend(mismatches)
    if labeling != "identity":
        failures.append(("labeling", labeling))
    anchors = {
        (0, 0, 0, 0): ("+1", 0, 0),
        (0, 2, 2, 2): ("+1", 2, 1),
        (2, 2, 2, 2): ("+1", 0, 1),
    }
    for u, expected in anchors.items():
        d = decomps[point_index(3, u)]
        if (d.alpha, d.j, d.row) != expected:
            failures.append(("anchor", u, expected, (d.alpha, d.j, d.row)))
    _report(1, "q27 example: row decompositions match the reference table", failures)


def test_criterion_02_table_q21_reproduction():
    failures = []
    t = build_maiorana(example_maiorana_q21())
    decomps = component_row_table(t)
    for u, d in enumerate(decomps):
        if d is None:
            failures.append(("undecomposed", u))
    mismatches, labeling = compare_reference_tables("q21")
    failures.extend(mismatches)
    if labeling != "identity":
        failures.append(("labeling", labeling))
    anchors = {
        (0, 0, 0, 0): (0, 1),
        (1, 0, 1, 0): (2, 7),
        (2, 2, 2, 2): (0, 7),
    }
    for u, expected in anchors.items():
        d = decomps[point_index(3, u)]
        if (d.j, d.row) != expected:
            failures.append(("anchor", u, expected, (d.j, d.row)))
    _report(2, "q21 example: all 81 reference rows match", failures)


def test_criterion_03_gbent_verdicts():
    failures = []
    f27 = compose(build_maiorana(example_maiorana_q27()))
    s27 = wht_naive(f27)
    target = CycInt.integer(s27.modulus, 81)
    for u, v in enumerate(s27.values):
        if v.norm_sq() != target:
            failures.append(("q27 norm", u))
    if not _parseval_ok(s27):
        failures.append("q27 parseval")

    t21 = build_maiorana(example_maiorana_q21())
    cert = weak_regularity_certificate(t21)
    if cert is None:
        failures.append("q21 certificate missing")
    else:
        f21 = compose(t21)
        if not regularity(f21).is_weakly_regular:
            failures.append("q21 not weakly regular")
        s21 = wht_naive(f21)
        scale = sqrt_p_power(3, 4, s21.modulus)
        prefactor = scale * alpha_element(cert.alpha, s21.modulus)
        for u in range(81):
            expected = prefactor * root(s21.modulus, cert.dual.table[u] * (s21.modulus // 21))
            if s21.values[u] != expected:
                failures.append(("q21 dual reconstruction", u))
    _report(3, "gbent verdicts and exact dual reconstruction for both examples", failures)


def test_criterion_04_composition_identity():
    failures = []
    rng = random.Random(4)
    cases = [digits(compose(build_maiorana(example_maiorana_q27())))]
    cases += [random_tuple(rng, 3, 2, 9, 2) for _ in range(200)]
    cases += [random_tuple(rng, 5, 2, 25, 2) for _ in range(50)]
    for i, t in enumerate(cases):
        composed = wht_composed(t)
        naive = wht_naive(compose(t))
        if composed.values != naive.values:
            failures.append(("mismatch", i))
        if not _parseval_ok(composed):
            failures.append(("parseval", i))
    _report(4, "composed spectrum equals naive spectrum on 251 tuples", failures)


def test_criterion_05_gamma_identities():
    failures = []
    for p, k in ((3, 2), (3, 3), (5, 2), (5, 3)):
        modulus = 4 * p**k
        for rank in range(p ** (k - 1)):
            a = rank_vector(p, k - 1, rank)
            if gamma_general(p, k, p**k, a) != gamma_product(p, k, a):
                failures.append(("sum/product", p, k, a))
        table = gamma_table(p, k, p**k)
        for e in range(p ** (k - 1)):
            u = rank_vector(p, k - 1, e)
            acc = CycInt.zero(table.modulus)
            for a, gamma in table.entries.items():
                dot = sum(ai * ui for ai, ui in zip(a, u)) % p
                acc = acc + root(table.modulus, dot * (table.modulus // p)) * gamma
            if acc != p ** (k - 1) * root(table.modulus, e * (table.modulus // p**k)):
                failures.append(("reconstruction", p, k, e))
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            modulus = 4 * p**k
            step_p = modulus // p
            step_pk = modulus // p**k
            for a in range(p):
                rhs = CycInt.zero(modulus)
                for i in range(p):
                    inner = CycInt.zero(modulus)
                    for j in range(p):
                        inner = inner + root(modulus, ((a - i) * j % p) * step_p)
                    rhs = rhs + inner * root(modulus, i * step_pk)
                if rhs.divide_exact(p) != root(modulus, a * step_pk):
                    failures.append(("digit delta", p, k, a))
    _report(5, "gamma sum/product, root reconstruction, digit-delta identities", failures)


def test_criterion_06_gauss_sums():
    failures = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        g = gauss_sqrt(p)
        if g * g != CycInt.integer(4 * p, p):
            failures.append(p)
    _report(6, "gauss_sqrt(p)^2 = p for all odd primes p <= 23", failures)


def test_criterion_07_row_criterion_iff_gbent():
    failures = []
    rng = random.Random(7)
    negatives = 0
    for i in range(1000):
        t = random_tuple(rng, 3, 2, 9, 2)
        crit = hadamard_row_criterion(t)
        gb = is_gbent(compose(t))
        if crit.holds != gb.is_gbent:
            failures.append(("random tuple disagreement", i))
        negatives += not gb.is_gbent
    if negatives == 0:
        failures.append("random sample produced no negative cases")
    # positive cases: the full m=1, k=2 family (18 instances) plus 50 random
    # draws from the wider construction grid; each must satisfy both sides
    positive_specs = [
        MaioranaSpec(p=3, m=1, q=9, beta=(beta,), affines=(AffineSpec(c, (w,)),))
        for beta in (1, 2)
        for c in range(3)
        for w in range(3)
    ]
    positive_specs += [
        _random_maiorana(rng, 3, rng.choice((1, 2)), 3 ** rng.choice((2, 3)))
        for _ in range(50)
    ]
    for i, spec in enumerate(positive_specs):
        t = build_maiorana(spec)
        crit = hadamard_row_criterion(t)
        gb = is_gbent(compose(t))
        if not (crit.holds and gb.is_gbent):
            failures.append(("constructed instance", i, crit.holds, gb.is_gbent))
    _report(7, "row criterion agrees with direct gbent test (1000 random + 68 built)", failures)


def test_criterion_08_construction_soundness():
    failures = []
    rng = random.Random(8)
    per_combo = 50
    for p in (3, 5):
        for m in (1, 2):
            for k in (2, 3):
                for i in range(per_combo):
                    spec = _random_maiorana(rng, p, m, p**k)
                    t = build_maiorana(spec)
                    if not hadamard_row_criterion(t).holds:
                        failures.append(("instance", p, m, k, i))
                        continue
                    pi = list(range(1, k))
                    rng.shuffle(pi)
                    if not hadamard_row_criterion(permute_digits(t, pi)).holds:
                        failures.append(("permutation", p, m, k, i))
                    keep = sorted(rng.sample(range(1, k), rng.randrange(k)))
                    if not hadamard_row_criterion(restrict_digits(t, keep)).holds:
                        failures.append(("restriction", p, m, k, i, keep))
    for q in (15, 21):
        for i in range(per_combo):
            spec = _random_maiorana(rng, 3, 2, q)
            t = build_maiorana(spec)
            if weak_regularity_certificate(t) is None:
                failures.append(("general q instance", q, i))
                continue
            pi = list(range(1, t.k))
            rng.shuffle(pi)
            if weak_regularity_certificate(permute_digits(t, pi)) is None:
                failures.append(("general q permutation", q, i))
    # spot cross-checks against the direct spectrum test (p = 3 kept cheap)
    for i in range(5):
        t = build_maiorana(_random_maiorana(rng, 3, 2, 27))
        if not is_gbent(compose(t)):
            failures.append(("direct crosscheck", i))
    _report(8, "construction grid instances, permutations, restrictions all gbent", failures)


def test_criterion_09_census():
    failures = []
    census = enumerate_pary_bent(3, 1)  # driven by wht_naive only
    if len(census) != 18:
        failures.append(("count", len(census)))
    expected = {
        tuple((a * x * x + b * x + c) % 3 for x in range(3))
        for a in (1, 2)
        for b in range(3)
        for c in range(3)
    }
    if {g.table for g in census} != expected:
        failures.append("census set differs from quadratic family")
    _report(9, "census at (3,1,3): exactly the 18 quadratics a x^2 + b x + c, a != 0", failures)


def test_criterion_10_round_trip_and_parseval():
    failures = []
    rng = random.Random(10)
    f27 = compose(build_maiorana(example_maiorana_q27()))
    cases = [f27]
    for _ in range(50):
        cases.append(GBFunction(3, 2, 9, tuple(rng.randrange(9) for _ in range(9))))
    for _ in range(50):
        cases.append(GBFunction(3, 2, 21, tuple(rng.randrange(21) for _ in range(9))))
    for i, f in enumerate(cases):
        s = wht_naive(f)
        if not _parseval_ok(s):
            failures.append(("parseval", i))
        recovered = inverse_wht(s)
        step_q = s.modulus // f.q
        for x in range(len(f.table)):
            if recovered[x] != root(s.modulus, f.table[x] * step_q):
                failures.append(("round trip", i, x))
                break
    _report(10, "inverse transform round trip and Parseval on 101 functions", failures)
