from math import lcm

import pytest

from gbent import (
    ComponentTuple,
    CycInt,
    GBFunction,
    InternalConsistencyError,
    PAryFunction,
    Spectrum,
    FunctionDoc,
    all_points,
    analyze,
    build_maiorana,
    compose,
    component_row_table,
    digits,
    example_maiorana_q21,
    example_maiorana_q27,
    expected_alphas,
    hadamard_row,
    hadamard_row_criterion,
    is_gbent,
    point_index,
    regularity,
    root,
    row_decomp,
    spectral_form,
    sqrt_p_power,
    weak_regularity_certificate,
    wht_composed,
    wht_fast,
    wht_naive,
)
from gbent import classify, transform
from gbent.classify import alpha_element
from gbent.cyclotomic import _pack_slots
from gbent.gbfunc import smallest_exponent
from conftest import (
    all_slices,
    butterfly_bytes,
    candidate_keys_oracle,
    component_vectors,
    key_counts,
    random_gbfunction,
    rank_vector,
    random_spec,
    random_tuple,
    replace_everywhere,
)


def pary_from(p, n, fn):
    return PAryFunction(p, n, tuple(fn(x) % p for x in all_points(p, n)))


@pytest.fixture(scope="module")
def tuple_q27():
    return build_maiorana(example_maiorana_q27())


@pytest.fixture(scope="module")
def tuple_q21():
    return build_maiorana(example_maiorana_q21())


def test_is_gbent_quadratic():
    f = pary_from(3, 2, lambda x: x[0] * x[1]).as_gbfunction()
    assert is_gbent(f)


def test_is_gbent_zero_function_fails_at_origin():
    rep = is_gbent(GBFunction(3, 2, 3, (0,) * 9))
    assert not rep
    assert rep.failures[0] == (0, 0)
    # S(0) = 9 and S(u) = 0 elsewhere: every point fails, in point order.
    assert rep.failures == all_points(3, 2)


def test_is_gbent_example_q27(tuple_q27):
    rep = is_gbent(compose(tuple_q27))
    assert rep.is_gbent and not rep.failures


def test_spectral_form_even_n():
    f = pary_from(3, 2, lambda x: x[0] * x[1]).as_gbfunction()
    report = spectral_form(f)
    assert report.matched_all
    assert {fm.alpha for fm in report.forms} <= set(expected_alphas(3, 2))
    # reconstruction: S(u) = p^(n/2) alpha zeta_q^dual
    scale = sqrt_p_power(3, 2, report.spectrum.modulus)
    for u, fm in enumerate(report.forms):
        lhs = report.spectrum.values[u]
        rhs = scale * alpha_element(fm.alpha, report.spectrum.modulus) * root(
            report.spectrum.modulus, fm.dual * (report.spectrum.modulus // 3)
        )
        assert lhs == rhs


def test_spectral_form_odd_n_uses_imaginary_alphas():
    f = GBFunction(3, 1, 3, (0, 1, 1))  # x^2 on one variable
    report = spectral_form(f)
    assert report.matched_all
    assert {fm.alpha for fm in report.forms} <= {"+i", "-i"}
    assert set(expected_alphas(3, 1)) == {"+i", "-i"}


def test_spectral_form_example_q27_origin(tuple_q27):
    f = compose(tuple_q27)
    report = spectral_form(f)
    assert report.matched_all
    origin = report.forms[point_index(3, (0, 0, 0, 0))]
    assert origin.alpha == "+1" and origin.dual == 0


def test_spectral_form_once_per_distinct_value(tuple_q21):
    f = compose(tuple_q21)
    report = spectral_form(f)
    forms = {}
    for value, form in zip(report.spectrum.values, report.forms):
        assert forms.setdefault(value, form) is form
    assert len(forms) < len(report.forms)


def test_spectral_form_failures_in_point_order(rng):
    f = GBFunction(3, 2, 9, tuple(rng.randrange(9) for _ in range(9)))
    report = spectral_form(f)
    points = all_points(3, 2)
    assert report.failures == tuple(u for u, fm in zip(points, report.forms) if fm is None)
    assert report.failures


def _product_candidates(p, n, q, modulus):
    """_unit_candidates built from 4q ring products, the definition."""
    scale = sqrt_p_power(p, n, modulus)
    table = {}
    for alpha in classify.ALPHAS:
        prefactor = scale * alpha_element(alpha, modulus)
        for j in range(q):
            table.setdefault(prefactor * root(modulus, j * (modulus // q)), (alpha, j))
    return table


@pytest.mark.parametrize(
    "p,n,q",
    [(5, 4, 125), (7, 3, 49), (3, 5, 81), (3, 4, 21), (3, 5, 24), (3, 4, 12),
     (5, 3, 125), (3, 4, 105)],
)
def test_unit_candidates_by_rotation_equal_products(p, n, q):
    modulus = lcm(4, q)
    rotated = list(classify._unit_candidates(p, n, q, modulus).items())
    assert rotated == list(_product_candidates(p, n, q, modulus).items())
    # The units alpha zeta_q^j are the lcm(4, q)-th roots of unity: 4q of
    # them for odd q, fewer for even q, where -1 is a power of zeta_q.
    assert len(rotated) == lcm(4, q)


def test_alpha_parity_law_on_random_bent(rng):
    # every successful match at even n stays real; odd n with p = 3 mod 4
    # stays imaginary
    for _ in range(40):
        t = random_tuple(rng, 3, 2, 9, 2)
        f = compose(t)
        rep = spectral_form(f)
        if rep.matched_all:
            assert {fm.alpha for fm in rep.forms} <= {"+1", "-1"}


def test_regularity_verdicts(tuple_q27, tuple_q21):
    assert regularity(GBFunction(3, 2, 3, (0,) * 9)).verdict == "not_gbent"
    reg27 = regularity(compose(tuple_q27))
    assert reg27.verdict == "regular" and reg27.is_weakly_regular
    reg21 = regularity(compose(tuple_q21))
    assert reg21.is_weakly_regular
    assert reg21.alpha == "+1"


def test_regularity_negation_stays_regular(tuple_q27):
    # S_(-f)(u) = conj(S_f(-u)), so negating a regular function pointwise
    # keeps alpha = +1 (the dual reflects and negates)
    f = compose(tuple_q27)
    neg = GBFunction(f.p, f.n, f.q, tuple((-v) % f.q for v in f.table))
    assert regularity(neg).verdict == "regular"


def test_regularity_weakly_regular_minus_one():
    # x1^2 + x2^2: both one-variable quadratic sums contribute a factor of
    # sqrt(-1), so alpha = -1 uniformly; weakly regular but not regular
    f = pary_from(3, 2, lambda x: x[0] ** 2 + x[1] ** 2).as_gbfunction()
    reg = regularity(f)
    assert reg.verdict == "weakly_regular"
    assert reg.alpha == "-1"
    assert reg.is_weakly_regular


def test_even_q_absorbs_minus_one_into_the_dual():
    # In Z_6, -1 = zeta_6^3: the alpha = -1 of g = x1^2 + x2^2 over Z_3
    # becomes part of the dual of its embedding 2g into Z_6, which therefore
    # reports regular with dual 2 g* + 3.
    g = pary_from(3, 2, lambda x: x[0] ** 2 + x[1] ** 2).as_gbfunction()
    reg_g = regularity(g)
    assert (reg_g.verdict, reg_g.alpha) == ("weakly_regular", "-1")
    f = GBFunction(3, 2, 6, tuple(2 * v for v in g.table))
    assert wht_fast(f).values == wht_fast(g).values
    reg_f = regularity(f)
    assert (reg_f.verdict, reg_f.alpha) == ("regular", "+1")
    dual_g = reg_g.spectral.dual_table()
    assert reg_f.spectral.dual_table() == tuple((2 * d + 3) % 6 for d in dual_g)


def _gf729_monomial_table():
    # Z_3^6 -> Z_3: trace of w^7 x^98 over F_729 = F_3[w]/(w^6 + w^5 + 2).
    tail = (2, 0, 0, 0, 0, 1)  # little-endian lower coefficients of the modulus

    def mul(a, b):
        prod = [0] * 11
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % 3
        for e in range(10, 5, -1):
            c = prod[e]
            if c:
                prod[e] = 0
                for t, v in enumerate(tail):
                    prod[e - 6 + t] = (prod[e - 6 + t] - c * v) % 3
        return tuple(prod[:6])

    def power(a, e):
        r, base = (1, 0, 0, 0, 0, 0), a
        while e:
            if e & 1:
                r = mul(r, base)
            base = mul(base, base)
            e >>= 1
        return r

    def trace(a):
        acc, x = list(a), a
        for _ in range(5):
            x = mul(mul(x, x), x)
            acc = [(u + v) % 3 for u, v in zip(acc, x)]
        assert all(c == 0 for c in acc[1:])
        return acc[0]

    scale = power((0, 1, 0, 0, 0, 0), 7)
    table = []
    for x in all_points(3, 6):
        elt = (x[5], x[4], x[3], x[2], x[1], x[0])
        table.append(0 if elt == (0,) * 6 else trace(mul(scale, power(elt, 98))))
    return tuple(table)


def test_regularity_not_weakly_regular():
    # a bent function whose unit prefactor varies with the point: gbent but
    # neither regular nor weakly regular
    f = GBFunction(3, 6, 3, _gf729_monomial_table())
    rep = is_gbent(f)
    assert rep.is_gbent
    forms = spectral_form(f, rep.spectrum)
    assert forms.matched_all
    assert {fm.alpha for fm in forms.forms} == {"+1", "-1"}
    reg = regularity(f, rep.spectrum)
    assert reg.verdict == "not_weakly_regular"
    assert not reg.is_weakly_regular
    # The coset keys read both alphas off the one butterfly.
    assert analyze(FunctionDoc(f, None)) == (reg, component_row_table(digits(f)))


def test_row_decomp_all_ones():
    modulus = 12
    vec = [CycInt.integer(modulus, 9)] * 9  # p^(n/2) = 9 at n = 4
    d = row_decomp(vec, 3, 4)
    assert d is not None
    assert (d.alpha, d.j, d.row) == ("+1", 0, 0)
    assert d.v == (0, 0)


def test_row_decomp_matches_explicit_row():
    # build alpha zeta_3^j times a Hadamard row and decompose it back
    modulus = 12
    scale = sqrt_p_power(3, 4, modulus)
    for alpha in ("+1", "-1"):
        for j in range(3):
            for r in range(9):
                row = hadamard_row(3, 3, r, modulus)
                vec = [
                    scale
                    * alpha_element(alpha, modulus)
                    * root(modulus, j * (modulus // 3))
                    * entry
                    for entry in row
                ]
                d = row_decomp(vec, 3, 4)
                assert d is not None
                assert (d.alpha, d.j, d.row) == (alpha, j, r)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 3), (3, 4), (5, 3), (7, 2)])
def test_hadamard_row_matches_definition(p, k):
    modulus = lcm(4, p)
    for r in range(p ** (k - 1)):
        v = rank_vector(p, k - 1, r)
        expected = tuple(
            root(modulus, (sum(x * y for x, y in zip(rank_vector(p, k - 1, c), v)) % p) * (modulus // p))
            for c in range(p ** (k - 1))
        )
        assert hadamard_row(p, k, r) == expected
    for bad in (-1, p ** (k - 1)):
        with pytest.raises(ValueError):
            hadamard_row(p, k, bad)


def test_hadamard_row_refuses_modulus_without_zeta_p():
    # Z[zeta_10] has no cube root of unity: the row would be powers of zeta_10^3.
    with pytest.raises(ValueError, match="modulus 10 is not a positive multiple of 3"):
        hadamard_row(3, 2, 1, modulus=10)


def test_alpha_element_refuses_modulus_without_i():
    # Z[zeta_6] has no i: the quarter turn 6 // 4 = 1 would be zeta_6.
    with pytest.raises(ValueError, match="modulus 6 is not a positive multiple of 4"):
        alpha_element("+i", 6)


@pytest.mark.parametrize("p", [3, 5])
def test_hadamard_row_refuses_k_below_one(p):
    # H_p^(tensor k-1) has no rows for k < 1; p^(k-1) is a float there, which
    # used to let row 0 through as a row of p^(1-k) or p ones.
    for k in (0, -1):
        with pytest.raises(ValueError, match="need k >= 1"):
            hadamard_row(p, k, 0)


@pytest.mark.parametrize("alpha", ["x", "1", "i", "", None, ["+1"]])
def test_alpha_element_refuses_an_unknown_label(alpha):
    # Only the four labels name a unit; any other value, unhashable ones too,
    # is a ValueError, where an unknown string used to raise KeyError.
    with pytest.raises(ValueError, match="alpha must be one of"):
        alpha_element(alpha, 12)


def test_row_decomp_refuses_values_outside_z_zeta_12():
    # p^(n/2) i needs zeta_4 and zeta_3; the values live in Z[zeta_3] only.
    values = [CycInt.integer(3, 3)] * 3
    with pytest.raises(ValueError, match="modulus 3 is not a positive multiple of 12"):
        row_decomp(values, 3, 2)


@pytest.mark.parametrize("oracle", [is_gbent, spectral_form, regularity])
@pytest.mark.parametrize(
    "f, other",
    [(GBFunction(3, 2, 9, (0,) * 9), GBFunction(3, 1, 9, (0, 1, 4))),
     (GBFunction(3, 2, 9, (0,) * 9), GBFunction(3, 2, 3, (0,) * 9)),
     (GBFunction(3, 1, 15, (0,) * 3), GBFunction(5, 1, 15, (0,) * 5))],
    ids=["n", "q", "p"],
)
def test_oracles_refuse_a_spectrum_of_other_parameters(oracle, f, other):
    # A spectrum at n = 1 would leave a report naming 3 of the 9 points.
    with pytest.raises(ValueError, match=r"spectrum at \(p, n, q\)"):
        oracle(f, wht_fast(other))


def test_oracles_accept_a_spectrum_in_a_larger_ring():
    # f = 3 x_1 x_2 into Z_9, read in Z[zeta_108] in place of Z[zeta_36].
    f = GBFunction(3, 2, 9, (0, 0, 0, 0, 3, 6, 0, 6, 3))
    s = wht_fast(f)
    large = Spectrum(3, 2, 9, 3 * s.modulus, [v.promote(3 * s.modulus) for v in s.values])
    assert is_gbent(f, large).is_gbent
    assert regularity(f, large).verdict == regularity(f, s).verdict == "regular"
    assert spectral_form(f, large).dual_table() == spectral_form(f, s).dual_table()


def test_row_decomp_rejects_non_row():
    modulus = 12
    vec = [CycInt.integer(modulus, 9)] * 8 + [CycInt.integer(modulus, 18)]
    assert row_decomp(vec, 3, 4) is None


@pytest.mark.parametrize(
    "p,n,q,k",
    [(3, 2, 3, 1), (3, 2, 9, 2), (3, 2, 27, 3), (5, 2, 125, 3), (3, 2, 15, 3),
     (3, 2, 21, 3), (3, 5, 27, 3)],
)
def test_component_vectors_match_combine(rng, p, n, q, k):
    # The digit slices are the inverse Hadamard transform of the vector of
    # combination spectra: transformed back, they give at every point the
    # spectra of the combinations built one at a time. At p^n = 243 a
    # one-byte slot is full.
    t = random_tuple(rng, p, n, q, k)
    assert not is_gbent(compose(t))
    modulus = lcm(4, p)
    rows = [hadamard_row(p, k, r, modulus) for r in range(p ** (k - 1))]
    packed, nbytes = transform._digit_spectra(t)
    vectors = component_vectors(t)
    assert len(packed) == len(vectors) == p**n
    for v, vector in zip(packed, vectors):
        slices = all_slices(v, p, k, nbytes)
        s = [transform._counts_to_cycint(modulus, c, modulus // p) for c in slices]
        for a, value in enumerate(vector):
            total = CycInt.zero(modulus)
            for row, s_r in zip(rows, s):
                total = total + row[a] * s_r
            assert total == value


@pytest.mark.parametrize(
    "p,n,q,k",
    [(3, 2, 3, 1), (3, 2, 9, 2), (3, 2, 27, 3), (5, 2, 125, 3), (3, 2, 15, 3),
     (3, 2, 21, 3), (3, 2, 105, 5), (5, 2, 105, 3), (3, 5, 27, 3)],
)
def test_row_table_matches_row_decomp_random(rng, p, n, q, k):
    # Random tuples are not gbent: most points have several nonzero slices,
    # some of them scaled units, and a few points decompose. At p^n = 243 a
    # one-byte slot is full.
    for _ in range(3):
        t = random_tuple(rng, p, n, q, k)
        assert not is_gbent(compose(t))
        table = component_row_table(t)
        assert table == tuple(row_decomp(vec, p, n) for vec in component_vectors(t))


def test_row_table_matches_row_decomp_mixed(rng):
    # Tuples on which some points decompose and others do not.
    mixed = 0
    for _ in range(100):
        t = random_tuple(rng, 3, 2, 9, 2)
        table = component_row_table(t)
        assert table == tuple(row_decomp(vec, 3, 2) for vec in component_vectors(t))
        mixed += 0 < sum(d is not None for d in table) < len(table)
    assert mixed


@pytest.mark.parametrize(
    "p,m,q",
    [(3, 1, 3), (3, 1, 9), (3, 2, 27), (5, 1, 125), (3, 2, 15), (3, 2, 21),
     (3, 1, 105), (7, 1, 49), (7, 1, 105)],
)
def test_row_table_matches_row_decomp_gbent(rng, p, m, q):
    for _ in range(3):
        t = build_maiorana(random_spec(rng, p, m, q))
        table = component_row_table(t)
        assert all(d is not None for d in table)
        assert table == tuple(row_decomp(vec, p, 2 * m) for vec in component_vectors(t))


@pytest.mark.parametrize(
    "p,m,q", [(3, 1, 3), (3, 2, 27), (5, 1, 25), (3, 2, 21), (3, 1, 6), (5, 1, 35), (7, 1, 14)]
)
def test_analyze_agrees_with_separate_passes(rng, p, m, q):
    # The one-butterfly report equals regularity(f), and its row table the
    # components' (for a table at q = p^k, its digits'). A table at general
    # q, and a function that is not gbent, get no row table.
    k = smallest_exponent(p, q)
    for t in (build_maiorana(random_spec(rng, p, m, q)), random_tuple(rng, p, 2 * m, q, k)):
        f = compose(t)
        reg = regularity(f)
        assert analyze(FunctionDoc(f, t)) == (reg, component_row_table(t) if reg.gbent else None)
        rows = component_row_table(digits(f)) if reg.gbent and f.is_prime_power else None
        assert analyze(FunctionDoc(f, None)) == (reg, rows)
    assert rows is None and analyze(FunctionDoc(compose(t), t))[1] is None


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_butterfly_per_tuple(monkeypatch, tuple_q27):
    transform._gamma_weights.cache_clear()
    calls = _count_calls(monkeypatch, transform, "_group_ring_butterfly")
    transform._gamma_weights(3, 3, 27)
    assert len(calls) == 1  # the cold fill: one inverse butterfly over Z_3^2
    component_row_table(tuple_q27)
    assert len(calls) == 2
    wht_composed(tuple_q27)
    assert len(calls) == 3


def _count_key_calls(monkeypatch):
    """Every element that classify keys, through a counting _coset_key."""
    calls = []
    original = classify._coset_key

    def counted_factory(*args):
        key = original(*args)
        return lambda v: calls.append(v) or key(v)

    monkeypatch.setattr(classify, "_coset_key", counted_factory)
    return calls


def test_slice_test_once_per_distinct_packed_output(monkeypatch, tuple_q27):
    # The row table tests each distinct packed output once: one coset key
    # and one lookup in the key table.
    expected = component_row_table(tuple_q27)  # fills the key table
    distinct = set(transform._digit_spectra(tuple_q27)[0])
    calls = _count_key_calls(monkeypatch)
    decomps = component_row_table(tuple_q27)
    assert decomps == expected and all(d is not None for d in decomps)
    assert len(calls) == len(distinct) < len(decomps)


def _refuse(*args, **kwargs):
    raise AssertionError("called on a one-butterfly path")


@pytest.mark.parametrize("components", [False, True], ids=["table", "components"])
def test_analyze_at_prime_power_keys_once_per_distinct_element(monkeypatch, tuple_q27,
                                                               components):
    # At q = p^k the packed list is indexed once; each distinct element is
    # read once and keyed once, and no norm, candidate CycInt or second
    # distinct pass is computed.
    f = compose(tuple_q27)
    doc = FunctionDoc(f, tuple_q27 if components else None)
    expected = (regularity(f), component_row_table(tuple_q27))
    assert analyze(doc) == expected  # fills the key tables
    distinct = set(transform._digit_spectra(tuple_q27)[0])
    keys = _count_key_calls(monkeypatch)
    reads = []
    engine = classify._engine

    def counted_engine(*args):
        *head, read = engine(*args)
        return (*head, lambda v: reads.append(v) or read(v))

    indexes = _count_calls(monkeypatch, classify, "_distinct")
    monkeypatch.setattr(classify, "_engine", counted_engine)
    for name in ("_per_distinct", "_unit_candidates", "_norm_test"):
        monkeypatch.setattr(classify, name, _refuse)
    monkeypatch.setattr(CycInt, "norm_sq", _refuse)
    assert analyze(doc) == expected
    assert len(indexes) == 1
    assert len(keys) == len(reads) == len(distinct) < len(f.table)


def test_row_reconstruction_round_trip(tuple_q27):
    # decompositions reproduce the component vectors exactly
    vectors = component_vectors(tuple_q27)
    decomps = component_row_table(tuple_q27)
    modulus = vectors[0][0].modulus
    scale = sqrt_p_power(3, 4, modulus)
    for vec, d in zip(vectors, decomps):
        assert d is not None
        row = hadamard_row(3, 3, d.row, modulus)
        lead = scale * alpha_element(d.alpha, modulus) * root(modulus, d.j * (modulus // 3))
        for entry, base in zip(vec, row):
            assert entry == lead * base


def test_table_q27_anchors(tuple_q27):
    crit = hadamard_row_criterion(tuple_q27)
    assert crit.holds
    anchors = {
        (0, 0, 0, 0): ("+1", 0, 0),
        (1, 0, 0, 0): ("+1", 0, 0),
        (2, 0, 0, 0): ("+1", 0, 0),
        (0, 1, 0, 0): ("+1", 0, 0),
        (0, 2, 2, 2): ("+1", 2, 1),
        (1, 2, 2, 2): ("+1", 1, 1),
        (2, 2, 2, 2): ("+1", 0, 1),
    }
    for u, expected in anchors.items():
        d = crit.decomps[point_index(3, u)]
        assert (d.alpha, d.j, d.row) == expected, u


def test_table_q21_anchors(tuple_q21):
    cert = weak_regularity_certificate(tuple_q21)
    assert cert is not None and cert.alpha == "+1"
    anchors = {
        (0, 0, 0, 0): (0, 1),
        (1, 0, 1, 0): (2, 7),
        (2, 2, 2, 2): (0, 7),
        (0, 0, 2, 0): (0, 4),
        (2, 2, 2, 1): (1, 1),
    }
    for u, (j, r) in anchors.items():
        d = cert.decomps[point_index(3, u)]
        assert (d.j, d.row) == (j, r), u


def test_weak_regularity_certificate_verifies_dual(tuple_q21):
    cert = weak_regularity_certificate(tuple_q21)
    f = compose(tuple_q21)
    s = wht_naive(f)
    scale = sqrt_p_power(3, 4, s.modulus)
    pref = scale * alpha_element(cert.alpha, s.modulus)
    for u in range(81):
        expected = pref * root(s.modulus, cert.dual.table[u] * (s.modulus // 21))
        assert s.values[u] == expected


def _coset_tuple(n, q):
    """x_1^2 + ... + x_n^2 over Z_3 as the leading digit at q, the lower
    digits 0: every component vector is a scaled row 0, with alpha = -1 at
    n = 2 and alpha = -i at n = 3 (the Gauss sum i sqrt(3), cubed)."""
    g = pary_from(3, n, lambda x: sum(xi * xi for xi in x))
    zero = PAryFunction(3, n, (0,) * 3**n)
    return ComponentTuple(3, n, q, (g,) + (zero,) * (smallest_exponent(3, q) - 1))


@pytest.mark.parametrize("n", [4, 3], ids=["even-n", "odd-n"])
def test_certificate_refused_on_mislabelled_candidates(monkeypatch, tuple_q21, n):
    # The certificate reads no spectral value, so the alpha labels of the
    # candidate table are all it trusts; with the two labels swapped, the
    # table's own check refuses them.
    t = tuple_q21 if n == 4 else _coset_tuple(3, 21)
    swapped = tuple(reversed(expected_alphas(3, n)))
    classify._candidate_keys.cache_clear()
    monkeypatch.setattr(classify, "expected_alphas", lambda p, n: swapped)
    with pytest.raises(InternalConsistencyError):
        weak_regularity_certificate(t)
    monkeypatch.undo()
    assert weak_regularity_certificate(t) is not None


def test_certificate_reads_no_values(monkeypatch, rng, tuple_q21):
    # No spectral value is read and no ring product is taken per certificate:
    # two certificates with the same parameters build the candidate table,
    # and so run its label check (two ring products), once.
    products = []
    product = CycInt.__mul__

    def counted(a, b):
        if isinstance(b, CycInt):
            products.append((a, b))
        return product(a, b)

    other = build_maiorana(random_spec(rng, 3, 2, 21))
    expected = [weak_regularity_certificate(t) for t in (tuple_q21, other)]
    classify._candidate_keys.cache_clear()
    engine = classify._engine
    monkeypatch.setattr(classify, "_engine", lambda source: (*engine(source)[:3], _refuse))
    monkeypatch.setattr(CycInt, "__mul__", counted)
    monkeypatch.setattr(CycInt, "__rmul__", counted)
    assert [weak_regularity_certificate(t) for t in (tuple_q21, other)] == expected
    assert classify._candidate_keys.cache_info().misses == 1
    assert len(products) == 2
    assert weak_regularity_certificate(tuple_q21) == expected[0]
    assert len(products) == 2


@pytest.mark.parametrize("q", [6, 12, 15, 21, 45])
def test_certificate_at_even_q_compares_ring_values(rng, q):
    # Each certified dual must reproduce the naive spectrum exactly, through
    # p^(n/2) alpha zeta_q^(f*(u)): for coset functions at n = 2 (alpha -1)
    # and n = 3 (alpha -i, the Gauss-sum branch of the candidate check), and
    # a constructed function. At even q, -1 = zeta_q^(q/2), so a spectral
    # value has two (alpha, dual) labels: x1^2 + x2^2 keeps alpha -1 in its
    # rows while regularity absorbs the -1 into the dual.
    for t in (_coset_tuple(2, q), _coset_tuple(3, q), build_maiorana(random_spec(rng, 3, 2, q))):
        cert = weak_regularity_certificate(t)
        s = wht_naive(compose(t))
        pref = sqrt_p_power(3, t.n, s.modulus) * alpha_element(cert.alpha, s.modulus)
        step = s.modulus // q
        assert s.values == tuple(pref * root(s.modulus, d * step) for d in cert.dual.table)
    assert weak_regularity_certificate(_coset_tuple(3, q)).alpha == "-i"
    reg = regularity(compose(_coset_tuple(2, q)))
    assert (weak_regularity_certificate(_coset_tuple(2, q)).alpha, reg.alpha) == \
        ("-1", "+1" if q % 2 == 0 else "-1")


def test_certificate_runs_one_butterfly(monkeypatch, tuple_q21):
    # The rows and the dual check share the digit-slot butterfly: compose(t)
    # is never built and no second spectrum is computed.
    from gbent import gbfunc

    expected = weak_regularity_certificate(tuple_q21)  # fills the caches
    calls = _count_calls(monkeypatch, transform, "_group_ring_butterfly")
    for oracle in (gbfunc.compose, transform.wht_fast):
        replace_everywhere(monkeypatch, oracle, _refuse)
    assert weak_regularity_certificate(tuple_q21) == expected
    assert len(calls) == 1


def test_certificate_k1_reduces_to_pary_matching():
    g = PAryFunction(3, 2, tuple((x[0] * x[1]) % 3 for x in all_points(3, 2)))
    t = ComponentTuple(3, 2, 3, (g,))
    cert = weak_regularity_certificate(t)
    assert cert is not None
    reg = regularity(compose(t))
    assert reg.is_weakly_regular
    assert cert.alpha == reg.alpha


def test_row_criterion_requires_prime_power(tuple_q21):
    with pytest.raises(ValueError):
        hadamard_row_criterion(tuple_q21)


def test_row_criterion_fails_for_constant_tuple():
    zero = PAryFunction(3, 2, (0,) * 9)
    t = ComponentTuple(3, 2, 9, (zero, zero))
    crit = hadamard_row_criterion(t)
    assert not crit.holds and crit.failures


def test_row_criterion_iff_gbent_random(rng):
    agree = 0
    for _ in range(250):
        t = random_tuple(rng, 3, 2, 9, 2)
        crit = hadamard_row_criterion(t)
        gb = is_gbent(compose(t))
        assert crit.holds == gb.is_gbent
        agree += crit.holds
    # sanity: the sample contains both outcomes
    assert 0 < agree < 250


def _random_gbent_tuples(rng, count):
    # quadratic-plus-affine instances at n = 2, k = 2 are gbent by
    # construction; the criterion tests re-check rather than assume that
    from gbent import AffineSpec, MaioranaSpec

    out = []
    for _ in range(count):
        spec = MaioranaSpec(
            p=3, m=1, q=9,
            beta=(rng.randrange(1, 3),),
            affines=(AffineSpec(rng.randrange(3), (rng.randrange(3),)),),
        )
        out.append(build_maiorana(spec))
    return out


def test_row_criterion_positive_cases_have_bent_components(rng):
    # whenever the criterion holds, every digit combination is p-ary bent
    for t in _random_gbent_tuples(rng, 10):
        assert hadamard_row_criterion(t).holds
        for vec in component_vectors(t):
            for value in vec:
                assert value.norm_sq() == 9


def test_gbent_spectra_are_scaled_roots(rng):
    # for prime-power q every gbent spectrum matches the normal form
    for t in _random_gbent_tuples(rng, 10):
        f = compose(t)
        rep = is_gbent(f)
        assert rep
        assert spectral_form(f, rep.spectrum).matched_all


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_candidate_keys_label_like_unit_candidates(p, n):
    # Every element sign p^(n//2) G X^e of norm p^n, built here slot by slot,
    # decodes to the label _unit_candidates gives its ring element; the 2q of
    # them cover the two expected alphas at every e; and the row's
    # (alpha, j, row) is the same candidate with e = j C + row.
    nbytes = butterfly_bytes(p, n)
    squares = {t * t % p for t in range(1, p)}
    gauss = [(0, 1)] if n % 2 == 0 else [(t, 1 if t in squares else -1) for t in range(1, p)]
    for k in (1, 2):
        q, combos = p**k, p ** (k - 1)
        modulus = lcm(4, q)
        decode = classify._candidate_keys(p, n, k, nbytes)
        key = transform._coset_key(p, q, nbytes)
        candidates = classify._unit_candidates(p, n, q, modulus)
        labels = []
        for sign in (1, -1):
            for e in range(q):
                counts = [0] * q
                for t, c in gauss:
                    counts[(e + t * combos) % q] = sign * c * p ** (n // 2)
                # A constant on every coset is in the kernel: lift to nonnegative.
                lifted = [c + p ** (n // 2) for c in counts]
                form, row = decode(key(_pack_slots(lifted, nbytes)))
                value = transform._counts_to_cycint(modulus, counts, modulus // q)
                assert candidates[value] == (form.alpha, form.dual)
                assert value.norm_sq() == p**n
                assert row.v == rank_vector(p, k - 1, row.row)
                assert (row.alpha, row.j * combos + row.row) == (form.alpha, form.dual)
                labels.append((form.alpha, form.dual))
        assert sorted(labels) == sorted(
            (alpha, e) for alpha in expected_alphas(p, n) for e in range(q))


DECODER_SETS = [(p, k) for p in (3, 5, 7, 11) for k in range(1, 7) if p**k <= 729]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p, k", DECODER_SETS, ids=[f"p{p}k{k}" for p, k in DECODER_SETS])
def test_candidate_keys_decode_like_the_table(rng, p, k, n):
    # The column decoder agrees with the full table of 2q keys: every
    # candidate key decodes to the same (alpha, e, j, v, row), and random
    # keys and candidates moved by one count hit exactly when the table does.
    nbytes = butterfly_bytes(p, n)
    q, bits = p**k, 8 * nbytes
    forms, rows = candidate_keys_oracle(p, n, k, nbytes)
    decode = classify._candidate_keys(p, n, k, nbytes)
    assert len(forms) == len(rows) == 2 * q
    for key in forms:
        assert decode(key) == (forms[key], rows[key])
    key, digits = transform._coset_key(p, q, nbytes), (p - 1) * (q // p)
    probes = [0]
    for base in rng.sample(sorted(forms), min(len(forms), 200)):
        probes.append(base + rng.choice((1, -1)) * (1 << (rng.randrange(digits) * bits)))
        counts = key_counts(base, p, q, nbytes)
        counts[rng.randrange(q)] += 1
        probes.append(key(_pack_slots(counts, nbytes)))
    for _ in range(200):
        probes.append(key(_pack_slots([rng.randrange(p**n + 1) for _ in range(q)], nbytes)))
    for probe in probes:
        hit = decode(probe)
        assert hit == ((forms[probe], rows[probe]) if probe in forms else (None, None))


def _quadratic(rng, p, n, q):
    """(q/p)(sum_i beta_i x_i^2 + a x_1) mod q, beta_i != 0: gbent, coset-valued."""
    beta = [rng.randrange(1, p) for _ in range(n)]
    a = rng.randrange(p)
    return [(q // p) * (sum(b * xi * xi for b, xi in zip(beta, x)) + a * x[0]) % q
            for x in all_points(p, n)]


def _joined(head, tail, q):
    """g(x) + h(y) mod q on (x, y), from the tables of g and h."""
    return [(g + h) % q for g in head for h in tail]


def _partly_bent(rng, p, q):
    """a(x) + (q/p) y b(x) mod q on (x, y) in Z_p^2, with b(1) = b(0) = 0 and
    b(x) = x otherwise: S(u, v) = p sum over x with b(x) = v of
    zeta_q^(a(x)) zeta_p^(-u x), of norm p^2 at v >= 2 (one x), 0 at v = 1
    (none)."""
    a = [rng.randrange(q) for _ in range(p)]
    b = [0, 0] + list(range(2, p))
    return [(a[x] + (q // p) * y * b[x]) % q for x in range(p) for y in range(p)]


def _differential_tables(rng, p, n, q):
    """A constructed, a coset-valued, a partly failing and a random table
    Z_p^n -> Z_q, p | q: the first two gbent, the third the sum of a gbent
    function and a partly bent one on separate variables."""
    if n % 2 == 0:
        constructed = compose(build_maiorana(random_spec(rng, p, n // 2, q))).table
    elif n == 1:
        constructed = _joined([rng.randrange(q)], _quadratic(rng, p, 1, q), q)
    else:
        head = compose(build_maiorana(random_spec(rng, p, (n - 1) // 2, q))).table
        constructed = _joined(head, _quadratic(rng, p, 1, q), q)
    partial = _joined(_quadratic(rng, p, n - 2, q) if n > 2 else [0], _partly_bent(rng, p, q), q)
    tables = [constructed, _quadratic(rng, p, n, q), partial,
              random_gbfunction(rng, p, n, q).table]
    return [GBFunction(p, n, q, tuple(table)) for table in tables]


@pytest.mark.parametrize("q,n", [(q, n) for q, ns in (
    (3, (3, 4)), (9, (3, 4)), (27, (3, 4)), (81, (3, 4)), (5, (2, 3)), (25, (2, 3)),
    (125, (2, 3)), (7, (2, 3)), (49, (2, 3))) for n in ns])
def test_analyze_at_prime_power_matches_oracles(rng, q, n):
    # analyze, as a table and as digit components, against regularity on
    # the naive spectrum; its row table, and component_row_table, against
    # row_decomp over the combinations built one at a time.
    p = next(p for p in (3, 5, 7) if q % p == 0)
    verdicts = []
    for f in _differential_tables(rng, p, n, q):
        reg = regularity(f, wht_naive(f))
        t = digits(f)
        rows = tuple(row_decomp(vec, p, n) for vec in component_vectors(t))
        assert component_row_table(t) == rows
        expected = (reg, rows if reg.gbent else None)
        assert analyze(FunctionDoc(f, None)) == expected
        assert analyze(FunctionDoc(f, t)) == expected
        verdicts.append((reg.verdict, len(reg.gbent.failures)))
    assert [v != "not_gbent" for v, _ in verdicts] == [True, True, False, False]
    assert 0 < verdicts[2][1] < p**n


@pytest.mark.parametrize("p,q,n", [(3, q, n) for q in (6, 12, 15, 21, 45) for n in (3, 4)]
                         + [(5, q, n) for q in (10, 15) for n in (2, 3)])
def test_analyze_table_at_general_q_matches_oracle(rng, p, q, n):
    # A table at general q: the verdict, alpha, failures and forms read off
    # one butterfly over its q slots equal regularity on the naive spectrum,
    # and there is no row table.
    verdicts = []
    for f in _differential_tables(rng, p, n, q):
        reg = regularity(f, wht_naive(f))
        assert analyze(FunctionDoc(f, None)) == (reg, None)
        verdicts.append((reg.verdict, len(reg.gbent.failures)))
    assert [v != "not_gbent" for v, _ in verdicts] == [True, True, False, False]
    assert 0 < verdicts[2][1] < p**n
