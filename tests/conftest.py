import random
import sys

import pytest

from gbent import ComponentTuple, GBFunction, PAryFunction


def rank_vector(p, length, rank):
    out = []
    for _ in range(length):
        out.append(rank % p)
        rank //= p
    return tuple(reversed(out))


def random_gbfunction(rng, p, n, q):
    return GBFunction(p, n, q, tuple(rng.randrange(q) for _ in range(p**n)))


def random_pary(rng, p, n):
    return PAryFunction(p, n, tuple(rng.randrange(p) for _ in range(p**n)))


def random_tuple(rng, p, n, q, k):
    comps = tuple(random_pary(rng, p, n) for _ in range(k))
    return ComponentTuple(p, n, q, comps)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_spec(rng, p, m, q):
    from gbent import AffineSpec, MaioranaSpec
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


def component_vectors(t):
    """Per-point vectors of digit-combination spectra, indexed [u][rank of a].

    The oracle for the row table: each combination f_0 + sum a_i f_i is
    built with combine and transformed on its own by wht_pary_fast.
    """
    from math import lcm

    from gbent import combine, index_point, wht_pary_fast

    spectra = [
        wht_pary_fast(combine(t, index_point(t.p, t.k - 1, r)), lcm(4, t.p)).values
        for r in range(t.p ** (t.k - 1))
    ]
    return list(zip(*spectra))


def all_slices(v, p, k, nbytes):
    """Every digit slice of a packed element of p^k slots, fully unpacked:
    slice r is the p counts at slots r, r + C, ..., with C = p^(k-1)."""
    from gbent.cyclotomic import _slot_counts

    combos = p ** (k - 1)
    counts = _slot_counts(v, p * combos, nbytes)
    return [list(counts[r::combos]) for r in range(combos)]


def lone_slice(v, p, k, nbytes):
    """(r, counts) of the only slice whose counts are not all equal, or None:
    the packed elements whose component-spectrum vector can be a scaled
    Hadamard row."""
    slices = all_slices(v, p, k, nbytes)
    nonconstant = [r for r, s in enumerate(slices) if min(s) != max(s)]
    if len(nonconstant) != 1:
        return None
    return nonconstant[0], slices[nonconstant[0]]


def butterfly_bytes(p, n):
    """The slot bytes the engine's butterfly picks for p^n points."""
    from gbent.transform import _count_butterfly

    return _count_butterfly(p, n, p, (0,) * p**n)[1]


def coset_key_oracle(counts, p, nbytes):
    """The coset key of a count vector of p C slots, from its unpacked
    counts: sum over slots e = r + iC, i < p - 1, of
    (counts[e] - counts[r + (p-1) C]) 2^(8 nbytes e)."""
    combos = len(counts) // p
    top = (p - 1) * combos
    return sum((counts[e] - counts[top + e % combos]) << (8 * nbytes * e) for e in range(top))


def key_counts(key, p, slots, nbytes):
    """Nonnegative counts over slots whose coset key is key: the signed
    slot digits of key, lifted by their largest magnitude, with that lift
    alone in the top block."""
    bits = 8 * nbytes
    digits = []
    for _ in range((p - 1) * (slots // p)):
        d = key & ((1 << bits) - 1)
        d -= (d >> (bits - 1)) << bits
        digits.append(d)
        key = (key - d) >> bits
    assert key == 0
    lift = max(map(abs, digits))
    return [d + lift for d in digits] + [lift] * (slots // p)


def candidate_keys_oracle(p, n, k, nbytes):
    """The coset keys (q = p^k slots of nbytes bytes) of the 2q elements
    sign p^(n//2) G X^e of norm p^n, G = 1 at even n and the Gauss sum
    sum_t (t/p) X^(tC), C = q/p, at odd n, each mapped to its SpectralForm
    and to its RowDecomp: the full table of 2q keys, the oracle for
    classify._candidate_keys's column decoder."""
    from gbent.classify import RowDecomp, SpectralForm, expected_alphas
    from gbent.gbfunc import index_point
    from gbent.transform import _coset_key

    q, combos = p**k, p ** (k - 1)
    key = _coset_key(p, q, nbytes)
    unit = [key(1 << (e * 8 * nbytes)) for e in range(q)]
    gauss = [(0, 1)] if n % 2 == 0 else [
        (t * combos, 1 if pow(t, (p - 1) // 2, p) == 1 else -1) for t in range(1, p)]
    forms, rows = {}, {}
    for sign, alpha in zip((1, -1), expected_alphas(p, n)):
        for e in range(q):
            value = sign * p ** (n // 2) * sum(c * unit[(e + s) % q] for s, c in gauss)
            forms[value] = SpectralForm(alpha, e)
            rows[value] = RowDecomp(alpha, e // combos, index_point(p, k - 1, e % combos),
                                    e % combos)
    return forms, rows


def dense_sparse_powers(modulus):
    """The sparse canonical form of every power of zeta_modulus, by stepping
    a dense coefficient vector through all M powers and folding each spill
    through every coefficient of Phi_M: O(M phi(M)), the oracle for the
    ring tables read off Phi_rad(M)."""
    from gbent import cyclotomic_polynomial

    phi = cyclotomic_polynomial(modulus)
    degree = len(phi) - 1
    rows = []
    cur = [1] + [0] * (degree - 1)
    for _ in range(modulus):
        rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
        spill = cur[-1]
        cur = [0] + cur[:-1]
        if spill:
            for i, t in enumerate(phi[:-1]):
                cur[i] -= spill * t
    assert cur == [1] + [0] * (degree - 1)
    return tuple(rows)


def replace_everywhere(monkeypatch, original, replacement):
    """Point every gbent module attribute that holds original at replacement,
    so a call through any import of it reaches replacement."""
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "gbent":
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, replacement)
