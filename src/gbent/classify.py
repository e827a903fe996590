"""Classification of generalized bent functions and their spectra.

A function is gbent when every unnormalized spectral value has squared
magnitude exactly p^n. For gbent functions into Z_(p^k) each value is
p^(n/2) times a root of unity of the constrained shape
alpha zeta_q^(f*(u)) with alpha in {+1, -1} for even n (or odd n with
p = 1 mod 4) and alpha in {+i, -i} for odd n with p = 3 mod 4; f* is the
dual. Matching is exact, against finite candidate sets built once per
parameter set, with the irrational factor p^(n/2) kept in-ring via Gauss
sums. For general q the same {+1,-1,+i,-i} prefactor set is attempted and
per-point failures are reported rather than guessed around.

The component-spectrum view: writing f in digit components, f is gbent
(q = p^k) exactly when, for every u, the vector of combination spectra
(S_(f_0 + sum a_i f_i)(u))_a is alpha zeta_p^j times a row of the
generalized Hadamard matrix H_(p^(k-1)) = H_p tensor ... tensor H_p.
Rows and columns are indexed big-endian: column i = sum_j a_j p^(k-1-j),
row r = sum_j v_j p^(k-1-j), pairing entry zeta_p^(v.a); this matches the
bundled reference tables and the point-index convention used everywhere
else in the package, and v.a mod p is entry [r][i] of gbfunc._dot_table,
the package's one pairing table, which the tensor rows read. For general q
a successful row match with one global alpha certifies weak regularity
and produces the dual
f*(u) = (q/p) j(u) + sum_i v_i(u) p^(k-1-i) mod q, which is then verified
against the directly computed spectrum. The row table never forms the
vector: coset r of transform's digit-slot butterfly is its inverse
transform at row r, so one coset key (transform._coset_key) per distinct
packed element, looked up in a cached table of the 2 p^k scaled rows
(_candidate_keys), decides it. row_decomp decomposes an explicit vector and is
the oracle the tests compare it against. analyze runs that butterfly once,
indexes its distinct elements once, reads the spectrum off them by the
slot map's weights, and at q = p^k reads the verdict and the spectral form
off the same keys, with no norm computed; is_gbent,
spectral_form and regularity keep the CycInt path for every q and are its
oracles.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

from .cyclotomic import CycInt, _context, _reduce_terms, root, sqrt_p_power
from .errors import InternalConsistencyError
from .gbfunc import (
    ComponentTuple,
    FunctionDoc,
    GBFunction,
    _dot_table,
    _Record,
    all_points,
    compose,
    index_point,
    point_index,
)
from .transform import (
    Spectrum,
    _coset_key,
    _count_butterfly,
    _digit_spectra,
    _distinct,
    _per_distinct,
    _root_weights,
    _spectrum_reader,
    _spread,
    wht_fast,
)

ALPHAS = ("+1", "-1", "+i", "-i")
_ALPHA_QUARTER_TURNS = {"+1": 0, "+i": 1, "-1": 2, "-i": 3}


def alpha_element(alpha: str, modulus: int) -> CycInt:
    """The unit prefactor as a ring element (a power of zeta_4)."""
    return root(modulus, _ALPHA_QUARTER_TURNS[alpha] * (modulus // 4))


def expected_alphas(p: int, n: int) -> tuple[str, ...]:
    """The prefactors attainable by gbent spectra at these parameters."""
    if n % 2 == 0 or p % 4 == 1:
        return ("+1", "-1")
    return ("+i", "-i")


@lru_cache(maxsize=32)
def _unit_candidates(p: int, n: int, q: int, modulus: int):
    """Map p^(n/2) alpha zeta_q^j -> (alpha, j) over all alphas and j in Z_q.

    For odd q all 4q elements are pairwise distinct; for even q the set
    collapses (e.g. -1 is itself a power of zeta_q) and the first writer in
    the deterministic alpha-then-j order wins.
    """
    ctx = _context(modulus)
    terms = [(e, c) for e, c in enumerate(sqrt_p_power(p, n, modulus).coeffs) if c]
    step_q = modulus // q
    table: dict[CycInt, tuple[str, int]] = {}
    for alpha in ALPHAS:
        turn = _ALPHA_QUARTER_TURNS[alpha] * (modulus // 4)
        for j in range(q):
            # p^(n/2) alpha zeta_q^j rotates every term by alpha's turn + j M/q.
            shift = turn + j * step_q
            key = CycInt(modulus, _reduce_terms(ctx, [(e + shift, c) for e, c in terms]))
            if key not in table:
                table[key] = (alpha, j)
    if q % 2 == 1 and len(table) != 4 * q:
        raise InternalConsistencyError("candidate set unexpectedly collapsed")
    return table


class GbentReport(_Record):
    """Verdict of the magnitude test, with failing points as witnesses."""

    is_gbent: bool
    failures: tuple[tuple[int, ...], ...]
    spectrum: Spectrum

    def __bool__(self) -> bool:
        return self.is_gbent


def _failures(spectrum: Spectrum, hits: Sequence) -> tuple[tuple[int, ...], ...]:
    """The points whose hit is False or None, in point order."""
    return tuple(u for u, hit in zip(all_points(spectrum.p, spectrum.n), hits) if not hit)


def _norm_test(p: int, n: int, modulus: int) -> Callable[[CycInt], bool]:
    target = CycInt.integer(modulus, p**n)
    return lambda v: v.norm_sq() == target


def is_gbent(f: GBFunction, spectrum: Optional[Spectrum] = None) -> GbentReport:
    """True iff norm_sq(S_f(u)) = p^n at every point."""
    if spectrum is None:
        spectrum = wht_fast(f)
    verdicts = _per_distinct(spectrum.values, _norm_test(f.p, f.n, spectrum.modulus))
    failures = _failures(spectrum, verdicts)
    return GbentReport(not failures, failures, spectrum)


class SpectralForm(_Record):
    """One spectral value in normal form: S(u) = p^(n/2) alpha zeta_q^dual."""

    alpha: str
    dual: int


class SpectralFormReport(_Record):
    forms: tuple[Optional[SpectralForm], ...]
    failures: tuple[tuple[int, ...], ...]
    spectrum: Spectrum

    @property
    def matched_all(self) -> bool:
        return not self.failures

    def dual_table(self) -> tuple[int, ...]:
        if not self.matched_all:
            raise ValueError("spectral form did not match at every point")
        return tuple(form.dual for form in self.forms)


def spectral_form(
    f: GBFunction, spectrum: Optional[Spectrum] = None
) -> SpectralFormReport:
    """Match every spectral value against p^(n/2) alpha zeta_q^j.

    For a gbent function into Z_(p^k) this succeeds everywhere; for general
    q per-point failures are reported (the attainable prefactors there are
    not pinned down by {+1,-1,+i,-i}).
    """
    if spectrum is None:
        spectrum = wht_fast(f)
    forms = _per_distinct(spectrum.values, _form_matcher(f, spectrum.modulus))
    return SpectralFormReport(forms, _failures(spectrum, forms), spectrum)


def _form_matcher(f: GBFunction, modulus: int) -> Callable[[CycInt], Optional[SpectralForm]]:
    candidates = _unit_candidates(f.p, f.n, f.q, modulus)

    def match(value: CycInt) -> Optional[SpectralForm]:
        hit = candidates.get(value)
        return None if hit is None else SpectralForm(*hit)

    return match


class RegularityReport(_Record):
    """One of: regular, weakly_regular, not_weakly_regular, not_gbent.

    A regular function (alpha = +1 everywhere) is in particular weakly
    regular; the verdict reports the strongest class that applies.
    """

    verdict: str
    alpha: Optional[str]
    gbent: GbentReport
    spectral: Optional[SpectralFormReport]

    @property
    def is_weakly_regular(self) -> bool:
        return self.verdict in ("regular", "weakly_regular")


def regularity(
    f: GBFunction, spectrum: Optional[Spectrum] = None
) -> RegularityReport:
    gb = is_gbent(f, spectrum)
    return _regularity(gb, lambda: spectral_form(f, gb.spectrum))


def _regularity(gb: GbentReport, spectral: Callable[[], SpectralFormReport]) -> RegularityReport:
    """The class of a function from its norm verdict and, when it is gbent,
    its spectral forms."""
    if not gb:
        return RegularityReport("not_gbent", None, gb, None)
    forms = spectral()
    if not forms.matched_all:
        return RegularityReport("not_weakly_regular", None, gb, forms)
    alphas = {form.alpha for form in forms.forms}
    if alphas == {"+1"}:
        return RegularityReport("regular", "+1", gb, forms)
    if len(alphas) == 1:
        return RegularityReport("weakly_regular", alphas.pop(), gb, forms)
    return RegularityReport("not_weakly_regular", None, gb, forms)


class RowDecomp(_Record):
    """A component-spectrum vector as alpha zeta_p^j times a Hadamard row.

    v holds the row digits (big-endian); row = sum_j v_j p^(k-1-j).
    """

    alpha: str
    j: int
    v: tuple[int, ...]
    row: int


def row_decomp(values: Sequence[CycInt], p: int, n: int) -> Optional[RowDecomp]:
    """Decompose a vector of p^(k-1) unnormalized p-ary spectral values.

    The vector is indexed by the big-endian rank of a in Z_p^(k-1). Matching
    runs on unnormalized values against p^(n/2) alpha zeta_p^(j + v.a): the
    entry at a = 0 fixes (alpha, j), the entries at unit vectors read off
    the digits of v, and every remaining entry is then verified exactly.
    Returns None when any step fails; the (alpha, j, v) fit is unique
    because the 4p candidate values are pairwise distinct for odd p.
    """
    size = len(values)
    km1 = 0
    while p**km1 < size:
        km1 += 1
    if p**km1 != size:
        raise ValueError(f"vector length {size} is not a power of {p}")
    modulus = values[0].modulus
    candidates = _unit_candidates(p, n, p, modulus)
    head = candidates.get(values[0])
    if head is None:
        return None
    alpha, j = head
    v = []
    for t in range(km1):
        # Unit vector e_(t+1) has big-endian rank p^(k-2-t).
        hit = candidates.get(values[p ** (km1 - 1 - t)])
        if hit is None or hit[0] != alpha:
            return None
        v.append((hit[1] - j) % p)
    row = point_index(p, v)
    for value, exponent in zip(values, _dot_table(p, km1)[row]):
        if candidates.get(value) != (alpha, (j + exponent) % p):
            return None
    return RowDecomp(alpha, j, tuple(v), row)


def hadamard_row(p: int, k: int, row: int, modulus: Optional[int] = None) -> tuple[CycInt, ...]:
    """Row `row` of H_p tensor ... tensor H_p (k-1 factors), big-endian."""
    if not 0 <= row < p ** (k - 1):
        raise ValueError(f"row {row} out of range for H_{p}^(tensor {k - 1})")
    if modulus is None:
        modulus = lcm(4, p)
    step = modulus // p
    return tuple(root(modulus, e * step) for e in _dot_table(p, k - 1)[row])


@lru_cache(maxsize=16)
def _candidate_keys(
    p: int, n: int, k: int, nbytes: int
) -> tuple[dict[int, SpectralForm], dict[int, RowDecomp]]:
    """The coset keys (transform._coset_key, q = p^k slots of nbytes bytes)
    of the elements p^(n/2) alpha zeta_q^e of Z[zeta_q], mapped to their
    spectral forms and to their row decompositions.

    p is totally ramified in Q(zeta_q), so by Kronecker's theorem these 2q
    elements are all those of norm p^n: +-p^(n/2) X^e at even n and
    +-p^((n-1)/2) g X^e at odd n, with g = sum_t (t/p) X^(tC), C = q/p, the
    Gauss sum, sqrt(p) for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4; so the
    alphas are expected_alphas'. Over the p^k digit slots, coset r is the
    inverse transform at row r of the component-spectrum vector, which is
    alpha zeta_p^j times row r exactly when the element is
    p^(n/2) alpha X^(jC + r). The key is linear: each candidate's is a
    signed sum of the monomials' keys.
    """
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


RowTable = tuple[Optional[RowDecomp], ...]


def component_row_table(t: ComponentTuple) -> RowTable:
    """The row decomposition of the component-spectrum vector at every point
    of Z_p^n, None where there is none; agrees with row_decomp on (S_a(u))_a.
    One key and one dict lookup per distinct packed digit spectrum."""
    packed, nbytes = _digit_spectra(t)
    distinct, positions = _distinct(packed)
    keys = map(_coset_key(t.p, t.p**t.k, nbytes), distinct)
    rows = _candidate_keys(t.p, t.n, t.k, nbytes)[1]
    return _spread(list(map(rows.get, keys)), positions)


def analyze(doc: FunctionDoc) -> tuple[RegularityReport, Optional[RowTable]]:
    """The regularity of a loaded function, and its row table if it is gbent.

    All are read off one butterfly: over the digit slots of a components
    file, or the q slots of a table at q = p^k, indexed once by distinct
    packed element. Each distinct element is read into a spectral value
    and, by its coset key, looked up in the row table and, at q = p^k, in
    the norm-p^n candidates, which give the verdict and the spectral form
    without a norm. A table at general q has no digits to read a row table
    from.
    """
    f, t = doc.function, doc.components
    if t is None and not f.is_prime_power:
        return regularity(f), None
    p, n, k = f.p, f.n, f.k
    packed, nbytes = _count_butterfly(p, n, f.q, f.table) if t is None else _digit_spectra(t)
    distinct, positions = _distinct(packed)

    def per_point(convert: Callable, items: Sequence) -> tuple:
        return _spread([convert(v) for v in items], positions)

    modulus = lcm(4, f.q)
    read = _spectrum_reader(p, n, _root_weights(p, f.q, modulus, p**k), nbytes)
    values = list(map(read, distinct))
    spectrum = Spectrum(p, n, f.q, modulus, _spread(values, positions))
    keys = list(map(_coset_key(p, p**k, nbytes), distinct))
    if f.is_prime_power:  # a value has norm p^n exactly when it has a form
        verdicts = per_point(_candidate_keys(p, n, k, nbytes)[0].get, keys)
    else:
        verdicts = per_point(_norm_test(p, n, modulus), values)
    failures = _failures(spectrum, verdicts)

    def spectral() -> SpectralFormReport:
        if f.is_prime_power:
            return SpectralFormReport(verdicts, failures, spectrum)
        forms = per_point(_form_matcher(f, modulus), values)
        return SpectralFormReport(forms, _failures(spectrum, forms), spectrum)

    reg = _regularity(GbentReport(not failures, failures, spectrum), spectral)
    return reg, None if failures else per_point(_candidate_keys(p, n, k, nbytes)[1].get, keys)


class RowCriterionReport(_Record):
    """Result of the Hadamard-row test over all points.

    For q = p^k this is equivalent to gbent-ness of the composed function:
    it holds iff every component vector decomposes as alpha zeta_p^j times
    a row, with (alpha, j, row) constant across the vector at each point.
    """

    holds: bool
    decomps: tuple[Optional[RowDecomp], ...]
    failures: tuple[tuple[int, ...], ...]


def hadamard_row_criterion(t: ComponentTuple) -> RowCriterionReport:
    """Decompose the component-spectrum vector at every point of Z_p^n.

    Intended for q = p^k (where it decides gbent-ness); the degenerate
    k = 1 case reduces to matching single p-ary spectral values.
    """
    if not t.q == t.p**t.k:
        raise ValueError(f"row criterion needs q = p^k, got q={t.q}")
    points = all_points(t.p, t.n)
    decomps = component_row_table(t)
    failures = tuple(points[u] for u, d in enumerate(decomps) if d is None)
    return RowCriterionReport(not failures, decomps, failures)


class DualCertificate(_Record):
    """A verified weak-regularity witness built from component rows.

    S_f(u) = p^(n/2) alpha zeta_q^(dual(u)) holds exactly at every point,
    with one global alpha; dual is the reconstructed dual function.
    """

    alpha: str
    dual: GBFunction
    decomps: tuple[RowDecomp, ...]


def weak_regularity_certificate(t: ComponentTuple) -> Optional[DualCertificate]:
    """Certify weak regularity of compose(t) through its component rows.

    Succeeds when every point decomposes with a single global alpha and the
    reconstructed dual reproduces the directly computed spectrum exactly.
    Returns None otherwise; failure does not imply the function is not
    gbent (the row condition is sufficient, not necessary, for general q).
    """
    p, q = t.p, t.q
    decomps = component_row_table(t)
    if any(d is None for d in decomps):
        return None
    alphas = {d.alpha for d in decomps}
    if len(alphas) != 1:
        return None
    alpha = alphas.pop()
    # f*(u) = (q/p) j + sum_i v_i p^(k-1-i), and that sum is the row index.
    dual_table = [((q // p) * d.j + d.row) % q for d in decomps]
    dual = GBFunction(p, t.n, q, tuple(dual_table))
    spectrum = wht_fast(compose(t))
    modulus = spectrum.modulus
    prefactor = sqrt_p_power(p, t.n, modulus) * alpha_element(alpha, modulus)
    # One expected element per distinct dual value, at most q of them.
    expected = {d: prefactor * root(modulus, d * (modulus // q)) for d in set(dual_table)}
    if any(s != expected[d] for s, d in zip(spectrum.values, dual_table)):
        return None
    return DualCertificate(alpha, dual, tuple(decomps))
