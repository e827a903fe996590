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
else in the package, and v.a mod p is entry i of row r of the package's
one pairing, gbfunc._pairing_rows, which the tensor rows read. For general q
a successful row match with one global alpha certifies weak regularity
and produces the dual f*(u) = (q/p) j(u) + sum_i v_i(u) p^(k-1-i) mod q.
The row table never forms the vector: coset r of transform's digit-slot
butterfly is its inverse transform at row r, so one coset key
(transform._coset_key) per distinct packed element, decoded by its column
and 2p column-0 shapes (_candidate_keys), decides it. analyze, the row
table and the certificate each read one butterfly, indexed once
(_packed_pass). The certificate reads no spectral value: a decoded key
fixes the value up to the slot map's kernel, and the one check left, that
each candidate's alpha label is right, runs once per decoder; row_decomp,
is_gbent, spectral_form and regularity keep the CycInt path for every q
and are their oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from math import lcm
from operator import not_
from typing import Callable, Optional, Sequence

from .cyclotomic import CycInt, _context, _reduce_terms, _require_roots, root, sqrt_p_power
from .errors import InternalConsistencyError
from .gbfunc import (ComponentTuple, FunctionDoc, GBFunction, _pairing_rows, _Record, index_point,
                     point_index)
from .transform import (Spectrum, _coset_key, _distinct, _engine, _key_columns, _per_distinct,
                        _spread, wht_fast)

ALPHAS = ("+1", "-1", "+i", "-i")
_ALPHA_QUARTER_TURNS = {"+1": 0, "+i": 1, "-1": 2, "-i": 3}


def alpha_element(alpha: str, modulus: int) -> CycInt:
    """The unit prefactor as a ring element (a power of zeta_4)."""
    if alpha not in ALPHAS:
        raise ValueError(f"alpha must be one of {', '.join(ALPHAS)}, got {alpha!r}")
    _require_roots(modulus, 4)
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
    ctx, step_q = _context(modulus), modulus // q
    terms = [(e, c) for e, c in enumerate(sqrt_p_power(p, n, modulus).coeffs) if c]
    table: dict[CycInt, tuple[str, int]] = {}
    for alpha in ALPHAS:
        turn = _ALPHA_QUARTER_TURNS[alpha] * (modulus // 4)
        for j in range(q):
            # p^(n/2) alpha zeta_q^j moves p^(n/2)'s terms up by alpha's turn + j M/q.
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


def _failures(p: int, n: int, hits: Sequence) -> tuple[tuple[int, ...], ...]:
    """The points whose hit is False or None, in point order, from a fresh product."""
    return tuple(compress(product(range(p), repeat=n), map(not_, hits)))


def _norm_test(p: int, n: int, modulus: int) -> Callable[[CycInt], bool]:
    target = CycInt.integer(modulus, p**n)
    return lambda v: v.norm_sq() == target


def _spectrum_of(f: GBFunction, spectrum: Optional[Spectrum]) -> Spectrum:
    """wht_fast(f) without a spectrum; a given one must be on f's (p, n, q)."""
    if spectrum is None:
        return wht_fast(f)
    if (spectrum.p, spectrum.n, spectrum.q) != (f.p, f.n, f.q):
        raise ValueError(
            f"spectrum at (p, n, q) = ({spectrum.p}, {spectrum.n}, {spectrum.q}) "
            f"given for a function at ({f.p}, {f.n}, {f.q})"
        )
    return spectrum


def is_gbent(f: GBFunction, spectrum: Optional[Spectrum] = None) -> GbentReport:
    """True iff norm_sq(S_f(u)) = p^n at every point."""
    spectrum = _spectrum_of(f, spectrum)
    verdicts = _per_distinct(spectrum.values, _norm_test(f.p, f.n, spectrum.modulus))
    failures = _failures(f.p, f.n, verdicts)
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
    spectrum = _spectrum_of(f, spectrum)
    forms = _per_distinct(spectrum.values, _form_matcher(f, spectrum.modulus))
    return SpectralFormReport(forms, _failures(f.p, f.n, forms), spectrum)


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
    _require_roots(modulus, lcm(4, p))
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
    for value, exponent in zip(values, next(_pairing_rows(p, km1, v))):
        if candidates.get(value) != (alpha, (j + exponent) % p):
            return None
    return RowDecomp(alpha, j, tuple(v), row)


def hadamard_row(p: int, k: int, row: int, modulus: Optional[int] = None) -> tuple[CycInt, ...]:
    """Row `row` of H_p tensor ... tensor H_p (k-1 factors), big-endian."""
    if k < 1 or not 0 <= row < p ** (k - 1):
        raise ValueError(f"need k >= 1 and row in [0, {p}^(k-1)), got k={k}, row={row}")
    if modulus is None:
        modulus = lcm(4, p)
    _require_roots(modulus, p)
    dots = next(_pairing_rows(p, k - 1, index_point(p, k - 1, row)))
    return tuple(root(modulus, e * (modulus // p)) for e in dots)


@lru_cache(maxsize=16)
def _candidate_keys(p: int, n: int, k: int, nbytes: int) -> Callable[[int], tuple]:
    """The decoder of coset keys (transform._coset_key, q = p^k slots of
    nbytes bytes): the key of p^(n/2) alpha zeta_q^e in Z[zeta_q] decodes to
    its (SpectralForm, RowDecomp), any other key to (None, None).

    p is totally ramified in Q(zeta_q), so by Kronecker's theorem these 2q
    elements are all those of norm p^n: sign p^(n//2) G X^e, G = 1 at even n
    and at odd n the Gauss sum g = sum_t (t/p) X^(tC), C = q/p, sqrt(p) or
    i sqrt(p) for p = 1 or 3 mod 4; so the alphas are expected_alphas'. At
    e = jC + r the component-spectrum vector is p^(n/2) alpha zeta_p^j
    times row r, and the element counts only at slots r + iC, so
    transform._key_columns splits its key into r and one of 2p column-0
    shapes; records are built at first decode. Each alpha label is checked
    once, one ring product per sign, against the slot map's image
    sign p^(n//2) G' of the shape, G' = sum_t (t/p) zeta_p^t (1 at even n):
    unless it is p^(n/2) alpha, InternalConsistencyError is raised.
    """
    split, column = _key_columns(p, p**k, nbytes)
    gauss = [(0, 1)] if n % 2 == 0 else [
        (t, 1 if pow(t, (p - 1) // 2, p) == 1 else -1) for t in range(1, p)]
    modulus = lcm(4, p)
    image = p ** (n // 2) * sum(
        (c * root(modulus, t * (modulus // p)) for t, c in gauss), CycInt.zero(modulus))
    shapes = {}
    for sign, alpha in zip((1, -1), expected_alphas(p, n)):
        if sign * image != sqrt_p_power(p, n, modulus) * alpha_element(alpha, modulus):
            raise InternalConsistencyError(
                f"candidate label {alpha} does not match sign {sign} at p={p}, n={n}")
        for j in range(p):
            shapes[sign * p ** (n // 2) * sum(c * column[(j + t) % p] for t, c in gauss)] = alpha, j

    @lru_cache(maxsize=None)
    def record(alpha: str, j: int, r: int) -> tuple[SpectralForm, RowDecomp]:
        v = index_point(p, k - 1, r)
        return SpectralForm(alpha, j * p ** (k - 1) + r), RowDecomp(alpha, j, v, r)

    def decode(key: int) -> tuple:
        r, shape = split(key)
        hit = shapes.get(shape)
        return (None, None) if hit is None else record(*hit, r)

    return decode


RowTable = tuple[Optional[RowDecomp], ...]


def _packed_pass(source: GBFunction | ComponentTuple):
    """One butterfly over a component tuple's p^k digit slots or a table's q
    slots (transform._engine), indexed once: each point's position among the
    distinct packed elements, their SpectralForms and RowDecomps decoded
    from their coset keys over p^k slots (None, None otherwise), and a
    reader of their spectral values."""
    p, n, k = source.p, source.n, source.k
    slots, packed, nbytes, read = _engine(source)
    distinct, positions = _distinct(packed)
    forms = rows = None
    if slots == p**k:
        keys = map(_coset_key(p, slots, nbytes), distinct)
        forms, rows = zip(*map(_candidate_keys(p, n, k, nbytes), keys))
    return positions, forms, rows, lambda: list(map(read, distinct))


def component_row_table(t: ComponentTuple) -> RowTable:
    """The row decomposition of the component-spectrum vector at every point
    of Z_p^n, None where there is none; agrees with row_decomp on (S_a(u))_a.
    One key and one decode per distinct packed digit spectrum."""
    positions, _, rows, _ = _packed_pass(t)
    return _spread(rows, positions)


def analyze(doc: FunctionDoc) -> tuple[RegularityReport, Optional[RowTable]]:
    """The regularity of a loaded function, and its row table if it is gbent.

    All are read off one _packed_pass, over the digit slots of a components
    file or the q slots of a table: a spectral value per distinct element,
    and over p^k slots its row and, at q = p^k, its verdict and spectral
    form by coset key. At general q the verdict and forms are the norms and
    candidate matches of the distinct values; a table there has no row table.
    """
    f = doc.function
    positions, forms, rows, read = _packed_pass(doc.components or f)
    modulus = lcm(4, f.q)
    values = read()
    spectrum = Spectrum(f.p, f.n, f.q, modulus, _spread(values, positions))
    if f.is_prime_power:  # a value has norm p^n exactly when it has a form
        verdicts = _spread(forms, positions)
    else:
        verdicts = _spread(list(map(_norm_test(f.p, f.n, modulus), values)), positions)
    failures = _failures(f.p, f.n, verdicts)

    def spectral() -> SpectralFormReport:
        if f.is_prime_power:
            return SpectralFormReport(verdicts, failures, spectrum)
        matches = _spread(list(map(_form_matcher(f, modulus), values)), positions)
        return SpectralFormReport(matches, _failures(f.p, f.n, matches), spectrum)

    reg = _regularity(GbentReport(not failures, failures, spectrum), spectral)
    return reg, None if failures or rows is None else _spread(rows, positions)


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
    decomps = component_row_table(t)
    failures = _failures(t.p, t.n, decomps)
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

    Succeeds when every point decomposes with a single global alpha, read
    off one _packed_pass. No spectral value is read: a coset key decodes
    (_candidate_keys) only when it is that of a candidate, so the packed
    element differs from the candidate by a constant on every coset, which
    the slot map sends to 0; the value is the candidate's image
    p^(n/2) alpha zeta_q^(f*(u)), with the dual f*(u) = (q/p) j + r and
    alpha as the decoder checks it. Returns None otherwise; failure does
    not imply the function is not gbent (the row condition is sufficient,
    not necessary, for general q).
    """
    p, n, q = t.p, t.n, t.q
    positions, _, rows, _ = _packed_pass(t)
    if None in rows or len({row.alpha for row in rows}) != 1:
        return None
    # f*(u) = (q/p) j + sum_i v_i p^(k-1-i), and that sum is the row index.
    duals = [((q // p) * row.j + row.row) % q for row in rows]
    return DualCertificate(rows[0].alpha, GBFunction(p, n, q, _spread(duals, positions)),
                           _spread(rows, positions))
