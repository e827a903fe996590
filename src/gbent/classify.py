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
else in the package. For general q a successful row match with one global
alpha certifies weak regularity and produces the dual
f*(u) = (q/p) j(u) + sum_i v_i(u) p^(k-1-i) mod q, which is then verified
against the directly computed spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .cyclotomic import CycInt, root, sqrt_p_power
from .errors import InternalConsistencyError
from .gbfunc import ComponentTuple, GBFunction, all_points, combination_tables, compose
from .transform import Spectrum, _fast_spectrum, wht_fast

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


@lru_cache(maxsize=None)
def _unit_candidates(p: int, n: int, q: int, modulus: int):
    """Map p^(n/2) alpha zeta_q^j -> (alpha, j) over all alphas and j in Z_q.

    For odd q all 4q elements are pairwise distinct; for even q the set
    collapses (e.g. -1 is itself a power of zeta_q) and the first writer in
    the deterministic alpha-then-j order wins.
    """
    scale = sqrt_p_power(p, n, modulus)
    step_q = modulus // q
    table: dict[CycInt, tuple[str, int]] = {}
    for alpha in ALPHAS:
        prefactor = scale * alpha_element(alpha, modulus)
        for j in range(q):
            key = prefactor * root(modulus, j * step_q)
            if key not in table:
                table[key] = (alpha, j)
    if q % 2 == 1 and len(table) != 4 * q:
        raise InternalConsistencyError("candidate set unexpectedly collapsed")
    return table


@dataclass(frozen=True)
class GbentReport:
    """Verdict of the magnitude test, with failing points as witnesses."""

    is_gbent: bool
    failures: tuple[tuple[int, ...], ...]
    spectrum: Spectrum

    def __bool__(self) -> bool:
        return self.is_gbent


def is_gbent(f: GBFunction, spectrum: Optional[Spectrum] = None) -> GbentReport:
    """True iff norm_sq(S_f(u)) = p^n at every point."""
    if spectrum is None:
        spectrum = wht_fast(f)
    target = CycInt.integer(spectrum.modulus, f.p**f.n)
    points = all_points(f.p, f.n)
    # A gbent spectrum takes at most 4q distinct values: test each once.
    verdicts: dict[CycInt, bool] = {}
    for v in spectrum.values:
        if v not in verdicts:
            verdicts[v] = v.norm_sq() == target
    failures = tuple(
        points[u] for u, v in enumerate(spectrum.values) if not verdicts[v]
    )
    return GbentReport(not failures, failures, spectrum)


@dataclass(frozen=True)
class SpectralForm:
    """One spectral value in normal form: S(u) = p^(n/2) alpha zeta_q^dual."""

    alpha: str
    dual: int


@dataclass(frozen=True)
class SpectralFormReport:
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
    candidates = _unit_candidates(f.p, f.n, f.q, spectrum.modulus)
    points = all_points(f.p, f.n)
    forms: list[Optional[SpectralForm]] = []
    failures = []
    for u, value in enumerate(spectrum.values):
        hit = candidates.get(value)
        if hit is None:
            forms.append(None)
            failures.append(points[u])
        else:
            forms.append(SpectralForm(*hit))
    return SpectralFormReport(tuple(forms), tuple(failures), spectrum)


@dataclass(frozen=True)
class RegularityReport:
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
    if not gb:
        return RegularityReport("not_gbent", None, gb, None)
    forms = spectral_form(f, gb.spectrum)
    if not forms.matched_all:
        return RegularityReport("not_weakly_regular", None, gb, forms)
    alphas = {form.alpha for form in forms.forms}
    if alphas == {"+1"}:
        return RegularityReport("regular", "+1", gb, forms)
    if len(alphas) == 1:
        return RegularityReport("weakly_regular", alphas.pop(), gb, forms)
    return RegularityReport("not_weakly_regular", None, gb, forms)


@dataclass(frozen=True)
class RowDecomp:
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
    row = 0
    for t in range(km1):
        # Unit vector e_(t+1) has big-endian rank p^(k-2-t).
        hit = candidates.get(values[p ** (km1 - 1 - t)])
        if hit is None or hit[0] != alpha:
            return None
        digit = (hit[1] - j) % p
        v.append(digit)
        row = row * p + digit
    for value, exponent in zip(values, _hadamard_exponents(p, km1)[row]):
        if candidates.get(value) != (alpha, (j + exponent) % p):
            return None
    return RowDecomp(alpha, j, tuple(v), row)


@lru_cache(maxsize=16)
def _hadamard_exponents(p: int, km1: int) -> tuple[tuple[int, ...], ...]:
    """[row][column] -> v.a mod p: the exponents of H_p tensor ... tensor H_p.

    km1 factors, big-endian: appending a digit to both row and column
    multiplies their ranks by p and adds the product of the new digits.
    """
    table = ((0,),)
    for _ in range(km1):
        table = tuple(
            tuple((e + vd * ad) % p for e in old for ad in range(p))
            for old in table
            for vd in range(p)
        )
    return table


def hadamard_row(p: int, k: int, row: int, modulus: Optional[int] = None) -> tuple[CycInt, ...]:
    """Row `row` of H_p tensor ... tensor H_p (k-1 factors), big-endian."""
    if not 0 <= row < p ** (k - 1):
        raise ValueError(f"row {row} out of range for H_{p}^(tensor {k - 1})")
    if modulus is None:
        modulus = lcm(4, p)
    step = modulus // p
    return tuple(root(modulus, e * step) for e in _hadamard_exponents(p, k - 1)[row])


def _component_vectors(t: ComponentTuple) -> list[tuple[CycInt, ...]]:
    """Per-point vectors of combination spectra, indexed [u][rank of a]."""
    p, n = t.p, t.n
    modulus = lcm(4, p)
    per_combination = [
        _fast_spectrum(p, n, p, table, modulus).values
        for table in combination_tables(t)
    ]
    return list(zip(*per_combination))


def component_row_table(t: ComponentTuple) -> tuple[Optional[RowDecomp], ...]:
    """row_decomp of the component-spectrum vector at every point of Z_p^n."""
    return tuple(row_decomp(vec, t.p, t.n) for vec in _component_vectors(t))


@dataclass(frozen=True)
class RowCriterionReport:
    """Result of the Hadamard-row test over all points.

    For q = p^k this is equivalent to gbent-ness of the composed function:
    it holds iff every component vector decomposes as alpha zeta_p^j times
    a row, with (alpha, j, row) constant across the vector at each point.
    """

    holds: bool
    decomps: tuple[Optional[RowDecomp], ...]
    failures: tuple[tuple[int, ...], ...]


def hadamard_row_criterion(t: ComponentTuple) -> RowCriterionReport:
    """Run row_decomp at every point of Z_p^n.

    Intended for q = p^k (where it decides gbent-ness); the degenerate
    k = 1 case reduces to matching single p-ary spectral values.
    """
    if not t.q == t.p**t.k:
        raise ValueError(f"row criterion needs q = p^k, got q={t.q}")
    points = all_points(t.p, t.n)
    decomps = component_row_table(t)
    failures = tuple(points[u] for u, d in enumerate(decomps) if d is None)
    return RowCriterionReport(not failures, decomps, failures)


@dataclass(frozen=True)
class DualCertificate:
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
    size = p**t.n
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
    scale = sqrt_p_power(p, t.n, spectrum.modulus)
    prefactor = scale * alpha_element(alpha, spectrum.modulus)
    step_q = spectrum.modulus // q
    for u in range(size):
        if spectrum.values[u] != prefactor * root(spectrum.modulus, dual_table[u] * step_q):
            return None
    return DualCertificate(alpha, dual, tuple(decomps))
