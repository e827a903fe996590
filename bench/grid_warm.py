"""grid-warm: a seeded construction sweep in one process, caches warm.

Why: it has the shape of acceptance criterion 08. Many small functions share
the program's caches, and the work is the per-combination butterfly and
row_decomp at M = 12 or 20, so an engine change (ROADMAP item 2) shows here,
while set-up and the naive transform barely run: changes to those should show
no change on this workload. One sweep is one instance of each kind below;
the p=5 m=2 k=3 kind is most of the time.
"""

from __future__ import annotations

import random
from math import lcm

from gbent import (
    build_maiorana,
    combine,
    compose,
    hadamard_row_criterion,
    permute_digits,
    restrict_digits,
    row_decomp,
    spectral_form,
    weak_regularity_certificate,
    wht_naive,
    wht_pary_fast,
)
from harness import NullTracer, Op
from harness import peak_rss_mb  # noqa: F401 -- this process's peak is the workload's
from inputs import big_endian, build_contexts, digit_count, random_spec, working_moduli

NAME = "grid-warm"
COLD = False
POOL = 4  # instances drawn per kind; passes cycle through them

# (p, m, q): q = p^k is checked by the row criterion on the instance, a digit
# permutation and a digit restriction; q in {15, 21} by the weak-regularity
# certificate on the instance and a permutation.
KINDS = [(p, m, p**k) for p in (3, 5) for m in (1, 2) for k in (2, 3)]
KINDS += [(3, 2, 15), (3, 2, 21)]


MODULI = sorted({M for p, _, q in KINDS for M in working_moduli(p, q)})


def _kind(p: int, m: int, q: int) -> str:
    return f"p{p}m{m}q{q}"


class State:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = {}
        for p, m, q in KINDS:
            items = []
            for _ in range(POOL):
                spec = random_spec(rng, p, m, q)
                k = digit_count(p, q)
                pi = list(range(1, k))
                rng.shuffle(pi)
                # Criterion 08 keeps a random number of digits; here always
                # all but one, so every instance of a kind costs the same and
                # a run's cost does not depend on the seed.
                keep = sorted(rng.sample(range(1, k), k - 2))
                items.append((spec, tuple(pi), tuple(keep)))
            self.pool[_kind(p, m, q)] = items


def setup(seed: int, work, tracer=NullTracer()) -> State:
    build_contexts(tracer, MODULI)
    state = State(seed)
    # Warm the per-(p, n) caches with the cheapest instance of each shape.
    for p, m, q in KINDS:
        spec = state.pool[_kind(p, m, q)][0][0]
        if q != p ** digit_count(p, q):
            weak_regularity_certificate(build_maiorana(spec))
        elif q == p * p:
            hadamard_row_criterion(build_maiorana(spec))
    return state


def _prime_power_check(spec, pi, keep):
    def run(tr):
        t = build_maiorana(spec)
        problems = []
        for label, tt in (
            ("instance", t),
            ("permutation", permute_digits(t, pi)),
            ("restriction", restrict_digits(t, keep)),
        ):
            if not hadamard_row_criterion(tt).holds:
                problems.append(f"row criterion fails on {label} of {spec}")
        return problems

    return run


def _general_q_check(spec, pi):
    def run(tr):
        t = build_maiorana(spec)
        problems = []
        for label, tt in (("instance", t), ("permutation", permute_digits(t, pi))):
            if weak_regularity_certificate(tt) is None:
                problems.append(f"no weak-regularity certificate for {label} of {spec}")
        return problems

    return run


def ops(state: State) -> list[Op]:
    """One sweep per instance of the pool; kinds repeat in the same order each sweep."""
    out = []
    for i in range(POOL):
        for p, m, q in KINDS:
            kind = _kind(p, m, q)
            spec, pi, keep = state.pool[kind][i]
            run = _prime_power_check(spec, pi, keep) if q == p ** digit_count(p, q) \
                else _general_q_check(spec, pi)
            out.append(Op(kind, run))
    return out


# -- traced replay ----------------------------------------------------------------


def _row_table(tr, t):
    """component_row_table replayed as combine, wht_pary_fast, row_decomp."""
    p, n, k = t.p, t.n, t.k
    modulus = lcm(4, p)
    spectra = []
    for rank in range(p ** (k - 1)):
        g = tr.call("gbfunc.combine", combine, t, big_endian(p, k - 1, rank))
        spectra.append(tr.call("transform.wht_pary_fast", wht_pary_fast, g, modulus).values)
    size = p**n
    with tr.span("classify.row_decomp", calls=size):
        decomps = [row_decomp([s[u] for s in spectra], p, n) for u in range(size)]
    tr.count("classify.row_decomp.ok", sum(d is not None for d in decomps))
    tr.count("count.points", size)
    return decomps


def _criterion_holds(tr, t) -> bool:
    with tr.span("classify.hadamard_row_criterion"):
        return all(d is not None for d in _row_table(tr, t))


def _certificate_holds(tr, t) -> bool:
    """weak_regularity_certificate replayed: rows, one alpha, then the dual
    they give checked against the naive spectrum through spectral_form."""
    p, k, q = t.p, t.k, t.q
    with tr.span("classify.weak_regularity_certificate"):
        decomps = _row_table(tr, t)
        if any(d is None for d in decomps) or len({d.alpha for d in decomps}) != 1:
            return False
        f = tr.call("gbfunc.compose", compose, t)
        s = tr.call("transform.wht_naive", wht_naive, f)
        tr.count("transform.wht_naive.points", len(f.table))
        forms = tr.call("classify.spectral_form", spectral_form, f, s)
        for d, form in zip(decomps, forms.forms):
            dual = ((q // p) * d.j + sum(vi * p ** (k - 1 - i) for i, vi in enumerate(d.v, 1))) % q
            if form is None or form.alpha != d.alpha or form.dual != dual:
                return False
        return True


def _replay_op(kind, p, q, spec, pi, keep):
    prime_power = q == p ** digit_count(p, q)

    def run(tr):
        t = tr.call("construct.build_maiorana", build_maiorana, spec)
        tp = tr.call("construct.permute_digits", permute_digits, t, pi)
        cases = [("instance", t), ("permutation", tp)]
        if prime_power:
            cases.append(("restriction", tr.call(
                "construct.restrict_digits", restrict_digits, t, keep)))
        holds = _criterion_holds if prime_power else _certificate_holds
        return [f"{label} of {spec} fails" for label, tt in cases if not holds(tr, tt)]

    return Op(kind, run)


def replay(state: State) -> list[Op]:
    out = []
    for i in range(POOL):
        for p, m, q in KINDS:
            kind = _kind(p, m, q)
            out.append(_replay_op(kind, p, q, *state.pool[kind][i]))
    return out


def details(state: State, per_kind: dict[str, float]) -> list[tuple[str, object, str]]:
    sweep = sum(per_kind.values())
    return [("instances_per_s", len(per_kind) / sweep, "1/s")]


def processes(state: State) -> list[list[int]]:
    """The rings each process builds: one process here."""
    return [MODULI]
