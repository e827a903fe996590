"""roundtrip: seeded dense random tables through the transform and back.

Why: it drives transform in the inverse direction and cyclotomic on dense,
non-unit values (full convolutions), where gbent spectra are sparse unit
shapes. ROADMAP items 2, 3 and 5 reshape _dot_table, _counts_to_cycint and
the power table, which inverse_wht shares with the forward path; this
workload shows whether such a change slows the dense case. One pass is one
function of each shape below; each goes through wht_naive, spectrum_records,
parse_cycint of every value, inverse_wht and a Parseval sum of norm_sq, and
wht_composed is checked against wht_naive (on digits(f) at q = p^k, on random
components at general q).
"""

from __future__ import annotations

import random
from math import lcm

from gbent import (
    ComponentTuple,
    CycInt,
    PAryFunction,
    compose,
    digits,
    inverse_wht,
    norm_sq,
    parse_cycint,
    root,
    spectrum_records,
    wht_composed,
    wht_naive,
)
from harness import NullTracer, Op
from harness import peak_rss_mb  # noqa: F401 -- this process's peak is the workload's
from inputs import build_contexts, digit_count, random_table, working_moduli

NAME = "roundtrip"
COLD = False
POOL = 2  # functions drawn per shape; passes cycle through them
SHAPES = ((3, 5, 27), (3, 5, 21), (5, 3, 125), (7, 3, 49))


def _kind(p: int, n: int, q: int) -> str:
    return f"p{p}n{n}q{q}"


def _random_components(rng: random.Random, p: int, n: int, q: int) -> ComponentTuple:
    return ComponentTuple(p, n, q, tuple(
        PAryFunction(p, n, tuple(rng.randrange(p) for _ in range(p**n)))
        for _ in range(digit_count(p, q))
    ))


class Case:
    """One input: the table, components for general q, and the expected roots."""

    def __init__(self, rng: random.Random, p: int, n: int, q: int):
        self.f = random_table(rng, p, n, q)
        self.components = None if q == p ** digit_count(p, q) else _random_components(rng, p, n, q)
        modulus = lcm(4, q)
        self.roots = tuple(root(modulus, v * (modulus // q)) for v in self.f.table)


MODULI = sorted({M for p, _, q in SHAPES for M in working_moduli(p, q)})


class State:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = {_kind(*s): [Case(rng, *s) for _ in range(POOL)] for s in SHAPES}
        self.warm = {_kind(p, n, q): _random_components(rng, p, 1, q) for p, n, q in SHAPES}


def setup(seed: int, work, tracer=NullTracer()) -> State:
    build_contexts(tracer, MODULI)
    state = State(seed)
    # Fill the per-(p, n) point and dot tables and the per-(p, k, q) carry
    # tables; a one-variable function is enough for the latter.
    for kind, cases in state.pool.items():
        wht_naive(cases[0].f)
        wht_composed(state.warm[kind])
    return state


def round_trip(tr, case: Case) -> list[str]:
    f = case.f
    p, n, q = f.p, f.n, f.q
    problems = []
    s = tr.call("transform.wht_naive", wht_naive, f)
    tr.count("transform.wht_naive.points", len(f.table))
    tr.count("count.points", len(f.table))
    records = tr.call("transform.spectrum_records", spectrum_records, s)
    with tr.span("cyclotomic.parse_cycint", calls=len(records)):
        parsed = tuple(parse_cycint(text) for _, text, _ in records)
    if parsed != s.values:
        problems.append(f"{_kind(p, n, q)}: spectrum text does not parse back")
    if tr.call("transform.inverse_wht", inverse_wht, s) != case.roots:
        problems.append(f"{_kind(p, n, q)}: inverse_wht does not recover zeta_q^f")
    with tr.span("cyclotomic.norm_sq", calls=len(s.values)):
        norms = [norm_sq(v) for v in s.values]
    if sum(norms, CycInt.zero(s.modulus)) != p ** (2 * n):
        problems.append(f"{_kind(p, n, q)}: Parseval sum is not p^(2n)")
    if any(text != str(v.as_int() if v.is_rational_integer() else v)
           for (_, _, text), v in zip(records, norms)):
        problems.append(f"{_kind(p, n, q)}: norm field disagrees with norm_sq")
    if case.components is None:
        t = tr.call("gbfunc.digits", digits, f)
        naive = s
    else:
        t = case.components
        g = tr.call("gbfunc.compose", compose, t)
        naive = tr.call("transform.wht_naive", wht_naive, g)
        tr.count("transform.wht_naive.points", len(g.table))
    if tr.call("transform.wht_composed", wht_composed, t).values != naive.values:
        problems.append(f"{_kind(p, n, q)}: wht_composed differs from wht_naive")
    return problems


def ops(state: State) -> list[Op]:
    return [
        Op(kind, lambda tr, case=cases[i]: round_trip(tr, case))
        for i in range(POOL)
        for kind, cases in state.pool.items()
    ]


# The measured path already calls only public functions, so the traced run
# replays it as it is.
replay = ops


def details(state: State, per_kind: dict[str, float]) -> list[tuple[str, object, str]]:
    return [("functions_per_s", len(per_kind) / sum(per_kind.values()), "1/s")]


def processes(state: State) -> list[list[int]]:
    """The rings each process builds: one process here."""
    return [MODULI]
