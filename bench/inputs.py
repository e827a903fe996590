"""Seeded input generation shared by the workloads.

Every input is drawn from a random.Random seeded by the workload seed, so the
same seed gives the same functions, specs and files.
"""

from __future__ import annotations

import random
from math import gcd, lcm

from gbent import AffineSpec, GBFunction, MaioranaSpec, root


def digit_count(p: int, q: int) -> int:
    """The number k of base-p digits of a value in Z_q: the least k with q <= p^k."""
    k = 1
    while p**k < q:
        k += 1
    return k


def random_spec(rng: random.Random, p: int, m: int, q: int) -> MaioranaSpec:
    """A quadratic-plus-affine spec, drawn as acceptance criterion 08 draws it."""
    return MaioranaSpec(
        p, m, q,
        beta=tuple(rng.randrange(1, p) for _ in range(m)),
        affines=tuple(
            AffineSpec(rng.randrange(p), tuple(rng.randrange(p) for _ in range(m)))
            for _ in range(digit_count(p, q) - 1)
        ),
    )


def rank_mod_p(vectors, p: int) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                c = rows[r][col] * inv
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def generic_spec(rng: random.Random, p: int, m: int, q: int) -> MaioranaSpec:
    """A random_spec whose affine digits have independent weight vectors.

    The naive spectrum costs more the more distinct values a function takes,
    and a draw with dependent weights (a zero vector, say) takes fewer. Such
    draws would make one input's cost depend on the seed, so they are drawn
    again; every input of a shape then costs the same.
    """
    while True:
        spec = random_spec(rng, p, m, q)
        ws = [a.w for a in spec.affines]
        if rank_mod_p(ws, p) == min(len(ws), m):
            return spec


def random_table(rng: random.Random, p: int, n: int, q: int) -> GBFunction:
    return GBFunction(p, n, q, tuple(rng.randrange(q) for _ in range(p**n)))


def big_endian(p: int, length: int, rank: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(rank % p)
        rank //= p
    return tuple(reversed(out))


def phi(m: int) -> int:
    return sum(1 for t in range(1, m + 1) if gcd(t, m) == 1)


def build_contexts(tracer, moduli) -> None:
    """Build the ring tables of each modulus, cold, inside one span."""
    with tracer.span("cyclotomic.context", calls=len(moduli)):
        for modulus in moduli:
            root(modulus, 0)


def maiorana_spectrum(spec: MaioranaSpec):
    """Per point (u, j, row, dual) of a quadratic-plus-affine function, in closed form.

    With x the first m coordinates and y the last m, f = (q/p) sum_i beta_i
    x_i y_i + A(x), A the weighted affine digits. Summing over y first leaves
    the single x* with beta_i x*_i = u_(m+i), so
    S(u) = p^m zeta_q^(A(x*) - (q/p) u[:m].x*): every point has alpha = +1,
    dual A(x*) - (q/p) u[:m].x*, j = -u[:m].x* mod p, and row digits
    v_i = l_i(x*). This derivation is independent of every transform in the
    toolkit, so it checks their output.
    """
    p, m, q = spec.p, spec.m, spec.q
    k = digit_count(p, q)
    weights = [p ** (k - 1 - i) for i in range(1, k)]
    inv = [pow(b, -1, p) for b in spec.beta]
    out = []
    for rank in range(p ** (2 * m)):
        u = big_endian(p, 2 * m, rank)
        xs = [(u[m + i] * inv[i]) % p for i in range(m)]
        ux = sum(a * x for a, x in zip(u[:m], xs))
        v = [(aff.c + sum(w * x for w, x in zip(aff.w, xs))) % p for aff in spec.affines]
        row = 0
        for vi in v:
            row = row * p + vi
        dual = (sum(w * vi for w, vi in zip(weights, v)) - (q // p) * ux) % q
        out.append((u, (-ux) % p, row, dual))
    return out


def working_moduli(p: int, q: int) -> tuple[int, ...]:
    """Rings a spectrum computation into Z_q touches: lcm(4, q) and lcm(4, p)."""
    return tuple(sorted({lcm(4, q), lcm(4, p)}))
