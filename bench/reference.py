"""Benchmark-side reference arithmetic, independent of adicdyn.

Expected outputs are computed here from the definitions -- never by
calling the program -- so a wrong answer cannot agree with itself.
"""

from __future__ import annotations

import math

INF = math.inf


class Mismatch(Exception):
    """An output differs from what the definitions require."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# -- supernatural numbers as ({prime: exponent}, default) -----------------

def sn_exp(v, p):
    return v[0].get(p, v[1])


def _combine(op, M, N):
    primes = set(M[0]) | set(N[0])
    return {p: op(sn_exp(M, p), sn_exp(N, p)) for p in primes}, op(M[1], N[1])


def sn_mul(M, N):
    return _combine(lambda a, b: a + b, M, N)


def sn_gcd(M, N):
    return _combine(min, M, N)


def sn_lcm(M, N):
    return _combine(max, M, N)


def sn_leq(M, N) -> bool:
    return M[1] <= N[1] and all(sn_exp(M, p) <= sn_exp(N, p) for p in set(M[0]) | set(N[0]))


def sn_text(v) -> str:
    """The canonical literal: primes ascending, ^1 omitted, default suffix."""
    exps, default = v
    parts = []
    for p in sorted(exps):
        e = exps[p]
        if e == default:
            continue
        parts.append(f"{p}^inf" if e == INF else str(p) if e == 1 else f"{p}^{e}")
    body = "*".join(parts)
    if default == INF:
        return body + ";default=inf"
    return body or "1"


class Factorizer:
    """Prime factorization of n <= limit from a smallest-prime-factor sieve."""

    def __init__(self, limit: int):
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for q in range(p * p, limit + 1, p):
                    if spf[q] == q:
                        spf[q] = p
        self.spf = spf

    def factor(self, n: int) -> dict:
        out = {}
        while n > 1:
            p = self.spf[n]
            out[p] = out.get(p, 0) + 1
            n //= p
        return out


def factor_text(exps: dict) -> str:
    return sn_text((exps, 0))


def merge_factors(a: dict, b: dict) -> dict:
    out = dict(a)
    for p, e in b.items():
        out[p] = out.get(p, 0) + e
    return out


def trial_factor(n: int) -> dict:
    """Trial division; only used on highly composite numbers."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- permutations and periodic partitions ---------------------------------

def cycle_system(lengths, rng):
    """A permutation with the given cycle lengths on randomly relabeled points.

    Returns (forward, cycles) where each cycle lists its points in f-order.
    """
    n = sum(lengths)
    ids = list(range(n))
    rng.shuffle(ids)
    forward = [0] * n
    cycles = []
    start = 0
    for L in lengths:
        pts = ids[start:start + L]
        for i, x in enumerate(pts):
            forward[x] = pts[(i + 1) % L]
        cycles.append(pts)
        start += L
    return tuple(forward), cycles


def canonical_labels(n: int, cycles, m: int) -> list:
    """Labels of the reference partition: each cycle's smallest point in block 0."""
    lab = [0] * n
    for pts in cycles:
        k = pts.index(min(pts))
        L = len(pts)
        for t in range(L):
            lab[pts[(k + t) % L]] = t % m
    return lab


def labels_of_blocks(forward, blocks, m=None) -> list:
    """Labels of a serialized partition, checked against the defining clauses."""
    n = len(forward)
    if m is not None:
        expect(len(blocks) == m, f"partition has {len(blocks)} blocks, not {m}")
    m = len(blocks)
    lab = [-1] * n
    for i, block in enumerate(blocks):
        expect(len(block) > 0, f"block {i} is empty")
        for x in block:
            expect(0 <= x < n and lab[x] == -1, f"point {x} misplaced")
            lab[x] = i
    expect(-1 not in lab, "blocks do not cover every point")
    expect(all(lab[forward[x]] == (lab[x] + 1) % m for x in range(n)),
           "f does not step the blocks cyclically")
    return lab


def label_offset(lab1, m1, lab2, m2):
    """The constant (lab2 - lab1) mod gcd(m1, m2), or None if it varies."""
    d = math.gcd(m1, m2)
    first = (lab2[0] - lab1[0]) % d
    if all((b - a) % d == first for a, b in zip(lab1, lab2)):
        return first
    return None


def rotation_key(lab, m) -> tuple:
    """Labels rotated so that point 0 is in block 0: equal iff cyclic shifts."""
    r = lab[0]
    return tuple((c - r) % m for c in lab)


def check_equivariant(forward, labels, levels) -> None:
    """labels[f(x)] must be labels[x] plus the all-ones element."""
    for x, y in enumerate(forward):
        a, b = labels[x], labels[y]
        expect(len(a) == len(levels), f"label of {x} has the wrong depth")
        expect(all((ai + 1) % n == bi for ai, bi, n in zip(a, b, levels)),
               f"labels[f({x})] != translate(labels[{x}])")
