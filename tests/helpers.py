"""Shared constructors for the test suite.

Small combinatorial generators: cycle types, systems built from them,
divisor chains, and a seeded conjugation helper.  Everything here is
brute-force and independent of the library's own enumeration code so the
tests can cross-check against it.  The reference definitions below
(saturation, refines on labelings, fiber_partition, the lcm fold of
phi_of_set, validate_partition's clause check, ...) state a concept point by point, as the library's closed
forms are checked against them; the enumeration references keep the
prefix-by-prefix enumeration the offset-space one is checked against, and
the view references (factor labels zipped from every level, key() and the
fibers by sorting) the one-level, one-pass views.
"""

import itertools
import math
import random
from functools import lru_cache
from math import gcd, lcm

from adicdyn import (
    Comparison,
    DomainError,
    FinSystem,
    PartitionChain,
    PartitionReport,
    PeriodicPartition,
    are_compatible,
    build_factor_map,
    canonical_partition,
    compare_projections,
    cylinder,
    dynsys,
    leq,
    lcm as sn_lcm,
    phi0,
    trivial_partition,
)


def divisors(n):
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def int_partitions(n):
    """Partitions of n as sorted-descending tuples: cycle types of S_n."""
    if n == 0:
        return ((),)
    out = []
    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()
    rec(n, n, [])
    return tuple(out)


def all_cycle_types(max_n):
    """One representative cycle type per (n, type), 1 <= n <= max_n."""
    for n in range(1, max_n + 1):
        for parts in int_partitions(n):
            yield parts


def system_of_type(parts):
    """Permutation with consecutive cycles of the given lengths.

    system_of_type((3, 2)) is the permutation (0 1 2)(3 4) on 5 points.
    """
    fwd = []
    start = 0
    for length in parts:
        for i in range(length):
            fwd.append(start + (i + 1) % length)
        start += length
    return FinSystem(tuple(fwd))


def random_conjugate(S, rng):
    """Relabel S by a random bijection: g . S . g^-1 on the same point set."""
    n = S.size
    g = list(range(n))
    rng.shuffle(g)
    fwd = [0] * n
    for x in range(n):
        fwd[g[x]] = g[S.apply(x)]
    return FinSystem(tuple(fwd))


def random_system(n, rng):
    """Uniformly random permutation on n points."""
    fwd = list(range(n))
    rng.shuffle(fwd)
    return FinSystem(tuple(fwd))


def random_periodic_system(max_n, rng):
    """A randomly relabeled permutation of at most max_n points whose cycle
    lengths share a random factor, so that it has partitions of length > 1."""
    g = rng.choice([d for d in (1, 2, 3, 4, 6) if d <= max_n])
    parts = [g]
    while sum(parts) + g <= max_n and rng.random() < 0.7:
        parts.append(g * rng.randint(1, (max_n - sum(parts)) // g))
    return random_conjugate(system_of_type(tuple(parts)), rng)


def make_compatible_reference(P1, m2):
    """make_compatible as its docstring states it, on block sets: the slices
    W1_0 & ref_j (j < gcd) of the reference length-m2 partition, pushed
    forward lcm steps and folded mod m2.  Returns sorted block lists."""
    S = P1.system
    ref = canonical_partition(S, m2)
    layer = set().union(*(P1.blocks[0] & ref.blocks[j] for j in range(gcd(P1.length, m2))))
    folded = [set() for _ in range(m2)]
    for s in range(lcm(P1.length, m2)):
        folded[s % m2] |= layer
        layer = {S.apply(x) for x in layer}
    return [sorted(b) for b in folded]


def validate_partition_reference(system, blocks):
    """validate_partition clause by clause on frozensets, as it was before
    its one-pass accept: the texts and flags every report must match."""
    blocks = [frozenset(b) for b in blocks]
    problems = []

    nonempty = bool(blocks)
    if not blocks:
        problems.append("no blocks")
    for i, b in enumerate(blocks):
        if not b:
            nonempty = False
            problems.append(f"block {i} is empty")

    n = system.size
    in_range = all(type(x) is int and 0 <= x < n for b in blocks for x in b)
    if not in_range:
        problems.append("point ids out of range")

    total = sum(len(b) for b in blocks)
    union = set().union(*blocks) if blocks else set()
    disjoint = total == len(union)
    if not disjoint:
        problems.append("blocks overlap")

    covers = in_range and union == set(range(n))
    if not covers:
        problems.append("blocks do not cover the space exactly")

    m = len(blocks)
    cyclic = bool(blocks) and in_range
    if cyclic:
        for i in range(m):
            image = frozenset(map(system.forward.__getitem__, blocks[i]))
            if image != blocks[(i + 1) % m]:
                cyclic = False
                problems.append(f"f(W_{i}) != W_{(i + 1) % m}")
    return PartitionReport(
        "vacuous on a finite discrete space",
        cyclic,
        disjoint,
        covers,
        nonempty,
        tuple(problems),
    )


def _rotation_key(P):
    """The offsets shifted so that point 0 (first of the first cycle) is in
    block 0: equal exactly for the cyclic shifts of one partition."""
    m, r = P.length, P.offsets[0]
    return tuple((o - r) % m for o in P.offsets)


def enumerate_compatible_reference(P1, m2):
    """enumerate_compatible as it was when it built every candidate as a
    partition and keyed its class by that partition's rotation."""
    S = P1.system
    dynsys._require_period(S, m2)
    d = math.gcd(P1.length, m2)
    anchor = P1.offsets
    found = []
    for o1 in range(m2):
        delta = (o1 - anchor[0]) % d
        per_cycle = [[o1]] + [range((a + delta) % d, m2, d) for a in anchor[1:]]
        found += itertools.product(*per_cycle)
    low = [[min(c[-o % m2::m2]) for o in range(m2)] for c in S.cycles]
    found.sort(key=lambda offs: sorted(map(list.__getitem__, low, offs)))
    class_ids = {}
    return [
        (P, class_ids.setdefault(_rotation_key(P), len(class_ids)))
        for P in (dynsys._trusted(S, m2, offs) for offs in found)
    ]


def enumerate_factor_maps_reference(S, lengths):
    """enumerate_factor_maps as it was when it grew chains prefix by prefix
    through enumerate_compatible and built, checked and normalized every
    chain through PartitionChain and build_factor_map."""
    prefixes = [()]
    for n in dynsys._period_base(S, lengths).levels:
        nxt = []
        for pref in prefixes:
            prev = pref[-1] if pref else trivial_partition(S)
            for Q, _cid in enumerate_compatible_reference(prev, n):
                nxt.append(pref + (Q,))
        prefixes = nxt
    classes = {}
    for pref in prefixes:
        F = build_factor_map(S, PartitionChain(pref))
        classes.setdefault(_rotation_key(F.chain.partitions[-1]), []).append(F)
    return list(classes.values())


def lcm_labels_reference(P1, P2):
    """lcm_partition's labels as its docstring states them, point by point:
    the s < lcm(m1, m2) with s = c1(x) - c1(0) mod m1 and s = c2(x) - c2(0)
    mod m2, read off a table of every s."""
    m1, m2 = P1.length, P2.length
    solution = {(s % m1, s % m2): s for s in range(lcm(m1, m2))}
    c1, c2 = P1.labels, P2.labels
    return [solution[(c1[x] - c1[0]) % m1, (c2[x] - c2[0]) % m2] for x in range(len(c1))]


def cylinder_contains(base, j, r, x):
    """Whether the point x of the odometer over base lies in the level-j
    cylinder of residue r: its full-depth residue is a member of cylinder()."""
    if x.base != base:
        raise DomainError("point has a different base")
    return x.residues[-1] in cylinder(base, j, r)


def saturation(P1, k, P2, l):
    """The forward-orbit saturation A(k,l) of the block intersection: the
    union of f^s(W1_k & W2_l) for s up to the lcm of the lengths."""
    if P1.system != P2.system:
        raise DomainError("partitions live on different systems")
    if not (0 <= k < P1.length and 0 <= l < P2.length):
        raise DomainError("block index out of range")
    S = P1.system
    out = set()
    layer = set(P1.blocks[k] & P2.blocks[l])
    for _ in range(lcm(P1.length, P2.length)):
        out |= layer
        layer = {S.apply(x) for x in layer}
    return frozenset(out)


def refines(fine, coarse):
    """Whether every class of the labeling fine lies inside one class of the
    labeling coarse (labels are any hashable values, one per point)."""
    image = {}
    return all(image.setdefault(a, b) == b for a, b in zip(fine, coarse))


def fiber_partition(F):
    """The fibers of a factor map: its points grouped by label."""
    groups = {}
    for x, lab in enumerate(F.labels):
        groups.setdefault(lab, set()).add(x)
    return frozenset(map(frozenset, groups.values()))


def factor_labels_reference(F):
    """FactorMap.labels as it was when every level's labeling was built and
    the labelings were zipped into per-point vectors."""
    return tuple(zip(*(P.labels for P in F.chain.partitions)))


def key_reference(P):
    """PeriodicPartition.key() as it was when all points were sorted by label
    and the order cut into the m blocks of size/m points each."""
    order = sorted(range(P.system.size), key=P.labels.__getitem__)
    return tuple(zip(*[iter(order)] * (P.system.size // P.length)))


def fibers_reference(F):
    """factor_report's fibers as they were: the finest blocks sorted by the
    zipped label vector of each block's first point."""
    labels = factor_labels_reference(F)
    fibers = sorted(key_reference(F.chain.partitions[-1]), key=lambda b: labels[b[0]])
    return [list(b) for b in fibers]


def chains_compatible(c1, c2):
    """Every level of one chain compatible with every level of the other."""
    if c1.system != c2.system:
        raise DomainError("chains live on different systems")
    return all(are_compatible(A, B) for A in c1.partitions for B in c2.partitions)


def invariant_components(S):
    """The minimal nonempty invariant subsets: the cycles."""
    return [frozenset(cyc) for cyc in S.cycles]


def phi_of_set_reference(values):
    """phi_of_set as the fold of the lattice join over the phi0 images."""
    vals = list(values)
    out = phi0(vals[0])
    for a in vals[1:]:
        out = sn_lcm(out, phi0(a))
    return out


def regular_contains(R, a):
    """Membership of a positive integer in the regular set described by R."""
    return leq(phi0(a), R)


def seq_dominates(a, b):
    """True iff every level of the base a divides some level of the base b."""
    return all(any(bj % ai == 0 for bj in b.levels) for ai in a.levels)


def random_partition(S, m, rng):
    """A length-m partition with a random label for each cycle's first
    point, built through the checked constructor."""
    return PeriodicPartition(S, m, [rng.randrange(m) for _ in S.cycles])


def rebuilt_from_labels(P):
    """P built again through the checked constructor, from the offsets its
    labels, read point by point, step by (dynsys._step_offsets)."""
    offsets = dynsys._step_offsets(P.system, P.labels, P.length)
    assert offsets is not None, "the labels do not step by one along f"
    return PeriodicPartition(P.system, P.length, offsets)


def all_partitions_reference(S, m):
    """all_partitions as it was before it answered [] up front and dealt
    each labeling in one pass (its bound and leaf refusals left out):
    labels propagated along each cycle, the first cycle m does not divide
    labeled first, the wrap-around checked directly, empty blocks skipped,
    and each block gathered by a scan of every point."""
    cycles = S.cycles
    depth = next((i for i, c in enumerate(cycles) if len(c) % m), len(cycles))
    labels = [-1] * S.size
    out = []
    searched = cycles[depth : depth + 1] + cycles[:depth]
    for starts in itertools.product(range(m), repeat=len(searched)):
        for cyc, c in zip(searched, starts):
            for x in cyc:
                labels[x] = c
                c = (c + 1) % m
            if labels[cyc[0]] != c:
                break
        else:
            counts = [0] * m
            for c in labels:
                counts[c] += 1
            if all(counts):
                blocks = tuple(
                    frozenset(x for x in range(S.size) if labels[x] == j)
                    for j in range(m)
                )
                out.append(PeriodicPartition.from_blocks(S, blocks))
    out.sort(key=PeriodicPartition.key)
    return out


def pairwise_classes(maps):
    """Factor maps grouped by pairwise compare_projections, each class
    headed by its first member in the given order."""
    classes = []
    for F in maps:
        for cls in classes:
            if compare_projections(F, cls[0]) is Comparison.EQUIVALENT:
                cls.append(F)
                break
        else:
            classes.append([F])
    return classes


def strict_divisor_chains(limit):
    """All chains 1 <= d_1 < d_2 < ... with d_i | d_{i+1}, d_last <= limit.

    Single-element chains are included.  Used to drive chain construction
    over every admissible length profile up to the limit.
    """
    chains = []
    def grow(chain):
        chains.append(tuple(chain))
        last = chain[-1]
        for mult in range(2, limit // last + 1):
            chain.append(last * mult)
            grow(chain)
            chain.pop()
    for start in range(1, limit + 1):
        grow([start])
    return chains


def saturated_chains(n):
    """Maximal divisor chains 1 = d_0 | d_1 | ... | d_k = n.

    Each step multiplies by a single prime, so the chains correspond to
    orderings of the prime multiset of n.
    """
    if n == 1:
        return [(1,)]
    out = []
    def primes_of(m):
        ps = []
        d = 2
        while d * d <= m:
            if m % d == 0:
                ps.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            ps.append(m)
        return ps
    def grow(chain):
        cur = chain[-1]
        if cur == n:
            out.append(tuple(chain))
            return
        for p in primes_of(n // cur):
            chain.append(cur * p)
            grow(chain)
            chain.pop()
    grow([1])
    return out


def cycle_gcd(parts):
    g = 0
    for length in parts:
        g = gcd(g, length)
    return g


def seeded(seed):
    return random.Random(seed)
