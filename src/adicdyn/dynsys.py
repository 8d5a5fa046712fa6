"""Finite dynamical systems (permutations) and their periodic partitions.

A periodic partition of length m is an ordered family W_0..W_{m-1} of
nonempty, pairwise disjoint sets covering all points with f(W_{i-1}) = W_i
cyclically.  Equivalently: a labeling c with c(f(x)) = c(x) + 1 mod m whose
classes are all nonempty.  A PeriodicPartition is stored as that labeling,
so the constructions below are label arithmetic, checked once by the
PeriodicPartition constructor.

The brute-force oracle all_partitions only relies on the defining clauses;
the faster formulas (ess_periods, the compatibility criterion, the
enumeration of compatible partitions) are cross-validated against it in the
test suite.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, ParseError
from .supernatural import BaseSequence, phi0


@dataclass(frozen=True)
class FinSystem:
    """A permutation f of the points 0..N-1, stored as its forward map."""

    forward: tuple = ()

    def __post_init__(self):
        fwd = tuple(self.forward)
        object.__setattr__(self, "forward", fwd)
        if not fwd:
            raise DomainError("a system needs at least one point")
        if sorted(fwd) != list(range(len(fwd))):
            raise DomainError("forward map is not a permutation of 0..N-1")

    @property
    def size(self) -> int:
        return len(self.forward)

    @cached_property
    def backward(self) -> tuple:
        inv = [0] * self.size
        for x, y in enumerate(self.forward):
            inv[y] = x
        return tuple(inv)

    @cached_property
    def cycles(self) -> tuple:
        """Cycles in f-order, each starting at its smallest point,
        listed by smallest point ascending."""
        seen = set()
        out = []
        for start in range(self.size):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            y = self.forward[start]
            while y != start:
                cyc.append(y)
                seen.add(y)
                y = self.forward[y]
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def _cycle_index(self) -> tuple:
        idx = [0] * self.size
        for i, cyc in enumerate(self.cycles):
            for x in cyc:
                idx[x] = i
        return tuple(idx)

    def cycle_of(self, x: int) -> tuple:
        if not 0 <= x < self.size:
            raise DomainError(f"point {x} out of range")
        return self.cycles[self._cycle_index[x]]

    def apply(self, x: int) -> int:
        return self.forward[x]

    def inverse(self, x: int) -> int:
        return self.backward[x]

    def iterate(self, x: int, n: int) -> int:
        """f^n(x) for any integer n (negative means the inverse)."""
        cyc = self.cycle_of(x)
        i = cyc.index(x)
        return cyc[(i + n) % len(cyc)]

    def __str__(self) -> str:
        return format_cycles(self)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, size: int | None = None) -> FinSystem:
    """Parse cycle notation like ``(0 1 2)(3 4)``.

    Whitespace-insensitive; points not mentioned are fixed points, and with
    an explicit size trailing fixed points may be omitted entirely.
    """
    s = text.strip()
    leftover = _CYCLE_RE.sub("", s).strip()
    if leftover:
        raise ParseError(f"unexpected text in cycle notation: {leftover!r}")
    seen = set()
    cycles = []
    max_point = -1
    for group in _CYCLE_RE.findall(s):
        tokens = group.split()
        if not tokens:
            raise ParseError("empty cycle")
        pts = []
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad point {tok!r}") from None
            if v < 0:
                raise ParseError("point ids are nonnegative")
            if v in seen:
                raise ParseError(f"point {v} appears twice")
            seen.add(v)
            pts.append(v)
            max_point = max(max_point, v)
        cycles.append(pts)
    n = size if size is not None else max_point + 1
    if size is not None and size < max_point + 1:
        raise ParseError("declared size is smaller than the largest point id")
    if size is None and len(seen) != max_point + 1:
        # fixed points may only be left out when the size is explicit
        missing = min(set(range(max_point + 1)) - seen)
        raise ParseError(f"point {missing} is missing (pass size= to omit fixed points)")
    if n < 1:
        raise ParseError("empty system")
    fwd = list(range(n))
    for pts in cycles:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            fwd[a] = b
    return FinSystem(tuple(fwd))


def format_cycles(S: FinSystem) -> str:
    return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in S.cycles)


@dataclass
class PartitionReport:
    """Clause-by-clause check of the periodic-partition conditions."""

    clause_i: str  # clopenness — automatic on a finite discrete space
    clause_ii: bool  # f(W_{i-1}) = W_i cyclically
    clause_iii: bool  # pairwise disjoint
    clause_iv: bool  # covers every point, no strays
    blocks_nonempty: bool
    problems: tuple

    @property
    def ok(self) -> bool:
        return (
            self.clause_ii
            and self.clause_iii
            and self.clause_iv
            and self.blocks_nonempty
        )


def validate_partition(system: FinSystem, blocks) -> PartitionReport:
    """Report which of the defining clauses a candidate block list satisfies.

    Clause (i), clopenness, is vacuous on finite discrete spaces and is
    reported as such rather than as a boolean.
    """
    blocks = [frozenset(b) for b in blocks]
    problems = []

    nonempty = bool(blocks)
    if not blocks:
        problems.append("no blocks")
    for i, b in enumerate(blocks):
        if not b:
            nonempty = False
            problems.append(f"block {i} is empty")

    in_range = all(
        type(x) is int and 0 <= x < system.size for b in blocks for x in b
    )
    if not in_range:
        problems.append("point ids out of range")

    total = sum(len(b) for b in blocks)
    union = set().union(*blocks) if blocks else set()
    disjoint = total == len(union)
    if not disjoint:
        problems.append("blocks overlap")

    covers = in_range and union == set(range(system.size))
    if not covers:
        problems.append("blocks do not cover the space exactly")

    m = len(blocks)
    cyclic = bool(blocks) and in_range
    if cyclic:
        for i in range(m):
            image = frozenset(system.forward[x] for x in blocks[i])
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


@dataclass(frozen=True)
class PeriodicPartition:
    """An ordered periodic partition W_0..W_{m-1}, stored as its labeling:
    labels[x] is the index of the block holding x, and m = max(labels) + 1.

    The constructor checks the labeling clause c(f(x)) = c(x) + 1 mod m at
    every point.  No block can then be empty: the wrap-around around a cycle
    forces its length to be a multiple of m, so every cycle walks through
    all m labels.  Block lists from outside go through from_blocks.
    """

    system: FinSystem
    labels: tuple = ()

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        fwd = self.system.forward
        if len(labels) != len(fwd):
            raise DomainError(f"{len(labels)} labels for {len(fwd)} points")
        if set(map(type, labels)) != {int} or min(labels) < 0:
            raise DomainError("labels are nonnegative integers")
        m = self.length
        if m > len(labels):  # every cycle length is a multiple of m
            raise DomainError(f"{m} blocks on {len(labels)} points")
        succ = [*range(1, m), 0]  # succ[c] = c + 1 mod m
        if list(map(succ.__getitem__, labels)) != list(map(labels.__getitem__, fwd)):
            raise DomainError(f"labels do not step by one mod {m} along f")

    @classmethod
    def from_blocks(cls, system: FinSystem, blocks) -> PeriodicPartition:
        """The partition with the given ordered block list, checked clause by
        clause through validate_partition."""
        blocks = [frozenset(b) for b in blocks]
        report = validate_partition(system, blocks)
        if not report.ok:
            raise DomainError("not a periodic partition: " + "; ".join(report.problems))
        return cls(system, _labels_of_blocks(system, blocks))

    @cached_property
    def length(self) -> int:
        return max(self.labels) + 1

    @cached_property
    def blocks(self) -> tuple:
        """The blocks W_0..W_{m-1} as frozensets."""
        return tuple(map(frozenset, self.key()))

    def index_of(self, x: int) -> int:
        """The index of the block containing x."""
        return self.labels[x]

    def key(self):
        """The ordered block list with each block ascending: a sortable
        canonical snapshot."""
        out = [[] for _ in range(self.length)]
        for x, c in enumerate(self.labels):
            out[c].append(x)
        return tuple(map(tuple, out))


def _labels_of_blocks(system: FinSystem, blocks) -> tuple:
    """The labeling of a block list that validate_partition accepted."""
    labels = [0] * system.size
    for i, b in enumerate(blocks):
        for x in b:
            labels[x] = i
    return tuple(labels)


def blocks_json(P: PeriodicPartition) -> list:
    """The serialized form: a list of sorted point lists, in block order."""
    return [list(b) for b in P.key()]


def trivial_partition(S: FinSystem) -> PeriodicPartition:
    return PeriodicPartition(S, (0,) * S.size)


def canonical_partition(S: FinSystem, m: int) -> PeriodicPartition:
    """The reference length-m partition: each cycle's smallest point in block 0."""
    if not isinstance(m, int) or m < 1:
        raise DomainError("length must be a positive integer")
    labels = [0] * S.size
    for cyc in S.cycles:
        if len(cyc) % m:
            raise DomainError(f"no partition of length {m} exists (cycle of length {len(cyc)})")
        for t, x in enumerate(cyc):
            labels[x] = t % m
    return PeriodicPartition(S, labels)


def all_partitions(S: FinSystem, m: int, bound: int = 12) -> list:
    """Brute-force enumeration of every length-m partition, canonically sorted.

    This is the oracle the closed-form routes are tested against, so it uses
    nothing but the defining increment rule: labels are propagated point by
    point along each cycle and the wrap-around is checked directly.  Every
    completed candidate is admitted through PeriodicPartition.from_blocks
    alone, which checks it clause by clause with validate_partition.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError("length must be a positive integer")
    if S.size > bound or m > bound:
        raise DomainError(f"oracle bound {bound} exceeded")
    cycles = S.cycles
    labels = [-1] * S.size
    out = []

    def rec(i: int):
        if i == len(cycles):
            counts = [0] * m
            for c in labels:
                counts[c] += 1
            if all(counts):
                blocks = tuple(
                    frozenset(x for x in range(S.size) if labels[x] == j)
                    for j in range(m)
                )
                out.append(PeriodicPartition.from_blocks(S, blocks))
            return
        cyc = cycles[i]
        for v in range(m):
            c = v
            for x in cyc:
                labels[x] = c
                c = (c + 1) % m
            # wrap-around: f of the last point is the first again
            if labels[cyc[0]] == c:
                rec(i + 1)
        for x in cyc:
            labels[x] = -1

    rec(0)
    out.sort(key=PeriodicPartition.key)
    return out


def period_gcd(S: FinSystem) -> int:
    g = 0
    for cyc in S.cycles:
        g = math.gcd(g, len(cyc))
    return g


def ess_periods(S: FinSystem):
    """All lengths of periodic partitions, with their joint factorization.

    A labeling restricted to one cycle steps by one around it, so the
    length divides every cycle length; conversely any divisor of their gcd
    admits the per-cycle residue labeling.  The set is therefore the
    divisor set of that gcd.  (The test suite confirms this against the
    all_partitions oracle.)
    """
    g = period_gcd(S)
    small = [d for d in range(1, math.isqrt(g) + 1) if g % d == 0]
    return frozenset(small + [g // d for d in small]), phi0(g)


def _require_period(S: FinSystem, m) -> None:
    """Refuse m unless it is a partition length of S: a divisor of the gcd
    of the cycle lengths (see ess_periods)."""
    if not (isinstance(m, int) and m >= 1 and period_gcd(S) % m == 0):
        raise DomainError(f"no partition of length {m} exists")


def _period_base(S: FinSystem, lengths) -> BaseSequence:
    """lengths as a divisibility chain whose every level, in order, is a
    partition length of S."""
    base = lengths if isinstance(lengths, BaseSequence) else BaseSequence(tuple(lengths))
    for n in base.levels:
        _require_period(S, n)
    return base


def cyclic_shift(P: PeriodicPartition, k: int) -> PeriodicPartition:
    """Reindex so the old block k becomes block 0."""
    m = P.length
    k %= m
    if k == 0:
        return P
    return PeriodicPartition(P.system, [(c - k) % m for c in P.labels])


def _rotation_key(P: PeriodicPartition) -> tuple:
    """The labels shifted so that point 0 is in block 0: equal exactly for
    the cyclic shifts of one partition."""
    m, r = P.length, P.labels[0]
    return tuple((c - r) % m for c in P.labels)


def are_equivalent(P1: PeriodicPartition, P2: PeriodicPartition) -> bool:
    """True iff some cyclic reindexing maps one block list onto the other."""
    if P1.system != P2.system:
        raise DomainError("partitions live on different systems")
    if P1.length != P2.length:
        raise DomainError("partitions have different lengths")
    return _rotation_key(P1) == _rotation_key(P2)


def coarsen(P: PeriodicPartition, d: int) -> PeriodicPartition:
    """Merge blocks with indices congruent mod d into a length-d partition."""
    if not isinstance(d, int) or d < 1 or P.length % d:
        raise DomainError(f"{d} does not divide the length {P.length}")
    return PeriodicPartition(P.system, [c % d for c in P.labels])


def saturation(P1: PeriodicPartition, k: int, P2: PeriodicPartition, l: int) -> frozenset:
    """The forward-orbit saturation A(k,l) of the block intersection.

    The union of f^s(W1_k ∩ W2_l) for s up to lcm of the lengths; an
    invariant set, empty exactly when the intersection is.
    """
    if P1.system != P2.system:
        raise DomainError("partitions live on different systems")
    if not (0 <= k < P1.length and 0 <= l < P2.length):
        raise DomainError("block index out of range")
    S = P1.system
    D = math.lcm(P1.length, P2.length)
    out = set()
    layer = set(P1.blocks[k] & P2.blocks[l])
    for _ in range(D):
        out |= layer
        layer = {S.forward[x] for x in layer}
    return frozenset(out)


def constant_label_offset(P1: PeriodicPartition, P2: PeriodicPartition):
    """The constant value of (c2 - c1) mod gcd(m1, m2), or None.

    The saturation of W1_k ∩ W2_l is exactly the set of points whose label
    difference is l - k mod d, so every saturation being empty-or-everything
    is the same as this difference being constant.
    """
    if P1.system != P2.system:
        raise DomainError("partitions live on different systems")
    d = math.gcd(P1.length, P2.length)
    offsets = set(map(d.__rmod__, map(int.__sub__, P2.labels, P1.labels)))
    return offsets.pop() if len(offsets) == 1 else None


def are_compatible(P1: PeriodicPartition, P2: PeriodicPartition) -> bool:
    """True iff every saturation A(k,l) is empty or the whole space."""
    return constant_label_offset(P1, P2) is not None


def _crt(a: int, m: int, b: int, n: int) -> int:
    """The s in 0..lcm-1 with s = a mod m and s = b mod n."""
    g = math.gcd(m, n)
    if (b - a) % g:
        raise DomainError("congruences have no common solution")
    mg, ng = m // g, n // g
    t = ((b - a) // g * pow(mg, -1, ng)) % ng
    return (a + m * t) % (m * ng)


def lcm_partition(P1: PeriodicPartition, P2: PeriodicPartition) -> PeriodicPartition:
    """The common refinement of a compatible pair, of length lcm(m1, m2).

    Labels are fixed by both congruences relative to point 0, so block 0
    contains the smallest point id.
    """
    delta = constant_label_offset(P1, P2)
    if delta is None:
        raise DomainError("partitions are not compatible")
    m1, m2 = P1.length, P2.length
    r1, r2 = P1.labels[0], P2.labels[0]
    labels = [
        _crt((a - r1) % m1, m1, (b - r2) % m2, m2)
        for a, b in zip(P1.labels, P2.labels)
    ]
    return PeriodicPartition(P1.system, labels)


def make_compatible(P1: PeriodicPartition, m2: int) -> PeriodicPartition:
    """A deterministic length-m2 partition compatible with P1.

    Constructive route: take the reference length-m2 partition, keep the
    zero-step slices W1_0 ∩ ref_j of the nonempty saturations A(0, j)
    (scanning j ascending, all shift parameters zero), push their union
    forward to a partition of length lcm, and fold it back mod m2.

    On a cycle whose first point has P1-label a, the point u steps further
    on lies in that union iff u = -a mod m1 and u mod m2 = -a mod gcd, that
    is iff u = t mod lcm for the CRT solution t; the fold then gives it the
    label (u - t) mod m2.
    """
    S = P1.system
    _require_period(S, m2)
    m1 = P1.length
    d = math.gcd(m1, m2)
    labels = [0] * S.size
    for cyc in S.cycles:
        a = P1.labels[cyc[0]]
        t = _crt(-a % m1, m1, -a % d, m2)
        for u, x in enumerate(cyc):
            labels[x] = (u - t) % m2
    return PeriodicPartition(S, labels)


def enumerate_compatible(P1: PeriodicPartition, m2: int) -> list:
    """Every length-m2 partition compatible with P1, tagged by class.

    A compatible labeling is determined by one offset per cycle, subject to
    all cycles inducing the same label difference mod d = gcd(m1, m2); the
    first cycle's offset ranges freely and pins the difference, so every
    candidate is compatible by construction.  Returns (partition, class_id)
    pairs, canonically ordered, where two partitions share a class id iff
    they are cyclic shifts of each other.
    """
    S = P1.system
    _require_period(S, m2)
    m1 = P1.length
    d = math.gcd(m1, m2)
    cycles = S.cycles
    anchor = [P1.labels[cyc[0]] for cyc in cycles]
    found = []
    for o1 in range(m2):
        delta = (o1 - anchor[0]) % d
        per_cycle = [[o1]] + [range((a + delta) % d, m2, d) for a in anchor[1:]]
        for offsets in itertools.product(*per_cycle):
            labels = [0] * S.size
            for cyc, off in zip(cycles, offsets):
                for t, x in enumerate(cyc):
                    labels[x] = (off + t) % m2
            found.append(PeriodicPartition(S, labels))
    found.sort(key=PeriodicPartition.key)
    class_ids = {}
    return [
        (P, class_ids.setdefault(_rotation_key(P), len(class_ids))) for P in found
    ]


def invariant_components(S: FinSystem) -> list:
    """The minimal nonempty invariant subsets: the cycles."""
    return [frozenset(cyc) for cyc in S.cycles]


def is_indecomposable(S: FinSystem) -> bool:
    """No splitting into two nonempty invariant parts: a single cycle."""
    return len(S.cycles) == 1


@dataclass(frozen=True)
class PartitionChain:
    """Partitions of lengths n1 | n2 | ... | nL, consecutive levels compatible.

    Compatibility plus divisibility makes each level a blockwise refinement
    of the one before, and pairwise compatibility of all levels follows;
    validate_chain checks those derived facts explicitly.
    """

    partitions: tuple = ()

    def __post_init__(self):
        parts = tuple(self.partitions)
        object.__setattr__(self, "partitions", parts)
        if not parts:
            raise DomainError("a chain needs at least one level")
        S = parts[0].system
        for P in parts:
            if P.system != S:
                raise DomainError("chain mixes systems")
        for A, B in zip(parts, parts[1:]):
            if B.length % A.length:
                raise DomainError(f"{A.length} does not divide {B.length}")
            if not are_compatible(A, B):
                raise DomainError("consecutive levels are incompatible")

    @property
    def system(self) -> FinSystem:
        return self.partitions[0].system

    @property
    def lengths(self) -> tuple:
        return tuple(P.length for P in self.partitions)


def refines(fine, coarse) -> bool:
    """Whether every class of the labeling fine lies inside one class of the
    labeling coarse (labels are any hashable values, one per point)."""
    image = {}
    return all(image.setdefault(a, b) == b for a, b in zip(fine, coarse))


@dataclass
class ChainReport:
    levels_valid: bool
    lengths_divide: bool
    consecutive_compatible: bool
    pairwise_compatible: bool
    blockwise_refinement: bool
    problems: tuple

    @property
    def ok(self) -> bool:
        return (
            self.levels_valid
            and self.lengths_divide
            and self.consecutive_compatible
            and self.pairwise_compatible
            and self.blockwise_refinement
        )


def validate_chain(system: FinSystem, levels) -> ChainReport:
    """Check a raw list of block lists against every chain invariant."""
    problems = []
    parts = []
    levels_valid = True
    for i, blocks in enumerate(levels):
        report = validate_partition(system, blocks)
        if not report.ok:
            levels_valid = False
            problems.append(f"level {i}: " + "; ".join(report.problems))
        else:
            parts.append(PeriodicPartition(system, _labels_of_blocks(system, blocks)))
    if not levels:
        levels_valid = False
        problems.append("empty chain")
    if not levels_valid:
        return ChainReport(False, False, False, False, False, tuple(problems))

    divides = True
    for A, B in zip(parts, parts[1:]):
        if B.length % A.length:
            divides = False
            problems.append(f"{A.length} does not divide {B.length}")
    consecutive = True
    for i, (A, B) in enumerate(zip(parts, parts[1:])):
        if not are_compatible(A, B):
            consecutive = False
            problems.append(f"levels {i} and {i + 1} are incompatible")
    pairwise = True
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not are_compatible(parts[i], parts[j]):
                pairwise = False
                problems.append(f"levels {i} and {j} are incompatible")
    refinement = divides
    if divides:
        for i, (A, B) in enumerate(zip(parts, parts[1:])):
            if not refines(B.labels, A.labels):
                refinement = False
                problems.append(f"level {i + 1} does not refine level {i} blockwise")
    return ChainReport(
        levels_valid, divides, consecutive, pairwise, refinement, tuple(problems)
    )


def build_chain(S: FinSystem, lengths) -> PartitionChain:
    """A deterministic chain with the given lengths, by iterated make_compatible."""
    parts = []
    prev = trivial_partition(S)
    for n in _period_base(S, lengths).levels:
        prev = make_compatible(prev, n)
        parts.append(prev)
    return PartitionChain(tuple(parts))


def extend_chain(chain: PartitionChain, m: int) -> PartitionChain:
    """Insert a length-m level into the chain's divisibility ladder.

    A length already present returns the chain unchanged.  New finest
    levels are built with make_compatible; interior and front fits coarsen
    the next finer level, which stays compatible with both neighbours.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError("length must be a positive integer")
    lengths = chain.lengths
    if m in lengths:
        return chain
    _require_period(chain.system, m)
    if m % lengths[-1] == 0:
        new = make_compatible(chain.partitions[-1], m)
        return PartitionChain(chain.partitions + (new,))
    if lengths[0] % m == 0:
        new = coarsen(chain.partitions[0], m)
        return PartitionChain((new,) + chain.partitions)
    for i in range(len(lengths) - 1):
        if m % lengths[i] == 0 and lengths[i + 1] % m == 0:
            new = coarsen(chain.partitions[i + 1], m)
            return PartitionChain(
                chain.partitions[: i + 1] + (new,) + chain.partitions[i + 1 :]
            )
    raise DomainError(f"{m} does not fit the chain's divisibility ladder")


def chains_compatible(c1: PartitionChain, c2: PartitionChain) -> bool:
    """Every level of one compatible with every level of the other."""
    if c1.system != c2.system:
        raise DomainError("chains live on different systems")
    return all(
        are_compatible(A, B) for A in c1.partitions for B in c2.partitions
    )


def cycle_subsystem(S: FinSystem, x: int):
    """The cycle through x as a standalone system.

    Returns (T, points) where points[i] is the original id of T's point i
    (original ids in ascending order).
    """
    pts = tuple(sorted(S.cycle_of(x)))
    index = {p: i for i, p in enumerate(pts)}
    fwd = tuple(index[S.forward[p]] for p in pts)
    return FinSystem(fwd), pts


def partition_from_return(S: FinSystem, x: int, U):
    """The return-time partition of the cycle of x generated by U.

    m is the least n whose full f^n-orbit of x stays inside U; the blocks
    are that orbit and its m-1 forward images, over the cycle subsystem of
    x (points relabeled to 0..L-1 in ascending original order).  Returns
    (m, partition).
    """
    U = frozenset(U)
    if not 0 <= x < S.size:
        raise DomainError(f"point {x} out of range")
    if x not in U:
        raise DomainError("the set must contain the base point")
    cyc = S.cycle_of(x)
    L = len(cyc)
    i = cyc.index(x)
    walk = cyc[i:] + cyc[:i]  # walk[u] = f^u(x)
    # the f^n-orbit of x is its f^gcd(n, L)-orbit, so the least n is a
    # divisor of L, and n = L (the orbit {x}) always qualifies
    m = next(
        n for n in range(1, L + 1)
        if L % n == 0 and all(y in U for y in walk[::n])
    )
    T, pts = cycle_subsystem(S, x)
    steps = {y: u for u, y in enumerate(walk)}
    return m, PeriodicPartition(T, [steps[p] % m for p in pts])
