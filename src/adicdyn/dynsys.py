"""Finite dynamical systems (permutations) and their periodic partitions.

A periodic partition of length m is an ordered family W_0..W_{m-1} of
nonempty, pairwise disjoint sets covering all points with f(W_{i-1}) = W_i
cyclically.  Equivalently: a labeling c with c(f(x)) = c(x) + 1 mod m whose
classes are all nonempty.  The labels step by one along each cycle, so a
PeriodicPartition holds m and the label of each cycle's first point: these
offsets, the closed form of the labeling, are what it is built from and
checks, in O(cycles).  Each outside input costs one pass: a forward map is
checked by the walk that finds its cycles, at construction, and a block
list by reading it as a labeling and checking the step rule along each
cycle (validate_partition names the failing clauses only when that check
fails).  Every construction below is arithmetic on the offsets, O(cycles)
rather than O(points), and so is enumeration: _compatible_candidates lists
each residue key's offset tuples once, in order and classed by position,
and builds them as partitions, at most MAX_ENUMERATION of them and
MAX_POINTS points in all, counted in closed form before anything is built.

The brute-force oracle all_partitions only relies on the defining clauses,
and its answers are bounded as the enumeration's are; the faster formulas
(ess_periods, the compatibility criterion, the enumeration of compatible
partitions) are cross-validated against it in the test suite.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, ParseError, parse_int, quoted, require_int
from .supernatural import BaseSequence, phi0


@dataclass(frozen=True)
class FinSystem:
    """A permutation f of the points 0..N-1, stored as its forward map, and
    its cycles: each in f-order from its smallest point, listed by smallest
    point ascending.

    The cycles are computed at construction by one walk, and the walk is the
    permutation check: each walk starts at the least point not yet seen and
    follows f until it meets a seen point, which for a permutation is the
    walk's own start.  A walk that stops anywhere else has met a point
    twice.  Entries must be of type int (bool and float are refused).
    """

    forward: tuple = ()
    cycles: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fwd = tuple(self.forward)
        object.__setattr__(self, "forward", fwd)
        if not fwd:
            raise DomainError("a system needs at least one point")
        n = len(fwd)
        if set(map(type, fwd)) != {int} or min(fwd) < 0 or max(fwd) >= n:
            raise DomainError("forward map is not a permutation of 0..N-1")
        seen = bytearray(n)
        cycles = []
        start = 0
        while start >= 0:
            cyc = [start]
            seen[start] = 1
            y = fwd[start]
            while not seen[y]:
                seen[y] = 1
                cyc.append(y)
                y = fwd[y]
            if y != start:
                raise DomainError("forward map is not a permutation of 0..N-1")
            cycles.append(tuple(cyc))
            start = seen.find(0, start + 1)
        object.__setattr__(self, "cycles", tuple(cycles))

    @property
    def size(self) -> int:
        return len(self.forward)

    @cached_property
    def _position(self) -> tuple:
        """_position[x] is the index of x in the concatenated cycles."""
        pos = [0] * self.size
        for i, x in enumerate(itertools.chain.from_iterable(self.cycles)):
            pos[x] = i
        return tuple(pos)

    @cached_property
    def period_gcd(self) -> int:
        """The gcd of the cycle lengths, which every partition length divides."""
        return math.gcd(*map(len, self.cycles))

    @cached_property
    def _cycle_index(self) -> tuple:
        idx = [0] * self.size
        for i, cyc in enumerate(self.cycles):
            for x in cyc:
                idx[x] = i
        return tuple(idx)

    def _point(self, x: int) -> int:
        """x, if it is a point of the system; else a DomainError."""
        return require_int(x, "point {} out of range", 0, self.size)

    def cycle_of(self, x: int) -> tuple:
        return self.cycles[self._cycle_index[self._point(x)]]

    def apply(self, x: int) -> int:
        return self.forward[self._point(x)]

    def iterate(self, x: int, n: int) -> int:
        """f^n(x) for any integer n (negative means the inverse)."""
        cyc = self.cycle_of(x)
        i = cyc.index(x)
        return cyc[(i + require_int(n, "{!r} is not an integer")) % len(cyc)]

    def __str__(self) -> str:
        return format_cycles(self)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")

# parse_cycles refuses a larger system before it allocates one: `ess` on a
# system of this many points peaks near 0.3 GB (about 130 bytes a point).
MAX_POINTS = 1 << 21


def parse_cycles(text: str, size: int | None = None) -> FinSystem:
    """Parse cycle notation like ``(0 1 2)(3 4)``.

    Whitespace-insensitive; points not mentioned are fixed points, and with
    an explicit size trailing fixed points may be omitted entirely.  A
    system of more than MAX_POINTS points is refused.
    """
    s = text.strip()
    leftover = _CYCLE_RE.sub("", s).strip()
    if leftover:
        raise ParseError(f"unexpected text in cycle notation: {quoted(leftover)}")
    seen = set()
    cycles = []
    max_point = -1
    for group in _CYCLE_RE.findall(s):
        tokens = group.split()
        if not tokens:
            raise ParseError("empty cycle")
        pts = []
        for tok in tokens:
            v = parse_int(tok, "bad point")
            if v < 0:
                raise ParseError("point ids are nonnegative")
            if v in seen:
                raise ParseError(f"point {quoted(v)} appears twice")
            seen.add(v)
            pts.append(v)
            max_point = max(max_point, v)
        cycles.append(pts)
    n = size if size is not None else max_point + 1
    if size is not None and size < max_point + 1:
        raise ParseError("declared size is smaller than the largest point id")
    if size is None and len(seen) != max_point + 1:
        # fixed points may only be left out when the size is explicit
        missing = next(v for v in range(max_point + 1) if v not in seen)
        raise ParseError(f"point {missing} is missing (pass size= to omit fixed points)")
    if n < 1:
        raise ParseError("empty system")
    if n > MAX_POINTS:
        raise ParseError(
            f"a system of {quoted(n)} points is larger than the limit of {MAX_POINTS}"
        )
    fwd = list(range(n))
    for pts in cycles:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            fwd[a] = b
    return FinSystem(tuple(fwd))


def format_cycles(S: FinSystem) -> str:
    return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in S.cycles)


@dataclass(frozen=True)
class Report:
    """The verdict of validate_partition or validate_chain: the problems
    found, in the order they are checked, and ok when there are none."""

    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems


def _step_offsets(system: FinSystem, labels, m: int):
    """The offsets of a labeling (labels[x] for each point x) whose labels
    step by one mod m along every cycle, or None: the step rule
    c(f(x)) = c(x) + 1 mod m.  A cycle then walks through every label, so
    no block is empty."""
    offsets = []
    for c in system.cycles:
        # a run of len(c) labels, which m must divide for the wrap-around
        o = labels[c[0]]
        if [labels[x] for x in c] != [*range(o, m), *range(o)] * (len(c) // m):
            return None
        offsets.append(o)
    return offsets


def _offsets(system: FinSystem, blocks: list):
    """The offsets of a block list (a list of tuples) that is a periodic
    partition of system listing no point twice, or None.

    The block list is read as a labeling, lab[x] the index of the block
    holding x, and accepted when it keeps the step rule (_step_offsets).
    N int ids in 0..N-1 with every point labeled are one block each, and the
    step rule gives f(W_i) within W_{i+1}, so, f being one-to-one, equal.
    """
    n, m = system.size, len(blocks)
    flat = list(itertools.chain.from_iterable(blocks))
    # types and range first: a negative id would write lab[-1]
    if len(flat) != n or set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= n:
        return None
    lab = [m] * n  # a point no block lists keeps m, which is no label
    for j, b in enumerate(blocks):
        for x in b:
            lab[x] = j
    return _step_offsets(system, lab, m)


def _read_blocks(system: FinSystem, blocks):
    """(partition, ()) if a block list from outside is a periodic partition
    of system, else (None, problems).  The step rule (_offsets) accepts a
    partition; only when it fails are the clauses checked one by one
    (_clause_problems), and a list they accept, which lists a point twice
    inside its block, is read again as sets."""
    blocks = list(map(tuple, blocks))
    offsets = _offsets(system, blocks)
    if offsets is None:
        try:
            sets = [frozenset(b) for b in blocks]
        except TypeError:  # an unhashable id, which is no point id
            return None, ("point ids out of range",)
        problems = _clause_problems(system, sets)
        if problems:
            return None, problems
        offsets = _offsets(system, list(map(tuple, sets)))
    return _trusted(system, len(blocks), offsets), ()


def validate_partition(system: FinSystem, blocks) -> Report:
    """The problems of a candidate block list, each naming a clause it breaks:
    "no blocks" and "block i is empty" (the blocks are nonempty), "point ids
    out of range" (each id is an int point; an unhashable id names only
    this), "blocks overlap" (iii), "blocks do not cover the space exactly"
    (iv), then "f(W_i) != W_j", j = i + 1 mod m (ii), checked when every id
    is a point.  Clause (i), clopenness, holds on a finite discrete space."""
    return Report(_read_blocks(system, blocks)[1])


def _clause_problems(system: FinSystem, blocks: list) -> tuple:
    """validate_partition's clause-by-clause check of a list of frozensets."""
    problems = []

    if not blocks:
        problems.append("no blocks")
    for i, b in enumerate(blocks):
        if not b:
            problems.append(f"block {i} is empty")

    n = system.size
    in_range = all(type(x) is int and 0 <= x < n for b in blocks for x in b)
    if not in_range:
        problems.append("point ids out of range")

    total = sum(len(b) for b in blocks)
    union = set().union(*blocks)
    if total != len(union):
        problems.append("blocks overlap")

    if not (in_range and union == set(range(n))):
        problems.append("blocks do not cover the space exactly")

    m = len(blocks)
    if blocks and in_range:
        for i in range(m):
            image = frozenset(map(system.forward.__getitem__, blocks[i]))
            if image != blocks[(i + 1) % m]:
                problems.append(f"f(W_{i}) != W_{(i + 1) % m}")
    return tuple(problems)


@dataclass(frozen=True)
class PeriodicPartition:
    """An ordered periodic partition W_0..W_{m-1}, held as the closed form of
    its labeling: offsets[i] is the index of the block holding
    system.cycles[i][0], and the point t steps further round that cycle is
    in block (offsets[i] + t) mod m.  .labels, .blocks and key() are derived
    on demand, the blocks by one pass over the labels (blocks_json); equality
    is equality of labelings.

    PeriodicPartition(system, length, offsets) checks the fields it stores,
    in O(cycles): the length is an int m >= 1 that divides every cycle
    length, and each cycle has one int offset in range(m).  Block lists from
    outside go through from_blocks.
    """

    system: FinSystem
    length: int
    offsets: tuple

    def __post_init__(self):
        offsets = tuple(self.offsets)
        object.__setattr__(self, "offsets", offsets)
        _require_period(self.system, self.length)
        m, k = self.length, len(self.system.cycles)
        if len(offsets) != k:
            raise DomainError(f"{len(offsets)} offsets for {k} cycles")
        for o in offsets:
            require_int(o, f"offset {{!r}} is not in range({m})", 0, m)

    @classmethod
    def from_blocks(cls, system: FinSystem, blocks) -> PeriodicPartition:
        """The partition with the given ordered block list, checked once
        as validate_partition checks it."""
        P, problems = _read_blocks(system, blocks)
        if problems:
            raise DomainError("not a periodic partition: " + "; ".join(problems))
        return P

    @cached_property
    def labels(self) -> tuple:
        """labels[x] is the index of the block holding x."""
        m = self.length
        flat = []  # the labels of the concatenated cycles
        for cyc, o in zip(self.system.cycles, self.offsets):
            flat += [*range(o, m), *range(o)] * (len(cyc) // m)
        return tuple(map(flat.__getitem__, self.system._position))

    @cached_property
    def blocks(self) -> tuple:
        """The blocks W_0..W_{m-1} as frozensets."""
        return tuple(map(frozenset, blocks_json(self)))

    def index_of(self, x: int) -> int:
        """The index of the block containing x: its cycle's offset plus the
        steps from that cycle's first point."""
        S = self.system
        i = S._cycle_index[S._point(x)]
        return (self.offsets[i] + S._position[x] - S._position[S.cycles[i][0]]) % self.length

    def key(self):
        """The ordered block list with each block ascending: a sortable
        canonical snapshot."""
        return tuple(map(tuple, blocks_json(self)))


def _trusted(system: FinSystem, m: int, offsets) -> PeriodicPartition:
    """The length-m partition with offsets right by construction (each below
    m, every cycle length a multiple of m); no check."""
    P = object.__new__(PeriodicPartition)
    fields = P.__dict__  # written directly, past the frozen __setattr__
    fields["system"], fields["length"], fields["offsets"] = system, m, tuple(offsets)
    return P


def blocks_json(P: PeriodicPartition) -> list:
    """The serialized form: a list of sorted point lists, in block order, new
    on every call.  One pass over the points deals each to the block its
    label names."""
    blocks = [[] for _ in range(P.length)]
    for x, c in enumerate(P.labels):
        blocks[c].append(x)
    return blocks


def trivial_partition(S: FinSystem) -> PeriodicPartition:
    return _trusted(S, 1, (0,) * len(S.cycles))


def canonical_partition(S: FinSystem, m: int) -> PeriodicPartition:
    """The reference length-m partition: each cycle's smallest point in block 0."""
    _require_period(S, m)
    return _trusted(S, m, (0,) * len(S.cycles))


# all_partitions, enumerate_compatible and factors.enumerate_factor_maps
# refuse to list more answers than this, or answers of more than MAX_POINTS
# points in all, counted before they allocate anything; at the limit, sixteen
# 2-cycles, the oracle takes about 4 s and the maps about 1.2 s, each 95 MB.
MAX_ENUMERATION = 1 << 16


def _require_enumerable(count: int, what: str, points: int) -> None:
    """Refuse count answers of `points` points each past either limit."""
    if count > MAX_ENUMERATION:
        raise DomainError(f"the enumeration would list more than {MAX_ENUMERATION} {what}")
    if count * points > MAX_POINTS:
        raise DomainError(f"the enumeration would list more than {MAX_POINTS} points")


def all_partitions(S: FinSystem, m: int, bound: int = 12) -> list:
    """Brute-force enumeration of every length-m partition, canonically sorted.

    This is the oracle the closed-form routes are tested against, so it uses
    nothing but the defining increment rule: labels are propagated point by
    point along each cycle, each point dealt to the block its label names,
    so a labeling becomes its m blocks in one pass.  Every candidate is
    admitted through PeriodicPartition.from_blocks alone, which checks it
    once with validate_partition.

    A cycle whose length m does not divide wraps round for no start label,
    so the answer is then [].  Otherwise every cycle wraps round through
    every block, every one of the m^cycles start labelings is an answer,
    and _require_enumerable refuses that many before the search starts; the
    search is one loop over the start labels, so it takes any number of
    cycles.
    """
    require_int(m, "length must be a positive integer", 1)
    if S.size > bound or m > bound:
        raise DomainError(f"oracle bound {quoted(bound)} exceeded")
    cycles = S.cycles
    if any(len(c) % m for c in cycles):
        return []
    _require_enumerable(m ** len(cycles), "partitions", S.size)
    out = []
    for starts in itertools.product(range(m), repeat=len(cycles)):
        blocks = [[] for _ in range(m)]
        for cyc, c in zip(cycles, starts):
            for x in cyc:
                blocks[c].append(x)
                c = (c + 1) % m
        out.append(PeriodicPartition.from_blocks(S, blocks))
    out.sort(key=PeriodicPartition.key)
    return out


def ess_periods(S: FinSystem):
    """All lengths of periodic partitions, with their joint factorization.

    A labeling restricted to one cycle steps by one around it, so the
    length divides every cycle length; conversely any divisor of their gcd
    admits the per-cycle residue labeling.  The set is therefore the
    divisor set of that gcd.  (The test suite confirms this against the
    all_partitions oracle.)
    """
    g = S.period_gcd
    small = [d for d in range(1, math.isqrt(g) + 1) if g % d == 0]
    return frozenset(small + [g // d for d in small]), phi0(g)


def _require_period(S: FinSystem, m) -> None:
    """Refuse m unless it is a partition length of S: a divisor of the gcd
    of the cycle lengths (see ess_periods)."""
    message = "no partition of length {} exists"
    if S.period_gcd % require_int(m, message, 1):
        raise DomainError(message.format(quoted(m)))


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
    k = require_int(k, "{!r} is not an integer") % m
    if k == 0:
        return P
    return _trusted(P.system, m, [(o - k) % m for o in P.offsets])


def are_equivalent(P1: PeriodicPartition, P2: PeriodicPartition) -> bool:
    """True iff some cyclic reindexing maps one block list onto the other:
    their label offset is constant mod gcd(m, m) = m."""
    offset = constant_label_offset(P1, P2)  # refuses two systems first
    if P1.length != P2.length:
        raise DomainError("partitions have different lengths")
    return offset is not None


def coarsen(P: PeriodicPartition, d: int) -> PeriodicPartition:
    """Merge blocks with indices congruent mod d into a length-d partition."""
    message = f"{{}} does not divide the length {P.length}"
    if P.length % require_int(d, message, 1):
        raise DomainError(message.format(quoted(d)))
    return _trusted(P.system, d, [o % d for o in P.offsets])


def constant_label_offset(P1: PeriodicPartition, P2: PeriodicPartition):
    """The constant value of (c2 - c1) mod gcd(m1, m2), or None.

    The saturation of W1_k ∩ W2_l is exactly the set of points whose label
    difference is l - k mod d, so every saturation being empty-or-everything
    is the same as this difference being constant.  Along a cycle both
    labels step by one, so the difference mod d is that of the offsets.
    """
    if P1.system != P2.system:
        raise DomainError("partitions live on different systems")
    d = math.gcd(P1.length, P2.length)
    diffs = {(b - a) % d for a, b in zip(P1.offsets, P2.offsets)}
    return diffs.pop() if len(diffs) == 1 else None


def are_compatible(P1: PeriodicPartition, P2: PeriodicPartition) -> bool:
    """True iff every saturation A(k,l), the union of the forward images of
    W1_k ∩ W2_l, is empty or the whole space."""
    return constant_label_offset(P1, P2) is not None


def _crt(a: int, m: int, b: int, n: int) -> int:
    """The s in 0..lcm-1 with s = a mod m and s = b mod n, for a and b that
    agree mod gcd(m, n), as every caller's are by construction."""
    g = math.gcd(m, n)
    mg, ng = m // g, n // g
    t = ((b - a) // g * pow(mg, -1, ng)) % ng
    return (a + m * t) % (m * ng)


def lcm_partition(P1: PeriodicPartition, P2: PeriodicPartition) -> PeriodicPartition:
    """The common refinement of a compatible pair, of length lcm(m1, m2).

    Labels are fixed by both congruences relative to point 0, so block 0
    contains the smallest point id.  A step along a cycle adds one to both
    residues and so to the label: the offsets are the CRT solutions.
    """
    delta = constant_label_offset(P1, P2)
    if delta is None:
        raise DomainError("partitions are not compatible")
    m1, m2 = P1.length, P2.length
    r1, r2 = P1.offsets[0], P2.offsets[0]
    offsets = [
        _crt((a - r1) % m1, m1, (b - r2) % m2, m2)
        for a, b in zip(P1.offsets, P2.offsets)
    ]
    return _trusted(P1.system, math.lcm(m1, m2), offsets)


def make_compatible(P1: PeriodicPartition, m2: int) -> PeriodicPartition:
    """A deterministic length-m2 partition compatible with P1.

    Constructive route: take the reference length-m2 partition, keep the
    zero-step slices W1_0 ∩ ref_j of the nonempty saturations A(0, j)
    (scanning j ascending, all shift parameters zero), push their union
    forward to a partition of length lcm, and fold it back mod m2.

    On a cycle whose first point has P1-label a, the point u steps further
    on lies in that union iff u = -a mod m1 and u mod m2 = -a mod gcd, that
    is iff u = t mod lcm for the CRT solution t; the fold then gives it the
    label (u - t) mod m2, so the cycle's offset is -t mod m2.
    """
    S = P1.system
    _require_period(S, m2)
    m1 = P1.length
    d = math.gcd(m1, m2)
    return _trusted(
        S, m2, [-_crt(-a % m1, m1, -a % d, m2) % m2 for a in P1.offsets]
    )


def _compatible_candidates(S: FinSystem, anchors, m1: int, m2: int):
    """Yield, for each anchor (a length-m1 partition's offsets), the (partition,
    class id) pairs of every compatible length-m2 partition in canonical
    order, and the class representatives by id.  The first offset s ranges
    freely and cycle i's offset o then has o - s = r_i mod d = gcd(m1, m2),
    r_i = (a_i - a_1) mod d: an anchor acts only through its residue key
    (r_2, ..., r_k), so each key's list is built once and shared.  For each
    s, cycle i's u-th choice is the offset that shifts to r_i + d*u at s = 0,
    so a candidate's position in its product is its class: ids number the
    positions by first appearance, and the s = 0 candidates are the
    representatives, each its class shifted to first offset 0.

    The canonical order (by key()) is decided by block 0, and offset o puts
    cycle i's points cycles[i][-o % m2::m2] there, each offset its own.  So
    two candidates' blocks 0 differ exactly on the cycles whose offsets
    differ, and ascending equal-size sets compare by the least point of
    their symmetric difference: the same order as the sorted least block-0
    points of the cycles, low[i][o], compare in.
    """
    d = math.gcd(m1, m2)
    low = [[min(c[-o % m2::m2]) for o in range(m2)] for c in S.cycles]
    ring = (*range(m2), *range(m2))  # ring[t:t + m2:d] is (t + d*u) mod m2, u ascending
    memo = {}
    for anchor in anchors:
        key = tuple([(a - anchor[0]) % d for a in anchor[1:]])
        if key not in memo:
            found, residues = [], set(key)
            for s in range(m2):
                turned = {r: ring[s + r:s + r + m2:d] for r in residues}
                found += itertools.product((s,), *map(turned.__getitem__, key))
            parts = [_trusted(S, m2, offs) for offs in found]
            sort_keys = [sorted(map(list.__getitem__, low, offs)) for offs in found]
            n, ids = len(found) // m2, {}  # n classes, found[j] in class j % n
            order = sorted(range(len(found)), key=sort_keys.__getitem__)
            tagged = [(parts[j], ids.setdefault(j % n, len(ids))) for j in order]
            memo[key] = tagged, [parts[j] for j in ids]  # ids lists the classes by id
        yield memo[key]


def enumerate_compatible(P1: PeriodicPartition, m2: int) -> list:
    """Every length-m2 partition compatible with P1, as (partition, class_id)
    pairs in canonical order; two share a class id iff they are cyclic shifts
    of each other (their offsets agree once the first is shifted to 0), and
    ids count up by first appearance.  More than MAX_ENUMERATION, m2 *
    (m2/d)^(k-1) on k cycles with d = gcd(m1, m2), or more than MAX_POINTS
    points in all, are refused."""
    S = P1.system
    _require_period(S, m2)
    count = m2 * (m2 // math.gcd(P1.length, m2)) ** (len(S.cycles) - 1)
    _require_enumerable(count, "partitions", S.size)
    return next(_compatible_candidates(S, [P1.offsets], P1.length, m2))[0]


def is_indecomposable(S: FinSystem) -> bool:
    """No splitting into two nonempty invariant parts: a single cycle."""
    return len(S.cycles) == 1


@dataclass(frozen=True)
class PartitionChain:
    """Partitions of lengths n1 | n2 | ... | nL, consecutive levels compatible.

    Compatibility plus divisibility makes each level a blockwise refinement
    of the one before (see refines), and pairwise compatibility of all
    levels follows; validate_chain reports those derived facts, and the
    first problem it names is the constructor's refusal.
    """

    partitions: tuple = ()

    def __post_init__(self):
        parts = tuple(self.partitions)
        object.__setattr__(self, "partitions", parts)
        if not parts:
            raise DomainError("a chain needs at least one level")
        if any(P.system != parts[0].system for P in parts):
            raise DomainError("chain mixes systems")
        problems = _chain_report(parts).problems
        if problems:
            raise DomainError(problems[0])

    @property
    def system(self) -> FinSystem:
        return self.partitions[0].system

    @property
    def lengths(self) -> tuple:
        return tuple(P.length for P in self.partitions)


def _trusted_chain(parts) -> PartitionChain:
    """The chain of levels whose lengths divide and whose consecutive levels
    are compatible by construction; no check."""
    C = object.__new__(PartitionChain)
    C.__dict__["partitions"] = tuple(parts)
    return C


def refines(fine: PeriodicPartition, coarse: PeriodicPartition) -> bool:
    """Whether every block of fine lies inside one block of coarse.

    Block indices then map Z/fine.length onto Z/coarse.length stepping by
    one, so the coarse length divides the fine one and the label difference
    is constant mod the coarse length; conversely those two give the map.
    """
    return fine.length % coarse.length == 0 and are_compatible(fine, coarse)


def validate_chain(system: FinSystem, levels) -> Report:
    """Check a raw list of block lists against every chain invariant."""
    read = [_read_blocks(system, blocks) for blocks in levels]  # an iterator too
    if not read:
        return Report(("empty chain",))
    problems = [f"level {i}: " + "; ".join(p) for i, (_, p) in enumerate(read) if p]
    return Report(tuple(problems)) if problems else _chain_report([P for P, _ in read])


def _chain_report(parts) -> Report:
    """validate_chain's report on levels that are partitions of one system."""
    pairs = list(zip(parts, parts[1:]))
    problems = [f"{A.length} does not divide {B.length}" for A, B in pairs if B.length % A.length]
    divides = not problems
    # with the lengths dividing, B refines A blockwise exactly when the pair
    # is compatible (see refines): one test serves both checks
    incompatible = [i for i, (A, B) in enumerate(pairs) if not are_compatible(A, B)]
    problems += [f"levels {i} and {i + 1} are incompatible" for i in incompatible]
    # the consecutive pairs are listed above; only the others are left
    distant = [
        (i, j) for i in range(len(parts)) for j in range(i + 2, len(parts))
        if not are_compatible(parts[i], parts[j])
    ]
    problems += [f"levels {i} and {j} are incompatible" for i, j in distant]
    if divides:
        problems += [f"level {i + 1} does not refine level {i} blockwise" for i in incompatible]
    return Report(tuple(problems))


def build_chain(S: FinSystem, lengths) -> PartitionChain:
    """A deterministic chain with the given lengths, by iterated make_compatible
    (which gives back an equal level for a repeated length: that one is reused)."""
    parts = []
    prev = trivial_partition(S)
    for n in _period_base(S, lengths).levels:
        if n != prev.length:
            prev = make_compatible(prev, n)
        parts.append(prev)
    return _trusted_chain(parts)


def extend_chain(chain: PartitionChain, m: int) -> PartitionChain:
    """Insert a length-m level into the chain's divisibility ladder.

    A length already present returns the chain unchanged.  New finest
    levels are built with make_compatible; a level that fits before level j
    (j = 0, or the level before it divides m) coarsens level j, which stays
    compatible with both neighbours.
    """
    require_int(m, "length must be a positive integer", 1)
    lengths, parts = chain.lengths, chain.partitions
    if m in lengths:
        return chain
    _require_period(chain.system, m)
    if m % lengths[-1] == 0:
        return _trusted_chain(parts + (make_compatible(parts[-1], m),))
    for j, n in enumerate(lengths):
        if n % m == 0 and (j == 0 or m % lengths[j - 1] == 0):
            return _trusted_chain(parts[:j] + (coarsen(parts[j], m),) + parts[j:])
    raise DomainError(f"{m} does not fit the chain's divisibility ladder")


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
    cyc = S.cycle_of(x)
    if x not in U:
        raise DomainError("the set must contain the base point")
    L = len(cyc)
    i = cyc.index(x)
    walk = cyc[i:] + cyc[:i]  # walk[u] = f^u(x)
    # the f^n-orbit of x is its f^gcd(n, L)-orbit, so the least n is a
    # divisor of L, and n = L (the orbit {x}) always qualifies
    m = next(
        n for n in range(1, L + 1)
        if L % n == 0 and all(y in U for y in walk[::n])
    )
    # T's one cycle starts at the smallest point, cyc[0], which lies L - i
    # steps after x
    T, _ = cycle_subsystem(S, x)
    return m, _trusted(T, m, ((L - i) % m,))
