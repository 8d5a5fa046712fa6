"""Factor maps from finite systems onto odometer truncations.

A partition chain with lengths n1 | ... | nL labels every point by the
index vector of the blocks containing it; once the chain is coherent (all
zero blocks share a point) those vectors are coherent residue vectors and
the labeling intertwines f with the odometer translation.  A FactorMap is
the pair (source, chain) of such a coherent chain.  Coherence makes every
level's label the finest label mod its length, so the label vectors are
derived from the chain, the fibers are the blocks of the finest level, and
the family of all such maps is ordered by refinement of those blocks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from . import dynsys
from .dynsys import (
    FinSystem,
    PartitionChain,
    constant_label_offset,
    cyclic_shift,
    refines,
    trivial_partition,
)
from .errors import DomainError
from .odometer import AdicInt, BaseSequence, ess_of_odometer
from .supernatural import (
    INF,
    Supernatural,
    extract_regular_sequence,
    format_supernatural,
    leq,
    phi0,
)


def sigma_of_system(S: FinSystem) -> Supernatural:
    """The top of the odometer sizes S projects onto: those are exactly the
    N with leq(N, sigma_of_system(S))."""
    return phi0(S.period_gcd)


def projection_exists(S: FinSystem, base: BaseSequence) -> bool:
    """Order criterion: the target's factorization is below the system's."""
    return leq(ess_of_odometer(base), sigma_of_system(S))


def normalize_coherent(chain: PartitionChain, x: int) -> PartitionChain:
    """Shift every level so x lies in block 0; a no-op if it already does."""
    shifts = [P.index_of(x) for P in chain.partitions]
    if not any(shifts):
        return chain
    return dynsys._trusted_chain(cyclic_shift(P, s) for P, s in zip(chain.partitions, shifts))


def _is_coherent(chain: PartitionChain) -> bool:
    """Whether the zero blocks share a point: every consecutive label offset is 0."""
    parts = chain.partitions
    return not any(constant_label_offset(A, B) for A, B in zip(parts, parts[1:]))


@dataclass(frozen=True)
class FactorMap:
    """The map a coherent chain defines on the source: x goes to the vector
    of the blocks holding it, one per level.  A chain on another system, or
    one that is not coherent, is refused (build_factor_map normalizes it)."""

    source: FinSystem
    chain: PartitionChain

    def __post_init__(self):
        if self.chain.system != self.source:
            raise DomainError("chain belongs to a different system")
        if not _is_coherent(self.chain):
            raise DomainError("the chain is not coherent: its zero blocks share no point")

    @cached_property
    def target(self) -> BaseSequence:
        return BaseSequence(self.chain.lengths)

    @cached_property
    def labels(self) -> tuple:
        """labels[x] is the coherent index vector of x, read off its finest label."""
        vectors = _vectors(self.chain.lengths)
        return tuple(map(vectors.__getitem__, self.chain.partitions[-1].labels))

    def label(self, x: int) -> AdicInt:
        """The image of x as a point of the target odometer."""
        return AdicInt(self.target, self.labels[x])


def _vectors(lengths) -> list:
    """vectors[c] = (c % n_1, ..., c % n_L), the coherent vector of the points
    whose finest label is c, built column by column (the last is c itself)."""
    n = lengths[-1]
    return list(zip(*[[c % m for c in range(n)] for m in lengths[:-1]], range(n)))


def _vector_order(lengths) -> list:
    """range(n_L) in the order of the coherent vectors: each residue mod one
    level is followed by its lifts mod the next, a mixed-radix digit reversal
    built level by level with no sort."""
    order, prev = [0], 1
    for n in lengths:
        order = [c for a in order for c in range(a, n, prev)]
        prev = n
    return order


def build_factor_map(S: FinSystem, chain: PartitionChain) -> FactorMap:
    """Label points by their block indices after coherent normalization.

    A chain that is already coherent at some point is used as-is; otherwise
    it is normalized at point 0.
    """
    if not _is_coherent(chain):
        chain = normalize_coherent(chain, 0)
    return FactorMap(S, chain)


def fiber(F: FactorMap, vec) -> frozenset:
    """The preimage of a coherent label vector."""
    if isinstance(vec, AdicInt):
        if vec.base != F.target:
            raise DomainError("label vector has a different base")
        residues = vec.residues
    else:
        residues = AdicInt(F.target, tuple(vec)).residues
    # a coherent vector is fixed by its last residue, the finest label
    return F.chain.partitions[-1].blocks[residues[-1]]


class Comparison(enum.Enum):
    EQUIVALENT = "equivalent"
    SECOND_FACTORS_THROUGH_FIRST = "f2-factors-through-f1"
    FIRST_FACTORS_THROUGH_SECOND = "f1-factors-through-f2"
    INCOMPARABLE = "incomparable"


def compare_projections(F1: FactorMap, F2: FactorMap) -> Comparison:
    """Order two maps on the same source by mutual fiber refinement.

    One map factors through another exactly when the other's fibers, the
    blocks of its finest level, refine its own; mutual refinement means the
    maps are equivalent.
    """
    if F1.source != F2.source:
        raise DomainError("factor maps have different sources")
    P1, P2 = F1.chain.partitions[-1], F2.chain.partitions[-1]
    r12 = refines(P1, P2)
    r21 = refines(P2, P1)
    if r12 and r21:
        return Comparison.EQUIVALENT
    if r12:
        return Comparison.SECOND_FACTORS_THROUGH_FIRST
    if r21:
        return Comparison.FIRST_FACTORS_THROUGH_SECOND
    return Comparison.INCOMPARABLE


def is_maximal_projection(F: FactorMap) -> bool:
    """Whether the target realizes the system's full factorization.

    Maximality is relative to the declared working depth: a depth-L chain
    can only exhibit n_L, so this asks whether n_L attains the top of the
    system's sigma order (on finite systems the top is an ordinary integer,
    so finite depth genuinely decides it).
    """
    return ess_of_odometer(F.target) == sigma_of_system(F.source)


def max_odometer_factor(S: FinSystem, depth: int | None = None):
    """The canonical maximal projection at the given (or derived) depth.

    The default depth — number of support primes plus the largest exponent
    of the top value — is exactly enough for the extracted chain to reach
    the top, so the result is maximal.
    """
    top = sigma_of_system(S)
    if depth is None:
        exps = [e for _, e in top.exps if e is not INF]
        depth = max(1, len(top.exps) + (max(exps) if exps else 0))
    seq = extract_regular_sequence(top, depth)
    chain = dynsys.build_chain(S, seq)
    return seq, build_factor_map(S, chain)


def enumerate_factor_maps(S: FinSystem, lengths) -> list:
    """All factor maps over chains with the given lengths, in classes.

    Chains grow level by level through dynsys._compatible_candidates, from
    the trivial partition, carrying their levels, the levels' class
    representatives (first offset 0) and whether they are coherent so far;
    one that is not is normalized at point 0 to its representatives, as in
    build_factor_map.  A coherent chain is fixed by its finest level, so
    each distinct chain is built into a map once, and a map that recurs is
    that same object.  Classes are equal fibers: equal finest
    representatives.  More than dynsys.MAX_ENUMERATION maps, prod(lengths) *
    n_L^(k-1) on k cycles, or dynsys.MAX_POINTS points in all, are refused.
    """
    levels = dynsys._period_base(S, lengths).levels
    count = math.prod(levels) * levels[-1] ** (len(S.cycles) - 1)
    dynsys._require_enumerable(count, "factor maps", S.size)
    chains, prev = [((trivial_partition(S),), (), True)], 1  # the seed is dropped at the end
    for m in levels:
        found = dynsys._compatible_candidates(S, [raw[-1].offsets for raw, _, _ in chains], prev, m)
        chains, prev = [
            (raw + (P,), norm + (reps[c],), ok and not (P.offsets[0] - raw[-1].offsets[0]) % prev)
            for (raw, norm, ok), (tagged, reps) in zip(chains, found) for P, c in tagged
        ], m
    classes, maps = {}, {}  # maps: one per distinct chain, keyed by its finest level
    for raw, norm, ok in chains:
        parts = raw[1:] if ok else norm
        F = maps.get(id(parts[-1]))
        if F is None:
            F = maps[id(parts[-1])] = object.__new__(FactorMap)  # coherent by construction
            F.__dict__.update(source=S, chain=dynsys._trusted_chain(parts))
        classes.setdefault(id(norm[-1]), []).append(F)
    return list(classes.values())


def singleton_fiber_set(F: FactorMap) -> frozenset:
    """The points over which the map is one-to-one: every fiber is a finest
    block, of size/n_L points, so all of them or none."""
    one_to_one = F.chain.lengths[-1] == F.source.size
    return frozenset(range(F.source.size)) if one_to_one else frozenset()


def almost_periodic_points(S: FinSystem) -> frozenset:
    """Every point of a finite permutation returns to itself, so all points."""
    return frozenset(range(S.size))


def factor_report(F: FactorMap) -> dict:
    """The JSON-ready report with a stable key and element order: the fibers,
    the finest blocks, in the order of their label vectors."""
    lengths = F.chain.lengths
    finest = F.chain.partitions[-1]
    vectors = _vectors(lengths)
    blocks = dynsys.blocks_json(finest)
    return {
        "target_levels": list(lengths),
        "labels": {str(x): list(vectors[c]) for x, c in enumerate(finest.labels)},
        "fibers": [blocks[c] for c in _vector_order(lengths)],
        "maximal": is_maximal_projection(F),
        "sigma_top": format_supernatural(sigma_of_system(F.source)),
    }
