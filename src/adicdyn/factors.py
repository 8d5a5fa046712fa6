"""Factor maps from finite systems onto odometer truncations.

A partition chain with lengths n1 | ... | nL labels every point by the
index vector of the blocks containing it; once the chain is coherent (all
zero blocks share a point) those vectors are coherent residue vectors and
the labeling intertwines f with the odometer translation.  Fibers are the
label preimages, and the family of all such maps is ordered by mutual
fiber refinement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import dynsys
from .dynsys import (
    FinSystem,
    PartitionChain,
    cyclic_shift,
    ess_periods,
    refines,
    trivial_partition,
)
from .errors import DomainError
from .odometer import AdicInt, BaseSequence, ess_of_odometer
from .supernatural import (
    INF,
    RegularSeq,
    Supernatural,
    extract_regular_sequence,
    format_supernatural,
    leq,
)


def sigma_of_system(S: FinSystem) -> Supernatural:
    """The top of the odometer sizes S projects onto: those are exactly the
    N with leq(N, sigma_of_system(S))."""
    _, phi = ess_periods(S)
    return phi


def projection_exists(S: FinSystem, base: BaseSequence) -> bool:
    """Order criterion: the target's factorization is below the system's."""
    return leq(ess_of_odometer(base), sigma_of_system(S))


def normalize_coherent(chain: PartitionChain, x: int) -> PartitionChain:
    """Shift every level so x lies in block 0; a no-op if it already does."""
    if not 0 <= x < chain.system.size:
        raise DomainError(f"point {x} out of range")
    shifts = [P.index_of(x) for P in chain.partitions]
    if not any(shifts):
        return chain
    return PartitionChain(
        tuple(cyclic_shift(P, s) for P, s in zip(chain.partitions, shifts))
    )


@dataclass(frozen=True)
class FactorMap:
    """A labeling of source points by coherent index vectors over the chain."""

    source: FinSystem
    chain: PartitionChain
    labels: tuple = ()

    @property
    def target(self) -> BaseSequence:
        return BaseSequence(self.chain.lengths)

    def label(self, x: int) -> AdicInt:
        """The image of x as a point of the target odometer."""
        return AdicInt(self.target, self.labels[x])


def build_factor_map(S: FinSystem, chain: PartitionChain) -> FactorMap:
    """Label points by their block indices after coherent normalization.

    A chain that is already coherent at some point is used as-is; otherwise
    it is normalized at point 0.
    """
    if chain.system != S:
        raise DomainError("chain belongs to a different system")
    labels = tuple(zip(*(P.labels for P in chain.partitions)))
    # the vectors are coherent once the zero blocks share a point: each
    # level refines the one before and agrees with it at that point
    if (0,) * len(chain.partitions) not in labels:
        chain = normalize_coherent(chain, 0)
        labels = tuple(zip(*(P.labels for P in chain.partitions)))
    return FactorMap(S, chain, labels)


def fiber(F: FactorMap, vec) -> frozenset:
    """The preimage of a coherent label vector."""
    if isinstance(vec, AdicInt):
        if vec.base != F.target:
            raise DomainError("label vector has a different base")
        residues = vec.residues
    else:
        residues = AdicInt(F.target, tuple(vec)).residues
    return frozenset(x for x in range(F.source.size) if F.labels[x] == residues)


def _fibers(F: FactorMap) -> dict:
    """Label vector -> the ascending points carrying it, keyed in order of
    first appearance."""
    groups = {}
    for x, lab in enumerate(F.labels):
        groups.setdefault(lab, []).append(x)
    return groups


def fiber_partition(F: FactorMap) -> frozenset:
    """The zer-partition: points grouped by label."""
    return frozenset(map(frozenset, _fibers(F).values()))


class Comparison(enum.Enum):
    EQUIVALENT = "equivalent"
    SECOND_FACTORS_THROUGH_FIRST = "f2-factors-through-f1"
    FIRST_FACTORS_THROUGH_SECOND = "f1-factors-through-f2"
    INCOMPARABLE = "incomparable"


def compare_projections(F1: FactorMap, F2: FactorMap) -> Comparison:
    """Order two maps on the same source by mutual fiber refinement.

    One map factors through another exactly when the other's fibers refine
    its own; mutual refinement means the maps are equivalent.
    """
    if F1.source != F2.source:
        raise DomainError("factor maps have different sources")
    r12 = refines(F1.labels, F2.labels)
    r21 = refines(F2.labels, F1.labels)
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
    if not isinstance(depth, int) or depth < 1:
        raise DomainError("depth must be a positive integer")
    seq = extract_regular_sequence(top, depth)
    chain = dynsys.build_chain(S, seq)
    return BaseSequence(seq.terms), build_factor_map(S, chain)


def enumerate_factor_maps(S: FinSystem, lengths) -> list:
    """All factor maps over chains with the given lengths, in classes.

    Chains are enumerated level by level through enumerate_compatible
    (seeded at the trivial partition, so the first level ranges over every
    partition of its length); maps are grouped by mutual factorization,
    that is by equal fibers.  Returns a list of equivalence classes, each a
    list of FactorMaps.
    """
    seq = lengths if isinstance(lengths, RegularSeq) else RegularSeq(tuple(lengths))
    periods, _ = ess_periods(S)
    for n in seq.terms:
        if n not in periods:
            raise DomainError(f"no partition of length {n} exists")
    prefixes = [()]
    for n in seq.terms:
        nxt = []
        for pref in prefixes:
            prev = pref[-1] if pref else trivial_partition(S)
            for Q, _cid in dynsys.enumerate_compatible(prev, n):
                nxt.append(pref + (Q,))
        prefixes = nxt
    classes = {}
    for pref in prefixes:
        F = build_factor_map(S, PartitionChain(pref))
        classes.setdefault(tuple(map(tuple, _fibers(F).values())), []).append(F)
    return list(classes.values())


def singleton_fiber_set(F: FactorMap) -> frozenset:
    """The points over which the map is one-to-one."""
    return frozenset(g[0] for g in _fibers(F).values() if len(g) == 1)


def almost_periodic_points(S: FinSystem) -> frozenset:
    """Every point of a finite permutation returns to itself, so all points."""
    return frozenset(range(S.size))


def factor_report(F: FactorMap) -> dict:
    """The JSON-ready report with a stable key and element order."""
    groups = _fibers(F)
    return {
        "target_levels": list(F.chain.lengths),
        "labels": {str(x): list(F.labels[x]) for x in range(F.source.size)},
        "fibers": [groups[lab] for lab in sorted(groups)],
        "maximal": is_maximal_projection(F),
        "sigma_top": format_supernatural(sigma_of_system(F.source)),
    }
