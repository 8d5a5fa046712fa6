"""Factor maps onto odometers: fibers, ordering, maximality, uniqueness."""

import dataclasses
import itertools
import json
import math
from collections import Counter

import pytest

from adicdyn import (
    BaseSequence,
    Comparison,
    DomainError,
    FactorMap,
    PartitionChain,
    PeriodicPartition,
    all_partitions,
    almost_periodic_points,
    are_compatible,
    are_equivalent,
    build_chain,
    build_factor_map,
    canonical_partition,
    compare_projections,
    cyclic_shift,
    enumerate_compatible,
    enumerate_factor_maps,
    ess_of_odometer,
    extract_regular_sequence,
    ess_periods,
    factor_report,
    fiber,
    from_integer,
    is_indecomposable,
    is_maximal_projection,
    leq,
    make_compatible,
    max_odometer_factor,
    normalize_coherent,
    phi0,
    projection_exists,
    sigma_of_system,
    singleton_fiber_set,
    translate,
    trivial_partition,
    truncate,
)
from adicdyn import dynsys, factors
from adicdyn.dynsys import blocks_json

import helpers
from helpers import chains_compatible, fiber_partition, seq_dominates


def chain_of(S, lengths):
    return build_chain(S, lengths)


def refines(fine, coarse):
    return all(any(a <= b for b in coarse) for a in fine)


# ------------------------------------------------------------- coherence


def test_normalize_keeps_coherent_chain():
    S = helpers.system_of_type((12,))
    chain = chain_of(S, [2, 4, 12])
    assert normalize_coherent(chain, 0) == chain


def test_normalize_anchors_every_level():
    S = helpers.system_of_type((12,))
    chain = normalize_coherent(chain_of(S, [2, 4, 12]), 5)
    for Q in chain.partitions:
        assert 5 in Q.blocks[0]


def test_normalize_is_levelwise_equivalent():
    S = helpers.system_of_type((12,))
    chain = chain_of(S, [2, 4, 12])
    moved = normalize_coherent(chain, 7)
    for Qa, Qb in zip(chain.partitions, moved.partitions):
        assert are_equivalent(Qa, Qb)


# ------------------------------------------------------------- building


def test_trivial_chain_gives_constant_map():
    S = helpers.system_of_type((2,))
    F = build_factor_map(S, chain_of(S, [1]))
    assert F.target == BaseSequence((1,))
    assert all(F.labels[x] == (0,) for x in range(S.size))


def test_twelve_cycle_full_depth_is_bijective():
    S = helpers.system_of_type((12,))
    F = build_factor_map(S, chain_of(S, [2, 4, 12]))
    assert len(set(F.labels)) == 12


def test_two_four_cycles_fibers_of_two():
    S = helpers.system_of_type((4, 4))
    F = build_factor_map(S, chain_of(S, [2, 4]))
    assert sorted(len(f) for f in fiber_partition(F)) == [2, 2, 2, 2]


def test_incoherent_chain_is_normalized_at_smallest_point():
    S = helpers.system_of_type((12,))
    P2 = canonical_partition(S, 2)
    P4 = cyclic_shift(canonical_partition(S, 4), 1)
    chain = PartitionChain((P2, P4))  # valid but block-0s do not meet
    F = build_factor_map(S, chain)
    assert F.labels[0] == (0, 0)


def test_factor_map_refuses_a_chain_it_cannot_read():
    # FactorMap(source, chain) once took any chain: an incoherent one gave
    # point 0 the label (1, 3) though it lies in block 0 of the length-2
    # level, and one on another system gave 8 labels for a 2-point source
    S = dynsys.parse_cycles("(0 1 2 3)(4 5 6 7)")
    P2 = canonical_partition(S, 2)
    chain = PartitionChain((P2, cyclic_shift(make_compatible(P2, 4), 1)))
    assert dynsys.validate_chain(S, [blocks_json(P) for P in chain.partitions]).ok
    with pytest.raises(DomainError, match="not coherent"):
        FactorMap(S, chain)
    two = dynsys.parse_cycles("(0 1)")
    for make in (FactorMap, build_factor_map):
        with pytest.raises(DomainError, match="chain belongs to a different system"):
            make(two, chain)
    F = build_factor_map(S, chain)
    assert F.labels[0] == (0, 0) and FactorMap(S, F.chain) == F
    # the maps the enumeration builds unchecked pass the check
    for cls in enumerate_factor_maps(S, [2, 4]):
        assert all(FactorMap(S, G.chain) == G for G in cls)


def test_label_is_an_adic_int():
    S = helpers.system_of_type((12,))
    F = build_factor_map(S, chain_of(S, [2, 4]))
    x = F.label(3)
    assert x.base == F.target
    assert x.residues == F.labels[3]


def test_target_is_built_once_per_map():
    S = helpers.system_of_type((12,))
    F = build_factor_map(S, chain_of(S, [2, 4]))
    assert F.label(3).base is F.label(5).base is F.target


def test_equivariance_over_a_corpus():
    for parts in helpers.all_cycle_types(8):
        S = helpers.system_of_type(parts)
        g = max(ess_periods(S)[0])
        for chain_lengths in [(g,), helpers.saturated_chains(g)[0]]:
            F = build_factor_map(S, chain_of(S, list(chain_lengths)))
            for x in range(S.size):
                assert F.label(S.apply(x)) == translate(F.label(x))


# ------------------------------------------------------------- fibers


def test_fiber_of_constant_map_is_everything():
    S = helpers.system_of_type((2,))
    F = build_factor_map(S, chain_of(S, [1]))
    assert fiber(F, (0,)) == frozenset({0, 1})


def test_singleton_fibers_on_faithful_map():
    S = helpers.system_of_type((12,))
    F = build_factor_map(S, chain_of(S, [2, 4, 12]))
    for x in range(12):
        assert fiber(F, F.labels[x]) == frozenset({x})


def test_fibers_partition_the_source():
    S = helpers.system_of_type((4, 4, 2))
    F = build_factor_map(S, chain_of(S, [2, 2]))
    blocks = fiber_partition(F)
    assert frozenset().union(*blocks) == frozenset(range(S.size))
    total = sum(len(b) for b in blocks)
    assert total == S.size


def test_fiber_rejects_incoherent_vector():
    S = helpers.system_of_type((12,))
    F = build_factor_map(S, chain_of(S, [2, 4]))
    with pytest.raises(DomainError):
        fiber(F, (1, 2))


def test_fiber_accepts_adic_int():
    S = helpers.system_of_type((12,))
    F = build_factor_map(S, chain_of(S, [2, 4]))
    assert fiber(F, from_integer(F.target, 1)) == fiber(F, (1, 1))
    with pytest.raises(DomainError, match="label vector has a different base"):
        fiber(F, from_integer(BaseSequence((2, 6)), 1))


# ------------------------------------------------------------- existence


def test_sigma_membership():
    S = helpers.system_of_type((12,))
    sigma = sigma_of_system(S)
    assert leq(phi0(4), sigma)
    assert not leq(phi0(5), sigma)
    assert leq(phi0(1), sigma)


def test_projection_exists_examples():
    S = helpers.system_of_type((12,))
    assert projection_exists(S, BaseSequence((2, 4)))
    assert not projection_exists(S, BaseSequence((5,)))
    # the oracle agrees that no length-5 partition exists
    assert all_partitions(S, 5) == []
    assert projection_exists(S, BaseSequence((1,)))


def test_projection_exists_matches_chain_construction():
    for parts in [(6,), (4, 2), (3, 3), (5, 10)]:
        S = helpers.system_of_type(parts)
        for levels in helpers.strict_divisor_chains(8):
            ok = projection_exists(S, BaseSequence(levels))
            try:
                build_factor_map(S, chain_of(S, list(levels)))
                built = True
            except DomainError:
                built = False
            assert ok == built, (parts, levels)


# ------------------------------------------------------------- comparison


def test_compare_self():
    S = helpers.system_of_type((12,))
    F = build_factor_map(S, chain_of(S, [2, 4]))
    assert compare_projections(F, F) is Comparison.EQUIVALENT


def test_deeper_map_factors_the_shallower():
    S = helpers.system_of_type((12,))
    shallow = build_factor_map(S, chain_of(S, [2, 4]))
    deep = build_factor_map(S, chain_of(S, [2, 4, 12]))
    assert compare_projections(deep, shallow) is Comparison.SECOND_FACTORS_THROUGH_FIRST
    assert compare_projections(shallow, deep) is Comparison.FIRST_FACTORS_THROUGH_SECOND


def test_phase_pair_is_incomparable():
    S = helpers.system_of_type((4, 4))
    P1 = make_compatible(trivial_partition(S), 2)
    by_class = {}
    for Q, cid in enumerate_compatible(P1, 4):
        by_class.setdefault(cid, Q)
    Qa, Qb = by_class[0], by_class[1]
    Fa = build_factor_map(S, PartitionChain((P1, Qa)))
    Fb = build_factor_map(S, PartitionChain((P1, Qb)))
    assert compare_projections(Fa, Fb) is Comparison.INCOMPARABLE


def test_compare_requires_same_source():
    Sa = helpers.system_of_type((4,))
    Sb = helpers.system_of_type((2, 2))
    Fa = build_factor_map(Sa, chain_of(Sa, [2]))
    Fb = build_factor_map(Sb, chain_of(Sb, [2]))
    with pytest.raises(DomainError):
        compare_projections(Fa, Fb)


def test_order_implies_target_ess_order():
    S = helpers.system_of_type((12,))
    maps = [
        build_factor_map(S, chain_of(S, lengths))
        for lengths in ([1], [2], [2, 4], [3], [2, 6], [2, 4, 12], [3, 12])
    ]
    for F1, F2 in itertools.product(maps, repeat=2):
        rel = compare_projections(F1, F2)
        e1 = ess_of_odometer(F1.target)
        e2 = ess_of_odometer(F2.target)
        if rel is Comparison.SECOND_FACTORS_THROUGH_FIRST:
            assert leq(e2, e1)
        elif rel is Comparison.FIRST_FACTORS_THROUGH_SECOND:
            assert leq(e1, e2)
        elif rel is Comparison.EQUIVALENT:
            assert e1 == e2


def test_refinement_iff_compatible_and_dominating():
    # two chains on one system: fibers of the first refine fibers of the
    # second exactly when the chains are compatible and the second's
    # lengths all divide into the first's
    S = helpers.system_of_type((4, 4))
    P2 = make_compatible(trivial_partition(S), 2)
    chains = [chain_of(S, [1]), chain_of(S, [2]), chain_of(S, [2, 4]), chain_of(S, [4])]
    for Q, _ in enumerate_compatible(P2, 4):
        chains.append(PartitionChain((P2, Q)))
    for c1, c2 in itertools.product(chains, repeat=2):
        F1 = build_factor_map(S, c1)
        F2 = build_factor_map(S, c2)
        lhs = refines(fiber_partition(F1), fiber_partition(F2))
        rhs = chains_compatible(c1, c2) and seq_dominates(
            BaseSequence(c2.lengths), BaseSequence(c1.lengths)
        )
        assert lhs == rhs, (c1.lengths, c2.lengths)


def test_incompatible_chains_have_non_nested_fibers():
    S = helpers.system_of_type((4, 4))
    P2 = make_compatible(trivial_partition(S), 2)
    reps = {}
    for Q, cid in enumerate_compatible(P2, 4):
        reps.setdefault(cid, Q)
    c1 = PartitionChain((P2, reps[0]))
    c2 = PartitionChain((P2, reps[1]))
    assert not chains_compatible(c1, c2)
    F1, F2 = build_factor_map(S, c1), build_factor_map(S, c2)
    for x in range(S.size):
        b1 = fiber(F1, F1.labels[x])
        b2 = fiber(F2, F2.labels[x])
        assert not (b1 <= b2) and not (b2 <= b1)


# ------------------------------------------------------------- maximality


def test_maximal_iff_target_realizes_top():
    S = helpers.system_of_type((12,))
    assert is_maximal_projection(build_factor_map(S, chain_of(S, [2, 4, 12])))
    assert not is_maximal_projection(build_factor_map(S, chain_of(S, [2, 4])))


def test_one_point_system_trivial_map_is_maximal():
    S = helpers.system_of_type((1,))
    F = build_factor_map(S, chain_of(S, [1]))
    assert is_maximal_projection(F)


def test_max_factor_two_six_cycles():
    S = helpers.system_of_type((6, 6))
    base, F = max_odometer_factor(S)
    assert ess_of_odometer(base) == phi0(6)
    assert sorted(len(f) for f in fiber_partition(F)) == [2] * 6
    assert is_maximal_projection(F)


def test_max_factor_rejects_zero_depth():
    S = helpers.system_of_type((6,))
    with pytest.raises(DomainError):
        max_odometer_factor(S, depth=0)


def test_max_factor_explicit_depth():
    S = helpers.system_of_type((12,))
    base, F = max_odometer_factor(S, depth=4)
    assert base.depth == 4
    assert is_maximal_projection(F)


def test_max_factor_returns_the_extracted_chain():
    S = helpers.system_of_type((12, 24))
    base, F = max_odometer_factor(S, depth=4)
    assert sigma_of_system(S) == phi0(12)
    assert base == F.target == extract_regular_sequence(phi0(12), 4)


def test_max_factor_builds_each_length_once(monkeypatch):
    # the default depth repeats the top level five times; each distinct
    # length is built once, and no level goes through the checked constructor
    calls = Counter()
    make, check = dynsys.make_compatible, PeriodicPartition.__post_init__

    def counted_make(P, m):
        calls["make_compatible"] += 1
        return make(P, m)

    def counted_check(P):
        calls["check"] += 1
        check(P)

    monkeypatch.setattr(dynsys, "make_compatible", counted_make)
    monkeypatch.setattr(PeriodicPartition, "__post_init__", counted_check)
    base, F = max_odometer_factor(helpers.system_of_type((720720,)))
    assert base.levels == (2, 36, 360, 5040, 55440) + (720720,) * 5
    assert calls == {"make_compatible": 6}
    assert is_maximal_projection(F) and F.labels[5] == (1, 5, 5, 5, 5) + (5,) * 5


# ------------------------------------------------------------- uniqueness


def test_single_cycle_has_one_class():
    S = helpers.system_of_type((6,))
    for lengths in ([2], [3], [2, 6], [6]):
        classes = enumerate_factor_maps(S, lengths)
        assert len(classes) == 1


def test_two_two_cycles_have_two_classes():
    S = helpers.system_of_type((2, 2))
    assert len(enumerate_factor_maps(S, [2])) == 2


def test_class_count_survives_relabeling():
    rng = helpers.seeded(20260817)
    S = helpers.system_of_type((4, 4))
    T = helpers.random_conjugate(S, rng)
    for lengths in ([2], [4], [2, 4]):
        assert len(enumerate_factor_maps(S, lengths)) == len(
            enumerate_factor_maps(T, lengths)
        )


def test_classes_are_mutually_inequivalent():
    S = helpers.system_of_type((2, 2))
    classes = enumerate_factor_maps(S, [2])
    reps = [cls[0] for cls in classes]
    for Fa, Fb in itertools.combinations(reps, 2):
        assert compare_projections(Fa, Fb) is not Comparison.EQUIVALENT
    for cls in classes:
        for Fa, Fb in itertools.combinations(cls, 2):
            assert compare_projections(Fa, Fb) is Comparison.EQUIVALENT


def test_classes_match_pairwise_comparison():
    # grouping by fibers vs the pairwise compare_projections grouping
    rng = helpers.seeded(20261019)
    for parts in [(2, 2), (2, 4), (4, 4), (2, 2, 2), (3, 6), (2, 2, 4), (6, 6)]:
        S = helpers.random_conjugate(helpers.system_of_type(parts), rng)
        periods, _ = ess_periods(S)
        for chain in helpers.strict_divisor_chains(max(periods)):
            if len(chain) > 2 or not set(chain) <= periods:
                continue
            classes = enumerate_factor_maps(S, chain)
            maps = [F for cls in classes for F in cls]
            assert classes == helpers.pairwise_classes(maps), (parts, chain)


def test_order_claims_on_every_cycle_type_up_to_ten_points():
    # class representatives over every divisor chain of the gcd, ordered by
    # pairwise compare_projections: (a) a greatest class exists iff the
    # system is one cycle or its gcd is 1 (then the one-point odometer is
    # the only target); (b) the maximal classes are the maximal projections;
    # (c) n_L^(k-1) classes per chain, and m2 * (m2/d)^(k-1) compatible
    # partitions, as the oracle finds them
    def below(F, G):  # F factors through G, and not the other way
        return compare_projections(F, G) is Comparison.FIRST_FACTORS_THROUGH_SECOND

    types = list(helpers.all_cycle_types(10))
    assert len(types) == 138
    for parts in types:
        S = helpers.system_of_type(parts)
        g, k = helpers.cycle_gcd(parts), len(parts)
        reps = []
        for lengths in helpers.strict_divisor_chains(g):
            if g % lengths[-1]:
                continue
            classes = enumerate_factor_maps(S, lengths)
            maps = [F for cls in classes for F in cls]
            assert len(classes) == len(helpers.pairwise_classes(maps)) == lengths[-1] ** (k - 1)
            reps += [cls[0] for cls in classes]
        reps = [cls[0] for cls in helpers.pairwise_classes(reps)]
        greatest = [G for G in reps if all(F is G or below(F, G) for F in reps)]
        assert bool(greatest) == (is_indecomposable(S) or g == 1), parts
        maximal = [G for G in reps if not any(below(G, F) for F in reps)]
        assert maximal == [G for G in reps if is_maximal_projection(G)], parts
        for m1, m2 in itertools.product(helpers.divisors(g), repeat=2):
            P1 = canonical_partition(S, m1)
            tagged = enumerate_compatible(P1, m2)
            d = m2 // math.gcd(m1, m2)
            assert len(tagged) == m2 * d ** (k - 1)
            assert len({cid for _, cid in tagged}) == d ** (k - 1)
            oracle = [Q for Q in all_partitions(S, m2) if are_compatible(P1, Q)]
            assert [Q for Q, _ in tagged] == oracle


def test_enumerations_match_the_prefix_by_prefix_reference():
    # the offset-space enumerations return what the prefix-by-prefix code
    # returned: the same classes in the same order, the same class ids and
    # equal chains, level by level; on every cycle type up to 10 points and
    # a random relabeling of it, over every divisor chain of the gcd and the
    # same chain with its top level repeated
    def levels(classes):
        return [[[(P.length, P.offsets) for P in F.chain.partitions] for F in c] for c in classes]

    rng = helpers.seeded(1019)
    for parts in helpers.all_cycle_types(10):
        g = helpers.cycle_gcd(parts)
        T = helpers.system_of_type(parts)
        for S in (T, helpers.random_conjugate(T, rng)):
            for m1, m2 in itertools.product(helpers.divisors(g), repeat=2):
                P1 = helpers.random_partition(S, m1, rng)
                tagged = enumerate_compatible(P1, m2)
                want = helpers.enumerate_compatible_reference(P1, m2)
                assert tagged == want, (parts, m1, m2)
                assert [(Q.offsets, cid) for Q, cid in tagged] == [
                    (Q.offsets, cid) for Q, cid in want
                ]
                assert [dynsys.blocks_json(Q) for Q, _ in tagged] == [
                    dynsys.blocks_json(Q) for Q, _ in want
                ]
            for lengths in helpers.strict_divisor_chains(g):
                if g % lengths[-1]:
                    continue
                for chain in (lengths, lengths + lengths[-1:]):
                    classes = enumerate_factor_maps(S, chain)
                    want = helpers.enumerate_factor_maps_reference(S, chain)
                    assert classes == want, (parts, chain)
                    assert levels(classes) == levels(want)
                    for F in (F for cls in classes for F in cls):
                        assert PartitionChain(F.chain.partitions) == F.chain
                        assert build_factor_map(S, F.chain) == F


def test_enumerations_and_built_chains_run_no_checked_constructor(monkeypatch):
    # every candidate level and chain is compatible by construction, so the
    # enumerations, build_chain, extend_chain and normalize_coherent build
    # them through the trusted constructors alone
    runs = Counter()
    for cls in (PeriodicPartition, PartitionChain):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda obj, check=check: runs.update([type(obj)]) or check(obj)
        )
    rng = helpers.seeded(1020)
    built = []
    for parts in [(4, 8), (2, 4, 6), (6, 12), (12,), (2, 2, 2, 2), (3, 3, 6)]:
        S = helpers.random_conjugate(helpers.system_of_type(parts), rng)
        g = helpers.cycle_gcd(parts)
        for lengths in helpers.saturated_chains(g):
            enumerate_factor_maps(S, lengths[1:] or lengths)
            enumerate_factor_maps(S, lengths + lengths[-1:])
            for m1, m2 in itertools.product(lengths, repeat=2):
                enumerate_compatible(make_compatible(trivial_partition(S), m1), m2)
            chain = build_chain(S, lengths[1:] or lengths)
            fits = [
                m for m in helpers.divisors(g) if all(m % n == 0 or n % m == 0 for n in lengths)
            ]
            extended = [dynsys.extend_chain(chain, m) for m in fits]
            built += [chain, *extended, normalize_coherent(chain, rng.randrange(S.size))]
    assert runs == Counter()
    monkeypatch.undo()
    for C in built:
        assert PartitionChain(C.partitions) == C


def test_enumerations_refuse_more_than_their_limit(monkeypatch):
    # the closed-form counts, m2 * (m2/d)^(k-1) partitions and
    # prod(lengths) * n_L^(k-1) maps, are refused above the limit before
    # anything is built
    assert dynsys.MAX_ENUMERATION == 1 << 16
    S = helpers.system_of_type((2,) * 17)
    with pytest.raises(DomainError, match="more than 65536 partitions"):
        enumerate_compatible(trivial_partition(S), 2)
    with pytest.raises(DomainError, match="more than 65536 factor maps"):
        enumerate_factor_maps(S, [2])
    # exactly at the limit is allowed, one step over it is not
    S = helpers.system_of_type((4, 4, 4))
    monkeypatch.setattr(dynsys, "MAX_ENUMERATION", 4 * 2**2)
    assert len(enumerate_compatible(canonical_partition(S, 2), 4)) == 16
    with pytest.raises(DomainError):
        enumerate_compatible(trivial_partition(S), 4)  # 4 * 4^2
    monkeypatch.setattr(dynsys, "MAX_ENUMERATION", 2 * 4 * 4**2)
    assert sum(map(len, enumerate_factor_maps(S, [2, 4]))) == 128
    with pytest.raises(DomainError):
        enumerate_factor_maps(S, [2, 4, 4])  # 2 * 4 * 4 * 4^2
    # so are answers of more than MAX_POINTS points in all, at the limit
    # and one point over it
    monkeypatch.setattr(dynsys, "MAX_POINTS", 128 * S.size)
    assert sum(map(len, enumerate_factor_maps(S, [2, 4]))) == 128
    monkeypatch.setattr(dynsys, "MAX_POINTS", 128 * S.size - 1)
    with pytest.raises(DomainError, match=f"would list more than {128 * S.size - 1} points"):
        enumerate_factor_maps(S, [2, 4])
    monkeypatch.setattr(dynsys, "MAX_POINTS", 16 * S.size)
    assert len(enumerate_compatible(canonical_partition(S, 2), 4)) == 16
    monkeypatch.setattr(dynsys, "MAX_POINTS", 16 * S.size - 1)
    with pytest.raises(DomainError, match=f"would list more than {16 * S.size - 1} points"):
        enumerate_compatible(canonical_partition(S, 2), 4)
    # the documented limit: sixteen 2-cycles, 2^16 answers of 32 points
    monkeypatch.undo()
    dynsys._require_enumerable(1 << 16, "factor maps", 32)
    with pytest.raises(DomainError, match="more than 2097152 points"):
        dynsys._require_enumerable(1 << 16, "factor maps", 33)


def test_factor_map_is_its_chain():
    # a FactorMap holds (source, chain) alone; its labels, fibers, singleton
    # set, report and order match their point-by-point definitions
    assert [f.name for f in dataclasses.fields(FactorMap)] == ["source", "chain"]
    rng = helpers.seeded(612)
    for _ in range(60):
        S = helpers.random_periodic_system(12, rng)
        chains = helpers.saturated_chains(helpers.cycle_gcd(map(len, S.cycles)))
        maps = []
        for lengths in rng.sample(chains, min(2, len(chains))) + [(1,)]:
            levels = build_chain(S, lengths).partitions
            shifted = PartitionChain([cyclic_shift(Q, rng.randrange(Q.length)) for Q in levels])
            maps.append(build_factor_map(S, shifted))
        for F in maps:
            labels = F.labels
            assert labels == helpers.factor_labels_reference(F)
            assert all(v == tuple(v[-1] % n for n in F.chain.lengths) for v in labels)
            for Q in F.chain.partitions:
                x = rng.randrange(S.size)
                assert Q.index_of(x) == Q.labels[x]
            groups = fiber_partition(F)
            assert groups == frozenset(F.chain.partitions[-1].blocks)
            for x in range(S.size):
                assert fiber(F, labels[x]) == {y for y in range(S.size) if labels[y] == labels[x]}
            assert singleton_fiber_set(F) == {x for b in groups if len(b) == 1 for x in b}
            want = [[y for y in range(S.size) if labels[y] == v] for v in sorted(set(labels))]
            assert factor_report(F)["fibers"] == want
            for G in maps:
                r12, r21 = helpers.refines(F.labels, G.labels), helpers.refines(G.labels, F.labels)
                assert compare_projections(F, G) is {
                    (True, True): Comparison.EQUIVALENT,
                    (True, False): Comparison.SECOND_FACTORS_THROUGH_FIRST,
                    (False, True): Comparison.FIRST_FACTORS_THROUGH_SECOND,
                    (False, False): Comparison.INCOMPARABLE,
                }[r12, r21]


# ------------------------------------------------------------- dichotomy


def test_singleton_set_constant_map():
    S = helpers.system_of_type((2,))
    F = build_factor_map(S, chain_of(S, [1]))
    assert singleton_fiber_set(F) == frozenset()


def test_singleton_set_faithful_and_small_targets():
    S = helpers.system_of_type((12,))
    full = build_factor_map(S, chain_of(S, [2, 4, 12]))
    assert singleton_fiber_set(full) == frozenset(range(12))
    assert singleton_fiber_set(full) == almost_periodic_points(S)
    small = build_factor_map(S, chain_of(S, [2, 4]))
    assert all(len(f) == 3 for f in fiber_partition(small))
    assert singleton_fiber_set(small) == frozenset()


def test_almost_periodic_points_is_everything():
    for parts in [(1,), (3, 2), (4, 4)]:
        S = helpers.system_of_type(parts)
        assert almost_periodic_points(S) == frozenset(range(S.size))


# ------------------------------------------------------------- conjugacy


def test_equal_ess_truncations_share_cycle_type():
    bases = [
        BaseSequence((2, 4, 8)),
        BaseSequence((8,)),
        BaseSequence((2, 8)),
        BaseSequence((2, 4)),
        BaseSequence((3, 6)),
        BaseSequence((6,)),
    ]
    for b1, b2 in itertools.combinations(bases, 2):
        T1 = truncate(b1, b1.depth)
        T2 = truncate(b2, b2.depth)
        same_type = sorted(len(c) for c in T1.cycles) == sorted(
            len(c) for c in T2.cycles
        )
        assert same_type == (ess_of_odometer(b1) == ess_of_odometer(b2))


# ------------------------------------------------------------- report


def test_factor_report_shape_and_stability():
    S = helpers.system_of_type((4, 4))
    rep = factor_report(build_factor_map(S, chain_of(S, [2, 4])))
    assert list(rep) == ["target_levels", "labels", "fibers", "maximal", "sigma_top"]
    assert rep["target_levels"] == [2, 4]
    assert rep["labels"]["0"] == [0, 0]
    assert rep["fibers"] == [[0, 4], [2, 6], [1, 5], [3, 7]]
    assert rep["maximal"] is True
    assert rep["sigma_top"] == "2^2"
    again = factor_report(build_factor_map(S, chain_of(S, [2, 4])))
    assert json.dumps(rep) == json.dumps(again)


def _assert_views_match_references(F):
    """F's labels, report and the blocks of every level equal the references
    that zip every level and sort; the report's values are fresh lists."""
    assert F.labels == helpers.factor_labels_reference(F)
    rep, again = factor_report(F), factor_report(F)
    assert rep["labels"] == {str(x): list(v) for x, v in enumerate(F.labels)}
    assert rep["fibers"] == helpers.fibers_reference(F)
    values = [*rep["labels"].values(), *rep["fibers"], *again["labels"].values(), *again["fibers"]]
    assert all(type(v) is list for v in values)
    assert len({id(v) for v in values}) == len(values)  # no list is shared
    for P in F.chain.partitions:
        key = helpers.key_reference(P)
        assert P.key() == key
        assert blocks_json(P) == [list(b) for b in key]
        assert P.blocks == tuple(map(frozenset, key))


def test_finest_level_views_match_the_references():
    rng = helpers.seeded(1507)
    for _ in range(120):
        S = helpers.random_periodic_system(24, rng)
        full = rng.choice(helpers.saturated_chains(helpers.cycle_gcd(map(len, S.cycles))))
        # one level, a random sub-chain, and a whole saturated chain
        some = sorted(rng.sample(full, rng.randint(1, len(full))))
        for lengths in ([rng.choice(full)], some, full):
            chain = build_chain(S, lengths)
            shifted = PartitionChain([cyclic_shift(Q, rng.randrange(Q.length)) for Q in chain.partitions])
            _assert_views_match_references(build_factor_map(S, chain))
            _assert_views_match_references(build_factor_map(S, shifted))
    # n_L = n: one cycle, each point its own fiber
    for n in (1, 2, 12, 30, 64):
        S = helpers.random_conjugate(helpers.system_of_type((n,)), rng)
        for lengths in helpers.saturated_chains(n)[:4]:
            _assert_views_match_references(build_factor_map(S, build_chain(S, lengths)))


def test_enumerated_and_maximal_maps_match_the_view_references():
    rng = helpers.seeded(1508)
    for parts in [(1,), (4,), (2, 2), (4, 2), (6, 6), (4, 4, 2), (12,), (6, 3), (8, 4, 4)]:
        S = helpers.random_conjugate(helpers.system_of_type(parts), rng)
        for lengths in helpers.saturated_chains(helpers.cycle_gcd(parts)):
            for cls in enumerate_factor_maps(S, lengths):
                for F in cls:
                    _assert_views_match_references(F)
        _assert_views_match_references(max_odometer_factor(S)[1])


def test_fiber_order_is_the_vector_order_on_every_chain_over_720():
    """The digit-reversal order of range(n_L) is range(n_L) sorted by the
    coherent vectors (c mod n_1, ..., c), on every strictly ascending
    divisibility chain of divisors of 720."""
    divisors = helpers.divisors(720)
    chains = []
    stack = [(d,) for d in divisors]
    while stack:
        ch = stack.pop()
        chains.append(ch)
        stack += [ch + (d,) for d in divisors if d > ch[-1] and d % ch[-1] == 0]
    assert len(chains) == 7551
    for ch in chains:
        n = ch[-1]
        vectors = list(zip(*[[c % m for c in range(n)] for m in ch]))
        assert factors._vector_order(ch) == sorted(range(n), key=vectors.__getitem__), ch
