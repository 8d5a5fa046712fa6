"""Factor maps onto odometers: fibers, ordering, maximality, uniqueness."""

import itertools
import json

import pytest

from adicdyn import (
    BaseSequence,
    Comparison,
    DomainError,
    PartitionChain,
    all_partitions,
    almost_periodic_points,
    are_equivalent,
    build_chain,
    build_factor_map,
    canonical_partition,
    chains_compatible,
    compare_projections,
    cyclic_shift,
    enumerate_compatible,
    enumerate_factor_maps,
    ess_of_odometer,
    extract_regular_sequence,
    ess_periods,
    factor_report,
    fiber,
    fiber_partition,
    from_integer,
    is_maximal_projection,
    leq,
    make_compatible,
    max_odometer_factor,
    normalize_coherent,
    phi0,
    projection_exists,
    seq_dominates,
    sigma_of_system,
    singleton_fiber_set,
    translate,
    trivial_partition,
    truncate,
)

import helpers


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
