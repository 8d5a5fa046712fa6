"""Periodic partitions: oracle, compatibility calculus, chains, return times."""

import itertools
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicdyn import (
    BaseSequence,
    DomainError,
    ParseError,
    PeriodicPartition,
    all_partitions,
    are_compatible,
    are_equivalent,
    blocks_json,
    build_chain,
    canonical_partition,
    chains_compatible,
    coarsen,
    constant_label_offset,
    cycle_subsystem,
    cyclic_shift,
    enumerate_compatible,
    ess_periods,
    extend_chain,
    format_cycles,
    format_supernatural,
    invariant_components,
    is_indecomposable,
    lcm_partition,
    make_compatible,
    parse_cycles,
    partition_from_return,
    saturation,
    trivial_partition,
    validate_chain,
    validate_partition,
)

import helpers


def P(system, *blocks):
    return PeriodicPartition.from_blocks(system, blocks)


def saturation_is_all_or_nothing(P1, P2):
    """Compatibility straight from the definition, as a second route."""
    X = frozenset(range(P1.system.size))
    for k in range(P1.length):
        for l in range(P2.length):
            A = saturation(P1, k, P2, l)
            if A and A != X:
                return False
    return True


# ------------------------------------------------------------- parsing


def test_parse_cycles():
    S = parse_cycles("(0 1 2)(3 4 5 6 7 8)")
    assert S.size == 9
    assert S.apply(2) == 0
    assert S.apply(8) == 3


def test_parse_fixed_points_need_explicit_size():
    S = parse_cycles("(1 2)", size=4)
    assert S.size == 4
    assert S.apply(0) == 0 and S.apply(3) == 3


def test_parse_is_whitespace_insensitive():
    assert parse_cycles("( 0  1 )(2 3)") == parse_cycles("(0 1)(2 3)")


@pytest.mark.parametrize("bad", ["(0 0)", "(0 1", "0 1)", "(a b)", "(0 2)", "()"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_cycles(bad)


def test_format_round_trip():
    S = helpers.system_of_type((3, 2, 1))
    assert parse_cycles(format_cycles(S)) == S
    assert format_cycles(parse_cycles("(4 3)", size=5)) == "(0)(1)(2)(3 4)"


def test_iterate_both_directions():
    S = parse_cycles("(0 1 2 3 4)")
    assert S.iterate(0, 7) == 2
    assert S.iterate(0, -1) == 4
    assert S.inverse(0) == 4
    assert S.iterate(3, 0) == 3


# ------------------------------------------------------------- validation


def test_validate_trivial():
    S = helpers.system_of_type((6,))
    rep = validate_partition(S, [list(range(6))])
    assert rep.ok
    assert "vacuous" in rep.clause_i


def test_validate_even_odd_six_cycle():
    S = helpers.system_of_type((6,))
    assert validate_partition(S, [[0, 2, 4], [1, 3, 5]]).ok


def test_validate_cover_failure():
    S = helpers.system_of_type((3,))
    rep = validate_partition(S, [[0], [2]])
    assert not rep.ok
    assert not rep.clause_iv


def test_validate_cycle_failure():
    S = helpers.system_of_type((4,))
    rep = validate_partition(S, [[0, 1], [2, 3]])
    assert not rep.ok
    assert not rep.clause_ii


def test_labeling_check_matches_clause_check():
    # every labeling in range(m)^n of every cycle type up to 5 points: the
    # constructor accepts exactly those whose blocks validate_partition
    # accepts, and builds the partition from_blocks builds from them
    for parts in helpers.all_cycle_types(5):
        S = helpers.system_of_type(parts)
        for m in range(1, 5):
            for labels in itertools.product(range(m), repeat=S.size):
                blocks = [
                    [x for x in range(S.size) if labels[x] == j]
                    for j in range(max(labels) + 1)
                ]
                ok = validate_partition(S, blocks).ok
                try:
                    Q = PeriodicPartition(S, labels)
                except DomainError:
                    assert not ok, (parts, labels)
                else:
                    assert ok, (parts, labels)
                    assert Q == P(S, *blocks) and blocks_json(Q) == blocks


@pytest.mark.parametrize(
    "labels",
    [(0, 1, 0), (0, 1, 0, 1, 0), (1, 0, 1, -2), (0, True, 0, 1), (0, 1.0, 0, 1),
     (0, "1", 0, 1), (0, None, 0, 1), (0, 5, 0, 1), (0, 10**30, 0, 1)],
)
def test_labeling_constructor_rejects_bad_labels(labels):
    S = helpers.system_of_type((4,))
    assert PeriodicPartition(S, (1, 0, 1, 0)).length == 2
    with pytest.raises(DomainError):
        PeriodicPartition(S, labels)


def test_partition_constructor_rejects_invalid():
    S = helpers.system_of_type((4,))
    with pytest.raises(DomainError):
        P(S, {0, 1}, {2, 3})
    with pytest.raises(DomainError):
        P(S, {0, 2}, {1})
    with pytest.raises(DomainError):
        P(S)


# ------------------------------------------------------------- oracle


def test_oracle_fixed_point():
    S = helpers.system_of_type((1,))
    assert len(all_partitions(S, 1)) == 1


def test_oracle_four_cycle():
    S = helpers.system_of_type((4,))
    found = all_partitions(S, 2)
    assert [blocks_json(Q) for Q in found] == [[[0, 2], [1, 3]], [[1, 3], [0, 2]]]
    assert are_equivalent(found[0], found[1])
    assert all_partitions(S, 3) == []


def test_oracle_bound():
    with pytest.raises(DomainError):
        all_partitions(helpers.system_of_type((13,)), 1)
    with pytest.raises(DomainError):
        all_partitions(helpers.system_of_type((4,)), 13)
    # raising the bound lifts the restriction
    assert all_partitions(helpers.system_of_type((13,)), 13, bound=13)


def test_oracle_results_are_valid_and_distinct():
    S = helpers.system_of_type((2, 4))
    found = all_partitions(S, 2)
    assert len(found) == len(set(found))
    for Q in found:
        assert validate_partition(S, [sorted(b) for b in Q.blocks]).ok


def test_oracle_validates_each_candidate_once(monkeypatch):
    from adicdyn import dynsys

    calls = []
    real = dynsys.validate_partition

    def counting(system, blocks):
        calls.append(1)
        return real(system, blocks)

    monkeypatch.setattr(dynsys, "validate_partition", counting)
    found = all_partitions(helpers.system_of_type((4, 4, 4)), 4)
    assert len(found) == 64
    assert len(calls) == 64


def test_from_blocks_refuses_boolean_point_ids():
    S = helpers.system_of_type((4,))
    with pytest.raises(DomainError, match="point ids out of range"):
        P(S, [0, 2], [True, 3])
    assert "point ids out of range" in validate_partition(S, [[0, 2], [True, 3]]).problems


# ------------------------------------------------------------- ess


def test_ess_examples():
    S = helpers.system_of_type((1,))
    periods, phi = ess_periods(S)
    assert periods == frozenset({1}) and format_supernatural(phi) == "1"

    S = helpers.system_of_type((3, 6))
    periods, phi = ess_periods(S)
    assert periods == frozenset({1, 3}) and format_supernatural(phi) == "3"

    S = helpers.system_of_type((12,))
    periods, phi = ess_periods(S)
    assert periods == frozenset({1, 2, 3, 4, 6, 12})
    assert format_supernatural(phi) == "2^2*3"


def test_ess_periods_match_brute_force_divisors():
    # cycles of lengths g and 2g have gcd g, for every g up to 400
    for g in range(1, 401):
        S = helpers.system_of_type((g, 2 * g))
        periods, _ = ess_periods(S)
        assert periods == {d for d in range(1, g + 1) if g % d == 0}, g
    S = helpers.system_of_type((720720,))
    periods, _ = ess_periods(S)
    assert periods == {d for d in range(1, 720721) if 720720 % d == 0}
    assert len(periods) == 240


def test_ess_matches_oracle_small():
    # formula vs brute force on every cycle type with at most 7 points
    for parts in helpers.all_cycle_types(7):
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        for m in range(1, S.size + 1):
            assert (m in periods) == bool(all_partitions(S, m)), (parts, m)


# ------------------------------------------------------------- shifts


def test_shift_identity_and_group():
    S = helpers.system_of_type((6,))
    Q = canonical_partition(S, 3)
    assert cyclic_shift(Q, 0) is Q
    assert cyclic_shift(cyclic_shift(Q, 1), 2) == Q
    assert cyclic_shift(Q, 3) == Q


def test_shift_relabels_blocks():
    S = helpers.system_of_type((4,))
    Q = P(S, {0, 2}, {1, 3})
    assert blocks_json(cyclic_shift(Q, 1)) == [[1, 3], [0, 2]]


def test_equivalence_requires_same_length():
    S = helpers.system_of_type((6,))
    with pytest.raises(DomainError):
        are_equivalent(canonical_partition(S, 2), canonical_partition(S, 3))


# ------------------------------------------------------------- coarsen


def test_coarsen_identity_and_trivial():
    S = helpers.system_of_type((6,))
    Q = canonical_partition(S, 6)
    assert coarsen(Q, 6) == Q
    assert coarsen(Q, 1) == trivial_partition(S)


def test_coarsen_six_cycle_to_even_odd():
    S = helpers.system_of_type((6,))
    Q = coarsen(canonical_partition(S, 6), 2)
    assert blocks_json(Q) == [[0, 2, 4], [1, 3, 5]]


def test_coarsen_rejects_non_divisor():
    S = helpers.system_of_type((6,))
    with pytest.raises(DomainError):
        coarsen(canonical_partition(S, 6), 4)


def test_coarsen_of_oracle_partitions_is_valid():
    for parts in [(4,), (6,), (2, 4), (3, 3)]:
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        for m in sorted(periods):
            for Q in all_partitions(S, m):
                for d in helpers.divisors(m):
                    assert coarsen(Q, d).length == d


# ------------------------------------------------------------- saturation


def test_saturation_single_cycle_is_everything():
    S = helpers.system_of_type((6,))
    Q = canonical_partition(S, 3)
    assert saturation(Q, 0, Q, 0) == frozenset(range(6))


def test_saturation_disjoint_blocks():
    S = helpers.system_of_type((6,))
    Q = canonical_partition(S, 3)
    assert saturation(Q, 0, Q, 1) == frozenset()  # blocks do not meet
    Q2 = canonical_partition(S, 2)
    # {0,3} meets {1,3,5} in {3}; saturation recovers all of X
    assert saturation(Q, 0, Q2, 1) == frozenset(range(6))


def test_saturation_opposite_phase_pair():
    # two 2-cycles, second partition out of phase on the second cycle:
    # the saturation of the (0,0) intersection is the first cycle alone
    S = helpers.system_of_type((2, 2))
    P1 = P(S, {0, 2}, {1, 3})
    P2 = P(S, {0, 3}, {1, 2})
    assert saturation(P1, 0, P2, 0) == frozenset({0, 1})


def test_saturation_index_range():
    S = helpers.system_of_type((4,))
    Q = P(S, {0, 2}, {1, 3})
    with pytest.raises(DomainError):
        saturation(Q, 2, Q, 0)


# ------------------------------------------------------------- compatibility


def test_self_compatibility():
    S = helpers.system_of_type((2, 2))
    for Q in all_partitions(S, 2):
        assert are_compatible(Q, Q)


def test_opposite_phase_pair_incompatible():
    S = helpers.system_of_type((2, 2))
    assert not are_compatible(P(S, {0, 2}, {1, 3}), P(S, {0, 3}, {1, 2}))


def test_equal_length_compatible_iff_equivalent():
    for parts in [(2, 2), (2, 4), (4,), (3, 3), (2, 2, 2)]:
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        for m in sorted(periods):
            found = all_partitions(S, m)
            for Q1, Q2 in itertools.combinations_with_replacement(found, 2):
                assert are_compatible(Q1, Q2) == are_equivalent(Q1, Q2)


def test_compatibility_agrees_with_saturation_definition():
    # the constant-offset shortcut vs the literal all-or-nothing scan
    for parts in [(2, 2), (4, 2), (3, 6), (2, 2, 4)]:
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        pool = []
        for m in sorted(periods):
            pool.extend(all_partitions(S, m))
        for Q1, Q2 in itertools.product(pool, repeat=2):
            assert are_compatible(Q1, Q2) == saturation_is_all_or_nothing(Q1, Q2)


def test_compatibility_not_transitive():
    S = helpers.system_of_type((2, 2))
    Pa = P(S, {0, 2}, {1, 3})
    Pb = P(S, {0, 3}, {1, 2})
    triv = trivial_partition(S)
    assert are_compatible(Pa, triv)
    assert are_compatible(triv, Pb)
    assert not are_compatible(Pa, Pb)


def test_compatibility_invariant_under_shifts():
    S = helpers.system_of_type((2, 4))
    pool = all_partitions(S, 2)
    for Q1, Q2 in itertools.product(pool, repeat=2):
        expected = are_compatible(Q1, Q2)
        for k in range(Q1.length):
            for j in range(Q2.length):
                assert are_compatible(cyclic_shift(Q1, k), cyclic_shift(Q2, j)) == expected


def test_block_containment_forces_compatibility_and_division():
    # whenever a block of Q2 sits inside a block of Q1, the pair is
    # compatible and len(Q1) divides len(Q2)
    S = helpers.system_of_type((2, 4))
    periods, _ = ess_periods(S)
    pool = []
    for m in sorted(periods):
        pool.extend(all_partitions(S, m))
    for Q1, Q2 in itertools.product(pool, repeat=2):
        nested = any(
            b2 <= b1 for b2 in Q2.blocks for b1 in Q1.blocks
        )
        if nested:
            assert are_compatible(Q1, Q2)
            assert Q2.length % Q1.length == 0


def test_divisor_lengths_compatible_iff_refinement():
    S = helpers.system_of_type((2, 4))
    twos = all_partitions(S, 2)
    # m1 | m2 case with m1=1: every partition refines the trivial one
    triv = trivial_partition(S)
    for Q in twos:
        assert are_compatible(triv, Q)
    # m1 = m2 = 2: refinement collapses to equality of block families
    for Q1, Q2 in itertools.product(twos, repeat=2):
        refines = all(any(b2 <= b1 for b1 in Q1.blocks) for b2 in Q2.blocks)
        assert are_compatible(Q1, Q2) == refines


def test_constant_label_offset_value():
    S = helpers.system_of_type((6,))
    Q = canonical_partition(S, 6)
    assert constant_label_offset(coarsen(Q, 2), coarsen(Q, 3)) == 0
    # offsets live mod gcd of the lengths; shift one copy to see it move
    even_odd = coarsen(Q, 2)
    assert constant_label_offset(even_odd, cyclic_shift(even_odd, 1)) == 1


# ------------------------------------------------------------- lcm


def test_lcm_with_trivial_is_equivalent_to_other():
    S = helpers.system_of_type((2, 4))
    for Q in all_partitions(S, 2):
        D = lcm_partition(Q, trivial_partition(S))
        assert D.length == 2
        assert are_equivalent(D, Q)


def test_lcm_twelve_cycle():
    S = helpers.system_of_type((12,))
    D = lcm_partition(canonical_partition(S, 4), canonical_partition(S, 6))
    assert D.length == 12
    assert 0 in D.blocks[0]


def test_lcm_coprime_lengths_on_six_cycle():
    S = helpers.system_of_type((6,))
    D = lcm_partition(canonical_partition(S, 2), canonical_partition(S, 3))
    assert D.length == 6
    assert blocks_json(D) == [[0], [1], [2], [3], [4], [5]]


def test_lcm_rejects_incompatible():
    S = helpers.system_of_type((2, 2))
    with pytest.raises(DomainError):
        lcm_partition(P(S, {0, 2}, {1, 3}), P(S, {0, 3}, {1, 2}))


def test_lcm_refines_both_and_length_lands_in_ess():
    for parts in [(2, 4), (6,), (4, 4), (6, 3)]:
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        for m1, m2 in itertools.product(sorted(periods), repeat=2):
            P1 = make_compatible(trivial_partition(S), m1)
            P2 = make_compatible(P1, m2)
            D = lcm_partition(P1, P2)
            assert D.length == lcm(m1, m2)
            assert D.length in periods
            for b in D.blocks:
                assert any(b <= w for w in P1.blocks)
                assert any(b <= w for w in P2.blocks)


# ------------------------------------------------------------- make/enumerate


def test_make_compatible_length_one():
    S = helpers.system_of_type((2, 2))
    assert make_compatible(P(S, {0, 2}, {1, 3}), 1) == trivial_partition(S)


def test_make_compatible_two_two_cycles():
    S = helpers.system_of_type((2, 2))
    Q = make_compatible(trivial_partition(S), 2)
    assert blocks_json(Q) == [[0, 2], [1, 3]]
    assert are_compatible(trivial_partition(S), Q)


def test_make_compatible_rejects_length_not_in_ess():
    S = helpers.system_of_type((2, 2))
    with pytest.raises(DomainError):
        make_compatible(trivial_partition(S), 3)


def test_make_compatible_rejects_non_int_length():
    S = helpers.system_of_type((2, 2))
    for m in (2.0, "2", None, 0, -2):
        with pytest.raises(DomainError, match=f"no partition of length {m} exists"):
            make_compatible(trivial_partition(S), m)
        with pytest.raises(DomainError, match=f"no partition of length {m} exists"):
            enumerate_compatible(trivial_partition(S), m)


def test_make_compatible_always_valid_and_compatible():
    for parts in [(4, 2), (6, 3), (2, 2, 2), (12,), (6, 6)]:
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        for m1 in sorted(periods):
            P1 = make_compatible(trivial_partition(S), m1)
            for m2 in sorted(periods):
                Q = make_compatible(P1, m2)
                assert Q.length == m2
                assert are_compatible(P1, Q), (parts, m1, m2)


@given(st.integers(min_value=0, max_value=10**6))
@settings(deadline=None)
def test_make_compatible_matches_docstring_construction(seed):
    # the per-cycle CRT offsets pick the partition the slice-and-fold
    # construction picks; the CLI's compat make, chain build and project
    # output depends on that exact choice
    rng = helpers.seeded(seed)
    S = helpers.random_periodic_system(12, rng)
    periods, _ = ess_periods(S)
    for m1 in sorted(periods):
        P1, _ = rng.choice(enumerate_compatible(trivial_partition(S), m1))
        for m2 in sorted(periods):
            want = helpers.make_compatible_reference(P1, m2)
            assert blocks_json(make_compatible(P1, m2)) == want, (S, m1, m2)


def test_make_compatible_is_deterministic():
    S = helpers.system_of_type((4, 4))
    P1 = make_compatible(trivial_partition(S), 2)
    assert make_compatible(P1, 4) == make_compatible(P1, 4)


def test_enumerate_single_cycle_one_class():
    S = helpers.system_of_type((6,))
    for m2 in (1, 2, 3, 6):
        tagged = enumerate_compatible(trivial_partition(S), m2)
        assert {cid for _, cid in tagged} == {0}
        assert len(tagged) == m2  # the m2 cyclic shifts


def test_enumerate_two_two_cycles():
    S = helpers.system_of_type((2, 2))
    tagged = enumerate_compatible(trivial_partition(S), 2)
    assert len(tagged) == 4
    assert {cid for _, cid in tagged} == {0, 1}


def test_enumerate_matches_oracle_filter():
    # complete: exactly the oracle partitions that pass are_compatible
    for parts in [(2, 2), (2, 4), (6,), (3, 3), (2, 2, 4)]:
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        for m1 in sorted(periods):
            P1 = make_compatible(trivial_partition(S), m1)
            for m2 in sorted(periods):
                expected = {
                    Q for Q in all_partitions(S, m2) if are_compatible(P1, Q)
                }
                got = {Q for Q, _ in enumerate_compatible(P1, m2)}
                assert got == expected, (parts, m1, m2)


def test_enumerate_classes_agree_with_pairwise_compatibility():
    # members of the family are compatible with one another iff the
    # free phase parameters agree, i.e. iff they share a class
    S = helpers.system_of_type((4, 4))
    P1 = make_compatible(trivial_partition(S), 2)
    tagged = enumerate_compatible(P1, 4)
    for (Qa, ca), (Qb, cb) in itertools.product(tagged, repeat=2):
        assert are_compatible(Qa, Qb) == (ca == cb)


# ------------------------------------------------------------- components


def test_invariant_components():
    S = helpers.system_of_type((3, 3))
    comps = invariant_components(S)
    assert len(comps) == 2
    assert frozenset({0, 1, 2}) in comps
    assert not is_indecomposable(S)
    assert is_indecomposable(helpers.system_of_type((5,)))


def test_indecomposable_iff_one_partition_class():
    for parts in helpers.all_cycle_types(7):
        S = helpers.system_of_type(parts)
        periods, _ = ess_periods(S)
        for m in sorted(periods):
            if m == 1:
                continue
            found = all_partitions(S, m)
            classes = []
            for Q in found:
                for cls in classes:
                    if are_equivalent(cls[0], Q):
                        cls.append(Q)
                        break
                else:
                    classes.append([Q])
            assert (len(classes) == 1) == is_indecomposable(S), (parts, m)


# ------------------------------------------------------------- chains


def test_chain_of_trivial_lengths():
    S = helpers.system_of_type((4,))
    chain = build_chain(S, [1, 1, 1])
    assert chain.lengths == (1, 1, 1)
    assert all(Q == trivial_partition(S) for Q in chain.partitions)


def test_chain_twelve_cycle():
    S = helpers.system_of_type((12,))
    chain = build_chain(S, [2, 4, 12])
    assert chain.lengths == (2, 4, 12)
    # blockwise refinement downward
    for prev, nxt in zip(chain.partitions, chain.partitions[1:]):
        for b in nxt.blocks:
            assert any(b <= w for w in prev.blocks)


def test_chain_two_four_cycles():
    S = helpers.system_of_type((4, 4))
    chain = build_chain(S, [2, 4])
    assert chain.lengths == (2, 4)


def test_chain_rejects_bad_lengths():
    S = helpers.system_of_type((4, 4))
    with pytest.raises(DomainError):
        build_chain(S, [2, 3])  # 3 not in Ess
    with pytest.raises(DomainError):
        build_chain(S, [4, 2])  # divisibility violated
    with pytest.raises(DomainError):
        build_chain(S, [])


def test_chain_lengths_are_checked_as_one_base():
    S = helpers.system_of_type((4, 4))
    with pytest.raises(DomainError, match="a base needs at least one level"):
        build_chain(S, [])
    with pytest.raises(DomainError, match="bad level 0: levels are positive integers"):
        build_chain(S, [0, 4])
    with pytest.raises(DomainError, match="no partition of length 8 exists"):
        build_chain(S, BaseSequence((2, 8)))
    assert build_chain(S, BaseSequence((2, 4))) == build_chain(S, [2, 4])


def test_validate_chain_reports():
    S = helpers.system_of_type((4,))
    good = [[[0, 2], [1, 3]], [[0], [1], [2], [3]]]
    assert validate_chain(S, good).ok
    bad = [[[0], [1], [2], [3]], [[0, 2], [1, 3]]]
    rep = validate_chain(S, bad)
    assert not rep.ok
    assert not rep.lengths_divide


def test_chain_pairwise_compatible():
    S = helpers.system_of_type((12,))
    chain = build_chain(S, [2, 4, 12])
    for Qa, Qb in itertools.combinations(chain.partitions, 2):
        assert are_compatible(Qa, Qb)
    assert chains_compatible(chain, build_chain(S, [3, 12]))


def test_extend_chain_idempotent_on_existing_length():
    S = helpers.system_of_type((12,))
    chain = build_chain(S, [2, 4])
    assert extend_chain(chain, 4) is chain


def test_extend_chain_appends():
    S = helpers.system_of_type((12,))
    chain = extend_chain(build_chain(S, [2, 4]), 12)
    assert chain.lengths == (2, 4, 12)
    assert chains_compatible(chain, chain)


def test_extend_chain_inserts_in_front_and_between():
    S = helpers.system_of_type((12,))
    chain = build_chain(S, [4, 12])
    assert extend_chain(chain, 2).lengths == (2, 4, 12)
    chain2 = build_chain(S, [2, 12])
    grown = extend_chain(chain2, 6)
    assert grown.lengths == (2, 6, 12)
    for Qa, Qb in itertools.combinations(grown.partitions, 2):
        assert are_compatible(Qa, Qb)


def test_extend_chain_rejects_non_interleaving_length():
    S = helpers.system_of_type((12,))
    chain = build_chain(S, [4, 12])
    with pytest.raises(DomainError):
        extend_chain(chain, 3)  # 3 | 12 but 3 does not interleave with 4
    with pytest.raises(DomainError):
        extend_chain(chain, 5)


# ------------------------------------------------------------- return times


def test_return_whole_cycle():
    S = helpers.system_of_type((6,))
    m, Q = partition_from_return(S, 0, frozenset(range(6)))
    assert m == 1 and Q.length == 1


def test_return_six_cycle_examples():
    S = helpers.system_of_type((6,))
    m, Q = partition_from_return(S, 0, frozenset({0, 3}))
    assert m == 3
    assert Q.blocks[0] == frozenset({0, 3})
    m, Q = partition_from_return(S, 0, frozenset({0}))
    assert m == 6
    assert all(len(b) == 1 for b in Q.blocks)


def test_return_acts_on_the_cycle_of_x():
    S = helpers.system_of_type((6, 3))
    m, Q = partition_from_return(S, 7, frozenset({7}))
    sub, pts = cycle_subsystem(S, 7)
    assert pts == (6, 7, 8)
    assert m == 3 and Q.system == sub


def test_return_requires_membership():
    S = helpers.system_of_type((6,))
    with pytest.raises(DomainError):
        partition_from_return(S, 0, frozenset({1, 2}))


def test_return_length_divides_cycle_length():
    S = helpers.system_of_type((12,))
    for r in range(1, 6):
        U = frozenset(range(0, 12, r)) | {0}
        m, _ = partition_from_return(S, 0, U)
        assert 12 % m == 0


@given(st.integers(min_value=0, max_value=10**6))
@settings(deadline=None)
def test_return_partition_matches_definition(seed):
    # m and the blocks, read off the docstring by brute force
    rng = helpers.seeded(seed)
    S = helpers.random_system(rng.randint(1, 12), rng)
    x = rng.randrange(S.size)
    step = rng.randint(1, S.size)
    U = {S.iterate(x, step * k) for k in range(S.size)}
    U |= {y for y in range(S.size) if rng.random() < 0.3}

    def orbit(n):
        # the full f^n-orbit of x
        out, y = [x], S.iterate(x, n)
        while y != x:
            out.append(y)
            y = S.iterate(y, n)
        return out

    want_m = next(n for n in itertools.count(1) if set(orbit(n)) <= U)
    T, pts = cycle_subsystem(S, x)
    layer = {pts.index(y) for y in orbit(want_m)}
    want_blocks = []
    for _ in range(want_m):
        want_blocks.append(sorted(layer))
        layer = {T.apply(z) for z in layer}
    m, Q = partition_from_return(S, x, U)
    assert (m, blocks_json(Q)) == (want_m, want_blocks)


# ------------------------------------------------------------- property mix


@given(st.integers(min_value=0, max_value=10**6))
@settings(deadline=None)
def test_random_systems_make_compatible_round(seed):
    rng = helpers.seeded(seed)
    S = helpers.random_system(rng.randint(2, 9), rng)
    periods, _ = ess_periods(S)
    m1 = rng.choice(sorted(periods))
    m2 = rng.choice(sorted(periods))
    P1 = make_compatible(trivial_partition(S), m1)
    Q = make_compatible(P1, m2)
    assert are_compatible(P1, Q)
    D = lcm_partition(P1, Q)
    assert D.length == lcm(m1, m2)
