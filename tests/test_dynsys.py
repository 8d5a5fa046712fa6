"""Periodic partitions: oracle, compatibility calculus, chains, return times."""

import itertools
import re
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicdyn import (
    AdicInt,
    BaseSequence,
    DomainError,
    FinSystem,
    ParseError,
    PeriodicPartition,
    all_partitions,
    are_compatible,
    are_equivalent,
    blocks_json,
    build_chain,
    canonical_partition,
    coarsen,
    constant_label_offset,
    cycle_subsystem,
    cyclic_shift,
    cylinder,
    enumerate_compatible,
    ess_periods,
    extend_chain,
    extract_regular_sequence,
    format_cycles,
    format_supernatural,
    from_integer,
    is_indecomposable,
    lcm_partition,
    level_partition,
    make_compatible,
    max_odometer_factor,
    normalize_coherent,
    parse_cycles,
    partition_from_return,
    phi0,
    phi_of_set,
    trivial_partition,
    truncate,
    validate_chain,
    validate_partition,
)
from adicdyn import dynsys

import helpers
from helpers import chains_compatible, invariant_components, refines, saturation


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


@pytest.mark.parametrize(
    "text, size, message",
    [("(0 -1)", None, "point ids are nonnegative"),
     ("(0 5)", 3, "declared size is smaller than the largest point id"),
     ("", None, "empty system"),
     ("", 0, "empty system")],
)
def test_parse_rejects_with_its_message(text, size, message):
    with pytest.raises(ParseError, match=message):
        parse_cycles(text, size)


def test_format_round_trip():
    S = helpers.system_of_type((3, 2, 1))
    assert parse_cycles(format_cycles(S)) == S
    assert str(S) == format_cycles(S)
    assert format_cycles(parse_cycles("(4 3)", size=5)) == "(0)(1)(2)(3 4)"


def test_iterate_both_directions():
    S = parse_cycles("(0 1 2 3 4)")
    assert S.iterate(0, 7) == 2
    assert S.iterate(0, -1) == 4
    assert S.iterate(3, 0) == 3


@pytest.mark.parametrize("fwd", [(True, False), (1.0, 0), (0.0,), (1, 0.0), (False,)])
def test_forward_map_entries_must_be_ints(fwd):
    # bool and float entries once passed the sort check, which compares by ==
    with pytest.raises(DomainError, match=r"not a permutation of 0\.\.N-1"):
        FinSystem(fwd)


def test_a_system_needs_a_point():
    with pytest.raises(DomainError, match="at least one point"):
        FinSystem(())


def test_fin_system_matches_the_permutation_definition():
    # accepted exactly when sorted(fwd) is 0..N-1 and every entry is an int;
    # then the cycles follow f from each one's least point, least first
    rng = helpers.seeded(612)
    cases = [(0,), (1,), (-1,), (0, 0), (1, 1), (2, 0), (1, 0, 0), (1, 2, 1)]
    for _ in range(300):
        n = rng.randint(1, 12)
        fwd = list(range(n))
        rng.shuffle(fwd)
        cases.append(tuple(fwd))
        bad = list(fwd)
        bad[rng.randrange(n)] = rng.choice([fwd[rng.randrange(n)], n, n + 3, -1, -n])
        cases.append(tuple(bad))
    for fwd in cases:
        n = len(fwd)
        is_perm = sorted(fwd) == list(range(n)) and all(type(y) is int for y in fwd)
        try:
            S = FinSystem(fwd)
        except DomainError as exc:
            assert not is_perm, fwd
            assert str(exc) == "forward map is not a permutation of 0..N-1"
            continue
        assert is_perm, fwd
        firsts = [c[0] for c in S.cycles]
        assert firsts == sorted(firsts) and all(c[0] == min(c) for c in S.cycles)
        assert sorted(x for c in S.cycles for x in c) == list(range(n))
        for c in S.cycles:
            assert all(fwd[x] == y for x, y in zip(c, c[1:] + c[:1]))


# ------------------------------------------------------------- validation


def test_validate_trivial():
    S = helpers.system_of_type((6,))
    rep = validate_partition(S, [list(range(6))])
    assert rep.ok and rep.problems == ()


def test_validate_even_odd_six_cycle():
    S = helpers.system_of_type((6,))
    assert validate_partition(S, [[0, 2, 4], [1, 3, 5]]).ok


def test_validate_cover_failure():
    S = helpers.system_of_type((3,))
    rep = validate_partition(S, [[0], [2]])
    assert not rep.ok
    assert "blocks do not cover the space exactly" in rep.problems


def test_validate_cycle_failure():
    S = helpers.system_of_type((4,))
    rep = validate_partition(S, [[0, 1], [2, 3]])
    assert not rep.ok
    assert rep.problems == ("f(W_0) != W_1", "f(W_1) != W_0")


def test_labeling_check_matches_clause_check():
    # every labeling in range(m)^n of every cycle type up to 5 points: the
    # step rule (_step_offsets) accepts exactly those whose blocks
    # validate_partition accepts, and the checked constructor builds from
    # its offsets the partition from_blocks builds from them
    for parts in helpers.all_cycle_types(5):
        S = helpers.system_of_type(parts)
        for m in range(1, 5):
            for labels in itertools.product(range(m), repeat=S.size):
                blocks = [
                    [x for x in range(S.size) if labels[x] == j]
                    for j in range(max(labels) + 1)
                ]
                ok = validate_partition(S, blocks).ok
                offsets = dynsys._step_offsets(S, labels, len(blocks))
                assert (offsets is not None) == ok, (parts, labels)
                if ok:
                    Q = PeriodicPartition(S, len(blocks), offsets)
                    assert Q == P(S, *blocks) and blocks_json(Q) == blocks


@pytest.mark.parametrize(
    "length, offsets",
    [(2, (0,)), (2, (0, 1, 0)), (2, (1, -1)), (2, (1, True)), (2, (1, 1.0)), (2, (1, "1")),
     (2, (1, None)), (2, (1, 2)), (2, (1, 10**30)), (0, (0, 0)), (True, (0, 0)),
     (2.0, (0, 0)), (4, (0, 0)), (3, (0, 0))],
    ids=["too-few", "too-many", "negative", "bool", "float", "str", "none", "too-large",
         "huge", "length-0", "length-bool", "length-float", "length-4", "length-3"],
)
def test_offsets_constructor_rejects_bad_fields(length, offsets):
    # on (0 1 2 3)(4 5): one int offset in range(length) per cycle, and an
    # int length >= 1 that divides every cycle length
    S = helpers.system_of_type((4, 2))
    assert PeriodicPartition(S, 2, (1, 0)) == P(S, [1, 3, 4], [0, 2, 5])
    with pytest.raises(DomainError):
        PeriodicPartition(S, length, offsets)


def test_offsets_constructor_cuts_a_long_offset():
    S = helpers.system_of_type((4, 2))
    with pytest.raises(DomainError, match=r"offset '10{49}'\.\.\. \(61 characters\) is not in"):
        PeriodicPartition(S, 2, (0, 10**60))


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


def test_oracle_refuses_more_leaves_than_its_limit():
    # when every cycle wraps round, each of the m^cycles leaves is an answer,
    # and more of them than the limit are refused before the search starts;
    # when a cycle cannot wrap round, the answer is [] whatever the leaves
    assert dynsys.MAX_ENUMERATION == 1 << 16
    twos = (2,) * 17
    with pytest.raises(DomainError, match="would list more than 65536 partitions"):
        all_partitions(helpers.system_of_type(twos), 2, bound=40)
    assert all_partitions(helpers.system_of_type(twos + (3,)), 2, bound=40) == []
    assert all_partitions(helpers.system_of_type((3,) + twos), 2, bound=40) == []
    assert len(all_partitions(helpers.system_of_type((2,) * 12), 2, bound=40)) == 1 << 12


def test_oracle_refuses_more_points_than_the_limit(monkeypatch):
    # the limit counts points, not labelings: 4^3 partitions of 12 points
    S = helpers.system_of_type((4, 4, 4))
    monkeypatch.setattr(dynsys, "MAX_POINTS", 4**3 * 12)
    assert len(all_partitions(S, 4)) == 4**3
    monkeypatch.setattr(dynsys, "MAX_POINTS", 4**3 * 12 - 1)
    with pytest.raises(DomainError, match=f"would list more than {4**3 * 12 - 1} points"):
        all_partitions(S, 4)
    # a cycle that cannot wrap round is answered before the count is read
    assert all_partitions(helpers.system_of_type((4, 4, 3)), 4) == []


def test_oracle_takes_any_number_of_cycles():
    # the search once recursed one frame per cycle and overflowed the
    # interpreter's stack on about 1,000 cycles
    (P,) = all_partitions(FinSystem(tuple(range(1200))), 1, bound=1200)
    assert P.length == 1 and len(P.offsets) == 1200
    # a cycle m does not divide wraps round for no start label, so the
    # answer is [] before the 2^16 labelings of the 2-cycles are tried
    assert all_partitions(helpers.system_of_type((2,) * 16 + (3,)), 2, bound=40) == []


def test_oracle_matches_its_former_search():
    # answering [] up front and dealing each labeling in one pass list the
    # partitions the wrap-around search listed, in the same order
    for parts in helpers.all_cycle_types(6):
        S = helpers.system_of_type(parts)
        for m in range(1, 9):
            want = [Q.key() for Q in helpers.all_partitions_reference(S, m)]
            assert [Q.key() for Q in all_partitions(S, m)] == want, (parts, m)


def test_oracle_results_are_valid_and_distinct():
    S = helpers.system_of_type((2, 4))
    found = all_partitions(S, 2)
    assert len(found) == len(set(found))
    for Q in found:
        assert validate_partition(S, [sorted(b) for b in Q.blocks]).ok


def test_oracle_validates_each_candidate_once(monkeypatch):
    from adicdyn import dynsys

    calls = []
    real = dynsys._read_blocks

    def counting(system, blocks):
        calls.append(1)
        return real(system, blocks)

    monkeypatch.setattr(dynsys, "_read_blocks", counting)
    found = all_partitions(helpers.system_of_type((4, 4, 4)), 4)
    assert len(found) == 64
    assert len(calls) == 64


def test_from_blocks_refuses_boolean_point_ids():
    S = helpers.system_of_type((4,))
    with pytest.raises(DomainError, match="point ids out of range"):
        P(S, [0, 2], [True, 3])
    assert "point ids out of range" in validate_partition(S, [[0, 2], [True, 3]]).problems


def test_unhashable_point_ids_are_out_of_range():
    # an id no set can hold is no point: reported as such, not a TypeError
    S = helpers.system_of_type((2,))
    for blocks in ([[[0]], [1]], [[{}], [1]], [[0], [([1],)]]):
        assert validate_partition(S, blocks).problems == ("point ids out of range",)
        with pytest.raises(DomainError, match="^not a periodic partition: point ids out of range$"):
            P(S, *blocks)
        assert validate_chain(S, [[[0, 1]], blocks]).problems == (
            "level 1: point ids out of range",
        )


def _corrupted_levels(S, blocks, rng):
    """Named variants of the valid level blocks: itself, and the ways a
    block list can fail, or pass in spite of its form."""
    n, m = S.size, len(blocks)
    out = [("valid", blocks), ("no blocks", [])]
    # one cycle shifted a block forward (still a partition), or one point
    for name, c in [("shifted", rng.choice(S.cycles)), ("moved", [rng.randrange(n)])]:
        out.append((name, [
            sorted([x for x in blocks[j] if x not in c] + [x for x in blocks[j - 1] if x in c])
            for j in range(m)
        ]))
    if m > 1:
        i, j = rng.sample(range(m), 2)
        swapped = [list(b) for b in blocks]
        a, b = rng.randrange(len(swapped[i])), rng.randrange(len(swapped[j]))
        swapped[i][a], swapped[j][b] = swapped[j][b], swapped[i][a]
        out.append(("swapped", swapped))
    i = rng.randrange(m)
    point = rng.randrange(len(blocks[i]))
    for name, new in [("repeated", blocks[i] + [blocks[i][point]]),
                      ("missing", blocks[i][:point] + blocks[i][point + 1:])]:
        out.append((name, blocks[:i] + [new] + blocks[i + 1:]))
    for name, bad in [("id n", n), ("id -1", -1), ("id True", True),
                      ("replaced", rng.choice(blocks[i]))]:  # one twice, one missing
        new = list(blocks[i])
        new[point] = bad
        out.append((name, blocks[:i] + [new] + blocks[i + 1:]))
    k = rng.randrange(m + 1)
    out.append(("empty block", blocks[:k] + [[]] + blocks[k:]))
    return out


def test_validate_partition_matches_the_clause_check():
    # the one-pass accept gives the report of the clause-by-clause check,
    # valid or not, with blocks as lists or generators; from_blocks builds
    # the partition an accepted list describes, and refuses the others
    rng = helpers.seeded(613)
    systems = [S for S, _small in cross_check_systems()]
    for _ in range(200):
        g = rng.choice([1, 2, 3, 4, 6, 12])
        parts = [g * rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        systems.append(helpers.random_conjugate(helpers.system_of_type(tuple(parts)), rng))
    seen = set()
    for S in systems:
        periods = sorted(ess_periods(S)[0])
        for m in rng.sample(periods, min(3, len(periods))):
            Q = helpers.random_partition(S, m, rng)
            for name, blocks in _corrupted_levels(S, blocks_json(Q), rng):
                want = helpers.validate_partition_reference(S, blocks)
                for given in (blocks, (iter(b) for b in blocks)):
                    assert validate_partition(S, given) == want, name
                if want.ok:
                    R = PeriodicPartition.from_blocks(S, (iter(b) for b in blocks))
                    assert blocks_json(R) == [sorted(set(b)) for b in blocks]
                    assert R == helpers.rebuilt_from_labels(R)
                else:
                    message = "not a periodic partition: " + "; ".join(want.problems)
                    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                        PeriodicPartition.from_blocks(S, blocks)
                seen.add((name, want.ok))
    assert {("valid", True), ("repeated", True), ("shifted", True)} <= seen
    failing = ["moved", "swapped", "missing", "replaced", "id n", "id -1", "id True",
               "empty block", "no blocks"]
    assert {(name, False) for name in failing} <= seen


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


def test_comparisons_require_one_system():
    Q6 = canonical_partition(helpers.system_of_type((6,)), 2)
    Q4 = canonical_partition(helpers.system_of_type((4,)), 2)
    for compare in (are_equivalent, constant_label_offset, are_compatible):
        with pytest.raises(DomainError, match="partitions live on different systems"):
            compare(Q6, Q4)


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
    # the canonical partition refuses by the same rule, in the same words
    for m in (3, 4, True):
        with pytest.raises(DomainError, match=f"^no partition of length {m} exists$"):
            canonical_partition(S, m)


def test_canonical_partition_refuses_an_int_past_the_conversion_limit():
    # a length of more digits than Python converts to text is shown by its
    # bit length, and the refusal stays a DomainError
    S = helpers.system_of_type((2,))
    with pytest.raises(DomainError, match=r"^no partition of length <an int of 16610 bits> exists$"):
        canonical_partition(S, 10**5000)


def test_make_compatible_rejects_non_int_length():
    S = helpers.system_of_type((2, 2))
    for m in (2.0, "2", None, 0, -2, True):
        with pytest.raises(DomainError, match=f"no partition of length {m} exists"):
            make_compatible(trivial_partition(S), m)
        with pytest.raises(DomainError, match=f"no partition of length {m} exists"):
            enumerate_compatible(trivial_partition(S), m)


def test_every_integer_argument_is_checked_by_one_rule():
    """Each integer entry point refuses a bool, a float and an int out of
    its range as a domain error; listed with each are the values it refuses
    of True, 1.5, -1 and 0."""
    S = helpers.system_of_type((4, 4))
    P2 = canonical_partition(S, 2)
    chain = build_chain(S, [2, 4])
    base = BaseSequence((2, 4))
    every = (True, 1.5, -1, 0)
    points = (True, 1.5, -1, S.size)
    cases = [
        (lambda m: canonical_partition(S, m), every),
        (lambda m: all_partitions(S, m), every),
        (lambda m: extend_chain(chain, m), every),
        (lambda d: coarsen(P2, d), every),
        (lambda m: make_compatible(P2, m), every),
        (lambda m: enumerate_compatible(P2, m), every),
        (lambda n: build_chain(S, [n]), every),
        (lambda n: BaseSequence((n,)), every),
        (lambda n: phi0(n), every),
        (lambda n: phi_of_set([2, n]), every),
        (lambda k: extract_regular_sequence(phi0(12), k), every),
        (lambda k: max_odometer_factor(S, k), every),
        (lambda k: truncate(base, k), every),
        (lambda k: level_partition(base, k), every),
        (lambda j: cylinder(base, j, 0), every),
        (lambda a: cylinder(base, 1, a), (True, 1.5, -1, 2)),
        (lambda a: AdicInt(base, (a, 1)), (True, 1.5, -1, 2)),
        (lambda z: from_integer(base, z), (True, 1.5)),
        (lambda k: cyclic_shift(P2, k), (True, 1.5)),
        (lambda n: S.iterate(0, n), (True, 1.5)),
        (lambda x: P2.index_of(x), points),
        (lambda x: S.apply(x), points),
        (lambda x: S.cycle_of(x), points),
        (lambda x: normalize_coherent(chain, x), points),
        (lambda x: partition_from_return(S, x, {x}), points),
    ]
    for call, refused in cases:
        for value in refused:
            with pytest.raises(DomainError):
                call(value)


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
    with pytest.raises(DomainError, match="bad level True: levels are positive integers"):
        build_chain(S, [True, 2])
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
    assert "4 does not divide 2" in rep.problems
    # the levels may come as any iterable, read once: none is an empty chain
    assert validate_chain(S, iter(good)).ok
    for empty in ([], (), iter([]), (lv for lv in [])):
        assert validate_chain(S, empty).problems == ("empty chain",)


def test_chain_constructor_refuses_with_validate_chains_first_problem():
    S = helpers.system_of_type((2, 2))
    Q, R = P(S, [0, 2], [1, 3]), P(S, [0, 3], [1, 2])
    with pytest.raises(DomainError, match="a chain needs at least one level"):
        dynsys.PartitionChain(())
    T = trivial_partition(helpers.system_of_type((4,)))
    with pytest.raises(DomainError, match="chain mixes systems"):
        dynsys.PartitionChain((trivial_partition(S), T))
    with pytest.raises(DomainError, match="^2 does not divide 1$"):
        dynsys.PartitionChain((Q, trivial_partition(S)))
    with pytest.raises(DomainError, match="^levels 0 and 1 are incompatible$"):
        dynsys.PartitionChain((Q, R))
    # the first of several problems: divisibility is listed before compatibility
    with pytest.raises(DomainError, match="^2 does not divide 1$"):
        dynsys.PartitionChain((Q, R, trivial_partition(S)))
    assert validate_chain(S, [blocks_json(Q), blocks_json(R)]).problems == (
        "levels 0 and 1 are incompatible",
        "level 1 does not refine level 0 blockwise",
    )


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


# ------------------------------------------- closed forms vs definitions


def cross_check_systems():
    """Random systems of at most 12 points, and a few of thousands."""
    rng = helpers.seeded(606)
    small = [helpers.random_periodic_system(12, rng) for _ in range(80)]
    large = [
        helpers.random_conjugate(helpers.system_of_type(parts), rng)
        for parts in [(2520,), (840, 1680, 2520), (12,) * 300, (6, 12, 18) * 150]
    ]
    return [(S, True) for S in small] + [(S, False) for S in large]


def test_offset_constructions_pass_the_labeling_check(monkeypatch):
    # every partition a construction returns is the one the checked
    # constructor builds from the offsets its labels step by; none runs the
    # check itself
    rng = helpers.seeded(607)
    built = []
    calls = []
    check = PeriodicPartition.__post_init__
    monkeypatch.setattr(PeriodicPartition, "__post_init__", lambda P: calls.append(P))
    for S, small in cross_check_systems():
        periods = sorted(ess_periods(S)[0])
        top = periods[-1]
        if small:
            for m in set(range(1, S.size + 1)) - set(periods):
                with pytest.raises(DomainError, match=f"no partition of length {m}"):
                    canonical_partition(S, m)
        else:
            periods = rng.sample(periods, min(4, len(periods)))
        for m1 in periods:
            C = canonical_partition(S, m1)
            P1 = cyclic_shift(C, rng.randrange(m1))
            built += [C, P1] + [coarsen(P1, d) for d in helpers.divisors(m1)]
            for m2 in periods:
                Q = make_compatible(P1, m2)
                built += [Q, lcm_partition(P1, Q)]
                if small and m2 ** len(S.cycles) <= 200:
                    built += [P for P, _ in enumerate_compatible(P1, m2)]
        chains = helpers.saturated_chains(top)
        for lengths in rng.sample(chains, min(3, len(chains))):
            built += build_chain(S, lengths + lengths[-1:]).partitions
    assert calls == []
    monkeypatch.setattr(PeriodicPartition, "__post_init__", check)
    for P in built:
        assert helpers.rebuilt_from_labels(P) == P


def test_lcm_labels_match_the_pointwise_crt():
    rng = helpers.seeded(608)
    for S, small in cross_check_systems():
        periods = sorted(ess_periods(S)[0])
        for _ in range(20 if small else 3):
            m1, m2 = rng.choice(periods), rng.choice(periods)
            P1 = helpers.random_partition(S, m1, rng)
            Q = make_compatible(P1, m2)
            R = lcm_partition(P1, Q)
            assert list(R.labels) == helpers.lcm_labels_reference(P1, Q)


def test_label_offset_and_refinement_match_their_definitions():
    rng = helpers.seeded(609)
    for S, small in cross_check_systems():
        periods = sorted(ess_periods(S)[0])
        for _ in range(20 if small else 3):
            m1, m2 = rng.choice(periods), rng.choice(periods)
            P1, P2 = (helpers.random_partition(S, m, rng) for m in (m1, m2))
            d = gcd(m1, m2)
            diffs = {(b - a) % d for a, b in zip(P1.labels, P2.labels)}
            want = diffs.pop() if len(diffs) == 1 else None
            assert constant_label_offset(P1, P2) == want
            # a two-level chain, coarse level first, as validate_chain gets it
            A, B = sorted((P1, P2), key=lambda P: P.length)
            if B.length % A.length == 0:
                rep = validate_chain(S, [blocks_json(A), blocks_json(B)])
                refined = "level 1 does not refine level 0 blockwise" not in rep.problems
                assert refined == refines(B.labels, A.labels)


def test_enumerate_compatible_order_is_the_block_list_order():
    # candidates are sorted from their offsets alone; the order must be that
    # of key(), and class ids must number the sets of blocks as they appear
    rng = helpers.seeded(610)
    for S, small in cross_check_systems():
        periods = sorted(ess_periods(S)[0])
        for _ in range(6):
            m1, m2 = rng.choice(periods), rng.choice(periods)
            if m2 * (m2 // gcd(m1, m2)) ** (len(S.cycles) - 1) > (300 if small else 40):
                continue
            tagged = enumerate_compatible(helpers.random_partition(S, m1, rng), m2)
            found = [Q for Q, _ in tagged]
            assert found == sorted(found, key=PeriodicPartition.key)
            ids = {}
            assert [cid for _, cid in tagged] == [
                ids.setdefault(frozenset(Q.blocks), len(ids)) for Q in found
            ]


def test_outside_levels_are_checked_once(monkeypatch):
    # from_blocks and validate_chain admit a level through validate_partition
    # alone, without the checked constructor's own check of the fields
    rng = helpers.seeded(611)
    calls = []
    check = PeriodicPartition.__post_init__
    monkeypatch.setattr(PeriodicPartition, "__post_init__", lambda P: calls.append(P) or check(P))
    for S, _small in cross_check_systems():
        chains = helpers.saturated_chains(max(ess_periods(S)[0]))
        chain = build_chain(S, rng.choice(chains))
        levels = [
            blocks_json(cyclic_shift(Q, rng.randrange(Q.length))) for Q in chain.partitions
        ]
        assert validate_chain(S, levels).ok
        for blocks, Q in zip(levels, chain.partitions):
            R = PeriodicPartition.from_blocks(S, blocks)
            assert blocks_json(R) == blocks and are_equivalent(R, Q)
    assert calls == []


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
