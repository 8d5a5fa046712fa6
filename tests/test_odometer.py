"""Adic residue arithmetic, the metric, cylinders, and finite truncations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicdyn import (
    AdicInt,
    BaseSequence,
    DomainError,
    ParseError,
    add,
    coarsen,
    cylinder,
    ess_of_odometer,
    format_adic,
    format_base,
    format_supernatural,
    from_integer,
    level_partition,
    metric,
    neg,
    parse_adic,
    parse_base,
    phi0,
    translate,
    trivial_partition,
    truncate,
    validate_partition,
)
from adicdyn.dynsys import MAX_POINTS
from helpers import cylinder_contains

BASES = [
    (2, 4, 8),
    (2, 4),
    (3, 6, 12),
    (5,),
    (6, 6),
    (1, 2, 6),
    (2, 2, 2),
    (10, 20),
]

bases = st.sampled_from(BASES).map(BaseSequence)


@st.composite
def chains(draw):
    """A random divisibility chain of one to four levels."""
    levels = [draw(st.integers(min_value=1, max_value=12))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        levels.append(levels[-1] * draw(st.integers(min_value=1, max_value=6)))
    return BaseSequence(tuple(levels))


ints = st.integers(min_value=-10**9, max_value=10**9)


def test_base_sequence_validation():
    BaseSequence((2, 4, 8))
    BaseSequence((6, 6, 6))  # bounded chains are allowed
    with pytest.raises(DomainError):
        BaseSequence((2, 3))
    with pytest.raises(DomainError):
        BaseSequence((0, 2))
    with pytest.raises(DomainError):
        BaseSequence(())


def test_adic_coherence_validation():
    base = BaseSequence((2, 4, 8))
    AdicInt(base, (1, 1, 5))
    with pytest.raises(DomainError):
        AdicInt(base, (1, 2, 5))  # 2 mod 2 != 1
    with pytest.raises(DomainError):
        AdicInt(base, (1, 1))
    with pytest.raises(DomainError):
        AdicInt(base, (1, 1, 9))


def test_from_integer_examples():
    base = BaseSequence((2, 4, 8))
    assert from_integer(base, 1).residues == (1, 1, 1)
    assert from_integer(base, 0).residues == (0, 0, 0)
    assert from_integer(base, 5).residues == (1, 1, 5)
    assert from_integer(base, -1).residues == (1, 3, 7)


def test_componentwise_add():
    base = BaseSequence((2, 4))
    x = AdicInt(base, (1, 3))
    y = AdicInt(base, (1, 1))
    assert add(x, y).residues == (0, 0)


def test_group_identities():
    base = BaseSequence((2, 4, 8))
    x = from_integer(base, 5)
    zero = from_integer(base, 0)
    assert add(x, neg(x)) == zero
    assert translate(x) == add(x, from_integer(base, 1))


def test_translate_order_is_last_level():
    base = BaseSequence((2, 4, 8))
    x = from_integer(base, 3)
    y = x
    for _ in range(8):
        y = translate(y)
    assert y == x


def test_base_mismatch_rejected():
    x = from_integer(BaseSequence((2, 4)), 1)
    y = from_integer(BaseSequence((2, 6)), 1)
    with pytest.raises(DomainError):
        add(x, y)
    with pytest.raises(DomainError):
        metric(x, y)


@given(bases, ints, ints, ints)
def test_add_laws(base, p, q, r):
    x, y, z = (from_integer(base, v) for v in (p, q, r))
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, neg(x)) == from_integer(base, 0)
    assert add(x, y) == from_integer(base, p + q)


@given(bases, ints)
def test_coherence_preserved_by_everything(base, p):
    x = from_integer(base, p)
    for y in (x, neg(x), translate(x), add(x, x)):
        AdicInt(base, y.residues)  # re-validates coherence


@given(st.one_of(bases, chains()), ints, ints)
def test_results_are_what_the_public_constructor_builds(base, p, q):
    x, y = from_integer(base, p), from_integer(base, q)
    for r in (x, add(x, y), neg(x), translate(x)):
        assert AdicInt(r.base, r.residues) == r
    assert translate(x) == from_integer(base, p + 1)
    assert neg(x) == from_integer(base, -p)


@pytest.mark.parametrize("levels", [(2, 4, 12), (1, 3, 3, 9), (5, 10)])
def test_residues_are_integer_arithmetic_mod_the_top_level(levels):
    """Every point of three small bases, and every pair for add, against
    the residues of z mod n_k computed from the integers themselves."""
    base = BaseSequence(levels)
    nK = levels[-1]

    def residues(z):
        return tuple(z % n for n in levels)

    pts = [from_integer(base, z) for z in range(-nK, 2 * nK)]
    for z, x in zip(range(-nK, 2 * nK), pts):
        assert type(x.residues) is tuple and x.residues == residues(z)
        assert neg(x).residues == residues(-z)
        assert translate(x).residues == residues(z + 1)
        for w, y in zip(range(-nK, 2 * nK), pts):
            assert add(x, y).residues == residues(z + w)
        for r in (neg(x), translate(x), add(x, x)):
            assert type(r.residues) is tuple and r.base is base


def test_from_integer_rejects_non_integers():
    with pytest.raises(DomainError):
        from_integer(BaseSequence((2, 4)), 2.0)


# ------------------------------------------------------------- metric


def test_metric_identity_flag():
    base = BaseSequence((2, 4, 8))
    x = from_integer(base, 3)
    d = metric(x, x)
    assert d.value == 0 and d.agrees_to_depth


def test_metric_first_disagreement():
    base = BaseSequence((2, 4))
    d = metric(from_integer(base, 0), from_integer(base, 1))
    assert d.value == Fraction(1, 2) and not d.agrees_to_depth
    d = metric(from_integer(base, 0), from_integer(base, 2))
    assert d.value == Fraction(1, 4)


@given(bases, ints, ints, ints)
def test_metric_is_translation_invariant(base, p, q, shift):
    x, y = from_integer(base, p), from_integer(base, q)
    t = from_integer(base, shift)
    assert metric(add(x, t), add(y, t)) == metric(x, y)


@given(bases, ints, ints)
def test_metric_symmetry(base, p, q):
    x, y = from_integer(base, p), from_integer(base, q)
    assert metric(x, y) == metric(y, x)


def test_minimality_orbit_covers_truncation():
    for levels in BASES:
        base = BaseSequence(levels)
        x = from_integer(base, 0)
        seen = set()
        for _ in range(levels[-1]):
            seen.add(x.residues)
            x = translate(x)
        assert len(seen) == levels[-1]


# ------------------------------------------------------------- cylinders


def test_generator_lies_in_its_cylinders():
    base = BaseSequence((2, 4, 8))
    e = from_integer(base, 1)
    for j in range(1, base.depth + 1):
        assert cylinder_contains(base, j, e.residues[j - 1], e)


def test_cylinders_partition_each_level():
    base = BaseSequence((2, 4, 8))
    points = [from_integer(base, z) for z in range(8)]
    for j, n_j in enumerate(base.levels, start=1):
        for x in points:
            assert sum(cylinder_contains(base, j, r, x) for r in range(n_j)) == 1


def test_cylinder_intersection_is_cylinder_or_empty():
    base = BaseSequence((2, 4, 8))
    full = [from_integer(base, z) for z in range(8)]
    for (j1, r1), (j2, r2) in itertools.product(
        [(j, r) for j, n in enumerate(base.levels, 1) for r in range(n)],
        repeat=2,
    ):
        got = {
            x.residues
            for x in full
            if cylinder_contains(base, j1, r1, x) and cylinder_contains(base, j2, r2, x)
        }
        j = max(j1, j2)
        candidates = [
            frozenset(
                x.residues for x in full if cylinder_contains(base, j, r, x)
            )
            for r in range(base.levels[j - 1])
        ]
        assert got == set() or frozenset(got) in candidates


def test_cylinder_residue_range():
    base = BaseSequence((2, 4))
    with pytest.raises(DomainError):
        cylinder(base, 1, 2)
    with pytest.raises(DomainError):
        cylinder(base, 3, 0)


# ------------------------------------------------------------- truncations


def test_truncate_examples():
    base = BaseSequence((2, 4, 8))
    T = truncate(base, 1)
    assert T.size == 2 and T.apply(1) == 0
    assert len(truncate(base, 3).cycles) == 1  # single cycle: indecomposable


def test_truncations_and_cylinders_are_bounded():
    with pytest.raises(DomainError, match="larger than the limit"):
        truncate(BaseSequence((MAX_POINTS + 1,)), 1)
    with pytest.raises(DomainError, match="larger than the limit"):
        level_partition(BaseSequence((1, MAX_POINTS + 1)), 1)
    # a cylinder is its members, listed lazily
    assert cylinder(BaseSequence((2, 4, 8)), 2, 1) == range(1, 8, 4)
    assert len(cylinder(BaseSequence((2, 4 * MAX_POINTS)), 1, 1)) == 2 * MAX_POINTS


def test_truncate_refuses_an_int_past_the_conversion_limit():
    # 10^5000 has more digits than Python converts to text: the refusal
    # shows its bit length, and stays a DomainError
    with pytest.raises(DomainError, match=r"^a truncation of <an int of 16610 bits> points"):
        truncate(BaseSequence((10**5000,)), 1)


def test_cylinder_refuses_an_int_past_the_conversion_limit():
    big = BaseSequence((10**5000,))
    with pytest.raises(
        DomainError,
        match=r"^residue <an int of 16610 bits> out of range for modulus <an int of 16610 bits>$",
    ):
        cylinder(big, 1, 10**5000)
    with pytest.raises(DomainError, match=r"^residue <a negative int of 16610 bits> out"):
        cylinder(big, 1, -(10**5000))
    assert cylinder(big, 1, 3) == range(3, 10**5000, 10**5000)


def test_cylinder_quotes_its_modulus_only_on_refusal(monkeypatch):
    # the refusal text is built when a residue is refused, not on every call
    from adicdyn import odometer

    def refused(value):
        raise AssertionError("quoted() called on an answered call")

    monkeypatch.setattr(odometer, "quoted", refused)
    assert cylinder(BaseSequence((10**4000,)), 1, 3) == range(3, 10**4000, 10**4000)
    assert AdicInt(BaseSequence((2, 10**4000)), (1, 3)).residues == (1, 3)


def test_adic_int_takes_a_modulus_past_the_conversion_limit():
    # a valid vector is answered whatever its modulus; an invalid one is
    # refused as a DomainError that shows the modulus by its bit length
    big = BaseSequence((10**5000,))
    assert AdicInt(big, (3,)).residues == (3,)
    with pytest.raises(
        DomainError,
        match=r"^residue <an int of 16610 bits> out of range for modulus <an int of 16610 bits>$",
    ):
        AdicInt(big, (10**5000,))
    with pytest.raises(DomainError, match=r"^residue 'a' out of range for modulus <an int of"):
        AdicInt(big, ("a",))


def test_level_partition_examples():
    base = BaseSequence((2, 4))
    Q = level_partition(base, 1)
    assert sorted(sorted(b) for b in Q.blocks) == [[0, 2], [1, 3]]
    one = BaseSequence((1, 2))
    assert level_partition(one, 1) == trivial_partition(truncate(one, 2))


def test_level_partition_valid_at_all_levels():
    base = BaseSequence((3, 6, 12))
    T = truncate(base, base.depth)
    for k in range(1, base.depth + 1):
        Q = level_partition(base, k)
        assert validate_partition(T, [sorted(b) for b in Q.blocks]).ok


def test_level_partition_is_coarsening_of_full_cycle():
    base = BaseSequence((3, 6, 12))
    T = truncate(base, base.depth)
    finest = level_partition(base, base.depth)
    for k in range(1, base.depth + 1):
        assert level_partition(base, k) == coarsen(finest, base.levels[k - 1])


def test_ess_of_odometer():
    assert format_supernatural(ess_of_odometer(BaseSequence((2, 4, 8)))) == "2^3"
    assert ess_of_odometer(BaseSequence((6, 6, 6))) == phi0(6)


# ------------------------------------------------------------- literals


def test_base_round_trip():
    assert format_base(parse_base("2,4,8")) == "2,4,8"
    assert parse_base(" 2, 4 ,8 ") == BaseSequence((2, 4, 8))
    with pytest.raises(ParseError):
        parse_base("2,,4")
    with pytest.raises(ParseError):
        parse_base("2,x")
    with pytest.raises(ParseError):
        parse_base("2,3")  # shape is fine, divisibility is not


def test_adic_round_trip():
    base = parse_base("2,4,8")
    x = parse_adic(base, "[1,1,5]")
    assert x.residues == (1, 1, 5)
    assert format_adic(x) == "[1,1,5]"
    assert str(x) == format_adic(x)
    assert parse_adic(base, " [ 1 , 1 , 5 ] ") == x
    with pytest.raises(ParseError):
        parse_adic(base, "[1,1]")
    with pytest.raises(ParseError):
        parse_adic(base, "1,1,5")
    with pytest.raises(ParseError):
        parse_adic(base, "[1,2,5]")  # incoherent


@given(bases, ints)
@settings(deadline=None)
def test_adic_literal_round_trip(base, z):
    x = from_integer(base, z)
    assert parse_adic(base, format_adic(x)) == x
