"""Lattice arithmetic, the factorization embedding, and literal parsing."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicdyn import (
    E,
    INF,
    TOP,
    DomainError,
    ParseError,
    BaseSequence,
    Supernatural,
    extract_regular_sequence,
    format_supernatural,
    gcd,
    lcm,
    leq,
    mul,
    parse_supernatural,
    phi0,
    phi_of_set,
    regular_contains,
    seq_dominates,
)
from adicdyn.supernatural import PRIMALITY_LIMIT

import helpers

PRIMES = (2, 3, 5, 7, 11, 13)

exponents = st.one_of(st.integers(min_value=0, max_value=5), st.just(INF))


@st.composite
def supernaturals(draw):
    ps = draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=4))
    default = draw(st.sampled_from((0, INF)))
    exps = tuple((p, draw(exponents)) for p in ps)
    return Supernatural(exps, default)


naturals = st.integers(min_value=1, max_value=10**6)


@st.composite
def tables(draw):
    """A raw prime -> exponent table with its default, default=inf included."""
    ps = draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=4))
    return {p: draw(exponents) for p in ps}, draw(st.sampled_from((0, INF)))


def _value(table):
    exps, default = table
    return Supernatural(tuple(exps.items()), default)


def _num(e):
    return math.inf if e is INF else e


def _reference(op, x, y):
    """op applied prime by prime to float exponents, straight from the
    definition, and built through the public constructor."""
    (tx, dx), (ty, dy) = x, y
    exps = []
    for p in PRIMES:
        e = op(_num(tx.get(p, dx)), _num(ty.get(p, dy)))
        exps.append((p, INF if e == math.inf else e))
    d = op(_num(dx), _num(dy))
    return Supernatural(tuple(exps), INF if d == math.inf else d)


def _reference_leq(x, y):
    (tx, dx), (ty, dy) = x, y
    return _num(dx) <= _num(dy) and all(
        _num(tx.get(p, dx)) <= _num(ty.get(p, dy)) for p in PRIMES
    )


def assert_canonical(R):
    """R is exactly what the validating public constructor makes of its fields."""
    assert Supernatural(R.exps, R.default) == R


# ------------------------------------------------------------ construction


def test_canonical_form_strips_default_entries():
    assert Supernatural(((2, 0), (3, 2))) == Supernatural(((3, 2),))
    assert Supernatural(((2, INF),), INF) == TOP
    assert Supernatural(()) == E


def test_entries_sorted_by_prime():
    a = Supernatural(((5, 1), (2, 3)))
    assert a.exps == ((2, 3), (5, 1))


def test_rejects_bad_entries():
    with pytest.raises(DomainError):
        Supernatural(((4, 2),))  # composite base
    with pytest.raises(DomainError):
        Supernatural(((2, 1), (2, 3)))  # duplicate prime
    with pytest.raises(DomainError):
        Supernatural(((2, -1),))
    with pytest.raises(DomainError):
        Supernatural((), default=2)


def test_exponent_lookup():
    a = parse_supernatural("2^3*5^inf")
    assert a.exponent(2) == 3
    assert a.exponent(5) is INF
    assert a.exponent(7) == 0
    assert TOP.exponent(9973) is INF


# ------------------------------------------------------------ frozen values


def test_worked_gcd_lcm_example():
    m = parse_supernatural("2^inf*3")
    n = parse_supernatural("2^2*3^inf")
    assert format_supernatural(gcd(m, n)) == "2^2*3"
    assert format_supernatural(lcm(m, n)) == "2^inf*3^inf"


def test_mul_examples():
    assert mul(E, parse_supernatural("2^3")) == parse_supernatural("2^3")
    a = mul(parse_supernatural("2^inf"), parse_supernatural("2^5*3"))
    assert format_supernatural(a) == "2^inf*3"
    assert mul(TOP, parse_supernatural("7")) == TOP


def test_phi0_values():
    assert phi0(1) == E
    assert format_supernatural(phi0(12)) == "2^2*3"
    assert format_supernatural(phi0(216)) == "2^3*3^3"
    assert mul(phi0(12), phi0(18)) == phi0(216)


def test_phi0_past_trial_division():
    # 2^61 - 1 is prime; the product of two primes above the trial-division
    # bound is split by rho
    assert phi0(2305843009213693951).exps == ((2305843009213693951, 1),)
    R = phi0(2147483629 * 2147483647)
    assert R.exps == ((2147483629, 1), (2147483647, 1))
    assert phi0(2**5 * 3 * 2147483647**2).exps == ((2, 5), (3, 1), (2147483647, 2))
    assert_canonical(R)


def test_phi0_refuses_cofactor_past_primality_limit():
    p, q = 1125899906842679, 1125899906842723  # the two primes after 2^50
    assert phi0(p).exps == ((p, 1),)
    with pytest.raises(DomainError):
        phi0(p * q)


def test_primality_is_exact_below_the_limit():
    # strong pseudoprimes to the first 9 and to the first 12 prime bases
    for n in (3825123056546413051, 318665857834031151167461):
        with pytest.raises(DomainError):
            Supernatural(((n, 1),))
    Supernatural(((2305843009213693951, 1),))
    Supernatural(((1000000000000000000000007, 1),))
    n = 1125899906842679 * 1125899906842723  # no prime factor below 2^50
    assert n > PRIMALITY_LIMIT
    with pytest.raises(DomainError, match="cannot decide"):
        Supernatural(((n, 1),))
    with pytest.raises(DomainError, match="not prime"):
        Supernatural(((3 * n, 1),))


def test_primality_matches_trial_division():
    for n in range(-2, 5000):
        is_prime = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
        if is_prime:
            Supernatural(((n, 1),))
        else:
            with pytest.raises(DomainError):
                Supernatural(((n, 1),))


@given(st.integers(min_value=1, max_value=10**12))
def test_phi0_is_a_factorization(n):
    R = phi0(n)
    assert_canonical(R)
    assert math.prod(p**e for p, e in R.exps) == n


def test_phi0_rejects_nonpositive():
    with pytest.raises(DomainError):
        phi0(0)
    with pytest.raises(DomainError):
        phi0(-6)


def test_phi_of_set_is_lcm_of_images():
    assert phi_of_set([2, 3, 4]) == phi0(12)
    assert phi_of_set([1]) == E
    assert phi_of_set([6, 10, 15]) == phi0(30)


def test_regular_contains():
    R = phi0(12)
    assert regular_contains(R, 1)
    assert regular_contains(R, 4)
    assert regular_contains(R, 12)
    assert not regular_contains(R, 8)
    assert not regular_contains(R, 5)
    assert regular_contains(TOP, 720720)


# ------------------------------------------------------------ literals


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("1", "1"),
        ("2", "2"),
        ("2^1", "2"),
        ("3*2", "2*3"),
        ("2^inf*3", "2^inf*3"),
        ("2^0*3", "3"),
        (";default=inf", ";default=inf"),
        ("2^3;default=inf", "2^3;default=inf"),
        ("2^inf;default=inf", ";default=inf"),
        ("  2 ^ 2 * 3 ", "2^2*3"),
    ],
)
def test_parse_format_canonicalizes(text, canonical):
    assert format_supernatural(parse_supernatural(text)) == canonical


@pytest.mark.parametrize(
    "bad",
    ["", "0", "-2", "2^^3", "4^2", "2*2", "2^", "^3", "2^-1", "2;default=3",
     "2**3", "two"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_supernatural(bad)


@given(supernaturals())
def test_format_parse_round_trip(a):
    assert parse_supernatural(format_supernatural(a)) == a


# ------------------------------------------------------------ algebraic laws


@given(tables(), tables())
def test_operations_match_per_prime_reference(x, y):
    M, N = _value(x), _value(y)
    for op, ref in ((mul, lambda a, b: a + b), (gcd, min), (lcm, max)):
        R = op(M, N)
        assert R == _reference(ref, x, y)
        assert_canonical(R)
    assert leq(M, N) == _reference_leq(x, y)


@given(st.lists(naturals, min_size=1, max_size=5))
def test_phi_of_set_results_are_canonical(values):
    R = phi_of_set(values)
    assert_canonical(R)
    assert R == phi0(math.lcm(*values))


@given(supernaturals(), supernaturals())
def test_mul_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(supernaturals(), supernaturals(), supernaturals())
def test_mul_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(supernaturals())
def test_mul_identity(a):
    assert mul(a, E) == a


@given(supernaturals(), supernaturals())
def test_gcd_lcm_commute(a, b):
    assert gcd(a, b) == gcd(b, a)
    assert lcm(a, b) == lcm(b, a)


@given(supernaturals(), supernaturals(), supernaturals())
def test_gcd_lcm_associate(a, b, c):
    assert gcd(gcd(a, b), c) == gcd(a, gcd(b, c))
    assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))


@given(supernaturals(), supernaturals())
def test_absorption(a, b):
    assert lcm(a, gcd(a, b)) == a
    assert gcd(a, lcm(a, b)) == a


@given(supernaturals())
def test_order_bounds(a):
    assert leq(E, a)
    assert leq(a, TOP)
    assert leq(a, a)


@given(supernaturals(), supernaturals())
def test_leq_antisymmetric(a, b):
    if leq(a, b) and leq(b, a):
        assert a == b


@given(supernaturals(), supernaturals(), supernaturals())
def test_leq_transitive(a, b, c):
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


@given(supernaturals(), supernaturals())
def test_gcd_is_meet_lcm_is_join(a, b):
    g, l = gcd(a, b), lcm(a, b)
    assert leq(g, a) and leq(g, b)
    assert leq(a, l) and leq(b, l)
    # leq(x, a) & leq(x, b) => leq(x, g): check with x = g itself plus E
    assert leq(a, b) == (g == a)
    assert leq(a, b) == (l == b)


@given(supernaturals(), supernaturals(), supernaturals())
def test_mul_isotone(a, b, c):
    if leq(a, b):
        assert leq(mul(a, c), mul(b, c))


@given(naturals, naturals)
def test_phi0_is_multiplicative(n, m):
    assert phi0(n * m) == mul(phi0(n), phi0(m))


@given(naturals, naturals)
def test_phi0_sends_gcd_lcm_to_meet_join(n, m):
    assert phi0(math.gcd(n, m)) == gcd(phi0(n), phi0(m))
    assert phi0(math.lcm(n, m)) == lcm(phi0(n), phi0(m))


def test_divisibility_matches_order_exhaustive():
    # n | m  <=>  phi0(n) <= phi0(m); forward direction over all divisor
    # pairs up to 10^4, both directions over the 300 x 300 grid.
    for m in range(1, 10**4 + 1):
        pm = phi0(m)
        for n in helpers.divisors(m):
            assert leq(phi0(n), pm)
    table = [None] + [phi0(k) for k in range(1, 301)]
    for n in range(1, 301):
        for m in range(1, 301):
            assert leq(table[n], table[m]) == (m % n == 0)


# ------------------------------------------------------------ sequences


def test_regular_seq_requires_divisibility():
    BaseSequence((2, 4, 12))
    with pytest.raises(DomainError):
        BaseSequence((2, 3))
    with pytest.raises(DomainError):
        BaseSequence(())
    with pytest.raises(DomainError):
        BaseSequence((0, 2))


def test_one_divisibility_chain_type():
    import adicdyn
    from adicdyn import odometer, supernatural

    assert supernatural.RegularSeq is supernatural.BaseSequence is odometer.BaseSequence
    assert adicdyn.BaseSequence is BaseSequence
    assert adicdyn.format_base is supernatural.format_base
    assert not hasattr(adicdyn, "RegularSeq") and "RegularSeq" not in adicdyn.__all__
    assert str(extract_regular_sequence(phi0(12), 3)) == "2,12,12"


def test_extract_example():
    seq = extract_regular_sequence(phi0(12), 5)
    assert seq.levels == (2, 12, 12, 12, 12)


def test_extract_converges_to_finite_targets():
    R = phi0(360)
    seq = extract_regular_sequence(R, 8)
    vals = seq.levels
    assert vals[-1] == 360
    assert phi_of_set(vals) == R


def test_subsequence_keeping_last_term_has_same_span():
    # in a divisibility chain the last term swallows the rest, so any
    # subsequence that retains it spans the same supernatural
    vals = extract_regular_sequence(phi0(360), 7).levels
    full = phi_of_set(vals)
    for r in range(len(vals)):
        for combo in itertools.combinations(range(len(vals) - 1), r):
            picked = [vals[i] for i in combo] + [vals[-1]]
            assert phi_of_set(picked) == full


def test_extract_approaches_infinite_exponents():
    R = parse_supernatural("2^inf*3")
    vals = extract_regular_sequence(R, 6).levels
    # every term divides the next and stays inside R
    for v in vals:
        assert regular_contains(R, v)
    assert vals[-1] == 2**6 * 3


def test_extract_rejects_cofinite_support():
    with pytest.raises(DomainError):
        extract_regular_sequence(TOP, 4)


@given(supernaturals(), st.integers(min_value=1, max_value=7))
@settings(deadline=None)
def test_extract_output_is_regular_and_dominated(a, depth):
    if a.default is INF:
        return
    seq = extract_regular_sequence(a, depth)
    assert seq.depth == depth
    assert leq(phi_of_set(seq.levels), a)


@given(tables(), st.integers(min_value=1, max_value=7))
def test_extract_output_is_a_valid_chain(x, depth):
    if x[1] is INF:
        return
    seq = extract_regular_sequence(_value(x), depth)
    assert BaseSequence(seq.levels) == seq


def test_seq_dominates():
    a = BaseSequence((2, 4, 8))
    assert seq_dominates(a, a)
    assert seq_dominates(a, BaseSequence((6, 24, 48)))
    assert not seq_dominates(BaseSequence((3, 9)), a)
    assert seq_dominates(BaseSequence((1,)), a)
    assert not seq_dominates(a, BaseSequence((1,)))


@given(supernaturals(), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
@settings(deadline=None)
def test_deeper_extraction_dominates_shallower(a, d1, d2):
    if a.default is INF:
        return
    lo, hi = sorted((d1, d2))
    assert seq_dominates(extract_regular_sequence(a, lo),
                         extract_regular_sequence(a, hi))
