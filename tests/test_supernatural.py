"""Lattice arithmetic, the factorization embedding, and literal parsing."""

import copy
import itertools
import math
import pickle

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
)
from adicdyn.supernatural import PRIMALITY_LIMIT, _SMALL_PRIME, _is_prime

import helpers
from helpers import regular_contains, seq_dominates

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


def test_rejects_non_int_defaults_and_exponents():
    # bool is an int subclass and 0.0 == 0: neither may enter a value
    for default in (0.0, False, True, 0.5):
        with pytest.raises(DomainError, match="default exponent"):
            Supernatural(((2, 3),), default=default)
    for e in (True, False, 2.0, 0.0):
        with pytest.raises(DomainError, match="bad exponent"):
            Supernatural(((3, e),))
    with pytest.raises(DomainError):
        mul(Supernatural(((2, 3),), default=0.0), parse_supernatural("3^2*5"))


def test_phi0_and_phi_of_set_refuse_bools():
    for bad in (True, False, 2.0):
        with pytest.raises(DomainError, match="positive integer"):
            phi0(bad)
    with pytest.raises(DomainError, match="positive integer"):
        phi_of_set([True, 2])
    with pytest.raises(DomainError, match="positive integer"):
        phi_of_set([2, False])
    with pytest.raises(DomainError, match="phi of the empty set is undefined"):
        phi_of_set([])


def test_exponent_lookup():
    a = parse_supernatural("2^3*5^inf")
    assert a.exponent(2) == 3
    assert a.exponent(5) is INF
    assert a.exponent(7) == 0
    assert TOP.exponent(9973) is INF


def test_inf_orders_above_every_int_and_absorbs_addition():
    for n in (0, 1, 10**30):
        assert not INF < n and not INF <= n and INF > n and INF >= n
        assert n < INF and n <= INF and not n > INF and not n >= INF
        assert INF + n is INF and n + INF is INF
    assert not INF < INF and INF <= INF and not INF > INF and INF >= INF
    assert INF + INF is INF
    assert repr(INF) == "inf" and type(INF)() is INF


def test_inf_survives_pickle_and_deepcopy_as_itself():
    # the merge walk matches INF by identity, so a copied value must still
    # hold the one INF
    a, top = parse_supernatural("2^inf*3"), parse_supernatural("5;default=inf")
    for copied in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        b, t = copied(a), copied(top)
        assert (b, t) == (a, top) and b.exps[0][1] is INF and t.default is INF
        assert format_supernatural(gcd(b, parse_supernatural("2^5*3^2"))) == "2^5*3"
        assert format_supernatural(lcm(b, t)) == format_supernatural(lcm(a, top))


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


def _trial_division(n):
    exps = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            exps.append((d, k))
        d += 1
    if n > 1:
        exps.append((n, 1))
    return tuple(exps)


def test_phi0_matches_trial_division_below_2_16():
    for n in range(1, 1 << 16):
        assert phi0(n).exps == _trial_division(n)


def test_small_prime_sieve_agrees_with_is_prime():
    # Supernatural(...) looks primes below 2^14 up in the sieve
    for n in range(-16, 1 << 14):  # -3 would read the entry of 16381
        assert (n >= 0 and _SMALL_PRIME[n] == 1) == _is_prime(n), n
        try:
            Supernatural(((n, 1),))
        except DomainError as exc:
            assert str(exc) == f"{n!r} is not prime" and not _is_prime(n)
        else:
            assert _is_prime(n)
    for p in (True, 2.0, 16385):  # 16385 = 5 * 29 * 113
        with pytest.raises(DomainError, match="is not prime"):
            Supernatural(((p, 1),))
    assert Supernatural(((16411, 1),)).exps == ((16411, 1),)  # 16411 is prime


def test_phi0_at_the_trial_division_boundary():
    # 16381 is the largest prime below 2^14, 16411 the smallest above it
    lo, hi = 16381, 16411
    for n in (lo * lo, lo * hi, hi * hi, (1 << 14) * hi):
        R = phi0(n)
        assert R.exps == _trial_division(n)
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


def test_phi_of_set_matches_the_lattice_join_fold():
    rng = helpers.seeded(8)
    for _ in range(500):
        top = rng.choice((60, 10**4, 10**9, 10**15))
        values = [rng.randint(1, top) for _ in range(rng.randint(1, 6))]
        assert phi_of_set(values) == helpers.phi_of_set_reference(values)


def test_phi_of_set_factors_each_value():
    # the lcm of the two primes after 2^50 is past PRIMALITY_LIMIT, so
    # phi0 of the lcm is refused, but each value factors on its own
    p, q = 1125899906842679, 1125899906842723
    R = phi_of_set([p, q])
    assert R.exps == ((p, 1), (q, 1))
    assert R == helpers.phi_of_set_reference([p, q])
    assert_canonical(R)


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
    assert str(parse_supernatural(text)) == canonical


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


def _small_tables():
    """Every table over the primes 2, 3, 5 with each prime absent or at 1, 3
    or INF, under both defaults: 128 tables."""
    for default in (0, INF):
        for row in itertools.product((None, 1, 3, INF), repeat=3):
            yield {p: e for p, e in zip((2, 3, 5), row) if e is not None}, default


def test_operations_match_the_reference_on_every_small_pair():
    """All 16,384 ordered pairs of the 128 small tables: each result is the
    per-prime reference, in canonical form, with exps a tuple and every
    infinite exponent the INF singleton."""
    tables = list(_small_tables())
    values = [_value(t) for t in tables]
    assert len(values) == 128
    for x, M in zip(tables, values):
        for y, N in zip(tables, values):
            for op, ref in ((mul, lambda a, b: a + b), (gcd, min), (lcm, max)):
                R = op(M, N)
                assert R == _reference(ref, x, y), (op.__name__, x, y)
                assert_canonical(R)
                assert type(R.exps) is tuple
                assert R.default is INF or R.default == 0
                assert all(type(e) is int or e is INF for _, e in R.exps)
            assert leq(M, N) == _reference_leq(x, y), (x, y)


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
    with pytest.raises(DomainError, match="bad level True"):
        BaseSequence((True, 2))


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
