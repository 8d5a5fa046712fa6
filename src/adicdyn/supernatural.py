"""Exact arithmetic in the lattice of supernatural numbers.

A supernatural number assigns to every prime an exponent that is either a
nonnegative integer or infinity.  Values here are finitely described: a
finite table of exceptional primes plus a default exponent (0 or infinity)
for every prime not listed.  That family is closed under products, gcd,
lcm and order comparison, and it covers everything the rest of the package
needs — images of ordinary integers, single-prime infinite powers, and the
top element.  Values with infinitely many distinct finite nonzero
exponents are not representable and are rejected by construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, ParseError


class _Infinity:
    """The exponent infinity: above every int, absorbing under addition."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INF = _Infinity()


# Miller-Rabin with the first 13 prime bases is exact below psi_13
# (Sorenson & Webster, Math. Comp. 86, 2017); past it no base set is known
# to be enough, so primality is refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n below PRIMALITY_LIMIT; DomainError above it."""
    if not isinstance(n, int) or n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43^2 has a prime factor <= 41
        return True
    if n >= PRIMALITY_LIMIT:
        raise DomainError(f"cannot decide whether {n} is prime: at or above {PRIMALITY_LIMIT}")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _valid_exp(e) -> bool:
    return e is INF or (isinstance(e, int) and e >= 0)


def _canonical(table: dict, default) -> tuple:
    """The exps of a valid prime -> exponent table: primes ascending,
    entries equal to the default dropped (0 is the only falsy exponent)."""
    if default is INF:
        return tuple(sorted([(p, e) for p, e in table.items() if e is not INF]))
    return tuple(sorted([(p, e) for p, e in table.items() if e]))


@dataclass(frozen=True)
class Supernatural:
    """A supernatural number in canonical exception/default form.

    ``exps`` lists (prime, exponent) exceptions; ``default`` (0 or INF)
    applies to every prime not listed.  Construction canonicalizes — primes
    ascending, entries equal to the default stripped — so structural
    equality is semantic equality.
    """

    exps: tuple = ()
    default: object = 0

    def __post_init__(self):
        if not (self.default == 0 or self.default is INF):
            raise DomainError("default exponent must be 0 or inf")
        seen = {}
        for entry in self.exps:
            p, e = entry
            if not _is_prime(p):
                raise DomainError(f"{p!r} is not prime")
            if not _valid_exp(e):
                raise DomainError(f"bad exponent for {p}: {e!r}")
            if p in seen:
                raise DomainError(f"prime {p} listed twice")
            seen[p] = e
        object.__setattr__(self, "exps", _canonical(seen, self.default))

    def exponent(self, p: int):
        """The exponent of the prime p (the default if p is not listed)."""
        for q, e in self.exps:
            if q == p:
                return e
        return self.default

    def __str__(self) -> str:
        return format_supernatural(self)


def _trusted(table: dict, default) -> Supernatural:
    """A Supernatural built from valid operands, so its table already holds
    primes with exponents that are ints >= 0 or INF, and default is 0 or
    INF.  It is only canonicalized: the checks of Supernatural(...) are for
    values from outside the package."""
    value = object.__new__(Supernatural)
    object.__setattr__(value, "exps", _canonical(table, default))
    object.__setattr__(value, "default", default)
    return value


E = Supernatural()
TOP = Supernatural(default=INF)

# phi0 trial-divides by every candidate below this bound, which factors any
# n below its square outright; a cofactor left over has no prime factor
# below the bound and is certified and split by _is_prime and _rho.
_TRIAL_LIMIT = 1 << 14


def phi0(n: int) -> Supernatural:
    """Embed a positive integer by its prime factorization.

    Exact whenever what is left of n after dividing out its prime factors
    below 2^14 is below PRIMALITY_LIMIT, so for every n below that limit;
    DomainError otherwise.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("phi0 expects a positive integer")
    table = {}
    m = n
    p = 2
    while p * p <= m:
        if p >= _TRIAL_LIMIT:
            _factor_large(m, table)
            return _trusted(table, 0)
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            table[p] = k
        p += 1 if p == 2 else 2
    if m > 1:
        table[m] = 1
    return _trusted(table, 0)


def _factor_large(m: int, table: dict) -> None:
    """Add the factorization of m, which has no prime factor below
    _TRIAL_LIMIT, to table."""
    pending = [m]
    while pending:
        m = pending.pop()
        if _is_prime(m):
            table[m] = table.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += (d, m // d)


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Brent's variant of Pollard's
    rho, with x -> x^2 + c for c = 1, 2, ... and gcds batched 128 steps."""
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise DomainError(f"could not split {n}")


def _combine(op, M: Supernatural, N: Supernatural) -> Supernatural:
    """op applied prime by prime to the exponents of M and N."""
    dm, dn = M.default, N.default
    rest = dict(N.exps)
    table = {p: op(e, rest.pop(p, dn)) for p, e in M.exps}
    for p, e in rest.items():
        table[p] = op(dm, e)
    return _trusted(table, op(dm, dn))


def mul(M: Supernatural, N: Supernatural) -> Supernatural:
    """Exponentwise sum; infinity absorbs."""
    return _combine(operator.add, M, N)


def leq(M: Supernatural, N: Supernatural) -> bool:
    """True iff every exponent of M is at most the one in N."""
    dm, dn = M.default, N.default
    if not dm <= dn:
        return False
    rest = dict(N.exps)
    for p, e in M.exps:
        if not e <= rest.pop(p, dn):
            return False
    # left in rest: primes listed in N alone, where M has its default; a
    # default of 0 is below them all, and (both defaults being inf) an inf
    # default is above N's listed, finite, exponents
    return dm == 0 or not rest


def gcd(M: Supernatural, N: Supernatural) -> Supernatural:
    """Componentwise minimum of exponents (the lattice meet)."""
    return _combine(min, M, N)


def lcm(M: Supernatural, N: Supernatural) -> Supernatural:
    """Componentwise maximum of exponents (the lattice join)."""
    return _combine(max, M, N)


def phi_of_set(values) -> Supernatural:
    """Componentwise supremum of phi0 over a finite nonempty set of ints.

    For a finite set this is just phi0 of the least common multiple, but it
    is computed as the fold of the lattice join so the identity is testable
    rather than assumed.
    """
    vals = list(values)
    if not vals:
        raise DomainError("phi of the empty set is undefined")
    out = phi0(vals[0])
    for a in vals[1:]:
        out = lcm(out, phi0(a))
    return out


def regular_contains(R: Supernatural, a: int) -> bool:
    """Membership of a positive integer in the regular set described by R."""
    return leq(phi0(a), R)


@dataclass(frozen=True)
class BaseSequence:
    """A divisibility chain of levels n1 | n2 | ... | nK, the working depth K:
    the base of an odometer, and the regular sequences of this module."""

    levels: tuple = ()

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise DomainError("a base needs at least one level")
        for n in levels:
            if not isinstance(n, int) or n < 1:
                raise DomainError(f"bad level {n!r}: levels are positive integers")
        for a, b in zip(levels, levels[1:]):
            if b % a:
                raise DomainError(f"{a} does not divide {b}")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def __str__(self) -> str:
        return format_base(self)


# bench/tracer.py hooks the validation of supernatural.RegularSeq, the former
# name of this class; the alias stays until that hook is dropped.
RegularSeq = BaseSequence


def format_base(base: BaseSequence) -> str:
    return ",".join(map(str, base.levels))


def extract_regular_sequence(R: Supernatural, depth: int) -> BaseSequence:
    """A deterministic divisibility chain whose phi-sup climbs to R.

    Level k is the product over the first k support primes p of
    p^min(R_p, k): support primes enter one at a time in ascending order
    while every exponent ramps up, so consecutive levels divide and the
    prefix sup is monotone, reaching R once k covers both the support and
    the largest finite exponent.  Requires default 0 — with all but
    finitely many exponents infinite there is no finite chain to extract.
    """
    if not isinstance(depth, int) or depth < 1:
        raise DomainError("depth must be a positive integer")
    if R.default is INF:
        raise DomainError("cannot extract a chain from a value with default inf")
    support = R.exps  # canonical form: every listed exponent > 0
    terms = []
    for k in range(1, depth + 1):
        b = 1
        for p, e in support[:k]:
            b *= p ** min(e, k)
        terms.append(b)
    seq = object.__new__(BaseSequence)  # a divisibility chain by construction
    object.__setattr__(seq, "levels", tuple(terms))
    return seq


def seq_dominates(a: BaseSequence, b: BaseSequence) -> bool:
    """True iff every level of a divides some level of b."""
    return all(any(bj % ai == 0 for bj in b.levels) for ai in a.levels)


def parse_supernatural(text: str) -> Supernatural:
    """Parse a literal like ``2^3*5^inf``, ``1``, or ``2^2;default=inf``.

    Bare primes mean exponent 1.  Anything malformed — including non-prime
    factors — raises ParseError.
    """
    s = text.strip()
    default = 0
    has_default_clause = False
    if ";" in s:
        s, _, tail = s.partition(";")
        s = s.strip()
        tail = tail.strip()
        has_default_clause = True
        if tail == "default=0":
            default = 0
        elif tail == "default=inf":
            default = INF
        else:
            raise ParseError(f"bad default clause {tail!r}")
    if s == "" and not has_default_clause:
        raise ParseError("empty literal")
    exps = []
    if s not in ("", "1"):
        for factor in s.split("*"):
            factor = factor.strip()
            base_s, sep, exp_s = factor.partition("^")
            try:
                p = int(base_s.strip())
            except ValueError:
                raise ParseError(f"bad factor {factor!r}") from None
            if sep:
                exp_s = exp_s.strip()
                if exp_s == "inf":
                    e = INF
                else:
                    try:
                        e = int(exp_s)
                    except ValueError:
                        raise ParseError(f"bad exponent in {factor!r}") from None
            else:
                e = 1
            exps.append((p, e))
    try:
        return Supernatural(tuple(exps), default)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def format_supernatural(M: Supernatural) -> str:
    """Canonical literal: primes ascending, ^1 omitted, default suffix."""
    parts = []
    for p, e in M.exps:
        if e is INF:
            parts.append(f"{p}^inf")
        elif e == 1:
            parts.append(str(p))
        else:
            parts.append(f"{p}^{e}")
    body = "*".join(parts)
    if M.default is INF:
        return f"{body};default=inf" if body else ";default=inf"
    return body or "1"
