"""Exact arithmetic in the lattice of supernatural numbers.

A supernatural number assigns to every prime an exponent that is either a
nonnegative integer or infinity.  Values here are finitely described: a
finite table of exceptional primes plus a default exponent (0 or infinity)
for every prime not listed.  That family is closed under products, gcd,
lcm and order comparison, and it covers everything the rest of the package
needs — images of ordinary integers, single-prime infinite powers, and the
top element.  Values with infinitely many distinct finite nonzero
exponents are not representable and are rejected by construction.

The exception list (``exps``) is the one stored form, kept canonical:
primes ascending, no entry equal to the default.  ``mul``, ``gcd`` and
``lcm`` are one merge walk over the two ascending lists, which emits
canonical entries directly, and ``leq`` is the same walk stopped at the
first failing prime.  An entry on one side only meets the other side's
default, 0 or INF, so it is kept as it is or dropped, with no arithmetic;
at a shared prime INF is matched by identity before any int operation.
``phi0`` trial-divides by a table of the primes below 2^14, built once at
import; ``phi_of_set`` factors every value into one shared prime ->
largest exponent table and builds one value from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DomainError, ParseError, parse_int, quoted, require_int


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
    if type(n) is not int or n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43^2 has a prime factor <= 41
        return True
    if n >= PRIMALITY_LIMIT:
        raise DomainError(
            f"cannot decide whether {quoted(n)} is prime: at or above {PRIMALITY_LIMIT}"
        )
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
        default = self.default
        if not (default is INF or (type(default) is int and default == 0)):
            raise DomainError("default exponent must be 0 or inf")
        seen = {}
        for entry in self.exps:
            p, e = entry
            if not (_SMALL_PRIME[p] if type(p) is int and 0 <= p < _TRIAL_LIMIT else _is_prime(p)):
                raise DomainError(f"{quoted(p)} is not prime")
            if not (e is INF or (type(e) is int and e >= 0)):
                raise DomainError(f"bad exponent for {p}: {e!r}")
            if p in seen:
                raise DomainError(f"prime {p} listed twice")
            seen[p] = e
        # 0 is the only falsy exponent
        kept = [(p, e) for p, e in seen.items() if (e is not INF if default is INF else e)]
        object.__setattr__(self, "exps", tuple(sorted(kept)))

    def exponent(self, p: int):
        """The exponent of the prime p (the default if p is not listed)."""
        for q, e in self.exps:
            if q == p:
                return e
        return self.default

    def __str__(self) -> str:
        return format_supernatural(self)


def _trusted(exps: tuple, default) -> Supernatural:
    """A Supernatural from fields already in canonical form: primes
    ascending, exponents ints >= 0 or INF, none equal to default (0 or
    INF).  The checks of Supernatural(...) are for values from outside the
    package.  Writing the instance dict skips the frozen __setattr__ at
    about half the cost of object.__setattr__."""
    value = object.__new__(Supernatural)
    fields = value.__dict__
    fields["exps"] = exps
    fields["default"] = default
    return value


E = Supernatural()
TOP = Supernatural(default=INF)

# phi0 trial-divides by the primes below this bound, which factors any n
# below its square outright; a cofactor left over has no prime factor below
# the bound and is certified and split by _is_prime and _rho.
_TRIAL_LIMIT = 1 << 14


def _sieve(n: int) -> bytearray:
    """sieve[k] is 1 if k is prime and 0 if not, for k below n (the sieve of
    Eratosthenes)."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return sieve


# Supernatural(...) looks a prime below _TRIAL_LIMIT up here (16 KB, where a
# frozenset of the same primes takes 128 KB)
_SMALL_PRIME = _sieve(_TRIAL_LIMIT)
_TRIAL_PRIMES = tuple(itertools.compress(range(_TRIAL_LIMIT), _SMALL_PRIME))


def _factor(n: int) -> list:
    """The prime factorization of the positive int n, as (prime, exponent)
    pairs with the primes ascending."""
    require_int(n, "phi0 expects a positive integer", 1)
    out = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            if n > 1:
                out.append((n, 1))
            return out
        if not n % p:
            n //= p
            k = 1
            while not n % p:
                n //= p
                k += 1
            out.append((p, k))
    if n > 1:
        out += _factor_large(n)
    return out


def phi0(n: int) -> Supernatural:
    """Embed a positive integer by its prime factorization.

    Exact whenever what is left of n after dividing out its prime factors
    below 2^14 is below PRIMALITY_LIMIT, so for every n below that limit;
    DomainError otherwise.
    """
    return _trusted(tuple(_factor(n)), 0)


def _factor_large(m: int) -> list:
    """The factorization of m > 1, which has no prime factor below
    _TRIAL_LIMIT, as ascending (prime, exponent) pairs."""
    table = {}
    pending = [m]
    while pending:
        m = pending.pop()
        if _is_prime(m):
            table[m] = table.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += (d, m // d)
    return sorted(table.items())


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


def _combine(op: str, M: Supernatural, N: Supernatural) -> Supernatural:
    """M op N for op "mul", "gcd" or "lcm": one merge walk over the two
    ascending exception lists, which emits canonical exps directly.  An entry
    on one side only is kept as it is (gcd: where the other default is INF;
    mul, lcm: where it is 0) or else dropped, and so is the tail left when
    one list runs out; an empty list needs no walk.  At a shared prime INF
    is matched by identity first: mul and lcm absorb it, gcd skips it."""
    dm, dn = M.default, N.default
    meet = op == "gcd"
    keep_a, keep_b = (dn is INF) == meet, (dm is INF) == meet
    d = (dn if dm is INF else dm) if meet else (dm if dm is INF else dn)
    a, b = M.exps, N.exps
    if not a or not b:
        return _trusted((a if keep_a else ()) + (b if keep_b else ()), d)
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        p, e = a[i]
        q, f = b[j]
        if p < q:
            if keep_a:
                out.append(a[i])
            i += 1
        elif q < p:
            if keep_b:
                out.append(b[j])
            j += 1
        else:
            i += 1
            j += 1
            if e is INF or f is INF:
                r = (f if e is INF else e) if meet else INF
            else:
                r = e + f if op == "mul" else e if (e < f) == meet else f  # min or max
            if (r is not INF) if d is INF else r:  # 0 is the only falsy exponent
                out.append((p, r))
    if keep_a and i < na:
        out += a[i:]
    if keep_b and j < nb:
        out += b[j:]
    return _trusted(tuple(out), d)


def mul(M: Supernatural, N: Supernatural) -> Supernatural:
    """Exponentwise sum; infinity absorbs."""
    return _combine("mul", M, N)


def leq(M: Supernatural, N: Supernatural) -> bool:
    """True iff every exponent of M is at most the one in N: the merge walk
    of _combine, stopped at the first prime where it fails: an entry of M
    only passes iff N's default is INF, one of N only iff M's default is 0."""
    dm, dn = M.default, N.default
    if dm is INF and dn is not INF:
        return False
    a_ok, b_ok = dn is INF, dm is not INF
    a, b = M.exps, N.exps
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        p, e = a[i]
        q, f = b[j]
        if p < q:
            if not a_ok:
                return False
            i += 1
        elif q < p:
            if not b_ok:
                return False
            j += 1
        else:
            if f is not INF and (e is INF or e > f):
                return False
            i += 1
            j += 1
    return (a_ok or i == na) and (b_ok or j == nb)


def gcd(M: Supernatural, N: Supernatural) -> Supernatural:
    """Componentwise minimum of exponents (the lattice meet)."""
    return _combine("gcd", M, N)


def lcm(M: Supernatural, N: Supernatural) -> Supernatural:
    """Componentwise maximum of exponents (the lattice join)."""
    return _combine("lcm", M, N)


def phi_of_set(values) -> Supernatural:
    """Componentwise supremum of phi0 over a finite nonempty set of ints.

    Each value is factored into one shared prime -> largest exponent table.
    That is the fold of lcm over the phi0 images, which the tests keep as
    the reference (tests/helpers.py).  It is also phi0 of the values' least
    common multiple, but factoring the values one at a time answers
    wherever phi0 answers on each value, even where their lcm leaves a
    cofactor past PRIMALITY_LIMIT.
    """
    vals = list(values)
    if not vals:
        raise DomainError("phi of the empty set is undefined")
    table = {}
    for n in vals:
        for p, k in _factor(n):
            if k > table.get(p, 0):
                table[p] = k
    return _trusted(tuple(sorted(table.items())), 0)


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
            require_int(n, "bad level {!r}: levels are positive integers", 1)
        for a, b in zip(levels, levels[1:]):
            if b % a:
                raise DomainError(f"{quoted(a)} does not divide {quoted(b)}")

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
    require_int(depth, "depth must be a positive integer", 1)
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


def parse_supernatural(text: str) -> Supernatural:
    """Parse a literal like ``2^3*5^inf``, ``1``, or ``2^2;default=inf``.

    Bare primes mean exponent 1.  Anything malformed — including non-prime
    factors — raises ParseError.
    """
    s, clause, tail = text.partition(";")
    s = s.strip()
    default = 0
    if clause:
        tail = tail.strip()
        if tail == "default=inf":
            default = INF
        elif tail != "default=0":
            raise ParseError(f"bad default clause {quoted(tail)}")
    elif not s:
        raise ParseError("empty literal")
    exps = []
    if s not in ("", "1"):
        for factor in s.split("*"):
            factor = factor.strip()
            base_s, sep, exp_s = factor.partition("^")
            p = parse_int(base_s, "bad factor", factor)
            if not sep:
                e = 1
            elif exp_s.strip() == "inf":
                e = INF
            else:
                e = parse_int(exp_s, "bad exponent in", factor)
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
