"""Adic groups over divisibility chains, at a finite working depth.

Points are coherent residue vectors over a chain n1 | n2 | ... | nK;
addition is componentwise, the dynamics is translation by the all-ones
element, and the metric is 1/n_m at the first disagreeing level.  Bounded
(eventually constant) chains are allowed; at finite depth such a group is
just a cyclic rotation, which truncate() hands back as a FinSystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .dynsys import MAX_POINTS, FinSystem, PeriodicPartition, canonical_partition
from .errors import DomainError, ParseError, parse_ints, quoted, require_int
from .supernatural import BaseSequence, Supernatural, format_base, phi0


@dataclass(frozen=True)
class AdicInt:
    """A coherent residue vector (a1..aK) with a_k in Z_{n_k}."""

    base: BaseSequence
    residues: tuple = ()

    def __post_init__(self):
        res = tuple(self.residues)
        object.__setattr__(self, "residues", res)
        if len(res) != self.base.depth:
            raise DomainError("residue count does not match the base depth")
        for a, n in zip(res, self.base.levels):
            _residue(a, n)
        for k in range(self.base.depth - 1):
            if res[k + 1] % self.base.levels[k] != res[k]:
                raise DomainError(
                    f"incoherent residues at level {k + 1}: "
                    f"{quoted(res[k + 1])} mod {quoted(self.base.levels[k])} != {quoted(res[k])}"
                )

    def __str__(self) -> str:
        return format_adic(self)


def _residue(a, n: int) -> int:
    """a, if it is a residue mod n; else a DomainError, its text built only then."""
    if type(a) is not int or not 0 <= a < n:
        require_int(a, f"residue {{!r}} out of range for modulus {quoted(n)}", 0, n)
    return a


def _same_base(x: AdicInt, y: AdicInt):
    if x.base != y.base:
        raise DomainError("operands have different bases")


def _trusted(base: BaseSequence, residues: tuple) -> AdicInt:
    """An AdicInt whose residues are coherent by construction (images of an
    integer, or componentwise sums and negatives of coherent vectors); the
    checks of AdicInt(...) are for vectors from outside the package.
    Writing the instance dict skips the frozen __setattr__."""
    x = object.__new__(AdicInt)
    fields = x.__dict__
    fields["base"] = base
    fields["residues"] = residues
    return x


# residue tuples are built from lists: tuple() over a generator costs more on short vectors
def from_integer(base: BaseSequence, z: int) -> AdicInt:
    """The image of an ordinary integer: residues z mod n_k."""
    require_int(z, "{!r} is not an integer")
    return _trusted(base, tuple([z % n for n in base.levels]))


def add(x: AdicInt, y: AdicInt) -> AdicInt:
    _same_base(x, y)
    return _trusted(
        x.base,
        tuple([(a + b) % n for a, b, n in zip(x.residues, y.residues, x.base.levels)]),
    )


def neg(x: AdicInt) -> AdicInt:
    return _trusted(x.base, tuple([-a % n for a, n in zip(x.residues, x.base.levels)]))


def translate(x: AdicInt) -> AdicInt:
    """The odometer step: add the all-ones element."""
    return _trusted(x.base, tuple([(a + 1) % n for a, n in zip(x.residues, x.base.levels)]))


class Distance(NamedTuple):
    value: Fraction
    agrees_to_depth: bool


def metric(x: AdicInt, y: AdicInt) -> Distance:
    """1/n_m at the first disagreeing level m.

    Vectors equal to full depth K get value 0 with agrees_to_depth=True:
    the true distance is only known to be at most 1/n_K, and the flag
    carries that truncation caveat instead of an invented value.
    """
    _same_base(x, y)
    for a, b, n in zip(x.residues, y.residues, x.base.levels):
        if a != b:
            return Distance(Fraction(1, n), False)
    return Distance(Fraction(0), True)


def _level(base: BaseSequence, k: int) -> int:
    """n_k, the modulus of level k (1-based) of base."""
    depth = base.depth
    return base.levels[require_int(k, f"level {{}} out of range 1..{depth}", 1, depth + 1) - 1]


def cylinder(base: BaseSequence, j: int, x_j: int) -> range:
    """The level-j cylinder of residue x_j (j is 1-based): the points of the
    depth-K truncation, as integers mod n_K, whose residue mod n_j is x_j."""
    n_j = _level(base, j)
    return range(_residue(x_j, n_j), base.levels[-1], n_j)


def truncate(base: BaseSequence, k: int) -> FinSystem:
    """The depth-k truncation: the rotation i -> i+1 on Z_{n_k}."""
    message = f"a truncation of {{}} points is larger than the limit of {MAX_POINTS}"
    n = require_int(_level(base, k), message, 1, MAX_POINTS + 1)
    return FinSystem(tuple((i + 1) % n for i in range(n)))


def level_partition(base: BaseSequence, k: int) -> PeriodicPartition:
    """Level-k cylinders as a periodic partition of the full-depth truncation
    (so n_K is bounded by MAX_POINTS, as in truncate)."""
    n_k = _level(base, k)
    # on the one cycle 0 -> 1 -> ... of the truncation, z lies in cylinder z mod n_k
    return canonical_partition(truncate(base, base.depth), n_k)


def ess_of_odometer(base: BaseSequence) -> Supernatural:
    """The joint factorization of the levels: the levels form a divisibility
    chain, so their join is phi0 of the top level n_K."""
    return phi0(base.levels[-1])


def parse_base(text: str) -> BaseSequence:
    """Parse a comma-separated level list like ``2,4,8``.

    A literal that denotes an invalid chain (say ``2,3``) is rejected here
    too: everything caught at the text boundary is a ParseError.
    """
    try:
        return BaseSequence(parse_ints(text, "bad level"))
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def parse_adic(base: BaseSequence, text: str) -> AdicInt:
    """Parse a bracketed residue vector like ``[1,1,5]``."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("residue vector must look like [a1,a2,...]")
    body = s[1:-1].strip()
    try:
        return AdicInt(base, parse_ints(body, "bad residue") if body else ())
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def format_adic(x: AdicInt) -> str:
    return "[" + ",".join(map(str, x.residues)) + "]"
