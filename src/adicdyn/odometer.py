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

from .dynsys import FinSystem, PeriodicPartition
from .errors import DomainError, ParseError
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
            if not isinstance(a, int) or not 0 <= a < n:
                raise DomainError(f"residue {a!r} out of range for modulus {n}")
        for k in range(self.base.depth - 1):
            if res[k + 1] % self.base.levels[k] != res[k]:
                raise DomainError(
                    f"incoherent residues at level {k + 1}: "
                    f"{res[k + 1]} mod {self.base.levels[k]} != {res[k]}"
                )

    def __str__(self) -> str:
        return format_adic(self)


def _same_base(x: AdicInt, y: AdicInt):
    if x.base != y.base:
        raise DomainError("operands have different bases")


def _trusted(base: BaseSequence, residues: tuple) -> AdicInt:
    """An AdicInt whose residues are coherent by construction (images of an
    integer, or componentwise sums and negatives of coherent vectors); the
    checks of AdicInt(...) are for vectors from outside the package."""
    x = object.__new__(AdicInt)
    object.__setattr__(x, "base", base)
    object.__setattr__(x, "residues", residues)
    return x


def from_integer(base: BaseSequence, z: int) -> AdicInt:
    """The image of an ordinary integer: residues z mod n_k."""
    if not isinstance(z, int):
        raise DomainError(f"{z!r} is not an integer")
    return _trusted(base, tuple(z % n for n in base.levels))


def add(x: AdicInt, y: AdicInt) -> AdicInt:
    _same_base(x, y)
    return _trusted(
        x.base,
        tuple((a + b) % n for a, b, n in zip(x.residues, y.residues, x.base.levels)),
    )


def neg(x: AdicInt) -> AdicInt:
    return _trusted(x.base, tuple(-a % n for a, n in zip(x.residues, x.base.levels)))


def translate(x: AdicInt) -> AdicInt:
    """The odometer step: add the all-ones element."""
    return _trusted(x.base, tuple((a + 1) % n for a, n in zip(x.residues, x.base.levels)))


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


@dataclass(frozen=True)
class Cylinder:
    """The set of points whose level-j residue is fixed (j is 1-based)."""

    base: BaseSequence
    level: int
    residue: int

    def contains(self, a: AdicInt) -> bool:
        if a.base != self.base:
            raise DomainError("point has a different base")
        return a.residues[self.level - 1] == self.residue

    def members_at_full_depth(self) -> tuple:
        """The member set of the depth-K truncation, as integers mod n_K."""
        nK = self.base.levels[-1]
        nj = self.base.levels[self.level - 1]
        return tuple(z for z in range(nK) if z % nj == self.residue)


def cylinder(base: BaseSequence, j: int, x_j: int) -> Cylinder:
    if not 1 <= j <= base.depth:
        raise DomainError(f"level {j} out of range 1..{base.depth}")
    if not 0 <= x_j < base.levels[j - 1]:
        raise DomainError(f"residue {x_j} out of range for modulus {base.levels[j - 1]}")
    return Cylinder(base, j, x_j)


def truncate(base: BaseSequence, k: int) -> FinSystem:
    """The depth-k truncation: the rotation i -> i+1 on Z_{n_k}."""
    if not 1 <= k <= base.depth:
        raise DomainError(f"level {k} out of range 1..{base.depth}")
    n = base.levels[k - 1]
    return FinSystem(tuple((i + 1) % n for i in range(n)))


def level_partition(base: BaseSequence, k: int) -> PeriodicPartition:
    """Level-k cylinders as a periodic partition of the full-depth truncation."""
    if not 1 <= k <= base.depth:
        raise DomainError(f"level {k} out of range 1..{base.depth}")
    nk = base.levels[k - 1]
    labels = [z % nk for z in range(base.levels[-1])]
    return PeriodicPartition(truncate(base, base.depth), labels)


def ess_of_odometer(base: BaseSequence) -> Supernatural:
    """The joint factorization of the levels: the levels form a divisibility
    chain, so their join is phi0 of the top level n_K."""
    return phi0(base.levels[-1])


def parse_base(text: str) -> BaseSequence:
    """Parse a comma-separated level list like ``2,4,8``.

    A literal that denotes an invalid chain (say ``2,3``) is rejected here
    too: everything caught at the text boundary is a ParseError.
    """
    parts = [p.strip() for p in text.strip().split(",")]
    levels = []
    for p in parts:
        try:
            levels.append(int(p))
        except ValueError:
            raise ParseError(f"bad level {p!r}") from None
    try:
        return BaseSequence(tuple(levels))
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def parse_adic(base: BaseSequence, text: str) -> AdicInt:
    """Parse a bracketed residue vector like ``[1,1,5]``."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("residue vector must look like [a1,a2,...]")
    body = s[1:-1].strip()
    residues = []
    if body:
        for tok in body.split(","):
            try:
                residues.append(int(tok.strip()))
            except ValueError:
                raise ParseError(f"bad residue {tok.strip()!r}") from None
    try:
        return AdicInt(base, tuple(residues))
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def format_adic(x: AdicInt) -> str:
    return "[" + ",".join(map(str, x.residues)) + "]"
