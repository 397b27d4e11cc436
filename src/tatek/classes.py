"""Conjugacy classes of order-p elements of Out(F_n) and their centralisers.

The enumeration covers the p-periodic range p-1 <= n <= 2p-3 for odd primes
(where every finite p-subgroup is Z/p), plus two curated special cases:
(p, n) = (5, 8), where one extra diagonal class appears inside a rank-2
elementary abelian 5-subgroup, and (p, n) = (2, 2), where the 2-power torsion
of Out(F_2) = GL_2(Z) is read off from its amalgam decomposition.

Each class carries a group expression for its centraliser that is rationally
equivalent to the true centraliser, justified entry by entry in the citation
field.  The class with no order-p lift ("phi", rank p+1 only) is the one
whose centraliser cohomology is genuinely computed here: its series comes
live from the spine-quotient orbit counts in :mod:`tatek.orbits`, never from
a stored constant.
"""

from __future__ import annotations

from ._value import Value
from .modp import check_prime
from .orbits import quotient_summary
from .series import (
    Finite,
    FlipSquare,
    FreeGroup,
    GroupExpr,
    Product,
    RegistryRef,
)


class OutOfRange(ValueError):
    """(p, n) outside the supported enumeration ranges."""


ROSE = "rose"
THETA = "theta"
PHI = "phi"
DELTA = "delta"
AMALGAM = "amalgam"


_CHEN_ROSE = (
    "Chen (thesis, Prop 3.1.2, Sections 2.2-2.3): rose-type class; centraliser "
    "Z/p x ((F_{n-p} x| Aut(F_{n-p})) x| Z/2)."
)
_CHEN_THETA = (
    "Chen (thesis, Prop 3.1.2, Sections 2.2-2.3): theta-type class; centraliser "
    "Z/p x ((Aut(F_s) x Aut(F_t)) x| Z/2^{delta_st})."
)
_PHI_CITATION = (
    "Bridson-Piwek (Prop 7.1): unique order-p class of Out(F_{p+1}) with no "
    "order-p lift to Aut(F_{p+1}); centraliser homology computed from the "
    "spine-quotient orbit counts (Mayer-Vietoris over the tree action)."
)
_DELTA_CITATION = (
    "Glover-Henn (Prop 1.3): diagonal class in a rank-2 elementary abelian "
    "5-subgroup of Out(F_8); rationally acyclic centraliser."
)
_AMALGAM_CITATION = (
    "2-power torsion of Out(F_2) = GL_2(Z) = D_4 *_{D_2} D_6: classes of the "
    "vertex groups merged along edge-group fusion."
)


class ConjClassDescriptor(Value):
    """One conjugacy class of order-p (or p-power, for p = 2) elements."""

    kind: str
    p: int
    n: int
    params: tuple[int, ...]
    label: str
    citation: str
    aut_level_note: str = ""

    def __post_init__(self) -> None:
        if self.kind == ROSE:
            (l,) = self.params
            if not (2 <= l <= self.n and l == self.p):
                raise ValueError(f"bad rose parameters: l={l}, n={self.n}, p={self.p}")
        elif self.kind == THETA:
            s, t = self.params
            if not (0 <= s <= t and s + t + self.p - 1 == self.n):
                raise ValueError(
                    f"bad theta parameters: (s,t)=({s},{t}), n={self.n}, p={self.p}"
                )
        elif self.kind == PHI:
            if self.n != self.p + 1:
                raise ValueError(f"phi requires n = p + 1, got n={self.n}, p={self.p}")
        elif self.kind == DELTA:
            if (self.p, self.n) != (5, 8):
                raise ValueError(f"delta requires (p, n) = (5, 8), got ({self.p}, {self.n})")
        elif self.kind != AMALGAM:
            raise ValueError(f"unknown class kind: {self.kind!r}")


class ClassList(Value):
    p: int
    n: int
    classes: tuple[ConjClassDescriptor, ...]


def _rose(p: int, n: int) -> ConjClassDescriptor:
    return ConjClassDescriptor(
        kind=ROSE, p=p, n=n, params=(p,), label=f"rose({p})", citation=_CHEN_ROSE
    )


def _theta(p: int, n: int, s: int, t: int) -> ConjClassDescriptor:
    note = ""
    if s != t:
        note = (
            f"theta({t},{s}) is a distinct class at the Aut level; the two "
            "become conjugate in Out(F_n)"
        )
    return ConjClassDescriptor(
        kind=THETA,
        p=p,
        n=n,
        params=(s, t),
        label=f"theta({s},{t})",
        citation=_CHEN_THETA,
        aut_level_note=note,
    )


def _amalgam_classes() -> tuple[ConjClassDescriptor, ...]:
    # The four 2-power classes of GL_2(Z): -1 (central), the order-4 rotation,
    # the axis reflection diag(1,-1), and the merged swap/rotated-swap
    # reflection class.  The count 4 is re-derived in the tests by fusing the
    # vertex-group classes of D_4 and D_6 along the edge group.
    labels = ("neg_identity", "plane_rotation_4", "axis_reflection", "swap_reflection")
    return tuple(
        ConjClassDescriptor(
            kind=AMALGAM, p=2, n=2, params=(i,), label=label, citation=_AMALGAM_CITATION
        )
        for i, label in enumerate(labels)
    )


def order_p_classes(p: int, n: int) -> ClassList:
    """The complete class list for a supported pair (p, n).

    Supported: the periodic range p-1 <= n <= 2p-3 for p >= 3, the ranks
    2 <= n < p-1 (where Out(F_n) has no p-torsion at all and the list is
    empty), and the special cases (5, 8) and (2, 2).  Anything else raises
    :class:`OutOfRange`: no published classification covers it.
    """
    check_prime(p)
    if n < 2:
        raise OutOfRange(f"rank must be at least 2, got n={n}")
    if (p, n) == (2, 2):
        return ClassList(p, n, _amalgam_classes())
    if (p, n) == (5, 8):
        classes = (
            _rose(5, 8),
            _theta(5, 8, 0, 4),
            _theta(5, 8, 1, 3),
            _theta(5, 8, 2, 2),
            ConjClassDescriptor(
                kind=DELTA, p=5, n=8, params=(), label="delta", citation=_DELTA_CITATION
            ),
        )
        return ClassList(p, n, classes)
    if p == 2:
        raise OutOfRange(f"p = 2 is supported only at n = 2, got n={n}")
    if n < p - 1:
        # Out(F_n) -> GL_n(Z) has torsion-free kernel and GL_n(Z) has no
        # order-p elements below rank p-1, so there is nothing to list.
        return ClassList(p, n, ())
    if n > 2 * p - 3:
        raise OutOfRange(
            f"n={n} exceeds the periodic bound 2p-3={2 * p - 3} for p={p}"
        )
    classes: list[ConjClassDescriptor] = []
    if n >= p:
        classes.append(_rose(p, n))
    total = n - p + 1
    for s in range(total // 2 + 1):
        classes.append(_theta(p, n, s, total - s))
    if n == p + 1:
        classes.append(
            ConjClassDescriptor(
                kind=PHI, p=p, n=n, params=(), label="phi", citation=_PHI_CITATION
            )
        )
    return ClassList(p, n, tuple(classes))


def _aut_core(rank: int) -> GroupExpr:
    """Rational stand-in for Aut(F_rank); the trivial group at rank 0."""
    if rank == 0:
        return Finite()
    return RegistryRef(f"AutF{rank}")


def _rose_core(rest: int) -> GroupExpr:
    """Rational stand-in for (F_rest x| Aut(F_rest)) x| Z/2."""
    if rest == 0:
        return Finite()
    if rest <= 3:
        return RegistryRef(f"RoseCentralizerCore_n=l+{rest}")
    return RegistryRef(f"F{rest}SemidirectAutF{rest}_Z2invariants")


def centraliser_of(c: ConjClassDescriptor) -> GroupExpr:
    """Group expression rationally equivalent to the centraliser of a class.

    Finite direct factors (the Z/p, the Z/2 flips acting trivially on
    rational cohomology) are dropped; the justification for each remaining
    identification is the class's citation.  For "phi" the expression is
    built live from the spine-quotient Betti number, which is where the whole
    pipeline feeds through the orbit counter.
    """
    if c.kind == ROSE:
        return Product((Finite(), _rose_core(c.n - c.p)))
    if c.kind == THETA:
        s, t = c.params
        if s == t:
            return Product((Finite(), FlipSquare(_aut_core(t))))
        return Product((Finite(), _aut_core(s), _aut_core(t)))
    if c.kind == PHI:
        betti = quotient_summary(c.p).betti_one
        return Product((Finite(), FreeGroup(betti)))
    if c.kind == DELTA:
        return Product((Finite(), RegistryRef("DeltaCentralizer_Out8_p5")))
    if c.kind == AMALGAM:
        if c.label == "neg_identity":
            # The centraliser of the central -1 is all of Out(F_2).
            return Product((Finite(), RegistryRef("OutF2")))
        return Finite()
    raise ValueError(f"unknown class kind: {c.kind!r}")
