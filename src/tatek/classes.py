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
    """One conjugacy class of order-p (or p-power, for p = 2) elements, with
    a group expression rationally equivalent to its centraliser.

    Finite direct factors (the Z/p, the Z/2 flips acting trivially on
    rational cohomology) are dropped from the centraliser; the justification
    for each remaining identification is the class's citation.
    """

    kind: str
    p: int
    n: int
    label: str
    centraliser: GroupExpr
    citation: str
    aut_level_note: str = ""


class ClassList(Value):
    p: int
    n: int
    classes: tuple[ConjClassDescriptor, ...]


def _aut_core(rank: int) -> GroupExpr:
    """Rational stand-in for Aut(F_rank); the trivial group at rank 0."""
    if rank == 0:
        return Finite()
    return RegistryRef(f"AutF{rank}")


def _rose(p: int, n: int) -> ConjClassDescriptor:
    # The core is a rational stand-in for (F_rest x| Aut(F_rest)) x| Z/2.
    rest = n - p
    if rest == 0:
        core = Finite()
    elif rest <= 3:
        core = RegistryRef(f"RoseCentralizerCore_n=l+{rest}")
    else:
        core = RegistryRef(f"F{rest}SemidirectAutF{rest}_Z2invariants")
    centraliser = Product((Finite(), core))
    return ConjClassDescriptor(ROSE, p, n, f"rose({p})", centraliser, _CHEN_ROSE)


def _theta(p: int, n: int, s: int, t: int) -> ConjClassDescriptor:
    note = ""
    if s == t:
        centraliser = Product((Finite(), FlipSquare(_aut_core(t))))
    else:
        centraliser = Product((Finite(), _aut_core(s), _aut_core(t)))
        note = (
            f"theta({t},{s}) is a distinct class at the Aut level; the two "
            "become conjugate in Out(F_n)"
        )
    return ConjClassDescriptor(THETA, p, n, f"theta({s},{t})", centraliser, _CHEN_THETA, note)


def _amalgam_classes() -> tuple[ConjClassDescriptor, ...]:
    # The four 2-power classes of GL_2(Z): -1 (central), the order-4 rotation,
    # the axis reflection diag(1,-1), and the merged swap/rotated-swap
    # reflection class.  The count 4 is re-derived in the tests by fusing the
    # vertex-group classes of D_4 and D_6 along the edge group.  The
    # centraliser of the central -1 is all of Out(F_2); the other three have
    # finite centralisers.
    centralisers = {
        "neg_identity": Product((Finite(), RegistryRef("OutF2"))),
        "plane_rotation_4": Finite(),
        "axis_reflection": Finite(),
        "swap_reflection": Finite(),
    }
    return tuple(
        ConjClassDescriptor(AMALGAM, 2, 2, label, centraliser, _AMALGAM_CITATION)
        for label, centraliser in centralisers.items()
    )


def order_p_classes(p: int, n: int) -> ClassList:
    """The complete class list for a supported pair (p, n).

    Supported: the periodic range p-1 <= n <= 2p-3 for p >= 3, the ranks
    2 <= n < p-1 (where Out(F_n) has no p-torsion at all and the list is
    empty), and the special cases (5, 8) and (2, 2).  Anything else raises
    :class:`OutOfRange`: no published classification covers it.

    The centraliser of "phi" is built live from the spine-quotient Betti
    number, which is where the whole pipeline feeds through the orbit counter.
    """
    check_prime(p)
    if n < 2:
        raise OutOfRange(f"rank must be at least 2, got n={n}")
    if (p, n) == (2, 2):
        return ClassList(p, n, _amalgam_classes())
    if p == 2:
        raise OutOfRange(f"p = 2 is supported only at n = 2, got n={n}")
    if n < p - 1:
        # Out(F_n) -> GL_n(Z) has torsion-free kernel and GL_n(Z) has no
        # order-p elements below rank p-1, so there is nothing to list.
        return ClassList(p, n, ())
    if n > 2 * p - 3 and (p, n) != (5, 8):
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
        betti = quotient_summary(p).betti_one
        centraliser = Product((Finite(), FreeGroup(betti)))
        classes.append(ConjClassDescriptor(PHI, p, n, "phi", centraliser, _PHI_CITATION))
    if (p, n) == (5, 8):
        centraliser = Product((Finite(), RegistryRef("DeltaCentralizer_Out8_p5")))
        classes.append(ConjClassDescriptor(DELTA, p, n, "delta", centraliser, _DELTA_CITATION))
    return ClassList(p, n, tuple(classes))


def centraliser_of(c: ConjClassDescriptor) -> GroupExpr:
    """Group expression rationally equivalent to the centraliser of a class."""
    return c.centraliser
