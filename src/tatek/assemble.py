"""Assembly of p-adic Farrell-Tate K-theory dimensions from centraliser data.

For a group with a finite classifying space for proper actions, the
Farrell-Tate K-theory in degree m is the product over conjugacy classes [g]
of nontrivial p-power order of the even (m = 0) or odd (m = 1) rational
cohomology of the centraliser of <g>, with Q_p coefficients.  Every series in
scope has finite support, so the products collapse to finite integer sums: a
result stores one part per conjugacy class, and reads its two dimensions from
its parts.  Unknown is a first-class value naming the registry entry that
blocks a computation, so unfilled table cells reproduce faithfully instead of
erroring.
"""

from __future__ import annotations

from functools import cached_property

from ._value import Value, _cut
from .classes import OutOfRange, centraliser_of, order_p_classes
from .modp import check_prime
from .series import (
    FreeAbelian,
    FreeGroup,
    GroupExpr,
    RegistryDataError,
    RegistryRef,
    UnknownCohomology,
    citations_of,
    even_odd_totals,
    merge_citations,
    series_of,
)


class NonIntegral(ArithmeticError):
    """A closed-form count failed an exact divisibility check."""


class Unknown(Value):
    """A dimension that cannot be computed; carries the blocking entry name."""

    blocker: str


Dim = int | Unknown


class Contribution(Value):
    label: str
    even: Dim
    odd: Dim


def _part(label: str, expr: GroupExpr, n: int) -> Contribution:
    """The part of one conjugacy class of Out(F_n): the even and odd totals of
    its centraliser's series, or the Unknown that blocks both.  A series above
    degree 2n, past the virtual cohomological dimension 2n - 3, is refused."""
    try:
        series = series_of(expr)
    except UnknownCohomology as exc:
        blocked = Unknown(exc.name)
        return Contribution(label=label, even=blocked, odd=blocked)
    if series.max_degree > 2 * n:
        raise RegistryDataError(
            f"class {label}: the registry dims of {expr} reach degree "
            f"{_cut(str(series.max_degree))}, above 2n = {2 * n}"
        )
    even, odd = even_odd_totals(series)
    return Contribution(label=label, even=even, odd=odd)


def _sum(parts: tuple[Contribution, ...]) -> tuple[Dim, Dim]:
    """The even and odd totals of a result's parts.  The first blocked part in
    reading order blocks both totals with its Unknown."""
    for part in parts:
        if isinstance(part.even, Unknown):
            return part.even, part.even
    return sum(part.even for part in parts), sum(part.odd for part in parts)


class _ReadFromParts:
    """What a result reads from its parts, ``_parts()``, by :func:`_sum`: the
    totals, the blocker, and weak duality and the Euler characteristic, which
    carry the blocker's Unknown when there is one."""

    @cached_property
    def _totals(self) -> tuple[Dim, Dim]:
        return _sum(self._parts())

    @property
    def dim_even(self) -> Dim:
        return self._totals[0]

    @property
    def dim_odd(self) -> Dim:
        return self._totals[1]

    @property
    def known(self) -> bool:
        return not isinstance(self._totals[0], Unknown)

    @property
    def blocker(self) -> str | None:
        return None if self.known else self._totals[0].blocker

    @property
    def weak_duality(self) -> bool | Unknown:
        return self.dim_odd == 0 if self.known else self.dim_odd

    @property
    def euler_char(self) -> int | Unknown:
        return self.dim_even - self.dim_odd if self.known else self.dim_odd


class TateKResult(_ReadFromParts, Value):
    p: int
    group_id: str
    contributions: tuple[Contribution, ...]
    citations: tuple[str, ...]

    def _parts(self) -> tuple[Contribution, ...]:
        return self.contributions


def tate_k(p: int, n: int) -> TateKResult:
    """Farrell-Tate K-theory dimensions of Out(F_n) at the prime p.

    Raises :class:`OutOfRange` when (p, n) has no supported classification;
    an Unknown result is a value, not an error.
    """
    contributions: list[Contribution] = []
    citations: list[str] = []
    for c in order_p_classes(p, n).classes:
        expr = centraliser_of(c)
        contributions.append(_part(c.label, expr, n))
        citations += (c.citation, *citations_of(expr))
    return TateKResult(p, f"Out(F_{n})", tuple(contributions), merge_citations(citations))


class RationalKResult(_ReadFromParts, Value):
    """Rationalised p-adic K-theory of B Out(F_n): the Farrell-Tate parts, then
    ``outfn``, the part of the identity's class, whose centraliser is Out(F_n)."""

    p: int
    n: int
    tate: TateKResult
    outfn: Contribution
    citations: tuple[str, ...]

    def _parts(self) -> tuple[Contribution, ...]:
        return (*self.tate.contributions, self.outfn)


def rational_k(p: int, n: int) -> RationalKResult:
    tate = tate_k(p, n)
    identity = RegistryRef(f"OutF{n}")
    outfn = _part("identity", identity, n)
    citations = merge_citations((*tate.citations, *citations_of(identity)))
    return RationalKResult(p, n, tate, outfn, citations)


# ---------------------------------------------------------------------------
# Example families


_SL3_CITATIONS = (
    "Tezuka-Yagita (1992) and Tahara (1971): SL_3(Z) has 2 classes each of "
    "orders 2, 3 and 4.",
    "Adem (1992); Lueck-Patchkoria-Schwede style centraliser analysis: all "
    "prime-power centralisers in SL_3(Z) are rationally acyclic.",
)
_GL_CITATIONS = (
    "Latimer-MacDuffee; Ash (Lemma 4): order-p classes of GL_{p-1}(Z) biject "
    "with the ideal class group of Q(zeta_p); centralisers are the unit group "
    "Z/p x Z/2 x Z^{(p-3)/2} (Dirichlet unit theorem).",
)
_SP_CITATIONS = (
    "Sjerve-Yang (Thm 3): 2^{(p-1)/2} h_p^- order-p classes in Sp_{p-1}(Z); "
    "Busch (Sec 3.2), Brown: centralisers are the finite group Z/p x Z/2.",
)
_MCG_CITATIONS = (
    "Xia (Ch III, Sec 3.1-3.2): (p+1)(p-1)/6 order-p classes in the mapping "
    "class group of genus (p-1)/2, all with finite centralisers.",
)
_AMALGAM_CITATIONS = (
    "Bass-Serre theory (Serre): the amalgam acts on its covering tree; one "
    "order-p class with centraliser Z/p x F_{p-2}.",
)


def builtin_class_number(p: int) -> int | None:
    """h_p for Q(zeta_p) from the bundled table, or None if not tabulated."""
    from .bundled import CYCLOTOMIC_CLASS_NUMBER

    return CYCLOTOMIC_CLASS_NUMBER.get(p)


def builtin_relative_class_number(p: int) -> int | None:
    from .bundled import RELATIVE_CLASS_NUMBER

    return RELATIVE_CLASS_NUMBER.get(p)


def example_sl3() -> tuple[TateKResult, TateKResult]:
    """Farrell-Tate K-theory of SL_3(Z) at its two torsion primes, 2 and 3."""
    two_power = tuple(
        Contribution(label=label, even=1, odd=0)
        for label in ("order2_class_1", "order2_class_2", "order4_class_1", "order4_class_2")
    )
    three_power = tuple(
        Contribution(label=label, even=1, odd=0)
        for label in ("order3_class_1", "order3_class_2")
    )
    return (
        TateKResult(2, "SL_3(Z)", two_power, _SL3_CITATIONS),
        TateKResult(3, "SL_3(Z)", three_power, _SL3_CITATIONS),
    )


# ``example_gl`` sums every binomial of the series of Z^((p-3)/2) and
# ``example_sp`` computes 2^((p-1)/2): in process, gl took 0.39 s at p = 4999,
# 2.5 s at 10,007 and 16 s at 20,011 (2-vCPU Xeon, Python 3.11), and sp at
# p = 99,999,999,977 would need about 6 GB.
MAX_EXAMPLE_PRIME = 5000


class ExamplePrimeTooLarge(ValueError):
    """The modulus of a gl or sp example is above ``MAX_EXAMPLE_PRIME``."""


def _check_example_prime(p: int) -> int:
    """``check_prime`` for the gl and sp families: refuse p > MAX_EXAMPLE_PRIME first."""
    if p > MAX_EXAMPLE_PRIME:
        raise ExamplePrimeTooLarge(f"p = {p} exceeds the gl/sp example bound {MAX_EXAMPLE_PRIME}")
    return check_prime(p)


def _require_count(p: int, supplied: int | None, lookup, what: str) -> int:
    if supplied is not None:
        if supplied < 1:
            raise ValueError(f"{what} must be positive, got {supplied}")
        return supplied
    value = lookup(p)
    if value is None:
        raise ValueError(
            f"no bundled {what} for p={p}; pass it explicitly"
        )
    return value


def example_gl(p: int, class_number: int | None = None) -> TateKResult:
    """GL_{p-1}(Z) for p >= 5: h classes, unit-group centralisers.

    Even and odd dimensions agree (each h * 2^{(p-5)/2}), so the Euler
    characteristic vanishes and weak duality fails.
    """
    _check_example_prime(p)
    if p < 5:
        raise ValueError(f"the GL_(p-1) family needs p >= 5, got {p}")
    h = _require_count(p, class_number, builtin_class_number, "class number")
    per_class = even_odd_totals(series_of(FreeAbelian((p - 3) // 2)))
    contribution = Contribution(
        label=f"ideal_classes(h={h})", even=h * per_class[0], odd=h * per_class[1]
    )
    return TateKResult(p, f"GL_{p - 1}(Z)", (contribution,), _GL_CITATIONS)


def example_sp(p: int, relative_class_number: int | None = None) -> TateKResult:
    """Sp_{p-1}(Z) for p >= 5: 2^{(p-1)/2} h_p^- classes, finite centralisers."""
    _check_example_prime(p)
    if p < 5:
        raise ValueError(f"the Sp_(p-1) family needs p >= 5, got {p}")
    h_minus = _require_count(
        p, relative_class_number, builtin_relative_class_number, "relative class number"
    )
    count = 2 ** ((p - 1) // 2) * h_minus
    contribution = Contribution(
        label=f"pair_classes(h_minus={h_minus})", even=count, odd=0
    )
    return TateKResult(p, f"Sp_{p - 1}(Z)", (contribution,), _SP_CITATIONS)


def example_mcg(p: int) -> TateKResult:
    """Mapping class group of genus (p-1)/2 for p >= 5: all centralisers finite."""
    check_prime(p)
    if p < 5:
        raise ValueError(f"the mapping class group family needs p >= 5, got {p}")
    product = (p + 1) * (p - 1)
    count, remainder = divmod(product, 6)
    if remainder != 0:
        raise NonIntegral(f"(p+1)(p-1) = {product} is not divisible by 6")
    contribution = Contribution(label="order_p_classes", even=count, odd=0)
    return TateKResult(p, f"MCG(Sigma_{(p - 1) // 2})", (contribution,), _MCG_CITATIONS)


def example_amalgam(p: int) -> TateKResult:
    """(Z/p x| Z/(p-1)) *_{Z/p} (Z/p x| Z/(p-1)) for odd p: one class,
    centraliser Z/p x F_{p-2}; the Euler characteristic is 3 - p."""
    check_prime(p)
    if p < 3:
        raise ValueError(f"the amalgam family needs an odd prime, got {p}")
    even, odd = even_odd_totals(series_of(FreeGroup(p - 2)))
    contribution = Contribution(label="order_p_class", even=even, odd=odd)
    return TateKResult(p, f"amalgam(p={p})", (contribution,), _AMALGAM_CITATIONS)


EXAMPLE_FAMILIES = ("sl3", "gl", "sp", "mcg", "amalgam")


# ---------------------------------------------------------------------------
# Table emission

TABLE4_RANKS = tuple(range(2, 13))
TABLE4_PRIMES = (2, 3, 5, 7, 11)
TABLE5_RANKS = tuple(range(2, 8))
TABLE5_PRIMES = (2, 3, 5, 7)


class TableDocument(Value):
    """A table's cells in (n, p) order: each the ``tate_k`` or ``rational_k``
    result, unknown ones included, or None where that raises OutOfRange."""

    which: int
    title: str
    ranks: tuple[int, ...]
    primes: tuple[int, ...]
    cells: tuple[TateKResult | RationalKResult | None, ...]
    citations: tuple[str, ...]

    def cell(self, n: int, p: int) -> TateKResult | RationalKResult | None:
        if n not in self.ranks or p not in self.primes:
            raise KeyError((n, p))
        return self.cells[self.ranks.index(n) * len(self.primes) + self.primes.index(p)]


def emit_table(which: int) -> TableDocument:
    """Table 4 (Farrell-Tate dims of Out(F_n)) or 5 (rationalised p-adic dims)."""
    if which == 4:
        ranks, primes, compute = TABLE4_RANKS, TABLE4_PRIMES, tate_k
        title = "p-adic Farrell-Tate K-theory of Out(F_n): (even, odd) Q_p-dimensions"
    elif which == 5:
        ranks, primes, compute = TABLE5_RANKS, TABLE5_PRIMES, rational_k
        title = "Rationalised p-adic K-theory of B Out(F_n): (even, odd) Q_p-dimensions"
    else:
        raise ValueError(f"no such table: {which} (supported: 4, 5)")
    cells = []
    for n in ranks:
        for p in primes:
            try:
                cells.append(compute(p, n))
            except OutOfRange:
                cells.append(None)
    citations = merge_citations(c for cell in cells if cell is not None for c in cell.citations)
    return TableDocument(which, title, ranks, primes, tuple(cells), citations)
