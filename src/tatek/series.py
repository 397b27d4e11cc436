"""Finite-support Poincare series, group expressions, and the cohomology registry.

A :class:`PoincareSeries` records the dimensions of the rational cohomology of
a group, degree by degree.  Every group in scope has finite-support series, so
products collapse to finite convolutions (Kunneth).  Series that the
literature has computed but that cannot be derived here are curated in a
versioned document shipped with the package (``tatek.bundled``); each entry
carries its citation, and entries with no published value are stored with
status "unknown" and poison any computation that touches them.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from ._value import Value, _cut, _shown

REGISTRY_ENV_VAR = "TATEK_REGISTRY"


class UnknownCohomology(Exception):
    """A computation touched a registry entry with no known series."""

    def __init__(self, name: str):
        super().__init__(f"no known cohomology for registry entry '{name}'")
        self.name = name


class NoSuchEntry(KeyError):
    """A registry name that is not curated and matches no dynamic rule."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class RegistryDataError(ValueError):
    """Registry data that cannot be used: a missing or malformed field of an
    entry, a series too long for its group, or an unreadable override file."""


class PoincareSeries(Value):
    """Finite-support map degree -> dimension, stored as sorted pairs."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_dims(cls, dims: Mapping[int, int]) -> "PoincareSeries":
        cleaned = {}
        for degree, dim in dims.items():
            degree = int(degree)
            dim = int(dim)
            if degree < 0 or dim < 0:
                raise ValueError(f"bad series entry {degree}: {dim}")
            if dim:
                cleaned[degree] = dim
        return cls(tuple(sorted(cleaned.items())))

    def dim(self, degree: int) -> int:
        for d, v in self.pairs:
            if d == degree:
                return v
        return 0

    @property
    def max_degree(self) -> int:
        return self.pairs[-1][0] if self.pairs else 0

    def convolve(self, other: "PoincareSeries") -> "PoincareSeries":
        """Coefficient-wise convolution: the Kunneth product."""
        out: dict[int, int] = {}
        for d1, v1 in self.pairs:
            for d2, v2 in other.pairs:
                out[d1 + d2] = out.get(d1 + d2, 0) + v1 * v2
        return PoincareSeries.from_dims(out)


def even_odd_totals(s: PoincareSeries) -> tuple[int, int]:
    even = sum(v for d, v in s.pairs if d % 2 == 0)
    odd = sum(v for d, v in s.pairs if d % 2 == 1)
    return (even, odd)


def flip_symmetric_square(s: PoincareSeries) -> PoincareSeries:
    """Invariants of s (x) s under the factor flip with the Koszul sign.

    With basis elements e_i of degree d_i, the flip sends e_i (x) e_j to
    (-1)^(d_i d_j) e_j (x) e_i.  Unordered pairs i < j each give one
    invariant; diagonal terms survive exactly when d_i is even.  In
    generating-function terms the result is (S(x)^2 + S(-x^2)) / 2.
    """
    square = s.convolve(s)
    signed_diag: dict[int, int] = {}
    for d, v in s.pairs:
        signed_diag[2 * d] = (v if d % 2 == 0 else -v)
    out: dict[int, int] = {}
    degrees = set(dict(square.pairs)) | set(signed_diag)
    for degree in degrees:
        total = square.dim(degree) + signed_diag.get(degree, 0)
        if total % 2 != 0:
            raise AssertionError(f"flip-square parity failure at degree {degree}")
        out[degree] = total // 2
    return PoincareSeries.from_dims(out)


# ---------------------------------------------------------------------------
# Group expressions


class GroupExpr(Value):
    """Base class for the small expression language of centraliser shapes.

    Each node knows its rational cohomology series, the registry entries it
    names (depth first, left to right) and its printed form.  A child's series
    is taken through :func:`series_of`, so every node passes through it.  A
    registry reference reads :func:`default_registry`, which ``TATEK_REGISTRY``
    chooses.
    """

    def series(self) -> PoincareSeries:
        raise NotImplementedError

    def registry_names(self) -> Iterator[str]:
        return iter(())


class Finite(GroupExpr):
    def series(self) -> PoincareSeries:
        """The series of any finite group: rationally acyclic."""
        return PoincareSeries.from_dims({0: 1})

    def __str__(self) -> str:
        return "finite"


class FreeGroup(GroupExpr):
    rank: int

    def series(self) -> PoincareSeries:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        return PoincareSeries.from_dims({0: 1, 1: self.rank})

    def __str__(self) -> str:
        return f"free({self.rank})"


class FreeAbelian(GroupExpr):
    rank: int

    def series(self) -> PoincareSeries:
        """Exterior algebra on `rank` degree-one generators: binomial dimensions."""
        from math import comb

        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        return PoincareSeries.from_dims({i: comb(self.rank, i) for i in range(self.rank + 1)})

    def __str__(self) -> str:
        return f"Z^{self.rank}"


class RegistryRef(GroupExpr):
    name: str

    def series(self) -> PoincareSeries:
        entry = registry_lookup(self.name)
        if not entry.known:
            raise UnknownCohomology(self.name)
        return entry.series

    def registry_names(self) -> Iterator[str]:
        yield self.name

    def __str__(self) -> str:
        return self.name


class Product(GroupExpr):
    factors: tuple[GroupExpr, ...]

    def series(self) -> PoincareSeries:
        result = PoincareSeries.from_dims({0: 1})  # a point's series, the unit
        for factor in self.factors:
            result = result.convolve(series_of(factor))
        return result

    def registry_names(self) -> Iterator[str]:
        for factor in self.factors:
            yield from factor.registry_names()

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)


class FlipSquare(GroupExpr):
    """Z/2-invariants of inner x inner where Z/2 swaps the factors."""

    inner: GroupExpr

    def series(self) -> PoincareSeries:
        return flip_symmetric_square(series_of(self.inner))

    def registry_names(self) -> Iterator[str]:
        return self.inner.registry_names()

    def __str__(self) -> str:
        return f"flip_square({self.inner})"


# ---------------------------------------------------------------------------
# Registry


class RegistryEntry(Value):
    """A curated or synthetic entry; ``series`` is None exactly when the
    entry is unknown, which ``Registry.from_document`` enforces."""

    name: str
    series: PoincareSeries | None
    citation: str

    @property
    def known(self) -> bool:
        return self.series is not None


# Names with no published computation resolve to synthetic unknown entries so
# that enumeration in large ranks degrades to unknown results instead of
# erroring: Aut(F_r) for r >= 6, Out(F_r) for r >= 8, and the rose
# centraliser cores (F_r x| Aut(F_r)) x| Z/2 for r >= 5.  The patterns are
# kept as strings and compiled through ``re``'s cache at the first lookup, so
# importing this module compiles none.
_DYNAMIC_UNKNOWN = (
    (r"AutF(\d+)", 6, "H_*(Aut(F_{r}); Q) has no published computation."),
    (r"OutF(\d+)", 8, "H_*(Out(F_{r}); Q) has no published computation."),
    (
        r"F(\d+)SemidirectAutF(\d+)_Z2invariants",
        5,
        "H^*(F_{r} x| Aut(F_{r}); Q)^{{Z/2}} has no published computation.",
    ),
)


class Registry:
    """Citation-tagged series registry: the bundled document
    (``tatek.bundled``) or a ``TATEK_REGISTRY`` override file in JSON."""

    def __init__(self, entries: dict[str, RegistryEntry], version: int):
        self._entries = entries
        self.version = version

    @classmethod
    def from_json_text(cls, text: str) -> "Registry":
        """The registry of an override file's text."""
        import json

        try:
            raw = json.loads(text)
        except RecursionError:
            raise RegistryDataError("registry document is nested too deeply to parse") from None
        return cls.from_document(raw)

    @classmethod
    def from_document(cls, raw: object) -> "Registry":
        """The registry of a parsed document, checked field by field."""
        raw_entries = raw.get("entries") if isinstance(raw, dict) else None
        if not isinstance(raw_entries, dict):
            raise RegistryDataError("registry document: entries missing or not an object")
        version = raw.get("version", 0)
        # A JSON true or false parses to a bool, which isinstance takes for an int.
        if type(version) is not int:
            raise RegistryDataError(
                f"registry document: version {_shown(version)} is not an integer"
            )
        entries: dict[str, RegistryEntry] = {}
        for name, body in raw_entries.items():
            where = f"registry entry {_cut(name)}"
            if not isinstance(body, dict):
                raise RegistryDataError(f"{where}: not an object")
            status = body.get("status")
            if status not in ("known", "unknown"):
                raise RegistryDataError(f"{where}: bad status {_shown(status)}")
            citation = body.get("citation", "")
            if not isinstance(citation, str):
                raise RegistryDataError(f"{where}: citation {_shown(citation)} is not a string")
            if status == "known":
                if not citation:
                    raise RegistryDataError(f"{where}: missing citation")
                dims = body.get("dims")
                if not isinstance(dims, dict):
                    raise RegistryDataError(f"{where}: dims missing or not an object")
                try:
                    series = PoincareSeries.from_dims({int(k): int(v) for k, v in dims.items()})
                except (TypeError, ValueError, OverflowError) as exc:
                    raise RegistryDataError(f"{where}: bad dims: {_cut(str(exc))}") from exc
                # int() also takes "01", " 1", 2.7, true and "3": each would
                # stand for a degree or a dimension it does not spell.
                for degree, dim in dims.items():
                    if str(int(degree)) != degree:
                        raise RegistryDataError(
                            f"{where}: dims degree {_shown(degree)} is not a canonical decimal"
                        )
                    if type(dim) is not int:
                        raise RegistryDataError(
                            f"{where}: dims value {_shown(dim)} is not an integer"
                        )
                if series.dim(0) < 1:
                    raise RegistryDataError(f"{where}: dims[0] must be >= 1")
            else:
                if "dims" in body:
                    raise RegistryDataError(f"{where}: unknown entries carry no dims")
                series = None
            entries[name] = RegistryEntry(name=name, series=series, citation=citation)
        return cls(entries, version=version)

    @classmethod
    def load_default(cls) -> "Registry":
        override = os.environ.get(REGISTRY_ENV_VAR)
        if override:
            try:
                with open(override, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise RegistryDataError(
                    f"cannot read {REGISTRY_ENV_VAR}={override}: {exc.strerror}"
                ) from exc
            return cls.from_json_text(text)
        from .bundled import COHOMOLOGY_REGISTRY

        return cls.from_document(COHOMOLOGY_REGISTRY)

    def lookup(self, name: str) -> RegistryEntry:
        entry = self._entries.get(name)
        if entry is not None:
            return entry
        for pattern, threshold, template in _DYNAMIC_UNKNOWN:
            match = re.fullmatch(pattern, name)
            if match is None:
                continue
            ranks = set(match.groups())
            if len(ranks) == 1 and int(match.group(1)) >= threshold:
                return RegistryEntry(
                    name=name, series=None, citation=template.format(r=match.group(1))
                )
        raise NoSuchEntry(name)


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    return Registry.load_default()


# The one way to choose the registry: the next lookup reads ``TATEK_REGISTRY`` again.
reset_default_registry = default_registry.cache_clear


def registry_lookup(name: str) -> RegistryEntry:
    return default_registry().lookup(name)


def series_of(expr: GroupExpr) -> PoincareSeries:
    """Evaluate a group expression to its rational cohomology series.

    Raises :class:`UnknownCohomology` naming the blocking entry as soon as an
    unknown registry value is touched, so unknowns poison eagerly.
    """
    return expr.series()


def merge_citations(citations: Iterable[str]) -> tuple[str, ...]:
    """The non-empty citations, each once, in the order first given."""
    return tuple(dict.fromkeys(citation for citation in citations if citation))


def citations_of(expr: GroupExpr) -> tuple[str, ...]:
    """Citations of every registry entry referenced by an expression."""
    return merge_citations(registry_lookup(name).citation for name in expr.registry_names())
