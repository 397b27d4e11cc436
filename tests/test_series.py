import copy
import json

import pytest
from hypothesis import given, strategies as st

from tatek import bundled
from tatek.series import (
    Finite,
    FlipSquare,
    FreeAbelian,
    FreeGroup,
    NoSuchEntry,
    REGISTRY_ENV_VAR,
    PoincareSeries,
    Product,
    Registry,
    RegistryDataError,
    RegistryRef,
    UnknownCohomology,
    citations_of,
    default_registry,
    even_odd_totals,
    flip_symmetric_square,
    registry_lookup,
    series_of,
)

series_dims = st.dictionaries(st.integers(0, 8), st.integers(0, 5), max_size=6)


def test_series_of_finite():
    assert dict(series_of(Finite()).pairs) == {0: 1}


def test_series_of_circle():
    assert dict(series_of(FreeAbelian(1)).pairs) == {0: 1, 1: 1}


def test_series_of_product_example():
    s = series_of(Product((FreeAbelian(1), FreeGroup(2))))
    assert dict(s.pairs) == {0: 1, 1: 3, 2: 2}


def test_series_free_abelian_two():
    # (p - 3) / 2 = 2 at p = 7: the rank of the free part of the unit group.
    assert dict(series_of(FreeAbelian(2)).pairs) == {0: 1, 1: 2, 2: 1}


def test_even_odd_examples():
    assert even_odd_totals(Finite().series()) == (1, 0)
    assert even_odd_totals(series_of(FreeAbelian(1))) == (1, 1)
    assert even_odd_totals(PoincareSeries.from_dims({0: 1, 1: 1})) == (1, 1)


def test_free_abelian_of_rank_0_is_a_point():
    assert dict(series_of(FreeAbelian(0)).pairs) == {0: 1}
    assert even_odd_totals(series_of(FreeAbelian(0))) == (1, 0)
    with pytest.raises(ValueError, match="rank must be >= 0"):
        series_of(FreeAbelian(-1))


def test_free_group_of_negative_rank_is_refused():
    with pytest.raises(ValueError, match="rank must be >= 0"):
        series_of(FreeGroup(-1))


def test_free_abelian_totals_are_balanced():
    for r in range(1, 9):
        assert even_odd_totals(series_of(FreeAbelian(r))) == (2 ** (r - 1), 2 ** (r - 1))


@given(series_dims, series_dims)
def test_convolution_commutative(d1, d2):
    a = PoincareSeries.from_dims(d1)
    b = PoincareSeries.from_dims(d2)
    assert a.convolve(b) == b.convolve(a)


@given(series_dims, series_dims, series_dims)
def test_convolution_associative(d1, d2, d3):
    a, b, c = (PoincareSeries.from_dims(d) for d in (d1, d2, d3))
    assert a.convolve(b).convolve(c) == a.convolve(b.convolve(c))


@given(series_dims)
def test_point_is_the_unit(d):
    a = PoincareSeries.from_dims(d)
    assert a.convolve(Finite().series()) == a


@given(series_dims, series_dims)
def test_even_odd_multiplicative(d1, d2):
    a = PoincareSeries.from_dims(d1)
    b = PoincareSeries.from_dims(d2)
    e1, o1 = even_odd_totals(a)
    e2, o2 = even_odd_totals(b)
    assert even_odd_totals(a.convolve(b)) == (e1 * e2 + o1 * o2, e1 * o2 + o1 * e2)


def test_flip_square_acyclic():
    assert dict(flip_symmetric_square(Finite().series()).pairs) == {0: 1}


def test_flip_square_even_input():
    s = PoincareSeries.from_dims({0: 1, 4: 1})
    assert dict(flip_symmetric_square(s).pairs) == {0: 1, 4: 1, 8: 1}


def test_flip_square_odd_generator():
    # One odd class e: e (x) e is anti-invariant, the degree-0 square and
    # nothing else survives alongside the mixed terms.
    s = PoincareSeries.from_dims({0: 1, 1: 1})
    assert dict(flip_symmetric_square(s).pairs) == {0: 1, 1: 1}


def test_flip_square_brute_force_comparison():
    # Count invariant pairs directly from a basis with degrees.
    for degrees in ([0, 2, 3], [0, 1, 1, 4], [0, 5]):
        s_dims: dict[int, int] = {}
        for d in degrees:
            s_dims[d] = s_dims.get(d, 0) + 1
        expected: dict[int, int] = {}
        for i, di in enumerate(degrees):
            for j, dj in enumerate(degrees):
                if i < j:
                    expected[di + dj] = expected.get(di + dj, 0) + 1
                elif i == j and di % 2 == 0:
                    expected[2 * di] = expected.get(2 * di, 0) + 1
        got = dict(flip_symmetric_square(PoincareSeries.from_dims(s_dims)).pairs)
        assert got == expected


def test_registry_examples():
    assert dict(registry_lookup("AutF4").series.pairs) == {0: 1, 4: 1}
    assert dict(registry_lookup("RoseCentralizerCore_n=l+3").series.pairs) == {0: 1, 4: 1}
    assert dict(registry_lookup("OutF7").series.pairs) == {0: 1, 8: 1, 11: 1}
    entry = registry_lookup("F4SemidirectAutF4_Z2invariants")
    assert not entry.known and entry.series is None


def test_registry_unknown_poisons():
    with pytest.raises(UnknownCohomology) as info:
        series_of(Product((Finite(), RegistryRef("F4SemidirectAutF4_Z2invariants"))))
    assert info.value.name == "F4SemidirectAutF4_Z2invariants"


def test_registry_no_such_entry():
    with pytest.raises(NoSuchEntry):
        registry_lookup("NotARealEntryName")


def test_registry_dynamic_unknowns():
    assert not registry_lookup("AutF9").known
    assert not registry_lookup("OutF12").known
    assert not registry_lookup("F6SemidirectAutF6_Z2invariants").known
    # Below the thresholds the explicit entries (or nothing) decide.
    with pytest.raises(NoSuchEntry):
        registry_lookup("OutF1")


SYNTHETIC_UNKNOWN_CASES = [
    ("AutF6", "H_*(Aut(F_6); Q) has no published computation."),
    ("OutF8", "H_*(Out(F_8); Q) has no published computation."),
    (
        "F5SemidirectAutF5_Z2invariants",
        "H^*(F_5 x| Aut(F_5); Q)^{Z/2} has no published computation.",
    ),
    # `\d` takes any Unicode decimal digit, and the reason repeats it.
    ("AutF\u0666", "H_*(Aut(F_\u0666); Q) has no published computation."),
    ("OutF\u0668", "H_*(Out(F_\u0668); Q) has no published computation."),
    (
        "F\u0665SemidirectAutF\u0665_Z2invariants",
        "H^*(F_\u0665 x| Aut(F_\u0665); Q)^{Z/2} has no published computation.",
    ),
    ("AutF5", None),
    ("OutF7", None),
    ("F4SemidirectAutF4_Z2invariants", None),
    ("F5SemidirectAutF6_Z2invariants", None),
    # The two ranks must be spelled alike, not merely equal.
    ("F5SemidirectAutF\u0665_Z2invariants", None),
]


@pytest.mark.parametrize(
    "name, citation",
    SYNTHETIC_UNKNOWN_CASES,
    ids=[ascii(name)[1:-1] for name, _ in SYNTHETIC_UNKNOWN_CASES],
)
def test_synthetic_unknown_names(name, citation):
    # An empty registry, so that only the synthetic rule decides.
    registry = Registry({}, version=1)
    if citation is None:
        with pytest.raises(NoSuchEntry):
            registry.lookup(name)
    else:
        entry = registry.lookup(name)
        assert (entry.name, entry.known, entry.series, entry.citation) == (
            name,
            False,
            None,
            citation,
        )


def test_registry_citations_nonempty():
    registry = default_registry()
    for name in bundled.COHOMOLOGY_REGISTRY["entries"]:
        entry = registry.lookup(name)
        if entry.known:
            assert entry.citation.strip()


def test_bundled_document_reads_as_its_json_text():
    # The bundled document is what an override file holding its JSON gives.
    doc = bundled.COHOMOLOGY_REGISTRY
    from_text = Registry.from_json_text(json.dumps(doc))
    from_doc = Registry.from_document(doc)
    assert from_doc.version == from_text.version == doc["version"]
    for name in doc["entries"]:
        assert from_doc.lookup(name) == from_text.lookup(name) == default_registry().lookup(name)


def test_bundled_document_is_checked_on_every_load(monkeypatch):
    doc = copy.deepcopy(bundled.COHOMOLOGY_REGISTRY)
    doc["entries"]["AutF4"]["dims"]["4"] = 2.0
    monkeypatch.setattr(bundled, "COHOMOLOGY_REGISTRY", doc)
    monkeypatch.delenv(REGISTRY_ENV_VAR, raising=False)
    with pytest.raises(RegistryDataError, match="^registry entry AutF4: dims value 2.0 "):
        Registry.load_default()


def test_registry_version_and_roundtrip(tmp_path):
    registry = default_registry()
    assert registry.version >= 1
    custom = {
        "version": 2,
        "entries": {
            "TestEntry": {"status": "known", "dims": {"0": 1, "2": 3}, "citation": "x"}
        },
    }
    loaded = Registry.from_json_text(json.dumps(custom))
    assert dict(loaded.lookup("TestEntry").series.pairs) == {0: 1, 2: 3}


def test_registry_document_without_version_is_version_0():
    doc = copy.deepcopy(bundled.COHOMOLOGY_REGISTRY)
    del doc["version"]
    registry = Registry.from_document(doc)
    assert registry.version == 0
    assert Registry.from_json_text(json.dumps(doc)).version == 0
    for name in doc["entries"]:
        assert registry.lookup(name) == default_registry().lookup(name)


@pytest.mark.parametrize("version", [True, False])
def test_registry_document_with_boolean_version_is_refused(version):
    text = json.dumps({"version": version, "entries": {}})
    with pytest.raises(RegistryDataError) as info:
        Registry.from_json_text(text)
    assert str(info.value) == f"registry document: version {version} is not an integer"


def test_registry_rejects_bad_entries():
    with pytest.raises(ValueError):
        Registry.from_json_text(
            json.dumps({"version": 1, "entries": {"X": {"status": "odd"}}})
        )
    with pytest.raises(ValueError):
        Registry.from_json_text(
            json.dumps(
                {"version": 1, "entries": {"X": {"status": "known", "dims": {"0": 1}}}}
            )
        )
    with pytest.raises(ValueError):
        Registry.from_json_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": {
                        "X": {"status": "unknown", "dims": {"0": 1}, "citation": "x"}
                    },
                }
            )
        )


def test_citations_of_walks_expressions():
    expr = Product((Finite(), RegistryRef("AutF4"), FlipSquare(RegistryRef("AutF2"))))
    cites = citations_of(expr)
    assert len(cites) == 2
    assert any("Gerlits" in c for c in cites)


def test_group_expressions_print_and_name_their_entries():
    inner = Product((Finite(), RegistryRef("AutF2")))
    expr = Product((FreeAbelian(2), FreeGroup(3), RegistryRef("AutF4"), FlipSquare(inner)))
    assert str(expr) == "Z^2 x free(3) x AutF4 x flip_square(finite x AutF2)"
    assert list(expr.registry_names()) == ["AutF4", "AutF2"]
    assert list(Finite().registry_names()) == []
