from hypothesis import given, strategies as st

from tatek.records import encode_value, parse_record, parse_records, render_record, render_records


def test_bare_and_quoted_values():
    line = render_record({"record": "cell", "label": "theta(0,2)", "note": "two words"})
    assert line == 'record=cell label=theta(0,2) note="two words"'
    assert parse_record(line) == {
        "record": "cell",
        "label": "theta(0,2)",
        "note": "two words",
    }


def test_parse_then_render_is_identity():
    text = render_records(
        [
            {"a": "1", "b": "x y", "c": "[[0,1],[1,0]]"},
            {"a": "2", "b": 'quote " inside'},
        ]
    )
    assert render_records(parse_records(text)) == text


@given(
    st.lists(
        st.dictionaries(
            st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
            st.text(min_size=0, max_size=20),
            min_size=1,
            max_size=5,
        ),
        max_size=4,
    )
)
def test_roundtrip_arbitrary_values(records):
    rendered = render_records(records)
    assert parse_records(rendered) == records
    assert render_records(parse_records(rendered)) == rendered


def reference_render_record(items: dict) -> str:
    """Every value through ``encode_value(str(value))``, ints too, as before
    ``render_record`` wrote ints directly."""
    return " ".join(f"{key}={encode_value(str(value))}" for key, value in items.items())


@given(
    st.dictionaries(
        st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
        st.one_of(st.integers(), st.booleans(), st.text(max_size=20), st.none()),
        max_size=6,
    )
)
def test_render_record_writes_ints_as_the_per_value_path_did(items):
    assert render_record(items) == reference_render_record(items)


def test_malformed_line_rejected():
    import pytest

    with pytest.raises(ValueError):
        parse_record("no_equals_sign_here")
