import json
import re

import pytest
from hypothesis import example, given, strategies as st

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


# The bare rule as a regex, as ``encode_value`` once tested it.
_BARE_REGEX = re.compile(r"[A-Za-z0-9_.,+:/()\[\]{}<>^=-]+")


def reference_encode_value(value: str) -> str:
    if value and _BARE_REGEX.fullmatch(value) and not value.startswith('"'):
        return value
    return json.dumps(value)


@given(st.text())
@example("")
@example('"a')
@example('a"')
@example("a b")
@example("é")
@example("٣")
@example("\n")
@example("\x7f")
@example("[[0,1],[1,0]]")
@example("F4SemidirectAutF4_Z2invariants")
def test_encode_value_follows_the_bare_regex(value):
    assert encode_value(value) == reference_encode_value(value)


@given(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)))
@example('a"b')
@example("a\\b")
@example('"')
@example("two words")
def test_encode_value_quotes_printable_ascii_as_json_does(value):
    # Printable ASCII is quoted without the codec, as the codec would quote it;
    # the property above draws from all of Unicode, where this is rare.
    assert encode_value(value) == reference_encode_value(value)


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="^malformed record at column 0: "):
        parse_record("no_equals_sign_here")


@pytest.mark.parametrize(
    "line, column",
    [
        # A quoted value runs into the next key with no space between.
        ('a="x"b=1', 5),
        # An unterminated quote, and an escape JSON does not know.
        ('a="x', 2),
        ('a=1 b="\\q"', 6),
    ],
    ids=["no_space_after_quote", "unterminated_quote", "unknown_escape"],
)
def test_malformed_token_rejected(line, column):
    with pytest.raises(ValueError, match=f"^malformed record at column {column}: "):
        parse_record(line)


@pytest.mark.parametrize(
    "line, column",
    [('a=x"y', 3), ("a=é", 0), ("a=x\\y", 3), ("a=#", 0)],
    ids=["quote_inside", "non_ascii", "backslash", "hash"],
)
def test_bare_value_outside_the_bare_set_rejected(line, column):
    with pytest.raises(ValueError, match=f"^malformed record at column {column}: "):
        parse_record(line)


@given(st.text().filter(lambda v: not v.startswith('"') and not any(c.isspace() for c in v)))
@example('x"y')
@example("é")
@example("x\\y")
@example("#")
@example("[[0,1],[1,0]]")
def test_parsed_bare_value_renders_back(value):
    # Text that parses re-renders byte for byte; anything else is refused.
    try:
        parsed = parse_record("a=" + value)
    except ValueError:
        return
    assert render_record(parsed) == "a=" + value
