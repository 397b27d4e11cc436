"""Line-oriented key=value records with a stable, round-trippable encoding.

One record per line; keys keep their given order.  Values that are non-empty
and consist only of the characters of ``_BARE`` are written bare, everything
else is JSON-quoted, so ``parse(render(r)) == r``, and re-rendering parsed text
that ``render_record`` wrote reproduces it byte for byte; the parser takes a
bare value only from those characters.  A value of printable ASCII with no
``"`` and no ``\\`` is quoted directly; the ``json`` codec is imported only
where any other value is quoted or a record is parsed, and the token pattern
``_TOKEN`` is compiled (once, through ``re``'s cache) only where a record is
parsed, so rendering records of plain values loads neither.
"""

from __future__ import annotations

import re

# The bare characters; '"' is not among them, so a bare value never starts a
# quoted one.  A value that starts with '"' but is no whole JSON string still
# makes a token, which ``json.loads`` then refuses at the value's column.
_BARE = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.,+:/()[]{}<>^=-"
_TOKEN = r'([A-Za-z_][A-Za-z0-9_]*)=("(?:[^"\\]|\\.)*"|"\S*|[' + re.escape(_BARE) + "]+)"


def encode_value(value: str) -> str:
    if value and not value.strip(_BARE):
        return value
    # Printable ASCII with no '"' and no '\\' is the JSON string of itself
    # between quotes: ``json.dumps`` escapes nothing else in that range.
    if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
        return '"' + value + '"'
    import json

    return json.dumps(value)


def render_record(items: dict) -> str:
    """One line of ``key=value`` pairs; an int is written as ``str`` writes it,
    which is always bare, without the test of :func:`encode_value`."""
    return " ".join(
        f"{key}={value}" if type(value) is int else f"{key}={encode_value(str(value))}"
        for key, value in items.items()
    )


def parse_record(line: str) -> dict[str, str]:
    """The pairs of one line.  Each token must be followed by a space or the
    end of the line, and a quoted value must be a whole JSON string."""
    import json

    token = re.compile(_TOKEN)
    out: dict[str, str] = {}
    pos = 0
    line = line.strip()
    while pos < len(line):
        match = token.match(line, pos)
        end = pos if match is None else match.end()
        if match is None or line[end : end + 1] not in ("", " "):
            raise ValueError(f"malformed record at column {end}: {line!r}")
        key, raw = match.group(1), match.group(2)
        if raw.startswith('"'):
            try:
                out[key] = json.loads(raw)
            except json.JSONDecodeError:
                raise ValueError(
                    f"malformed record at column {match.start(2)}: {line!r}"
                ) from None
        else:
            out[key] = raw
        pos = end
        while pos < len(line) and line[pos] == " ":
            pos += 1
    return out


def render_records(records: list[dict[str, str]]) -> str:
    return "\n".join(render_record(r) for r in records) + ("\n" if records else "")


def parse_records(text: str) -> list[dict[str, str]]:
    return [parse_record(line) for line in text.splitlines() if line.strip()]
