"""Line-oriented key=value records with a stable, round-trippable encoding.

One record per line; keys keep their given order.  Values that consist only
of safe characters are written bare, everything else is JSON-quoted, so
``parse(render(r)) == r`` and re-rendering parsed text reproduces it byte for
byte.
"""

from __future__ import annotations

import json
import re

_BARE = re.compile(r"[A-Za-z0-9_.,+:/()\[\]{}<>^=-]+")
_TOKEN = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)=("(?:[^"\\]|\\.)*"|\S+)')


def encode_value(value: str) -> str:
    if value and _BARE.fullmatch(value) and not value.startswith('"'):
        return value
    return json.dumps(value)


def render_record(items: dict) -> str:
    """One line of ``key=value`` pairs; an int is written as ``str`` writes it,
    which is always bare, without the regex of :func:`encode_value`."""
    return " ".join(
        f"{key}={value}" if type(value) is int else f"{key}={encode_value(str(value))}"
        for key, value in items.items()
    )


def parse_record(line: str) -> dict[str, str]:
    out: dict[str, str] = {}
    pos = 0
    line = line.strip()
    while pos < len(line):
        match = _TOKEN.match(line, pos)
        if match is None:
            raise ValueError(f"malformed record at column {pos}: {line!r}")
        key, raw = match.group(1), match.group(2)
        out[key] = json.loads(raw) if raw.startswith('"') else raw
        pos = match.end()
        while pos < len(line) and line[pos] == " ":
            pos += 1
    return out


def render_records(records: list[dict[str, str]]) -> str:
    return "\n".join(render_record(r) for r in records) + ("\n" if records else "")


def parse_records(text: str) -> list[dict[str, str]]:
    return [parse_record(line) for line in text.splitlines() if line.strip()]
