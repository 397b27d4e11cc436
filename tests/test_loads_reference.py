"""``graphs.loads`` against the dict reader it replaced.

``loads`` takes each half-edge record into integer columns while the file is
parsed, and reads a file whose objects are not the graph and its records in
place as a tree of dicts again.  ``oracles.reference_loads`` is the reader
that always built the tree, frozen.  Hypothesis writes graph files with the
mutations a hand-edited or hostile file may carry: record keys dropped,
duplicated, reordered or added; ids permuted or repeated; ``true``, ``1.0``
and ``"3"`` as values; records that are not objects, and objects shaped like
records outside the record list; a top-level object shaped like a record; and
deep nesting.  Both readers must give an equal graph, or the same exception
class and message.
"""

import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_valid_graph, reference_loads
from tatek.graphs import canonical_graph, loads


class Obj(list):
    """A JSON object as its (key, value) pairs, in the file's order: a key may
    repeat, which a dict cannot show."""


class Deep:
    """``inner`` inside ``depth`` levels of lists, or of one-key objects."""

    def __init__(self, inner, depth: int, objects: bool):
        self.inner, self.depth, self.objects = inner, depth, objects


def write(value) -> str:
    """``value`` as JSON text, an ``Obj`` with its pairs as they stand."""
    if isinstance(value, Deep):
        opening, closing = ('{"a": ', "}") if value.objects else ("[", "]")
        return opening * value.depth + write(value.inner) + closing * value.depth
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {write(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(write, value)) + "]"
    return json.dumps(value)


def document(g) -> Obj:
    """The object ``dumps(g)`` writes, as nested ``Obj`` pairs."""
    return Obj(
        [
            ("half_edge_action", list(g.half_edge_action)),
            (
                "half_edges",
                [
                    Obj([("id", h), ("partner", g.involution[h]), ("vertex", g.attach[h])])
                    for h in range(g.n_half_edges)
                ],
            ),
            ("p", g.p),
            ("vertex_action", list(g.vertex_action)),
            ("vertices", g.n_vertices),
        ]
    )


# Values that are not the exact ints a graph file holds, and values that are.
ODD_VALUES = [True, False, 1.0, "3", None, [], 2**70, -1, Obj(), [0, 1]]


def some_value(rng: Random, g):
    if rng.random() < 0.5:
        return rng.choice(ODD_VALUES)
    return rng.randrange(-1, g.n_half_edges + 2)


def a_record(rng: Random, g) -> Obj:
    h = rng.randrange(g.n_half_edges)
    return Obj([("id", h), ("partner", g.involution[h]), ("vertex", g.attach[h])])


def fields(doc) -> Obj:
    """The pairs of ``doc``, or a throwaway empty object once an earlier
    mutation has left no graph object to change."""
    return doc if isinstance(doc, Obj) else Obj()


def records_of(doc) -> list:
    """The first half_edges list of ``doc``, or a throwaway empty list."""
    return next((v for k, v in fields(doc) if k == "half_edges" and isinstance(v, list)), [])


def record_at(doc: Obj, rng: Random):
    """A record of ``doc`` that is still an ``Obj``, or None."""
    records = [r for r in records_of(doc) if isinstance(r, Obj)]
    return rng.choice(records) if records else None


def drop_key(doc, g, rng):
    record = record_at(doc, rng)
    if record:
        del record[rng.randrange(len(record))]
    return doc


def duplicate_key(doc, g, rng):
    record = record_at(doc, rng)
    if record:
        key, _ = rng.choice(record)
        record.insert(rng.randrange(len(record) + 1), (key, some_value(rng, g)))
    return doc


def reorder_keys(doc, g, rng):
    record = record_at(doc, rng)
    if record:
        rng.shuffle(record)
    return doc


def extra_key(doc, g, rng):
    record = record_at(doc, rng)
    if record:
        key = rng.choice(["extra", "half_edges", "p", "id2"])
        value = a_record(rng, g) if rng.random() < 0.3 else some_value(rng, g)
        record.insert(rng.randrange(len(record) + 1), (key, value))
    return doc


def permute_ids(doc, g, rng):
    records = [r for r in records_of(doc) if isinstance(r, Obj)]
    ids = [v for r in records for k, v in r if k == "id"]
    rng.shuffle(ids)
    for r in records:
        for i, (k, _) in enumerate(r):
            if k == "id" and ids:
                r[i] = (k, ids.pop())
    return doc


def shuffle_records(doc, g, rng):
    rng.shuffle(records_of(doc))
    return doc


def repeat_id(doc, g, rng):
    record = record_at(doc, rng)
    if record:
        record[:] = [(k, rng.randrange(g.n_half_edges) if k == "id" else v) for k, v in record]
    return doc


def odd_value(doc, g, rng):
    """``true``, ``1.0``, ``"3"`` or another odd value in a record, an action
    list or a scalar field."""
    value = rng.choice([True, 1.0, "3", *ODD_VALUES])
    where = rng.choice(["record", "half_edge_action", "vertex_action", "p", "vertices"])
    if where == "record":
        record = record_at(doc, rng)
        if record:
            i = rng.randrange(len(record))
            record[i] = (record[i][0], value)
        return doc
    for i, (k, v) in enumerate(fields(doc)):
        if k == where:
            if isinstance(v, list) and v:
                v[rng.randrange(len(v))] = value
            else:
                doc[i] = (k, value)
    return doc


def not_an_object(doc, g, rng):
    records = records_of(doc)
    if records:
        value = rng.choice([7, "x", None, [0, 1, 0], [a_record(rng, g)], 1.5, True])
        records[rng.randrange(len(records))] = value
    return doc


def record_elsewhere(doc, g, rng):
    """An object shaped like a record outside the record list: in an action
    list, as a top-level field, or as a record's value."""
    where = rng.choice(["vertex_action", "half_edge_action", "top", "value"])
    if where == "top":
        fields(doc).insert(rng.randrange(len(fields(doc)) + 1), ("extra", a_record(rng, g)))
    elif where == "value":
        record = record_at(doc, rng)
        if record:
            i = rng.randrange(len(record))
            record[i] = (record[i][0], a_record(rng, g))
    else:
        for k, v in fields(doc):
            if k == where and isinstance(v, list):
                v.insert(rng.randrange(len(v) + 1), a_record(rng, g))
    return doc


def duplicate_top_key(doc, g, rng):
    """A field repeated, the copy before or after the first."""
    pairs = fields(doc)
    if pairs:
        key, value = rng.choice(pairs)
        if isinstance(value, list):
            value = [Obj(r) if isinstance(r, Obj) else r for r in value]
        pairs.insert(rng.randrange(len(pairs) + 1), (key, value))
    return doc


def drop_top_key(doc, g, rng):
    pairs = fields(doc)
    if pairs:
        del pairs[rng.randrange(len(pairs))]
    return doc


def top_level_record(doc, g, rng):
    record = a_record(rng, g)
    if rng.random() < 0.5:
        record.append(("vertices", g.n_vertices))
    return record


def nested(doc, g, rng):
    """The file, or one record's first value, inside many levels of lists or
    objects, some just under the parser's depth limit and some above it."""
    depth = rng.choice([3, 50, 900, 980, 995, 1000, 5000])
    objects = rng.random() < 0.5
    if rng.random() < 0.5:
        record = record_at(doc, rng)
        if record:
            record[0] = (record[0][0], Deep(record[0][1], depth, objects))
        return doc
    return Deep(doc, depth, objects)


MUTATIONS = [
    drop_key,
    duplicate_key,
    reorder_keys,
    extra_key,
    permute_ids,
    shuffle_records,
    repeat_id,
    odd_value,
    not_an_object,
    record_elsewhere,
    duplicate_top_key,
    drop_top_key,
    top_level_record,
    nested,
]


def outcome(read, text: str):
    """The graph that ``read`` gives, or the class and message it raises."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**32),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=3),
)
def test_loads_matches_the_dict_reader_on_mutated_files(p, seed, mutations):
    rng = Random(seed)
    g = random_valid_graph(p, 11, rng)
    doc = document(g)
    for mutate in mutations:
        doc = mutate(doc, g, rng)
    text = write(doc)
    assert outcome(loads, text) == outcome(reference_loads, text)


@pytest.mark.parametrize(
    "text",
    [
        '{"id": 0, "partner": 1, "vertex": 0}',
        '{"id": 0, "partner": 1, "vertex": 0, "half_edges": []}',
        '[{"id": 0, "partner": 1, "vertex": 0}]',
        '{"half_edges": [[{"id": 0, "partner": 1, "vertex": 0}]], "p": 2}',
        '{"half_edges": [{"id": 0, "partner": {"id": 1, "partner": 0, "vertex": 0}, "vertex": 0}]}',
        '{"half_edges": [{"id": 0, "partner": 1, "vertex": 0}], "half_edges": [], "p": 2}',
        '{"half_edges": [{"id": 0, "partner": 99999999999999999999, "vertex": 0}], "p": 2}',
        '{"half_edges": [{"id": 0, "partner": 1, "vertex": 0, "half_edges": 1}], "p": 2}',
        '{"half_edge_action": [], "half_edges": [], "p": 3, "vertex_action": [0], "vertices": 1}',
        '{"half_edge_action": [1, 0], "half_edges": [{"id": 0, "partner": 1, "vertex": 3}, '
        '{"id": 1, "partner": 0, "vertex": 2}], "p": 2, "vertex_action": [1, 0, 3, 2], '
        '"vertices": 4}',
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 990 + "{}" + "}" * 990,
    ],
)
def test_loads_matches_the_dict_reader_on_edge_cases(text):
    assert outcome(loads, text) == outcome(reference_loads, text)


def test_loads_matches_the_dict_reader_on_each_value_of_each_record():
    # Every record field of a small file, one at a time, set to each odd value,
    # to its own value as a float and to a neighbouring int: false in record 0
    # or true or 1.0 in record 1 equals the id it stands for, and must be
    # refused as it was, not taken for that int.
    g = canonical_graph(2, 1)
    for h in range(g.n_half_edges):
        for i in range(3):
            for value in [*ODD_VALUES, float(h), h - 1, h + 1]:
                doc = document(g)
                record = records_of(doc)[h]
                record[i] = (record[i][0], value)
                text = write(doc)
                assert outcome(loads, text) == outcome(reference_loads, text), (h, i, value)


def test_loads_matches_the_dict_reader_at_the_depth_limit():
    # ``loads``' object hook runs a frame or two deeper than the parser, so a
    # record nested just under the limit makes only the hooked parse overflow;
    # ``loads`` then parses again without the hook, as the dict reader does.
    for depth in range(800, 1001):
        text = '{"a": ' * depth + '{"id": 0, "partner": 1, "vertex": 0}' + "}" * depth
        assert outcome(loads, text) == outcome(reference_loads, text), depth

