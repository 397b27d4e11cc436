"""Every value class of the package behaves as its ``@dataclass(frozen=True)`` twin.

The twin of a class has the same name, fields and defaults; it is a frozen
dataclass made with ``dataclasses.make_dataclass`` whose base is the value
class itself, so it inherits the methods (``__post_init__``, properties) and
only the six methods ``dataclasses`` generates differ.  Sample instances come
from running each layer on small inputs.
"""

import copy
import copyreg
import dataclasses
import importlib
import itertools
import pickle
import pkgutil
from random import Random

import pytest

import tatek
from tatek import assemble, classes, cli, graphs, modp, orbits, series
from tatek._value import FrozenInstanceError, Value

for _info in pkgutil.iter_modules(tatek.__path__):
    if _info.name != "__main__":
        importlib.import_module(f"tatek.{_info.name}")


def _value_classes() -> list[type]:
    found, todo = [], [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("tatek."):
                found.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


VALUE_CLASSES = _value_classes()


def _walk(obj, out: dict) -> None:
    if isinstance(obj, Value):
        out.setdefault(type(obj), []).append(obj)
        for name in type(obj).__match_args__:
            _walk(getattr(obj, name), out)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _walk(item, out)


def _collect_samples() -> dict:
    reg = series.default_registry()
    scrambled = graphs.scramble_graph(graphs.canonical_graph(3, 2), Random(7))
    form, moves = graphs.normalize(scrambled)
    edge_group = modp.stabiliser_group(modp.StabiliserKind.EDGE, 5)
    class_list = classes.order_p_classes(5, 8)
    roots = [
        assemble.tate_k(5, 8),
        assemble.tate_k(7, 11),
        assemble.rational_k(5, 7),
        assemble.emit_table(4),
        assemble.example_sl3(),
        class_list,
        [classes.centraliser_of(c) for c in class_list.classes],
        [classes.centraliser_of(c) for c in classes.order_p_classes(5, 6).classes],
        [reg.lookup(name) for name in ("OutF2", "AutF4", "OutF9")],
        scrambled,
        form,
        moves,
        graphs.validate(scrambled),
        graphs.edge_orbit_refs(scrambled),
        edge_group,
        orbits.orbit_report(modp.StabiliserKind.ROSE_VERTEX, 5),
        orbits.quotient_summary(7),
        series.series_of(series.FreeAbelian(3)),
        series.FreeAbelian(3),
        series.GroupExpr(),
        graphs.Move("collapse", 4),
        [options for _, options in cli.COMMANDS.values()],
    ]
    samples: dict = {}
    _walk(roots, samples)
    return samples


SAMPLES = _collect_samples()


def _fields(cls) -> tuple:
    return cls.__match_args__


def _defaults(cls) -> dict:
    return {n: getattr(cls, n) for n in _fields(cls) if hasattr(cls, n)}


_TWINS: dict = {}


def _twin(cls) -> type:
    """The frozen dataclass with the name, fields and defaults of ``cls``."""
    if cls not in _TWINS:
        defaults = _defaults(cls)
        spec = [
            (n, object, dataclasses.field(default=defaults[n])) if n in defaults else (n, object)
            for n in _fields(cls)
        ]
        _TWINS[cls] = dataclasses.make_dataclass(cls.__name__, spec, bases=(cls,), frozen=True)
    return _TWINS[cls]


def _samples_of(cls) -> list:
    """Up to three distinct samples, as field-value tuples."""
    seen = []
    for obj in SAMPLES[cls]:
        values = tuple(getattr(obj, n) for n in _fields(cls))
        if values not in seen:
            seen.append(values)
    return seen[:3]


def _error(make) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        make()
    return info.type, str(info.value)


def test_every_value_class_has_samples():
    assert {c.__qualname__ for c in VALUE_CLASSES} >= {
        "MatrixGroup", "OrbitReport", "EquivariantGraph", "Move", "GroupExpr", "Finite", "TableDocument",
    }
    assert [c for c in VALUE_CLASSES if c not in SAMPLES] == []


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
def test_construction_repr_eq_hash_match_twin(cls):
    twin = _twin(cls)
    assert cls.__match_args__ == twin.__match_args__
    for values in _samples_of(cls):
        ours, theirs = cls(*values), twin(*values)
        assert repr(ours) == repr(theirs)
        assert hash(ours) == hash(theirs)
        assert ours == cls(*values) and not ours != cls(*values)
        assert theirs == twin(*values)
        assert ours != theirs and theirs != ours
        by_keyword = dict(zip(_fields(cls), values))
        assert cls(**by_keyword) == ours
        assert repr(cls(**by_keyword)) == repr(twin(**by_keyword))
        split = len(values) // 2
        assert cls(*values[:split], **dict(list(by_keyword.items())[split:])) == ours
        required = [v for n, v in zip(_fields(cls), values) if n not in _defaults(cls)]
        assert repr(cls(*required)) == repr(twin(*required))
    for a, b in itertools.product(_samples_of(cls), repeat=2):
        assert (cls(*a) == cls(*b)) == (twin(*a) == twin(*b))
        assert (cls(*a) != cls(*b)) == (twin(*a) != twin(*b))


def test_equality_is_per_class():
    instances = [SAMPLES[c][0] for c in VALUE_CLASSES]
    for a, b in itertools.permutations(instances, 2):
        assert a != b
        assert _twin(type(a))(*(getattr(a, n) for n in _fields(type(a)))) != b
    assert series.FreeGroup(3) != series.FreeAbelian(3)
    assert hash(series.FreeGroup(3)) == hash(series.FreeAbelian(3))
    assert series.Finite() == series.Finite()
    assert series.Finite() != series.GroupExpr()


def _bad_calls(cls, values):
    """Calls that do not fit the fields: missing, surplus, unknown, repeated."""
    names = _fields(cls)
    kw = dict(zip(names, values))
    calls = [lambda c: c(*values, 0), lambda c: c(*values, 0, 0), lambda c: c(*values, bogus=1)]
    required = [n for n in names if n not in _defaults(cls)]
    if required:
        calls.append(lambda c: c())
        calls.append(lambda c: c(**{k: v for k, v in kw.items() if k != required[-1]}))
    if len(required) >= 3:
        calls.append(lambda c: c(**{k: v for k, v in kw.items() if k not in required[:3]}))
    if names:
        calls.append(lambda c: c(*values, **{names[0]: values[0]}))
        calls.append(lambda c: c(*values[1:], bogus=1, **{names[0]: values[0]}))
    return calls


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
def test_argument_errors_match_twin(cls):
    twin = _twin(cls)
    values = _samples_of(cls)[0]
    for call in _bad_calls(cls, values):
        ours_type, ours_msg = _error(lambda: call(cls))
        theirs_type, _ = _error(lambda: call(twin))
        assert ours_type is theirs_type is TypeError
        assert cls.__qualname__ in ours_msg


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
def test_frozen_like_twin(cls):
    values = _samples_of(cls)[0]
    ours, theirs = cls(*values), _twin(cls)(*values)
    for name in _fields(cls)[:1] + ("not_a_field",):
        for action in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
            ours_type, ours_msg = _error(lambda: action(ours))
            theirs_type, theirs_msg = _error(lambda: action(theirs))
            assert issubclass(ours_type, AttributeError) and ours_type is FrozenInstanceError
            assert issubclass(theirs_type, AttributeError)
            assert ours_msg == theirs_msg
    assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
def test_copy_and_pickle_like_twin(cls):
    values = _samples_of(cls)[0]
    ours, theirs = cls(*values), _twin(cls)(*values)
    ours_reduced, theirs_reduced = ours.__reduce_ex__(4), theirs.__reduce_ex__(4)
    assert ours_reduced[0] is theirs_reduced[0] is copyreg.__newobj__
    assert ours_reduced[1] == (cls,) and theirs_reduced[1] == (type(theirs),)
    assert ours_reduced[2:] == theirs_reduced[2:]
    for clone in (copy.copy(ours), copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
        assert type(clone) is cls
        assert clone == ours and hash(clone) == hash(ours) and repr(clone) == repr(ours)
    assert copy.copy(theirs) == theirs


def test_post_init_may_set_fields():
    g = graphs.EquivariantGraph(
        p=2, n_vertices=2, involution=[1, 0], attach=[0, 1], vertex_action=[1, 0],
        half_edge_action=[1, 0],
    )
    assert g.involution == (1, 0) and type(g.attach) is tuple
    assert repr(g) == (
        "EquivariantGraph(p=2, n_vertices=2, involution=(1, 0), attach=(0, 1), "
        "vertex_action=(1, 0), half_edge_action=(1, 0))"
    )


def test_cached_property_on_graph():
    g = graphs.canonical_graph(3, 1)
    fresh = graphs.canonical_graph(3, 1)
    cycles = g._half_edge_cycles
    assert g._half_edge_cycles is cycles
    assert "_half_edge_cycles" in vars(g) and "_half_edge_cycles" not in vars(fresh)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert "_half_edge_cycles" not in repr(g)


def test_default_must_not_precede_a_required_field():
    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        type("Bad", (Value,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})
