"""One shared base class for the immutable value types of every layer.

``dataclasses`` builds each class by ``exec``-ing six generated methods, which
cost 0.5-0.8 ms per class at import, and importing it loads ``inspect``,
``ast``, ``dis`` and ``tokenize`` (about 8 ms).  For the package's 28 frozen
dataclasses that was about 25 ms of every ``tatek`` process, most of the
``import tatek.cli`` time.
:class:`Value` keeps the behaviour of ``@dataclass(frozen=True)`` with shared
methods instead: a subclass only has its fields read once, from its own
annotations (after those of its bases) and class-level defaults.

The contract kept, as the dataclass twins in ``tests/test_value_base.py`` check:

- ``__init__`` takes the fields positionally or by keyword, fills defaults,
  calls ``__post_init__`` if the class has one, and raises a ``TypeError``
  naming the class and its fields for a missing, unexpected, repeated or
  surplus argument;
- ``==`` compares the tuples of field values, and only between instances of the
  same class; ``hash`` is the hash of that tuple;
- ``repr`` is ``Name(field=value, ...)``;
- assigning or deleting an attribute raises :class:`FrozenInstanceError`, an
  ``AttributeError``; ``object.__setattr__`` still works in ``__post_init__``;
- instances keep a ``__dict__``, so ``functools.cached_property``, ``copy`` and
  ``pickle`` work as on a dataclass; ``__match_args__`` lists the fields.

Not kept, as nothing in the package needs them: ``dataclasses.fields``,
``replace`` and ``asdict``, the generated ``__doc__`` and signature, CPython's
exact wording of an argument error, the ``...`` that a dataclass ``repr``
prints for a value that contains itself (no value here can), and the refusal
of a mutable default.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()
_setattr = object.__setattr__


# The most characters of an offending input value that an error message
# echoes: one such value may be most of a 32 MiB graph file or of a registry
# file.
MAX_SHOWN_CHARS = 60


def _cut(text: str) -> str:
    """``text``, cut to ``MAX_SHOWN_CHARS`` characters with an ellipsis."""
    if len(text) <= MAX_SHOWN_CHARS:
        return text
    return text[: MAX_SHOWN_CHARS - 3] + "..."


def _shown(value) -> str:
    """``repr(value)``, cut to ``MAX_SHOWN_CHARS`` characters."""
    return _cut(repr(value))


class FrozenInstanceError(AttributeError):
    """An attempt to assign to or delete an attribute of a :class:`Value`."""


def _key_getter(names: tuple[str, ...]):
    """The tuple of field values of an instance, as ``__eq__`` and ``__hash__`` use."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _bind(cls: type, args: tuple, kwargs: dict) -> dict:
    """Every field's value, in field order, from a call that does not give all
    fields by position or all by keyword in order."""
    names = cls.__match_args__
    given = dict(zip(names, args))
    values = {**cls._value_defaults, **given, **kwargs}
    if (
        len(given) < len(args)
        or not given.keys().isdisjoint(kwargs)
        or values.keys() != cls._value_fields
    ):
        raise TypeError(f"arguments do not fit {cls.__qualname__}({', '.join(names)})")
    return {name: values[name] for name in names}


class Value:
    """Base of an immutable value class whose fields are its annotations."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = dict.fromkeys(getattr(cls, "__match_args__", ()))
        fields.update(dict.fromkeys(cls.__dict__.get("__annotations__", {})))
        names = tuple(fields)
        defaults = {}
        for name in names:
            default = getattr(cls, name, _MISSING)
            if default is not _MISSING:
                defaults[name] = default
            elif defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        cls.__match_args__ = names
        cls._value_fields = frozenset(names)
        cls._value_defaults = defaults
        cls._value_init = (names, getattr(cls, "__post_init__", None))
        cls._value_key = staticmethod(_key_getter(names))

    def __init__(self, *args, **kwargs) -> None:
        names, post_init = self._value_init
        if kwargs or len(args) != len(names):
            if args or tuple(kwargs) != names:
                kwargs = _bind(type(self), args, kwargs)
            args = kwargs.values()
        # Set each field rather than fill ``__dict__``: reading ``__dict__``
        # makes CPython give the instance a real dict, and every later field
        # read slows down (more than twofold for nine reads in a row).
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._value_key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value_key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._value_init[0])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
