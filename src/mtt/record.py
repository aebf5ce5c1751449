"""Immutable record classes, cheap to declare.

``@record`` stands in for ``@dataclass(frozen=True)`` with what the kernel's
syntaxes use of it: fields read from the class's own annotations (a record
inherits none), keyword construction and defaults, ``field(default=...,
repr=False, compare=False)``, equality only between instances of the same
class, a hash over the compared fields, ``__match_args__``, the same
``repr`` text, and ``eq=False`` for identity semantics.  A class costs one
``exec`` of its generated methods, and ``inspect`` is never imported: every
``mtt`` command declares about a hundred of these classes before it does
any work.

No record class is subclassed (``tests/test_record.py`` holds this), so
``x.__class__ is C`` answers as ``isinstance(x, C)`` does; the kernel's
per-node functions dispatch on that test.

Instances keep a ``__dict__`` (``functools.cached_property`` and ``vars``
need one).  ``__init__`` sets each field with ``object.__setattr__``, which
keeps the interpreter's fast attribute reads (writing ``self.__dict__``
would halve their speed on Python 3.11 and 3.12); afterwards the shared
``__setattr__`` and ``__delattr__`` refuse every change.
"""

_MISSING = object()


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


class field:
    """A field's options, spelled as ``dataclasses.field`` spells them."""

    __slots__ = ("default", "repr", "compare")

    def __init__(self, *, default=_MISSING, repr: bool = True, compare: bool = True):
        self.default, self.repr, self.compare = default, repr, compare


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls=None, /, *, eq: bool = True):
    """Make ``cls`` an immutable record; ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda c: record(c, eq=eq)
    fields, ns = {}, {"_set": object.__setattr__}
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        if spec.default is not _MISSING:
            ns[f"_d_{name}"] = spec.default
        fields[name] = spec
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in ns else f", {n}" for n in fields)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n, f in fields.items() if f.repr)
    compared = [n for n, f in fields.items() if f.compare]
    mine, theirs = ("(" + "".join(f"{o}.{n}, " for n in compared) + ")" for o in ("self", "other"))
    src = [f"def __init__(self{params}):"]
    src += [f"    _set(self, {n!r}, {n})" for n in fields] or ["    pass"]
    src += ["def __repr__(self):", f"    return f'{{self.__class__.__qualname__}}({shown})'"]
    if eq:
        src += ["def __eq__(self, other):", "    if other.__class__ is self.__class__:"]
        src += [f"        return {mine} == {theirs}", "    return NotImplemented"]
        src += ["def __hash__(self):", f"    return hash({mine})"]
    exec("\n".join(src), ns)
    for method in ("__init__", "__repr__") + (("__eq__", "__hash__") if eq else ()):
        setattr(cls, method, ns[method])
    cls.__match_args__ = tuple(fields)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls
