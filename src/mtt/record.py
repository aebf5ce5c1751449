"""Immutable record classes, cheap to declare.

``@record`` stands in for ``@dataclass(frozen=True)`` with what the kernel's
syntaxes use of it: fields read from the class's own annotations (a record
inherits none), keyword construction and defaults, ``field(default=...,
repr=False, compare=False)``, equality only between instances of the same
class, a hash over the compared fields, ``__match_args__``, the same
``repr`` text, and ``eq=False`` for identity semantics.  Every ``mtt``
command declares about a hundred of these classes before it does any
work, so a class compiles only its ``__init__``, which needs the
positional signature of its fields, and ``inspect`` is never imported.
``__eq__``, ``__hash__`` and ``__repr__`` are copies of shared functions
over an ``operator.attrgetter`` of the compared fields and the names of
the shown ones.  Every method's code carries the file name ``<record C>``,
so a profile shows each class's methods on rows of their own.

No record class is subclassed (``tests/test_record.py`` holds this), so
``x.__class__ is C`` answers as ``isinstance(x, C)`` does; the kernel's
per-node functions dispatch on that test.

Because instances never change, one instance may be shared wherever an
equal one is needed: ``modeth.id_mod`` and ``modeth.id_cell`` return one
object per argument, and the parser, evaluation and read-back each build
one instance of each record without fields they make (``syntax.Bool``,
``nbe.TBool``, ``nbe.VTrue``, ``nbe.FrProj1``, ``normal.NfTrue`` and the
like), and evaluation one Bool code, ``nbe.BOOL_CODE``, over the one
``TBool``.  Only records built from strings alone, or from nothing, or
from such shared records, are shared that way; they compare
structurally, so a shared one and a freshly built one are equal and
interchangeable.

Instances keep a ``__dict__`` (``functools.cached_property`` and ``vars``
need one).  ``__init__`` sets each field with ``object.__setattr__``, which
keeps the interpreter's fast attribute reads (writing ``self.__dict__``
would halve their speed on Python 3.11 and 3.12); afterwards the shared
``__setattr__`` and ``__delattr__`` refuse every change.
"""

from operator import attrgetter

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


def _methods(key, shown):
    """``__eq__``, ``__hash__`` and ``__repr__`` over ``key``, which reads
    a record's compared fields as one value, and ``shown``, the names of
    the fields its ``repr`` shows.  Each class gets its own copies."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in shown)
        return f"{self.__class__.__qualname__}({fields})"

    return __eq__, __hash__, __repr__


def _no_fields(self):
    return ()


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
    filename = f"<record {cls.__qualname__}>"
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in ns else f", {n}" for n in fields)
    src = [f"def __init__(self{params}):"]
    src += [f"    _set(self, {n!r}, {n})" for n in fields] or ["    pass"]
    exec(compile("\n".join(src), filename, "exec"), ns)
    cls.__init__ = ns["__init__"]
    compared = [n for n, f in fields.items() if f.compare]
    key = attrgetter(*compared) if compared else _no_fields
    eq_, hash_, repr_ = _methods(key, tuple(n for n, f in fields.items() if f.repr))
    for fn in (eq_, hash_, repr_) if eq else (repr_,):
        fn.__code__ = fn.__code__.replace(co_filename=filename)
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = tuple(fields)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls
