"""Core abstract syntax: de Bruijn terms.

Terms are quotient-free trees.  Variables carry an explicit 2-cell (the key
used to reach them through the locks in scope); binders are nameless and each
introduces exactly one variable entry.  De Bruijn indices count variable
entries only — locks are transparent to indexing.  A ``Pi`` or ``Sig``
also records whether its codomain mentions the variable it binds
(``dependent``).  The flag is derived from the codomain, so it takes no
part in equality or printing; its default, True, is right for every term,
and the parser sets it to False where it can, so that evaluation keeps such
a codomain as one value (``nbe.eval_ty``).  A ``Lam`` keeps the modality
its binder was written with, for the checker to compare with its function
type's; the parser writes the identity for a bare ``\\x``, and only a
lambda built through the API has None, which meets any ``Pi``.  Like
``dependent`` it takes no part in equality, but it is printed.

``SCOPES`` is the one statement of scoping: for each former, the fields
that sit behind a lock, and of which modality, and the fields that bind
a variable.  ``normal`` reads it for normal forms, which share field
names with these classes.  ``BINDS``, the binding fields, is read off it,
and ``map_vars`` is the one traversal that acts on the variables of a
term under them, rebuilding every other field as it stands.

Terms live over contexts of locks and annotated variables; the one record
of such a context is ``check.CheckCtx``.

``show_term`` is the one printer of terms, in the surface syntax the
parser reads back.  It prints a normal form as it stands, read as the term
class it embeds into (``PRINTS_AS``).
"""

from __future__ import annotations

from typing import Callable

from .record import field, record
from .modeth import Cell2, Modality


class Term:
    pass


@record
class Var(Term):
    idx: int
    cell: Cell2


@record
class Const(Term):
    """A reference to an earlier declaration of the signature, by name."""

    name: str


@record
class Pi(Term):
    """``dependent`` is False only when ``cod`` does not mention its bound
    variable; True claims nothing.  See ``nbe.eval_ty``."""

    mod: Modality
    dom: Term
    cod: Term
    dependent: bool = field(default=True, repr=False, compare=False)


@record
class Sig(Term):
    """``dependent`` as for ``Pi``, about ``snd``."""

    fst: Term
    snd: Term
    dependent: bool = field(default=True, repr=False, compare=False)


@record
class Bool(Term):
    pass


@record
class Uni(Term):
    pass


@record
class Mod(Term):
    mod: Modality
    ty: Term


@record
class Dec(Term):
    code: Term


@record
class Lam(Term):
    body: Term
    mod: "Modality | None" = field(default=None, repr=False, compare=False)


@record
class App(Term):
    fn: Term
    arg: Term


@record
class Pair(Term):
    fst: Term
    snd: Term


@record
class Proj1(Term):
    pair: Term


@record
class Proj2(Term):
    pair: Term


@record
class True_(Term):
    pass


@record
class False_(Term):
    pass


@record
class If(Term):
    motive: Term
    tcase: Term
    fcase: Term
    scrut: Term


@record
class MkBox(Term):
    mod: Modality
    body: Term


@record
class LetMod(Term):
    """Modal eliminator.  mu frames the scrutinee, nu is the boxed modality;
    the motive's variable has type Mod nu A, annotated mu, and the
    branch's A, annotated mu.nu."""

    mu: Modality
    nu: Modality
    motive: Term
    scrut: Term
    branch: Term


@record
class PiCode(Term):
    mod: Modality
    dom: Term
    cod: Term


@record
class SigCode(Term):
    fst: Term
    snd: Term


@record
class BoolCode(Term):
    pass


@record
class ModCode(Term):
    mod: Modality
    code: Term


@record
class DecIso(Term):
    """Coerce from Dec of a canonical code to the connective it encodes."""

    body: Term


@record
class DecIsoInv(Term):
    """Coerce a value of the encoded connective back under Dec."""

    body: Term


# The scope of each field of a former that does not live in the former's
# own context: ("lock", m) puts it behind a lock of the modality in field
# m, and ("binds", None) makes it bind one variable.  No other field is
# scoped.  A ``Pi``, ``PiCode`` or ``Lam`` binds at its modality (a ``Lam``
# built without one, at its ``Pi``'s), a ``LetMod`` as it says, and every
# other former at the identity.  ``normal`` reads this table for normal
# forms through their embedding into these classes.
SCOPES: "dict[type, dict[str, tuple[str, str | None]]]" = {
    Pi: {"dom": ("lock", "mod"), "cod": ("binds", None)},
    Sig: {"snd": ("binds", None)},
    Mod: {"ty": ("lock", "mod")},
    Lam: {"body": ("binds", None)},
    If: {"motive": ("binds", None)},
    MkBox: {"body": ("lock", "mod")},
    LetMod: {
        "motive": ("binds", None),
        "scrut": ("lock", "mu"),
        "branch": ("binds", None),
    },
    PiCode: {"dom": ("lock", "mod"), "cod": ("binds", None)},
    SigCode: {"snd": ("binds", None)},
    ModCode: {"code": ("lock", "mod")},
}

# The fields of each former that bind one variable.
BINDS: "dict[type, tuple[str, ...]]" = {
    c: binds
    for c, scopes in SCOPES.items()
    if (binds := tuple(f for f, (kind, _) in scopes.items() if kind == "binds"))
}


def map_vars(t: Term, at: "Callable[[Var, int], Term]", under: int = 0) -> Term:
    """``t`` with each variable ``v`` replaced by ``at(v, n)``, where ``n``
    is ``under`` plus the number of binders between ``t`` and ``v``.  Every
    other field, ``dependent`` and ``Lam.mod`` among them, is kept as it
    stands."""
    c = t.__class__
    if c is Var:
        return at(t, under)
    binds = BINDS.get(c, ())
    args = []
    for f in c.__match_args__:
        v = getattr(t, f)
        if isinstance(v, Term):
            v = map_vars(v, at, under + (f in binds))
        args.append(v)
    return c(*args)


# ---------------------------------------------------------------------------
# Printing, in the surface syntax the parser reads.  A binder at depth d is
# named x<d>, primed where a constant of the term bears that name; a
# modality prints as its ``str`` (``id(m)`` or its generators dotted in
# composition order), a key as ``str`` of its ``Cell2`` and an identity
# key as nothing.  Parentheses follow each subterm's class: a word (a name,
# a constant, or projections of one) and a form printed in its own
# parentheses stand as an argument; any other form is wrapped there.  A
# keyed variable is wrapped before a projection, whose ``.`` would
# continue the key.  ``--print-core`` prints parsed terms, diagnostics
# print terms and types, and ``mtt normalize`` prints normal forms, all
# through ``show_term``.

# The classes of other modules that print as a term class, each under the
# term class whose field names it shares: ``normal`` enters every
# normal-form class under the class it embeds into (``normal.EMBEDS``), so
# a normal form prints as its embedding would without building it.  A
# class entered as None is an inclusion and prints as its one field
# (``normal.NfInj``).
PRINTS_AS: "dict[type, type | None]" = {}

_KEYWORDS = {Bool: "Bool", Uni: "Uni", True_: "true", False_: "false", BoolCode: "BoolC"}
_WORDS = frozenset({Var, Const, *_KEYWORDS})
_PARENTHESIZED = frozenset({Pair, App, If, LetMod})
# Forms whose last part reaches as far right as it can.
_OPEN = frozenset({Lam, PiCode, SigCode})


def _as_term(t) -> "tuple[object, type]":
    """``t`` past any inclusion, and the term class it prints as."""
    c = t.__class__
    c = PRINTS_AS.get(c, c)
    while c is None:
        t = getattr(t, t.__match_args__[0])
        c = t.__class__
        c = PRINTS_AS.get(c, c)
    return t, c


def _atom(t, s: str) -> str:
    """``s``, the text of ``t``, as an argument, a box's body or a
    projection's pair: as it stands if ``t`` prints in its own parentheses
    or as a word, else wrapped.  Wrapping the returned text, rather than
    printing here, keeps printing at one stack frame per level of the
    term."""
    t, c = _as_term(t)
    if c in _PARENTHESIZED:
        return s
    while c is Proj1 or c is Proj2:
        t, c = _as_term(t.pair)
    return s if c in _WORDS else f"({s})"


def _binder_prefix(t: Term) -> str:
    """``x``, primed until no constant in ``t`` is named ``x`` then digits."""
    x, todo = "x", [t]
    while todo:
        u = todo.pop()
        if u.__class__ is Const and u.name.startswith(x) and u.name[len(x) :].isdigit():
            x, todo = x + "'", [t]  # and look again
        todo += [v for v in map(u.__getattribute__, u.__match_args__) if isinstance(v, Term)]
    return x


def show_term(t: Term, depth: int = 0, x: "str | None" = None) -> str:
    """``t``, over ``depth`` variables, as text that parses back to it;
    binder d is named ``x`` then d, ``x`` by default ``_binder_prefix(t)``.
    ``t`` may be of a class in ``PRINTS_AS``, and prints as its term class."""
    if x is None:
        x = _binder_prefix(t)
    t, c = _as_term(t)
    if c is Var:
        name = f"{x}{depth - 1 - t.idx}"
        return f"{name}^{t.cell}" if t.cell.layers else name
    if c is Const:
        return t.name
    if c in _KEYWORDS:
        return _KEYWORDS[c]
    if c is App:
        fn = show_term(t.fn, depth, x)
        if _as_term(t.fn)[1] in _OPEN:
            fn = f"({fn})"
        return f"({fn} {_atom(t.arg, show_term(t.arg, depth, x))})"
    if c is Proj1 or c is Proj2:
        p, pc = _as_term(t.pair)
        if pc is Var and p.cell.layers:
            base = f"({show_term(p, depth, x)})"
        else:
            base = _atom(p, show_term(p, depth, x))
        return f"{base}.{1 if c is Proj1 else 2}"
    if c is Lam:
        binder = f"{x}{depth}" if t.mod is None else f"({t.mod} | {x}{depth})"
        return f"\\{binder} -> {show_term(t.body, depth + 1, x)}"
    if c is Pair:
        return f"({show_term(t.fst, depth, x)}, {show_term(t.snd, depth, x)})"
    if c is MkBox:
        return f"box {t.mod} {_atom(t.body, show_term(t.body, depth, x))}"
    if c is If:
        m = show_term(t.motive, depth + 1, x)
        s = _atom(t.scrut, show_term(t.scrut, depth, x))
        tc = _atom(t.tcase, show_term(t.tcase, depth, x))
        fc = _atom(t.fcase, show_term(t.fcase, depth, x))
        return f"(if [{x}{depth}. {m}] {s} then {tc} else {fc})"
    if c is LetMod:
        m = show_term(t.motive, depth + 1, x)
        s = _atom(t.scrut, show_term(t.scrut, depth, x))
        b = show_term(t.branch, depth + 1, x)
        return f"(letbox ({t.mu} | {t.nu}) [{x}{depth}. {m}] {x}{depth} = {s} in {b})"
    if c is Pi or c is PiCode:
        head = "Pi" if c is Pi else "PiC"
        d, cod = show_term(t.dom, depth, x), show_term(t.cod, depth + 1, x)
        return f"{head} ({t.mod} | {x}{depth} : {d}) -> {cod}"
    if c is Sig or c is SigCode:
        head = "Sig" if c is Sig else "SigC"
        fst, snd = show_term(t.fst, depth, x), show_term(t.snd, depth + 1, x)
        return f"{head} ({x}{depth} : {fst}) * {snd}"
    if c is Mod:
        return f"Mod {t.mod} ({show_term(t.ty, depth, x)})"
    if c is ModCode:
        return f"ModC {t.mod} {_atom(t.code, show_term(t.code, depth, x))}"
    if c is Dec:
        return f"dec {_atom(t.code, show_term(t.code, depth, x))}"
    if c is DecIso:
        return f"iso {_atom(t.body, show_term(t.body, depth, x))}"
    if c is DecIsoInv:
        return f"iso-inv {_atom(t.body, show_term(t.body, depth, x))}"
    raise AssertionError(f"not a term: {t!r}")
