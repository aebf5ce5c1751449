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
``dependent`` it takes no part in equality or printing.

``BINDS`` names the fields of each former that bind a variable, and
``map_vars`` is the one traversal that acts on the variables of a term
under them, rebuilding every other field as it stands.

Terms live over contexts of locks and annotated variables; the one record
of such a context is ``check.CheckCtx``.
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
    cod: Term  # binds 1
    dependent: bool = field(default=True, repr=False, compare=False)


@record
class Sig(Term):
    """``dependent`` as for ``Pi``, about ``snd``."""

    fst: Term
    snd: Term  # binds 1
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
    body: Term  # binds 1
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
    motive: Term  # binds 1 (a Bool variable, identity annotation)
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
    the motive binds one (mu | Mod nu A) variable and the branch one
    (mu.nu | A) variable."""

    mu: Modality
    nu: Modality
    motive: Term  # binds 1
    scrut: Term
    branch: Term  # binds 1


@record
class PiCode(Term):
    mod: Modality
    dom: Term
    cod: Term  # binds 1


@record
class SigCode(Term):
    fst: Term
    snd: Term  # binds 1


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


# The fields of each term former that bind one variable: the ``# binds 1``
# comments above, as data.  No other field binds.
BINDS: "dict[type, tuple[str, ...]]" = {
    Pi: ("cod",),
    Sig: ("snd",),
    Lam: ("body",),
    If: ("motive",),
    LetMod: ("motive", "branch"),
    PiCode: ("cod",),
    SigCode: ("snd",),
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
# Printing core terms (``--print-core``; normal forms print via ``normal``)


def show_term(t: Term) -> str:
    match t:
        case Var(idx, cell):
            return f"x{idx}^{cell}"
        case Const(name):
            return name
        case Pi(mod, dom, cod):
            return f"(Pi ({mod} | {show_term(dom)}) -> {show_term(cod)})"
        case Sig(fst, snd):
            return f"(Sig {show_term(fst)} * {show_term(snd)})"
        case Bool():
            return "Bool"
        case Uni():
            return "Uni"
        case Mod(mod, ty):
            return f"(Mod {mod} {show_term(ty)})"
        case Dec(code):
            return f"(dec {show_term(code)})"
        case Lam(body):
            return f"(lam {show_term(body)})"
        case App(fn, arg):
            return f"({show_term(fn)} {show_term(arg)})"
        case Pair(fst, snd):
            return f"({show_term(fst)}, {show_term(snd)})"
        case Proj1(p):
            return f"(fst {show_term(p)})"
        case Proj2(p):
            return f"(snd {show_term(p)})"
        case True_():
            return "true"
        case False_():
            return "false"
        case If(motive, tcase, fcase, scrut):
            return (
                f"(if [{show_term(motive)}] {show_term(scrut)} "
                f"then {show_term(tcase)} else {show_term(fcase)})"
            )
        case MkBox(mod, body):
            return f"(box {mod} {show_term(body)})"
        case LetMod(mu, nu, motive, scrut, branch):
            return (
                f"(letbox {mu} {nu} [{show_term(motive)}] "
                f"{show_term(scrut)} in {show_term(branch)})"
            )
        case PiCode(mod, dom, cod):
            return f"(PiC ({mod} | {show_term(dom)}) -> {show_term(cod)})"
        case SigCode(fst, snd):
            return f"(SigC {show_term(fst)} * {show_term(snd)})"
        case BoolCode():
            return "BoolC"
        case ModCode(mod, code):
            return f"(ModC {mod} {show_term(code)})"
        case DecIso(body):
            return f"(iso {show_term(body)})"
        case DecIsoInv(body):
            return f"(iso-inv {show_term(body)})"
    raise AssertionError(f"not a term: {t!r}")
