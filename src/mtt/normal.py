"""Context readers, renamings, unquotiented normal/neutral forms, their
embedding into core terms, and their printer.

Normal forms live over contexts of locks and annotated variables, whose
record is ``check.CheckCtx``; ``depth``, ``tele_entry`` and ``locks_of``
read one by level, and the checker reaches its variables through them.

Each normal-form class shares its field names with the core-term class
it embeds into (``EMBEDS``), and so reads the scope of each field, behind
a lock or under a binder, from ``syntax.SCOPES``.  Renaming, equality
and the embedding are each one walk over the fields, not a case per
former; each has three one-line entry points (normal form, neutral,
normal type), which ``bench/tracer.py`` wraps by name.  The walks recurse
once per level of a form and build no comprehension on the way, so each
level costs one stack frame.  Renaming counts the binders and composes
the locks it crosses, and acts once per variable bound outside the form.

Renamings are the structural morphisms between contexts (weakening, locks,
keys, variable-for-variable extension); they act on neutrals and normals,
and on variables the action composes 2-cells onto the head.  Renamings are
kept as unevaluated trees: only their actions are ever compared, never the
trees themselves.  Equality is structural, with the mode theory deciding
the modalities and 2-cells inside.

``surface_nf``/``surface_ne``/``surface_nfty`` print a normal form with
``syntax.show_term``, the one printer of terms, in the surface syntax the
parser reads; the CLI's output and the checker's diagnostics both use
them.  ``show_term`` reads the form itself, as the term class ``EMBEDS``
names (``syntax.PRINTS_AS``), and builds no term on the way.
``decode_nf``/``decode_ne``/``decode_nfty`` embed normal forms into core
terms: ``check.lookup_var`` evaluates a transported type's embedding, and
the tests print embeddings as the reference for the direct printer.
"""

from __future__ import annotations

from .record import record
from .modeth import (
    Cell2,
    Modality,
    ModeTheory,
    compose_mod,
    eq_cell,
    eq_mod,
    id_mod,
    vcomp,
    whisker_left,
    whisker_right,
)
from . import syntax as S
from .syntax import Term, show_term


class NormalError(Exception):
    pass


# ---------------------------------------------------------------------------
# Reading a context by level
#
# A context is a ``check.CheckCtx``, read here by attribute: the ambient
# ``mode``, per variable by level its type value in ``types`` and its
# annotation and lock count in ``slots``, and ``locks``, every lock pushed
# so far as one word, newest first.  ``k`` is a de Bruijn index.


def depth(ctx) -> int:
    """Number of variables."""
    return len(ctx.types)


def _level(ctx, k: int) -> int:
    n = len(ctx.types)
    if not 0 <= k < n:
        raise NormalError(f"variable index {k} does not resolve in a context of depth {n}")
    return n - 1 - k


def tele_entry(ctx, k: int) -> "tuple[Modality, object]":
    """Variable k's annotation and stored type value."""
    level = _level(ctx, k)
    return ctx.slots[level][0], ctx.types[level]


def locks_of(ctx, k: int) -> Modality:
    """Composite of the locks pushed after variable k: the shared identity
    when there are none.  The lock nearest the entry is the outer factor:
    crossing lock(mu) then lock(nu) from the entry outward yields mu.nu,
    matching lock(mu.nu)."""
    ann, seen = ctx.slots[_level(ctx, k)]
    locks, mode = ctx.locks, ctx.mode
    if seen == len(locks) and ann.mode_tgt == mode:
        return id_mod(mode)
    return Modality(mode, ann.mode_tgt, locks[: len(locks) - seen])


@record
class PrefixLocks:
    """``locks_of`` in the prefix of ``ctx`` before the variable at
    ``level``: ``self[j]`` composes the locks between that prefix's variable
    j and the one at ``level``.  Each composite is built when indexed, so a
    key's renaming (``RenKey.locks``) pays only for the variables it meets,
    not for the depth of the prefix."""

    ctx: object
    level: int

    def __getitem__(self, j: int) -> Modality:
        ctx, level = self.ctx, self.level
        if not 0 <= j < level:
            raise IndexError(j)
        (ann, at_entry), (a, at_var) = ctx.slots[level], ctx.slots[level - 1 - j]
        n = len(ctx.locks)
        return Modality(ann.mode_tgt, a.mode_tgt, ctx.locks[n - at_entry : n - at_var])


# ---------------------------------------------------------------------------
# Normal, neutral, and normal-type forms


class Nf:
    pass


class Ne:
    pass


class NfTy:
    pass


@record
class NfBool(NfTy):
    pass


@record
class NfUni(NfTy):
    pass


@record
class NfFn(NfTy):
    mod: Modality
    dom: NfTy
    cod: NfTy


@record
class NfProd(NfTy):
    fst: NfTy
    snd: NfTy


@record
class NfModify(NfTy):
    mod: Modality
    ty: NfTy


@record
class NfDec(NfTy):
    code: Nf  # a normal form at the universe


@record
class NeVar(Ne):
    idx: int
    cell: Cell2  # annotation of idx  =>  lock composite at the use site


@record
class NeApp(Ne):
    fn: Ne
    mod: Modality  # the function type's domain annotation
    arg: Nf


@record
class NeProj1(Ne):
    pair: Ne


@record
class NeProj2(Ne):
    pair: Ne


@record
class NeBoolRec(Ne):
    motive: NfTy
    scrut: Ne
    tcase: Nf
    fcase: Nf


@record
class NeLetMod(Ne):
    mu: Modality
    nu: Modality
    motive: NfTy
    scrut: Ne
    branch: Nf


@record
class NeDecIso(Ne):
    """A stuck coercion out of Dec at a canonical code."""

    body: Ne


@record
class NfLam(Nf):
    mod: Modality  # binder annotation
    body: Nf


@record
class NfPair(Nf):
    fst: Nf
    snd: Nf


@record
class NfTrue(Nf):
    pass


@record
class NfFalse(Nf):
    pass


@record
class NfMkBox(Nf):
    mod: Modality
    body: Nf


@record
class NfInj(Nf):
    """A neutral included as a normal form.

    Only legal at Bool, modal types, the universe, and Dec of a neutral code;
    the reifier never produces it at a function or pair type.
    """

    ne: Ne


@record
class NfFnCode(Nf):
    mod: Modality
    dom: Nf
    cod: Nf  # at Dec(dom)


@record
class NfProdCode(Nf):
    fst: Nf
    snd: Nf


@record
class NfBoolCode(Nf):
    pass


@record
class NfModifyCode(Nf):
    mod: Modality
    code: Nf


@record
class NfDecIsoStar(Nf):
    """A canonical form coerced back under Dec at a canonical code."""

    body: Nf


# The term class each normal-form class embeds into.  A field is scoped as
# the term class's field of its name; an application keeps one field its
# term class drops, its function type's domain modality, which locks its
# argument.  ``NfInj`` embeds as its neutral.
EMBEDS: "dict[type, type]" = {
    NfBool: S.Bool, NfUni: S.Uni, NfFn: S.Pi, NfProd: S.Sig, NfModify: S.Mod, NfDec: S.Dec,
    NeVar: S.Var, NeApp: S.App, NeProj1: S.Proj1, NeProj2: S.Proj2, NeBoolRec: S.If,
    NeLetMod: S.LetMod, NeDecIso: S.DecIso, NfLam: S.Lam, NfPair: S.Pair, NfTrue: S.True_,
    NfFalse: S.False_, NfMkBox: S.MkBox, NfFnCode: S.PiCode, NfProdCode: S.SigCode,
    NfBoolCode: S.BoolCode, NfModifyCode: S.ModCode, NfDecIsoStar: S.DecIsoInv,
}


def _plan(c: type) -> tuple:
    """Per field of ``c``: its name, whether it holds a normal form, the
    field holding its lock's modality, and whether it binds a variable."""
    scoped = {"arg": ("lock", "mod")} if c is NeApp else S.SCOPES.get(EMBEDS.get(c), {})
    out = []
    for f in c.__match_args__:
        kind, mod = scoped.get(f, (None, None))
        node = c.__annotations__[f] in ("Nf", "Ne", "NfTy")
        out.append((f, node, mod, kind == "binds"))
    return tuple(out)


def _embedding(c: type) -> tuple:
    """``c``'s term class, and per field of it that ``c`` has, in the term
    class's order: its name and whether it holds a normal form."""
    term, node = EMBEDS[c], {f: n for f, n, _, _ in _PLANS[c]}
    return term, tuple((f, node[f]) for f in term.__match_args__ if f in node)


_PLANS = {c: _plan(c) for c in (*EMBEDS, NfInj)}
_EMBEDDING = {c: _embedding(c) for c in EMBEDS}
S.PRINTS_AS.update(EMBEDS)
S.PRINTS_AS[NfInj] = None  # prints as its neutral


# ---------------------------------------------------------------------------
# Renamings


class Renaming:
    pass


@record
class RenId(Renaming):
    pass


@record
class RenWeaken(Renaming):
    """Drops the top variable entry of the source."""


@record
class RenComp(Renaming):
    """``r`` acts first, then ``s`` (as context maps: r after s)."""

    r: Renaming
    s: Renaming


@record
class RenLock(Renaming):
    mod: Modality
    ren: Renaming


@record
class RenKey(Renaming):
    """A key: for cell : nu => mu, maps the mu-locked context to the
    nu-locked one.  ``locks[k]`` is the unlocked one's ``locks_of`` at k:
    a tuple, or a ``PrefixLocks`` that builds each one when asked."""

    cell: Cell2
    locks: "tuple[Modality, ...] | PrefixLocks"


@record
class RenExt(Renaming):
    """Extension by a variable neutral.  ``plocks`` is the lock composite
    over the payload variable in the (locked) source context."""

    ren: Renaming
    payload: NeVar
    plocks: Modality


# The action on variables.  Keys compose whisker-adjusted cells onto the
# head; extension substitutes its payload variable, keyed by the incoming
# cell; everything else is index arithmetic.  ``lock`` is the composite of
# the locks the action has passed through: nested locks fuse (the outer one
# applied last), a composite hands it to its second half, and a key under it
# is whiskered by it.  ``_rename`` calls it once per variable bound outside
# its form, past the binders crossed, with the locks crossed as ``lock``.


def _act_var(
    mt: ModeTheory, r: Renaming, k: int, cell: Cell2, lock: "Modality | None" = None
) -> Ne:
    match r:
        case RenId():
            return NeVar(k, cell)
        case RenWeaken():
            return NeVar(k + 1, cell)
        case RenComp(r1, r2):
            after = r2 if lock is None else RenLock(lock, r2)
            return rename_ne(mt, after, _act_var(mt, r1, k, cell, lock))
        case RenKey(beta, locks):
            if lock is not None:
                beta = whisker_right(beta, lock)
            return NeVar(k, vcomp(whisker_left(locks[k], beta), cell, mt))
        case RenExt(inner, payload, plocks):
            if k == 0:
                return NeVar(payload.idx, vcomp(whisker_left(plocks, cell), payload.cell, mt))
            return _act_var(mt, inner, k - 1, cell, lock)
        case RenLock(kappa, inner):
            fused = kappa if lock is None else compose_mod(kappa, lock)
            return _act_var(mt, inner, k, cell, fused)
    raise AssertionError(r)


def rename_ne(mt: ModeTheory, r: Renaming, e: Ne) -> Ne:
    return _rename(mt, r, e)


def rename_nf(mt: ModeTheory, r: Renaming, u: Nf) -> Nf:
    return _rename(mt, r, u)


def rename_nfty(mt: ModeTheory, r: Renaming, t: NfTy) -> NfTy:
    return _rename(mt, r, t)


def _rename(mt: ModeTheory, r: Renaming, u, under: int = 0, lock: "Modality | None" = None):
    """``u`` renamed along ``r``, where ``u`` sits ``under`` binders and
    behind the locks composing to ``lock`` (None for none) below the form
    ``r`` acts on.  A variable bound inside that form stays as it is; any
    other goes to ``_act_var`` past those binders and through that lock."""
    c = u.__class__
    if c is NeVar:
        k = u.idx
        if k < under:
            return u
        v = _act_var(mt, r, k - under, u.cell, lock)
        return NeVar(v.idx + under, v.cell) if under else v
    plan = _PLANS[c]
    if not plan:
        return u
    args = []
    for f, node, mod, binds in plan:
        v = getattr(u, f)
        if node:
            if mod is not None:
                m = getattr(u, mod)
                v = _rename(mt, r, v, under, m if lock is None else compose_mod(lock, m))
            else:
                v = _rename(mt, r, v, under + binds, lock)
        args.append(v)
    return c(*args)


# ---------------------------------------------------------------------------
# Decoding into quotiented terms: the embedding of normal forms into core
# terms.  Each class is built positionally from its plan, the fields of
# ``EMBEDS``'s term class that it has, which lead that class's fields.


def decode_nf(u: Nf) -> Term:
    return _embed(u)


def decode_ne(e: Ne) -> Term:
    return _embed(e)


def decode_nfty(t: NfTy) -> Term:
    return _embed(t)


def _embed(u) -> Term:
    if u.__class__ is NfInj:
        u = u.ne
    term, plan = _EMBEDDING[u.__class__]
    args = []
    for f, node in plan:
        v = getattr(u, f)
        args.append(_embed(v) if node else v)
    return term(*args)


# ---------------------------------------------------------------------------
# Equality: structural, with the mode theory deciding embedded modalities
# and cells.  Fields are compared in order, and the first that differs
# decides.


def eq_nf(mt: ModeTheory, a: Nf, b: Nf) -> bool:
    return _eq(mt, a, b)


def eq_ne(mt: ModeTheory, a: Ne, b: Ne) -> bool:
    return _eq(mt, a, b)


def eq_nfty(mt: ModeTheory, a: NfTy, b: NfTy) -> bool:
    return _eq(mt, a, b)


def _eq(mt: ModeTheory, a, b) -> bool:
    c = a.__class__
    if c is not b.__class__:
        return False
    for f in c.__match_args__:
        x, y = getattr(a, f), getattr(b, f)
        k = x.__class__
        if k is Modality:
            same = eq_mod(mt, x, y)
        elif k is Cell2:
            same = eq_cell(mt, x, y)
        elif k in _PLANS:
            same = _eq(mt, x, y)
        else:
            same = x == y
        if not same:
            return False
    return True


# ---------------------------------------------------------------------------
# Printing: a normal form, which holds no constant, prints as its embedding
# into core terms would, read in place by ``syntax.show_term`` over
# ``depth`` variables, binders named ``x``.  ``bench/tracer.py`` times these
# as ``cli.render``.


def surface_nf(mt: ModeTheory, u: Nf, depth: int = 0) -> str:
    return show_term(u, depth, "x")


def surface_ne(mt: ModeTheory, e: Ne, depth: int = 0) -> str:
    return show_term(e, depth, "x")


def surface_nfty(mt: ModeTheory, t: NfTy, depth: int = 0) -> str:
    return show_term(t, depth, "x")
