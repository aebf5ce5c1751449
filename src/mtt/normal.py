"""Context readers, renamings, unquotiented normal/neutral forms, their
embedding into core terms, and their printer.

Normal forms live over contexts of locks and annotated variables, whose
record is ``check.CheckCtx``; ``depth``, ``tele_entry`` and ``locks_of``
read one by level, and the checker reaches its variables through them.
Renamings are the structural morphisms between contexts (weakening, locks,
keys, variable-for-variable extension); they act on neutrals and normals,
and on variables the action composes 2-cells onto the head.  Renamings are
kept as unevaluated trees: only their actions are ever compared, never the
trees themselves.

``decode_nf``/``decode_ne``/``decode_nfty`` embed normal forms into core
terms, and ``surface_nf``/``surface_ne``/``surface_nfty`` print that
embedding with ``syntax.show_term``, the one printer of terms, in the
surface syntax the parser reads; the CLI's output and the checker's
diagnostics both use them.
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
    id_cell,
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
    dom: NfTy  # in the mod-locked context
    cod: NfTy  # binds 1, annotated mod


@record
class NfProd(NfTy):
    fst: NfTy
    snd: NfTy  # binds 1, identity annotation


@record
class NfModify(NfTy):
    mod: Modality
    ty: NfTy  # in the mod-locked context


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
    arg: Nf  # lives in the mod-locked context


@record
class NeProj1(Ne):
    pair: Ne


@record
class NeProj2(Ne):
    pair: Ne


@record
class NeBoolRec(Ne):
    motive: NfTy  # binds 1 (identity-annotated Bool)
    scrut: Ne
    tcase: Nf
    fcase: Nf


@record
class NeLetMod(Ne):
    mu: Modality
    nu: Modality
    motive: NfTy  # binds 1, annotated mu
    scrut: Ne  # in the mu-locked context
    branch: Nf  # binds 1, annotated mu.nu


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
    body: Nf  # in the mod-locked context


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
    dom: Nf  # code, in the mod-locked context
    cod: Nf  # code, binds 1 annotated mod at Dec(dom)


@record
class NfProdCode(Nf):
    fst: Nf
    snd: Nf  # binds 1, identity annotation


@record
class NfBoolCode(Nf):
    pass


@record
class NfModifyCode(Nf):
    mod: Modality
    code: Nf  # in the mod-locked context


@record
class NfDecIsoStar(Nf):
    """A canonical form coerced back under Dec at a canonical code."""

    body: Nf


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
    nu-locked one.  ``locks[k]`` is the unlocked one's ``locks_of`` at k."""

    cell: Cell2
    locks: tuple[Modality, ...]


@record
class RenExt(Renaming):
    """Extension by a variable neutral.  ``plocks`` is the lock composite
    over the payload variable in the (locked) source context."""

    ren: Renaming
    payload: NeVar
    plocks: Modality


def lift(r: Renaming, mu: Modality) -> Renaming:
    """Extend a renaming through one binder annotated mu."""
    return RenExt(RenComp(r, RenWeaken()), NeVar(0, id_cell(mu)), id_mod(mu.mode_tgt))


# The action on variables.  Keys compose whisker-adjusted cells onto the
# head; extension substitutes its payload variable, keyed by the incoming
# cell; everything else is index arithmetic.  ``lock`` is the composite of
# the locks the action has passed through: nested locks fuse (the outer one
# applied last), a composite hands it to its second half, and a key under it
# is whiskered by it.


def _act_var(
    mt: ModeTheory, r: Renaming, k: int, cell: Cell2, mode: str,
    lock: "Modality | None" = None,
) -> Ne:
    match r:
        case RenId():
            return NeVar(k, cell)
        case RenWeaken():
            return NeVar(k + 1, cell)
        case RenComp(r1, r2):
            after = r2 if lock is None else RenLock(lock, r2)
            return rename_ne(mt, after, _act_var(mt, r1, k, cell, mode, lock), mode)
        case RenKey(beta, locks):
            if lock is not None:
                beta = whisker_right(beta, lock)
            return NeVar(k, vcomp(whisker_left(locks[k], beta), cell, mt))
        case RenExt(inner, payload, plocks):
            if k == 0:
                return NeVar(payload.idx, vcomp(whisker_left(plocks, cell), payload.cell, mt))
            return _act_var(mt, inner, k - 1, cell, mode, lock)
        case RenLock(kappa, inner):
            fused = kappa if lock is None else compose_mod(kappa, lock)
            return _act_var(mt, inner, k, cell, mode, fused)
    raise AssertionError(r)


def rename_ne(mt: ModeTheory, r: Renaming, e: Ne, mode: str) -> Ne:
    match e:
        case NeVar(k, cell):
            return _act_var(mt, r, k, cell, mode)
        case NeApp(fn, mod, arg):
            return NeApp(
                rename_ne(mt, r, fn, mode),
                mod,
                rename_nf(mt, RenLock(mod, r), arg, mod.mode_src),
            )
        case NeProj1(p):
            return NeProj1(rename_ne(mt, r, p, mode))
        case NeProj2(p):
            return NeProj2(rename_ne(mt, r, p, mode))
        case NeBoolRec(motive, scrut, t, f):
            return NeBoolRec(
                rename_nfty(mt, lift(r, id_mod(mode)), motive, mode),
                rename_ne(mt, r, scrut, mode),
                rename_nf(mt, r, t, mode),
                rename_nf(mt, r, f, mode),
            )
        case NeLetMod(mu, nu, motive, scrut, branch):
            return NeLetMod(
                mu,
                nu,
                rename_nfty(mt, lift(r, mu), motive, mode),
                rename_ne(mt, RenLock(mu, r), scrut, mu.mode_src),
                rename_nf(mt, lift(r, compose_mod(mu, nu)), branch, mode),
            )
        case NeDecIso(body):
            return NeDecIso(rename_ne(mt, r, body, mode))
    raise AssertionError(e)


def rename_nf(mt: ModeTheory, r: Renaming, u: Nf, mode: str) -> Nf:
    match u:
        case NfTrue() | NfFalse() | NfBoolCode():
            return u
        case NfLam(mod, body):
            return NfLam(mod, rename_nf(mt, lift(r, mod), body, mode))
        case NfPair(a, b):
            return NfPair(rename_nf(mt, r, a, mode), rename_nf(mt, r, b, mode))
        case NfMkBox(mod, body):
            return NfMkBox(mod, rename_nf(mt, RenLock(mod, r), body, mod.mode_src))
        case NfInj(e):
            return NfInj(rename_ne(mt, r, e, mode))
        case NfFnCode(mod, a, b):
            return NfFnCode(
                mod,
                rename_nf(mt, RenLock(mod, r), a, mod.mode_src),
                rename_nf(mt, lift(r, mod), b, mode),
            )
        case NfProdCode(a, b):
            return NfProdCode(
                rename_nf(mt, r, a, mode),
                rename_nf(mt, lift(r, id_mod(mode)), b, mode),
            )
        case NfModifyCode(mod, a):
            return NfModifyCode(mod, rename_nf(mt, RenLock(mod, r), a, mod.mode_src))
        case NfDecIsoStar(body):
            return NfDecIsoStar(rename_nf(mt, r, body, mode))
    raise AssertionError(u)


def rename_nfty(mt: ModeTheory, r: Renaming, t: NfTy, mode: str) -> NfTy:
    match t:
        case NfBool() | NfUni():
            return t
        case NfFn(mod, dom, cod):
            return NfFn(
                mod,
                rename_nfty(mt, RenLock(mod, r), dom, mod.mode_src),
                rename_nfty(mt, lift(r, mod), cod, mode),
            )
        case NfProd(a, b):
            return NfProd(
                rename_nfty(mt, r, a, mode),
                rename_nfty(mt, lift(r, id_mod(mode)), b, mode),
            )
        case NfModify(mod, a):
            return NfModify(mod, rename_nfty(mt, RenLock(mod, r), a, mod.mode_src))
        case NfDec(u):
            return NfDec(rename_nf(mt, r, u, mode))
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Decoding into quotiented terms: the embedding of normal forms into core
# terms, one class at a time.  A lambda keeps its binder's modality.


def decode_nf(u: Nf) -> Term:
    c = u.__class__
    if c is NfInj:
        return decode_ne(u.ne)
    if c is NfLam:
        return S.Lam(decode_nf(u.body), u.mod)
    if c is NfTrue:
        return S.True_()
    if c is NfFalse:
        return S.False_()
    if c is NfPair:
        return S.Pair(decode_nf(u.fst), decode_nf(u.snd))
    if c is NfMkBox:
        return S.MkBox(u.mod, decode_nf(u.body))
    if c is NfFnCode:
        return S.PiCode(u.mod, decode_nf(u.dom), decode_nf(u.cod))
    if c is NfProdCode:
        return S.SigCode(decode_nf(u.fst), decode_nf(u.snd))
    if c is NfBoolCode:
        return S.BoolCode()
    if c is NfModifyCode:
        return S.ModCode(u.mod, decode_nf(u.code))
    if c is NfDecIsoStar:
        return S.DecIsoInv(decode_nf(u.body))
    raise AssertionError(u)


def decode_ne(e: Ne) -> Term:
    c = e.__class__
    if c is NeVar:
        return S.Var(e.idx, e.cell)
    if c is NeApp:
        return S.App(decode_ne(e.fn), decode_nf(e.arg))
    if c is NeProj1:
        return S.Proj1(decode_ne(e.pair))
    if c is NeProj2:
        return S.Proj2(decode_ne(e.pair))
    if c is NeBoolRec:
        m = decode_nfty(e.motive)
        return S.If(m, decode_nf(e.tcase), decode_nf(e.fcase), decode_ne(e.scrut))
    if c is NeLetMod:
        return S.LetMod(e.mu, e.nu, decode_nfty(e.motive), decode_ne(e.scrut), decode_nf(e.branch))
    if c is NeDecIso:
        return S.DecIso(decode_ne(e.body))
    raise AssertionError(e)


def decode_nfty(t: NfTy) -> Term:
    c = t.__class__
    if c is NfBool:
        return S.Bool()
    if c is NfUni:
        return S.Uni()
    if c is NfFn:
        return S.Pi(t.mod, decode_nfty(t.dom), decode_nfty(t.cod))
    if c is NfProd:
        return S.Sig(decode_nfty(t.fst), decode_nfty(t.snd))
    if c is NfModify:
        return S.Mod(t.mod, decode_nfty(t.ty))
    if c is NfDec:
        return S.Dec(decode_nf(t.code))
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Equality: structural, with the mode theory deciding embedded cells


def eq_nf(mt: ModeTheory, a: Nf, b: Nf) -> bool:
    match (a, b):
        case (NfTrue(), NfTrue()) | (NfFalse(), NfFalse()) | (NfBoolCode(), NfBoolCode()):
            return True
        case (NfLam(m1, b1), NfLam(m2, b2)):
            return eq_mod(mt, m1, m2) and eq_nf(mt, b1, b2)
        case (NfPair(a1, b1), NfPair(a2, b2)):
            return eq_nf(mt, a1, a2) and eq_nf(mt, b1, b2)
        case (NfMkBox(m1, b1), NfMkBox(m2, b2)):
            return eq_mod(mt, m1, m2) and eq_nf(mt, b1, b2)
        case (NfInj(e1), NfInj(e2)):
            return eq_ne(mt, e1, e2)
        case (NfFnCode(m1, a1, b1), NfFnCode(m2, a2, b2)):
            return eq_mod(mt, m1, m2) and eq_nf(mt, a1, a2) and eq_nf(mt, b1, b2)
        case (NfProdCode(a1, b1), NfProdCode(a2, b2)):
            return eq_nf(mt, a1, a2) and eq_nf(mt, b1, b2)
        case (NfModifyCode(m1, a1), NfModifyCode(m2, a2)):
            return eq_mod(mt, m1, m2) and eq_nf(mt, a1, a2)
        case (NfDecIsoStar(b1), NfDecIsoStar(b2)):
            return eq_nf(mt, b1, b2)
    return False


def eq_ne(mt: ModeTheory, a: Ne, b: Ne) -> bool:
    match (a, b):
        case (NeVar(k1, c1), NeVar(k2, c2)):
            return k1 == k2 and eq_cell(mt, c1, c2)
        case (NeApp(f1, m1, a1), NeApp(f2, m2, a2)):
            return eq_ne(mt, f1, f2) and eq_mod(mt, m1, m2) and eq_nf(mt, a1, a2)
        case (NeProj1(p1), NeProj1(p2)) | (NeProj2(p1), NeProj2(p2)):
            return eq_ne(mt, p1, p2)
        case (NeBoolRec(t1, s1, x1, y1), NeBoolRec(t2, s2, x2, y2)):
            return (
                eq_nfty(mt, t1, t2)
                and eq_ne(mt, s1, s2)
                and eq_nf(mt, x1, x2)
                and eq_nf(mt, y1, y2)
            )
        case (NeLetMod(mu1, nu1, t1, s1, b1), NeLetMod(mu2, nu2, t2, s2, b2)):
            return (
                eq_mod(mt, mu1, mu2)
                and eq_mod(mt, nu1, nu2)
                and eq_nfty(mt, t1, t2)
                and eq_ne(mt, s1, s2)
                and eq_nf(mt, b1, b2)
            )
        case (NeDecIso(b1), NeDecIso(b2)):
            return eq_ne(mt, b1, b2)
    return False


def eq_nfty(mt: ModeTheory, a: NfTy, b: NfTy) -> bool:
    match (a, b):
        case (NfBool(), NfBool()) | (NfUni(), NfUni()):
            return True
        case (NfFn(m1, d1, c1), NfFn(m2, d2, c2)):
            return eq_mod(mt, m1, m2) and eq_nfty(mt, d1, d2) and eq_nfty(mt, c1, c2)
        case (NfProd(a1, b1), NfProd(a2, b2)):
            return eq_nfty(mt, a1, a2) and eq_nfty(mt, b1, b2)
        case (NfModify(m1, t1), NfModify(m2, t2)):
            return eq_mod(mt, m1, m2) and eq_nfty(mt, t1, t2)
        case (NfDec(u1), NfDec(u2)):
            return eq_nf(mt, u1, u2)
    return False


# ---------------------------------------------------------------------------
# Printing: a normal form, which holds no constant, prints as its embedding
# into core terms through ``syntax.show_term`` over ``depth`` variables,
# binders named ``x``.  ``bench/tracer.py`` times these as ``cli.render``.


def surface_nf(mt: ModeTheory, u: Nf, depth: int = 0) -> str:
    return show_term(decode_nf(u), depth, "x")


def surface_ne(mt: ModeTheory, e: Ne, depth: int = 0) -> str:
    return show_term(decode_ne(e), depth, "x")


def surface_nfty(mt: ModeTheory, t: NfTy, depth: int = 0) -> str:
    return show_term(decode_nfty(t), depth, "x")
