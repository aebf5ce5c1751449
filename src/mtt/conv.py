"""Conversion on values: the checker's definitional equality.

``conv_ty``, ``conv`` and ``conv_ne`` decide what reading both sides back
with ``nbe.reify_ty``/``reify``/``reify_ne`` and comparing the normal forms
with ``normal.eq_nfty``/``eq_nf`` would decide, but build no normal form and
stop at the first difference.  Each case follows the read-back case of the
same name: eta for functions, pairs and boxes, codes former by former at
the universe, under a binder one fresh variable reflected at the left
side's domain for both sides, ``Dec`` of a canonical code through its
unfolding, and at every other type the one ``VNeutral`` arm: neutrals by
level, frame count, head cell and then frame by frame, as two neutral
pairs are too, unprojected, which by eta is exact.  Every
modality and 2-cell question goes to the mode theory's decider, and an
ill-formed value raises the ``NbeError`` that read-back would raise.

Identity first: each function answers at once when its two sides are one
object, since reading back is deterministic and one object reads back to
one normal form.  The memos of ``nbe.Body`` and ``nbe.Thunk`` make this
catch shared definitions: every ``Const`` naming one declaration evaluates
to the same body value, so a type built from definitions is compared with
itself in constant time instead of being unfolded.

Read-back and ``eq_nf``, one structural walk over the normal forms'
fields in ``normal``, stay as the reference the tests and
``harness.check_conversion`` hold this to.  The module is apart from
``nbe`` because ``mtt`` often starts without a bytecode cache: compiled as
part of ``nbe``, as one larger module, this code raised the peak memory of
a whole ``mtt`` run by about half a megabyte (Python 3.11).
"""

from __future__ import annotations

from .modeth import ModeTheory, compose_mod, eq_cell, eq_mod, id_cell, id_mod
from .nbe import (
    BOOL,
    UNI,
    CBool,
    CMod,
    CPi,
    CSig,
    FrApp,
    FrDecIso,
    FrIf,
    FrLetMod,
    FrProj1,
    FrProj2,
    NbeError,
    NeAbs,
    TBool,
    TDec,
    TMod,
    TPi,
    TSig,
    TUni,
    TypeValue,
    VBox,
    VFalse,
    VNeutral,
    VTrue,
    Value,
    dec_unfold,
    do_app,
    do_proj,
    inst_ty,
    instantiate,
    reflect,
)


def _expect(a: object, b: object, kinds: tuple, what: str) -> None:
    """Raise the error reify raises on a value of none of ``kinds``."""
    for x in (a, b):
        if not isinstance(x, kinds):
            raise NbeError(f"{what}: {type(x).__name__}")


def conv(mt: ModeTheory, d: int, mode: str, T: TypeValue, v: Value, w: Value) -> bool:
    """Whether ``reify`` at T gives v and w equal normal forms."""
    if v is w:
        return True
    c, cv, cw = T.__class__, v.__class__, w.__class__
    if c is TBool:
        if cv is cw and (cv is VTrue or cv is VFalse):
            return True
        kinds, what = (VTrue, VFalse, VNeutral), "not a boolean value"
    elif c is TPi:
        mod = T.mod
        fresh = reflect(mt, T.dom, NeAbs(d, id_cell(mod)))
        return conv(
            mt, d + 1, mode, inst_ty(mt, T.cod, fresh),
            do_app(mt, v, fresh), do_app(mt, w, fresh),
        )
    elif c is TSig:
        if cv is VNeutral and cw is VNeutral:
            return conv_ne(mt, d, mode, v.ne, w.ne)
        a = do_proj(mt, 1, v)
        return conv(mt, d, mode, T.fst, a, do_proj(mt, 1, w)) and conv(
            mt, d, mode, inst_ty(mt, T.snd, a), do_proj(mt, 2, v), do_proj(mt, 2, w)
        )
    elif c is TMod:
        if cv is VBox and cw is VBox:
            return conv(mt, d, T.mod.mode_src, T.inner, v.val, w.val)
        kinds, what = (VBox, VNeutral), "not a modal value"
    elif c is TUni:
        if cv is cw and cv is not VNeutral:
            if cv is CPi:
                m1, dom = v.mod, v.dom
                if not (eq_mod(mt, m1, w.mod) and conv(mt, d, m1.mode_src, UNI, dom, w.dom)):
                    return False
                fresh = reflect(mt, TDec(dom), NeAbs(d, id_cell(m1)))
                return conv(
                    mt, d + 1, mode, UNI,
                    instantiate(mt, v.cod, fresh), instantiate(mt, w.cod, fresh),
                )
            if cv is CSig:
                fst = v.fst
                if not conv(mt, d, mode, UNI, fst, w.fst):
                    return False
                fresh = reflect(mt, TDec(fst), NeAbs(d, id_cell(id_mod(mode))))
                return conv(
                    mt, d + 1, mode, UNI,
                    instantiate(mt, v.snd, fresh), instantiate(mt, w.snd, fresh),
                )
            if cv is CBool:
                return True
            if cv is CMod:
                m1 = v.mod
                return eq_mod(mt, m1, w.mod) and conv(mt, d, m1.mode_src, UNI, v.code, w.code)
        kinds, what = (CPi, CSig, CBool, CMod, VNeutral), "not a universe element"
    elif c is TDec:
        code = T.code
        if code.__class__ is not VNeutral:
            return conv(mt, d, mode, dec_unfold(mt, code), v, w)
        kinds, what = (VNeutral,), "canonical value at a neutral code"
    else:
        raise NbeError(f"cannot reify at {c.__name__}")
    # The types left read a neutral back as itself: one arm for neutrals.
    if cv is VNeutral and cw is VNeutral:
        return conv_ne(mt, d, mode, v.ne, w.ne)
    _expect(v, w, kinds, what)
    return False


_FRAMES = (FrApp, FrProj1, FrProj2, FrIf, FrLetMod, FrDecIso)


def conv_ne(mt: ModeTheory, d: int, mode: str, n1: NeAbs, n2: NeAbs) -> bool:
    """Whether two neutrals read back to equal neutral forms: the same head
    variable under equal cells, then equal frames one by one."""
    for ne in (n1, n2):
        if ne.level >= d:
            raise NbeError(f"level {ne.level} escapes depth {d}")
    if n1.level != n2.level or len(n1.frames) != len(n2.frames):
        return False
    if not eq_cell(mt, n1.cell, n2.cell):
        return False
    for f1, f2 in zip(n1.frames, n2.frames):
        match f1, f2:
            case FrApp(mod, a1, dom), FrApp(mod2, a2, _):
                if not (eq_mod(mt, mod, mod2) and conv(mt, d, mod.mode_src, dom, a1, a2)):
                    return False
            case (FrProj1(), FrProj1()) | (FrProj2(), FrProj2()) | (FrDecIso(), FrDecIso()):
                pass
            case FrIf(mot1, t1, e1), FrIf(mot2, t2, e2):
                fresh = reflect(mt, BOOL, NeAbs(d, id_cell(id_mod(mode))))
                if not (
                    conv_ty(mt, d + 1, mode, inst_ty(mt, mot1, fresh), inst_ty(mt, mot2, fresh))
                    and conv(mt, d, mode, inst_ty(mt, mot1, VTrue()), t1, t2)
                    and conv(mt, d, mode, inst_ty(mt, mot1, VFalse()), e1, e2)
                ):
                    return False
            case FrLetMod(mu, nu, mot1, br1, inner), FrLetMod(mu2, nu2, mot2, br2, _):
                if not (eq_mod(mt, mu, mu2) and eq_mod(mt, nu, nu2)):
                    return False
                box = reflect(mt, TMod(nu, inner), NeAbs(d, id_cell(mu)))
                arg = reflect(mt, inner, NeAbs(d, id_cell(compose_mod(mu, nu))))
                if not (
                    conv_ty(mt, d + 1, mode, inst_ty(mt, mot1, box), inst_ty(mt, mot2, box))
                    and conv(
                        mt, d + 1, mode, inst_ty(mt, mot1, VBox(arg)),
                        instantiate(mt, br1, arg), instantiate(mt, br2, arg),
                    )
                ):
                    return False
            case _:
                _expect(f1, f2, _FRAMES, "unknown frame")
                return False
    return True


def conv_ty(mt: ModeTheory, d: int, mode: str, A: TypeValue, B: TypeValue) -> bool:
    """Whether ``reify_ty`` gives A and B equal normal forms."""
    if A is B:
        return True
    c = A.__class__
    if c is B.__class__:
        if c is TBool or c is TUni:
            return True
        if c is TPi:
            m1 = A.mod
            if not (eq_mod(mt, m1, B.mod) and conv_ty(mt, d, m1.mode_src, A.dom, B.dom)):
                return False
            fresh = reflect(mt, A.dom, NeAbs(d, id_cell(m1)))
            return conv_ty(mt, d + 1, mode, inst_ty(mt, A.cod, fresh), inst_ty(mt, B.cod, fresh))
        if c is TSig:
            fst = A.fst
            if not conv_ty(mt, d, mode, fst, B.fst):
                return False
            fresh = reflect(mt, fst, NeAbs(d, id_cell(id_mod(mode))))
            return conv_ty(mt, d + 1, mode, inst_ty(mt, A.snd, fresh), inst_ty(mt, B.snd, fresh))
        if c is TMod:
            m1 = A.mod
            return eq_mod(mt, m1, B.mod) and conv_ty(mt, d, m1.mode_src, A.inner, B.inner)
        if c is TDec:
            return conv(mt, d, mode, UNI, A.code, B.code)
    _expect(A, B, (TBool, TUni, TPi, TSig, TMod, TDec), "cannot reify type")
    return False
