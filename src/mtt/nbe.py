"""Normalization by evaluation.

Terms evaluate into a semantic domain of values; values reify back into the
unquotiented normal forms of the normal module.  Neutral spines use absolute
levels with a 2-cell on the head, so weakening is free and the key action is
cell composition; levels convert to de Bruijn indices only at reify time
(index = depth - 1 - level).  Fresh variables come from the depth parameter —
the kernel holds no counter.

The domain mirrors the normal forms: one value class per canonical form
(``VLam``, ``VPair``, ``VTrue``/``VFalse``, ``VBox``, and the codes
``CPi``/``CSig``/``CBool``/``CMod``, which are the universe's elements),
and one ``VNeutral(ty, ne)`` for a neutral at every type ``reflect`` does
not expand: ``Bool``, ``Pi`` and ``Sig`` (read-back eta-expands them, and
``do_proj`` reflects a component when it is taken), ``Mod``, ``Uni`` and
``Dec`` of a neutral code.  ``reflect`` expands a neutral at ``Dec`` of a
canonical code through the decoding coercion.  So ``reify`` and ``conv``
take neutrals in one arm, read back as the one ``NfInj``, and the key
action touches only ``VNeutral`` heads.

Earlier declarations are constants of a signature that every environment
carries.  A constant evaluates to its stored body value, computed on first
use and then kept; that value is closed, so it is valid at every depth and
under every lock, and read-back unfolds it like any other value.

Evaluation is call-by-need where the checker would otherwise compute a
value nobody asked for: an argument the checker substitutes into a
codomain enters its environment as a ``Thunk``, and each body in the
signature is a ``Body``.  A thunk is computed the first time a ``Var``
reaches it, a body the first time a ``Const`` does; evaluation forces them
only there, so none reaches a neutral frame, read-back or the key action,
and an argument the codomain never mentions is never evaluated.  Their
memos are the kernel's only mutable state.  Conversion (``mtt.conv``) relies
on them: every ``Const`` naming one declaration evaluates to one shared
value, and two values that are one object are equal without unfolding.

A binder's body is a ``Closure``: its term and the environment it was
reached in, evaluated again each time it is instantiated.  The codomain of
a ``Pi`` or ``Sig`` that the syntax marks non-dependent is the exception:
it means one type whatever the argument, so ``eval_ty`` evaluates it once
and ``TPi.cod``/``TSig.snd`` hold that type value, which ``inst_ty``
returns without evaluating anything.  Codes (``CPi``/``CSig``) and the
motives of eliminators always keep closures.

``eval_tm`` takes an application spine whole.  It evaluates the head once;
when the head is a lambda whose body begins with further lambdas, it
evaluates one argument per binder, left to right, and pushes them onto the
closure's environment in one extension, building no ``VLam``, ``Closure``
or ``Env`` in between.  A neutral head takes its arguments one ``do_app``
at a time.

The universe is weak Tarski: a decoded code ``Dec c`` is a type distinct from
the connective it unfolds to.  The two coercions evaluate to the identity on
payloads; reify wraps the boundary markers back on, so normal forms at
``Dec c`` record the coercion exactly once.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from types import MappingProxyType

from .record import field, record
from .modeth import (
    Cell2,
    Modality,
    ModeTheory,
    compose_mod,
    eq_mod,
    id_cell,
    id_mod,
    is_id_cell,
    vcomp,
)
from . import syntax as S
from .syntax import Term
from .normal import (
    Ne,
    NeApp,
    NeBoolRec,
    NeDecIso,
    NeLetMod,
    NeProj1,
    NeProj2,
    NeVar,
    Nf,
    NfBool,
    NfBoolCode,
    NfDec,
    NfDecIsoStar,
    NfFalse,
    NfFn,
    NfFnCode,
    NfInj,
    NfLam,
    NfMkBox,
    NfModify,
    NfModifyCode,
    NfPair,
    NfProd,
    NfProdCode,
    NfTrue,
    NfTy,
    NfUni,
    depth as tele_depth,
)


class NbeError(Exception):
    pass


# ---------------------------------------------------------------------------
# Semantic domain


class Value:
    pass


class TypeValue:
    pass


class Thunk:
    """A value computed on first demand and then kept."""

    __slots__ = ("_compute", "_value")

    def __init__(self, compute: "Callable[[], Value]"):
        self._compute = compute

    def force(self) -> Value:
        if self._compute is not None:
            self._value = self._compute()
            self._compute = None
        return self._value


class Body:
    """A declaration's body value, evaluated on first demand in the empty
    context that carries the declarations before it.

    ``named`` holds the bodies of the declarations the body names by
    ``Const``, as checking it found them.  Forcing a body first computes
    every one of them not computed yet, each after the bodies that one
    names, so every evaluation meets only computed constants.  The stack
    depth of forcing thus does not grow with a chain of definitions
    ``d_i := d_{i-1}``, as it would if each link forced the one before from
    inside its own evaluation."""

    __slots__ = ("_mt", "_env", "_term", "_named", "_value")

    def __init__(self, mt: ModeTheory, env: "Env", term: Term, named: "list[Body]"):
        self._mt, self._env, self._term, self._named = mt, env, term, named

    def force(self) -> Value:
        if self._term is not None:
            stack = [(self, iter(self._named))]
            while stack:
                body, named = stack[-1]
                for b in named:
                    if b._term is not None:
                        stack.append((b, iter(b._named)))
                        break
                else:
                    stack.pop()
                    body._value = eval_tm(body._mt, body._env, body._term)
                    body._term = body._named = None
        return self._value


@record
class Definition:
    """A checked declaration: its mode, type value and body value, both
    closed (evaluated in the empty context).  The body is evaluated when
    first used, so a declaration nothing unfolds is never evaluated."""

    mode: str
    ty: TypeValue
    val: Body


# Declaration names to their definitions; never mutated once built.
Signature = Mapping[str, Definition]
NO_DEFS: Signature = MappingProxyType({})


@record
class Env:
    """One value per variable of a context (``check.CheckCtx.env``), oldest
    first; locks contribute nothing, so a locked context shares its
    environment.  A prefix of ``vals`` is the environment of a prefix of the
    context: values carry absolute levels, so dropping the variables after
    them renames nothing.
    ``sig`` holds the constants the terms evaluated here may refer to."""

    vals: "tuple[Value | Thunk, ...]"
    sig: Signature = field(compare=False, repr=False)


def env_push(env: Env, v: "Value | Thunk") -> Env:
    return Env(env.vals + (v,), env.sig)


@record
class Closure:
    """A term body binding one variable over a captured environment."""

    env: Env
    body: Term


@record
class NeAbs:
    """Level-indexed neutral: head variable plus eliminator frames."""

    level: int
    cell: Cell2
    frames: tuple = ()

    def push(self, frame) -> "NeAbs":
        return NeAbs(self.level, self.cell, self.frames + (frame,))


@record
class FrApp:
    mod: Modality
    arg: Value
    dom: TypeValue


@record
class FrProj1:
    pass


@record
class FrProj2:
    pass


@record
class FrIf:
    motive: Closure
    tcase: Value
    fcase: Value


@record
class FrLetMod:
    mu: Modality
    nu: Modality
    motive: Closure
    branch: Closure
    inner: TypeValue


@record
class FrDecIso:
    pass


@record
class VLam(Value):
    clo: Closure


@record
class VPair(Value):
    fst: Value
    snd: Value


@record
class VTrue(Value):
    pass


@record
class VFalse(Value):
    pass


@record
class VBox(Value):
    val: Value


@record
class VNeutral(Value):
    """A neutral at its type, one that ``reflect`` does not expand: ``Bool``,
    ``Pi``, ``Sig``, ``Mod``, ``Uni`` or ``Dec`` of a neutral code.
    ``do_app``, ``do_proj`` and ``do_letmod`` read the domain, the
    components and the boxed type from ``ty``."""

    ty: TypeValue
    ne: NeAbs


@record
class TPi(TypeValue):
    """A function type; ``cod`` is a ``TypeValue`` when it does not depend
    on the argument (see ``eval_ty``)."""

    mod: Modality
    dom: TypeValue
    cod: "Closure | TypeValue"


@record
class TSig(TypeValue):
    """A pair type; ``snd`` as ``TPi.cod``."""

    fst: TypeValue
    snd: "Closure | TypeValue"


@record
class TBool(TypeValue):
    pass


# The one ``TBool``: a record without fields, so every copy would be equal.
BOOL = TBool()


@record
class TUni(TypeValue):
    pass


UNI = TUni()  # likewise the one ``TUni``


@record
class TMod(TypeValue):
    mod: Modality
    inner: TypeValue


@record
class TDec(TypeValue):
    code: Value  # a code, or a ``VNeutral`` at the universe


# The codes, the universe's canonical elements.


@record
class CPi(Value):
    mod: Modality
    dom: Value
    cod: Closure


@record
class CSig(Value):
    fst: Value
    snd: Closure


@record
class CBool(Value):
    pass


@record
class CMod(Value):
    mod: Modality
    code: Value


# ---------------------------------------------------------------------------
# Evaluation


def eval_tm(mt: ModeTheory, env: Env, t: Term) -> Value:
    c = t.__class__
    if c is S.Var:
        k, vals = t.idx, env.vals
        if k < 0 or k >= len(vals):
            raise NbeError(f"variable {k} out of range")
        v = vals[len(vals) - 1 - k]
        if isinstance(v, Thunk):
            v = v.force()
        cell = t.cell
        if not cell.layers or is_id_cell(mt, cell):
            return v
        return key_val(mt, cell, v)
    if c is S.App:
        args = []
        while c is S.App:
            args.append(t.arg)
            t = t.fn
            c = t.__class__
        f = eval_tm(mt, env, t)
        while args:
            if f.__class__ is VLam:
                clo = f.clo
                body, vals = clo.body, [eval_tm(mt, env, args.pop())]
                while args and body.__class__ is S.Lam:
                    body = body.body
                    vals.append(eval_tm(mt, env, args.pop()))
                f = eval_tm(mt, Env(clo.env.vals + tuple(vals), clo.env.sig), body)
            else:
                f = do_app(mt, f, eval_tm(mt, env, args.pop()))
        return f
    if c is S.Const:
        defn = env.sig.get(t.name)
        if defn is None:
            raise NbeError(f"unknown definition {t.name!r}")
        return defn.val.force()
    if c is S.Lam:
        return VLam(Closure(env, t.body))
    if c is S.True_:
        return VTrue()
    if c is S.False_:
        return VFalse()
    if c is S.Pair:
        return VPair(eval_tm(mt, env, t.fst), eval_tm(mt, env, t.snd))
    if c is S.Proj1:
        return do_proj(mt, 1, eval_tm(mt, env, t.pair))
    if c is S.Proj2:
        return do_proj(mt, 2, eval_tm(mt, env, t.pair))
    if c is S.If:
        return do_if(
            mt,
            Closure(env, t.motive),
            eval_tm(mt, env, t.tcase),
            eval_tm(mt, env, t.fcase),
            eval_tm(mt, env, t.scrut),
        )
    if c is S.MkBox:
        return VBox(eval_tm(mt, env, t.body))
    if c is S.LetMod:
        return do_letmod(
            mt, t.mu, t.nu, Closure(env, t.motive),
            eval_tm(mt, env, t.scrut), Closure(env, t.branch),
        )
    if c is S.PiCode:
        return CPi(t.mod, eval_tm(mt, env, t.dom), Closure(env, t.cod))
    if c is S.SigCode:
        return CSig(eval_tm(mt, env, t.fst), Closure(env, t.snd))
    if c is S.BoolCode:
        return CBool()
    if c is S.ModCode:
        return CMod(t.mod, eval_tm(mt, env, t.code))
    if c is S.DecIso or c is S.DecIsoInv:
        return eval_tm(mt, env, t.body)
    raise NbeError(f"not a term former: {type(t).__name__}")


def _unbound() -> Value:
    raise NbeError("a codomain marked non-dependent mentions its variable")


# The variable of a non-dependent codomain: it raises if evaluation reaches
# it, so a wrong ``dependent`` flag is an error, never a wrong type.
UNBOUND = Thunk(_unbound)


def eval_ty(mt: ModeTheory, env: Env, t: Term) -> TypeValue:
    """The value of type ``t``.  The codomain of a ``Pi`` or ``Sig`` marked
    non-dependent is evaluated here, once, under ``UNBOUND``; any other is
    kept as a ``Closure`` and evaluated at each ``inst_ty``."""
    c = t.__class__
    if c is S.Pi:
        dom = eval_ty(mt, env, t.dom)
        if t.dependent:
            return TPi(t.mod, dom, Closure(env, t.cod))
        return TPi(t.mod, dom, eval_ty(mt, env_push(env, UNBOUND), t.cod))
    if c is S.Bool:
        return BOOL
    if c is S.Sig:
        fst = eval_ty(mt, env, t.fst)
        if t.dependent:
            return TSig(fst, Closure(env, t.snd))
        return TSig(fst, eval_ty(mt, env_push(env, UNBOUND), t.snd))
    if c is S.Mod:
        return TMod(t.mod, eval_ty(mt, env, t.ty))
    if c is S.Uni:
        return UNI
    if c is S.Dec:
        return TDec(eval_tm(mt, env, t.code))
    raise NbeError(f"not a type former: {type(t).__name__}")


def instantiate(mt: ModeTheory, clo: Closure, v: "Value | Thunk") -> Value:
    return eval_tm(mt, env_push(clo.env, v), clo.body)


def inst_ty(
    mt: ModeTheory, clo: "Closure | TypeValue", v: "Value | Thunk"
) -> TypeValue:
    """A codomain at ``v``: a closure is evaluated, a value is returned as
    it is."""
    if clo.__class__ is Closure:
        return eval_ty(mt, env_push(clo.env, v), clo.body)
    return clo


def dec_unfold(mt: ModeTheory, c: Value) -> TypeValue:
    """The connective a canonical code decodes to, one layer deep; a code
    closure becomes a type closure under ``dec``."""
    match c:
        case CPi(mod, dom, cod):
            return TPi(mod, TDec(dom), Closure(cod.env, S.Dec(cod.body)))
        case CSig(fst, snd):
            return TSig(TDec(fst), Closure(snd.env, S.Dec(snd.body)))
        case CBool():
            return BOOL
        case CMod(mod, code):
            return TMod(mod, TDec(code))
        case VNeutral():
            raise NbeError("cannot unfold a neutral code")
    raise NbeError(f"not a universe element: {type(c).__name__}")


# ---------------------------------------------------------------------------
# Eliminators


def do_app(mt: ModeTheory, f: Value, a: Value) -> Value:
    c = f.__class__
    if c is VLam:
        return instantiate(mt, f.clo, a)
    if c is VNeutral:
        ty = f.ty
        if ty.__class__ is TPi:
            return reflect(mt, inst_ty(mt, ty.cod, a), f.ne.push(FrApp(ty.mod, a, ty.dom)))
    raise NbeError(f"application of a non-function: {type(f).__name__}")


def do_proj(mt: ModeTheory, which: int, p: Value) -> Value:
    match p:
        case VPair(a, b):
            return a if which == 1 else b
        case VNeutral(TSig(fst, snd), ne):
            a = reflect(mt, fst, ne.push(FrProj1()))
            return a if which == 1 else reflect(mt, inst_ty(mt, snd, a), ne.push(FrProj2()))
    raise NbeError(f"projection from a non-pair: {type(p).__name__}")


def do_if(mt: ModeTheory, motive: Closure, tcase: Value, fcase: Value, scrut: Value) -> Value:
    c = scrut.__class__
    if c is VTrue:
        return tcase
    if c is VFalse:
        return fcase
    if c is VNeutral and scrut.ty.__class__ is TBool:
        return reflect(
            mt, inst_ty(mt, motive, scrut), scrut.ne.push(FrIf(motive, tcase, fcase))
        )
    raise NbeError(f"boolean elimination of {type(scrut).__name__}")


def do_letmod(
    mt: ModeTheory,
    mu: Modality,
    nu: Modality,
    motive: Closure,
    scrut: Value,
    branch: Closure,
) -> Value:
    c = scrut.__class__
    if c is VBox:
        return instantiate(mt, branch, scrut.val)
    if c is VNeutral:
        ty = scrut.ty
        if ty.__class__ is TMod:
            return reflect(
                mt,
                inst_ty(mt, motive, scrut),
                scrut.ne.push(FrLetMod(mu, nu, motive, branch, ty.inner)),
            )
    raise NbeError(f"modal elimination of {type(scrut).__name__}")


def key_val(mt: ModeTheory, cell: Cell2, v: Value) -> Value:
    """Compose a key onto a stored value's neutral head(s).

    Environment atoms are reflections with identity head cells, so the
    composite is defined; a head cell that does not end where the key starts
    is a transport bug, an ``NbeError``.  On canonical values (possible only
    after a substitution) the key acts trivially.
    """
    c = v.__class__
    if c is VNeutral:
        ne = v.ne
        if not eq_mod(mt, ne.cell.tgt, cell.src):
            raise NbeError(
                f"key {cell} starts at {cell.src}, but the head cell ends at {ne.cell.tgt}"
            )
        return VNeutral(v.ty, NeAbs(ne.level, vcomp(cell, ne.cell, mt), ne.frames))
    if c is VPair:
        return VPair(key_val(mt, cell, v.fst), key_val(mt, cell, v.snd))
    return v


# ---------------------------------------------------------------------------
# Reflect / reify


def reflect(mt: ModeTheory, T: TypeValue, ne: NeAbs) -> Value:
    c = T.__class__
    if c is TDec and T.code.__class__ is not VNeutral:
        return reflect(mt, dec_unfold(mt, T.code), ne.push(FrDecIso()))
    if isinstance(T, TypeValue):
        return VNeutral(T, ne)
    raise NbeError(f"cannot reflect at {type(T).__name__}")


def reify(mt: ModeTheory, d: int, mode: str, T: TypeValue, v: Value) -> Nf:
    c, cv = T.__class__, v.__class__
    if c is TBool:
        if cv is VTrue:
            return NfTrue()
        if cv is VFalse:
            return NfFalse()
        if cv is not VNeutral:
            raise NbeError(f"not a boolean value: {cv.__name__}")
    elif c is TPi:
        mod = T.mod
        fresh = reflect(mt, T.dom, NeAbs(d, id_cell(mod)))
        body = do_app(mt, v, fresh)
        return NfLam(mod, reify(mt, d + 1, mode, inst_ty(mt, T.cod, fresh), body))
    elif c is TSig:
        a = do_proj(mt, 1, v)
        b = do_proj(mt, 2, v)
        return NfPair(
            reify(mt, d, mode, T.fst, a),
            reify(mt, d, mode, inst_ty(mt, T.snd, a), b),
        )
    elif c is TMod:
        if cv is VBox:
            mod = T.mod
            return NfMkBox(mod, reify(mt, d, mod.mode_src, T.inner, v.val))
        if cv is not VNeutral:
            raise NbeError(f"not a modal value: {cv.__name__}")
    elif c is TUni:
        if cv is CPi:
            mod, dom = v.mod, v.dom
            fresh = reflect(mt, TDec(dom), NeAbs(d, id_cell(mod)))
            return NfFnCode(
                mod,
                reify(mt, d, mod.mode_src, UNI, dom),
                reify(mt, d + 1, mode, UNI, instantiate(mt, v.cod, fresh)),
            )
        if cv is CSig:
            fst = v.fst
            fresh = reflect(mt, TDec(fst), NeAbs(d, id_cell(id_mod(mode))))
            return NfProdCode(
                reify(mt, d, mode, UNI, fst),
                reify(mt, d + 1, mode, UNI, instantiate(mt, v.snd, fresh)),
            )
        if cv is CBool:
            return NfBoolCode()
        if cv is CMod:
            mod = v.mod
            return NfModifyCode(mod, reify(mt, d, mod.mode_src, UNI, v.code))
        if cv is not VNeutral:
            raise NbeError(f"not a universe element: {cv.__name__}")
    elif c is TDec:
        code = T.code
        if code.__class__ is not VNeutral:
            return NfDecIsoStar(reify(mt, d, mode, dec_unfold(mt, code), v))
        if cv is not VNeutral:
            raise NbeError(f"canonical value at a neutral code: {cv.__name__}")
    else:
        raise NbeError(f"cannot reify at {c.__name__}")
    # The types left read a neutral back as itself: one arm for neutrals.
    return NfInj(reify_ne(mt, d, mode, v.ne))


def reify_ne(mt: ModeTheory, d: int, mode: str, ne: NeAbs) -> Ne:
    idx = d - 1 - ne.level
    if idx < 0:
        raise NbeError(f"level {ne.level} escapes depth {d}")
    out: Ne = NeVar(idx, ne.cell)
    for fr in ne.frames:
        match fr:
            case FrApp(mod, arg, dom):
                out = NeApp(out, mod, reify(mt, d, mod.mode_src, dom, arg))
            case FrProj1():
                out = NeProj1(out)
            case FrProj2():
                out = NeProj2(out)
            case FrIf(motive, tcase, fcase):
                fresh = reflect(mt, BOOL, NeAbs(d, id_cell(id_mod(mode))))
                tau = reify_ty(mt, d + 1, mode, inst_ty(mt, motive, fresh))
                out = NeBoolRec(
                    tau,
                    out,
                    reify(mt, d, mode, inst_ty(mt, motive, VTrue()), tcase),
                    reify(mt, d, mode, inst_ty(mt, motive, VFalse()), fcase),
                )
            case FrLetMod(mu, nu, motive, branch, inner):
                box_fresh = reflect(mt, TMod(nu, inner), NeAbs(d, id_cell(mu)))
                tau = reify_ty(mt, d + 1, mode, inst_ty(mt, motive, box_fresh))
                arg_fresh = reflect(mt, inner, NeAbs(d, id_cell(compose_mod(mu, nu))))
                branch_ty = inst_ty(mt, motive, VBox(arg_fresh))
                u = reify(mt, d + 1, mode, branch_ty, instantiate(mt, branch, arg_fresh))
                out = NeLetMod(mu, nu, tau, out, u)
            case FrDecIso():
                out = NeDecIso(out)
            case _:
                raise NbeError(f"unknown frame {type(fr).__name__}")
    return out


def reify_ty(mt: ModeTheory, d: int, mode: str, T: TypeValue) -> NfTy:
    c = T.__class__
    if c is TBool:
        return NfBool()
    if c is TPi:
        mod, dom, cod = T.mod, T.dom, T.cod
        if not isinstance(cod, TypeValue):
            cod = inst_ty(mt, cod, reflect(mt, dom, NeAbs(d, id_cell(mod))))
        return NfFn(mod, reify_ty(mt, d, mod.mode_src, dom), reify_ty(mt, d + 1, mode, cod))
    if c is TSig:
        fst, snd = T.fst, T.snd
        if not isinstance(snd, TypeValue):
            snd = inst_ty(mt, snd, reflect(mt, fst, NeAbs(d, id_cell(id_mod(mode)))))
        return NfProd(reify_ty(mt, d, mode, fst), reify_ty(mt, d + 1, mode, snd))
    if c is TUni:
        return NfUni()
    if c is TMod:
        mod = T.mod
        return NfModify(mod, reify_ty(mt, d, mod.mode_src, T.inner))
    if c is TDec:
        return NfDec(reify(mt, d, mode, UNI, T.code))
    raise NbeError(f"cannot reify type {type(T).__name__}")


# ---------------------------------------------------------------------------
# Entry points


def normalize(ctx, ty: Term, tm: Term) -> Nf:
    """``tm``'s normal form at type ``ty``, both over ``ctx`` (a
    ``check.CheckCtx``, read by attribute): its mode theory, environment
    of variables and signature, and mode."""
    mt, env = ctx.mt, ctx.env
    return reify(mt, tele_depth(ctx), ctx.mode, eval_ty(mt, env, ty), eval_tm(mt, env, tm))


def normalize_ty(ctx, ty: Term) -> NfTy:
    """The normal form of the type ``ty`` over ``ctx``."""
    mt = ctx.mt
    return reify_ty(mt, tele_depth(ctx), ctx.mode, eval_ty(mt, ctx.env, ty))
