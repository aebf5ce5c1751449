"""Normalization by evaluation.

Terms evaluate into a semantic domain of values; values reify back into the
unquotiented normal forms of the normal module.  Neutral spines use absolute
levels with a 2-cell on the head, so weakening is free and the key action is
cell composition; levels convert to de Bruijn indices only at reify time
(index = depth - 1 - level).  Fresh variables come from the depth parameter —
the kernel holds no counter.

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

The universe is weak Tarski: a decoded code ``Dec c`` is a type distinct from
the connective it unfolds to.  The two coercions evaluate to the identity on
payloads; reify wraps the boundary markers back on, so normal forms at
``Dec c`` record the coercion exactly once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from types import MappingProxyType

from .record import field, record
from .modeth import (
    Cell2,
    CellId,
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
from .syntax import Telescope, Term, depth as tele_depth
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
)


class NbeError(Exception):
    pass


# ---------------------------------------------------------------------------
# Semantic domain


class Value:
    pass


class TypeValue:
    pass


class CodeValue:
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

    Forcing a body first computes every body it names by ``Const`` that is
    not computed yet, each after the bodies that one names, so every
    evaluation meets only computed constants.  The stack depth of forcing
    thus does not grow with a chain of definitions ``d_i := d_{i-1}``, as
    it would if each link forced the one before from inside its own
    evaluation."""

    __slots__ = ("_mt", "_env", "_term", "_value")

    def __init__(self, mt: ModeTheory, env: "Env", term: Term):
        self._mt, self._env, self._term = mt, env, term

    def force(self) -> Value:
        if self._term is not None:
            stack = [(self, self._named())]
            while stack:
                body, named = stack[-1]
                for b in named:
                    if b._term is not None:
                        stack.append((b, b._named()))
                        break
                else:
                    stack.pop()
                    body._value = eval_tm(body._mt, body._env, body._term)
                    body._term = None
        return self._value

    def _named(self) -> "Iterator[Body]":
        sig = self._env.sig
        return iter([sig[name].val for name in S.const_names(self._term)])


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
    """One value per variable entry, first entry first; locks contribute
    nothing, so a locked context shares its environment.  A prefix of
    ``vals`` is the environment of a prefix of the telescope: values carry
    absolute levels, so dropping the entries after them renames nothing.
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
class DecClosure:
    """A type closure arising from unfolding a code: instantiating the code
    closure and re-wrapping the result under the decoding type former."""

    code_clo: Closure


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
class VBoolNeutral(Value):
    ne: NeAbs


@record
class ModNeutral:
    ne: NeAbs
    inner: TypeValue  # the boxed content's type, needed to reify letmod frames


@record
class ModBoxed:
    val: Value


@record
class VMod(Value):
    payload: "ModNeutral | ModBoxed"


@record
class VCode(Value):
    code: CodeValue


@record
class VCodeNeutral(Value):
    ne: NeAbs


@record
class VNeutral(Value):
    """Neutral at a type with no eta law driving further expansion
    (functions before application, decoded neutral codes)."""

    ty: TypeValue
    ne: NeAbs


@record
class TPi(TypeValue):
    mod: Modality
    dom: TypeValue
    cod: "Closure | DecClosure"


@record
class TSig(TypeValue):
    fst: TypeValue
    snd: "Closure | DecClosure"


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
    code: CodeValue


@record
class CPi(CodeValue):
    mod: Modality
    dom: CodeValue
    cod: Closure


@record
class CSig(CodeValue):
    fst: CodeValue
    snd: Closure


@record
class CBool(CodeValue):
    pass


@record
class CMod(CodeValue):
    mod: Modality
    code: CodeValue


@record
class CNeutral(CodeValue):
    ne: NeAbs


def code_of(v: Value) -> CodeValue:
    match v:
        case VCode(c):
            return c
        case VCodeNeutral(e):
            return CNeutral(e)
    raise NbeError(f"not a universe element: {type(v).__name__}")


def code_value(c: CodeValue) -> Value:
    if isinstance(c, CNeutral):
        return VCodeNeutral(c.ne)
    return VCode(c)


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
        if isinstance(cell.expr, CellId) or is_id_cell(mt, cell):
            return v
        return key_val(mt, cell, v)
    if c is S.App:
        return do_app(mt, eval_tm(mt, env, t.fn), eval_tm(mt, env, t.arg))
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
        return VMod(ModBoxed(eval_tm(mt, env, t.body)))
    if c is S.LetMod:
        return do_letmod(
            mt, t.mu, t.nu, Closure(env, t.motive),
            eval_tm(mt, env, t.scrut), Closure(env, t.branch),
        )
    if c is S.PiCode:
        return VCode(CPi(t.mod, code_of(eval_tm(mt, env, t.dom)), Closure(env, t.cod)))
    if c is S.SigCode:
        return VCode(CSig(code_of(eval_tm(mt, env, t.fst)), Closure(env, t.snd)))
    if c is S.BoolCode:
        return VCode(CBool())
    if c is S.ModCode:
        return VCode(CMod(t.mod, code_of(eval_tm(mt, env, t.code))))
    if c is S.DecIso or c is S.DecIsoInv:
        return eval_tm(mt, env, t.body)
    raise NbeError(f"not a term former: {type(t).__name__}")


def eval_ty(mt: ModeTheory, env: Env, t: Term) -> TypeValue:
    c = t.__class__
    if c is S.Pi:
        return TPi(t.mod, eval_ty(mt, env, t.dom), Closure(env, t.cod))
    if c is S.Bool:
        return BOOL
    if c is S.Sig:
        return TSig(eval_ty(mt, env, t.fst), Closure(env, t.snd))
    if c is S.Mod:
        return TMod(t.mod, eval_ty(mt, env, t.ty))
    if c is S.Uni:
        return UNI
    if c is S.Dec:
        return TDec(code_of(eval_tm(mt, env, t.code)))
    raise NbeError(f"not a type former: {type(t).__name__}")


def instantiate(mt: ModeTheory, clo: Closure, v: "Value | Thunk") -> Value:
    return eval_tm(mt, env_push(clo.env, v), clo.body)


def inst_ty(mt: ModeTheory, clo: "Closure | DecClosure", v: "Value | Thunk") -> TypeValue:
    if isinstance(clo, DecClosure):
        return TDec(code_of(instantiate(mt, clo.code_clo, v)))
    return eval_ty(mt, env_push(clo.env, v), clo.body)


def dec_unfold(mt: ModeTheory, c: CodeValue) -> TypeValue:
    """The connective a canonical code decodes to, one layer deep."""
    match c:
        case CPi(mod, dom, cod):
            return TPi(mod, TDec(dom), DecClosure(cod))
        case CSig(fst, snd):
            return TSig(TDec(fst), DecClosure(snd))
        case CBool():
            return BOOL
        case CMod(mod, code):
            return TMod(mod, TDec(code))
    raise NbeError("cannot unfold a neutral code")


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
    raise NbeError(f"projection from a non-pair: {type(p).__name__}")


def do_if(mt: ModeTheory, motive: Closure, tcase: Value, fcase: Value, scrut: Value) -> Value:
    match scrut:
        case VTrue():
            return tcase
        case VFalse():
            return fcase
        case VBoolNeutral(ne):
            return reflect(
                mt, inst_ty(mt, motive, scrut), ne.push(FrIf(motive, tcase, fcase))
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
    match scrut:
        case VMod(ModBoxed(a)):
            return instantiate(mt, branch, a)
        case VMod(ModNeutral(ne, inner)):
            return reflect(
                mt,
                inst_ty(mt, motive, scrut),
                ne.push(FrLetMod(mu, nu, motive, branch, inner)),
            )
    raise NbeError(f"modal elimination of {type(scrut).__name__}")


def key_val(mt: ModeTheory, cell: Cell2, v: Value) -> Value:
    """Compose a key onto a stored value's neutral head(s).

    Environment atoms are reflections with identity head cells, so the
    composite is defined; a head cell that does not end where the key starts
    is a transport bug, an ``NbeError``.  On canonical values (possible only
    after a substitution) the key acts trivially.
    """

    def on_ne(ne: NeAbs) -> NeAbs:
        if not eq_mod(mt, ne.cell.tgt, cell.src):
            raise NbeError(
                f"key {cell} starts at {cell.src}, but the head cell ends at {ne.cell.tgt}"
            )
        return NeAbs(ne.level, vcomp(cell, ne.cell, mt), ne.frames)

    match v:
        case VBoolNeutral(ne):
            return VBoolNeutral(on_ne(ne))
        case VCodeNeutral(ne):
            return VCodeNeutral(on_ne(ne))
        case VNeutral(ty, ne):
            return VNeutral(ty, on_ne(ne))
        case VMod(ModNeutral(ne, inner)):
            return VMod(ModNeutral(on_ne(ne), inner))
        case VPair(a, b):
            return VPair(key_val(mt, cell, a), key_val(mt, cell, b))
        case _:
            return v


# ---------------------------------------------------------------------------
# Reflect / reify


def reflect(mt: ModeTheory, T: TypeValue, ne: NeAbs) -> Value:
    c = T.__class__
    if c is TBool:
        return VBoolNeutral(ne)
    if c is TPi:
        return VNeutral(T, ne)
    if c is TSig:
        a = reflect(mt, T.fst, ne.push(FrProj1()))
        b = reflect(mt, inst_ty(mt, T.snd, a), ne.push(FrProj2()))
        return VPair(a, b)
    if c is TMod:
        return VMod(ModNeutral(ne, T.inner))
    if c is TUni:
        return VCodeNeutral(ne)
    if c is TDec:
        if isinstance(T.code, CNeutral):
            return VNeutral(T, ne)
        return reflect(mt, dec_unfold(mt, T.code), ne.push(FrDecIso()))
    raise NbeError(f"cannot reflect at {type(T).__name__}")


def reify(mt: ModeTheory, d: int, mode: str, T: TypeValue, v: Value) -> Nf:
    c = T.__class__
    if c is TBool:
        cv = v.__class__
        if cv is VTrue:
            return NfTrue()
        if cv is VFalse:
            return NfFalse()
        if cv is VBoolNeutral:
            return NfInj(reify_ne(mt, d, mode, v.ne))
        raise NbeError(f"not a boolean value: {type(v).__name__}")
    if c is TPi:
        mod = T.mod
        fresh = reflect(mt, T.dom, NeAbs(d, id_cell(mod)))
        body = do_app(mt, v, fresh)
        return NfLam(mod, reify(mt, d + 1, mode, inst_ty(mt, T.cod, fresh), body))
    if c is TSig:
        a = do_proj(mt, 1, v)
        b = do_proj(mt, 2, v)
        return NfPair(
            reify(mt, d, mode, T.fst, a),
            reify(mt, d, mode, inst_ty(mt, T.snd, a), b),
        )
    if c is TMod:
        if v.__class__ is VMod:
            p = v.payload
            if p.__class__ is ModBoxed:
                mod = T.mod
                return NfMkBox(mod, reify(mt, d, mod.mode_src, T.inner, p.val))
            if p.__class__ is ModNeutral:
                return NfInj(reify_ne(mt, d, mode, p.ne))
        raise NbeError(f"not a modal value: {type(v).__name__}")
    if c is TUni:
        return _reify_code(mt, d, mode, code_of(v))
    if c is TDec:
        code = T.code
        if isinstance(code, CNeutral):
            if v.__class__ is VNeutral:
                return NfInj(reify_ne(mt, d, mode, v.ne))
            raise NbeError(f"canonical value at a neutral code: {type(v).__name__}")
        return NfDecIsoStar(reify(mt, d, mode, dec_unfold(mt, code), v))
    raise NbeError(f"cannot reify at {type(T).__name__}")


def _reify_code(mt: ModeTheory, d: int, mode: str, c: CodeValue) -> Nf:
    match c:
        case CPi(mod, dom, cod):
            fresh = reflect(mt, TDec(dom), NeAbs(d, id_cell(mod)))
            return NfFnCode(
                mod,
                reify(mt, d, mod.mode_src, UNI, code_value(dom)),
                reify(mt, d + 1, mode, UNI, instantiate(mt, cod, fresh)),
            )
        case CSig(fst, snd):
            fresh = reflect(mt, TDec(fst), NeAbs(d, id_cell(id_mod(mode))))
            return NfProdCode(
                reify(mt, d, mode, UNI, code_value(fst)),
                reify(mt, d + 1, mode, UNI, instantiate(mt, snd, fresh)),
            )
        case CBool():
            return NfBoolCode()
        case CMod(mod, code):
            return NfModifyCode(mod, reify(mt, d, mod.mode_src, UNI, code_value(code)))
        case CNeutral(ne):
            return NfInj(reify_ne(mt, d, mode, ne))
    raise NbeError(f"cannot reify code {type(c).__name__}")


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
                branch_ty = inst_ty(mt, motive, VMod(ModBoxed(arg_fresh)))
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
        mod, dom = T.mod, T.dom
        fresh = reflect(mt, dom, NeAbs(d, id_cell(mod)))
        return NfFn(
            mod,
            reify_ty(mt, d, mod.mode_src, dom),
            reify_ty(mt, d + 1, mode, inst_ty(mt, T.cod, fresh)),
        )
    if c is TSig:
        fst = T.fst
        fresh = reflect(mt, fst, NeAbs(d, id_cell(id_mod(mode))))
        return NfProd(
            reify_ty(mt, d, mode, fst),
            reify_ty(mt, d + 1, mode, inst_ty(mt, T.snd, fresh)),
        )
    if c is TUni:
        return NfUni()
    if c is TMod:
        mod = T.mod
        return NfModify(mod, reify_ty(mt, d, mod.mode_src, T.inner))
    if c is TDec:
        return NfDec(reify(mt, d, mode, UNI, code_value(T.code)))
    raise NbeError(f"cannot reify type {type(T).__name__}")


# ---------------------------------------------------------------------------
# Entry points


def atoms_env(mt: ModeTheory, tele: Telescope, sig: Signature = NO_DEFS) -> Env:
    """The initial environment: each variable entry reflected at its own type
    with an identity cell at its level."""
    vals: list[Value] = []
    level = 0
    for e in tele.entries:
        if isinstance(e, S.EVar):
            tyv = eval_ty(mt, Env(tuple(vals), sig), e.ty)
            vals.append(reflect(mt, tyv, NeAbs(level, id_cell(e.mod))))
            level += 1
    return Env(tuple(vals), sig)


def normalize(
    mt: ModeTheory, tele: Telescope, ty: Term, tm: Term, sig: Signature = NO_DEFS
) -> Nf:
    env = atoms_env(mt, tele, sig)
    return reify(
        mt, tele_depth(tele), tele.mode, eval_ty(mt, env, ty), eval_tm(mt, env, tm)
    )


def normalize_ty(
    mt: ModeTheory, tele: Telescope, ty: Term, sig: Signature = NO_DEFS
) -> NfTy:
    env = atoms_env(mt, tele, sig)
    return reify_ty(mt, tele_depth(tele), tele.mode, eval_ty(mt, env, ty))
