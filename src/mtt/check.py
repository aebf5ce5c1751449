"""Bidirectional type checking, with conversion decided on values.

The context (``CheckCtx``) keeps what checking a variable needs: its type
as a value, its annotation, the locks in front of it and its atom.  It keeps
no syntax, so a binder extends it with the type value it already has.  A
lock or extension whose modality lands in the wrong mode is a ``CheckError``.

Inference and checking follow the usual bidirectional split: eliminations
and annotated introductions infer, unannotated introductions (lambdas,
pairs, the inverse decoding coercion) only check.  Conversion is decided on
values by ``conv.conv_ty``/``conv.conv``: type-directed, with eta for
functions, pairs and boxes, every modality and 2-cell question delegated to
the mode theory's decider, and no normal form built.  Two occurrences of
one definition share one value and so compare without unfolding it.  Types
are read back only to be printed: in diagnostics, and in a declaration's
result when first asked for.

Accessing a variable demands an explicit 2-cell from its annotation to the
composite of the locks in front of it; no search is performed.  When that
cell is not an identity, the variable's stored type is transported along
it: read back in the entry's own prefix, renamed along the key alone, and
evaluated over the prefix's atoms.  Nothing has to move it past the
entries after the variable, because values carry absolute levels, so a
type valid in a prefix is valid at the use site as it stands.  (A key
acting on type values directly would have to reach inside their closures,
whiskered by the locks crossed there, which evaluation does not track.)

Diagnostics print types with ``normal.surface_nfty``, the printer of
``mtt normalize``, so a type quoted in an error message parses again.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable

from .record import field, record
from .modeth import (
    Cell2,
    CellId,
    ModeError,
    ModeTheory,
    Modality,
    Word,
    cell_check,
    compose_mod,
    eq_mod,
    id_cell,
    id_mod,
    is_id_cell,
)
from . import syntax as S
from .syntax import Telescope, Term
from .normal import (
    Nf,
    NfTy,
    NormalError,
    RenKey,
    decode_nfty,
    rename_nfty,
    surface_nfty,
)
from .conv import conv, conv_ty
from .nbe import (
    NO_DEFS,
    Body,
    CNeutral,
    Closure,
    Definition,
    Env,
    ModBoxed,
    NbeError,
    NeAbs,
    Signature,
    TBool,
    TDec,
    TMod,
    TPi,
    TSig,
    TUni,
    Thunk,
    TypeValue,
    VFalse,
    VMod,
    VTrue,
    Value,
    code_of,
    dec_unfold,
    do_proj,
    env_push,
    eval_tm,
    eval_ty,
    inst_ty,
    reflect,
    reify,
    reify_ty,
)


class CheckError(Exception):
    pass


@record
class CheckCtx:
    """The ambient ``mode`` and, per variable by level (oldest first), its
    atom in ``env``, its type value in ``types``, and in ``slots`` its
    annotation and the length of ``locks`` when it was pushed.  ``locks``
    is every lock pushed so far as one word, newest first, so the locks
    after a variable compose to a prefix of it."""

    mt: ModeTheory
    mode: str
    env: Env
    types: tuple[TypeValue, ...] = ()
    slots: tuple[tuple[Modality, int], ...] = ()
    locks: Word = ()

    @property
    def depth(self) -> int:
        return len(self.types)

    def locate(self, k: int) -> "tuple[Modality, Modality]":
        """Variable k's annotation and the composite of the locks after it
        (``normal.locks_of``), read off by level."""
        level = len(self.types) - 1 - k
        if not 0 <= level < len(self.types):
            raise CheckError(f"unbound variable index {k}")
        ann, seen = self.slots[level]
        return ann, Modality(self.mode, ann.mode_tgt, self.locks[: len(self.locks) - seen])


def empty_ctx(mt: ModeTheory, mode: str, sig: Signature = NO_DEFS) -> CheckCtx:
    if mode not in mt.modes:
        raise CheckError(f"unknown mode {mode!r} in mode theory {mt.name!r}")
    return CheckCtx(mt, mode, Env((), sig))


def ctx_lock(ctx: CheckCtx, mu: Modality) -> CheckCtx:
    """Push a lock.  mu : n -> m moves the ambient mode from m to n."""
    if mu.mode_tgt != ctx.mode:
        raise CheckError(f"lock {mu} targets {mu.mode_tgt}, telescope is at {ctx.mode}")
    return CheckCtx(ctx.mt, mu.mode_src, ctx.env, ctx.types, ctx.slots, mu.word + ctx.locks)


def ctx_extend(ctx: CheckCtx, mu: Modality, tyv: TypeValue) -> CheckCtx:
    """Push a variable annotated mu whose type ``tyv`` lives behind a mu-lock."""
    if mu.mode_tgt != ctx.mode:
        raise CheckError(f"annotation {mu} targets {mu.mode_tgt}, telescope is at {ctx.mode}")
    env = env_push(ctx.env, reflect(ctx.mt, tyv, NeAbs(ctx.depth, id_cell(mu))))
    slots = ctx.slots + ((mu, len(ctx.locks)),)
    return CheckCtx(ctx.mt, ctx.mode, env, ctx.types + (tyv,), slots, ctx.locks)


# ---------------------------------------------------------------------------
# Variables


def lookup_var(ctx: CheckCtx, k: int, alpha: Cell2) -> TypeValue:
    ann, nu = ctx.locate(k)
    if not cell_check(ctx.mt, alpha):
        raise CheckError(f"ill-formed 2-cell {alpha} on variable {k}")
    if not (eq_mod(ctx.mt, alpha.src, ann) and eq_mod(ctx.mt, alpha.tgt, nu)):
        raise CheckError(
            f"variable not accessible: no 2-cell {ann} => {nu} declared "
            f"(variable {k} carries {alpha.src} => {alpha.tgt})"
        )
    level = ctx.depth - 1 - k  # also the depth of the entry's prefix
    stored = ctx.types[level]
    if isinstance(alpha.expr, CellId) or is_id_cell(ctx.mt, alpha):
        return stored
    # Transport along the key: read back in the entry's prefix, rename
    # along the key, and evaluate over the prefix's atoms.  At each prefix
    # variable the key is whiskered by the locks between it and the entry.
    n, lead = len(ctx.locks), len(nu.word)
    crossed = tuple(
        Modality(ann.mode_tgt, a.mode_tgt, ctx.locks[lead : n - seen])
        for a, seen in reversed(ctx.slots[:level])
    )
    nf = reify_ty(ctx.mt, level, ann.mode_src, stored)
    moved = rename_nfty(ctx.mt, RenKey(alpha, crossed), nf, ann.mode_src)
    return eval_ty(ctx.mt, Env(ctx.env.vals[:level], ctx.env.sig), decode_nfty(moved))


# ---------------------------------------------------------------------------
# Conversion


def convert_ty(ctx: CheckCtx, a: TypeValue, b: TypeValue) -> bool:
    return conv_ty(ctx.mt, ctx.depth, ctx.mode, a, b)


def convert_tm(ctx: CheckCtx, ty: TypeValue, v: Value, w: Value) -> bool:
    return conv(ctx.mt, ctx.depth, ctx.mode, ty, v, w)


def _show_ty(ctx: CheckCtx, ty: TypeValue) -> str:
    """``ty`` in the surface syntax of ``mtt normalize``, so it re-parses."""
    nf = reify_ty(ctx.mt, ctx.depth, ctx.mode, ty)
    return surface_nfty(ctx.mt, nf, ctx.mode, ctx.depth)


def _require_mode(ctx: CheckCtx, mod: Modality, role: str) -> None:
    if mod.mode_tgt != ctx.mode:
        raise CheckError(
            f"mode mismatch: {role} modality {mod} lands in mode "
            f"{mod.mode_tgt}, but the ambient mode is {ctx.mode}"
        )


# ---------------------------------------------------------------------------
# Types


def check_type(ctx: CheckCtx, t: Term) -> TypeValue:
    """Check that ``t`` is a type and return its value, built from the
    values of its checked parts (``eval_ty`` would give the same)."""
    match t:
        case S.Bool():
            return TBool()
        case S.Uni():
            return TUni()
        case S.Pi(mod, dom, cod):
            _require_mode(ctx, mod, "function domain")
            domv = check_type(ctx_lock(ctx, mod), dom)
            check_type(ctx_extend(ctx, mod, domv), cod)
            return TPi(mod, domv, Closure(ctx.env, cod))
        case S.Sig(fst, snd):
            fstv = check_type(ctx, fst)
            check_type(ctx_extend(ctx, id_mod(ctx.mode), fstv), snd)
            return TSig(fstv, Closure(ctx.env, snd))
        case S.Mod(mod, inner):
            _require_mode(ctx, mod, "modal type")
            return TMod(mod, check_type(ctx_lock(ctx, mod), inner))
        case S.Dec(code):
            check_tm(ctx, code, TUni())
            return TDec(code_of(eval_tm(ctx.mt, ctx.env, code)))
    raise CheckError(f"not a type: {S.show_term(t)}")


# ---------------------------------------------------------------------------
# Terms


def infer(ctx: CheckCtx, t: Term) -> TypeValue:
    mt = ctx.mt
    match t:
        case S.Var(k, cell):
            return lookup_var(ctx, k, cell)
        case S.Const(name):
            defn = ctx.env.sig.get(name)
            if defn is None:
                raise CheckError(f"definition {name!r} is undefined or failed to check")
            if defn.mode != ctx.mode:
                raise CheckError(
                    f"definition {name!r} lives at mode {defn.mode}, used at mode {ctx.mode}"
                )
            return defn.ty
        case S.App(fn, arg):
            tf = infer(ctx, fn)
            if not isinstance(tf, TPi):
                raise CheckError(f"application of a non-function: {_show_ty(ctx, tf)}")
            check_tm(ctx_lock(ctx, tf.mod), arg, tf.dom)
            return inst_ty(mt, tf.cod, Thunk(partial(eval_tm, mt, ctx.env, arg)))
        case S.Proj1(p):
            tp = infer(ctx, p)
            if not isinstance(tp, TSig):
                raise CheckError(f"projection from a non-pair: {_show_ty(ctx, tp)}")
            return tp.fst
        case S.Proj2(p):
            tp = infer(ctx, p)
            if not isinstance(tp, TSig):
                raise CheckError(f"projection from a non-pair: {_show_ty(ctx, tp)}")
            return inst_ty(mt, tp.snd, do_proj(mt, 1, eval_tm(mt, ctx.env, p)))
        case S.True_() | S.False_():
            return TBool()
        case S.If(motive, tcase, fcase, scrut):
            check_tm(ctx, scrut, TBool())
            check_type(ctx_extend(ctx, id_mod(ctx.mode), TBool()), motive)
            mot = Closure(ctx.env, motive)
            check_tm(ctx, tcase, inst_ty(mt, mot, VTrue()))
            check_tm(ctx, fcase, inst_ty(mt, mot, VFalse()))
            return inst_ty(mt, mot, eval_tm(mt, ctx.env, scrut))
        case S.MkBox(mod, body):
            _require_mode(ctx, mod, "box")
            return TMod(mod, infer(ctx_lock(ctx, mod), body))
        case S.LetMod(mu, nu, motive, scrut, branch):
            _require_mode(ctx, mu, "modal elimination")
            if nu.mode_tgt != mu.mode_src:
                raise CheckError(
                    f"mode mismatch: eliminated modality {nu} lands in mode "
                    f"{nu.mode_tgt}, but the lock opens mode {mu.mode_src}"
                )
            ts = infer(ctx_lock(ctx, mu), scrut)
            if not isinstance(ts, TMod) or not eq_mod(mt, ts.mod, nu):
                raise CheckError(
                    f"modal scrutinee mismatch: expected a value of Mod {nu}, "
                    f"got {_show_ty(ctx_lock(ctx, mu), ts)}"
                )
            check_type(ctx_extend(ctx, mu, TMod(nu, ts.inner)), motive)
            mot = Closure(ctx.env, motive)
            ext = ctx_extend(ctx, compose_mod(mu, nu), ts.inner)
            check_tm(ext, branch, inst_ty(mt, mot, VMod(ModBoxed(ext.env.vals[-1]))))
            return inst_ty(mt, mot, eval_tm(mt, ctx.env, scrut))
        case S.DecIso(body):
            tb = infer(ctx, body)
            if not isinstance(tb, TDec):
                raise CheckError(
                    f"decoding coercion applied at a non-decoded type: {_show_ty(ctx, tb)}"
                )
            if isinstance(tb.code, CNeutral):
                raise CheckError("cannot unfold a neutral code")
            return dec_unfold(mt, tb.code)
        case S.PiCode(mod, dom, cod):
            _require_mode(ctx, mod, "function-code domain")
            check_tm(ctx_lock(ctx, mod), dom, TUni())
            dom_code = code_of(eval_tm(mt, ctx.env, dom))
            check_tm(ctx_extend(ctx, mod, TDec(dom_code)), cod, TUni())
            return TUni()
        case S.SigCode(fst, snd):
            check_tm(ctx, fst, TUni())
            fst_code = code_of(eval_tm(mt, ctx.env, fst))
            check_tm(ctx_extend(ctx, id_mod(ctx.mode), TDec(fst_code)), snd, TUni())
            return TUni()
        case S.BoolCode():
            return TUni()
        case S.ModCode(mod, code):
            _require_mode(ctx, mod, "modal code")
            check_tm(ctx_lock(ctx, mod), code, TUni())
            return TUni()
        case S.Lam(_) | S.Pair(_, _) | S.DecIsoInv(_):
            raise CheckError(
                f"cannot infer a type for {type(t).__name__}: "
                "it must appear in a checking position"
            )
        case S.Pi(_, _, _) | S.Sig(_, _) | S.Bool() | S.Uni() | S.Mod(_, _) | S.Dec(_):
            raise CheckError(
                "type formers are not terms; the universe contains codes only"
            )
    raise CheckError(f"cannot infer {type(t).__name__}")


def check_tm(ctx: CheckCtx, t: Term, ty: TypeValue) -> None:
    mt = ctx.mt
    match t, ty:
        case S.Lam(body), TPi(mod, dom, cod):
            ext = ctx_extend(ctx, mod, dom)
            check_tm(ext, body, inst_ty(mt, cod, ext.env.vals[-1]))
        case S.Lam(_), _:
            raise CheckError(f"function literal at non-function type {_show_ty(ctx, ty)}")
        case S.Pair(a, b), TSig(fst, snd):
            check_tm(ctx, a, fst)
            check_tm(ctx, b, inst_ty(mt, snd, eval_tm(mt, ctx.env, a)))
        case S.Pair(_, _), _:
            raise CheckError(f"pair literal at non-pair type {_show_ty(ctx, ty)}")
        case S.MkBox(mod, body), TMod(tmod, inner):
            if not eq_mod(mt, mod, tmod):
                raise CheckError(
                    f"modality mismatch: box {mod} at modal type Mod {tmod}"
                )
            check_tm(ctx_lock(ctx, mod), body, inner)
        case S.MkBox(_, _), _:
            raise CheckError(f"boxed term at non-modal type {_show_ty(ctx, ty)}")
        case S.DecIsoInv(body), TDec(code):
            if isinstance(code, CNeutral):
                raise CheckError("cannot unfold a neutral code")
            check_tm(ctx, body, dec_unfold(mt, code))
        case S.DecIsoInv(_), _:
            raise CheckError(
                f"inverse decoding coercion at a non-decoded type {_show_ty(ctx, ty)}"
            )
        case _:
            actual = infer(ctx, t)
            if not convert_ty(ctx, actual, ty):
                raise CheckError(
                    f"type mismatch: expected {_show_ty(ctx, ty)}, "
                    f"actual {_show_ty(ctx, actual)}"
                )


# ---------------------------------------------------------------------------
# Programs


TOO_DEEP = "nested too deeply"


def internal_error(e: Exception) -> str:
    """The diagnostic for an exception none of the kernel's error classes
    covers: a fault of the kernel, not of the program it checks."""
    return f"internal error: {type(e).__name__}: {e}"


@record
class DeclResult:
    """One declaration's verdict.  ``fatal`` marks an error of the kernel
    rather than of the program (the interpreter's stack ran out, or an
    internal error).  The normal forms are read back on first use only."""

    name: str
    mode: str
    ok: bool
    reify_ty: "Callable[[], NfTy] | None" = field(default=None, repr=False, compare=False)
    error: "str | None" = None
    fatal: bool = False
    reify_body: "Callable[[], Nf] | None" = field(default=None, repr=False, compare=False)

    @cached_property
    def ty_nf(self) -> "NfTy | None":
        return None if self.reify_ty is None else self.reify_ty()

    @cached_property
    def body_nf(self) -> "Nf | None":
        return None if self.reify_body is None else self.reify_body()


@record
class Report:
    results: tuple[DeclResult, ...]
    signature: Signature = field(repr=False)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _reify_body(mt: ModeTheory, mode: str, tyv: TypeValue, val: Body) -> Nf:
    return reify(mt, 0, mode, tyv, val.force())


def check_program(mt: ModeTheory, decls) -> Report:
    """Check a sequence of (name, mode, type, body) declarations.

    Declarations have no free variables; they refer to earlier ones by
    ``Const`` name.  Each declaration that checks is added to the signature
    once, with its type value and its body as a ``Body``, so a reference
    costs a lookup and never re-checks the body, and a body is evaluated
    only when something unfolds it.  A failing declaration does not stop the
    rest, but it stays out of the signature, so any later reference to it
    fails too.  Each result carries either normal forms or an error
    message; the normal forms are read back only when first asked for, so
    checking never reads a type back in full.  A declaration that exhausts
    the interpreter's stack, or raises an exception that is none of the
    kernel's error classes, fails with ``fatal`` set instead of ending the
    program.

    The signature is one dict that every declaration's environment shares
    and that grows as declarations check: a declaration names only earlier
    ones, so what it sees never changes under it, and a name that is
    already defined is an error rather than a redefinition.
    """
    results: list[DeclResult] = []
    sig: dict[str, Definition] = {}
    for name, mode, ty, body in decls:
        try:
            if name in sig:
                raise CheckError(f"duplicate definition {name!r}")
            ctx = empty_ctx(mt, mode, sig)
            for part in (ty, body):
                if not S.scope_check(Telescope(mode), part):
                    raise CheckError(f"declaration {name!r} has an out-of-scope variable")
            tyv = check_type(ctx, ty)
            check_tm(ctx, body, tyv)
            val = Body(mt, ctx.env, body)
            results.append(
                DeclResult(
                    name,
                    mode,
                    True,
                    partial(reify_ty, mt, 0, mode, tyv),
                    reify_body=partial(_reify_body, mt, mode, tyv, val),
                )
            )
            sig[name] = Definition(mode, tyv, val)
        except (CheckError, NormalError, NbeError, ModeError) as e:
            results.append(DeclResult(name, mode, False, error=str(e)))
        except RecursionError:
            results.append(DeclResult(name, mode, False, error=TOO_DEEP, fatal=True))
        except Exception as e:
            results.append(DeclResult(name, mode, False, error=internal_error(e), fatal=True))
    return Report(tuple(results), sig)
