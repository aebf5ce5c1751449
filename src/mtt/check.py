"""Bidirectional type checking, with conversion decided on values.

The context (``CheckCtx``), the kernel's one context record, keeps what
checking a variable needs: its type as a value, its annotation, the locks
in front of it and its atom; ``normal.depth``, ``tele_entry`` and
``locks_of`` read it by level.  It keeps no syntax, so a binder extends it
with the type value it already has.  A lock or extension whose modality
lands in the wrong mode is a ``CheckError``.

Inference and checking follow the usual bidirectional split: eliminations
and annotated introductions infer, unannotated introductions (lambdas,
pairs, the inverse decoding coercion) only check.  A curried telescope is
taken whole rather than one node at a time: ``infer`` walks an application
spine down to its head, infers the head once and checks each argument, left
to right, against the next ``Pi`` domain; ``check_tm`` opens a run of
lambdas against a run of ``Pi`` types, reflecting each binder's variable at
its level, and extends the context once for the whole run (``ctx_extend``
with ``run``), so a k-binder run copies the context's tuples once, not k
times.  A lambda must meet a ``Pi`` whose modality equals its binder's, the
identity for a bare ``\\x``; only a lambda built through the API without
one meets any ``Pi``.  Diagnostics are those of one node at a time.
Conversion is decided on values by ``conv.conv_ty``/``conv.conv``:
type-directed, with eta for functions, pairs and boxes, every modality and
2-cell question delegated to the mode theory's decider, and no normal form
built.  Two occurrences of one definition share one value and so compare
without unfolding it.  Types are read back only to be printed: in
diagnostics, and in a declaration's result when first asked for.  A ``Pi``
or ``Sig`` marked non-dependent keeps the value its codomain was checked
to, so applying, projecting or pairing at it neither evaluates the argument
nor instantiates anything.

Accessing a variable demands an explicit 2-cell from its annotation to the
composite of the locks in front of it; no search is performed.  The parser
built the cell's layers and checked their boundaries; ``lookup_var`` checks
again that the cell's stored boundary is the one its layers give, one word
comparison per layer, because a cell built by hand can misstate it.  When
the cell is not an identity (a cell with no layers is one), the variable's
stored type is transported along it: read back in the entry's own prefix,
renamed along the key alone, and evaluated over the prefix's atoms.
Nothing has to move it past the entries after the variable, because values
carry absolute levels, so a type valid in a prefix is valid at the use
site as it stands.  (A key acting on type values directly would have to
reach inside their closures, whiskered by the locks crossed there, which
evaluation does not track.)

Diagnostics print types with ``normal.surface_nfty``, the printer of
``mtt normalize``, and a term that is not a type with ``syntax.show_term``
at the context's depth; both print through ``show_term``, and modalities
and keys through ``str``, so what an error message quotes parses again.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable

from .record import field, record
from .modeth import (
    Cell2,
    ModeError,
    ModeTheory,
    Modality,
    Undecided,
    Word,
    cell_check,
    compose_mod,
    eq_mod,
    id_cell,
    id_mod,
    is_id_cell,
)
from . import syntax as S
from .syntax import Term
from .normal import (
    Nf,
    NfTy,
    NormalError,
    RenKey,
    decode_nfty,
    depth,
    locks_of,
    rename_nfty,
    surface_nfty,
    tele_entry,
)
from .conv import conv, conv_ty
from .nbe import (
    BOOL,
    NO_DEFS,
    UNBOUND,
    UNI,
    Body,
    Closure,
    Definition,
    Env,
    NbeError,
    NeAbs,
    Signature,
    TDec,
    TMod,
    TPi,
    TSig,
    Thunk,
    TypeValue,
    VBox,
    VFalse,
    VNeutral,
    VTrue,
    Value,
    dec_unfold,
    do_proj,
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
    after a variable compose to a prefix of it.  ``normal.depth``,
    ``tele_entry`` and ``locks_of`` read it by level.  ``named`` gathers
    the definitions that ``infer`` meets by ``Const``; every context grown
    from one ``empty_ctx`` shares it."""

    mt: ModeTheory
    mode: str
    env: Env
    named: "dict[str, Definition]"
    types: tuple[TypeValue, ...] = ()
    slots: tuple[tuple[Modality, int], ...] = ()
    locks: Word = ()


def empty_ctx(mt: ModeTheory, mode: str, sig: Signature = NO_DEFS) -> CheckCtx:
    if mode not in mt.modes:
        raise CheckError(f"unknown mode {mode!r} in mode theory {mt.name!r}")
    return CheckCtx(mt, mode, Env((), sig), {})


def ctx_lock(ctx: CheckCtx, mu: Modality) -> CheckCtx:
    """Push a lock.  mu : n -> m moves the ambient mode from m to n; an
    identity lock leaves ``ctx`` as it is."""
    if mu.mode_tgt != ctx.mode:
        raise CheckError(f"lock {mu} targets {mu.mode_tgt}, telescope is at {ctx.mode}")
    if not mu.word and mu.mode_src == ctx.mode:
        return ctx
    return CheckCtx(
        ctx.mt, mu.mode_src, ctx.env, ctx.named, ctx.types, ctx.slots, mu.word + ctx.locks
    )


def ctx_extend(
    ctx: CheckCtx,
    mu: "Modality | None" = None,
    tyv: "TypeValue | None" = None,
    dependent: bool = True,
    run: "tuple[tuple[Modality, TypeValue, Value], ...]" = (),
) -> CheckCtx:
    """Push a variable annotated mu whose type ``tyv`` lives behind a mu-lock.
    When not ``dependent``, nothing checked in the extended context may
    evaluate the variable: its atom is ``nbe.UNBOUND``, which raises.

    With ``run`` (and ``mu``/``tyv`` unused) it pushes instead a run of
    variables, oldest first, each an (annotation, type value, atom) triple
    whose atom the caller reflected at its level: one copy of the context's
    tuples for the whole run, however long."""
    mt, mode, env, types, locks = ctx.mt, ctx.mode, ctx.env, ctx.types, ctx.locks
    mods, tys, atoms = zip(*run) if run else ((mu,), (tyv,), ())
    for m in mods:
        if m.mode_tgt != mode:
            raise CheckError(f"annotation {m} targets {m.mode_tgt}, telescope is at {mode}")
    if not run:
        fresh = reflect(mt, tyv, NeAbs(len(types), id_cell(mu))) if dependent else UNBOUND
        return CheckCtx(
            mt, mode, Env(env.vals + (fresh,), env.sig), ctx.named, types + tys,
            ctx.slots + ((mu, len(locks)),), locks,
        )
    seen = len(locks)
    return CheckCtx(
        mt, mode, Env(env.vals + atoms, env.sig), ctx.named, types + tys,
        ctx.slots + tuple([(m, seen) for m in mods]), locks,
    )


# ---------------------------------------------------------------------------
# Variables


def lookup_var(ctx: CheckCtx, k: int, alpha: Cell2) -> TypeValue:
    n = depth(ctx)
    if not 0 <= k < n:
        raise CheckError(f"unbound variable index {k}")
    ann, stored = tele_entry(ctx, k)
    nu = locks_of(ctx, k)
    if not cell_check(ctx.mt, alpha):
        raise CheckError(f"ill-formed 2-cell {alpha} on variable {k}")
    if not (eq_mod(ctx.mt, alpha.src, ann) and eq_mod(ctx.mt, alpha.tgt, nu)):
        raise CheckError(
            f"variable not accessible: no 2-cell {ann} => {nu} declared "
            f"(variable {k} carries {alpha.src} => {alpha.tgt})"
        )
    if not alpha.layers or is_id_cell(ctx.mt, alpha):
        return stored
    # Transport along the key: read back in the entry's prefix, rename
    # along the key, and evaluate over the prefix's atoms.  At each prefix
    # variable the key is whiskered by the locks between it and the entry.
    level = n - 1 - k  # also the depth of the entry's prefix
    locks, lead = ctx.locks, len(nu.word)
    crossed = tuple(
        Modality(ann.mode_tgt, a.mode_tgt, locks[lead : len(locks) - seen])
        for a, seen in reversed(ctx.slots[:level])
    )
    nf = reify_ty(ctx.mt, level, ann.mode_src, stored)
    moved = rename_nfty(ctx.mt, RenKey(alpha, crossed), nf)
    return eval_ty(ctx.mt, Env(ctx.env.vals[:level], ctx.env.sig), decode_nfty(moved))


# ---------------------------------------------------------------------------
# Conversion


def convert_ty(ctx: CheckCtx, a: TypeValue, b: TypeValue) -> bool:
    return conv_ty(ctx.mt, depth(ctx), ctx.mode, a, b)


def convert_tm(ctx: CheckCtx, ty: TypeValue, v: Value, w: Value) -> bool:
    return conv(ctx.mt, depth(ctx), ctx.mode, ty, v, w)


def _show_ty(ctx: CheckCtx, ty: TypeValue) -> str:
    """``ty`` in the surface syntax of ``mtt normalize``, so it re-parses."""
    d = depth(ctx)
    return surface_nfty(ctx.mt, reify_ty(ctx.mt, d, ctx.mode, ty), d)


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
    values of its checked parts (``eval_ty`` would give the same): a
    non-dependent codomain is checked under ``nbe.UNBOUND`` and its value
    kept, any other becomes a ``Closure``."""
    c = t.__class__
    if c is S.Pi:
        mod, dependent = t.mod, t.dependent
        _require_mode(ctx, mod, "function domain")
        domv = check_type(ctx_lock(ctx, mod), t.dom)
        codv = check_type(ctx_extend(ctx, mod, domv, dependent), t.cod)
        return TPi(mod, domv, Closure(ctx.env, t.cod) if dependent else codv)
    if c is S.Bool:
        return BOOL
    if c is S.Sig:
        dependent = t.dependent
        fstv = check_type(ctx, t.fst)
        sndv = check_type(ctx_extend(ctx, id_mod(ctx.mode), fstv, dependent), t.snd)
        return TSig(fstv, Closure(ctx.env, t.snd) if dependent else sndv)
    if c is S.Mod:
        mod = t.mod
        _require_mode(ctx, mod, "modal type")
        return TMod(mod, check_type(ctx_lock(ctx, mod), t.ty))
    if c is S.Uni:
        return UNI
    if c is S.Dec:
        check_tm(ctx, t.code, UNI)
        return TDec(eval_tm(ctx.mt, ctx.env, t.code))
    raise CheckError(f"not a type: {S.show_term(t, depth(ctx))}")


# ---------------------------------------------------------------------------
# Terms


def infer(ctx: CheckCtx, t: Term) -> TypeValue:
    c = t.__class__
    if c is S.Var:
        return lookup_var(ctx, t.idx, t.cell)
    mt = ctx.mt
    if c is S.App:
        args = []
        while c is S.App:
            args.append(t.arg)
            t = t.fn
            c = t.__class__
        tf = infer(ctx, t)
        for arg in reversed(args):
            if tf.__class__ is not TPi:
                raise CheckError(f"application of a non-function: {_show_ty(ctx, tf)}")
            cod = tf.cod
            check_tm(ctx_lock(ctx, tf.mod), arg, tf.dom)
            if not isinstance(cod, TypeValue):
                cod = inst_ty(mt, cod, Thunk(partial(eval_tm, mt, ctx.env, arg)))
            tf = cod
        return tf
    if c is S.Const:
        name = t.name
        defn = ctx.env.sig.get(name)
        if defn is None:
            raise CheckError(f"definition {name!r} is undefined or failed to check")
        if defn.mode != ctx.mode:
            raise CheckError(
                f"definition {name!r} lives at mode {defn.mode}, used at mode {ctx.mode}"
            )
        ctx.named[name] = defn
        return defn.ty
    if c is S.True_ or c is S.False_:
        return BOOL
    if c is S.Proj1:
        tp = infer(ctx, t.pair)
        if not isinstance(tp, TSig):
            raise CheckError(f"projection from a non-pair: {_show_ty(ctx, tp)}")
        return tp.fst
    if c is S.Proj2:
        p = t.pair
        tp = infer(ctx, p)
        if not isinstance(tp, TSig):
            raise CheckError(f"projection from a non-pair: {_show_ty(ctx, tp)}")
        snd = tp.snd
        if isinstance(snd, TypeValue):
            return snd
        return inst_ty(mt, snd, do_proj(mt, 1, eval_tm(mt, ctx.env, p)))
    if c is S.If:
        scrut = t.scrut
        check_tm(ctx, scrut, BOOL)
        check_type(ctx_extend(ctx, id_mod(ctx.mode), BOOL), t.motive)
        mot = Closure(ctx.env, t.motive)
        check_tm(ctx, t.tcase, inst_ty(mt, mot, VTrue()))
        check_tm(ctx, t.fcase, inst_ty(mt, mot, VFalse()))
        return inst_ty(mt, mot, eval_tm(mt, ctx.env, scrut))
    if c is S.MkBox:
        mod = t.mod
        _require_mode(ctx, mod, "box")
        return TMod(mod, infer(ctx_lock(ctx, mod), t.body))
    if c is S.LetMod:
        mu, nu, scrut = t.mu, t.nu, t.scrut
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
        check_type(ctx_extend(ctx, mu, TMod(nu, ts.inner)), t.motive)
        mot = Closure(ctx.env, t.motive)
        ext = ctx_extend(ctx, compose_mod(mu, nu), ts.inner)
        check_tm(ext, t.branch, inst_ty(mt, mot, VBox(ext.env.vals[-1])))
        return inst_ty(mt, mot, eval_tm(mt, ctx.env, scrut))
    if c is S.DecIso:
        tb = infer(ctx, t.body)
        if not isinstance(tb, TDec):
            raise CheckError(
                f"decoding coercion applied at a non-decoded type: {_show_ty(ctx, tb)}"
            )
        if tb.code.__class__ is VNeutral:
            raise CheckError("cannot unfold a neutral code")
        return dec_unfold(mt, tb.code)
    if c is S.PiCode:
        mod, dom = t.mod, t.dom
        _require_mode(ctx, mod, "function-code domain")
        check_tm(ctx_lock(ctx, mod), dom, UNI)
        check_tm(ctx_extend(ctx, mod, TDec(eval_tm(mt, ctx.env, dom))), t.cod, UNI)
        return UNI
    if c is S.SigCode:
        fst = t.fst
        check_tm(ctx, fst, UNI)
        check_tm(ctx_extend(ctx, id_mod(ctx.mode), TDec(eval_tm(mt, ctx.env, fst))), t.snd, UNI)
        return UNI
    if c is S.BoolCode:
        return UNI
    if c is S.ModCode:
        mod = t.mod
        _require_mode(ctx, mod, "modal code")
        check_tm(ctx_lock(ctx, mod), t.code, UNI)
        return UNI
    match t:
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
    c = t.__class__
    if c is S.Lam:
        mt, d, run = ctx.mt, depth(ctx), []
        while c is S.Lam:
            if ty.__class__ is not TPi:
                shown = ctx_extend(ctx, run=tuple(run)) if run else ctx
                raise CheckError(f"function literal at non-function type {_show_ty(shown, ty)}")
            mod, dom, written = ty.mod, ty.dom, t.mod
            if written is not None and not eq_mod(mt, written, mod):
                raise CheckError(
                    f"modality mismatch: lambda binder annotated {written} "
                    f"at a function type annotated {mod}"
                )
            fresh = reflect(mt, dom, NeAbs(d + len(run), id_cell(mod)))
            run.append((mod, dom, fresh))
            ty = inst_ty(mt, ty.cod, fresh)
            t = t.body
            c = t.__class__
        check_tm(ctx_extend(ctx, run=tuple(run)), t, ty)
    elif c is S.Pair:
        if ty.__class__ is not TSig:
            raise CheckError(f"pair literal at non-pair type {_show_ty(ctx, ty)}")
        a, snd = t.fst, ty.snd
        check_tm(ctx, a, ty.fst)
        if not isinstance(snd, TypeValue):
            snd = inst_ty(ctx.mt, snd, eval_tm(ctx.mt, ctx.env, a))
        check_tm(ctx, t.snd, snd)
    elif c is S.MkBox:
        if ty.__class__ is not TMod:
            raise CheckError(f"boxed term at non-modal type {_show_ty(ctx, ty)}")
        mod = t.mod
        if not eq_mod(ctx.mt, mod, ty.mod):
            raise CheckError(f"modality mismatch: box {mod} at modal type Mod {ty.mod}")
        check_tm(ctx_lock(ctx, mod), t.body, ty.inner)
    elif c is S.DecIsoInv:
        if ty.__class__ is not TDec:
            raise CheckError(
                f"inverse decoding coercion at a non-decoded type {_show_ty(ctx, ty)}"
            )
        if ty.code.__class__ is VNeutral:
            raise CheckError("cannot unfold a neutral code")
        check_tm(ctx, t.body, dec_unfold(ctx.mt, ty.code))
    else:
        actual = infer(ctx, t)
        if not convert_ty(ctx, actual, ty):
            raise CheckError(
                f"type mismatch: expected {_show_ty(ctx, ty)}, "
                f"actual {_show_ty(ctx, actual)}"
            )


# ---------------------------------------------------------------------------
# Programs


TOO_DEEP = "nested too deeply"
# What a program at fault raises while it is checked.
PROGRAM_ERRORS = (CheckError, NormalError, NbeError, ModeError)


def diagnose(e: Exception, program_errors: tuple = PROGRAM_ERRORS) -> "tuple[str, bool]":
    """The diagnostic for ``e``, raised on a declaration, and whether it is
    fatal, a failure of the kernel rather than of the program: the
    decider's refusal (``Undecided``, though a ``ModeError``), the
    interpreter's stack running out, or any exception that is not one of
    ``program_errors``."""
    if isinstance(e, Undecided):
        return str(e), True
    if isinstance(e, program_errors):
        return str(e), False
    if isinstance(e, RecursionError):
        return TOO_DEEP, True
    return f"internal error: {type(e).__name__}: {e}", True


@record
class DeclResult:
    """One declaration's verdict.  ``fatal`` marks an error of the kernel
    rather than of the program (the interpreter's stack ran out, the mode
    theory's decider refused a question, or an internal error).  The normal
    forms are read back on first use only."""

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
    the interpreter's stack, asks the decider a question it refuses, or
    raises an exception that is none of the kernel's error classes, fails
    with ``fatal`` set instead of ending the program.

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
            tyv = check_type(empty_ctx(mt, mode, sig), ty)
            ctx = empty_ctx(mt, mode, sig)
            check_tm(ctx, body, tyv)
            val = Body(mt, ctx.env, body, [d.val for d in ctx.named.values()])
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
        except Exception as e:
            error, fatal = diagnose(e)
            results.append(DeclResult(name, mode, False, error=error, fatal=fatal))
    return Report(tuple(results), sig)
