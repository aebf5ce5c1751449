"""Randomized well-typed term generation and kernel-independent oracles.

Three instruments for exercising the kernel:

- ``gen_typed_term`` builds random terms at a requested type, directed by
  the type's head and by which context variables are reachable through
  declared 2-cells.  Its output always passes the checker; when the target
  admits no term within the size budget it raises ``GenExhausted`` instead
  of guessing.  A generated ``Pi`` or ``Sig`` is marked non-dependent when
  its codomain does not mention its variable (``mentions``), while types
  read back from values keep the default, so fuzzing reaches both of the
  kernel's codomain paths.
- ``oracle_eval_bool`` evaluates closed boolean terms (functions, pairs,
  boolean elimination; one mode, no codes) by leftmost-outermost
  rewriting with explicit term-level substitution.  It shares nothing
  with the evaluator used for normalization, so agreement between the two
  is evidence, not tautology.
- ``beta_eta_pairs`` is a fixed table of convertible pairs, one for each
  computation or extensionality rule, together with the context and type
  at which conversion must accept them.

``check_conversion`` holds the checker's conversion (``conv.conv``/
``conv_ty``) to its reference, reading both sides back and comparing the
normal forms, on generated pairs (``conversion_trial``) and on the table.

Run ``python3 -m mtt.harness --trials N --seed S`` to fuzz all four
invariants from the command line.  The same seed always reproduces the
same sequence of cases.
"""

from __future__ import annotations

import argparse
import enum
import random
import sys
from collections import Counter

from .record import record
from . import syntax as S
from .syntax import Term
from .check import (
    CheckCtx,
    CheckError,
    check_tm,
    check_type,
    convert_ty,
    ctx_extend,
    ctx_lock,
    empty_ctx,
    lookup_var,
)
from .modeth import (
    THEORIES,
    Cell2,
    ModeError,
    ModeTheory,
    Modality,
    compose_mod,
    eq_mod,
    gen_cell,
    id_cell,
    id_mod,
    is_id_cell,
    shipped_theory,
    trivial,
    vcomp,
    walking,
    whisker_left,
    whisker_right,
    word_mod,
)
from .conv import conv, conv_ty
from .nbe import (
    TBool,
    TDec,
    TMod,
    TPi,
    TSig,
    TUni,
    TypeValue,
    VNeutral,
    Value,
    dec_unfold,
    do_proj,
    eval_tm,
    eval_ty,
    inst_ty,
    reify,
    reify_ty,
)
from .normal import (
    Ne,
    NeVar,
    Nf,
    NfTy,
    decode_nfty,
    depth,
    eq_nf,
    eq_nfty,
    locks_of,
    tele_entry,
)


class HarnessError(Exception):
    pass


class GenExhausted(HarnessError):
    """The generator found no term of the requested type within budget."""


# How often invented types use each connective head.
DEFAULT_WEIGHTS = {"bool": 4.0, "pi": 2.0, "sigma": 2.0, "mod": 2.0, "dec": 1.0, "uni": 0.5}


@record
class GenConfig:
    """Reproducible generation parameters.

    The production mix (variables versus introductions versus redexes) and
    the connective weights are fixed.  Equal configurations generate equal
    sequences.
    """

    seed: int = 0
    max_size: int = 12
    theory: str = "trivial"


def theory_of(cfg: GenConfig) -> ModeTheory:
    return shipped_theory(cfg.theory)


# ---------------------------------------------------------------------------
# Explicit substitution on core terms


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add ``by`` to every variable index at or above ``cutoff``."""
    return S.map_vars(
        t, lambda v, n: S.Var(v.idx + by, v.cell) if v.idx >= cutoff + n else v
    )


def mentions(t: Term, k: int = 0) -> bool:
    """Whether variable ``k`` occurs in ``t``: shifting from ``k`` and from
    ``k + 1`` moves the same variables but that one."""
    return shift(t, 1, k) != shift(t, 1, k + 1)


def subst(t: Term, s: Term, k: int = 0) -> Term:
    """Replace variable ``k`` by ``s`` in ``t`` and close the gap.

    Keys on the replaced variable are dropped: the oracle fragment lives
    in the one-mode theory, where every 2-cell is an identity.
    """

    def at(v: S.Var, n: int) -> Term:
        if v.idx == k + n:
            return shift(s, k + n)
        return S.Var(v.idx - 1, v.cell) if v.idx > k + n else v

    return S.map_vars(t, at)


# ---------------------------------------------------------------------------
# Independent boolean oracle


class Oracle(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    OUT_OF_FUEL = "out-of-fuel"


def oracle_step(t: Term) -> "Term | None":
    """One leftmost-outermost rewrite, or None if ``t`` is normal."""
    match t:
        case S.App(S.Lam(b), a):
            return subst(b, a)
        case S.App(f, a):
            f2 = oracle_step(f)
            if f2 is not None:
                return S.App(f2, a)
            a2 = oracle_step(a)
            return S.App(f, a2) if a2 is not None else None
        case S.Lam(b):
            b2 = oracle_step(b)
            return S.Lam(b2) if b2 is not None else None
        case S.Proj1(S.Pair(a, _)):
            return a
        case S.Proj2(S.Pair(_, b)):
            return b
        case S.Proj1(p):
            p2 = oracle_step(p)
            return S.Proj1(p2) if p2 is not None else None
        case S.Proj2(p):
            p2 = oracle_step(p)
            return S.Proj2(p2) if p2 is not None else None
        case S.Pair(a, b):
            a2 = oracle_step(a)
            if a2 is not None:
                return S.Pair(a2, b)
            b2 = oracle_step(b)
            return S.Pair(a, b2) if b2 is not None else None
        case S.If(_, tc, _, S.True_()):
            return tc
        case S.If(_, _, fc, S.False_()):
            return fc
        case S.If(m, tc, fc, sc):
            sc2 = oracle_step(sc)
            if sc2 is not None:
                return S.If(m, tc, fc, sc2)
            tc2 = oracle_step(tc)
            if tc2 is not None:
                return S.If(m, tc2, fc, sc)
            fc2 = oracle_step(fc)
            return S.If(m, tc, fc2, sc) if fc2 is not None else None
        case S.True_() | S.False_() | S.Var(_, _):
            return None
    raise HarnessError(f"outside the boolean fragment: {type(t).__name__}")


def oracle_eval_bool(t: Term, fuel: int):
    """Evaluate a closed boolean term by rewriting, ``fuel`` steps at most."""
    for _ in range(fuel):
        match t:
            case S.True_():
                return Oracle.TRUE
            case S.False_():
                return Oracle.FALSE
        t2 = oracle_step(t)
        if t2 is None:
            raise HarnessError("stuck: not a closed boolean term")
        t = t2
    return Oracle.OUT_OF_FUEL


# ---------------------------------------------------------------------------
# Type-directed generation


class _Gen:
    def __init__(self, mt: ModeTheory, rng: random.Random):
        self.mt = mt
        self.rng = rng

    def _weighted(self, names: list) -> str:
        return self.rng.choices(names, [DEFAULT_WEIGHTS[n] for n in names])[0]

    def _modality(self, mode: str) -> Modality:
        gens = [word_mod(self.mt, (g,)) for g in self.mt.modality_gens]
        return self.rng.choice([id_mod(mode)] + [m for m in gens if m.mode_tgt == mode])

    # -- types

    def type_term(self, ctx: CheckCtx, size: int) -> Term:
        """A random type, returned as a checkable term."""
        if size <= 1:
            return S.Bool()
        head = self._weighted(["bool", "pi", "sigma", "dec", "uni", "mod"])
        if head == "bool":
            return S.Bool()
        if head == "uni":
            return S.Uni()
        if head == "dec":
            return S.Dec(self.code(ctx, size - 1))
        if head == "mod":
            mod = self._modality(ctx.mode)
            return S.Mod(mod, self.type_term(ctx_lock(ctx, mod), size - 1))
        if head == "pi":
            mod = self._modality(ctx.mode)
            dom = self.type_term(ctx_lock(ctx, mod), size // 2)
            domv = check_type(ctx_lock(ctx, mod), dom)
            cod = self.type_term(ctx_extend(ctx, mod, domv), size // 2)
            return S.Pi(mod, dom, cod, mentions(cod))
        fst = self.type_term(ctx, size // 2)
        fstv = check_type(ctx, fst)
        snd = self.type_term(ctx_extend(ctx, id_mod(ctx.mode), fstv), size // 2)
        return S.Sig(fst, snd, mentions(snd))

    def code(self, ctx: CheckCtx, size: int) -> Term:
        """A random universe element, mirroring the type grammar."""
        if size <= 1:
            return S.BoolCode()
        head = self._weighted(["bool", "pi", "sigma", "mod"])
        if head == "bool":
            return S.BoolCode()
        if head == "mod":
            mod = self._modality(ctx.mode)
            return S.ModCode(mod, self.code(ctx_lock(ctx, mod), size - 1))
        if head == "pi":
            mod = self._modality(ctx.mode)
            dom = self.code(ctx_lock(ctx, mod), size // 2)
            ctx2 = ctx_extend(ctx, mod, TDec(eval_tm(self.mt, ctx.env, dom)))
            return S.PiCode(mod, dom, self.code(ctx2, size // 2))
        fst = self.code(ctx, size // 2)
        ctx2 = ctx_extend(ctx, id_mod(ctx.mode), TDec(eval_tm(self.mt, ctx.env, fst)))
        return S.SigCode(fst, self.code(ctx2, size // 2))

    # -- terms

    def term(self, ctx: CheckCtx, ty: TypeValue, size: int) -> Term:
        builders = [(4.0, self._intro)]
        if size > 1:
            builders.append((3.0, self._spine))
            builders.append((1.5, self._redex))
        order = sorted(
            builders, key=lambda wb: -self.rng.random() * wb[0]
        )
        for _, build in order:
            try:
                return build(ctx, ty, size)
            except GenExhausted:
                continue
        raise GenExhausted(f"no term found at size {size}")

    def _intro(self, ctx: CheckCtx, ty: TypeValue, size: int) -> Term:
        mt = self.mt
        match ty:
            case TPi(mod, dom, cod):
                ctx2 = ctx_extend(ctx, mod, dom)
                return S.Lam(self.term(ctx2, inst_ty(mt, cod, ctx2.env.vals[-1]), size - 1))
            case TSig(fst, snd):
                a = self.term(ctx, fst, size // 2)
                b_ty = inst_ty(mt, snd, eval_tm(mt, ctx.env, a))
                return S.Pair(a, self.term(ctx, b_ty, size // 2))
            case TBool():
                return S.True_() if self.rng.random() < 0.5 else S.False_()
            case TMod(mod, inner):
                return S.MkBox(
                    mod, self.term(ctx_lock(ctx, mod), inner, size - 1)
                )
            case TDec(code):
                if isinstance(code, VNeutral):
                    raise GenExhausted("opaque code")
                return S.DecIsoInv(self.term(ctx, dec_unfold(mt, code), size - 1))
            case TUni():
                return self.code(ctx, min(size, 6))
        raise GenExhausted(f"no introduction at {type(ty).__name__}")

    def _accessible(self, ctx: CheckCtx) -> list:
        """(index, key) pairs for every variable reachable from here: the
        identity, a generator cell, a generator cell whiskered by the rest
        of the lock word, or the vertical composite of two such cells."""
        mt = self.mt
        out = []
        for k in range(depth(ctx)):
            ann, nu = tele_entry(ctx, k)[0], locks_of(ctx, k)
            if eq_mod(mt, ann, nu):
                out.append((k, id_cell(ann)))
            for name, (src, tgt) in mt.cell_gens.items():
                if eq_mod(mt, src, ann) and eq_mod(mt, tgt, nu):
                    out.append((k, gen_cell(mt, name)))
            for last in self._layers_into(nu):
                (a,) = last.layers
                if (a.pre or a.post) and eq_mod(mt, last.src, ann):  # bare ones are above
                    out.append((k, last))
                for first in self._layers_into(last.src):
                    if eq_mod(mt, first.src, ann):
                        out.append((k, vcomp(last, first, mt)))
        return out

    def _layers_into(self, nu: Modality) -> list[Cell2]:
        """Each generator cell whiskered by the words before and after an
        occurrence of its target in ``nu``, so that it lands exactly at
        ``nu``; bare when both words are empty."""
        out = []
        w = nu.word
        for name, (_, tgt) in self.mt.cell_gens.items():
            gen = gen_cell(self.mt, name)
            n = len(tgt.word)
            for i in range(len(w) - n + 1):
                if w[i : i + n] != tgt.word:
                    continue
                # words apply first to last: w[:i] before the cell, the rest after
                if not (i or w[i + n :]):
                    out.append(gen)
                    continue
                try:
                    before = word_mod(self.mt, w[:i], nu.mode_src)
                    after = word_mod(self.mt, w[i + n :], tgt.mode_tgt)
                    out.append(whisker_left(after, whisker_right(gen, before)))
                except ModeError:
                    pass  # the generator's modes do not fit here
        return out

    def _weaken_ty(self, ctx: CheckCtx, ty: TypeValue) -> Term:
        """The type as a term, shifted to sit under one more binder."""
        return shift(
            decode_nfty(reify_ty(self.mt, depth(ctx), ctx.mode, ty)), 1
        )

    def _spine(self, ctx: CheckCtx, ty: TypeValue, size: int) -> Term:
        mt = self.mt
        options = self._accessible(ctx)
        if not options:
            raise GenExhausted("no reachable variables")
        k, alpha = self.rng.choice(options)
        head: Term = S.Var(k, alpha)
        head_ty = lookup_var(ctx, k, alpha)
        budget = size
        while True:
            if convert_ty(ctx, head_ty, ty):
                return head
            if budget <= 0:
                raise GenExhausted("spine budget exhausted")
            budget -= 1
            match head_ty:
                case TPi(mod, dom, cod):
                    arg = self.term(ctx_lock(ctx, mod), dom, budget // 2)
                    head_ty = inst_ty(mt, cod, eval_tm(mt, ctx.env, arg))
                    head = S.App(head, arg)
                case TSig(fst, snd):
                    if self.rng.random() < 0.5:
                        head_ty, head = fst, S.Proj1(head)
                    else:
                        first = do_proj(mt, 1, eval_tm(mt, ctx.env, head))
                        head_ty, head = inst_ty(mt, snd, first), S.Proj2(head)
                case TDec(code):
                    if isinstance(code, VNeutral):
                        raise GenExhausted("opaque code in spine")
                    head_ty, head = dec_unfold(mt, code), S.DecIso(head)
                case TBool():
                    motive = self._weaken_ty(ctx, ty)
                    tc = self.term(ctx, ty, budget // 2)
                    fc = self.term(ctx, ty, budget // 2)
                    head, head_ty = S.If(motive, tc, fc, head), ty
                case TMod(nu, inner):
                    motive = self._weaken_ty(ctx, ty)
                    ctx2 = ctx_extend(ctx, compose_mod(id_mod(ctx.mode), nu), inner)
                    branch = self.term(ctx2, ty, budget // 2)
                    head = S.LetMod(id_mod(ctx.mode), nu, motive, head, branch)
                    head_ty = ty
                case _:
                    raise GenExhausted(
                        f"cannot eliminate {type(head_ty).__name__} further"
                    )

    def _redex(self, ctx: CheckCtx, ty: TypeValue, size: int) -> Term:
        mt = self.mt
        if self.rng.random() < 0.5:
            motive = self._weaken_ty(ctx, ty)
            tc = self.term(ctx, ty, size // 2)
            fc = self.term(ctx, ty, size // 2)
            scrut = self.term(ctx, TBool(), max(size // 3, 1))
            return S.If(motive, tc, fc, scrut)
        nu = self._modality(ctx.mode)
        scrut = S.MkBox(nu, self.term(ctx_lock(ctx, nu), TBool(), size // 3))
        motive = self._weaken_ty(ctx, ty)
        ctx2 = ctx_extend(ctx, compose_mod(id_mod(ctx.mode), nu), TBool())
        branch = self.term(ctx2, ty, size // 2)
        return S.LetMod(id_mod(ctx.mode), nu, motive, scrut, branch)


def gen_type(cfg: GenConfig, ctx: CheckCtx, rng: "random.Random | None" = None) -> Term:
    """A random well-formed type in ``ctx``, as a term."""
    rng = rng if rng is not None else random.Random(cfg.seed)
    return _Gen(ctx.mt, rng).type_term(ctx, cfg.max_size // 2)


def gen_typed_term(
    cfg: GenConfig,
    ctx: CheckCtx,
    ty: TypeValue,
    rng: "random.Random | None" = None,
) -> Term:
    """A random term of type ``ty``, or ``GenExhausted``."""
    rng = rng if rng is not None else random.Random(cfg.seed)
    return _Gen(ctx.mt, rng).term(ctx, ty, cfg.max_size)


def gen_distinct_pair(
    cfg: GenConfig,
    ctx: CheckCtx,
    ty: TypeValue,
    rng: "random.Random | None" = None,
) -> "tuple[Term, Term]":
    """Two terms of type ``ty`` whose normal forms provably differ.

    The pair differs at a boolean or universe leaf reached through
    canonical structure, so conversion must reject it; every other
    component is generated randomly.
    """
    rng = rng if rng is not None else random.Random(cfg.seed)
    g = _Gen(ctx.mt, rng)

    def go(ctx: CheckCtx, ty: TypeValue) -> "tuple[Term, Term]":
        mt = ctx.mt
        match ty:
            case TBool():
                return S.True_(), S.False_()
            case TPi(mod, dom, cod):
                ctx2 = ctx_extend(ctx, mod, dom)
                a, b = go(ctx2, inst_ty(mt, cod, ctx2.env.vals[-1]))
                return S.Lam(a), S.Lam(b)
            case TSig(fst, snd):
                a1, a2 = go(ctx, fst)
                b1 = g.term(ctx, inst_ty(mt, snd, eval_tm(mt, ctx.env, a1)), 2)
                b2 = g.term(ctx, inst_ty(mt, snd, eval_tm(mt, ctx.env, a2)), 2)
                return S.Pair(a1, b1), S.Pair(a2, b2)
            case TMod(mod, inner):
                a, b = go(ctx_lock(ctx, mod), inner)
                return S.MkBox(mod, a), S.MkBox(mod, b)
            case TDec(code):
                if isinstance(code, VNeutral):
                    raise GenExhausted("opaque code")
                a, b = go(ctx, dec_unfold(ctx.mt, code))
                return S.DecIsoInv(a), S.DecIsoInv(b)
            case TUni():
                return S.BoolCode(), S.SigCode(S.BoolCode(), S.BoolCode())
        raise GenExhausted(f"no distinct pair at {type(ty).__name__}")

    return go(ctx, ty)


# ---------------------------------------------------------------------------
# Closed boolean terms for differential testing


_BOOL = ("bool",)


def _simple_to_term(tau) -> Term:
    if tau == _BOOL:
        return S.Bool()
    if tau[0] == "fn":
        return S.Pi(id_mod("m"), _simple_to_term(tau[1]), _simple_to_term(tau[2]), False)
    return S.Sig(_simple_to_term(tau[1]), _simple_to_term(tau[2]), False)


def gen_closed_bool(cfg: GenConfig, rng: "random.Random | None" = None) -> Term:
    """A closed boolean term full of redexes, simply typed by construction.

    The terms deliberately contain function literals in applied position,
    which the bidirectional checker has no annotation for; both
    normalization and the oracle handle them, making the two comparable on
    exactly this fragment.
    """
    rng = rng if rng is not None else random.Random(cfg.seed)

    def simple_type(size: int):
        if size <= 1 or rng.random() < 0.5:
            return _BOOL
        if rng.random() < 0.6:
            return ("fn", simple_type(size // 2), simple_type(size // 2))
        return ("prod", simple_type(size // 2), simple_type(size // 2))

    def gen(env: list, tau, size: int) -> Term:
        hits = [i for i, sigma in enumerate(env) if sigma == tau]
        choices = ["intro"]
        if hits:
            choices += ["var"] * 2
        if size > 1:
            choices += ["beta", "ite", "app", "proj"]
        match rng.choice(choices):
            case "var":
                idx = len(env) - 1 - rng.choice(hits)
                return S.Var(idx, id_cell(id_mod("m")))
            case "beta":
                sigma = simple_type(size // 3)
                body = gen(env + [sigma], tau, size // 2)
                return S.App(S.Lam(body), gen(env, sigma, size // 2))
            case "ite":
                return S.If(
                    _simple_to_term(tau),
                    gen(env, tau, size // 2),
                    gen(env, tau, size // 2),
                    gen(env, _BOOL, size // 3),
                )
            case "app":
                fn = gen(env, ("fn", _BOOL, tau), size // 2)
                return S.App(fn, gen(env, _BOOL, size // 3))
            case "proj":
                other = simple_type(size // 3)
                if rng.random() < 0.5:
                    return S.Proj1(gen(env, ("prod", tau, other), size // 2))
                return S.Proj2(gen(env, ("prod", other, tau), size // 2))
            case _:
                if tau == _BOOL:
                    return S.True_() if rng.random() < 0.5 else S.False_()
                if tau[0] == "fn":
                    return S.Lam(gen(env + [tau[1]], tau[2], size - 1))
                return S.Pair(
                    gen(env, tau[1], size // 2), gen(env, tau[2], size // 2)
                )

    return gen([], _BOOL, cfg.max_size)


# ---------------------------------------------------------------------------
# Convertible pairs, one per rule


_IDM = id_mod("m")
_MU = word_mod(walking(), ("mu",))
_B = S.Bool()


def _v(k: int, mod: Modality = _IDM) -> Term:
    return S.Var(k, id_cell(mod))


PAIRS_THEORY = walking  # every listed pair lives at mode m of this theory

_PAIRS = {
    "pi-beta": (
        S.App(S.Lam(_v(0)), _v(0)),
        _v(0),
        (_B,),
        _B,
    ),
    "pi-eta": (
        S.Lam(S.App(_v(1), _v(0))),
        _v(0),
        (S.Pi(_IDM, _B, _B),),
        S.Pi(_IDM, _B, _B),
    ),
    "sigma-beta": (
        S.Proj1(S.Pair(_v(1), _v(0))),
        _v(1),
        (_B, _B),
        _B,
    ),
    "sigma-eta": (
        S.Pair(S.Proj1(_v(0)), S.Proj2(_v(0))),
        _v(0),
        (S.Sig(_B, _B),),
        S.Sig(_B, _B),
    ),
    "bool-beta": (
        S.If(_B, S.True_(), S.False_(), S.True_()),
        S.True_(),
        (),
        _B,
    ),
    "modal-beta": (
        S.LetMod(
            _IDM,
            _MU,
            S.Mod(_MU, _B),
            S.MkBox(_MU, S.True_()),
            S.MkBox(_MU, _v(0, _MU)),
        ),
        S.MkBox(_MU, S.True_()),
        (),
        S.Mod(_MU, _B),
    ),
    "deciso-beta": (
        S.DecIso(S.DecIsoInv(_v(0))),
        _v(0),
        (_B,),
        _B,
    ),
    "deciso-eta": (
        S.DecIsoInv(S.DecIso(_v(0))),
        _v(0),
        (S.Dec(S.BoolCode()),),
        S.Dec(S.BoolCode()),
    ),
}


def beta_eta_pairs(connective: str) -> "tuple[Term, Term, CheckCtx, Term]":
    """(lhs, rhs, context, type) for one computation or eta rule; the
    context binds the rule's variables, each at ``id(m)``."""
    if connective not in _PAIRS:
        raise HarnessError(f"unknown connective {connective!r}")
    lhs, rhs, binders, ty = _PAIRS[connective]
    ctx = empty_ctx(PAIRS_THEORY(), "m")
    for b in binders:
        ctx = ctx_extend(ctx, _IDM, check_type(ctx, b))
    return lhs, rhs, ctx, ty


CONNECTIVES = tuple(_PAIRS)


# ---------------------------------------------------------------------------
# Invariant campaigns


def ctx_for(mt: ModeTheory, rng: random.Random) -> CheckCtx:
    """A context at a random mode with up to three random entries: locks,
    and boolean variables with random annotations, so that generated terms
    reach variables through whiskered and composite keys."""
    ctx = empty_ctx(mt, rng.choice(list(mt.modes)))
    pick = _Gen(mt, rng)._modality
    for _ in range(rng.randrange(4)):
        mu = pick(ctx.mode)
        ctx = ctx_lock(ctx, mu) if rng.random() < 0.5 else ctx_extend(ctx, mu, TBool())
    return ctx


def run_soundness(trials: int, seed: int, out=None) -> bool:
    """Every generated term checks at its generated type."""
    out = sys.stdout if out is None else out
    checked = exhausted = 0
    names = sorted(THEORIES)
    for i in range(trials):
        cfg = GenConfig(seed=seed + i, theory=names[i % len(names)])
        rng = random.Random(cfg.seed)
        mt = theory_of(cfg)
        ctx = ctx_for(mt, rng)
        try:
            ty_term = gen_type(cfg, ctx, rng)
            tyv = check_type(ctx, ty_term)
            tm = gen_typed_term(cfg, ctx, tyv, rng)
        except GenExhausted:
            exhausted += 1
            continue
        check_tm(ctx, tm, tyv)  # CheckError here is a soundness failure
        checked += 1
    print(
        f"soundness: {checked} generated terms checked, {exhausted} exhausted",
        file=out,
    )
    return True


def run_differential(trials: int, seed: int, fuel: int = 10_000, out=None) -> bool:
    """Normalization agrees with the rewriting oracle on closed booleans."""
    out = sys.stdout if out is None else out
    from .nbe import normalize
    from .normal import NfFalse, NfTrue

    agree = ran_out = 0
    ctx = empty_ctx(trivial(), "m")
    for i in range(trials):
        cfg = GenConfig(seed=seed + i)
        tm = gen_closed_bool(cfg)
        verdict = oracle_eval_bool(tm, fuel)
        if verdict is Oracle.OUT_OF_FUEL:
            ran_out += 1
            continue
        nf = normalize(ctx, S.Bool(), tm)
        expect = NfTrue() if verdict is Oracle.TRUE else NfFalse()
        if nf != expect:
            print(f"differential mismatch at seed {cfg.seed}", file=out)
            return False
        agree += 1
    print(
        f"differential: {agree} terms agreed, {ran_out} exhausted the fuel",
        file=out,
    )
    return True


def run_pairs(out=None) -> bool:
    """Conversion accepts every listed computation and eta rule, and so does
    comparing normal forms (``check_conversion``)."""
    out = sys.stdout if out is None else out
    for name in CONNECTIVES:
        lhs, rhs, ctx, ty = beta_eta_pairs(name)
        mt = ctx.mt
        tyv = check_type(ctx, ty)
        # The left side may hold a redex with an unannotated introduction,
        # which bidirectional syntax cannot type; conversion compares the
        # values, where the redex has already computed.
        check_tm(ctx, rhs, tyv)
        va, vb = eval_tm(mt, ctx.env, lhs), eval_tm(mt, ctx.env, rhs)
        if not check_conversion(ctx, tyv, va, vb)[0]:
            print(f"pair not convertible: {name}", file=out)
            return False
    print(f"pairs: {len(CONNECTIVES)} rules convert", file=out)
    return True


def _keyed(mt: ModeTheory, x: object) -> bool:
    """Whether a normal form holds a variable under a non-identity key."""
    if isinstance(x, NeVar):
        return not is_id_cell(mt, x.cell)
    if isinstance(x, (Nf, Ne, NfTy)):
        return any(_keyed(mt, getattr(x, f)) for f in type(x).__match_args__)
    return False


def near_miss(mt: ModeTheory, rng: random.Random, t: Term) -> "Term | None":
    """``t`` with one boolean literal flipped or one modality replaced by
    another of the same boundary, chosen at random; None when ``t`` has
    neither.  The result need not check."""

    def others(mod: Modality) -> list[Modality]:
        gens = [word_mod(mt, (g,)) for g in mt.modality_gens]
        words = [id_mod(mod.mode_src)] + gens
        words += [compose_mod(a, b) for a in gens for b in gens if a.mode_src == b.mode_tgt]
        return [
            m for m in words
            if (m.mode_src, m.mode_tgt) == (mod.mode_src, mod.mode_tgt)
            and not eq_mod(mt, m, mod)
        ]

    def edit(x, spot: list):
        """Rebuild x with its spot[0]-th editable leaf (counting from 1)
        changed; spot[0] goes down by one at every editable leaf."""
        if isinstance(x, (S.True_, S.False_)):
            spot[0] -= 1
            return (S.False_() if isinstance(x, S.True_) else S.True_()) if spot[0] == 0 else x
        if isinstance(x, Modality):
            alts = others(x)
            spot[0] -= bool(alts)
            return rng.choice(alts) if alts and spot[0] == 0 else x
        if not isinstance(x, S.Term):
            return x
        parts = [getattr(x, f) for f in type(x).__match_args__]
        new = [edit(part, spot) for part in parts]
        return type(x)(*new) if any(a is not b for a, b in zip(new, parts)) else x

    leaves = [0]
    edit(t, leaves)  # changes nothing: the count starts below the first leaf
    return edit(t, [rng.randint(1, -leaves[0])]) if leaves[0] else None


def check_conversion(
    ctx: CheckCtx, ty: "TypeValue | None", a: "Value | TypeValue", b: "Value | TypeValue"
) -> "tuple[bool, bool]":
    """Decide whether a and b convert at ``ty`` (or, when ``ty`` is None,
    whether the types a and b convert) both with ``conv.conv``/``conv_ty``
    and by reading both back and comparing the normal forms.  Return the
    verdict and whether a normal form holds a non-identity key; raise
    ``HarnessError`` when the two deciders disagree."""
    mt, d, mode = ctx.mt, depth(ctx), ctx.mode
    if ty is None:
        got = conv_ty(mt, d, mode, a, b)
        nfs = reify_ty(mt, d, mode, a), reify_ty(mt, d, mode, b)
        want = eq_nfty(mt, *nfs)
    else:
        got = conv(mt, d, mode, ty, a, b)
        nfs = reify(mt, d, mode, ty, a), reify(mt, d, mode, ty, b)
        want = eq_nf(mt, *nfs)
    if got != want:
        raise HarnessError(f"conversion says {got}, the normal forms say {want}")
    return got, any(_keyed(mt, nf) for nf in nfs)


def conversion_trial(mt: ModeTheory, cfg: GenConfig) -> Counter:
    """Compare the two deciders on the problems one seed generates in a
    random context: a type against a second evaluation of itself and
    against another type, a term of that type and a boolean (where the
    context's variables are used, keyed) likewise, each of these against a
    ``near_miss`` of itself that still checks, and a ``gen_distinct_pair``,
    which must be rejected.  Count the pairs, the rejected ones and the ones
    whose normal forms hold a non-identity key."""
    rng = random.Random(cfg.seed)
    ctx = ctx_for(mt, rng)
    tally: Counter = Counter()

    def compare(ty, a, b) -> bool:
        same, keyed = check_conversion(ctx, ty, a, b)
        tally.update(pairs=1, rejected=not same, keyed=keyed)
        return same

    def checked_near_miss(t: Term, at: "TypeValue | None") -> "Term | None":
        t2 = near_miss(mt, rng, t)
        if t2 is None:
            return None
        try:
            if at is None:
                check_type(ctx, t2)
            else:
                check_tm(ctx, t2, at)
        except (CheckError, ModeError):
            return None
        return t2

    try:
        ty = gen_type(cfg, ctx, rng)
        tyv = check_type(ctx, ty)
        compare(None, tyv, eval_ty(mt, ctx.env, ty))
        compare(None, tyv, check_type(ctx, gen_type(cfg, ctx, rng)))
        if (ty2 := checked_near_miss(ty, None)) is not None:
            compare(None, tyv, eval_ty(mt, ctx.env, ty2))
        for at in (TBool(), tyv):
            t, u = (gen_typed_term(cfg, ctx, at, rng) for _ in range(2))
            compare(at, eval_tm(mt, ctx.env, t), eval_tm(mt, ctx.env, t))
            compare(at, eval_tm(mt, ctx.env, t), eval_tm(mt, ctx.env, u))
            if (t2 := checked_near_miss(t, at)) is not None:
                compare(at, eval_tm(mt, ctx.env, t), eval_tm(mt, ctx.env, t2))
        a, b = gen_distinct_pair(cfg, ctx, tyv, rng)
    except GenExhausted:
        return tally
    if compare(tyv, eval_tm(mt, ctx.env, a), eval_tm(mt, ctx.env, b)):
        raise HarnessError(f"a distinct pair converts at seed {cfg.seed}")
    return tally


def run_conversion(trials: int, seed: int, out=None) -> bool:
    """Conversion on values agrees with comparing normal forms."""
    out = sys.stdout if out is None else out
    tally: Counter = Counter()
    names = sorted(THEORIES)
    for i in range(trials):
        cfg = GenConfig(seed=seed + i, theory=names[i % len(names)])
        tally += conversion_trial(theory_of(cfg), cfg)
    print(
        f"conversion: {tally['pairs']} pairs agree with read-back, "
        f"{tally['rejected']} rejected, {tally['keyed']} with non-identity keys",
        file=out,
    )
    return True


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python3 -m mtt.harness",
        description="Fuzz the kernel's generator, oracle, and conversion invariants.",
    )
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    ok = True
    try:
        ok &= run_soundness(args.trials, args.seed)
        ok &= run_differential(args.trials, args.seed)
        ok &= run_pairs()
        ok &= run_conversion(args.trials, args.seed)
    except (CheckError, HarnessError) as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
