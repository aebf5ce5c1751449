"""Acceptance gate: every shipped guarantee at its stated scale.

Each test exercises one end-to-end property and records a pass/fail line
for the terminal summary (see conftest.py).  The generated-output pools for
the first three tests are cached so the eta-scan can cover all of them
regardless of test ordering.
"""

import random
import time
from pathlib import Path

import pytest

import _renfuzz as RF
from mtt import syntax as S
from mtt.check import (
    CheckError,
    check_tm,
    check_type,
    convert_tm,
    convert_ty,
    ctx_extend,
    ctx_lock,
    empty_ctx,
)
from mtt.cli import main as cli_main
from mtt.harness import (
    CONNECTIVES,
    GenConfig,
    GenExhausted,
    Oracle,
    beta_eta_pairs,
    gen_closed_bool,
    gen_distinct_pair,
    gen_type,
    gen_typed_term,
    oracle_eval_bool,
    theory_of,
)
from mtt.modeth import THEORIES, eq_mod, id_cell, id_mod, trivial
from mtt.nbe import TBool, TPi, eval_tm, inst_ty, normalize, normalize_ty
from mtt.normal import (
    NeApp,
    NeBoolRec,
    NeDecIso,
    NeLetMod,
    NeProj1,
    NeProj2,
    NeVar,
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
    NfUni,
    decode_nf,
    eq_nf,
    eq_ne,
)

IDM = id_mod("m")
CORPUS = sorted(Path(__file__).parent.glob("corpus/*.mtt"))

# (theory, normal form, its normal type) pools, keyed by producing criterion
_POOLS: "dict[int, list] | None" = None


def _pools() -> dict:
    global _POOLS
    if _POOLS is None:
        _POOLS = {}
        _POOLS[1] = _run_stability()
        _POOLS[2] = _run_pair_discrimination()
        _POOLS[3] = _run_differential()
    return _POOLS


# ---------------------------------------------------------------------------
# Criterion 1: normalize / decode / normalize is the identity


def _run_stability() -> dict:
    names = sorted(THEORIES)
    outputs = []
    produced = exhausted = 0
    start = time.perf_counter()
    i = 0
    while produced < 1000:
        assert i < 4000, "generator exhaustion rate is far too high"
        cfg = GenConfig(seed=20_000 + i, theory=names[i % len(names)])
        i += 1
        rng = random.Random(cfg.seed)
        mt = theory_of(cfg)
        ctx = empty_ctx(mt, rng.choice(list(mt.modes)))
        try:
            ty = gen_type(cfg, ctx, rng)
            tyv = check_type(ctx, ty)
            tm = gen_typed_term(cfg, ctx, tyv, rng)
        except GenExhausted:
            exhausted += 1
            continue
        check_tm(ctx, tm, tyv)
        nf = normalize(ctx, ty, tm)
        again = normalize(ctx, ty, decode_nf(nf))
        assert eq_nf(mt, nf, again), f"round trip moved, seed {cfg.seed}"
        outputs.append((mt, nf, normalize_ty(ctx, ty)))
        produced += 1
    elapsed = time.perf_counter() - start
    return {
        "terms": produced,
        "theories": len(names),
        "exhausted": exhausted,
        "elapsed": elapsed,
        "outputs": outputs,
    }


def test_criterion_1_round_trip_stability(criterion):
    with criterion(1, "re-normalizing decoded normal forms is the identity") as info:
        st = _pools()[1]
        assert st["terms"] >= 1000
        assert st["elapsed"] < 60.0
        info["detail"] = (
            f"{st['terms']} terms, {st['theories']} theories, "
            f"{st['exhausted']} exhausted, {st['elapsed']:.1f}s"
        )


# ---------------------------------------------------------------------------
# Criterion 2: conversion accepts the rule table, rejects distinct pairs


def _run_pair_discrimination() -> dict:
    outputs = []
    for name in CONNECTIVES:
        lhs, rhs, ctx, ty = beta_eta_pairs(name)
        mt = ctx.mt
        tyv = check_type(ctx, ty)
        check_tm(ctx, rhs, tyv)
        va = eval_tm(mt, ctx.env, lhs)
        vb = eval_tm(mt, ctx.env, rhs)
        assert convert_tm(ctx, tyv, va, vb), f"rule {name} not convertible"
        nfty = normalize_ty(ctx, ty)
        outputs.append((mt, normalize(ctx, ty, lhs), nfty))
        outputs.append((mt, normalize(ctx, ty, rhs), nfty))

    names = sorted(THEORIES)
    rejected = 0
    i = 0
    while rejected < 500:
        assert i < 4000, "distinct-pair generation exhausted too often"
        cfg = GenConfig(seed=40_000 + i, theory=names[i % len(names)], max_size=8)
        i += 1
        rng = random.Random(cfg.seed)
        mti = theory_of(cfg)
        ctx = empty_ctx(mti, rng.choice(list(mti.modes)))
        try:
            ty = gen_type(cfg, ctx, rng)
            tyv = check_type(ctx, ty)
            a, b = gen_distinct_pair(cfg, ctx, tyv, rng)
        except GenExhausted:
            continue
        check_tm(ctx, a, tyv)
        check_tm(ctx, b, tyv)
        va = eval_tm(mti, ctx.env, a)
        vb = eval_tm(mti, ctx.env, b)
        assert not convert_tm(ctx, tyv, va, vb), f"seed {cfg.seed} converted"
        nfty = normalize_ty(ctx, ty)
        outputs.append((mti, normalize(ctx, ty, a), nfty))
        outputs.append((mti, normalize(ctx, ty, b), nfty))
        rejected += 1
    return {"rules": len(CONNECTIVES), "rejected": rejected, "outputs": outputs}


def test_criterion_2_conversion_discriminates(criterion):
    with criterion(2, "conversion accepts the rule table, rejects distinct pairs") as info:
        st = _pools()[2]
        assert st["rules"] == 8 and st["rejected"] >= 500
        info["detail"] = f"{st['rules']} rules accepted, {st['rejected']} pairs rejected"


# ---------------------------------------------------------------------------
# Criterion 3: normalization agrees with the rewriting oracle


def _run_differential() -> dict:
    mt = trivial()
    ctx = empty_ctx(mt, "m")
    outputs = []
    agreed = ran_out = 0
    for i in range(2000):
        cfg = GenConfig(seed=60_000 + i)
        tm = gen_closed_bool(cfg)
        verdict = oracle_eval_bool(tm, 10_000)
        if verdict is Oracle.OUT_OF_FUEL:
            ran_out += 1
            continue
        nf = normalize(ctx, S.Bool(), tm)
        want = NfTrue() if verdict is Oracle.TRUE else NfFalse()
        assert nf == want, f"oracle disagreement at seed {cfg.seed}"
        outputs.append((mt, nf, NfBool()))
        agreed += 1
    return {"agreed": agreed, "ran_out": ran_out, "outputs": outputs}


def test_criterion_3_oracle_agreement(criterion):
    with criterion(3, "closed booleans agree with the rewriting oracle") as info:
        st = _pools()[3]
        assert st["agreed"] + st["ran_out"] == 2000
        assert st["agreed"] >= 1500
        info["detail"] = f"{st['agreed']} agreed, {st['ran_out']} fuel-exhausted"


# ---------------------------------------------------------------------------
# Criterion 4: no bare neutral at a function or pair type, anywhere


def _decoded(code):
    match code:
        case NfBoolCode():
            return NfBool()
        case NfFnCode(mod, dom, cod):
            return NfFn(mod, NfDec(dom), NfDec(cod))
        case NfProdCode(fst, snd):
            return NfProd(NfDec(fst), NfDec(snd))
        case NfModifyCode(mod, inner):
            return NfModify(mod, NfDec(inner))
        case _:  # neutral code: nothing further is recorded
            return None


def _scan_nf(u, ty):
    """Walk a normal form with its type where the structure records one.

    Inside neutral arguments the type is not recorded (``None``); the
    placement constraint is only checkable at typed positions.
    """
    match u:
        case NfInj(ne):
            assert not isinstance(ty, (NfFn, NfProd)), (
                f"bare neutral at {type(ty).__name__}"
            )
            _scan_ne(ne)
        case NfLam(_, body):
            assert ty is None or isinstance(ty, NfFn)
            _scan_nf(body, ty.cod if isinstance(ty, NfFn) else None)
        case NfPair(fst, snd):
            assert ty is None or isinstance(ty, NfProd)
            _scan_nf(fst, ty.fst if isinstance(ty, NfProd) else None)
            _scan_nf(snd, ty.snd if isinstance(ty, NfProd) else None)
        case NfMkBox(_, body):
            assert ty is None or isinstance(ty, NfModify)
            _scan_nf(body, ty.ty if isinstance(ty, NfModify) else None)
        case NfDecIsoStar(body):
            assert ty is None or isinstance(ty, NfDec)
            _scan_nf(body, _decoded(ty.code) if isinstance(ty, NfDec) else None)
        case NfTrue() | NfFalse() | NfBoolCode():
            pass
        case NfFnCode(_, dom, cod):
            _scan_nf(dom, NfUni())
            _scan_nf(cod, NfUni())
        case NfProdCode(fst, snd):
            _scan_nf(fst, NfUni())
            _scan_nf(snd, NfUni())
        case NfModifyCode(_, inner):
            _scan_nf(inner, NfUni())
        case _:
            raise AssertionError(f"unexpected normal form {u!r}")


def _scan_ne(e):
    match e:
        case NeVar(_, _):
            pass
        case NeApp(fn, _, arg):
            _scan_ne(fn)
            _scan_nf(arg, None)
        case NeProj1(pair) | NeProj2(pair):
            _scan_ne(pair)
        case NeBoolRec(motive, scrut, tcase, fcase):
            _scan_ty(motive)
            _scan_ne(scrut)
            _scan_nf(tcase, None)
            _scan_nf(fcase, None)
        case NeLetMod(_, _, motive, scrut, branch):
            _scan_ty(motive)
            _scan_ne(scrut)
            _scan_nf(branch, None)
        case NeDecIso(body):
            _scan_ne(body)
        case _:
            raise AssertionError(f"unexpected neutral {e!r}")


def _scan_ty(t):
    match t:
        case NfBool() | NfUni():
            pass
        case NfFn(_, dom, cod):
            _scan_ty(dom)
            _scan_ty(cod)
        case NfProd(fst, snd):
            _scan_ty(fst)
            _scan_ty(snd)
        case NfModify(_, inner):
            _scan_ty(inner)
        case NfDec(code):
            _scan_nf(code, NfUni())
        case _:
            raise AssertionError(f"unexpected normal type {t!r}")


def test_criterion_4_eta_long_outputs(criterion):
    with criterion(4, "no bare neutral at function or pair type in any output") as info:
        pools = _pools()
        total = 0
        for which in (1, 2, 3):
            outs = pools[which]["outputs"]
            assert outs, f"criterion {which} produced no outputs"
            for _, nf, nfty in outs:
                _scan_ty(nfty)
                _scan_nf(nf, nfty)
                total += 1
        info["detail"] = f"{total} normal forms scanned"


# ---------------------------------------------------------------------------
# Criterion 5: the renaming action satisfies its equations


def test_criterion_5_renaming_equations(criterion):
    with criterion(5, "renaming equations hold on random instances") as info:
        families = {**RF.VARIABLE_EQUATIONS, **RF.COHERENCE_EQUATIONS}
        per = 500
        for j, (name, instance) in enumerate(sorted(families.items())):
            rng = random.Random(80_000 + j)
            for _ in range(per):
                got, want = instance(rng)
                assert eq_ne(RF.P, got, want), f"equation {name} failed"
        info["detail"] = f"{per} instances x {len(families)} equations"


# ---------------------------------------------------------------------------
# Criterion 6: function-type conversion is injective


def _jitter(ty, rng):
    """A syntactically different, convertible variant of a type term."""
    match ty:
        case S.Dec(code) if rng.random() < 0.8:
            return S.Dec(S.If(S.Uni(), code, code, S.True_()))
        case S.Pi(mod, dom, cod):
            return S.Pi(mod, _jitter(dom, rng), _jitter(cod, rng))
        case S.Sig(fst, snd):
            return S.Sig(_jitter(fst, rng), _jitter(snd, rng))
        case S.Mod(mod, inner):
            return S.Mod(mod, _jitter(inner, rng))
        case _:
            return ty


def _next_pi(cfg, ctx, rng):
    for _ in range(200):
        ty = gen_type(cfg, ctx, rng)
        if isinstance(ty, S.Pi):
            return ty
    raise GenExhausted("no function type drawn")


def test_criterion_6_function_type_injectivity(criterion):
    with criterion(6, "function-type conversion is componentwise") as info:
        names = sorted(THEORIES)
        checked = accepted = distinct = 0
        i = 0
        while checked < 200:
            assert i < 2000, "too few function types drawn"
            cfg = GenConfig(seed=90_000 + i, theory=names[i % len(names)])
            i += 1
            rng = random.Random(cfg.seed)
            mt = theory_of(cfg)
            ctx = empty_ctx(mt, rng.choice(list(mt.modes)))
            try:
                a = _next_pi(cfg, ctx, rng)
                b = _jitter(a, rng) if rng.random() < 0.4 else _next_pi(cfg, ctx, rng)
            except GenExhausted:
                continue
            tva = check_type(ctx, a)
            tvb = check_type(ctx, b)
            if not (isinstance(tva, TPi) and isinstance(tvb, TPi)):
                continue
            checked += 1
            if not convert_ty(ctx, tva, tvb):
                continue
            accepted += 1
            distinct += a != b
            assert eq_mod(mt, tva.mod, tvb.mod)
            assert convert_ty(ctx_lock(ctx, tva.mod), tva.dom, tvb.dom)
            inner = ctx_extend(ctx, tva.mod, tva.dom)
            fresh = inner.env.vals[-1]
            assert convert_ty(
                inner,
                inst_ty(mt, tva.cod, fresh),
                inst_ty(mt, tvb.cod, fresh),
            )
        assert accepted >= 60 and distinct >= 1
        info["detail"] = (
            f"{checked} pairs, {accepted} accepted "
            f"({distinct} syntactically distinct), components all convert"
        )


# ---------------------------------------------------------------------------
# Criterion 7: decoded codes are separate from their decodings


def test_criterion_7_universe_separation(criterion):
    with criterion(7, "codes decode only through explicit coercions") as info:
        mt = trivial()
        ctx = empty_ctx(mt, "m")
        bc = S.BoolCode()
        separations = [
            (S.Dec(bc), S.Bool()),
            (S.Dec(S.PiCode(IDM, bc, bc)), S.Pi(IDM, S.Dec(bc), S.Dec(bc))),
            (S.Dec(S.SigCode(bc, bc)), S.Sig(S.Dec(bc), S.Dec(bc))),
            (S.Dec(S.ModCode(IDM, bc)), S.Mod(IDM, S.Dec(bc))),
        ]
        checks = 0
        for dec_ty, plain_ty in separations:
            va = check_type(ctx, dec_ty)
            vb = check_type(ctx, plain_ty)
            assert not convert_ty(ctx, va, vb)
            assert not convert_ty(ctx, vb, va)
            checks += 2

        # an uncoerced use is rejected, the coerced one is accepted
        dctx = ctx_extend(ctx, IDM, check_type(ctx, S.Dec(bc)))
        v = S.Var(0, id_cell(IDM))
        with pytest.raises(CheckError):
            check_tm(dctx, v, TBool())
        check_tm(dctx, S.DecIso(v), TBool())
        checks += 2

        bctx = ctx_extend(ctx, IDM, TBool())
        check_tm(bctx, S.DecIsoInv(S.Var(0, id_cell(IDM))), check_type(bctx, S.Dec(bc)))
        checks += 1

        # transport through a function code, coercing at both ends
        fn_code_ty = S.Dec(S.PiCode(IDM, bc, bc))
        fctx = ctx_extend(ctx, IDM, check_type(ctx, fn_code_ty))
        call = S.App(S.DecIso(S.Var(0, id_cell(IDM))), S.DecIsoInv(S.True_()))
        check_tm(fctx, call, check_type(fctx, S.Dec(bc)))
        checks += 1
        info["detail"] = f"{checks} separations and transports"


# ---------------------------------------------------------------------------
# Criterion 8: the example programs all check


def test_criterion_8_corpus(criterion, capsys):
    with criterion(8, "every example program checks within its time budget") as info:
        assert len(CORPUS) >= 30
        prefixes = {p.name.split("_")[0] for p in CORPUS}
        assert {"trivial", "walking", "pointed", "adjoint"} <= prefixes
        assert any("guarded" in p.name for p in CORPUS)
        slowest = 0.0
        for path in CORPUS:
            start = time.perf_counter()
            rc = cli_main(["check", str(path)])
            took = time.perf_counter() - start
            err = capsys.readouterr().err
            assert rc == 0, f"{path.name}: exit {rc}\n{err}"
            assert took <= 10.0, f"{path.name} took {took:.1f}s"
            slowest = max(slowest, took)
        info["detail"] = f"{len(CORPUS)} files, slowest {slowest:.2f}s"
