"""Tests for term generation, the rewriting oracle, and convertible pairs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mtt import syntax as S
from mtt.check import CheckError, check_tm, check_type, convert_tm, empty_ctx
from mtt.harness import (
    CONNECTIVES,
    GenConfig,
    GenExhausted,
    HarnessError,
    Oracle,
    PAIRS_THEORY,
    beta_eta_pairs,
    ctx_for,
    ctx_of_telescope,
    gen_closed_bool,
    gen_distinct_pair,
    gen_type,
    gen_typed_term,
    main,
    oracle_eval_bool,
    oracle_step,
    run_differential,
    run_pairs,
    run_soundness,
    shift,
    subst,
    theory_of,
)
from mtt.modeth import CellGen, id_cell, id_mod, is_id_cell, trivial
from mtt.nbe import TBool, eval_tm, normalize
from mtt.normal import NfFalse, NfTrue
from mtt.syntax import Telescope

IDM = id_mod("m")


def var(k: int) -> S.Var:
    return S.Var(k, id_cell(IDM))


# ---------------------------------------------------------------------------
# Substitution


def test_shift_moves_free_variables_only():
    assert shift(var(0), 2) == var(2)
    assert shift(S.Lam(var(0)), 2) == S.Lam(var(0))
    assert shift(S.Lam(var(1)), 2) == S.Lam(var(3))


def test_shift_respects_each_binder_shape():
    # the motive of an elimination binds the scrutinee variable
    t = S.If(var(0), var(0), var(0), var(0))
    assert shift(t, 1) == S.If(var(0), var(1), var(1), var(1))
    lm = S.LetMod(IDM, IDM, var(0), var(0), var(0))
    assert shift(lm, 1) == S.LetMod(IDM, IDM, var(0), var(1), var(0))
    # a bound occurrence under a dependent binder stays put
    assert shift(S.Pi(IDM, var(0), var(0)), 1) == S.Pi(IDM, var(1), var(0))


def test_subst_replaces_and_lowers():
    assert subst(var(0), S.True_()) == S.True_()
    assert subst(var(1), S.True_()) == var(0)
    body = S.App(var(0), var(1))
    assert subst(S.Lam(body), S.False_()) == S.Lam(S.App(var(0), S.False_()))


def test_subst_shifts_the_payload_under_binders():
    # (\. \. 1) false --> \. false ; the payload's own variables shift
    body = S.Lam(var(1))
    assert subst(body, var(3)) == S.Lam(var(4))


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_hand_derived_if_over_redex():
    t = S.If(S.Bool(), S.False_(), S.True_(), S.App(S.Lam(var(0)), S.True_()))
    assert oracle_eval_bool(t, 100) is Oracle.FALSE


def test_oracle_hand_derived_apply_identity():
    t = S.App(S.Lam(S.App(var(0), S.True_())), S.Lam(var(0)))
    assert oracle_eval_bool(t, 100) is Oracle.TRUE


def test_oracle_projections():
    assert oracle_eval_bool(S.Proj2(S.Pair(S.True_(), S.False_())), 10) is Oracle.FALSE
    assert oracle_eval_bool(S.Proj1(S.Pair(S.True_(), S.False_())), 10) is Oracle.TRUE


def test_oracle_reduces_the_scrutinee_before_branches():
    t = S.If(S.Bool(), S.True_(), S.False_(), S.App(S.Lam(var(0)), S.False_()))
    assert oracle_step(t) == S.If(S.Bool(), S.True_(), S.False_(), S.False_())


def test_oracle_beta_before_argument():
    # normal order: the outer redex fires without evaluating the argument
    loop = S.App(S.Lam(S.App(var(0), var(0))), S.Lam(S.App(var(0), var(0))))
    t = S.App(S.Lam(S.True_()), loop)
    assert oracle_eval_bool(t, 2) is Oracle.TRUE


def test_oracle_fuel_exhaustion():
    loop = S.App(S.Lam(S.App(var(0), var(0))), S.Lam(S.App(var(0), var(0))))
    assert oracle_eval_bool(loop, 500) is Oracle.OUT_OF_FUEL
    assert oracle_eval_bool(S.True_(), 0) is Oracle.OUT_OF_FUEL


def test_oracle_rejects_stuck_and_foreign_terms():
    with pytest.raises(HarnessError, match="stuck"):
        oracle_eval_bool(S.Lam(var(0)), 10)
    with pytest.raises(HarnessError, match="boolean fragment"):
        oracle_eval_bool(S.MkBox(IDM, S.True_()), 10)


# ---------------------------------------------------------------------------
# Generation


@pytest.mark.parametrize("theory", ["trivial", "walking", "pointed", "adjoint"])
def test_generated_terms_check(theory):
    for i in range(40):
        cfg = GenConfig(seed=i, theory=theory, max_size=12)
        rng = random.Random(cfg.seed)
        mt = theory_of(cfg)
        ctx = empty_ctx(mt, rng.choice(list(mt.modes)))
        try:
            ty = gen_type(cfg, ctx, rng)
            tyv = check_type(ctx, ty)
            tm = gen_typed_term(cfg, ctx, tyv, rng)
        except GenExhausted:
            continue
        check_tm(ctx, tm, tyv)


def _keys_of(t):
    if isinstance(t, S.Var):
        yield t.cell
    for v in vars(t).values():
        if isinstance(v, S.Term):
            yield from _keys_of(v)


def test_generated_terms_use_whiskered_and_composite_keys():
    cfg = GenConfig(seed=1, theory="pointed")
    rng = random.Random(cfg.seed)
    mt = theory_of(cfg)
    keys = []
    for _ in range(400):
        ctx = ctx_for(mt, rng)
        try:
            ty = gen_type(cfg, ctx, rng)
            tyv = check_type(ctx, ty)
            tm = gen_typed_term(cfg, ctx, tyv, rng)
        except GenExhausted:
            continue
        check_tm(ctx, tm, tyv)
        keys += _keys_of(tm)
    assert any(not is_id_cell(mt, c) and not isinstance(c.expr, CellGen) for c in keys)


def test_generation_is_deterministic():
    def once():
        cfg = GenConfig(seed=42, theory="pointed", max_size=14)
        rng = random.Random(cfg.seed)
        ctx = empty_ctx(theory_of(cfg), "m")
        ty = gen_type(cfg, ctx, rng)
        tyv = check_type(ctx, ty)
        return ty, gen_typed_term(cfg, ctx, tyv, rng)

    assert once() == once()


def test_generation_reports_exhaustion_on_opaque_codes():
    mt = trivial()
    ctx = empty_ctx(mt, "m")
    ctx = _extend_uni_var(ctx)
    tyv = check_type(ctx, S.Dec(var(0)))
    with pytest.raises(GenExhausted):
        gen_typed_term(GenConfig(seed=0), ctx, tyv)


def _extend_uni_var(ctx):
    from mtt.check import ctx_extend
    from mtt.nbe import TUni

    return ctx_extend(ctx, IDM, TUni())


def test_distinct_pairs_are_rejected_by_conversion():
    for i in range(30):
        cfg = GenConfig(seed=i, max_size=8)
        rng = random.Random(cfg.seed)
        mt = theory_of(cfg)
        ctx = empty_ctx(mt, "m")
        ty = gen_type(cfg, ctx, rng)
        tyv = check_type(ctx, ty)
        try:
            a, b = gen_distinct_pair(cfg, ctx, tyv, rng)
        except GenExhausted:
            continue
        check_tm(ctx, a, tyv)
        check_tm(ctx, b, tyv)
        va, vb = eval_tm(mt, ctx.env, a), eval_tm(mt, ctx.env, b)
        assert not convert_tm(ctx, tyv, va, vb)


def test_closed_bool_generator_is_deterministic():
    assert gen_closed_bool(GenConfig(seed=9)) == gen_closed_bool(GenConfig(seed=9))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_oracle_agrees_with_normalization(seed):
    cfg = GenConfig(seed=seed, max_size=12)
    tm = gen_closed_bool(cfg)
    verdict = oracle_eval_bool(tm, 10_000)
    if verdict is Oracle.OUT_OF_FUEL:
        return
    nf = normalize(trivial(), Telescope("m", ()), S.Bool(), tm)
    assert nf == (NfTrue() if verdict is Oracle.TRUE else NfFalse())


# ---------------------------------------------------------------------------
# Convertible pairs


@pytest.mark.parametrize("name", CONNECTIVES)
def test_listed_pair_converts(name):
    mt = PAIRS_THEORY()
    lhs, rhs, tele, ty = beta_eta_pairs(name)
    ctx = ctx_of_telescope(mt, tele)
    tyv = check_type(ctx, ty)
    check_tm(ctx, rhs, tyv)
    assert convert_tm(ctx, tyv, eval_tm(mt, ctx.env, lhs), eval_tm(mt, ctx.env, rhs))


def test_pair_table_is_complete():
    assert set(CONNECTIVES) == {
        "pi-beta",
        "pi-eta",
        "sigma-beta",
        "sigma-eta",
        "bool-beta",
        "modal-beta",
        "deciso-beta",
        "deciso-eta",
    }
    with pytest.raises(HarnessError, match="unknown connective"):
        beta_eta_pairs("nonsense")


def test_conversion_still_discriminates():
    mt = PAIRS_THEORY()
    ctx = empty_ctx(mt, "m")
    assert not convert_tm(
        ctx,
        TBool(),
        eval_tm(mt, ctx.env, S.True_()),
        eval_tm(mt, ctx.env, S.False_()),
    )


# ---------------------------------------------------------------------------
# Campaign entry points


def test_campaigns_pass(capsys):
    assert run_soundness(40, seed=3)
    assert run_differential(60, seed=3)
    assert run_pairs()
    assert main(["--trials", "25", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "soundness:" in out and "differential:" in out and "pairs:" in out
    assert "conversion:" in out
