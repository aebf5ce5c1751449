"""Tests for term generation, the rewriting oracle, and convertible pairs."""

import random
from collections import Counter

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
    gen_closed_bool,
    gen_distinct_pair,
    gen_type,
    gen_typed_term,
    main,
    mentions,
    oracle_eval_bool,
    oracle_step,
    run_differential,
    run_pairs,
    run_soundness,
    shift,
    subst,
    theory_of,
)
from mtt.cli import Parser, parse_file, tokenize
from mtt.modeth import THEORIES, Modality, gen_cell, id_cell, id_mod, is_id_cell, trivial
from mtt.nbe import TBool, eval_tm, normalize
from mtt.normal import NfFalse, NfTrue
from test_codomains import BINDERS, CORPUS, free_in

IDM = id_mod("m")
L = Modality("m", "m", ("l",))


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


# A value for each field of a term former that holds no term.
NOT_TERMS = {"Modality": L, "Cell2": id_cell(IDM), "int": 0, "str": "c", "bool": False}
FORMERS = sorted(S.Term.__subclasses__(), key=lambda c: c.__name__)


def in_every_field(cls, term):
    """A ``cls`` with ``term(1)`` in each term field that binds a variable
    (by the independent table ``test_codomains.BINDERS``), ``term(0)`` in
    each other term field, and ``NOT_TERMS`` in the rest."""
    args = {}
    for f, ann in cls.__annotations__.items():
        ann = ann.strip("'\"").split(" | ")[0]
        args[f] = term(int(f in BINDERS.get(cls, ()))) if ann == "Term" else NOT_TERMS[ann]
    return cls(**args)


@pytest.mark.parametrize("cls", FORMERS, ids=lambda c: c.__name__)
def test_shift_and_subst_act_under_every_former(cls):
    # Under b binders, variable 0 is bound when b = 1, variable b is the
    # replaced one and variable b + 1 the one that moves down.
    t = in_every_field(cls, lambda b: S.App(S.App(var(0), var(b)), var(b + 1)))
    if cls is S.Var:
        assert shift(t, 2) == var(2) and subst(t, var(5)) == var(5)
        return
    assert shift(t, 2) == in_every_field(
        cls, lambda b: S.App(S.App(var(0 if b else 2), var(b + 2)), var(b + 3))
    )
    assert subst(t, var(5)) == in_every_field(
        cls, lambda b: S.App(S.App(var(0 if b else 5), var(b + 5)), var(b))
    )


def test_shift_and_subst_keep_the_fields_they_do_not_walk():
    lam = S.Lam(var(1), L)
    assert shift(lam, 1).mod is L and subst(lam, S.True_()).mod is L
    for ty in (
        S.Pi(L, S.Bool(), S.Bool(), dependent=False),
        S.Sig(S.Bool(), S.Bool(), dependent=False),
    ):
        assert shift(ty, 1).dependent is False
        assert subst(ty, S.True_()).dependent is False


def subterms(t: S.Term):
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        todo.extend(v for v in vars(u).values() if isinstance(v, S.Term))


def test_mentions_agrees_with_the_free_variable_oracle_on_the_corpus():
    seen = Counter()
    for path in CORPUS:
        _, decls = parse_file(path.read_text(encoding="utf-8"))
        for d in decls:
            for u in (*subterms(d.ty), *subterms(d.body)):
                for k in range(3):
                    got = mentions(u, k)
                    assert got == free_in(u, k), (path.name, d.name, S.show_term(u), k)
                    seen[got] += 1
    assert seen[True] > 100 and seen[False] > 100


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


def _generated_keys(theory: str, seed: int, tries: int) -> list:
    cfg = GenConfig(seed=seed, theory=theory)
    rng = random.Random(cfg.seed)
    mt = theory_of(cfg)
    keys = []
    for _ in range(tries):
        ctx = ctx_for(mt, rng)
        try:
            ty = gen_type(cfg, ctx, rng)
            tyv = check_type(ctx, ty)
            tm = gen_typed_term(cfg, ctx, tyv, rng)
        except GenExhausted:
            continue
        check_tm(ctx, tm, tyv)
        keys += _keys_of(tm)
    return keys


def test_generated_terms_use_whiskered_and_composite_keys():
    mt = theory_of(GenConfig(theory="pointed"))
    keys = _generated_keys("pointed", 1, 400)
    bare = {gen_cell(mt, g).layers for g in mt.cell_gens}
    assert any(not is_id_cell(mt, c) and c.layers not in bare for c in keys)


@pytest.mark.parametrize("theory", sorted(THEORIES))
def test_generated_keys_print_as_cells_that_parse_to_the_same_layers(theory):
    mt = THEORIES[theory]()
    keys = _generated_keys(theory, 3, 200)
    assert any(c.layers for c in keys) == bool(mt.cell_gens)
    for cell in keys:
        assert_cell_reads_back(mt, cell)


def assert_cell_reads_back(mt, cell) -> None:
    """``str(cell)`` parses, as a key on ``cell.src``, to the same cell."""
    p = Parser(tokenize(str(cell)), mt)
    again = p.parse_cell(cell.src)
    assert p.peek().kind == "eof", str(cell)
    assert (again.src, again.tgt, again.layers) == (cell.src, cell.tgt, cell.layers), str(cell)


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
    nf = normalize(empty_ctx(trivial(), "m"), S.Bool(), tm)
    assert nf == (NfTrue() if verdict is Oracle.TRUE else NfFalse())


# ---------------------------------------------------------------------------
# Convertible pairs


@pytest.mark.parametrize("name", CONNECTIVES)
def test_listed_pair_converts(name):
    lhs, rhs, ctx, ty = beta_eta_pairs(name)
    mt = ctx.mt
    assert mt is PAIRS_THEORY()
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


def test_the_seed_7_campaign_prints_the_same_four_lines(capsys):
    # CI's fuzz step runs this campaign; its tallies stay as they were
    # before contexts had one record (the same under PYTHONHASHSEED 0, 1, 2).
    assert main(["--trials", "200", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (
        "soundness: 200 generated terms checked, 0 exhausted\n"
        "differential: 200 terms agreed, 0 exhausted the fuel\n"
        "pairs: 8 rules convert\n"
        "conversion: 1775 pairs agree with read-back, 963 rejected, 6 with non-identity keys\n"
    )
