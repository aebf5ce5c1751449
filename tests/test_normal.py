"""Context readers, renaming actions, decoding, and normal-form equality."""

from random import Random

import pytest

from mtt import syntax as S
from mtt.check import CheckError, ctx_extend, ctx_lock, empty_ctx
from mtt.modeth import (
    Modality,
    ModeTheory,
    compose_mod,
    eq_cell,
    eq_mod,
    gen_cell,
    gen_mod,
    id_cell,
    id_mod,
    pointed,
    adjoint,
    walking,
    vcomp,
    whisker_left,
    whisker_right,
)
from mtt.normal import (
    NeApp,
    NeVar,
    NfInj,
    NfLam,
    NfMkBox,
    NfPair,
    NfTrue,
    NfFalse,
    NormalError,
    RenComp,
    RenExt,
    RenId,
    RenKey,
    RenLock,
    RenWeaken,
    decode_ne,
    decode_nf,
    decode_nfty,
    NfBool,
    NfFn,
    eq_ne,
    eq_nf,
    eq_nfty,
    depth,
    lift,
    locks_of,
    rename_ne,
    rename_nf,
    tele_entry,
)
from mtt.nbe import BOOL

import _renfuzz as RF


def free_pq() -> ModeTheory:
    return ModeTheory(
        name="free-pq",
        modes=frozenset({"p", "q", "r"}),
        modality_gens={"a": ("p", "q"), "b": ("q", "r")},
        cell_gens={},
    )


P = pointed()
W = walking()
PT = gen_cell(P, "pt")
L = gen_mod(P, "l")
IDM = id_mod("m")


# --- locks_of ---------------------------------------------------------------


def test_locks_of_singleton_is_identity():
    mu = gen_mod(W, "mu")
    t = ctx_extend(empty_ctx(W, "m"), mu, BOOL)
    assert locks_of(t, 0) is id_mod("m")


def test_locks_of_single_lock():
    mu = gen_mod(W, "mu")
    t = ctx_lock(ctx_extend(empty_ctx(W, "m"), mu, BOOL), mu)
    assert eq_mod(W, locks_of(t, 0), mu)


def test_locks_of_two_locks_fold():
    mt = free_pq()
    a, b = gen_mod(mt, "a"), gen_mod(mt, "b")
    t = ctx_extend(empty_ctx(mt, "r"), id_mod("r"), BOOL)
    t = ctx_lock(ctx_lock(t, b), a)
    lk = locks_of(t, 0)
    # first lock b is the outer factor, so the word reads a-then-b
    assert lk == Modality("p", "r", ("a", "b"))


def test_locks_of_skips_inner_vars_locks():
    t = ctx_lock(ctx_extend(ctx_lock(ctx_extend(empty_ctx(P, "m"), IDM, BOOL), L), IDM, BOOL), L)
    assert eq_mod(P, locks_of(t, 0), L)
    assert eq_mod(P, locks_of(t, 1), compose_mod(L, L))


def test_locks_of_bad_index():
    t = ctx_extend(empty_ctx(P, "m"), IDM, BOOL)
    for k in (1, -1):
        with pytest.raises(NormalError, match=f"variable index {k} does not resolve"):
            locks_of(t, k)
        with pytest.raises(NormalError, match=f"variable index {k} does not resolve"):
            tele_entry(t, k)


# --- variable actions -------------------------------------------------------


def test_rename_identity_fixes_variable():
    x = NeVar(2, PT)
    assert rename_ne(P, RenId(), x, "m") == x


def test_lock_weaken_bumps_index():
    x = NeVar(1, PT)
    got = rename_ne(P, RenLock(L, RenWeaken()), x, "m")
    assert got == NeVar(2, PT)
    assert rename_ne(P, RenWeaken(), x, "m") == NeVar(2, PT)


def test_key_action_composes_cell():
    # theta = (id | Bool); key by pt : id => l maps theta.lock(l) -> theta
    theta = (("var", IDM),)
    got = rename_ne(P, RenKey(PT, RF.key_locks(theta)), NeVar(0, id_cell(IDM)), "m")
    assert isinstance(got, NeVar) and got.idx == 0
    assert eq_cell(P, got.cell, PT)


def test_key_action_whiskers_by_inner_locks():
    # theta = (id | Bool).lock(l): the key is whiskered by the existing lock
    theta = (("var", IDM), ("lock", L))
    got = rename_ne(P, RenKey(PT, RF.key_locks(theta)), NeVar(0, PT), "m")
    assert isinstance(got, NeVar)
    want = vcomp(whisker_left(L, PT), PT, P)
    assert eq_cell(P, got.cell, want)
    # interchange: building the second layer inside instead of outside agrees
    assert eq_cell(P, got.cell, vcomp(whisker_right(PT, L), PT, P))


def test_ext_substitutes_payload_at_zero():
    # the source context has a lock l over the payload variable 3
    src = (("var", IDM),) * 4 + (("lock", L),)
    plocks = RF.scan_locks(src, 3)
    r = RenExt(RenId(), NeVar(3, PT), plocks)
    got = rename_ne(P, r, NeVar(0, id_cell(IDM)), "m")
    assert isinstance(got, NeVar) and got.idx == 3
    assert eq_cell(P, got.cell, PT)


def test_ext_skips_other_variables():
    r = RenExt(RenId(), NeVar(3, PT), L)
    got = rename_ne(P, r, NeVar(2, PT), "m")
    assert got == NeVar(1, PT)


def test_lock_functoriality_with_key_hand_computed():
    # theta0 = (id | Bool); r = key(pt), s = lock_l(weaken); lock both by l.
    # Acting on x0 with cell pt in theta0.lock(id).lock(l): the key layer
    # lands inside the composite lock, the weaken bumps the index.
    theta0 = (("var", IDM),)
    r = RenKey(PT, RF.key_locks(theta0))
    s = RenLock(L, RenWeaken())
    r1 = RenComp(RenLock(L, r), RenLock(L, s))
    x = NeVar(0, PT)
    got = rename_ne(P, r1, x, "m")
    want = NeVar(1, vcomp(whisker_left(L, PT), PT, P))
    assert eq_ne(P, got, want)


def test_nested_locks_fuse_outer_lock_last():
    # Two distinct endo generators make the fusion order observable (in
    # pointed every word is a power of l).  The outer lock b is applied last,
    # so the fused lock is a.b, and the key's whisker a>a.b fits x's cell.
    mt = ModeTheory(
        "ab",
        ("m",),
        {"a": ("m", "m"), "b": ("m", "m")},
        {"pa": (IDM, Modality("m", "m", ("a",)))},
    )
    a, b, pa = gen_mod(mt, "a"), gen_mod(mt, "b"), gen_cell(mt, "pa")
    ba = compose_mod(a, b)
    t = (("var", ba),)
    x = NeVar(0, id_cell(ba))
    nested = RenLock(b, RenLock(a, RenKey(pa, RF.key_locks(t))))
    assert ren_respects_equations(mt, nested, RenLock(ba, RenKey(pa, RF.key_locks(t))), x, "m")
    got = rename_ne(mt, nested, x, "m")
    assert eq_cell(mt, got.cell, vcomp(whisker_right(pa, ba), id_cell(ba), mt))


def test_lift_weaken_under_binder():
    # weakening a lambda bumps only the free variable
    free = NfLam(IDM, NfInj(NeVar(1, id_cell(IDM))))
    bound = NfLam(IDM, NfInj(NeVar(0, id_cell(IDM))))
    assert eq_nf(P, rename_nf(P, RenWeaken(), free, "m"),
                 NfLam(IDM, NfInj(NeVar(2, id_cell(IDM)))))
    assert eq_nf(P, rename_nf(P, RenWeaken(), bound, "m"), bound)


def test_lift_pushes_key_past_binder():
    # u lives over (id | Pi).lock(id); the key by pt retargets it to lock(l).
    # The free variable appears once outside the argument lock (cell becomes
    # pt) and once under it (cell becomes pt whiskered by the lock, then pt).
    theta = (("var", IDM),)
    u = NfLam(
        L,
        NfInj(
            NeApp(
                NeVar(1, id_cell(IDM)),
                L,
                NfPair(NfInj(NeVar(0, id_cell(L))), NfInj(NeVar(1, PT))),
            )
        ),
    )
    got = rename_nf(P, RenKey(PT, RF.key_locks(theta)), u, "m")
    want = NfLam(
        L,
        NfInj(
            NeApp(
                NeVar(1, PT),
                L,
                NfPair(
                    NfInj(NeVar(0, id_cell(L))),
                    NfInj(NeVar(1, vcomp(whisker_right(PT, L), PT, P))),
                ),
            )
        ),
    )
    assert eq_nf(P, got, want)


# --- equation families, randomized -----------------------------------------


@pytest.mark.parametrize("name", sorted(RF.VARIABLE_EQUATIONS))
def test_variable_equations_random(name):
    rng = Random(f"normal-{name}")
    fn = RF.VARIABLE_EQUATIONS[name]
    for _ in range(60):
        got, want = fn(rng)
        assert eq_ne(RF.P, got, want)


@pytest.mark.parametrize("name", sorted(RF.COHERENCE_EQUATIONS))
def test_coherence_equations_random(name):
    rng = Random(f"normal-{name}")
    fn = RF.COHERENCE_EQUATIONS[name]
    for _ in range(60):
        got, want = fn(rng)
        assert eq_ne(RF.P, got, want)


def ren_respects_equations(mt, r1, r2, x, mode) -> bool:
    """Do two parallel renamings act identically on the neutral x?"""
    return eq_ne(mt, rename_ne(mt, r1, x, mode), rename_ne(mt, r2, x, mode))


def test_ren_respects_equations_comp_unit():
    theta = (("var", IDM),)
    r = RenKey(PT, RF.key_locks(theta))
    x = NeVar(0, id_cell(IDM))
    assert ren_respects_equations(P, RenComp(RenId(), r), r, x, "m")
    assert ren_respects_equations(P, RenComp(r, RenId()), r, x, "m")


def test_key_of_identity_cell_acts_trivially():
    theta = (("var", IDM),)
    x = NeVar(0, PT)
    assert ren_respects_equations(P, RenKey(id_cell(L), RF.key_locks(theta)), RenId(), x, "m")


# --- decoding ---------------------------------------------------------------


def test_decode_true():
    assert decode_nf(NfTrue()) == S.True_()


def test_decode_mkbox():
    mu = gen_mod(W, "mu")
    assert decode_nf(NfMkBox(mu, NfTrue())) == S.MkBox(mu, S.True_())


def test_decode_variable():
    assert decode_ne(NeVar(0, id_cell(IDM))) == S.Var(0, id_cell(IDM))


def test_decode_eta_long_function():
    u = NfLam(IDM, NfInj(NeApp(NeVar(1, id_cell(IDM)), IDM,
                               NfInj(NeVar(0, id_cell(IDM))))))
    want = S.Lam(S.App(S.Var(1, id_cell(IDM)), S.Var(0, id_cell(IDM))))
    assert decode_nf(u) == want


def test_decode_type():
    t = NfFn(IDM, NfBool(), NfBool())
    assert decode_nfty(t) == S.Pi(IDM, S.Bool(), S.Bool())


# --- equality ---------------------------------------------------------------


def test_eq_nf_reflexive():
    u = NfPair(NfTrue(), NfLam(L, NfInj(NeVar(0, id_cell(L)))))
    assert eq_nf(P, u, u)


def test_eq_nf_unit_law_on_cells():
    a = NfInj(NeVar(0, vcomp(PT, id_cell(IDM), P)))
    b = NfInj(NeVar(0, PT))
    assert eq_nf(P, a, b)


def test_eq_nf_distinct_constructors():
    assert not eq_nf(P, NfTrue(), NfFalse())
    assert not eq_nf(P, NfTrue(), NfInj(NeVar(0, id_cell(IDM))))


def test_eq_nf_congruence():
    a = NfPair(NfTrue(), NfFalse())
    b = NfPair(NfTrue(), NfTrue())
    assert not eq_nf(P, a, b)
    assert eq_nf(P, a, NfPair(NfTrue(), NfFalse()))


def test_eq_nf_modality_rewriting():
    mt = adjoint()
    roundtrip = Modality("n", "n", ("l", "r"))
    assert eq_nf(mt, NfMkBox(roundtrip, NfTrue()), NfMkBox(id_mod("n"), NfTrue()))


def test_eq_nfty_compares_cells_inside():
    a = NfFn(L, NfBool(), NfBool())
    b = NfFn(Modality("m", "m", ("l",)), NfBool(), NfBool())
    assert eq_nfty(P, a, b)
    assert not eq_nfty(P, a, NfFn(IDM, NfBool(), NfBool()))


# --- contexts ---------------------------------------------------------------


def test_telescope_depth_and_modes():
    t = empty_ctx(P, "m")
    t = ctx_extend(t, IDM, BOOL)
    t = ctx_lock(t, L)
    t = ctx_extend(t, L, BOOL)
    assert depth(t) == 2
    assert tele_entry(t, 0) == (L, BOOL) and tele_entry(t, 1) == (IDM, BOOL)
    with pytest.raises(CheckError):
        ctx_lock(t, id_mod("n"))  # its target mode is not the ambient mode
