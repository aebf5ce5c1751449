"""Context readers, renaming actions, decoding, normal-form equality, and
the scope table they read."""

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
    id_cell,
    id_mod,
    pointed,
    adjoint,
    walking,
    vcomp,
    whisker_left,
    whisker_right,
    word_mod,
)
from mtt.normal import (
    EMBEDS,
    Ne,
    Nf,
    NeApp,
    NeBoolRec,
    NeLetMod,
    NeVar,
    NfBoolCode,
    NfDec,
    NfFnCode,
    NfInj,
    NfModify,
    NfModifyCode,
    NfProd,
    NfProdCode,
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
    NfTy,
    eq_ne,
    eq_nf,
    eq_nfty,
    depth,
    locks_of,
    rename_ne,
    rename_nf,
    rename_nfty,
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
L = word_mod(P, ("l",))
IDM = id_mod("m")


# --- locks_of ---------------------------------------------------------------


def test_locks_of_singleton_is_identity():
    mu = word_mod(W, ("mu",))
    t = ctx_extend(empty_ctx(W, "m"), mu, BOOL)
    assert locks_of(t, 0) is id_mod("m")


def test_locks_of_single_lock():
    mu = word_mod(W, ("mu",))
    t = ctx_lock(ctx_extend(empty_ctx(W, "m"), mu, BOOL), mu)
    assert eq_mod(W, locks_of(t, 0), mu)


def test_locks_of_two_locks_fold():
    mt = free_pq()
    a, b = word_mod(mt, ("a",)), word_mod(mt, ("b",))
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
    assert rename_ne(P, RenId(), x) == x


def test_lock_weaken_bumps_index():
    x = NeVar(1, PT)
    got = rename_ne(P, RenLock(L, RenWeaken()), x)
    assert got == NeVar(2, PT)
    assert rename_ne(P, RenWeaken(), x) == NeVar(2, PT)


def test_key_action_composes_cell():
    # theta = (id | Bool); key by pt : id => l maps theta.lock(l) -> theta
    theta = (("var", IDM),)
    got = rename_ne(P, RenKey(PT, RF.key_locks(theta)), NeVar(0, id_cell(IDM)))
    assert isinstance(got, NeVar) and got.idx == 0
    assert eq_cell(P, got.cell, PT)


def test_key_action_whiskers_by_inner_locks():
    # theta = (id | Bool).lock(l): the key is whiskered by the existing lock
    theta = (("var", IDM), ("lock", L))
    got = rename_ne(P, RenKey(PT, RF.key_locks(theta)), NeVar(0, PT))
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
    got = rename_ne(P, r, NeVar(0, id_cell(IDM)))
    assert isinstance(got, NeVar) and got.idx == 3
    assert eq_cell(P, got.cell, PT)


def test_ext_skips_other_variables():
    r = RenExt(RenId(), NeVar(3, PT), L)
    got = rename_ne(P, r, NeVar(2, PT))
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
    got = rename_ne(P, r1, x)
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
    a, b, pa = word_mod(mt, ("a",)), word_mod(mt, ("b",)), gen_cell(mt, "pa")
    ba = compose_mod(a, b)
    t = (("var", ba),)
    x = NeVar(0, id_cell(ba))
    nested = RenLock(b, RenLock(a, RenKey(pa, RF.key_locks(t))))
    assert ren_respects_equations(mt, nested, RenLock(ba, RenKey(pa, RF.key_locks(t))), x)
    got = rename_ne(mt, nested, x)
    assert eq_cell(mt, got.cell, vcomp(whisker_right(pa, ba), id_cell(ba), mt))
    # A walk through box a (box b x) crosses the same locks in that order.
    boxed = rename_nf(mt, RenKey(pa, RF.key_locks(t)), NfMkBox(a, NfMkBox(b, NfInj(x))))
    assert eq_nf(mt, boxed, NfMkBox(a, NfMkBox(b, NfInj(got))))


def test_weakening_under_a_binder_bumps_only_the_free_variable():
    # weakening a lambda bumps only the free variable
    free = NfLam(IDM, NfInj(NeVar(1, id_cell(IDM))))
    bound = NfLam(IDM, NfInj(NeVar(0, id_cell(IDM))))
    assert eq_nf(P, rename_nf(P, RenWeaken(), free),
                 NfLam(IDM, NfInj(NeVar(2, id_cell(IDM)))))
    assert eq_nf(P, rename_nf(P, RenWeaken(), bound), bound)


def test_a_key_reaches_a_free_variable_under_a_binder():
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
    got = rename_nf(P, RenKey(PT, RF.key_locks(theta)), u)
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


def _scoped_samples(keyed: bool) -> dict:
    """One form per scoped field of a normal form, over theta = (id | Bool)
    with x its variable, before (``keyed`` False) and after renaming by the
    key of pt.  In the field, x sits under the field's lock l with cell pt
    (keyed: pt whiskered by l, after pt), or under the field's binder with
    the identity cell (keyed: pt) beside the bound variable, whose cell
    starts at the binder's annotation.  A LetMod locks its scrutinee by
    mu = l and binds mu.nu = l.l.l in its branch."""
    ll = compose_mod(L, L)
    locked = NfInj(NeVar(0, vcomp(whisker_right(PT, L), PT, P) if keyed else PT))
    outside = NeVar(0, PT if keyed else id_cell(IDM))

    def under(ann):
        return NfPair(NfInj(NeVar(1, outside.cell)), NfInj(NeVar(0, id_cell(ann))))

    def letmod(motive=NfBool(), branch=NfTrue()):
        return NfInj(NeLetMod(L, ll, motive, locked.ne, branch))

    return {
        "NfFn.dom": NfFn(L, NfDec(locked), NfBool()),
        "NfFn.cod": NfFn(L, NfBool(), NfDec(under(L))),
        "NfProd.snd": NfProd(NfBool(), NfDec(under(IDM))),
        "NfModify.ty": NfModify(L, NfDec(locked)),
        "NeApp.arg": NfInj(NeApp(outside, L, locked)),
        "NeBoolRec.motive": NfInj(NeBoolRec(NfDec(under(IDM)), outside, NfTrue(), NfFalse())),
        "NeLetMod.motive": letmod(motive=NfDec(under(L))),
        "NeLetMod.scrut": letmod(),
        "NeLetMod.branch": letmod(branch=under(compose_mod(L, ll))),
        "NfLam.body": NfLam(ll, under(ll)),
        "NfMkBox.body": NfMkBox(L, locked),
        "NfFnCode.dom": NfFnCode(L, locked, NfBoolCode()),
        "NfFnCode.cod": NfFnCode(L, NfBoolCode(), under(L)),
        "NfProdCode.snd": NfProdCode(NfBoolCode(), under(IDM)),
        "NfModifyCode.code": NfModifyCode(L, locked),
    }


@pytest.mark.parametrize("field", sorted(_scoped_samples(False)))
def test_a_key_whiskers_a_variable_in_each_scoped_field(field):
    before, want = _scoped_samples(False)[field], _scoped_samples(True)[field]
    key = RenKey(PT, RF.key_locks((("var", IDM),)))
    if isinstance(before, NfTy):
        got, same = rename_nfty(P, key, before), eq_nfty
    else:
        got, same = rename_nf(P, key, before), eq_nf
    assert same(P, got, want)
    assert not same(P, got, before)


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


def ren_respects_equations(mt, r1, r2, x) -> bool:
    """Do two parallel renamings act identically on the neutral x?"""
    return eq_ne(mt, rename_ne(mt, r1, x), rename_ne(mt, r2, x))


def test_ren_respects_equations_comp_unit():
    theta = (("var", IDM),)
    r = RenKey(PT, RF.key_locks(theta))
    x = NeVar(0, id_cell(IDM))
    assert ren_respects_equations(P, RenComp(RenId(), r), r, x)
    assert ren_respects_equations(P, RenComp(r, RenId()), r, x)


def test_key_of_identity_cell_acts_trivially():
    theta = (("var", IDM),)
    x = NeVar(0, PT)
    assert ren_respects_equations(P, RenKey(id_cell(L), RF.key_locks(theta)), RenId(), x)


# --- decoding ---------------------------------------------------------------


def test_decode_true():
    assert decode_nf(NfTrue()) == S.True_()


def test_decode_mkbox():
    mu = word_mod(W, ("mu",))
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


# --- the scope table --------------------------------------------------------


def test_each_normal_form_shares_its_field_names_with_its_term_class():
    # The embedding builds a term positionally from the fields its normal
    # form has, so those must lead the term class's fields, and the rest
    # must have defaults.  Only an application's modality is dropped.
    forms = {*Nf.__subclasses__(), *Ne.__subclasses__(), *NfTy.__subclasses__()}
    assert set(EMBEDS) == forms - {NfInj}
    dropped = []
    for c, term in EMBEDS.items():
        dropped += [f"{c.__name__}.{f}" for f in c.__match_args__ if f not in term.__match_args__]
        kept = [f for f in term.__match_args__ if f in c.__match_args__]
        assert term.__match_args__[: len(kept)] == tuple(kept), c
        assert len(term.__match_args__) - len(kept) <= len(term.__init__.__defaults__ or ()), c
    assert dropped == ["NeApp.mod"]


def test_binds_is_read_off_the_scope_table():
    assert S.BINDS == {
        S.Pi: ("cod",),
        S.Sig: ("snd",),
        S.Lam: ("body",),
        S.If: ("motive",),
        S.LetMod: ("motive", "branch"),
        S.PiCode: ("cod",),
        S.SigCode: ("snd",),
    }


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
