"""Normalization-by-evaluation tests.

Every expected normal form below was derived by hand: evaluate the term in
the context's environment, then read the eta-long reification off the typing
discipline (functions expand to lambdas, pairs to projections, decoded
canonical codes gain exactly one coercion marker).
"""

import pytest

from mtt import nbe
from mtt.conv import conv
from mtt.check import check_program, check_type, ctx_extend, ctx_lock, empty_ctx
from mtt import normal as N
from mtt import syntax as S
from mtt.modeth import (
    Modality,
    compose_mod,
    gen_cell,
    id_cell,
    id_mod,
    pointed,
    trivial,
    vcomp,
    walking,
    whisker_left,
    whisker_right,
    word_mod,
)
from mtt.nbe import NbeError, normalize, normalize_ty
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
    eq_nf,
    eq_nfty,
)

T = trivial()
W = walking()
P = pointed()

IDM = id_mod("m")
MU = word_mod(W, ("mu",))
L = word_mod(P, ("l",))
PT = gen_cell(P, "pt")


def var(k, mod=IDM):
    return S.Var(k, id_cell(mod))


def entry(ty, mod=IDM):
    return mod, ty


def ctx_of(mt, *entries):
    """A context at mode m.  Each entry, oldest first, is a lock (a
    modality) or a variable (an ``entry``, its type checked behind a lock
    for its annotation)."""
    ctx = empty_ctx(mt, "m")
    for e in entries:
        if isinstance(e, Modality):
            ctx = ctx_lock(ctx, e)
        else:
            mod, ty = e
            ctx = ctx_extend(ctx, mod, check_type(ctx_lock(ctx, mod), ty))
    return ctx


# ---------------------------------------------------------------------------
# Beta computation


def test_beta_redex_computes():
    out = normalize(empty_ctx(T, "m"), S.Bool(), S.App(S.Lam(var(0)), S.True_()))
    assert out == NfTrue()


def test_beta_under_binder():
    tm = S.Lam(S.App(S.Lam(var(0)), var(0)))
    out = normalize(empty_ctx(T, "m"), S.Pi(IDM, S.Bool(), S.Bool()), tm)
    assert eq_nf(T, out, NfLam(IDM, NfInj(NeVar(0, id_cell(IDM)))))


def test_pair_projections_compute():
    pair = S.Pair(S.True_(), S.False_())
    assert normalize(empty_ctx(T, "m"), S.Bool(), S.Proj1(pair)) == NfTrue()
    assert normalize(empty_ctx(T, "m"), S.Bool(), S.Proj2(pair)) == NfFalse()


def test_boolrec_computes_on_both_constants():
    def rec(s):
        return S.If(S.Bool(), S.True_(), S.False_(), s)

    assert normalize(empty_ctx(T, "m"), S.Bool(), rec(S.True_())) == NfTrue()
    assert normalize(empty_ctx(T, "m"), S.Bool(), rec(S.False_())) == NfFalse()


def test_letmod_computes_on_boxed_value():
    tm = S.LetMod(IDM, MU, S.Bool(), S.MkBox(MU, S.True_()), S.Var(0, id_cell(MU)))
    assert normalize(empty_ctx(W, "m"), S.Bool(), tm) == NfTrue()


# ---------------------------------------------------------------------------
# Eta expansion


def test_eta_expands_function_variable():
    # x : Uni, f : (id | Pi (id | dec x) -> dec x) |- f  normalizes to
    # \y. f y with the decoded-code boundary preserved on both sides.
    ctx = ctx_of(T, entry(S.Uni()), entry(S.Pi(IDM, S.Dec(var(0)), S.Dec(var(1)))))
    ty = S.Pi(IDM, S.Dec(var(1)), S.Dec(var(2)))
    out = normalize(ctx, ty, var(0))
    want = NfLam(
        IDM,
        NfInj(NeApp(NeVar(1, id_cell(IDM)), IDM, NfInj(NeVar(0, id_cell(IDM))))),
    )
    assert eq_nf(T, out, want)


def test_eta_expands_pair_variable():
    ctx = ctx_of(T, entry(S.Sig(S.Bool(), S.Bool())))
    out = normalize(ctx, S.Sig(S.Bool(), S.Bool()), var(0))
    want = NfPair(
        NfInj(NeProj1(NeVar(0, id_cell(IDM)))),
        NfInj(NeProj2(NeVar(0, id_cell(IDM)))),
    )
    assert eq_nf(T, out, want)


def test_projection_spine_on_atom():
    ctx = ctx_of(T, entry(S.Sig(S.Bool(), S.Bool())))
    out = normalize(ctx, S.Bool(), S.Proj1(var(0)))
    assert eq_nf(T, out, NfInj(NeProj1(NeVar(0, id_cell(IDM)))))


def test_boolrec_neutral_spine():
    ctx = ctx_of(T, entry(S.Bool()))
    tm = S.If(S.Bool(), S.True_(), S.False_(), var(0))
    out = normalize(ctx, S.Bool(), tm)
    want = NfInj(NeBoolRec(NfBool(), NeVar(0, id_cell(IDM)), NfTrue(), NfFalse()))
    assert eq_nf(T, out, want)


# ---------------------------------------------------------------------------
# Modal types


def test_box_of_constant():
    out = normalize(empty_ctx(W, "m"), S.Mod(MU, S.Bool()), S.MkBox(MU, S.True_()))
    assert eq_nf(W, out, NfMkBox(MU, NfTrue()))


def test_letmod_neutral_spine():
    ctx = ctx_of(W, entry(S.Mod(MU, S.Bool())))
    tm = S.LetMod(IDM, MU, S.Bool(), var(0), S.True_())
    out = normalize(ctx, S.Bool(), tm)
    want = NfInj(NeLetMod(IDM, MU, NfBool(), NeVar(0, id_cell(IDM)), NfTrue()))
    assert eq_nf(W, out, want)


def test_letmod_box_roundtrip_stays_neutral():
    # letbox y = x in box y  does not compute on an atom scrutinee; the
    # branch still reifies eta-long with the composite-annotated variable.
    ctx = ctx_of(W, entry(S.Mod(MU, S.Bool())))
    tm = S.LetMod(
        IDM,
        MU,
        S.Mod(MU, S.Bool()),
        var(0),
        S.MkBox(MU, S.Var(0, id_cell(MU))),
    )
    out = normalize(ctx, S.Mod(MU, S.Bool()), tm)
    want = NfInj(
        NeLetMod(
            IDM,
            MU,
            NfModify(MU, NfBool()),
            NeVar(0, id_cell(IDM)),
            NfMkBox(MU, NfInj(NeVar(0, id_cell(MU)))),
        )
    )
    assert eq_nf(W, out, want)


def test_application_under_lock_annotates_argument():
    ctx = ctx_of(W, entry(S.Pi(MU, S.Bool(), S.Bool())), entry(S.Bool(), MU))
    tm = S.App(var(1), S.Var(0, id_cell(MU)))
    out = normalize(ctx, S.Bool(), tm)
    want = NfInj(
        NeApp(NeVar(1, id_cell(IDM)), MU, NfInj(NeVar(0, id_cell(MU))))
    )
    assert eq_nf(W, out, want)


# ---------------------------------------------------------------------------
# Keys


def test_key_composes_onto_atom_head():
    ctx = ctx_of(P, entry(S.Bool()), L)
    out = normalize(ctx, S.Bool(), S.Var(0, PT))
    assert eq_nf(P, out, NfInj(NeVar(0, PT)))


def test_distinct_keys_normalize_apart():
    # Annotation l under two locks: the two whiskered points l => l.l are
    # distinct cells, and normalization must keep them apart.
    ctx = ctx_of(P, entry(S.Bool(), L), L, L)
    left = whisker_left(L, PT)
    right = whisker_right(PT, L)
    out_l = normalize(ctx, S.Bool(), S.Var(0, left))
    out_r = normalize(ctx, S.Bool(), S.Var(0, right))
    assert eq_nf(P, out_l, NfInj(NeVar(0, left)))
    assert eq_nf(P, out_r, NfInj(NeVar(0, right)))
    assert not eq_nf(P, out_l, out_r)


def test_interchange_identifies_composite_keys():
    # Composing with the point below makes the two whiskerings agree.
    ctx = ctx_of(P, entry(S.Bool()), L, L)
    k_left = vcomp(whisker_left(L, PT), PT, P)
    k_right = vcomp(whisker_right(PT, L), PT, P)
    out_l = normalize(ctx, S.Bool(), S.Var(0, k_left))
    out_r = normalize(ctx, S.Bool(), S.Var(0, k_right))
    assert eq_nf(P, out_l, out_r)


# ---------------------------------------------------------------------------
# Universe and decoding


def test_function_code_normalizes():
    out = normalize(empty_ctx(T, "m"), S.Uni(), S.PiCode(IDM, S.BoolCode(), S.BoolCode()))
    assert eq_nf(T, out, NfFnCode(IDM, NfBoolCode(), NfBoolCode()))


def test_pair_code_normalizes():
    out = normalize(empty_ctx(T, "m"), S.Uni(), S.SigCode(S.BoolCode(), S.BoolCode()))
    assert eq_nf(T, out, NfProdCode(NfBoolCode(), NfBoolCode()))


def test_modal_code_normalizes():
    out = normalize(empty_ctx(W, "m"), S.Uni(), S.ModCode(MU, S.BoolCode()))
    assert eq_nf(W, out, NfModifyCode(MU, NfBoolCode()))


def test_code_beta_reduces_before_reify():
    # (\x. x) applied to the Bool code, normalized at Uni.
    tm = S.App(S.Lam(var(0)), S.BoolCode())
    out = normalize(empty_ctx(T, "m"), S.Uni(), tm)
    assert eq_nf(T, out, NfBoolCode())


def test_dec_iso_inv_of_true():
    out = normalize(empty_ctx(T, "m"), S.Dec(S.BoolCode()), S.DecIsoInv(S.True_()))
    assert eq_nf(T, out, NfDecIsoStar(NfTrue()))


def test_dec_iso_spine_on_atom():
    ctx = ctx_of(T, entry(S.Dec(S.BoolCode())))
    out = normalize(ctx, S.Bool(), S.DecIso(var(0)))
    assert eq_nf(T, out, NfInj(NeDecIso(NeVar(0, id_cell(IDM)))))


def test_dec_iso_roundtrip_is_invisible():
    # iso-inv (iso x) and x normalize identically at the decoded type.
    ctx = ctx_of(T, entry(S.Dec(S.BoolCode())))
    ty = S.Dec(S.BoolCode())
    round_trip = normalize(ctx, ty, S.DecIsoInv(S.DecIso(var(0))))
    bare = normalize(ctx, ty, var(0))
    assert eq_nf(T, round_trip, bare)
    want = NfDecIsoStar(NfInj(NeDecIso(NeVar(0, id_cell(IDM)))))
    assert eq_nf(T, round_trip, want)


def test_neutral_code_blocks_unfolding():
    ctx = ctx_of(T, entry(S.Uni()), entry(S.Dec(var(0))))
    out = normalize(ctx, S.Dec(var(1)), var(0))
    assert eq_nf(T, out, NfInj(NeVar(0, id_cell(IDM))))


# ---------------------------------------------------------------------------
# Type normalization


def test_normalize_ty_dependent_function():
    ty = S.Pi(IDM, S.Uni(), S.Dec(var(0)))
    out = normalize_ty(empty_ctx(T, "m"), ty)
    assert eq_nfty(T, out, NfFn(IDM, NfUni(), NfDec(NfInj(NeVar(0, id_cell(IDM))))))


def test_normalize_ty_product():
    out = normalize_ty(empty_ctx(T, "m"), S.Sig(S.Bool(), S.Bool()))
    assert eq_nfty(T, out, NfProd(NfBool(), NfBool()))


def test_normalize_ty_modal():
    out = normalize_ty(empty_ctx(W, "m"), S.Mod(MU, S.Bool()))
    assert eq_nfty(W, out, NfModify(MU, NfBool()))


def test_normalize_ty_decoded_code():
    ty = S.Dec(S.PiCode(IDM, S.BoolCode(), S.BoolCode()))
    out = normalize_ty(empty_ctx(T, "m"), ty)
    assert eq_nfty(T, out, NfDec(NfFnCode(IDM, NfBoolCode(), NfBoolCode())))


def test_normalize_ty_type_beta():
    ty = S.Dec(S.App(S.Lam(var(0)), S.BoolCode()))
    out = normalize_ty(empty_ctx(T, "m"), ty)
    assert eq_nfty(T, out, NfDec(NfBoolCode()))


def test_normalize_ty_unfolds_a_definition_of_the_signature():
    sig = check_program(T, [("c", "m", S.Uni(), S.BoolCode())]).signature
    ty = S.Dec(S.Const("c"))
    assert normalize_ty(empty_ctx(T, "m", sig), ty) == NfDec(NfBoolCode())
    with pytest.raises(NbeError, match="unknown definition 'c'"):
        normalize_ty(empty_ctx(T, "m"), ty)


# ---------------------------------------------------------------------------
# Stability: decode and renormalize


IDEMPOTENCE_CASES = [
    (
        ctx_of(T, entry(S.Uni()), entry(S.Pi(IDM, S.Dec(var(0)), S.Dec(var(1))))),
        S.Pi(IDM, S.Dec(var(1)), S.Dec(var(2))),
        var(0),
    ),
    (
        ctx_of(T, entry(S.Sig(S.Bool(), S.Bool()))),
        S.Sig(S.Bool(), S.Bool()),
        var(0),
    ),
    (
        ctx_of(W, entry(S.Mod(MU, S.Bool()))),
        S.Mod(MU, S.Bool()),
        S.LetMod(IDM, MU, S.Mod(MU, S.Bool()), var(0), S.MkBox(MU, S.Var(0, id_cell(MU)))),
    ),
    (empty_ctx(T, "m"), S.Dec(S.BoolCode()), S.DecIsoInv(S.True_())),
    (
        ctx_of(T, entry(S.Dec(S.BoolCode()))),
        S.Bool(),
        S.DecIso(var(0)),
    ),
    (
        ctx_of(W, entry(S.Pi(MU, S.Bool(), S.Bool())), entry(S.Bool(), MU)),
        S.Bool(),
        S.App(var(1), S.Var(0, id_cell(MU))),
    ),
    (
        ctx_of(P, entry(S.Bool()), L),
        S.Bool(),
        S.Var(0, PT),
    ),
]


@pytest.mark.parametrize("case", range(len(IDEMPOTENCE_CASES)))
def test_normalize_is_stable_under_decode(case):
    ctx, ty, tm = IDEMPOTENCE_CASES[case]
    first = normalize(ctx, ty, tm)
    again = normalize(ctx, ty, N.decode_nf(first))
    assert eq_nf(ctx.mt, first, again)


# ---------------------------------------------------------------------------
# Errors


def test_out_of_scope_variable_raises():
    with pytest.raises(NbeError):
        normalize(empty_ctx(T, "m"), S.Bool(), var(0))


def test_type_former_in_term_position_raises():
    with pytest.raises(NbeError):
        normalize(empty_ctx(T, "m"), S.Bool(), S.Bool())


def test_term_former_in_type_position_raises():
    with pytest.raises(NbeError):
        normalize_ty(empty_ctx(T, "m"), S.True_())


def test_ill_typed_application_raises():
    with pytest.raises(NbeError):
        normalize(empty_ctx(T, "m"), S.Bool(), S.App(S.True_(), S.False_()))


def test_key_val_rejects_a_head_cell_that_ends_where_the_key_does_not_start():
    # pt : id => l cannot follow a head cell that already ends at l.  Passing
    # the value through unchanged would hide a transport bug behind a wrong
    # value, so it is an error, on its own and inside a pair.
    pt, ell = gen_cell(P, "pt"), word_mod(P, ("l",))
    stale = nbe.VNeutral(nbe.BOOL, nbe.NeAbs(0, id_cell(ell)))
    for v in (stale, nbe.VPair(nbe.VTrue(), stale)):
        with pytest.raises(NbeError, match="starts at id\\(m\\), but the head cell ends at l"):
            nbe.key_val(P, pt, v)
    keyed = nbe.key_val(P, pt, nbe.VNeutral(nbe.BOOL, nbe.NeAbs(0, id_cell(id_mod("m")))))
    assert keyed.ne.cell.tgt == ell
    assert nbe.key_val(P, pt, nbe.VTrue()) == nbe.VTrue()


# A neutral code at level 0, and the types with no eta law at depth 2.
_CODE = nbe.VNeutral(nbe.UNI, nbe.NeAbs(0, id_cell(IDM)))
NO_ETA = {
    "Bool": nbe.BOOL,
    "Pi": nbe.TPi(IDM, nbe.BOOL, nbe.BOOL),
    "Mod": nbe.TMod(L, nbe.BOOL),
    "Uni": nbe.UNI,
    "Dec": nbe.TDec(_CODE),
}


@pytest.mark.parametrize("name", sorted(NO_ETA))
def test_a_neutral_without_eta_is_one_vneutral_that_keeps_its_type(name):
    # The one neutral value mirrors the one ``NfInj``: reflect gives it at
    # each of these types, the key action keeps the type, and read-back
    # injects it (under a lambda at a function type).
    ty = NO_ETA[name]
    v = nbe.reflect(P, ty, nbe.NeAbs(1, id_cell(IDM)))
    assert v.__class__ is nbe.VNeutral and v.ty is ty
    keyed = nbe.key_val(P, PT, v)
    assert keyed.__class__ is nbe.VNeutral and keyed.ty is ty
    cell = keyed.ne.cell
    assert cell.tgt == L and keyed.ne.frames == ()
    want = NfInj(NeVar(0, cell))
    if name == "Pi":
        arg = NfInj(NeVar(0, id_cell(IDM)))
        want = NfLam(IDM, NfInj(NeApp(NeVar(1, cell), IDM, arg)))
    assert nbe.reify(P, 2, "m", ty, keyed) == want
    assert conv(P, 2, "m", ty, keyed, nbe.key_val(P, PT, v))


def test_reflect_expands_the_types_with_eta():
    # A neutral at Sig stays one neutral; projecting it gives the neutral
    # projections, and read-back expands it into their pair.
    ne = nbe.NeAbs(0, id_cell(IDM))
    sig = nbe.TSig(nbe.BOOL, nbe.UNI)
    pair = nbe.reflect(P, sig, ne)
    assert pair == nbe.VNeutral(sig, ne)
    assert nbe.do_proj(P, 1, pair) == nbe.VNeutral(nbe.BOOL, ne.push(nbe.FrProj1()))
    assert nbe.do_proj(P, 2, pair) == nbe.VNeutral(nbe.UNI, ne.push(nbe.FrProj2()))
    assert nbe.reify(P, 1, "m", sig, pair) == NfPair(
        NfInj(NeProj1(NeVar(0, id_cell(IDM)))), NfInj(NeProj2(NeVar(0, id_cell(IDM))))
    )
    # Dec of a canonical code unfolds to the connective, with one coercion.
    assert nbe.reflect(P, nbe.TDec(nbe.CBool()), ne) == nbe.VNeutral(
        nbe.BOOL, ne.push(nbe.FrDecIso())
    )
