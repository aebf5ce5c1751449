"""Bidirectional checker tests.

Positive cases were derived by running the typing rules by hand; negative
cases pin both the rejection and the error wording that the surface
diagnostics rely on.
"""

import pathlib
from collections import Counter
from random import Random

import pytest

from mtt import check
from mtt import syntax as S
from mtt.cli import parse_file
from mtt.check import (
    CheckCtx,
    CheckError,
    check_program,
    check_tm,
    check_type,
    convert_tm,
    convert_ty,
    ctx_extend,
    ctx_lock,
    empty_ctx,
    infer,
    lookup_var,
)
from mtt.modeth import (
    Cell2,
    ModeError,
    ModeTheory,
    Modality,
    adjoint,
    compose_mod,
    eq_mod,
    gen_cell,
    id_cell,
    id_mod,
    is_id_cell,
    pointed,
    trivial,
    validate,
    vcomp,
    walking,
    whisker_left,
    whisker_right,
    word_mod,
)
from mtt.conv import conv_ty
from mtt.nbe import (
    BOOL_CODE,
    NO_DEFS,
    Closure,
    Env,
    NeAbs,
    TBool,
    TDec,
    TMod,
    TPi,
    TSig,
    TUni,
    TypeValue,
    Value,
    eval_tm,
    eval_ty,
    reflect,
    reify_ty,
)
from mtt.normal import (
    NeBoolRec,
    NeVar,
    NfBool,
    NfBoolCode,
    NfDec,
    NfFn,
    NfInj,
    NfLam,
    NfProdCode,
    NfTrue,
    NfTy,
    NfUni,
    RenComp,
    RenId,
    RenKey,
    RenLock,
    RenWeaken,
    Renaming,
    decode_nfty,
    NormalError,
    depth,
    eq_nfty,
    locks_of,
    rename_nfty,
    tele_entry,
)

import _renfuzz as RF

T = trivial()
W = walking()
P = pointed()

IDM = id_mod("m")
MU = word_mod(W, ("mu",))
L = word_mod(P, ("l",))
PT = gen_cell(P, "pt")


def var(k, mod=IDM):
    return S.Var(k, id_cell(mod))


# ---------------------------------------------------------------------------
# Variable access


def test_lookup_under_matching_lock():
    ctx = ctx_lock(ctx_extend(empty_ctx(W, "m"), MU, TBool()), MU)
    assert lookup_var(ctx, 0, id_cell(MU)) == TBool()


def test_lookup_without_cell_is_rejected():
    ctx = ctx_extend(empty_ctx(W, "m"), MU, TBool())
    with pytest.raises(CheckError, match="variable not accessible"):
        lookup_var(ctx, 0, id_cell(MU))
    try:
        lookup_var(ctx, 0, id_cell(MU))
    except CheckError as e:
        assert "mu => id(m)" in str(e)


def test_lock_or_extension_at_the_wrong_mode_is_a_check_error():
    ctx = empty_ctx(W, "n")  # mu : n -> m targets m
    with pytest.raises(CheckError, match="targets m, telescope is at n"):
        ctx_lock(ctx, MU)
    with pytest.raises(CheckError, match="targets m, telescope is at n"):
        ctx_extend(ctx, MU, TBool())


def test_lookup_trivial_theory_always_accessible():
    ctx = ctx_extend(empty_ctx(T, "m"), IDM, TBool())
    assert lookup_var(ctx, 0, id_cell(IDM)) == TBool()


def test_lookup_unbound_index():
    with pytest.raises(CheckError, match="unbound variable"):
        lookup_var(empty_ctx(T, "m"), 0, id_cell(IDM))


def test_the_checks_of_a_variable_still_fire_on_identity_keys():
    # Identity keys are shared, so checking a variable mostly compares one
    # object with itself; what those checks rejected, they still reject.
    ctx = ctx_extend(empty_ctx(W, "m"), IDM, TBool())
    bad = Cell2(IDM, MU, ())  # no layers, so an identity, but says id(m) => mu
    with pytest.raises(CheckError, match="ill-formed 2-cell"):
        lookup_var(ctx, 0, bad)
    ty = S.Pi(IDM, S.Bool(), S.Bool())
    (result,) = check_program(W, [("f", "m", ty, S.Lam(S.Var(0, bad)))]).results
    assert result.error.startswith("ill-formed 2-cell id on variable 0")
    with pytest.raises(CheckError, match="variable not accessible"):
        lookup_var(ctx_lock(ctx, MU), 0, id_cell(IDM))
    for k in (depth(ctx), -1):
        with pytest.raises(CheckError, match=f"unbound variable index {k}"):
            lookup_var(ctx, k, id_cell(IDM))


def test_a_key_from_the_annotation_to_the_ambient_identity_is_still_checked():
    # The other half: a variable annotated mu with no lock after it, keyed
    # by a cell that starts at its annotation and ends at the identity its
    # (no) locks compose to, but has no layers to get there.
    ctx = ctx_extend(empty_ctx(W, "m"), MU, TBool())
    bad = Cell2(MU, IDM, ())
    with pytest.raises(CheckError, match="ill-formed 2-cell"):
        lookup_var(ctx, 0, bad)
    ty = S.Pi(MU, S.Bool(), S.Bool())
    (result,) = check_program(W, [("f", "m", ty, S.Lam(S.Var(0, bad)))]).results
    assert result.error.startswith("ill-formed 2-cell id on variable 0")


def _count_cell_checks(monkeypatch) -> list:
    calls = []
    real = check.cell_check

    def counting(mt, cell):
        calls.append(cell)
        return real(mt, cell)

    monkeypatch.setattr(check, "cell_check", counting)
    return calls


def test_a_bare_variable_is_checked_without_a_cell_check(monkeypatch):
    calls = _count_cell_checks(monkeypatch)
    xs = [f"x{j}" for j in range(1, 17)]
    ty = " -> ".join([f"Pi ({x} : Bool)" for x in xs] + ["Bool"])
    lam = " ".join("\\" + x + " ->" for x in xs)
    mt, decls = parse_file(
        f"def g @m : {ty} := {lam} x1\n"
        f"def h @m : {ty} := {lam} g {' '.join(xs)}\n"
    )
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    assert report.ok, [r.error for r in report.results]
    assert calls == []


def test_a_variable_annotated_like_its_locks_takes_the_checked_path(monkeypatch):
    # Its annotation and the composite of the locks after it are equal but
    # are two objects, so the variable is checked as any keyed one is.
    calls = _count_cell_checks(monkeypatch)
    mt, decls = parse_file(
        "theory pointed\ndef k @m : Pi (l | x : Bool) -> Mod l Bool := \\(l | x) -> box l x\n"
    )
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    assert report.ok, report.results[0].error
    assert len(calls) == 1 and not calls[0].layers


def _projection_chain(width: int) -> str:
    """Two ``width``-ary projections, the second applying the first twice,
    and a use of the second: the shape of the benchmark's ``defs`` files."""
    xs = [f"x{j}" for j in range(1, width + 1)]
    ty = " -> ".join([f"Pi ({x} : Bool)" for x in xs] + ["Bool"])
    lam = " ".join(f"\\{x} ->" for x in xs)
    inner = f"(f1 {' '.join(reversed(xs))})"
    return (
        f"theory trivial\n"
        f"def f1 @m : {ty} := {lam} {xs[-1]}\n"
        f"def f2 @m : {ty} := {lam} f1 {inner} {' '.join(xs[1:])}\n"
        f"def use @m : Bool := f2 {' '.join(['true'] * width)}\n"
    )


def test_identity_modalities_cells_and_bool_are_built_once(monkeypatch):
    # Every binder and every variable asks for an identity modality, an
    # identity 2-cell or the type Bool; these are shared, so checking a
    # program builds no more of them when it has more binders or variables.
    counts = Counter()
    for cls in (Cell2, Modality, TBool):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    built = {}
    for width in (2, 2, 32):  # the first run fills the shared values
        counts.clear()
        mt, decls = parse_file(_projection_chain(width))
        assert check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls]).ok
        built[width] = dict(counts)
    assert built[32] == built[2]


def test_lookup_transports_type_along_key():
    # u : Uni, x : dec u, under a lock for l: accessing x with the point
    # key rewrites u's head cell in x's type from the identity to pt.
    ctx0 = empty_ctx(P, "m")
    ctx1 = ctx_extend(ctx0, IDM, check_type(ctx0, S.Uni()))
    x_ty = check_type(ctx_lock(ctx1, IDM), S.Dec(var(0)))
    ctx2 = ctx_extend(ctx1, IDM, x_ty)
    ctx3 = ctx_lock(ctx2, L)
    moved = lookup_var(ctx3, 0, PT)
    got = reify_ty(P, depth(ctx3), ctx3.mode, moved)
    assert eq_nfty(P, got, NfDec(NfInj(NeVar(1, PT))))


def test_a_keyed_lookup_builds_no_lock_composite_per_prefix_variable(monkeypatch):
    # A Bool variable under a lock for l, keyed by pt, as the last of 64 and
    # of 1,024 binders.  Its type mentions no variable, so the transport
    # composes the locks of no prefix variable, and builds as many
    # modalities however deep the context.
    counts = Counter()

    def counting(self, *args, _init=Modality.__init__, **kwargs):
        counts["Modality"] += 1
        _init(self, *args, **kwargs)

    built = {}
    for n in (64, 1024):
        ctx = empty_ctx(P, "m")
        for _ in range(n):
            ctx = ctx_extend(ctx, IDM, TBool())
        ctx = ctx_lock(ctx, L)
        monkeypatch.setattr(Modality, "__init__", counting)
        counts.clear()
        assert lookup_var(ctx, 0, PT) == TBool()
        monkeypatch.undo()
        built[n] = counts["Modality"]
    assert built[64] == built[1024], built


# The key transport, differentially: ``lookup_var`` reads a keyed variable's
# type back in the entry's prefix, renames it along the key alone and
# evaluates it over the prefix's atoms.  The reference below does it the long
# way: it renames along the key followed by the embedding that forgets the
# context's suffix, and evaluates over the whole environment.  Each random
# context is built together with the tuple of entries it presents
# (``_renfuzz``), so the references read annotations and locks by scanning
# that tuple.


def _drop_tail(entries: tuple) -> Renaming:
    """The renaming that forgets a suffix of entries, fusing its locks."""
    if not entries:
        return RenId()
    inner = _drop_tail(entries[:-1])
    kind, mu = entries[-1]
    return RenLock(mu, inner) if kind == "lock" else RenComp(inner, RenWeaken())


def transport_past_the_suffix(ctx, entries, k, alpha):
    level = depth(ctx) - 1 - k
    pos = [i for i, (kind, _) in enumerate(entries) if kind == "var"][level]
    ann = entries[pos][1]
    nf = reify_ty(ctx.mt, level, ann.mode_src, ctx.types[level])
    r = RenComp(RenKey(alpha, RF.key_locks(entries[:pos])), _drop_tail(entries[pos:]))
    moved = rename_nfty(ctx.mt, r, nf)
    return eval_ty(ctx.mt, ctx.env, decode_nfty(moved))


def _rewrite_with_a_cell():
    c = Modality("s", "s", ("c",))
    return validate(
        ModeTheory(
            "idem-pointed",
            ("s",),
            {"c": ("s", "s")},
            {"p": (id_mod("s"), c)},
            ((("c", "c"), ("c",)),),
        )
    )


def _words(mt, tgt, longest):
    """Every modality word of at most ``longest`` generators landing at ``tgt``."""
    out, frontier = [id_mod(tgt)], [id_mod(tgt)]
    for _ in range(longest):
        frontier = [
            compose_mod(w, Modality(src, t, (g,)))
            for w in frontier
            for g, (src, t) in sorted(mt.modality_gens.items())
            if t == w.mode_src
        ]
        out += frontier
    return out


def _keys(mt):
    """Generator cells whiskered by words of at most one generator on each
    side, and the composable pairs of those."""
    layers = []
    for g in sorted(mt.cell_gens):
        for mode in mt.modes:
            for u in _words(mt, mode, 1):
                for v in _words(mt, mt.cell_gens[g][0].mode_src, 1):
                    try:
                        layers.append(whisker_left(u, whisker_right(gen_cell(mt, g), v)))
                    except ModeError:
                        pass
    pairs = [vcomp(b, a, mt) for a in layers for b in layers if eq_mod(mt, a.tgt, b.src)]
    return [c for c in layers + pairs if not is_id_cell(mt, c)]


def _empty(mt, mode):
    return empty_ctx(mt, mode), ()


def _lock(at, mu):
    ctx, entries = at
    return ctx_lock(ctx, mu), entries + (("lock", mu),)


def _extend(at, mu, ty):
    """Push a variable of type ``ty``, checked behind a mu-lock."""
    ctx, entries = at
    return ctx_extend(ctx, mu, check_type(ctx_lock(ctx, mu), ty)), entries + (("var", mu),)


def _access(at, keys, k):
    """The keys that reach variable k from here: its identity cell, if the
    locks in front of it allow one, and every matching key."""
    ctx, entries = at
    ann = RF.scan_ann(entries, k)
    nu = RF.scan_locks(entries, k)
    ident = [id_cell(ann)] if eq_mod(ctx.mt, ann, nu) else []
    return ident + [c for c in keys if eq_mod(ctx.mt, c.src, ann) and eq_mod(ctx.mt, c.tgt, nu)]


def _dec_of_a_code(at, keys, rng):
    """``dec x`` for a random accessible variable x : Uni, or None."""
    ctx = at[0]
    options = [
        (k, cell)
        for k in range(depth(ctx))
        if isinstance(tele_entry(ctx, k)[1], TUni)
        for cell in _access(at, keys, k)
    ]
    if not options:
        return None
    return S.Dec(S.Var(*rng.choice(options)))


def _random_entry(here, keys, rng):
    """Extend by a lock, a Uni variable, or a variable whose type decodes
    accessible codes, bare or under a Pi, Sig or Mod."""
    mode = here[0].mode
    mu = rng.choice(_words(here[0].mt, mode, 2))
    roll = rng.random()
    if roll < 0.25:
        return _lock(here, mu)
    if roll < 0.45:
        return _extend(here, mu, S.Uni())
    at = _lock(here, mu)
    nu = rng.choice(_words(here[0].mt, at[0].mode, 1))
    shape = rng.choice(["bare", "pi", "sig", "mod"])
    if shape == "bare":
        ty = _dec_of_a_code(at, keys, rng)
    elif shape == "pi":
        cod = _dec_of_a_code(_extend(at, nu, S.Bool()), keys, rng)
        ty = cod and S.Pi(nu, S.Bool(), cod)
    elif shape == "mod":
        inner = _dec_of_a_code(_lock(at, nu), keys, rng)
        ty = inner and S.Mod(nu, inner)
    else:
        fst = _dec_of_a_code(at, keys, rng)
        snd = fst and _dec_of_a_code(_extend(at, id_mod(at[0].mode), fst), keys, rng)
        ty = snd and S.Sig(fst, snd)
    return _extend(here, mu, S.Uni() if ty is None else ty)


@pytest.mark.parametrize(
    "theory", [pointed, adjoint, _rewrite_with_a_cell], ids=["pointed", "adjoint", "rewrite"]
)
def test_key_transport_matches_the_renaming_past_the_suffix(theory):
    mt = theory()
    keys = _keys(mt)
    rng = Random(f"transport-{mt.name}")
    lookups = changed = 0
    for _ in range(40):
        here = _empty(mt, rng.choice(sorted(mt.modes)))
        for _ in range(7):
            here = _random_entry(here, keys, rng)
            ctx, entries = here
            d = depth(ctx)
            for k in range(d):
                for alpha in _access(here, keys, k):
                    if is_id_cell(mt, alpha):
                        continue
                    got = reify_ty(mt, d, ctx.mode, lookup_var(ctx, k, alpha))
                    ref = transport_past_the_suffix(ctx, entries, k, alpha)
                    assert eq_nfty(mt, got, reify_ty(mt, d, ctx.mode, ref))
                    stored = tele_entry(ctx, k)[1]
                    lookups += 1
                    changed += not eq_nfty(mt, got, reify_ty(mt, d, ctx.mode, stored))
    assert lookups >= 80 and changed >= 20


@pytest.mark.parametrize("theory", [pointed, adjoint], ids=["pointed", "adjoint"])
def test_context_locates_variables_as_the_telescope_scan_does(theory):
    mt = theory()
    keys = _keys(mt)
    rng = Random(f"locate-{mt.name}")
    seen = 0
    for _ in range(30):
        start = rng.choice(sorted(mt.modes))
        here = _empty(mt, start)
        for _ in range(8):
            here = _random_entry(here, keys, rng)
            ctx, entries = here
            locks = [mu for kind, mu in entries if kind == "lock"]
            assert ctx.mode == (locks[-1].mode_src if locks else start)
            assert depth(ctx) == RF.scan_depth(entries)
            for k in range(depth(ctx)):
                ann, nu = tele_entry(ctx, k)[0], locks_of(ctx, k)
                assert ann == RF.scan_ann(entries, k)
                assert nu == RF.scan_locks(entries, k)
                seen += len(nu.word) > 1
    assert seen > 20  # variables behind composite locks were met
    for k in (depth(ctx), -1):
        with pytest.raises(NormalError):
            tele_entry(ctx, k)
        with pytest.raises(NormalError):
            locks_of(ctx, k)


def test_binders_extend_the_context_without_reading_types_back(monkeypatch):
    # The context keeps types as values only, so a lambda extends it with its
    # domain as it stands; only a keyed variable's transport decodes a type.
    calls = []
    decode = check.decode_nfty
    monkeypatch.setattr(check, "decode_nfty", lambda t: calls.append(t) or decode(t))
    path = pathlib.Path(__file__).parent / "corpus" / "trivial_functions.mtt"
    mt, decls = parse_file(path.read_text(encoding="utf-8"))
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    assert report.ok and len(report.results) == 5
    assert calls == []


# ---------------------------------------------------------------------------
# Inference and checking


def test_check_lam_against_function_type():
    ctx = empty_ctx(T, "m")
    ty = check_type(ctx, S.Pi(IDM, S.Bool(), S.Bool()))
    check_tm(ctx, S.Lam(var(0)), ty)


def test_lam_binder_annotations_are_checked_along_a_run():
    # A written annotation takes no part in equality or printing; the checker
    # compares it with the modality of the Pi it meets, up to the theory's
    # equations, and a bare binder (None) is not compared.
    body = S.True_()
    assert S.Lam(body, L) == S.Lam(body) and repr(S.Lam(body, L)) == repr(S.Lam(body))
    ctx = empty_ctx(P, "m")
    ty = check_type(ctx, S.Pi(L, S.Bool(), S.Pi(IDM, S.Bool(), S.Bool())))
    check_tm(ctx, S.Lam(S.Lam(body, IDM), L), ty)
    check_tm(ctx, S.Lam(S.Lam(body)), ty)
    with pytest.raises(CheckError) as e:
        check_tm(ctx, S.Lam(S.Lam(body, L), L), ty)
    assert str(e.value) == (
        "modality mismatch: lambda binder annotated l at a function type annotated id(m)"
    )
    mt = _rewrite_with_a_cell()  # c.c rewrites to c
    c = Modality("s", "s", ("c",))
    ctx = empty_ctx(mt, "s")
    check_tm(ctx, S.Lam(body, compose_mod(c, c)), check_type(ctx, S.Pi(c, S.Bool(), S.Bool())))


def test_infer_application_with_modal_argument():
    ctx0 = empty_ctx(W, "m")
    f_ty = check_type(ctx0, S.Pi(MU, S.Bool(), S.Bool()))
    ctx = ctx_extend(ctx0, IDM, f_ty)
    ctx = ctx_extend(ctx, MU, TBool())
    got = infer(ctx, S.App(var(1), S.Var(0, id_cell(MU))))
    assert got == TBool()


def test_lam_is_not_inferable():
    with pytest.raises(CheckError, match="cannot infer"):
        infer(empty_ctx(T, "m"), S.App(S.Lam(var(0)), S.True_()))


def test_mkbox_infers_and_checks():
    ctx = empty_ctx(W, "m")
    got = infer(ctx, S.MkBox(MU, S.True_()))
    assert got == TMod(MU, TBool())
    check_tm(ctx, S.MkBox(MU, S.True_()), TMod(MU, TBool()))


def test_mkbox_modality_mismatch():
    ctx = empty_ctx(W, "m")
    with pytest.raises(CheckError, match="modality mismatch"):
        check_tm(ctx, S.MkBox(IDM, S.True_()), TMod(MU, TBool()))


def test_letmod_over_box_infers_and_beta_converts():
    # The branch variable carries mu (= id.mu), so it must be re-boxed; the
    # whole elimination beta-reduces back to the original box.
    ctx = empty_ctx(W, "m")
    tm = S.LetMod(
        IDM,
        MU,
        S.Mod(MU, S.Bool()),
        S.MkBox(MU, S.True_()),
        S.MkBox(MU, S.Var(0, id_cell(MU))),
    )
    assert infer(ctx, tm) == TMod(MU, TBool())
    assert convert_tm(
        ctx,
        TMod(MU, TBool()),
        eval_tm(W, ctx.env, tm),
        eval_tm(W, ctx.env, S.MkBox(MU, S.True_())),
    )


def test_letmod_wrong_eliminated_modality():
    ctx = empty_ctx(W, "m")
    tm = S.LetMod(
        IDM, IDM, S.Bool(), S.MkBox(MU, S.True_()), S.Var(0, id_cell(IDM))
    )
    with pytest.raises(CheckError, match="modal scrutinee mismatch"):
        infer(ctx, tm)


def test_dependent_if_motive_through_universe():
    # b : Bool |- if [u. Uni] b BoolC (SigC BoolC BoolC)  decodes to a type
    # that is Bool on true and Bool * Bool on false.
    ctx = ctx_extend(empty_ctx(T, "m"), IDM, TBool())
    motive = S.Dec(S.If(S.Uni(), S.BoolCode(), S.SigCode(S.BoolCode(), S.BoolCode()), var(0)))
    tm = S.If(
        motive,
        S.DecIsoInv(S.True_()),
        S.DecIsoInv(S.Pair(S.DecIsoInv(S.True_()), S.DecIsoInv(S.False_()))),
        var(0),
    )
    got = infer(ctx, tm)
    want = NfDec(
        NfInj(
            NeBoolRec(
                NfUni(),
                NeVar(0, id_cell(IDM)),
                NfBoolCode(),
                NfProdCode(NfBoolCode(), NfBoolCode()),
            )
        )
    )
    assert eq_nfty(T, reify_ty(T, depth(ctx), "m", got), want)


# ---------------------------------------------------------------------------
# The universe is weak


def test_true_rejected_at_decoded_bool():
    ctx = empty_ctx(T, "m")
    with pytest.raises(CheckError, match="type mismatch"):
        check_tm(ctx, S.True_(), TDec(BOOL_CODE))


def test_true_accepted_through_inverse_coercion():
    ctx = empty_ctx(T, "m")
    check_tm(ctx, S.DecIsoInv(S.True_()), TDec(BOOL_CODE))


def test_universe_is_not_its_own_element():
    ctx = empty_ctx(T, "m")
    with pytest.raises(CheckError, match="type formers are not terms"):
        check_tm(ctx, S.Uni(), TUni())


def test_convert_ty_separates_decoded_bool_from_bool():
    ctx = empty_ctx(T, "m")
    assert not convert_ty(ctx, TDec(BOOL_CODE), TBool())


def test_deciso_on_neutral_code_is_rejected():
    ctx0 = empty_ctx(T, "m")
    ctx = ctx_extend(ctx0, IDM, TUni())
    u_ty = check_type(ctx_lock(ctx, IDM), S.Dec(var(0)))
    ctx = ctx_extend(ctx, IDM, u_ty)
    with pytest.raises(CheckError, match="neutral code"):
        infer(ctx, S.DecIso(var(0)))


# ---------------------------------------------------------------------------
# Conversion


def test_convert_tm_beta_pair():
    ctx = empty_ctx(T, "m")
    v = eval_tm(T, ctx.env, S.App(S.Lam(var(0)), S.True_()))
    w = eval_tm(T, ctx.env, S.True_())
    assert convert_tm(ctx, TBool(), v, w)


def test_convert_ty_beta_in_domain_and_injectivity():
    # The left domain computes: if [_. Uni] true then BoolC else BoolC.
    ctx = empty_ctx(T, "m")
    redex = S.If(S.Uni(), S.BoolCode(), S.BoolCode(), S.True_())
    a = check_type(ctx, S.Pi(IDM, S.Dec(redex), S.Bool()))
    b = check_type(ctx, S.Pi(IDM, S.Dec(S.BoolCode()), S.Bool()))
    assert convert_ty(ctx, a, b)
    assert isinstance(a, TPi) and isinstance(b, TPi)
    assert convert_ty(ctx_lock(ctx, IDM), a.dom, b.dom)
    c = check_type(ctx, S.Pi(IDM, S.Bool(), S.Bool()))
    assert not convert_ty(ctx, a, c)
    assert not convert_ty(ctx_lock(ctx, IDM), a.dom, c.dom)


# ---------------------------------------------------------------------------
# Modes


def test_mode_mismatch_in_modal_type():
    ctx = empty_ctx(W, "m")
    with pytest.raises(CheckError, match="mode mismatch"):
        check_type(ctx, S.Mod(id_mod("n"), S.Bool()))


def test_unknown_mode_rejected():
    with pytest.raises(CheckError, match="unknown mode"):
        empty_ctx(W, "q")


def test_modal_type_checks_under_lock():
    ctx = empty_ctx(W, "m")
    got = check_type(ctx, S.Mod(MU, S.Bool()))
    assert got == TMod(MU, TBool())


# ---------------------------------------------------------------------------
# Programs


def test_check_program_empty():
    report = check_program(T, [])
    assert report.ok and report.results == ()


def test_check_program_reports_each_declaration():
    decls = [
        ("yes", "m", S.Bool(), S.True_()),
        ("no", "m", S.Bool(), S.Pair(S.True_(), S.False_())),
        ("still", "m", S.Pi(IDM, S.Bool(), S.Bool()), S.Lam(var(0))),
    ]
    report = check_program(T, decls)
    assert not report.ok
    good, bad, still = report.results
    assert good.ok and good.ty_nf == NfBool() and good.body_nf == NfTrue()
    assert not bad.ok and "non-pair type" in bad.error
    assert still.ok and eq_nfty(T, still.ty_nf, NfFn(IDM, NfBool(), NfBool()))
    assert isinstance(still.body_nf, NfLam)


def test_check_program_inaccessible_variable_names_the_cell():
    # Using a (mu|Bool) argument requires re-entering mu's lock by boxing;
    # returning it bare would need a cell mu => id(m), which does not exist.
    good = (
        "use",
        "m",
        S.Pi(MU, S.Bool(), S.Mod(MU, S.Bool())),
        S.Lam(S.MkBox(MU, var(0, MU))),
    )
    bad = ("esc", "m", S.Pi(MU, S.Bool(), S.Bool()), S.Lam(var(0, MU)))
    report = check_program(W, [good, bad])
    assert report.results[0].ok
    assert not report.results[1].ok
    assert "variable not accessible" in report.results[1].error


def test_check_program_rejects_a_second_declaration_of_a_name():
    decls = [("a", "m", S.Bool(), S.True_()), ("a", "m", S.Bool(), S.False_())]
    first, second = check_program(T, decls).results
    assert first.ok
    assert not second.ok and second.error == "duplicate definition 'a'"


def test_check_program_out_of_scope():
    report = check_program(T, [("oops", "m", S.Bool(), var(3))])
    assert not report.ok
    assert report.results[0].error == "unbound variable index 3"


# One index past the scope in an empty scope and right under each binder
# form (a pair binds nothing, so index 0 is already past it): the checker's
# own lookup rejects it, with no separate scope pass.
PAST_THE_SCOPE = {
    "empty-scope": (T, S.Bool(), var(0), 0),
    "lam": (T, S.Pi(IDM, S.Bool(), S.Bool()), S.Lam(var(1)), 1),
    "pi-codomain": (T, S.Pi(IDM, S.Uni(), S.Dec(var(1))), S.Lam(var(0)), 1),
    "sig-second": (T, S.Sig(S.Uni(), S.Dec(var(1))), S.Pair(S.BoolCode(), S.True_()), 1),
    "if-motive": (T, S.Bool(), S.If(S.Dec(var(1)), S.True_(), S.True_(), S.True_()), 1),
    "letbox-motive": (
        T, S.Bool(), S.LetMod(IDM, IDM, S.Dec(var(1)), S.MkBox(IDM, S.True_()), S.True_()), 1
    ),
    "letbox-branch": (
        T, S.Bool(), S.LetMod(IDM, IDM, S.Bool(), S.MkBox(IDM, S.True_()), var(1)), 1
    ),
    "pair": (T, S.Sig(S.Bool(), S.Bool()), S.Pair(S.True_(), var(0)), 0),
    "pic-codomain": (T, S.Uni(), S.PiCode(IDM, S.BoolCode(), var(1)), 1),
    "sigc-second": (T, S.Uni(), S.SigCode(S.BoolCode(), var(1)), 1),
    "under-a-lock": (W, S.Pi(MU, S.Bool(), S.Mod(MU, S.Bool())), S.Lam(S.MkBox(MU, var(1, MU))), 1),
}


@pytest.mark.parametrize("form", PAST_THE_SCOPE)
def test_check_program_rejects_an_index_past_the_scope(form):
    mt, ty, body, k = PAST_THE_SCOPE[form]
    (result,) = check_program(mt, [("oops", "m", ty, body)]).results
    assert not result.ok and result.error == f"unbound variable index {k}"


def test_checked_terms_normalize():
    decls = [
        ("k", "m", S.Pi(IDM, S.Bool(), S.Pi(IDM, S.Bool(), S.Bool())), S.Lam(S.Lam(var(1)))),
        ("swap", "m", S.Pi(IDM, S.Sig(S.Bool(), S.Bool()), S.Sig(S.Bool(), S.Bool())),
         S.Lam(S.Pair(S.Proj2(var(0)), S.Proj1(var(0))))),
    ]
    report = check_program(T, decls)
    assert report.ok
    for r in report.results:
        assert r.body_nf is not None


# ---------------------------------------------------------------------------
# Dispatch: each per-node function tests ``x.__class__ is C`` arm by arm,
# so a form that reaches no arm of its own falls through to the generic
# error at the end.  One well-formed sample of every former pins that each
# reaches its own arm.

TYPE_FORMERS = {S.Pi, S.Sig, S.Bool, S.Uni, S.Mod, S.Dec}
CHECKED_ONLY = {S.Lam, S.Pair, S.DecIsoInv}


def _term_samples() -> "tuple[CheckCtx, dict]":
    """A context ``x : Bool`` over a signature of ``c``, ``f``, ``p`` and
    ``d``, and one sample of every ``Term`` class that checks in it."""
    b, c = S.Bool(), S.BoolCode()
    sig = check_program(T, [
        ("c", "m", b, S.True_()),
        ("f", "m", S.Pi(IDM, b, b), S.Lam(var(0))),
        ("p", "m", S.Sig(b, b), S.Pair(S.True_(), S.False_())),
        ("d", "m", S.Dec(c), S.DecIsoInv(S.True_())),
    ]).signature
    box = S.MkBox(IDM, S.True_())
    samples = [
        var(0), S.Const("c"), S.Pi(IDM, b, b), S.Sig(b, b), b, S.Uni(), S.Mod(IDM, b),
        S.Dec(c), S.Lam(var(0)), S.App(S.Const("f"), S.True_()),
        S.Pair(S.True_(), S.False_()), S.Proj1(S.Const("p")), S.Proj2(S.Const("p")),
        S.True_(), S.False_(), S.If(b, S.False_(), S.True_(), var(0)), box,
        S.LetMod(IDM, IDM, b, box, var(0)), S.PiCode(IDM, c, c), S.SigCode(c, c), c,
        S.ModCode(IDM, c), S.DecIso(S.Const("d")), S.DecIsoInv(S.True_()),
    ]
    ctx = ctx_extend(empty_ctx(T, "m", sig), IDM, TBool())
    return ctx, {type(t): t for t in samples}


@pytest.mark.parametrize("cls", S.Term.__subclasses__(), ids=lambda c: c.__name__)
def test_every_term_former_reaches_its_own_arm(cls):
    ctx, samples = _term_samples()
    assert samples.keys() == set(S.Term.__subclasses__())
    t = samples[cls]
    if cls in TYPE_FORMERS:
        assert isinstance(check_type(ctx, t), TypeValue)
        assert isinstance(eval_ty(T, ctx.env, t), TypeValue)
        with pytest.raises(CheckError, match="^type formers are not terms"):
            infer(ctx, t)
        return
    with pytest.raises(CheckError, match="^not a type: "):
        check_type(ctx, t)
    assert isinstance(eval_tm(T, ctx.env, t), Value)
    if cls in CHECKED_ONLY:
        with pytest.raises(CheckError, match=f"^cannot infer a type for {cls.__name__}: it must"):
            infer(ctx, t)
    else:
        assert isinstance(infer(ctx, t), TypeValue)


def _type_value_samples() -> dict:
    env = Env((), NO_DEFS)
    samples = [
        TPi(IDM, TBool(), Closure(env, S.Bool())), TSig(TBool(), Closure(env, S.Bool())),
        TBool(), TUni(), TMod(IDM, TBool()), TDec(BOOL_CODE),
    ]
    return {type(v): v for v in samples}


@pytest.mark.parametrize("cls", TypeValue.__subclasses__(), ids=lambda c: c.__name__)
def test_every_type_value_reaches_its_own_arm(cls):
    samples = _type_value_samples()
    assert samples.keys() == set(TypeValue.__subclasses__())
    a, b = samples[cls], _type_value_samples()[cls]  # equal, not one object
    assert isinstance(reflect(T, a, NeAbs(0, id_cell(IDM))), Value)
    assert isinstance(reify_ty(T, 0, "m", a), NfTy)
    assert conv_ty(T, 0, "m", a, b)
    assert not conv_ty(T, 0, "m", a, TUni() if cls is TBool else TBool())
