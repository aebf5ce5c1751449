"""Non-dependent codomains: the ``dependent`` flag of ``Pi`` and ``Sig``.

``free_in`` below is the oracle: a walk over core terms that shares no code
with the parser, which sets the flag while it resolves names, nor with
``harness.mentions``, which the generators use.
"""

import pathlib
import random

import pytest

from mtt import nbe
from mtt import syntax as S
from mtt.check import check_program, check_type, empty_ctx
from mtt.cli import Parser, parse_file, tokenize
from mtt.harness import GenConfig, GenExhausted, gen_type, gen_typed_term, theory_of
from mtt.modeth import THEORIES, id_cell, id_mod, trivial
from mtt.nbe import NbeError, normalize, normalize_ty
from mtt.normal import surface_nf, surface_nfty

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.mtt"))

# The fields of each term former that bind one variable.
BINDERS = {
    S.Pi: ("cod",),
    S.Sig: ("snd",),
    S.Lam: ("body",),
    S.If: ("motive",),
    S.LetMod: ("motive", "branch"),
    S.PiCode: ("cod",),
    S.SigCode: ("snd",),
}
CODOMAIN = {S.Pi: "cod", S.Sig: "snd"}


def free_in(t: S.Term, k: int) -> bool:
    """Whether variable ``k`` occurs in ``t``."""
    if isinstance(t, S.Var):
        return t.idx == k
    under = BINDERS.get(type(t), ())
    return any(
        free_in(v, k + (f in under)) for f, v in vars(t).items() if isinstance(v, S.Term)
    )


def binders(t: S.Term):
    """Every ``Pi`` and ``Sig`` in ``t``."""
    todo = [t]
    while todo:
        u = todo.pop()
        if type(u) in CODOMAIN:
            yield u
        todo.extend(v for v in vars(u).values() if isinstance(v, S.Term))


def mentioned(t: S.Term) -> bool:
    """Whether the codomain of ``Pi``/``Sig`` ``t`` mentions its variable."""
    return free_in(getattr(t, CODOMAIN[type(t)]), 0)


def test_the_oracle_sees_bound_and_shadowed_variables():
    x = S.Var(0, id_cell(id_mod("m")))
    y = S.Var(1, id_cell(id_mod("m")))
    assert free_in(x, 0) and not free_in(x, 1)
    assert not free_in(S.Lam(x), 0) and free_in(S.Lam(y), 0)
    assert free_in(S.LetMod(id_mod("m"), id_mod("m"), S.Bool(), x, y), 0)


def test_the_parser_flags_exactly_the_codomains_that_mention_their_variable():
    seen = set()
    for path in CORPUS:
        _, decls = parse_file(path.read_text(encoding="utf-8"))
        for d in decls:
            for t in (*binders(d.ty), *binders(d.body)):
                assert t.dependent == mentioned(t), (path.name, d.name, S.show_term(t))
                seen.add(t.dependent)
    assert seen == {True, False}


def test_shadowing_and_keys_set_the_flag_of_the_binder_named():
    _, decls = parse_file(
        "theory pointed\n"
        "def a @m : Pi (x : Uni) -> Pi (x : Bool) -> Bool := \\x -> \\x -> x\n"
        "def b @m : Pi (x : Uni) -> Pi (y : Bool) -> dec x := \\x -> \\y -> x\n"
        "def c @m : Pi (l | x : Uni) -> Mod l (dec x^pt) := \\(l | x) -> box l (iso-inv true)\n"
    )
    flags = [[t.dependent for t in binders(d.ty)] for d in decls]
    assert flags == [[False, False], [True, False], [True]]


def _harness_cases(trials: int):
    """(theory, type, term or None) from seeded generator runs at mode m."""
    for name in sorted(THEORIES):
        for seed in range(trials):
            cfg = GenConfig(seed=seed, theory=name)
            mt = theory_of(cfg)
            ctx = empty_ctx(mt, "m")
            rng = random.Random(seed)
            ty = gen_type(cfg, ctx, rng)
            try:
                tm = gen_typed_term(cfg, ctx, check_type(ctx, ty), rng)
            except GenExhausted:
                tm = None
            yield mt, ty, tm


def test_the_harness_and_the_parser_agree_with_the_oracle_on_generated_programs():
    flags = set()
    for mt, ty, tm in _harness_cases(25):
        for t in (*binders(ty), *(binders(tm) if tm is not None else ())):
            # True claims nothing: types read back by the generators keep it.
            assert t.dependent or not mentioned(t), S.show_term(t)
            flags.add(t.dependent)
        ctx = empty_ctx(mt, "m")
        texts = [(Parser.parse_type, surface_nfty(mt, normalize_ty(ctx, ty)))]
        if tm is not None:
            texts.append((Parser.parse_term, surface_nf(mt, normalize(ctx, ty, tm))))
        for parse, text in texts:
            p = Parser(tokenize(text), mt)
            for t in binders(parse(p, "m")):
                assert t.dependent == mentioned(t), text
    assert False in flags


def _all_dependent(t):
    """``t`` with every flag left at its default."""
    if not isinstance(t, S.Term):
        return t
    fields = {f: _all_dependent(v) for f, v in vars(t).items() if f != "dependent"}
    return type(t)(**fields)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_value_codomains_read_back_as_closures_do(path):
    mt, decls = parse_file(path.read_text(encoding="utf-8"))
    sig = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls]).signature
    for d in decls:
        ctx = empty_ctx(mt, d.mode, sig)
        want = normalize_ty(ctx, _all_dependent(d.ty))
        assert normalize_ty(ctx, d.ty) == want, d.name


def test_eval_keeps_a_non_dependent_codomain_as_a_value():
    _, (d,) = parse_file("def f @m : Pi (x : Bool) -> Sig (y : Uni) * dec y := \\x -> x")
    env = nbe.Env((), nbe.NO_DEFS)
    tyv = nbe.eval_ty(trivial(), env, d.ty)
    assert isinstance(tyv.cod, nbe.TSig) and isinstance(tyv.cod.snd, nbe.Closure)
    assert nbe.inst_ty(trivial(), tyv.cod, nbe.VTrue()) is tyv.cod


IDM = id_mod("m")
X = S.Var(0, id_cell(IDM))
WRONG = {
    "pi": S.Pi(IDM, S.Uni(), S.Dec(X), dependent=False),
    "sig": S.Sig(S.Uni(), S.Dec(X), dependent=False),
    # Under a code's binder the variable is reached only by read-back.
    "under-a-code": S.Pi(
        IDM, S.Uni(), S.Dec(S.PiCode(IDM, S.BoolCode(), S.Var(1, id_cell(IDM)))), dependent=False
    ),
}


@pytest.mark.parametrize("ty", WRONG.values(), ids=WRONG.keys())
def test_a_wrong_non_dependent_flag_raises(ty):
    mt = trivial()
    with pytest.raises(NbeError, match="non-dependent"):
        normalize_ty(empty_ctx(mt, "m"), ty)
    with pytest.raises(NbeError, match="non-dependent"):
        tyv = check_type(empty_ctx(mt, "m"), ty)
        nbe.reify_ty(mt, 0, "m", tyv)
    right = _all_dependent(ty)
    normalize_ty(empty_ctx(mt, "m"), right)
