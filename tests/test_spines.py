"""Application spines and runs of lambdas, each taken as one unit.

The checker infers a spine's head once and checks its arguments in turn,
and opens a run of lambdas with one context extension; the evaluator enters
a lambda's body with one argument per leading binder in one environment
extension.  These tests hold the loops to what one node at a time gives:
the same diagnostics byte for byte, the same normal forms as a reference
evaluator that applies one argument at a time with ``do_app``, and a number
of contexts and environments that does not grow with the run.
"""

from collections import Counter

import pytest

from mtt import check
from mtt import nbe
from mtt import syntax as S
from mtt.check import CheckCtx, CheckError, check_program, check_tm, check_type, empty_ctx
from mtt.cli import main, parse_file
from mtt.modeth import Modality, adjoint, id_cell, id_mod, trivial
from mtt.nbe import BOOL, Env, TPi


def _run(tmp_path, capsys, cmd: str, text: str) -> "tuple[int, str, str]":
    path = tmp_path / "run.mtt"
    path.write_text(text, encoding="utf-8")
    code = main([cmd, str(path)])
    cap = capsys.readouterr()
    return code, cap.out, cap.err.replace(str(path), "run.mtt")


# ---------------------------------------------------------------------------
# Diagnostics: each line is what checking one node at a time printed.

DIAGNOSTICS = [
    (
        r"""theory adjoint
def f @m : Pi (a : Bool) -> Pi (b : Bool) -> Pi (c : Bool) -> Bool := \a -> \b -> \c -> b
def g @m : Pi (a : Bool) -> Pi (b : Bool) -> Bool := \a -> \b -> a
def kth @m : Bool := f true BoolC true
def over @m : Bool := g true false true
def longer @m : Pi (a : Bool) -> Pi (b : Bool) -> Bool := \a -> \b -> \c -> a
""",
        1,
        "run.mtt:4:1: error: kth: type mismatch: expected Bool, actual Uni\n"
        "run.mtt:5:1: error: over: application of a non-function: Bool\n"
        "run.mtt:6:1: error: longer: function literal at non-function type Bool\n",
    ),
    (
        r"""theory pointed
def h @m : Pi (c : Uni) -> Pi (x : dec c) -> dec c := \c -> \x -> x
def dep_longer @m : Pi (c : Uni) -> Pi (x : dec c) -> dec c := \c -> \x -> \y -> x
def dep_over @m : Bool := h BoolC (iso-inv true) true
def dep_kth @m : dec BoolC := h BoolC BoolC
def inner_longer @m : Pi (c : Uni) -> Pi (x : Bool) -> Bool := \c -> \x -> if [b. Bool] x then (\y -> y) else false
def lock_arg @m : Pi (l | x : Bool) -> Bool := \(l | x) -> true
def lock_bad @m : Bool := lock_arg BoolC
def mixed @m : Pi (c : Uni) -> Pi (d : Uni) -> Pi (x : dec c) -> dec d := \c -> \d -> \x -> x
def mixed_app @m : Pi (c : Uni) -> Pi (d : Uni) -> Pi (x : dec c) -> dec c := \c -> \d -> \x -> x
def use @m : dec BoolC := mixed_app BoolC (PiC (p : BoolC) -> BoolC) (iso-inv false)
def bad @m : dec BoolC := mixed_app (PiC (p : BoolC) -> BoolC) BoolC (iso-inv false)
""",
        1,
        "run.mtt:3:1: error: dep_longer: function literal at non-function type dec x0\n"
        "run.mtt:4:1: error: dep_over: application of a non-function: dec BoolC\n"
        "run.mtt:5:1: error: dep_kth: type mismatch: expected dec BoolC, actual Uni\n"
        "run.mtt:6:1: error: inner_longer: function literal at non-function type Bool\n"
        "run.mtt:8:1: error: lock_bad: type mismatch: expected Bool, actual Uni\n"
        "run.mtt:9:1: error: mixed: type mismatch: expected dec x1, actual dec x0\n"
        "run.mtt:12:1: error: bad: type mismatch: expected Pi (id(m) | x0 : dec BoolC) -> "
        "dec BoolC, actual Bool\n",
    ),
    (
        r"""theory adjoint
def mode @m : Pi (a : Bool) -> Pi (b : Bool) -> Bool := \a -> \(r | b) -> a
""",
        2,
        "run.mtt:2:63: modality r lands in mode n, but the ambient mode is m\n",
    ),
]


@pytest.mark.parametrize("text, code, err", DIAGNOSTICS, ids=["spine", "dependent", "parse"])
def test_spine_and_run_diagnostics_are_those_of_one_node_at_a_time(
    tmp_path, capsys, text, code, err
):
    done = _run(tmp_path, capsys, "check", text)
    assert (done[0], done[2]) == (code, err)


R = Modality("m", "n", ("r",))  # lands in n, but the run opens at mode m
M = id_mod("m")


@pytest.mark.parametrize(
    "ty",
    [
        TPi(M, BOOL, TPi(R, BOOL, BOOL)),
        TPi(R, BOOL, BOOL),
        TPi(M, BOOL, TPi(R, BOOL, TPi(M, BOOL, BOOL))),
    ],
    ids=["second", "first", "second-of-three"],
)
@pytest.mark.parametrize("lams", [2, 3])
def test_a_run_annotation_at_the_wrong_mode_is_refused_at_its_binder(ty, lams):
    # With three lambdas at a two-binder type, the run also outgrows its
    # type; the binder at the wrong mode comes first, so its error wins.
    body = S.Lam(S.Lam(S.Var(1, id_cell(M))))
    if lams == 3:
        body = S.Lam(S.Lam(S.Lam(S.True_())))
    with pytest.raises(CheckError) as e:
        check_tm(empty_ctx(adjoint(), "m"), body, ty)
    assert str(e.value) == "annotation r targets n, telescope is at m"


# ---------------------------------------------------------------------------
# Records built per run


def _counting(monkeypatch, cls) -> Counter:
    counts = Counter()

    def counting(self, *args, _init=cls.__init__, **kwargs):
        counts[cls.__name__] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _projection(width: int) -> "tuple[S.Term, S.Term]":
    """``Pi (x1 : Bool) .. -> Bool`` and ``\\x1 .. xk -> x1``."""
    ty: S.Term = S.Bool()
    body: S.Term = S.Var(width - 1, id_cell(M))
    for _ in range(width):
        ty, body = S.Pi(M, S.Bool(), ty), S.Lam(body)
    return ty, body


def test_a_run_of_lambdas_builds_one_context_however_long(monkeypatch):
    counts = _counting(monkeypatch, CheckCtx)
    built = {}
    for width in (2, 32):
        ctx = empty_ctx(trivial(), "m")
        ty, body = _projection(width)
        tyv = check_type(ctx, ty)
        counts.clear()
        check_tm(ctx, body, tyv)
        built[width] = counts["CheckCtx"]
    assert built[32] == built[2] == 1


def test_applying_a_k_lambda_definition_to_k_arguments_builds_one_env(monkeypatch):
    counts = _counting(monkeypatch, Env)
    built = {}
    for width in (2, 32):
        ty, body = _projection(width)
        use = S.Const("f")
        for _ in range(width):
            use = S.App(use, S.False_())
        decls = [("f", "m", ty, body), ("use", "m", S.Bool(), use)]
        report = check_program(trivial(), decls)
        assert report.ok
        report.signature["f"].val.force()
        counts.clear()
        assert isinstance(report.signature["use"].val.force(), nbe.VFalse)
        built[width] = counts["Env"]
    assert built[32] == built[2] == 1


# ---------------------------------------------------------------------------
# Evaluation against one argument at a time


def one_argument_at_a_time(real):
    """The evaluator with each application its own step: the function, then
    the argument, then ``do_app``.  Installed as ``nbe.eval_tm``, it is what
    every recursive evaluation, instantiation and forced body calls."""

    def eval_tm(mt, env, t):
        if t.__class__ is S.App:
            return nbe.do_app(mt, eval_tm(mt, env, t.fn), eval_tm(mt, env, t.arg))
        return real(mt, env, t)

    return eval_tm


TELESCOPES = {
    # Dependent telescopes, partial applications stored in definitions and
    # applied later, neutral heads under binders, an `if` and a pair
    # projection as heads, and heads given more or fewer arguments than
    # they have leading lambdas.
    "trivial": r"""theory trivial
def poly @m : Pi (c : Uni) -> Pi (x : dec c) -> dec c := \c -> \x -> x
def poly_at @m : Pi (c : Uni) -> Pi (x : dec c) -> dec c := \c -> poly c
def poly_eta @m : Pi (c : Uni) -> Pi (x : dec c) -> dec c := poly
def at_pair @m : dec (SigC (p : BoolC) * BoolC) := poly_at (SigC (p : BoolC) * BoolC) (iso-inv (iso-inv true, iso-inv false))
def at_fn @m : dec (PiC (p : BoolC) -> BoolC) := poly (PiC (p : BoolC) -> BoolC) (iso-inv (\p -> p))
def sel @m : Pi (a : Bool) -> Pi (b : Bool) -> Pi (c : Bool) -> Bool := \a -> \b -> \c -> if [_. Bool] a then b else c
def sel_false @m : Pi (b : Bool) -> Pi (c : Bool) -> Bool := sel false
def sel_ft @m : Pi (c : Bool) -> Bool := sel_false true
def use_partial @m : Bool := sel_ft false
def use_stored @m : Bool := sel_false false true
def twice @m : Pi (c : Uni) -> Pi (f : Pi (x : dec c) -> dec c) -> Pi (x : dec c) -> dec c := \c -> \f -> \x -> f (f x)
def twice_poly @m : Pi (c : Uni) -> Pi (x : dec c) -> dec c := \c -> twice c (poly c)
def under @m : Pi (g : Pi (c : Uni) -> Pi (x : dec c) -> dec c) -> Pi (y : Bool) -> dec BoolC := \g -> \y -> g BoolC (iso-inv y)
def under_twice @m : Pi (g : Pi (a : Bool) -> Pi (b : Bool) -> Bool) -> Pi (y : Bool) -> Bool := \g -> \y -> g (g y true) (sel y false y)
def if_head @m : Pi (b : Bool) -> Pi (y : Bool) -> Bool := \b -> \y -> (if [_. Pi (x : Bool) -> Pi (z : Bool) -> Bool] b then (\x -> \z -> x) else (\x -> \z -> z)) y true
def if_closed @m : Bool := (if [_. Pi (x : Bool) -> Pi (z : Bool) -> Bool] false then (\x -> \z -> x) else (\x -> \z -> z)) true false
def if_dep @m : Pi (b : Bool) -> dec (if [_. Uni] b then BoolC else (PiC (p : BoolC) -> BoolC)) := \b -> if [d. dec (if [_. Uni] d then BoolC else (PiC (p : BoolC) -> BoolC))] b then (iso-inv true) else (iso-inv (\p -> p))
def fns @m : Sig (f : Pi (a : Bool) -> Pi (b : Bool) -> Bool) * Bool := (\a -> \b -> b, true)
def pair_head @m : Pi (y : Bool) -> Bool := \y -> fns.1 y false
def k1 @m : Pi (g : Pi (x : Bool) -> Pi (y : Bool) -> Bool) -> Pi (a : Bool) -> Pi (b : Bool) -> Bool := \g -> \a -> g a
def more_args @m : Bool := k1 (\x -> \y -> y) true false
""",
    # letbox heads that return lambdas, on a neutral and on a boxed scrutinee.
    "walking": r"""theory walking
def lb_neutral @m : Pi (p : Mod mu Bool) -> Pi (x : Bool) -> Mod mu Bool := \p -> \x -> (letbox (id(m) | mu) [b. Pi (x : Bool) -> Mod mu Bool] y = p in \z -> box mu y) x
def lb_closed @m : Mod mu Bool := (letbox (id(m) | mu) [b. Pi (x : Bool) -> Pi (w : Bool) -> Mod mu Bool] y = box mu true in \z -> \w -> box mu y) false true
def lb_use @m : Mod mu Bool := lb_neutral (box mu false) true
""",
    # Keyed variables as heads, neutral and then substituted by lambdas.
    "pointed": r"""theory pointed
def keyed @m : Pi (f : Pi (x : Bool) -> Pi (y : Bool) -> Bool) -> Mod l (Pi (x : Bool) -> Bool) := \f -> box l (\x -> f^pt x x)
def keyed_lam @m : Mod l (Pi (x : Bool) -> Bool) := keyed (\a -> \b -> b)
def keyed_dep @m : Pi (g : Pi (c : Uni) -> Pi (x : dec c) -> dec c) -> Mod l (Pi (x : Bool) -> dec BoolC) := \g -> box l (\x -> g^pt BoolC (iso-inv x))
def keyed_dep_use @m : Mod l (Pi (x : Bool) -> dec BoolC) := keyed_dep (\c -> \x -> x)
def papp @m : Pi (f : Pi (l | x : Bool) -> Pi (y : Bool) -> Bool) -> Pi (x : Bool) -> Bool := \f -> \x -> f (x^pt) x
def papp_use @m : Pi (x : Bool) -> Bool := papp (\(l | x) -> \y -> y)
""",
}


@pytest.mark.parametrize("name", sorted(TELESCOPES))
def test_spines_normalize_as_one_argument_at_a_time(tmp_path, capsys, monkeypatch, name):
    text = TELESCOPES[name]
    with monkeypatch.context() as m:
        reference = one_argument_at_a_time(nbe.eval_tm)
        m.setattr(nbe, "eval_tm", reference)
        m.setattr(check, "eval_tm", reference)
        expected = _run(tmp_path, capsys, "normalize", text)
    assert expected[0] == 0 and expected[2] == ""
    assert expected[1].count("\n") == 2 * len(parse_file(text)[1])
    assert _run(tmp_path, capsys, "normalize", text) == expected
