"""The one printer of terms, ``syntax.show_term``.

A normal form prints without being embedded into core terms, exactly as
its embedding (``normal.decode_nf``) prints.  Normal forms print as the
earlier text-matching printer
(``tests/_surface_reference.py``) printed them, except a projected keyed
variable, and every printed form parses, checks and normalizes back to the
same text.  ``--print-core`` output parses back to equal core terms.
"""

import pathlib
import random
import re
import sys
from functools import cache

import pytest

from _surface_reference import surface_nf as reference_nf
from _surface_reference import surface_nfty as reference_nfty
from mtt import syntax as S
from mtt.check import CheckError, check_program, check_tm, check_type, ctx_extend, empty_ctx
from mtt.cli import Parser, main, parse_file, tokenize
from mtt.harness import GenConfig, gen_type, gen_typed_term
from mtt.modeth import THEORIES, Modality, gen_cell, id_cell, id_mod
from mtt.nbe import BOOL, normalize, normalize_ty
from mtt import normal as N
from mtt.normal import surface_nf, surface_nfty

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.mtt"))
GENERATED_PER_THEORY = 2000

# A keyed variable under a projection: its normal form projects x0^pt.
KEYED_PROJECTION = (
    "theory pointed\n"
    "def f @m : Pi (x : Sig (a : Bool) * Bool) -> Mod l (Sig (a : Bool) * Bool)"
    " := \\x -> box l (x^pt)\n"
)


def _normal_forms(text: str) -> list:
    """(theory, mode, type, body) in normal form for each declaration."""
    mt, decls = parse_file(text)
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    assert report.ok
    return [(mt, d.mode, r.ty_nf, r.body_nf) for d, r in zip(decls, report.results)]


@cache
def _cases() -> tuple:
    """The normal forms of the corpus, of ``KEYED_PROJECTION`` and of
    closed programs generated at mode m, ``GENERATED_PER_THEORY`` per
    shipped theory."""
    cases = [nf for path in CORPUS for nf in _normal_forms(path.read_text(encoding="utf-8"))]
    cases += _normal_forms(KEYED_PROJECTION)
    for name in sorted(THEORIES):
        mt = THEORIES[name]()
        for seed in range(GENERATED_PER_THEORY):
            cfg, ctx = GenConfig(seed=seed, theory=name), empty_ctx(mt, "m")
            rng = random.Random(seed)
            ty = gen_type(cfg, ctx, rng)
            tm = gen_typed_term(cfg, ctx, check_type(ctx, ty), rng)
            cases.append((mt, "m", normalize_ty(ctx, ty), normalize(ctx, ty, tm)))
    return tuple(cases)


def _reads_back(mt, mode: str, ty_text: str, body_text: str) -> "tuple[str, str]":
    """The printed normal forms of the declaration ``ty_text := body_text``."""
    ctx = empty_ctx(mt, mode)
    ty = Parser(tokenize(ty_text), mt).parse_type(mode)
    body = Parser(tokenize(body_text), mt).parse_term(mode)
    check_tm(ctx, body, check_type(ctx, ty))
    return surface_nfty(mt, normalize_ty(ctx, ty)), surface_nf(mt, normalize(ctx, ty, body))


def test_a_projected_keyed_variable_prints_so_that_it_parses():
    ((mt, mode, ty, body),) = _normal_forms(KEYED_PROJECTION)
    texts = surface_nfty(mt, ty), surface_nf(mt, body)
    assert texts[1] == "\\(id(m) | x0) -> box l ((x0^pt).1, (x0^pt).2)"
    assert _reads_back(mt, mode, *texts) == texts


def test_every_normal_form_reads_back_to_the_same_text():
    for mt, mode, ty, body in _cases():
        texts = surface_nfty(mt, ty), surface_nf(mt, body)
        assert _reads_back(mt, mode, *texts) == texts


def test_a_normal_form_prints_as_its_embedding():
    for mt, _, ty, body in _cases():
        assert surface_nfty(mt, ty) == S.show_term(N.decode_nfty(ty), 0, "x")
        assert surface_nf(mt, body) == S.show_term(N.decode_nf(body), 0, "x")


_PT = THEORIES["pointed"]()
_IDM, _L = id_mod("m"), Modality("m", "m", ("l",))
_X0, _X1 = N.NeVar(1, id_cell(_IDM)), N.NeVar(0, id_cell(_IDM))  # over two variables
_X1_PT = N.NeVar(0, gen_cell(_PT, "pt"))


# Normal forms over two variables by their text: neutrals included
# (``NfInj``) as a box's body, an argument, a projection, a code and a branch.
_INCLUDED = {
    "box l x1": N.NfMkBox(_L, N.NfInj(_X1)),
    "box l x1^pt": N.NfMkBox(_L, N.NfInj(_X1_PT)),
    "box l (x0 x1)": N.NfMkBox(_L, N.NfInj(N.NeApp(_X0, _IDM, N.NfInj(_X1)))),
    "box l (x1^pt).2": N.NfMkBox(_L, N.NfInj(N.NeProj2(_X1_PT))),
    "box l ((x0 true).1)": N.NfMkBox(_L, N.NfInj(N.NeProj1(N.NeApp(_X0, _IDM, N.NfTrue())))),
    "(x0 x1)": N.NfInj(N.NeApp(_X0, _IDM, N.NfInj(_X1))),
    "(x0 x1.1)": N.NfInj(N.NeApp(_X0, _IDM, N.NfInj(N.NeProj1(_X1)))),
    "(x0 (x0 false))": N.NfInj(N.NeApp(_X0, _IDM, N.NfInj(N.NeApp(_X0, _IDM, N.NfFalse())))),
    "(x0 (box l x1))": N.NfInj(N.NeApp(_X0, _IDM, N.NfMkBox(_L, N.NfInj(_X1)))),
    "x1.2.1": N.NfInj(N.NeProj1(N.NeProj2(_X1))),
    "iso-inv x1": N.NfDecIsoStar(N.NfInj(_X1)),
    "dec x1^pt": N.NfDec(N.NfInj(_X1_PT)),
    "dec (x0 true)": N.NfDec(N.NfInj(N.NeApp(_X0, _IDM, N.NfTrue()))),
    "ModC l (iso x1)": N.NfModifyCode(_L, N.NfInj(N.NeDecIso(_X1))),
    "(if [x2. Bool] x1 then x0 else x1.2)": N.NfInj(
        N.NeBoolRec(N.NfBool(), _X1, N.NfInj(_X0), N.NfInj(N.NeProj2(_X1)))
    ),
}


@pytest.mark.parametrize("text", list(_INCLUDED))
def test_an_included_neutral_prints_as_its_neutral_wherever_it_stands(text):
    form = _INCLUDED[text]
    assert surface_nf(_PT, form, 2) == text
    assert S.show_term(N.decode_nf(form), 2, "x") == text


# The earlier printer wrote a projected keyed variable without parentheses.
_KEYED_PROJECTED = re.compile(r"\((x[0-9]+\^[^\s(),]+)\)\.")


def test_normal_forms_print_as_the_reference_printer_printed_them():
    keyed = 0
    for mt, _, ty, body in _cases():
        for new, old in ((surface_nfty(mt, ty), reference_nfty(mt, ty)),
                         (surface_nf(mt, body), reference_nf(mt, body))):
            if new != old:
                assert _KEYED_PROJECTED.sub(r"\1.", new) == old
                keyed += 1
    assert keyed >= 2  # the body of KEYED_PROJECTION and a generated one


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_print_core_reads_back_to_equal_core_terms(path, capsys):
    text = path.read_text(encoding="utf-8")
    assert main(["check", "--print-core", str(path)]) == 0
    core = [line for line in capsys.readouterr().out.splitlines() if line.startswith("core ")]
    _, decls = parse_file(text)
    header = text[: re.search(r"^def ", text, re.M).start()]
    rebuilt = header + "".join(
        f"def {d.name} @{d.mode} : {ty.partition(' : ')[2]} := {body.partition(' = ')[2]}\n"
        for d, ty, body in zip(decls, core[::2], core[1::2])
    )
    _, again = parse_file(rebuilt)
    assert [(d.name, d.ty, d.body) for d in again] == [(d.name, d.ty, d.body) for d in decls]
    for d, ty, body in zip(again, core[::2], core[1::2]):
        assert f"core {d.name} : {S.show_term(d.ty)}" == ty
        assert f"core {d.name} = {S.show_term(d.body)}" == body


def test_terms_built_through_the_api_print_so_that_they_parse():
    ident = S.Lam(S.Var(0, id_cell(id_mod("m"))))  # no binder modality
    assert S.show_term(S.App(ident, S.True_())) == "((\\x0 -> x0) true)"
    assert S.show_term(S.Proj1(S.App(S.Const("p"), S.True_()))) == "(p true).1"
    assert S.show_term(S.Proj2(S.Proj1(S.Const("p")))) == "p.1.2"


def test_not_a_type_prints_the_term_at_the_context_depth():
    mt = THEORIES["walking"]()
    ctx = ctx_extend(empty_ctx(mt, "m"), id_mod("m"), BOOL)
    with pytest.raises(CheckError, match=r"^not a type: \(x0 true\)$"):
        check_type(ctx, S.App(S.Var(0, id_cell(id_mod("m"))), S.True_()))


def test_a_box_chain_the_parser_reads_is_printed_too(tmp_path, capsys):
    """Printing takes no more stack per level than parsing: at the deepest
    chain of boxes that parses, ``mtt normalize`` prints its normal form."""
    path = tmp_path / "deep.mtt"

    def normalize_chain(n: int) -> "tuple[int, str]":
        path.write_text(f"theory pointed\ndef d @m : {'Mod l ' * n}Bool := {'box l ' * n}true\n")
        status = main(["normalize", str(path)])
        return status, capsys.readouterr().err

    lo, hi = 1, 4 * sys.getrecursionlimit()
    while lo < hi:  # the deepest chain that parses
        mid = (lo + hi + 1) // 2
        if "nested too deeply to parse" in normalize_chain(mid)[1]:
            hi = mid - 1
        else:
            lo = mid
    assert normalize_chain(lo) == (0, "")
