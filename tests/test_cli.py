"""Tests for the surface language: lexing, parsing, commands, round-trips."""

import gc
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from mtt import check as C
from mtt import cli
from mtt import conv
from mtt import modeth
from mtt import nbe
from mtt import normal
from mtt import syntax as S
from mtt.check import check_program, check_tm, check_type, empty_ctx
from mtt.cli import ParseError, main, parse_file, surface_nf, tokenize
from mtt.modeth import (
    Atom,
    ModeError,
    Modality,
    Undecided,
    compose_mod,
    id_cell,
    id_mod,
    pointed,
    walking,
)
from mtt.nbe import normalize
from mtt.normal import eq_nf
from test_harness import _keys_of, assert_cell_reads_back

IDM = id_mod("m")
MU = Modality("n", "m", ("mu",))
L = Modality("m", "m", ("l",))


def parse_term(src: str, mt, mode: str = "m"):
    p = cli.Parser(tokenize(src), mt)
    t = p.parse_term(mode)
    assert p.peek().kind == "eof"
    return t


def parse_type(src: str, mt, mode: str = "m"):
    p = cli.Parser(tokenize(src), mt)
    t = p.parse_type(mode)
    assert p.peek().kind == "eof"
    return t


# ---------------------------------------------------------------------------
# Tokenizer


def test_tokenizer_tracks_lines_and_columns():
    toks = tokenize("def x\n  := true")
    assert [(t.text, t.line, t.col) for t in map(toks.token, range(4))] == [
        ("def", 1, 1),
        ("x", 1, 5),
        (":=", 2, 3),
        ("true", 2, 6),
    ]


def test_tokenizer_keeps_iso_inv_as_one_token():
    assert tokenize("iso-inv iso") == ["iso-inv", "iso", ""]


def test_tokenizer_skips_comments():
    assert tokenize("true -- ignored -> := junk\nfalse") == ["true", "false", ""]


def test_tokenizer_rejects_stray_characters():
    with pytest.raises(ParseError) as e:
        tokenize("def $")
    assert e.value.col == 5
    # the first stray character wins, even over a parse error before it
    with pytest.raises(ParseError) as e:
        parse_file("def 1 @m\n  := $ ~")
    assert (e.value.msg, e.value.line, e.value.col) == ("unexpected character '$'", 2, 6)


# ---------------------------------------------------------------------------
# Types and terms


def test_parse_annotated_pi():
    t = parse_type("Pi (mu | x : Bool) -> Bool", walking())
    assert t == S.Pi(MU, S.Bool(), S.Bool())


def test_parse_pi_sugar_defaults_to_identity():
    t = parse_type("Pi (x : Bool) -> Bool", walking())
    assert t == S.Pi(IDM, S.Bool(), S.Bool())


def test_parse_sigma_and_dependent_use():
    t = parse_type("Sig (x : Uni) * dec x", walking())
    assert t == S.Sig(S.Uni(), S.Dec(S.Var(0, id_cell(IDM))))


def test_parse_modal_type_switches_ambient_mode():
    t = parse_type("Mod mu (Pi (x : Bool) -> Bool)", walking())
    assert t == S.Mod(MU, S.Pi(id_mod("n"), S.Bool(), S.Bool()))


def test_parse_lambda_and_application():
    t = parse_term("(\\f -> \\x -> f x) (\\y -> y)", walking())
    inner = S.Lam(S.Lam(S.App(S.Var(1, id_cell(IDM)), S.Var(0, id_cell(IDM)))))
    assert t == S.App(inner, S.Lam(S.Var(0, id_cell(IDM))))


def test_parse_projections_bind_tighter_than_application():
    t = parse_term("(\\p -> p.1 p.2) ", walking())
    p0 = S.Var(0, id_cell(IDM))
    assert t == S.Lam(S.App(S.Proj1(p0), S.Proj2(p0)))


def test_parse_letbox_annotations():
    t = parse_term(
        "\\(mu | x) -> letbox (id(m) | mu) [b. Bool] y = box mu true in true",
        walking(),
    )
    assert t == S.Lam(
        S.LetMod(IDM, MU, S.Bool(), S.MkBox(MU, S.True_()), S.True_())
    )
    # the branch variable carries the composite annotation
    t2 = parse_term(
        "letbox (id(m) | mu) [b. Bool] y = box mu true in true", walking()
    )
    assert t2.nu == MU and t2.mu == IDM


def test_parse_if_with_motive():
    t = parse_term("if [b. Bool] true then false else true", walking())
    assert t == S.If(S.Bool(), S.False_(), S.True_(), S.True_())


def test_parse_codes():
    t = parse_term("PiC (mu | x : BoolC) -> ModC mu x", walking())
    assert t == S.PiCode(MU, S.BoolCode(), S.ModCode(MU, S.Var(0, id_cell(MU))))


def test_parse_keyed_variable():
    t = parse_term("\\x -> box l x^pt", pointed())
    cell = t.body.body.cell
    assert t.body.body.idx == 0
    assert cell.layers == (Atom((), "pt", ()),)
    assert cell.src == IDM and cell.tgt == L


def test_parse_composite_cells():
    # layers in application order: the right side of '.' first
    t = parse_term("\\x -> box l (box l x^(pt>l).pt)", pointed())
    cell = t.body.body.body.cell
    assert cell.layers == (Atom((), "pt", ()), Atom(("l",), "pt", ()))
    t2 = parse_term("\\x -> box l (box l x^l<pt.pt)", pointed())
    cell2 = t2.body.body.body.cell
    assert cell2.layers == (Atom((), "pt", ()), Atom((), "pt", ("l",)))


@pytest.mark.parametrize(
    "key,msg,col",
    [
        ("(pt.pt)", "ill-formed 2-cell: ill-formed vertical composite: l then id(m)", 15),
        # a key is checked as it is read, so its boundary is blamed before
        # the missing ')' after it
        ("(pt.pt", "ill-formed 2-cell: ill-formed vertical composite: l then id(m)", 15),
        ("(pt.id)", "bare 'id' cannot appear inside a composite cell", 21),
    ],
    ids=["boundary", "boundary-first", "bare-id"],
)
def test_an_ill_formed_key_is_a_located_parse_error(key, msg, col):
    with pytest.raises(ParseError) as e:
        parse_term(f"\\x -> box l x^{key}", pointed())
    assert (e.value.msg, e.value.line, e.value.col) == (msg, 1, col)


def test_parse_bare_id_key_means_identity():
    t = parse_term("\\x -> x^id", walking())
    assert t == S.Lam(S.Var(0, id_cell(IDM)))


@pytest.mark.parametrize("d", [16, 64, 256])
def test_a_key_whiskers_once_on_each_side_whatever_its_depth(monkeypatch, d):
    # A run of ``NAME <`` or ``> NAME`` is read as one word, so the key
    # whiskers twice, with two ``compose_mod`` calls each; one generator at
    # a time it made 4d.
    calls = []

    def counting(outer, inner):
        calls.append(outer)
        return compose_mod(outer, inner)

    monkeypatch.setattr(modeth, "compose_mod", counting)
    p = cli.Parser(tokenize("l<" * d + "pt" + ">l" * d), pointed())
    cell = p.parse_cell(IDM)
    assert p.peek().kind == "eof"
    assert cell.layers == (Atom(("l",) * d, "pt", ("l",) * d),)
    assert len(calls) == 4


@pytest.mark.parametrize("name", sorted(modeth.THEORIES))
def test_a_modality_reads_back_from_its_text(name):
    # ``str`` is the one printer of modalities, so every modality that a
    # diagnostic quotes parses again; an identity printed as id_m did not.
    mt = modeth.THEORIES[name]()
    mods = [id_mod(m) for m in mt.modes]
    for n in (1, 2, 3):
        for word in itertools.product(sorted(mt.modality_gens), repeat=n):
            try:
                mods.append(modeth.word_mod(mt, word))
            except modeth.ModeError:
                pass
    assert len(mods) > len(mt.modes) or not mt.modality_gens
    for mod in mods:
        p = cli.Parser(tokenize(str(mod)), mt)
        assert p.parse_modexpr(None) == mod
        assert p.peek().kind == "eof"


@pytest.mark.parametrize(
    "mt,key,msg,col",
    [
        (pointed(), "l<q<l<pt", "unknown modality 'q'", 17),
        (pointed(), "pt>l>q>l", "unknown modality 'q'", 20),
        (
            modeth.adjoint(),
            "r<l<l<eps",
            "modality word does not compose: 'l' starts at n, previous part ended at m",
            15,
        ),
        (
            modeth.adjoint(),
            "r<l<eps",
            "ill-formed 2-cell: cannot compose r.l : n -> n after l.r : m -> m",
            15,
        ),
    ],
    ids=["unknown-outer", "unknown-inner", "run-does-not-compose", "run-misses-the-unit"],
)
def test_a_whisker_run_is_blamed_where_it_fails(mt, key, msg, col):
    # An unknown name is blamed at its own token, a run that does not
    # compose at the run, and a run that misses the unit's boundary at the
    # cell.
    with pytest.raises(ParseError) as e:
        parse_term(f"\\x -> box l x^{key}", mt)
    assert (e.value.msg, e.value.line, e.value.col) == (msg, 1, col)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_term("\\x -> y", walking())
    assert "unknown identifier 'y'" in e.value.msg
    assert (e.value.line, e.value.col) == (1, 7)


def test_parse_rejects_unknown_cell():
    with pytest.raises(ParseError) as e:
        parse_term("\\x -> x^zap", pointed())
    assert "unknown 2-cell 'zap'" in e.value.msg


def test_parse_rejects_wrong_mode_modality():
    with pytest.raises(ParseError) as e:
        parse_type("Pi (mu | x : Bool) -> Bool", walking(), mode="n")
    assert "ambient mode is n" in e.value.msg


# ---------------------------------------------------------------------------
# Files, theories, declarations


def test_parse_file_defaults_to_trivial():
    mt, decls = parse_file("def t @m : Bool := true")
    assert mt.name == "trivial"
    assert decls[0].name == "t" and decls[0].body == S.True_()


def test_parse_file_shipped_theory_by_name():
    mt, _ = parse_file("theory adjoint\ndef t @m : Bool := true")
    assert mt.name == "adjoint"


def test_parse_file_inline_theory_block():
    mt, _ = parse_file(
        "theory { modes s; mod c : s -> s; rule c.c ~> c; decider rewrite; }"
    )
    assert mt.modes == ("s",)
    assert mt.modality_gens == {"c": ("s", "s")}
    assert mt.rules == ((("c", "c"), ("c",)),)


def test_parse_file_theory_block_with_cell():
    mt, _ = parse_file(
        "theory { modes w; mod f : w -> w; cell step : id(w) => f; decider free; }"
    )
    src, tgt = mt.cell_gens["step"]
    assert src == id_mod("w") and tgt == Modality("w", "w", ("f",))


def test_parse_file_override_wins_over_block():
    mt, _ = parse_file("theory walking\ndef t @m : Bool := true", cli.SHIPPED["trivial"]())
    assert mt.name == "trivial"
    block = "theory { modes m; mod c : m -> m; cell pt : id(m) => c; decider free; }\n"
    mt, _ = parse_file(block + "def t @m : Bool := true", cli.SHIPPED["trivial"]())
    assert mt.name == "trivial"


def test_parse_file_rejects_duplicate_definitions():
    with pytest.raises(ParseError) as e:
        parse_file("def t @m : Bool := true\ndef t @m : Bool := false")
    assert "duplicate definition 't'" in e.value.msg


def test_definition_reference_elaborates_to_const():
    _, decls = parse_file("def t @m : Bool := true\ndef u @m : Bool := t")
    assert decls[1].body == S.Const("t")


def test_lambda_definition_reference_is_inferable():
    mt, decls = parse_file(
        "theory walking\n"
        "def k @m : Pi (mu | x : Bool) -> Mod mu Bool := \\(mu | x) -> box mu x\n"
        "def use @m : Mod mu Bool := k true"
    )
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    assert report.ok
    # the reference infers k's declared type and unfolds to k's body
    from mtt.normal import NfMkBox, NfTrue

    assert report.results[1].body_nf == NfMkBox(MU, NfTrue())


def test_definition_used_at_wrong_mode_is_rejected():
    with pytest.raises(ParseError) as e:
        parse_file(
            "theory walking\n"
            "def t @m : Bool := true\n"
            "def u @n : Bool := t"
        )
    assert "lives at mode m, used at mode n" in e.value.msg


# ---------------------------------------------------------------------------
# Commands


def write(tmp_path, name, text):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text, encoding="utf-8")
    return str(p)


GOOD = """theory walking

-- constant modal function
def k @m : Pi (mu | x : Bool) -> Mod mu Bool := \\(mu | x) -> box mu x
def use @m : Mod mu Bool := k true
"""


def test_check_command_reports_and_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    assert main(["check", path]) == 0
    cap = capsys.readouterr()
    assert "checked k : Pi (mu | x0 : Bool) -> Mod mu (Bool)" in cap.out
    assert "checked use : Mod mu (Bool)" in cap.out
    assert cap.err == ""


def test_normalize_command_prints_normal_forms(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    assert main(["normalize", path, "use"]) == 0
    cap = capsys.readouterr()
    assert cap.out == "use : Mod mu (Bool)\nuse = box mu true\n"


def test_type_errors_exit_one_on_stderr(tmp_path, capsys):
    path = write(tmp_path, "bad.mtt", "def oops @m : Bool := (true, false)")
    assert main(["check", path]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"{path}:1:1: error: oops:" in cap.err


def test_parse_errors_exit_two_on_stderr(tmp_path, capsys):
    path = write(tmp_path, "syn.mtt", "def broken @m : Bool :=")
    assert main(["check", path]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"{path}:1:24:" in cap.err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.mtt")]) == 2
    assert "nope.mtt" in capsys.readouterr().err


def test_checking_continues_past_a_failing_declaration(tmp_path, capsys):
    path = write(
        tmp_path,
        "mixed.mtt",
        "def fine @m : Bool := true\n"
        "def broken @m : Bool := (true, false)\n"
        "def after @m : Sig (x : Bool) * Bool := (true, false)\n",
    )
    assert main(["check", path]) == 1
    cap = capsys.readouterr()
    assert "checked fine : Bool" in cap.out
    assert "checked after : Sig (x0 : Bool) * Bool" in cap.out
    assert "error: broken:" in cap.err


LEAK = (
    "theory walking\n"
    "def f @m : Bool := box mu true\n"
    "def g @m : Mod mu Bool := f\n"
)


def test_reference_to_a_failed_definition_fails_at_the_use(tmp_path, capsys):
    path = write(tmp_path, "leak.mtt", LEAK)
    assert main(["check", path]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"{path}:2:1: error: f:" in cap.err
    assert f"{path}:3:1: error: g: definition 'f'" in cap.err


def test_normalize_name_reports_only_its_own_failed_dependency(tmp_path, capsys):
    path = write(tmp_path, "leak.mtt", LEAK)
    assert main(["normalize", path, "g"]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"{path}:3:1: error: g: definition 'f' is undefined or failed to check\n"


def chain(n: int) -> str:
    """``f0 := \\x -> x``, n definitions that each use the previous one
    twice, and ``use := f<n> true``."""
    lines = ["def f0 @m : Pi (x : Bool) -> Bool := \\x -> x"]
    lines += [
        f"def f{i} @m : Pi (x : Bool) -> Bool := \\x -> f{i - 1} (f{i - 1} x)"
        for i in range(1, n + 1)
    ]
    lines.append(f"def use @m : Bool := f{n} true")
    return "\n".join(lines) + "\n"


def wrapped_as(fn, calls: list):
    """``fn``, appending to ``calls`` on each call."""

    def wrapper(*args):
        calls.append(None)
        return fn(*args)

    return wrapper


def counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that appends to the returned list."""
    calls: list = []
    monkeypatch.setattr(module, name, wrapped_as(getattr(module, name), calls))
    return calls


def test_definition_chain_checks_in_linear_inference_steps(tmp_path, monkeypatch, capsys):
    infers = counting(monkeypatch, C, "infer")
    counts = []
    for n in (8, 9, 10):
        path = write(tmp_path, f"chain{n}.mtt", chain(n))
        infers.clear()
        assert main(["check", path]) == 0
        counts.append(len(infers))
    assert counts[1] - counts[0] == counts[2] - counts[1] > 0, counts
    capsys.readouterr()
    assert main(["normalize", path, "use"]) == 0
    assert capsys.readouterr().out == "use : Bool\nuse = true\n"


def dependent_chain(n: int) -> str:
    """``chain(n)`` at a type whose codomain mentions its variable, under a
    lambda, so that evaluating the codomain does not force the argument."""
    ty = "Pi (x : Bool) -> dec (k (\\y -> x))"
    lines = [
        "def k @m : Pi (g : Pi (y : Bool) -> Bool) -> Uni := \\g -> BoolC",
        f"def f0 @m : {ty} := \\x -> iso-inv x",
    ]
    lines += [
        f"def f{i} @m : {ty} := \\x -> f{i - 1} (iso (f{i - 1} x))" for i in range(1, n + 1)
    ]
    lines.append(f"def use @m : Bool := iso (f{n} true)")
    return "\n".join(lines) + "\n"


def test_definition_chain_checks_in_linear_evaluation_steps(tmp_path, monkeypatch, capsys):
    # Arguments substituted into a codomain, and declaration bodies, are
    # evaluated only when used: checking ``f<i-1> (f<i-1> x)`` once unfolded
    # the whole chain below it, so the calls of eval_tm and eval_ty doubled
    # with each level.  A codomain that mentions its variable is evaluated
    # at each use, a linear number of steps in all; one that does not is a
    # value, so checking the plain chain evaluates as much at any length.
    evals = counting(monkeypatch, nbe, "eval_tm")
    monkeypatch.setattr(nbe, "eval_ty", wrapped_as(nbe.eval_ty, evals))
    for name in ("eval_tm", "eval_ty"):  # the checker's own bindings
        monkeypatch.setattr(C, name, getattr(nbe, name))
    counts: dict = {}
    for make in (dependent_chain, chain):
        for n in (8, 9, 10):
            path = write(tmp_path, f"{make.__name__}{n}.mtt", make(n))
            evals.clear()
            assert main(["check", path]) == 0
            counts.setdefault(make, []).append(len(evals))
        assert capsys.readouterr().out.endswith("checked use : Bool\n")
    dep, plain = counts[dependent_chain], counts[chain]
    assert dep[1] - dep[0] == dep[2] - dep[1] > 0, dep
    assert plain[0] == plain[1] == plain[2], plain


def keyed_spine(k: int, last: "str | None" = None) -> str:
    """A function ``p`` whose type has ``k`` binders, each over ``b``, moved
    behind the lock ``l`` along the key pt, with its declared type there.
    ``last`` replaces that type's last domain."""
    dom = "dec (if [z. Uni] b then BoolC else BoolC)"
    moved = [dom.replace(" b ", " b^pt ")] * k
    if last is not None:
        moved[-1] = last
    before = "".join(f"Pi (x{i} : {dom}) -> " for i in range(k))
    after = "".join(f"Pi (x{i} : {d}) -> " for i, d in enumerate(moved))
    return (
        "theory pointed\n"
        f"def f @m : Pi (b : Bool) -> Pi (p : {before}Bool) -> Mod l ({after}Bool)"
        " := \\b -> \\p -> box l (p^pt)\n"
    )


def test_key_transport_meets_each_outer_variable_once(tmp_path, monkeypatch):
    # Renaming p's type along its key acts once on each occurrence of b,
    # whatever the binders between.
    acts = counting(monkeypatch, normal, "_act_var")
    counts = []
    for k in (16, 32, 64):
        path = write(tmp_path, f"keyed{k}.mtt", keyed_spine(k))
        acts.clear()
        assert main(["check", path]) == 0
        counts.append(len(acts))
    assert counts[2] - counts[1] == 2 * (counts[1] - counts[0]) > 0, counts


KEYED_DOMAINS = (
    "Pi (id(m) | x2 : dec (if [x2. Uni] x0^pt then BoolC else BoolC)) -> "
    "Pi (id(m) | x3 : dec (if [x3. Uni] x0^pt then BoolC else BoolC)) -> "
    "Pi (id(m) | x4 : dec (if [x4. Uni] x0^pt then BoolC else "
)


def test_key_transport_through_several_binders_is_checked(tmp_path, capsys):
    path = write(tmp_path, "keyed.mtt", keyed_spine(3))
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.endswith(f"Mod l ({KEYED_DOMAINS}BoolC)) -> Bool)\n")
    # A declared type that differs in the last domain is refused, and the
    # actual type shown is the transported one, keyed in every domain.
    last = "dec (if [z. Uni] b^pt then BoolC else SigC (u : BoolC) * BoolC)"
    path = write(tmp_path, "mismatch.mtt", keyed_spine(3, last))
    assert main(["check", path]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == (
        f"{path}:2:1: error: f: type mismatch: expected {KEYED_DOMAINS}"
        f"(SigC (x4 : BoolC) * BoolC))) -> Bool, actual {KEYED_DOMAINS}BoolC)) -> Bool\n"
    )


def sig_chain(n: int) -> str:
    """Codes ``c<i>`` of pairs of ``c<i-1>``: ``dec c<n>`` unfolds to 2^n
    leaves."""
    lines = ["theory trivial", "def c0 @m : Uni := BoolC"]
    lines += [f"def c{i} @m : Uni := SigC (a : c{i - 1}) * c{i - 1}" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def test_binding_a_pair_typed_variable_reflects_it_once(tmp_path, monkeypatch):
    # Checking c<i> binds a variable at dec c<i-1>, whose unfolding has
    # 2^(i-1) leaves; binding it must not reflect each of them.
    reflects = counting(monkeypatch, nbe, "reflect")
    for module in (conv, C):  # their own bindings
        monkeypatch.setattr(module, "reflect", nbe.reflect)
    counts = []
    for n in (8, 16, 32):
        path = write(tmp_path, f"sig{n}.mtt", sig_chain(n))
        reflects.clear()
        assert main(["check", path]) == 0
        counts.append(len(reflects))
        assert counts[-1] <= 4 * n, counts  # stop before 2^32 at the next length
    assert counts[2] - counts[1] == 2 * (counts[1] - counts[0]) > 0, counts


def test_a_long_chain_of_pair_codes_checks(tmp_path):
    checked = run_mtt(tmp_path, sig_chain(64), "check", timeout=30)
    assert checked.returncode == 0, checked.stderr[-300:]
    assert checked.stdout.endswith("checked c64 : Uni\n")


def aliases(n: int, first: str, ty: str) -> str:
    """``d0 := first`` and n - 1 definitions ``d<i> := d<i-1>`` of type ``ty``."""
    lines = [f"def d0 @m : {ty} := {first}"]
    lines += [f"def d{i} @m : {ty} := d{i - 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


ALIASES = 1000  # forcing each link from inside the next overflows the default stack at about 500


def test_normalizing_the_last_of_a_long_alias_chain(tmp_path, capsys):
    path = write(tmp_path, "aliases.mtt", aliases(ALIASES, "true", "Bool"))
    last = f"d{ALIASES - 1}"
    assert main(["normalize", path, last]) == 0
    assert capsys.readouterr().out == f"{last} : Bool\n{last} = true\n"


def test_checking_a_type_that_decodes_a_long_alias_chain(tmp_path, capsys):
    text = aliases(ALIASES, "BoolC", "Uni") + f"def u @m : dec d{ALIASES - 1} := iso-inv true\n"
    path = write(tmp_path, "codes.mtt", text)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.endswith("checked u : dec BoolC\n")


def test_many_declarations_check_in_linear_time():
    # Each declaration used to copy the whole signature: 8,000 aliases took
    # about 1.8 s to check, against 0.16 s with one shared signature.
    mt, decls = parse_file(aliases(8000, "true", "Bool"))
    start = time.perf_counter()
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    elapsed = time.perf_counter() - start
    assert report.ok and len(report.signature) == 8000
    assert elapsed < 1.0, f"8,000 aliases checked in {elapsed:.2f} s"


def binder_chain(n: int, outermost: bool) -> str:
    """A type under n nested binders whose every domain names the outermost
    binder, or else the one just outside it, four times."""
    doms = [
        f"Pi (x{i} : dec ({' '.join(['x0' if outermost else f'x{i - 1}'] * 4)})) -> "
        for i in range(1, n)
    ]
    return "def t @m : Pi (x0 : Uni) -> " + "".join(doms) + "Bool := true\n"


def lines_run_in_cli(fn, *args) -> int:
    """How many lines of ``mtt/cli.py`` calling ``fn(*args)`` executes: a
    count of the parser's work that machine load does not change."""
    count = 0

    def in_cli(frame, event, arg):
        nonlocal count
        count += event == "line"
        return in_cli

    def on_call(frame, event, arg):
        return in_cli if frame.f_code.co_filename == cli.__file__ else None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(before)
    return count


def test_naming_a_binder_costs_the_same_however_far_out_it_is():
    # A name used to be resolved by scanning the binders in scope from the
    # innermost out, so under 256 binders naming the outermost one took 256
    # steps and made the parse 1.8 times as slow.  The two shapes have the
    # same tokens but for the names, so the parser runs the same lines.
    lines = {k: lines_run_in_cli(parse_file, binder_chain(256, k)) for k in (True, False)}
    assert lines[True] == lines[False] > 0, lines


def test_check_command_reads_back_no_bodies(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "chain3.mtt", chain(3))
    reads = counting(monkeypatch, C, "reify")
    assert main(["check", path]) == 0
    assert reads == []
    assert main(["normalize", path, "use"]) == 0
    assert reads != []
    assert capsys.readouterr().out.endswith("use = true\n")


def test_mode_theory_override_flag(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    assert main(["check", path, "--mode-theory", "trivial"]) == 2
    capsys.readouterr()
    assert main(["check", path, "--mode-theory", "walking"]) == 0
    capsys.readouterr()


def test_unknown_mode_theory_name(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    assert main(["check", path, "--mode-theory", "exotic"]) == 2
    assert capsys.readouterr().err == (
        "unknown mode theory 'exotic' (shipped: adjoint, pointed, trivial, walking)\n"
    )


def test_an_unknown_theory_named_in_the_file_is_located(tmp_path, capsys):
    path = write(tmp_path, "exotic.mtt", "-- a theory nobody ships\n  theory exotic\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == (
        f"{path}:2:10: unknown mode theory 'exotic' (shipped: adjoint, pointed, trivial, walking)\n"
    )


def test_print_core_dumps_elaborated_terms(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    assert main(["check", path, "--print-core"]) == 0
    cap = capsys.readouterr()
    assert "core k = \\(mu | x0) -> box mu x0\n" in cap.out


def test_print_core_names_earlier_definitions(tmp_path, capsys):
    path = write(tmp_path, "chain2.mtt", chain(2))
    assert main(["check", path, "--print-core"]) == 0
    assert "core f2 = \\(id(m) | x0) -> (f1 (f1 x0))\n" in capsys.readouterr().out


def test_print_core_prints_a_key_from_its_layers(tmp_path, capsys):
    # The key used to print as x0^l<pt>l.pt, without its parentheses, which
    # reads back as an ill-formed vertical composite (l then l.l).
    ty = "Pi (l | x : Bool) -> Mod l (Mod l (Mod l Bool))"
    body = "\\(l | x) -> box l (box l (box l (x^(l<((pt>l).pt)))))"
    path = write(tmp_path, "key.mtt", f"theory pointed\ndef f @m : {ty} := {body}\n")
    assert main(["check", path, "--print-core"]) == 0
    assert "core f = \\(l | x0) -> box l (box l (box l x0^l<pt>l.l<pt))\n" in capsys.readouterr().out


def test_print_core_does_not_capture_a_definition_named_like_a_binder(tmp_path, capsys):
    # A binder printed as x0 captured the definition x0, so f's core body
    # read back as the identity function, which still checks.
    text = "def x0 @m : Bool := true\ndef f @m : Pi (y : Bool) -> Bool := \\y -> x0\n"
    path = write(tmp_path, "capture.mtt", text)
    assert main(["check", path, "--print-core"]) == 0
    ty, body = [l[9:] for l in capsys.readouterr().out.splitlines() if l.startswith("core f ")]
    _, decls = parse_file(f"{text.splitlines()[0]}\ndef f @m : {ty} := {body}")
    assert decls[1].body == S.Lam(S.Const("x0"))


def test_normalize_unknown_name_exits_one(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    assert main(["normalize", path, "nosuch"]) == 1
    assert "no declaration named 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, status",
    [("", 0), ("def oops @m : Bool := (true, false)\n", 1)],
    ids=["ok", "type-error"],
)
def test_closed_stdout_keeps_the_exit_status_and_diagnostics(tmp_path, bad, status):
    path = write(tmp_path, "good.mtt", GOOD + bad)
    src = pathlib.Path(cli.__file__).resolve().parents[1]  # the mtt under test
    env = {**os.environ, "PYTHONPATH": str(src)}
    p = subprocess.Popen(
        [sys.executable, "-m", "mtt.cli", "normalize", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    p.stdout.close()  # the reader goes away before anything is written
    err = p.stderr.read().decode()
    p.stderr.close()
    assert p.wait(timeout=60) == status
    assert "Traceback" not in err and "Exception ignored" not in err
    assert ("error: oops: pair literal" in err) == bool(bad)


def run_mtt(
    tmp_path, text: "str | bytes", cmd: str = "check", *args: str, timeout: float = 60
) -> "subprocess.CompletedProcess[str]":
    """``mtt CMD FILE ARGS`` on ``text`` in a fresh interpreter, killed
    after ``timeout`` seconds."""
    path = write(tmp_path, "run.mtt", text)
    src = pathlib.Path(cli.__file__).resolve().parents[1]  # the mtt under test
    return subprocess.run(
        [sys.executable, "-m", "mtt.cli", cmd, path, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=timeout,
    )


def test_text_that_is_not_utf8_is_a_located_error(tmp_path):
    # Line 3 (after a CRLF and a lone CR), after one two-byte character.
    text = "def t @m : Bool := true\r\n-- caf\u00e9\r-- \u00e9".encode() + b"\xff\n"
    done = run_mtt(tmp_path, text)
    assert done.returncode == 2
    assert done.stderr.endswith("run.mtt:3:5: not UTF-8 text\n"), done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    # Editors that save UTF-8 "with signature" start the file with U+FEFF.
    text = "def a @m : Bool := true\ndef b @m : Bool := a\n"
    plain = run_mtt(tmp_path, text, "normalize")
    marked = run_mtt(tmp_path, "\ufeff" + text, "normalize")
    assert plain.returncode == marked.returncode == 0
    assert marked.stdout == plain.stdout != "" and marked.stderr == ""
    # One mark, at the start only: elsewhere it is still a located stray character.
    for bad, col in [("\ufeff\ufeff" + text, 1), (text.replace("true", "\ufefftrue"), 20)]:
        done = run_mtt(tmp_path, bad)
        assert done.returncode == 2
        assert done.stderr == f"{tmp_path / 'run.mtt'}:1:{col}: unexpected character '\\ufeff'\n"


@pytest.mark.parametrize("rule", ["c ~> c.c", "c ~> c"], ids=["grows", "stays"])
def test_rewrite_rule_that_does_not_shrink_is_rejected(tmp_path, rule):
    # Both rules used to loop in canon_word at the first modal declaration.
    text = (
        f"theory {{ modes s; mod c : s -> s; rule {rule}; decider rewrite; }}\n"
        "def k @s : Pi (c | x : Bool) -> Mod c Bool := \\(c | x) -> box c x\n"
    )
    done = run_mtt(tmp_path, text)
    assert done.returncode == 2
    col = text.index("rule") + 1  # reported at the rule, not at the theory keyword
    assert f"run.mtt:1:{col}: ill-formed mode theory: word rule {rule} " in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_rewrite_rules_that_are_not_confluent_are_rejected_at_the_later_rule(tmp_path, capsys):
    # Both words equal w.y.x, but each rule reaches a different normal form
    # from it, so the declaration used to fail to check (exit 1).
    text = (
        "theory { modes s; mod x : s -> s; mod y : s -> s; mod z : s -> s;\n"
        "  mod w : s -> s; mod v : s -> s; rule y.x ~> z; rule w.y ~> v; decider rewrite; }\n"
        "def k @s : Mod w.z Bool := box v.x true\n"
    )
    path = write(tmp_path, "nc.mtt", text)
    assert main(["check", path]) == 2
    col = text.split("\n")[1].index("rule w.y") + 1
    err = capsys.readouterr().err
    assert err == (
        f"{path}:2:{col}: ill-formed mode theory: word rules are not confluent: "
        "w.y.x rewrites to the normal forms w.z and v.x\n"
    )


@pytest.mark.parametrize(
    "item, message",
    [
        ("rule c ~> c.c;", "word rule c ~> c.c does not shrink the word"),
        ("mod e : s -> t;", "modality generator 'e' uses unknown mode(s) s, t"),
        ("cell p : c => d;", "cell generator 'p' is not between parallel modalities"),
    ],
    ids=["rule", "mod", "cell"],
)
def test_ill_formed_theory_item_is_reported_at_the_item(tmp_path, capsys, item, message):
    text = (
        "theory {\n"
        "  modes s n; mod c : s -> s; mod d : s -> n;\n"
        f"  {item}\n"
        "  decider rewrite;\n"
        "}\n"
        "def t @s : Bool := true\n"
    )
    path = write(tmp_path, "bad.mtt", text)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:3:3: "), err
    assert message in err


@pytest.mark.parametrize(
    "body, ty",
    [
        ("(" * 1500 + "true" + ")" * 1500, "Bool"),
        (
            "".join(f"\\x{i} -> " for i in range(1200)) + "true",
            "".join(f"Pi (x{i} : Bool) -> " for i in range(1200)) + "Bool",
        ),
    ],
    ids=["1500-parentheses", "1200-binders"],
)
def test_deep_nesting_is_a_located_parse_error(tmp_path, body, ty):
    done = run_mtt(tmp_path, f"def d @m : {ty} := {body}\n")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert re.fullmatch(r".*run\.mtt:1:\d+: nested too deeply to parse\n", done.stderr)


def test_scalar_cell_generator_is_rejected_at_its_keyword(tmp_path):
    # Two layers of s each read left of the other, so the interchange normal
    # form swapped them forever and ``mtt check`` never ended.
    text = (
        "theory { modes m; cell s : id(m) => id(m); decider free; }\n"
        "def f @m : Pi (x : Bool) -> Bool := \\x -> x^(s.s)\n"
    )
    done = run_mtt(tmp_path, text, timeout=10)
    assert done.returncode == 2
    col = text.index("cell") + 1
    assert done.stderr.endswith(
        f"run.mtt:1:{col}: ill-formed mode theory: "
        "cell generator 's' is a scalar: both its words are empty\n"
    )
    assert done.stdout == ""


@pytest.mark.parametrize(
    "items, blamed, message",
    [
        ("modes m n; mod l : m -> n; mod l : n -> m;", "l : n", "duplicate modality 'l'"),
        (
            "modes m; mod c : m -> m; cell p : id(m) => c; cell p : c => id(m);",
            "p : c",
            "duplicate 2-cell 'p'",
        ),
        ("modes m n m;", "m;", "duplicate mode 'm'"),
        ("modes m; modes m;", "m; }", "duplicate mode 'm'"),
        ("modes m; mod id : m -> m;", "id :", "'id' is the identity and cannot name a modality"),
        (
            "modes m; mod c : m -> m; cell id : c => id(m);",
            "id : c",
            "'id' is the identity and cannot name a 2-cell",
        ),
    ],
    ids=["mod", "cell", "mode", "modes-twice", "mod-id", "cell-id"],
)
def test_theory_names_are_declared_once_and_never_id(tmp_path, items, blamed, message):
    # A second declaration used to replace the first silently, and a
    # generator named ``id`` was accepted though ``id`` always parses as an
    # identity.
    text = f"theory {{ {items} }}\ndef t @m : Bool := true\n"
    done = run_mtt(tmp_path, text)
    assert done.returncode == 2 and done.stdout == ""
    col = text.rindex(blamed) + 1
    assert done.stderr == f"{tmp_path / 'run.mtt'}:1:{col}: {message}\n"


SWAPPED = (
    "def swapped @m : Pi (x.x.y | v : Bool) -> Mod x.x.y (dec (if [_. Uni] "
    "v^((x<(x<b)).(x<a).(x<(d>y)).(x<(d>y))) then BoolC else PiC (u : BoolC) -> BoolC)) "
    ":= \\(x.x.y | v) -> box x.x.y (if [e. dec (if [_. Uni] e then BoolC else "
    "PiC (u : BoolC) -> BoolC)] v^((x<(d>y)).(x<(x<b)).(x<a).(x<(d>y))) "
    "then iso-inv true else iso-inv (\\u -> u))\n"
)


@pytest.mark.parametrize(
    "theory",
    [
        "mod z : m -> m; rule x.y ~> z; cell a : z => z; decider rewrite;",
        "cell a : x.y => x.y; decider free;",
    ],
    ids=["rule", "free"],
)
def test_layers_that_share_a_wire_do_not_swap_across_a_word_rule(tmp_path, theory):
    # d and a share the x wire, so the two keys differ in which layers come
    # first.  With the rule, a's layer spells x.y as the one letter z where
    # d's layers spell it with two, and the decider used to swap d past a by
    # those offsets and accept the program (exit 0).
    text = (
        "theory { modes m; mod w : m -> m; mod x : m -> m; mod y : m -> m; "
        f"cell b : y => y; cell c : w => w; cell d : x => x; {theory} }}\n" + SWAPPED
    )
    done = run_mtt(tmp_path, text, timeout=10)
    assert done.returncode == 1
    assert "run.mtt:2:1: error: swapped: type mismatch: " in done.stderr
    assert done.stdout == ""


def test_a_scalar_built_from_a_unit_and_a_counit_is_a_located_refusal(tmp_path):
    # The closed bubbles e.u touch no boundary wire; the interchange normal
    # form swapped the two of them forever and ``mtt check`` never ended.
    # The layers of (c<e).(u>c) swap twice but reach a normal form.
    text = (
        "theory { modes m; mod c : m -> m; cell u : id(m) => c; cell e : c => id(m); "
        "decider free; }\n"
        "def one @m : Pi (x : Bool) -> Bool := \\x -> x^(e.u)\n"
        "def two @m : Pi (x : Bool) -> Bool := \\x -> x^(e.u.e.u)\n"
        "def snake @m : Pi (c | x : Bool) -> Mod c Bool := "
        "\\(c | x) -> box c (x^((c<e).(u>c)))\n"
    )
    done = run_mtt(tmp_path, text, timeout=10)
    assert done.returncode == 2
    assert done.stdout == (
        "checked one : Pi (id(m) | x0 : Bool) -> Bool\n"
        "checked snake : Pi (c | x0 : Bool) -> Mod c (Bool)\n"
    )
    assert done.stderr.endswith(
        "run.mtt:3:1: error: two: 2-cell equality undecided: 4 layers found no "
        "interchange normal form, as when a part of a cell touches no boundary wire\n"
    )


LAMBDA_ANNOTATIONS = {
    "identity-binder-at-l": (
        "def f @m : Pi (l | x : Bool) -> Bool := \\(id(m) | x) -> true", "f", "id(m)", "l"
    ),
    "l-binder-at-identity": (
        "def g @m : Pi (x : Bool) -> Bool := \\(l | x) -> true", "g", "l", "id(m)"
    ),
    "parenthesised-binder-at-l": (
        "def h @m : Pi (l | x : Bool) -> Bool := \\(x) -> true", "h", "id(m)", "l"
    ),
    "bare-binder-at-l": (
        "def f @m : Pi (l | x : Bool) -> Bool := \\x -> true", "f", "id(m)", "l"
    ),
    "bare-binder-boxed-at-l": (
        "def g @m : Pi (l | x : Bool) -> Mod l Bool := \\x -> box l x", "g", "id(m)", "l"
    ),
}


@pytest.mark.parametrize(
    "decl,name,written,declared", LAMBDA_ANNOTATIONS.values(), ids=LAMBDA_ANNOTATIONS.keys()
)
def test_a_lambda_annotated_unlike_its_function_type_is_a_located_error(
    tmp_path, decl, name, written, declared
):
    # The parser read a binder's modality only to resolve names, and the
    # checker extended the context with the function type's, so the
    # annotated programs used to check (exit 0).  A bare binder was left
    # unannotated and met any function type: ``f`` checked, and ``g`` was
    # blamed on its variable's key.
    done = run_mtt(tmp_path, f"theory pointed\n{decl}\n")
    assert done.returncode == 1
    assert done.stderr == (
        f"{tmp_path / 'run.mtt'}:2:1: error: {name}: modality mismatch: lambda binder "
        f"annotated {written} at a function type annotated {declared}\n"
    )
    assert done.stdout == ""


@pytest.mark.parametrize(
    "pi,col", [("Pi (q | x : Bool)", 16), ("Pi (l.q | x : Bool)", 18)], ids=["word", "dotted"]
)
def test_a_binder_modality_that_does_not_parse_is_blamed_at_the_modality(tmp_path, pi, col):
    # The binder used to be reparsed as a plain one, so the error named the
    # token after the modality: expected ':', found '|' (or '.').
    done = run_mtt(tmp_path, f"theory pointed\ndef f @m : {pi} -> Bool := \\x -> true\n")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"{tmp_path / 'run.mtt'}:2:{col}: unknown modality 'q'\n"


@pytest.mark.parametrize(
    "decl,col",
    [("def f @m : Mod l.q Bool := box l true", 18), ("def f @m : Mod l Bool := box l.q true", 32)],
    ids=["type", "term"],
)
def test_a_dotted_name_after_a_modality_word_is_an_unknown_modality(tmp_path, decl, col):
    # The word used to end before the '.', so the error named it: expected
    # a type (or a term), found '.'.
    done = run_mtt(tmp_path, f"theory pointed\n{decl}\n")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"{tmp_path / 'run.mtt'}:2:{col}: unknown modality 'q'\n"


@pytest.mark.parametrize(
    "text,at,msg",
    [
        (
            "def p @m : Sig (a : Bool) * Bool := (true, false)\ndef q @m : Bool := p.3\n",
            "2:22",
            "projections are .1 and .2, found .3",
        ),
        (
            "def d @m : Bool := true\ndef e @m : Bool := d^id\n",
            "2:20",
            "cannot key the definition 'd': keys apply to variables",
        ),
        (
            "theory { modes m; mod l : m -> m; cell c : id => l; }\ndef e @m : Bool := true\n",
            "1:44",
            "bare 'id' needs a mode here: write id(<mode>)",
        ),
        ("def x @q : Bool := true\n", "1:8", "unknown mode 'q'"),
    ],
    ids=["projection", "keyed-definition", "bare-id-in-theory", "unknown-mode"],
)
def test_a_parse_error_is_located_at_its_token(tmp_path, capsys, text, at, msg):
    path = write(tmp_path, "bad.mtt", text)
    assert main(["check", path]) == 2
    assert capsys.readouterr() == ("", f"{path}:{at}: {msg}\n")


def church(n: int, carrier: str) -> str:
    """Church numerals ``n0`` to ``n<n-1>`` over ``carrier``."""
    ty = f"Pi (f : Pi (x : {carrier}) -> {carrier}) -> Pi (x : {carrier}) -> {carrier}"
    lines = [f"def n0 @m : {ty} := \\f -> \\x -> x"]
    lines += [f"def n{i} @m : {ty} := \\f -> \\x -> f (n{i - 1} f x)" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def test_evaluation_too_deep_for_the_stack_is_a_located_error(tmp_path):
    # Evaluating n599 recurses a few frames per numeral: past the
    # interpreter's limit, reading its body back ended in a traceback.
    done = run_mtt(tmp_path, church(600, "Bool"), "normalize", "n599")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.endswith("run.mtt:600:1: error: n599: nested too deeply\n")
    assert "Traceback" not in done.stderr


def test_an_application_spine_evaluates_in_one_frame_per_numeral(tmp_path):
    # n_i applies n_{i-1} to two arguments, which enter its body in one
    # environment extension; applied one at a time, n399 ran out of stack.
    done = run_mtt(tmp_path, church(400, "Bool"), "normalize", "n399")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "n399 : Pi (id(m) | x0 : Pi (id(m) | x0 : Bool) -> Bool) -> Pi (id(m) | x1 : Bool) -> Bool\n"
        "n399 = \\(id(m) | x0) -> \\(id(m) | x1) -> " + "(x0 " * 399 + "x1" + ")" * 399 + "\n"
    )


def test_checking_too_deep_for_the_stack_is_a_located_error(tmp_path, capsys):
    # The type of t evaluates n599 to decode it; the rest still check.
    text = church(600, "Uni") + (
        "def t @m : dec (n599 (\\c -> c) BoolC) := iso-inv true\n"
        "def u @m : dec (n9 (\\c -> c) BoolC) := iso-inv true\n"
    )
    path = write(tmp_path, "deep.mtt", text)
    assert main(["check", path]) == 2
    cap = capsys.readouterr()
    assert cap.err == f"{path}:601:1: error: t: nested too deeply\n"
    assert cap.out.endswith("checked n599 : Pi (id(m) | x0 : Pi (id(m) | x0 : Uni) -> Uni)"
                            " -> Pi (id(m) | x1 : Uni) -> Uni\nchecked u : dec BoolC\n")


def test_a_kernel_fault_is_a_located_internal_error(tmp_path, capsys, monkeypatch):
    # A bug in the kernel must not end the run in a traceback: the faulty
    # declaration fails with exit 2 and the others still check.
    real = conv.conv_ty

    def faulty(mt, d, mode, a, b):
        if isinstance(a, nbe.TUni):
            raise RuntimeError("boom")
        return real(mt, d, mode, a, b)

    for module in (conv, C):
        monkeypatch.setattr(module, "conv_ty", faulty)
    text = "def a @m : Bool := true\ndef c @m : Uni := BoolC\ndef b @m : Bool := a\n"
    path = write(tmp_path, "fault.mtt", text)
    assert main(["check", path]) == 2
    cap = capsys.readouterr()
    assert cap.out == "checked a : Bool\nchecked b : Bool\n"
    assert cap.err == f"{path}:2:1: error: c: internal error: RuntimeError: boom\n"


def test_a_fault_while_printing_is_a_located_internal_error(tmp_path, capsys, monkeypatch):
    def faulty(*args):
        raise KeyError("lost")

    monkeypatch.setattr(C, "reify_ty", faulty)
    path = write(tmp_path, "fault.mtt", "def a @m : Bool := true\n")
    assert main(["normalize", path]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"{path}:1:1: error: a: internal error: KeyError: 'lost'\n"


def test_a_refusal_while_printing_is_a_located_refusal(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise Undecided("2-cell equality undecided: a test refusal")

    monkeypatch.setattr(C, "reify_ty", refuse)
    path = write(tmp_path, "refuse.mtt", "def a @m : Bool := true\n")
    assert main(["normalize", path]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"{path}:1:1: error: a: 2-cell equality undecided: a test refusal\n"


@pytest.mark.parametrize("error, status", [(Undecided, 2), (ModeError, 1)])
def test_a_refusal_while_checking_is_fatal_and_another_mode_error_is_not(
    tmp_path, capsys, monkeypatch, error, status
):
    # ``Undecided`` is a ``ModeError``, but it is the decider's refusal,
    # not a fault of the program, so it alone ends in exit 2.
    real = conv.conv_ty

    def refuse(mt, d, mode, a, b):
        if isinstance(a, nbe.TUni):
            raise error("a test refusal")
        return real(mt, d, mode, a, b)

    for module in (conv, C):
        monkeypatch.setattr(module, "conv_ty", refuse)
    text = "def a @m : Bool := true\ndef c @m : Uni := BoolC\n"
    path = write(tmp_path, "refuse.mtt", text)
    assert main(["check", path]) == status
    cap = capsys.readouterr()
    assert cap.out == "checked a : Bool\n"
    assert cap.err == f"{path}:2:1: error: c: a test refusal\n"


def test_nine_hundred_binders_check_and_normalize(tmp_path):
    body = "".join(f"\\x{i} -> " for i in range(900)) + "x0"
    ty = "".join(f"Pi (x{i} : Bool) -> " for i in range(900)) + "Bool"
    text = f"def d @m : {ty} := {body}\n"
    checked = run_mtt(tmp_path, text, "check")
    assert checked.returncode == 0, checked.stderr[-300:]
    assert checked.stdout.startswith("checked d : Pi (id(m) | x0 : Bool) -> Pi")
    normalized = run_mtt(tmp_path, text, "normalize")
    assert normalized.returncode == 0, normalized.stderr[-300:]
    assert normalized.stdout.splitlines()[1].endswith(" -> x0")


def test_type_in_a_diagnostic_parses_again(tmp_path, capsys):
    defs = (
        "theory walking\n"
        "def h @m : Mod mu (Pi (y : Bool) -> Bool) := box mu (\\y -> y)\n"
    )
    path = write(tmp_path, "diag.mtt", defs + "def k @m : Mod mu Bool := h\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "k: type mismatch: expected Mod mu (Bool), actual " in err
    actual = err.split("actual ", 1)[1].strip()
    assert actual == "Mod mu (Pi (id(n) | x0 : Bool) -> Bool)"
    again = write(tmp_path, "again.mtt", defs + f"def t @m : {actual} := h\n")
    assert main(["check", again]) == 0
    assert "checked t : " in capsys.readouterr().out


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    main(["normalize", path])
    first = capsys.readouterr()
    main(["normalize", path])
    second = capsys.readouterr()
    assert first.out == second.out and first.out


# ---------------------------------------------------------------------------
# Many commands in one process: the argument parser is built once


USAGE = json.loads((pathlib.Path(__file__).parent / "cli_usage.json").read_text())


def run_main(argv: "list[str]", capsys) -> "tuple[int, str, str]":
    """``main(argv)``'s exit status, stdout and stderr; a usage error or
    ``--help`` exits through ``SystemExit``."""
    try:
        status = main(argv)
    except SystemExit as e:
        status = e.code
    cap = capsys.readouterr()
    return status, cap.out, cap.err


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != USAGE["python"],
    reason=f"help text recorded with argparse of Python {USAGE['python']}",
)
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys):
    # Recorded when every call built its own parser; each case runs twice,
    # so the second run uses a parser that has already parsed.
    monkeypatch.setenv("COLUMNS", str(USAGE["columns"]))
    for case in USAGE["cases"] * 2:
        expect = (case["status"], case["stdout"], case["stderr"])
        assert run_main(case["argv"], capsys) == expect, case["argv"]


def test_earlier_commands_do_not_change_later_ones(tmp_path, capsys):
    path = write(tmp_path, "good.mtt", GOOD)
    alone = {cmd: run_main([cmd, path], capsys) for cmd in ("check", "normalize")}
    assert alone["normalize"][1].count(" = ") == 2
    for before in (
        ["check", "--print-core", path],
        ["normalize", path, "use"],
        ["check", "--mode-theory", "pointed", path],
        ["frob"],
        ["check"],
    ):
        for cmd, expect in alone.items():
            run_main(before, capsys)
            assert run_main([cmd, path], capsys) == expect, (before, cmd)


def test_one_process_builds_one_argument_parser(tmp_path):
    path = write(tmp_path, "good.mtt", GOOD)
    src = pathlib.Path(cli.__file__).resolve().parents[1]  # the mtt under test
    script = (
        "import argparse, contextlib, io, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(self)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from mtt.cli import main\n"
        "print(len(built))\n"
        "f = sys.argv[1]\n"
        "for argv in (['check', f], ['normalize', f, 'use'], ['check', '--print-core', f],\n"
        "             ['normalize', '--print-core', f], ['check', f, '--print-core'], ['check', f]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print(len(built))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # None at import and none for a plain command line; the top-level
    # parser and its two sub-parsers for the first option; none after.
    assert done.stdout.split() == ["0", "0", "0", "3", "3", "3", "3"]


# What the command lines below are made of: both commands, a file, a name, a
# theory, the empty string, and what argparse reads as options (whole or
# abbreviated), help, stdin or the end of options.
ARGV_TOKENS = [
    "check", "normalize", "f.mtt", "use", "walking", "",
    "-", "--", "-h", "--print-core", "--print", "--mode-theory", "--mode",
]


def test_a_plain_command_line_means_what_argparse_makes_of_it():
    plain = [t for t in ARGV_TOKENS if not t.startswith("-")]
    accepted = 0
    for n in range(5):
        for argv in map(list, itertools.product(ARGV_TOKENS, repeat=n)):
            got = cli._plain_command(argv)
            if got is None:
                continue
            accepted += 1
            args = cli._arg_parser().parse_args(argv)
            assert (args.command, args.file, getattr(args, "name", None)) == got, argv
            assert (args.mode_theory, args.print_core) == (None, False), argv
    # check FILE, normalize FILE and normalize FILE NAME, over the plain tokens
    assert accepted == 2 * len(plain) + len(plain) ** 2


# ---------------------------------------------------------------------------
# Round trips: printed normal forms parse back to the same normal form


ROUNDTRIP_SOURCES = [
    (
        "trivial",
        "def f @m : Pi (x : Bool) -> Sig (y : Bool) * Bool := \\x -> (x, false)",
    ),
    (
        "trivial",
        "def g @m : Pi (c : Uni) -> Pi (x : dec c) -> dec c := \\c -> \\x -> x",
    ),
    (
        "trivial",
        "def h @m : dec BoolC := iso-inv true",
    ),
    (
        "walking",
        "def k @m : Pi (mu | x : Bool) -> Mod mu Bool := \\(mu | x) -> box mu x",
    ),
    (
        "walking",
        "def r @m : Pi (f : Mod mu Bool) -> Mod mu Bool :="
        "  \\f -> letbox (id(m) | mu) [b. Mod mu Bool] y = f in box mu y",
    ),
    (
        "pointed",
        "def p @m : Pi (x : Bool) -> Mod l Bool := \\x -> box l (x^pt)",
    ),
    (
        "pointed",
        "def q @m : Pi (x : Bool) -> Mod l (Mod l Bool) :="
        "  \\x -> box l (box l (x^(pt>l).pt))",
    ),
    (
        "adjoint",
        "def e @m : Pi (l.r | x : Bool) -> Bool := \\(l.r | x) -> x^eps",
    ),
]


@pytest.mark.parametrize("theory,src", ROUNDTRIP_SOURCES)
def test_normal_forms_roundtrip_through_the_parser(theory, src):
    mt, decls = parse_file(f"theory {theory}\n{src}")
    d = decls[0]
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body)])
    assert report.ok, report.results[0].error
    nf = report.results[0].body_nf
    rendered = surface_nf(mt, nf)
    reparsed = cli.Parser(tokenize(rendered), mt).parse_term(d.mode)
    ctx = empty_ctx(mt, d.mode)
    check_tm(ctx, reparsed, check_type(ctx, d.ty))
    nf2 = normalize(ctx, d.ty, reparsed)
    assert eq_nf(mt, nf, nf2)


KEYED_BETA = (
    "theory pointed\n"
    "def k @m : Pi (x : Pi (y : Bool) -> Bool) -> Mod l Bool := \\x -> box l ((x^pt) true)\n"
    "def h @m : Pi (b : Bool) -> Mod l Bool := \\b -> k (\\y -> b)\n"
    "def direct @m : Pi (b : Bool) -> Mod l Bool := \\b -> box l (b^pt)\n"
)


@pytest.mark.xfail(
    strict=True,
    raises=(C.CheckError, AssertionError),
    reason="nbe.key_val leaves a canonical value unchanged, though a value "
    "substituted by beta can hold free variables the key must reach",
)
def test_a_key_reaches_the_variables_of_a_substituted_value():
    # h's normal form is \(id(m) | x0) -> box l x0: the key pt on x is lost
    # when x is the lambda \y -> b, so the printed form does not check.
    mt, decls = parse_file(KEYED_BETA)
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    assert report.ok
    h, direct = report.results[1], report.results[2]
    reparsed = cli.Parser(tokenize(surface_nf(mt, h.body_nf)), mt).parse_term("m")
    ctx = empty_ctx(mt, "m", report.signature)
    check_tm(ctx, reparsed, check_type(ctx, decls[1].ty))
    assert eq_nf(mt, h.body_nf, direct.body_nf)


# ---------------------------------------------------------------------------
# Corpus


CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.mtt"))


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 30


def test_every_corpus_key_prints_as_a_cell_that_parses_to_the_same_layers():
    layered = 0
    for path in CORPUS:
        mt, decls = parse_file(path.read_text(encoding="utf-8"))
        for d in decls:
            for cell in (*_keys_of(d.ty), *_keys_of(d.body)):
                assert_cell_reads_back(mt, cell)
                layered += bool(cell.layers)
    assert layered >= 14  # the keys with layers the corpus writes


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_file_checks(path, capsys):
    assert main(["check", str(path)]) == 0
    cap = capsys.readouterr()
    assert cap.err == ""
    assert cap.out.startswith("checked ")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_corpus_with_other_line_ends_prints_the_golden_output(tmp_path, capsys, newline):
    # A file is read as bytes and decoded once; CRLF and lone CR line ends
    # read as LF, as text-mode ``open`` reads them.
    golden = json.loads(
        (pathlib.Path(__file__).parents[1] / "bench" / "corpus_golden.json").read_text("utf-8")
    )
    for path in CORPUS:
        copy = tmp_path / path.name
        copy.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        for command in ("check", "normalize"):
            assert main([command, str(copy)]) == 0, (path.name, command)
            cap = capsys.readouterr()
            assert (cap.out, cap.err) == (golden[path.name][command], ""), (path.name, command)
    # and a diagnostic is placed on the line the line ends count
    copy = tmp_path / "bad.mtt"
    copy.write_bytes(f"def a @m : Bool := true{newline}def b @m : Bool := a a{newline}".encode())
    assert main(["check", str(copy)]) == 1
    assert capsys.readouterr().err.startswith(f"{copy}:2:1: error: b: application of a non-function")


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_normal_forms_roundtrip(path):
    mt, decls = parse_file(path.read_text(encoding="utf-8"))
    report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    assert report.ok
    for d, r in zip(decls, report.results):
        rendered = surface_nf(mt, r.body_nf)
        reparsed = cli.Parser(tokenize(rendered), mt).parse_term(d.mode)
        # declared types may name earlier definitions
        ctx = empty_ctx(mt, d.mode, report.signature)
        check_tm(ctx, reparsed, check_type(ctx, d.ty))
        nf2 = normalize(ctx, d.ty, reparsed)
        assert eq_nf(mt, r.body_nf, nf2), d.name


def test_a_corpus_pass_leaves_no_cyclic_garbage(capsys):
    def one_pass():
        for path in CORPUS:
            for command in ("check", "normalize"):
                assert main([command, str(path)]) == 0
        capsys.readouterr()

    one_pass()  # builds what the process keeps, such as the argument parser
    gc.collect()
    gc.disable()
    try:
        one_pass()
        assert gc.collect() == 0
    finally:
        gc.enable()
