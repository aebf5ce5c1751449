"""Record classes: the semantics the kernel relies on, and the footprint of
starting the command-line tool."""

import os
import pathlib
import subprocess
import sys
from functools import cached_property

import pytest

from mtt import check, cli, harness, modeth, nbe, normal, syntax
from mtt.check import DeclResult, Report
from mtt.modeth import Modality, ModeTheory, id_cell, id_mod
from mtt.nbe import NO_DEFS, Env, VFalse, VTrue
from mtt.normal import NfBool, NfTrue
from mtt.record import FrozenRecordError, field, record
from mtt.syntax import Bool, False_, True_, Var

MU = Modality("n", "m", ("mu",))

# Every class of these modules is a record except these: exceptions, the
# bases of the sum types, the lazy and mutable holders, the token list and
# tuple, and the oracle enumeration.
RECORD_MODULES = (syntax, modeth, nbe, normal, check, cli, harness)
NOT_RECORDS = {
    "syntax": {"Term"},
    "modeth": {"ModeError", "TheoryItemError", "Undecided"},
    "nbe": {"NbeError", "Value", "TypeValue", "Thunk", "Body"},
    "normal": {"NormalError", "Nf", "Ne", "NfTy", "Renaming"},
    "check": {"CheckError"},
    "cli": {"ParseError", "Token", "Tokens", "Parser"},
    "harness": {"HarnessError", "GenExhausted", "Oracle", "_Gen"},
}


@record
class Probe:
    x: int
    y: str = "y"
    note: object = field(default=None, repr=False, compare=False)


def test_records_without_fields_of_different_classes_differ():
    assert True_() != False_() and VTrue() != VFalse()
    assert True_() == True_() and VTrue() == VTrue()
    assert len({True_(), False_(), Bool(), True_()}) == 3
    assert VTrue() and True_()  # an empty record is not falsy


def test_equality_needs_the_same_class_and_equal_records_hash_equal():
    @record
    class Twin:
        x: int
        y: str = "y"
        note: object = None

    assert Probe(1) != Twin(1) and Probe(1) != (1, "y")
    a, b = Var(0, id_cell(MU)), Var(0, id_cell(Modality("n", "m", ("mu",))))
    assert a == b and a is not b and hash(a) == hash(b)
    assert Var(1, id_cell(MU)) != a
    assert {a: 1}[b] == 1


def test_keyword_construction_and_defaults():
    assert Modality(mode_tgt="m", word=("mu",), mode_src="n") == MU
    assert Modality("m", "m").word == () == Modality.word
    r = DeclResult("a", "m", True)
    assert (r.ty_nf, r.error, r.fatal, r.reify_body) == (None, None, False, None)
    assert Probe(x=2).y == "y" and Probe(x=2).note is None
    with pytest.raises(TypeError):
        Probe()  # a field without a default is required
    with pytest.raises(TypeError):
        Probe(1, "y", None, 4)


def test_fields_left_out_of_comparison_are_left_out_of_the_hash():
    assert Probe(1, note="a") == Probe(1, note="b")
    assert hash(Probe(1, note="a")) == hash(Probe(1, note=["unhashable"]))
    assert Probe(1) != Probe(1, "z")
    body = DeclResult("a", "m", True, NfBool, reify_body=NfTrue)
    assert body == DeclResult("a", "m", True)
    assert hash(body) == hash(DeclResult("a", "m", True))
    assert Env((VTrue(),), NO_DEFS) == Env((VTrue(),), {"k": None})


def test_records_refuse_assignment_and_deletion():
    v = Var(0, id_cell(MU))
    for change in (
        lambda: setattr(v, "idx", 1),
        lambda: setattr(v, "fresh", 1),
        lambda: delattr(v, "idx"),
    ):
        with pytest.raises(AttributeError) as e:
            change()
        assert isinstance(e.value, FrozenRecordError)
    assert v.idx == 0


def test_cached_property_is_computed_once():
    calls = []

    def reify():
        calls.append(1)
        return NfTrue()

    r = DeclResult("a", "m", True, NfBool, reify_body=reify)
    assert r.body_nf == NfTrue() and r.body_nf == NfTrue()
    assert calls == [1]
    assert r.ty_nf is r.ty_nf == NfBool()
    for name in ("ty_nf", "body_nf"):
        assert isinstance(DeclResult.__dict__[name], cached_property)


def test_records_declared_without_equality_compare_by_identity():
    args = ("t", ("m",), {}, {})
    a, b = ModeTheory(*args), ModeTheory(*args)
    assert a == a and a != b and len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.name = "u"


def test_positional_match_patterns():
    match Var(3, id_cell(MU)):
        case Var(i, cell):
            assert (i, cell) == (3, id_cell(MU))
    match MU:
        case Modality(src, tgt, (g,)):
            assert (src, tgt, g) == ("n", "m", "mu")
    match DeclResult("a", "m", False, error="oops"):
        case DeclResult(name, _, False, None, error):
            assert (name, error) == ("a", "oops")


def test_repr_is_the_dataclass_text():
    assert repr(Var(0, id_cell(MU))) == (
        "Var(idx=0, cell=Cell2(src=Modality(mode_src='n', mode_tgt='m', word=('mu',)), "
        "tgt=Modality(mode_src='n', mode_tgt='m', word=('mu',)), layers=()))"
    )
    result = DeclResult("b", "m", False, error="oops", reify_body=NfTrue)
    assert repr(Report((result,), {})) == (
        "Report(results=(DeclResult(name='b', mode='m', ok=False, "
        "error='oops', fatal=False),))"
    )
    assert repr(Env((VTrue(),), NO_DEFS)) == "Env(vals=(VTrue(),))"
    assert repr(id_mod("m")) == "Modality(mode_src='m', mode_tgt='m', word=())"


def test_each_class_compiles_its_methods_under_its_own_name():
    # A profile keeps one row per (file, line, function), so a class's
    # generated ``__init__`` must not share the file name of every other's.
    assert Env.__init__.__code__.co_filename == "<record Env>"
    assert Var.__eq__.__code__.co_filename == "<record Var>"
    assert Probe.__repr__.__code__.co_filename == "<record Probe>"


def _classes(module) -> "tuple[dict[str, type], set[str]]":
    """The classes ``module`` declares, and the names of those that are
    not records."""
    classes = {
        name: c
        for name, c in vars(module).items()
        if isinstance(c, type) and c.__module__ == module.__name__
    }
    return classes, NOT_RECORDS[module.__name__.rsplit(".", 1)[1]]


@pytest.mark.parametrize("module", RECORD_MODULES, ids=lambda m: m.__name__)
def test_every_class_of_the_kernel_is_a_record(module):
    classes, not_records = _classes(module)
    assert not_records <= classes.keys()
    for name, c in classes.items():
        if name in not_records:
            continue
        assert c.__match_args__ == tuple(c.__dict__.get("__annotations__", {})), name
        assert c.__setattr__ is Probe.__setattr__, f"{name} is not a record"


def test_no_record_of_the_kernel_has_a_subclass():
    """The kernel dispatches on ``x.__class__ is C``, which answers as
    ``isinstance(x, C)`` does only while no record class is subclassed."""
    records = []
    for module in RECORD_MODULES:
        classes, not_records = _classes(module)
        records += [c for name, c in classes.items() if name not in not_records]
    # The scan must see the records of every module, not just some of them.
    named = {
        syntax.Var, syntax.LetMod, modeth.Modality, modeth.Cell2, nbe.VNeutral, nbe.VBox,
        nbe.VCode, nbe.TDec, normal.NfInj, normal.NeVar, check.CheckCtx, cli.Decl,
        harness.GenConfig,
    }
    assert named <= set(records)
    assert [c.__qualname__ for c in records if c.__subclasses__()] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = pathlib.Path(cli.__file__).resolve().parents[1]  # the mtt under test
    script = (
        "import sys, mtt.cli\n"
        "print(sorted(m for m in sys.modules if m == 'mtt' or m.startswith('mtt.')))\n"
        "print([m for m in ('dataclasses', 'inspect', 'argparse') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded, heavy = done.stdout.splitlines()
    kernel = ["check", "cli", "conv", "modeth", "nbe", "normal", "record", "syntax"]
    assert loaded == str(["mtt"] + [f"mtt.{m}" for m in kernel])
    assert heavy == "[]"
