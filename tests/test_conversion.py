"""Conversion on values (``conv.conv``/``conv_ty``): agreement with reading
back and comparing normal forms, sharing of definitions, and the cost of
types that name definitions."""

import os
import pathlib
import subprocess
import sys
import textwrap
from collections import Counter
from random import Random

import pytest

from mtt import check, cli, conv as C, harness, modeth, nbe
from mtt import syntax as S
from mtt.check import check_program, check_type, empty_ctx
from mtt.harness import (
    GenConfig,
    HarnessError,
    check_conversion,
    conversion_trial,
    near_miss,
    run_conversion,
    theory_of,
)
from mtt.conv import conv, conv_ty
from mtt.modeth import Modality, id_cell, id_mod
from mtt.nbe import (
    Closure,
    NbeError,
    NeAbs,
    TBool,
    TUni,
    VLam,
    VTrue,
    eval_ty,
    reify,
    reify_ty,
)

CORPUS = pathlib.Path(__file__).with_name("corpus")
SRC = pathlib.Path(check.__file__).resolve().parents[1]

# A user-declared rewrite theory with a cell, so that keys occur.
REWRITE = "theory { modes m; mod c : m -> m; cell pt : id(m) => c; rule c.c ~> c; decider rewrite; }\n"


def theory(name: str):
    if name == "rewrite":
        return cli.parse_file(REWRITE)[0]
    return theory_of(GenConfig(theory=name))


# Measured at 150 seeds: 702 to 742 rejected pairs of about 1330 in every
# theory, and 22 to 28 keyed pairs where a cell makes keys (adjoint's
# whiskered counits all collapse to identities).
FLOORS = {
    "trivial": (600, 0),
    "walking": (600, 0),
    "pointed": (600, 15),
    "adjoint": (600, 0),
    "rewrite": (600, 15),
}


@pytest.mark.parametrize("name", sorted(FLOORS))
def test_conversion_agrees_with_comparing_normal_forms(name):
    mt = theory(name)
    tally = Counter()
    for seed in range(150):
        tally += conversion_trial(mt, GenConfig(seed=seed, theory="trivial"))
    rejected, keyed = FLOORS[name]
    assert tally["pairs"] >= 1200
    assert tally["rejected"] >= rejected
    assert tally["keyed"] >= keyed


def test_conversion_campaign_reports_its_line(capsys):
    assert run_conversion(8, seed=7)
    out = capsys.readouterr().out
    assert out.startswith("conversion: ") and "pairs agree with read-back" in out


def test_a_disagreement_is_reported(monkeypatch):
    ctx = empty_ctx(modeth.trivial(), "m")
    assert check_conversion(ctx, None, TBool(), TBool()) == (True, False)
    monkeypatch.setattr(harness, "conv_ty", lambda *args: False)
    with pytest.raises(HarnessError, match="conversion says False, the normal forms say True"):
        check_conversion(ctx, None, TBool(), TBool())


@pytest.mark.parametrize(
    "ty, ill",
    [
        (TBool(), lambda: VLam(Closure(nbe.Env((), nbe.NO_DEFS), S.True_()))),
        (TUni(), VTrue),
        (nbe.TMod(id_mod("m"), TBool()), VTrue),
        (nbe.TDec(nbe.CNeutral(NeAbs(0, id_cell(id_mod("m"))))), VTrue),
    ],
    ids=["bool", "universe", "modal", "neutral-code"],
)
def test_ill_formed_values_raise_as_reify_does(ty, ill):
    mt = modeth.trivial()
    with pytest.raises(NbeError) as want:
        reify(mt, 1, "m", ty, ill())
    with pytest.raises(NbeError) as got:
        conv(mt, 1, "m", ty, ill(), ill())
    assert str(got.value) == str(want.value)


def test_escaping_level_raises_as_reify_does():
    mt = modeth.trivial()
    ne = nbe.VBoolNeutral(NeAbs(3, id_cell(id_mod("m"))))
    with pytest.raises(NbeError, match="escapes depth"):
        conv(mt, 2, "m", TBool(), ne, nbe.VBoolNeutral(NeAbs(3, id_cell(id_mod("m")))))


def test_one_object_converts_with_itself_without_being_looked_at():
    mt = modeth.trivial()
    opaque = object()
    assert conv_ty(mt, 0, "m", opaque, opaque)
    assert conv(mt, 0, "m", TBool(), opaque, opaque)
    assert C.conv_code(mt, 0, "m", opaque, opaque)
    with pytest.raises(NbeError):
        conv_ty(mt, 0, "m", opaque, TBool())


# ---------------------------------------------------------------------------
# check_type builds the value eval_ty would


def test_check_type_value_equals_eval_ty_on_the_corpus():
    seen = 0
    for path in sorted(CORPUS.glob("*.mtt")):
        mt, decls = cli.parse_file(path.read_text(encoding="utf-8"))
        report = check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
        for d, r in zip(decls, report.results):
            if not r.ok:
                continue
            ctx = empty_ctx(mt, d.mode, report.signature)
            got, want = check_type(ctx, d.ty), eval_ty(mt, ctx.env, d.ty)
            assert reify_ty(mt, 0, d.mode, got) == reify_ty(mt, 0, d.mode, want), d.name
            seen += 1
    assert seen >= 80  # 84 declarations check


# ---------------------------------------------------------------------------
# Types that name definitions


def code_chain(n: int) -> str:
    """``c_i := PiC (x : c_{i-1}) -> c_{i-1}``: ``dec c_n`` unfolds to 2^n
    nodes, and ``idn`` compares it with itself."""
    lines = ["def c0 @m : Uni := BoolC"]
    lines += [f"def c{i} @m : Uni := PiC (x : c{i - 1}) -> c{i - 1}" for i in range(1, n + 1)]
    lines.append(f"def idn @m : Pi (x : dec c{n}) -> dec c{n} := \\x -> x")
    return "\n".join(lines) + "\n"


def test_code_chain_checks_without_unfolding():
    # Comparing normal forms took 33.6 s at n = 18 and doubled per step.
    script = textwrap.dedent(
        f"""
        import time
        from mtt import check, cli
        mt, decls = cli.parse_file({code_chain(18)!r})
        start = time.perf_counter()
        report = check.check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
        print(report.ok, time.perf_counter() - start)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    ok, seconds = done.stdout.split()
    assert ok == "True" and float(seconds) < 0.5, done.stdout


def _unfolded(n: int, depth: int) -> str:
    if n == 0:
        return "BoolC"
    inner = _unfolded(n - 1, depth)
    return f"PiC (id(m) | x{depth} : {inner}) -> {_unfolded(n - 1, depth + 1)}"


def test_check_still_prints_the_chain_unfolded(tmp_path, capsys):
    path = tmp_path / "chain.mtt"
    path.write_text(code_chain(6), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    want = "".join(f"checked c{i} : Uni\n" for i in range(7))
    want += f"checked idn : Pi (id(m) | x0 : dec ({_unfolded(6, 0)})) -> dec ({_unfolded(6, 1)})\n"
    assert capsys.readouterr().out == want


def test_normalize_reads_back_only_the_named_declarations_type(tmp_path, capsys, monkeypatch):
    ty = "Pi (x1 : Bool) -> Pi (x2 : Bool) -> Bool"
    lines = [f"def f1 @m : {ty} := \\x1 -> \\x2 -> x2"]
    lines += [f"def f{i} @m : {ty} := \\x1 -> \\x2 -> f{i - 1} (f{i - 1} x2 x1) x2" for i in range(2, 7)]
    lines.append("def use @m : Bool := f6 true false")
    path = tmp_path / "defs.mtt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read_back = []

    def recording(mt, d, mode, T):
        read_back.append(T)
        return reify_ty(mt, d, mode, T)

    monkeypatch.setattr(check, "reify_ty", recording)
    assert cli.main(["normalize", str(path), "use"]) == 0
    assert capsys.readouterr().out == "use : Bool\nuse = false\n"
    assert read_back == [TBool()]


# ---------------------------------------------------------------------------
# The decider


def test_equal_words_skip_the_rewriting(monkeypatch):
    mt = theory("rewrite")
    cc = Modality("m", "m", ("c", "c"))

    def forbidden(mt, word):
        raise AssertionError("canon_word called")

    monkeypatch.setattr(modeth, "canon_word", forbidden)
    assert modeth.eq_mod(mt, cc, Modality("m", "m", ("c", "c")))
    assert not modeth.eq_mod(mt, id_mod("m"), Modality("n", "n"))
    with pytest.raises(AssertionError, match="canon_word"):
        modeth.eq_mod(mt, cc, Modality("m", "m", ("c",)))
    monkeypatch.undo()
    assert modeth.eq_mod(mt, cc, Modality("m", "m", ("c",)))


def test_near_miss_changes_exactly_one_leaf():
    mt = modeth.pointed()
    ell = Modality("m", "m", ("l",))
    t = S.Pair(S.True_(), S.MkBox(ell, S.False_()))
    rng = Random(0)
    assert {near_miss(mt, rng, t) for _ in range(60)} == {
        S.Pair(S.False_(), S.MkBox(ell, S.False_())),
        S.Pair(S.True_(), S.MkBox(ell, S.True_())),
        S.Pair(S.True_(), S.MkBox(id_mod("m"), S.False_())),
        S.Pair(S.True_(), S.MkBox(Modality("m", "m", ("l", "l")), S.False_())),
    }
    assert near_miss(mt, rng, S.Var(0, id_cell(ell))) is None
