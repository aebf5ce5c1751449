"""Tests of the benchmark itself: generators, known answers, tracer.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import contextlib
import io
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads as W  # noqa: E402
from mtt import cli  # noqa: E402
from mtt.modeth import eq_cell, id_mod, pointed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def op_answers(op):
    return [W.answer(op.mode, *run(argv)) for argv in op.commands]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = W.generate(workload, 7, ROOT, a)
    ops_b = W.generate(workload, 7, ROOT, b)
    assert [o.expect for o in ops_a] == [o.expect for o in ops_b]
    assert [[c[0] for c in o.commands] for o in ops_a] == [[c[0] for c in o.commands] for o in ops_b]
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    other = tmp_path / "c"
    other.mkdir()
    if workload != "corpus":
        W.generate(workload, 8, ROOT, other)
        assert any((a / n).read_bytes() != (other / n).read_bytes() for n in files_a)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("depth,width", [(1, 1), (2, 1), (3, 2), (2, 5)])
def test_defs_answers_hold(tmp_path, seed, depth, width):
    text, out = W.defs_file(random.Random(seed), depth, width)
    path = tmp_path / "d.mtt"
    path.write_text(text)
    assert run(["check", str(path)]) == (0, out, "")
    assert run(["normalize", str(path), "use"]) == (0, "use : Bool\nuse = true\n", "")


@pytest.mark.parametrize("seed", range(3))
def test_modal_answers_hold_at_small_sizes(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(W, "CONV_LAYERS", (1, 2, 3))
    monkeypatch.setattr(W, "KEY_TYPE_SIZE", (1, 3, 6))
    monkeypatch.setattr(W, "BOX_WORD", (2, 4, 7))
    ops = W.generate("modal", seed, ROOT, tmp_path)
    assert len(ops) == 9
    for op in ops:
        assert op_answers(op) == [json.loads(json.dumps(e)) for e in op.expect]
    codes = Counter(op.expect[0][0] for op in ops)
    assert codes[1] == 9  # every file holds exactly one ill-typed declaration


def test_corpus_golden_covers_the_corpus():
    golden = json.loads(W.GOLDEN.read_text())
    assert sorted(golden) == sorted(p.name for p in (ROOT / "tests" / "corpus").glob("*.mtt"))
    for op in W.corpus_ops(ROOT)[:6]:
        assert op_answers(op) == [list(e) for e in op.expect]


def _parse_cell(text, inputs):
    mt = pointed()
    p = cli.Parser(cli.tokenize(text), mt)
    ann = id_mod("m") if inputs == 0 else None
    cell = p.parse_cell(ann)
    assert p.peek().kind == "eof"
    return mt, cell


@pytest.mark.parametrize("seed", range(200))
def test_pt_composite_oracle_agrees_with_the_decider(seed):
    rng = random.Random(seed)
    inputs, n = rng.randint(1, 3), rng.randint(1, 5)
    gaps = [rng.randint(0, inputs) for _ in range(n)]
    other = [rng.randint(0, inputs) for _ in range(n)] if seed % 2 else rng.sample(gaps, n)
    mt, c1 = _parse_cell(W.pt_composite(rng, gaps, inputs), inputs)
    _, c2 = _parse_cell(W.pt_composite(rng, other, inputs), inputs)
    assert c1.src.word == c2.src.word == ("l",) * inputs
    assert eq_cell(mt, c1, c2) == (sorted(gaps) == sorted(other))


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)


def _bindings():
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name.partition(".")[0] == "mtt"
        for attr, val in vars(mod).items()
        if callable(val)
    }


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    import mtt.check
    import mtt.nbe

    before = _bindings()
    limit = sys.getrecursionlimit()
    text, _ = W.defs_file(random.Random(0), 3, 2)
    path = tmp_path / "d.mtt"
    path.write_text(text)
    plain = run(["check", str(path)])
    with tracer.Tracer() as t:
        assert mtt.check.eval_tm is not before[("mtt.nbe", "eval_tm")]
        assert mtt.nbe.eval_tm is mtt.check.eval_tm
        assert mtt.nbe.tele_depth.__wrapped__ is before[("mtt.normal", "depth")]
        assert sys.getrecursionlimit() == limit * tracer.FRAME_FACTOR
        traced = run(["check", str(path)])
        snap = t.snapshot()
    assert traced == plain
    assert sys.getrecursionlimit() == limit
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert snap["cli.parse.calls"] == 1
    assert snap["check.typing.calls"] > 0 and snap["nbe.eval.calls"] > 0
    assert snap["cli.parse.core_nodes"] > snap["cli.parse.tokens"] > 0


def test_tracer_counts_raises_at_the_layer_boundary(tmp_path):
    path = tmp_path / "bad.mtt"
    path.write_text("def f @m : Bool := \\x -> x\n")
    with tracer.Tracer() as t:
        code, _, err = run(["check", str(path)])
        snap = t.snapshot()
    assert code == 1 and "error: f:" in err
    assert snap["check.typing.raised"] == 1


def test_spliced_core_grows_exponentially_with_chain_depth(tmp_path):
    sizes = []
    for depth in range(2, 6):
        text, _ = W.defs_file(random.Random(depth), depth, 1)
        with tracer.Tracer() as t:
            cli.parse_file(text)
            sizes.append(t.snapshot()["cli.parse.core_nodes"])
    ratios = [b / a for a, b in zip(sizes, sizes[1:])]
    assert all(r > 3.5 for r in ratios), sizes


def test_traced_run_survives_deep_recursion(tmp_path):
    # 600 nested binders check untraced; wrapped, they need the raised limit.
    n = 600
    ty = "".join(f"Pi (x{i} : Bool) -> " for i in range(n)) + "Bool"
    body = "".join("\\x%d -> " % i for i in range(n)) + "x0"
    path = tmp_path / "deep.mtt"
    path.write_text(f"def f @m : {ty} := {body}\n")
    plain = run(["check", str(path)])
    assert plain[0] == 0, plain[2][-300:]
    with tracer.Tracer():
        assert run(["check", str(path)]) == plain
