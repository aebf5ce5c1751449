"""Seeded inputs for the benchmark's workloads, each with its known answer.

A workload is a list of ops; an op is one ``mtt`` command on one file (in
``defs``, ``check`` and then ``normalize`` on one file).  The generators
write the ``.mtt`` files and return each op with the answers it must produce, fixed by how the file was built (or, for the corpus, by the
golden output captured when the benchmark was defined), never by running
``mtt``.

Sizes come from fixed grids, and what sets a declaration's cost comes in
fixed multisets, so that every seed does the same amount of work; the seed
picks their order and everything else (argument order, projections, where
points and the ill-typed declaration go, the op order).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "defs", "modal")
GOLDEN = Path(__file__).with_name("corpus_golden.json")

# defs: (chain depth, telescope width k).  Spliced size grows as 4**depth.
DEFS_GRID = ((3, 1), (4, 1), (5, 1), (4, 4), (3, 8), (3, 16), (2, 32))

# modal: one file per kind and size step; column i sizes the i-th file.
CONV_LAYERS = (8, 16, 24, 32, 48)  # pt layers in each whiskered composite
KEY_TYPE_SIZE = (8, 16, 32, 48, 64)  # type formers in each keyed variable's type
BOX_WORD = (16, 48, 96, 128, 160)  # generators in each long modality word

# Each workload has an odd number of ops per cycle, placed so that p50 and
# p90 fall inside a run of same-shaped ops rather than between two.


@dataclass(frozen=True)
class Op:
    """Commands run in turn, and the known answer of each.

    ``mode`` says how output is compared: ``exact`` compares exit code,
    stdout and stderr byte for byte; ``verdict`` compares the exit code, the
    declarations printed on stdout, and each diagnostic's line, declaration
    and error class.
    """

    commands: tuple[tuple[str, ...], ...]
    mode: str
    expect: tuple


def answer(mode: str, code: int, out: str, err: str) -> object:
    """Reduce a command's output to what ``Op.expect`` records."""
    if mode == "exact":
        return [code, out, err]
    shown = sorted({line.split(" ", 1)[0] for line in out.splitlines()})
    diags = [list(_diag(line)) for line in err.splitlines()]
    return [code, shown, diags]


_DIAG = re.compile(r"^.*:(\d+):\d+: error: ([A-Za-z0-9_]+): ([a-z ]+)")


def _diag(line: str) -> tuple[int, str, str]:
    m = _DIAG.match(line)
    if m is None:
        return (0, "", line)
    return (int(m.group(1)), m.group(2), m.group(3).strip())


def generate(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    """Write the workload's files under ``workdir``; return one cycle of ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        ops = corpus_ops(root)
    elif workload == "defs":
        ops = []
        for n, (depth, width) in enumerate(DEFS_GRID):
            text, out = defs_file(rng, depth, width)
            path = workdir / f"defs{n}_d{depth}_k{width}.mtt"
            path.write_text(text, encoding="utf-8")
            commands = (("check", str(path)), ("normalize", str(path), "use"))
            expect = ([0, out, ""], [0, "use : Bool\nuse = true\n", ""])
            ops.append(Op(commands, "exact", expect))
    elif workload == "modal":
        ops = []
        for kind in ("pointed", "adjoint", "rewrite"):
            for step in range(len(CONV_LAYERS)):
                text, expect = modal_file(rng, kind, step)
                path = workdir / f"modal_{kind}{step}.mtt"
                path.write_text(text, encoding="utf-8")
                ops.append(Op((("normalize", str(path)),), "verdict", (expect,)))
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# corpus: the shipped example programs, checked against golden stdout


def corpus_ops(root: Path) -> list[Op]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ops = []
    for name in sorted(golden):
        path = root / "tests" / "corpus" / name
        for cmd in ("check", "normalize"):
            ops.append(Op(((cmd, str(path)),), "exact", ([0, golden[name][cmd], ""],)))
    return ops


# ---------------------------------------------------------------------------
# defs: chains of definitions that reference the previous one twice


def defs_file(rng: random.Random, depth: int, width: int) -> tuple[str, str]:
    """A chain ``f1 .. f<depth>`` of k-ary projections and ``use``.

    ``f_i := \\x1..xk -> f_{i-1} a1 .. (f_{i-1} b1..bk) .. ak``: every
    argument is a variable, except one slot that holds the inner call.  A
    projection applied to projections is a projection, so every ``f_i`` has
    the same type and ``use := f_n true..true`` normalises to ``true``.
    """
    xs = [f"x{j}" for j in range(1, width + 1)]
    ty = " -> ".join([f"Pi ({x} : Bool)" for x in xs] + ["Bool"])
    lam = " ".join(f"\\{x} ->" for x in xs)
    lines = ["theory trivial", f"def f1 @m : {ty} := {lam} {rng.choice(xs)}"]
    for i in range(2, depth + 1):
        inner = f"(f{i - 1} {' '.join(rng.sample(xs, width))})"
        args = rng.sample(xs, width)
        args[rng.randrange(width)] = inner
        lines.append(f"def f{i} @m : {ty} := {lam} f{i - 1} {' '.join(args)}")
    lines.append(f"def use @m : Bool := f{depth} {' '.join(['true'] * width)}")
    printed = " -> ".join([f"Pi (id(m) | x{j} : Bool)" for j in range(width)] + ["Bool"])
    out = "".join(f"checked f{i} : {printed}\n" for i in range(1, depth + 1))
    return "\n".join(lines) + "\n", out + "checked use : Bool\n"


# ---------------------------------------------------------------------------
# modal: conversions of 2-cells, key transport, long modality words


def modal_file(rng: random.Random, kind: str, step: int) -> tuple[str, list]:
    """Four independent declarations, two of each shape the kind has.

    One declaration of the first shape is ill-typed; always the first shape,
    so that every seed does the same work.  Returns the text and its
    verdict: exit code, the declarations that check, and a ``type
    mismatch`` diagnostic for the ill-typed one.
    """
    if kind == "pointed":
        header = "theory pointed"
        first, second = (_conv_decl, CONV_LAYERS[step]), (_key_pt_decl, KEY_TYPE_SIZE[step])
    elif kind == "adjoint":
        header = "theory adjoint"
        first, second = (_key_eps_decl, KEY_TYPE_SIZE[step]), (_box_adj_decl, BOX_WORD[step])
    elif kind == "rewrite":
        header = "theory { modes s; mod c : s -> s; rule c.c ~> c; decider rewrite; }"
        first, second = (_box_rw_decl, BOX_WORD[step]), (_conv_rw_decl, BOX_WORD[step])
    else:
        raise ValueError(kind)
    makers = [first, second] * 2
    rng.shuffle(makers)
    bad = rng.choice([i for i, m in enumerate(makers) if m is first])
    lines, ok, diags = [header], [], []
    for i, (make, size) in enumerate(makers):
        name = f"d{i}"
        if i == bad:
            lines.append(make(rng, name, size, bad=True))
            diags.append([len(lines), name, "type mismatch"])
        else:
            lines.append(make(rng, name, size))
            ok.append(name)
    return "\n".join(lines) + "\n", [1, sorted(ok), diags]


def _word(gen: str, n: int) -> str:
    return ".".join([gen] * n)


def pt_composite(rng: random.Random, gaps: list[int], inputs: int) -> str:
    """A vertical composite of whiskered ``pt`` layers, ``l^inputs => l^(inputs+n)``.

    Point j is inserted into gap ``gaps[j]`` (the number of input wires
    before it, in application order), at a random place among the points
    already there.  Two composites are equal iff their gap multisets are
    equal: layers in different gaps commute by interchange, and points in
    one gap are indistinguishable.
    """
    wires: list[str] = ["i"] * inputs
    layers = []
    for g in gaps:
        starts = [p for p in range(len(wires) + 1) if wires[:p].count("i") == g]
        p = rng.choice(starts)
        q = len(wires) - p
        layers.append("l<" * q + "pt" + ">l" * p)
        wires.insert(p, "p")
    return ".".join(f"({s})" for s in reversed(layers))


def _conv_decl(rng, name, n, bad=False):
    a = 2
    gaps = [i % (a + 1) for i in range(n)]
    rng.shuffle(gaps)
    other = gaps[:]
    rng.shuffle(other)
    if bad:
        j = rng.randrange(n)
        other[j] = (other[j] + rng.randint(1, a)) % (a + 1)
    c1 = pt_composite(rng, gaps, a)
    c2 = pt_composite(rng, other, a)
    la, ln = _word("l", a), _word("l", a + n)
    return (
        f"def {name} @m : Pi (P : Pi ({ln} | y : Bool) -> Uni) -> Pi ({la} | x : Bool) -> "
        f"Pi (z : dec (P x^{c1})) -> dec (P x^{c2}) := \\P -> \\({la} | x) -> \\z -> z"
    )


def random_type(rng: random.Random, size: int, modal: str) -> tuple[str, str]:
    """A closed type of ``size`` formers at mode m, and a copy with one
    ``Bool`` leaf replaced by ``Uni`` (so the two never convert).

    The type is a spine with ``Bool`` domains.  Its formers are a fixed
    multiset in seeded order, so its cost depends on its size, not the seed.
    """
    kinds = ["pi", "sig", "pi_modal", "mod"] if modal else ["pi", "sig"]
    formers = [kinds[i % len(kinds)] for i in range(size)]
    rng.shuffle(formers)
    leaves = sum(k != "mod" for k in formers) + 1
    flip = rng.randrange(leaves)
    texts = []
    for wrong in (None, flip):
        leaf = iter("Uni" if i == wrong else "Bool" for i in range(leaves))
        parts = []
        for k in formers:
            if k == "pi":
                parts.append(f"Pi (y : {next(leaf)}) -> ")
            elif k == "sig":
                parts.append(f"Sig (y : {next(leaf)}) * ")
            elif k == "pi_modal":
                parts.append(f"Pi ({modal} | y : {next(leaf)}) -> ")
            else:
                parts.append(f"Mod {modal} (")
        texts.append("".join(parts) + next(leaf) + ")" * formers.count("mod"))
    return texts[0], texts[1]


def _key_pt_decl(rng, name, n):
    ty, _ = random_type(rng, n, "l")
    return f"def {name} @m : Pi (x : {ty}) -> Mod l ({ty}) := \\x -> box l (x^pt)"


def _key_eps_decl(rng, name, n, bad=False):
    good, wrong = random_type(rng, n, "")
    return (
        f"def {name} @m : Pi (l.r | x : {good}) -> {wrong if bad else good} := "
        f"\\(l.r | x) -> x^eps"
    )


def _box_adj_decl(rng, name, n):
    # (r.l)^k rewrites to id(n) under the adjoint theory's rule r.l ~> id.
    reps = max(1, n // 2)
    w1 = ".".join(["r.l"] * reps)
    w2 = ".".join(["r.l"] * (reps - rng.randint(0, reps // 8)))
    return f"def {name} @n : Pi (x : Bool) -> Mod {w1} Bool := \\x -> box {w2} x"


def _box_rw_decl(rng, name, n, bad=False):
    w1, w2 = _word("c", n), _word("c", n - rng.randint(0, n // 8))
    if bad:
        return f"def {name} @s : Pi (z : Mod {w1} Bool) -> Mod {w2} Uni := \\z -> z"
    return f"def {name} @s : Pi (c | x : Bool) -> Mod {w1} Bool := \\(c | x) -> box {w2} x"


def _conv_rw_decl(rng, name, n):
    w1, w2 = _word("c", n), _word("c", n - rng.randint(0, n // 8))
    return f"def {name} @s : Pi (z : Mod {w1} Bool) -> Mod {w2} Bool := \\z -> z"


def write_golden(root: Path) -> None:
    """Capture the corpus golden output from the ``mtt`` in ``root/src``."""
    import contextlib
    import io
    import sys

    sys.path.insert(0, str(root / "src"))
    from mtt.cli import main

    golden = {}
    for path in sorted((root / "tests" / "corpus").glob("*.mtt")):
        golden[path.name] = {}
        for cmd in ("check", "normalize"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([cmd, str(path)])
            if code != 0 or err.getvalue():
                raise SystemExit(f"{path.name} {cmd}: exit {code}\n{err.getvalue()}")
            golden[path.name][cmd] = out.getvalue()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # Re-capture the corpus golden output: python3 bench/workloads.py
    write_golden(Path(__file__).resolve().parent.parent)
