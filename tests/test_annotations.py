"""Every explicit modality annotation in ``tests/corpus/`` is read.

The audit takes each modality the corpus writes (on ``Pi``/``PiC``/lambda
binders, after ``box``, ``Mod`` and ``ModC``, and both of ``letbox (mu |
nu)``) and each key ``x^cell``, and swaps it for another well-formed
modality or 2-cell of the same boundary, one not equal to it in the
file's mode theory.  ``mtt normalize`` on the mutated file must then exit
non-zero or print something else: an annotation nothing reads would be a
defect of the kernel.

The corpus has no key whose boundary holds a second cell: each starts at
an identity, in a theory with one generator cell, where interchange makes
all cells of that boundary equal (or is ``adjoint``'s lone counit).  So
``KEYED`` is written here to show the key swaps are made and read.
"""

import contextlib
import io
import itertools
import pathlib
from collections import Counter

import _frontend as FE
from mtt import cli
from mtt.cli import ParseError, Parser, tokenize
from mtt.modeth import Modality, ModeError, check_word, eq_cell, eq_mod

CORPUS = sorted(pathlib.Path(__file__).with_name("corpus").glob("*.mtt"))

# ``twice``'s key goes from x's annotation l to the locks l.l, a boundary
# with two cells that interchange does not identify: pt>l and l<pt.
KEYED = (
    "theory pointed\n"
    "def twice @m : Pi (l | x : Bool) -> Mod l (Mod l Bool) := "
    "\\(l | x) -> box l (box l x^(pt>l))\n"
)

# The token before an annotation, or before the ``(`` that opens it, names
# the annotation's kind.
_AFTER = {"box": "box", "Mod": "Mod", "ModC": "ModC", "|": "letbox-nu", "^": "key"}
_BINDERS = {"Pi": "Pi", "PiC": "PiC", "\\": "lambda", "letbox": "letbox-mu"}


def _annotations(text: str, monkeypatch):
    """The file's mode theory, and each annotation it writes as (kind,
    first token, token after it, the modality or 2-cell read there)."""
    seen = {}

    class Recorder(Parser):
        def parse_modexpr(self, amb):
            at = self.pos
            mod = super().parse_modexpr(amb)
            if amb is not None:  # not a modality of the theory block
                seen[at] = (self.pos, mod)
            return mod

        def parse_cell(self, ann):
            at = self.pos
            cell = super().parse_cell(ann)
            seen[at] = (self.pos, cell)
            return cell

    with monkeypatch.context() as m:
        m.setattr(cli, "Parser", Recorder)
        mt, _ = cli.parse_file(text)
    toks = tokenize(text)
    sites = []
    for at, (end, read) in sorted(seen.items()):
        kind = _AFTER.get(toks[at - 1])
        if toks[at - 1] == "(" and toks[end] == "|":  # not a binder tried and given up
            kind = _BINDERS[toks[at - 2]]
        if kind is not None:
            sites.append((kind, at, end, read))
    return mt, sites


def _modality_text(mod: Modality) -> str:
    return ".".join(reversed(mod.word)) or f"id({mod.mode_src})"


def _other_modalities(mt, mod: Modality) -> "list[str]":
    """Every modality of at most two generators with ``mod``'s boundary
    that the theory does not equate with it."""
    out = []
    for n in range(3):
        for word in itertools.product(sorted(mt.modality_gens), repeat=n):
            try:
                if check_word(mt, word, mod.mode_src) != mod.mode_tgt:
                    continue
            except ModeError:
                continue
            other = Modality(mod.mode_src, mod.mode_tgt, word)
            if not eq_mod(mt, other, mod):
                out.append(_modality_text(other))
    return out


def _other_cells(mt, cell) -> "list[str]":
    """Every 2-cell of at most two whiskered generators with ``cell``'s
    boundary that the theory does not equate with it."""
    gens, mods = sorted(mt.cell_gens), sorted(mt.modality_gens)
    parts = gens + [f"{l}<{g}" for l in mods for g in gens]
    parts += [f"({g})>{l}" for l in mods for g in gens]
    texts = ["id"] + parts + [f"({a}).({b})" for a in parts for b in parts]
    out = []
    for text in texts:
        try:
            p = Parser(tokenize(text), mt)
            other = p.parse_cell(cell.src)
            if p.toks[p.pos]:
                continue
            same_boundary = eq_mod(mt, other.src, cell.src) and eq_mod(mt, other.tgt, cell.tgt)
            if same_boundary and not eq_cell(mt, other, cell):
                out.append(f"({text})")
        except (ParseError, ModeError):
            continue
    return out


def _normalize(path) -> "tuple[int, str]":
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["normalize", str(path)])
    return status, out.getvalue()


def _audit(tmp_path, name: str, text: str, monkeypatch, tally: Counter) -> list:
    """Mutate each annotation of ``text`` in turn; the mutations that left
    ``mtt normalize`` exit 0 with the same stdout."""
    original = tmp_path / name
    original.write_text(text, encoding="utf-8")
    want = _normalize(original)
    assert want[0] == 0, name
    spans = FE.reference_tokenize(text)
    mt, sites = _annotations(text, monkeypatch)
    unread = []
    for kind, at, end, read in sites:
        tally[kind + " sites"] += 1
        start, stop = spans[at][4], spans[end - 1][4] + len(spans[end - 1][1])
        others = _other_cells(mt, read) if kind == "key" else _other_modalities(mt, read)
        for other in others:
            mutant = tmp_path / f"mutant-{name}"
            mutant.write_text(text[:start] + other + text[stop:], encoding="utf-8")
            tally[kind] += 1
            if _normalize(mutant) == want:
                unread.append((name, kind, text[start:stop], other))
    return unread


def test_every_modality_annotation_of_the_corpus_is_read(tmp_path, monkeypatch):
    tally, unread = Counter(), []
    for path in CORPUS:
        text = path.read_text(encoding="utf-8")
        unread += _audit(tmp_path, path.name, text, monkeypatch, tally)
    assert unread == []
    # Measured on the corpus as shipped: 129 mutations at 171 sites (no PiC
    # binder writes a modality there).  A site whose boundary has no second
    # modality or cell is not mutated.
    assert sum(n for k, n in tally.items() if not k.endswith(" sites")) >= 129
    floors = {
        "Pi": 9, "lambda": 7, "box": 38, "Mod": 53, "ModC": 4, "letbox-mu": 9, "letbox-nu": 9
    }
    assert all(tally[k] >= n for k, n in floors.items()), tally
    assert tally["key sites"] >= 14 and tally["key"] == 0


def test_a_key_swapped_for_another_cell_of_its_boundary_is_read(tmp_path, monkeypatch):
    tally = Counter()
    assert _audit(tmp_path, "keyed.mtt", KEYED, monkeypatch, tally) == []
    assert tally["key"] >= 1
