"""What the ``.mtt`` front end makes of the corpus and of seeded mutations.

``record(text)`` parses a source text and describes the outcome in plain
JSON: the theory's presentation and, for each declaration, its name, mode,
line, column and ``--print-core`` lines, or the ``ParseError`` message with
its line and column.  ``tests/frontend_fixture.json`` holds these records
for every corpus file and 20 token-level mutations of each; the front end
must reproduce them exactly.  Regenerate it only when the surface language
itself changes:

    PYTHONPATH=src python tests/_frontend.py

The mutations are edits ``(start, end, replacement)`` on the source text:
delete, duplicate or swap adjacent tokens, or insert a stray character.
Token spans come from ``reference_tokenize``, a copy of the original
one-regex-match-per-lexeme tokenizer, so they do not depend on the code
under test.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from random import Random

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = sorted((HERE / "corpus").glob("*.mtt"))
FIXTURE = HERE / "frontend_fixture.json"
MUTATIONS_PER_FILE = 20
STRAY = "$#!?%&+-(|).^:;@x1"

_REFERENCE_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<op>:=|->|=>|~>|[(){}\[\]|,;:.*\\^<>@=])
    | (?P<num>[0-9]+)
    | (?P<ident>iso-inv|[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> "list[tuple[str, str, int, int, int]] | tuple[str, int, int]":
    """The original tokenizer loop: (kind, text, line, col, offset) for each
    token and a final eof, or (message, line, col) of the error."""
    out = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            return (f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            out.append((kind, lexeme, line, col, pos))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    out.append(("eof", "", line, col, pos))
    return out


def mutations(text: str, rng: Random, count: int) -> list[tuple[int, int, str]]:
    toks = [t for t in reference_tokenize(text) if t[0] != "eof"]
    edits = []
    for _ in range(count):
        kind = rng.choice(["delete", "duplicate", "swap", "insert"])
        i = rng.randrange(len(toks))
        _, lexeme, _, _, start = toks[i]
        end = start + len(lexeme)
        if kind == "delete":
            edits.append((start, end, ""))
        elif kind == "duplicate":
            edits.append((end, end, " " + lexeme))
        elif kind == "swap" and i + 1 < len(toks):
            _, nxt, _, _, nstart = toks[i + 1]
            edits.append((start, nstart + len(nxt), nxt + text[end:nstart] + lexeme))
        else:
            at = rng.randrange(len(text) + 1)
            edits.append((at, at, rng.choice(STRAY)))
    return edits


def apply_edit(text: str, edit) -> str:
    start, end, replacement = edit
    return text[:start] + replacement + text[end:]


def record(text: str) -> dict:
    from mtt import syntax as S
    from mtt.cli import ParseError, parse_file

    try:
        mt, decls = parse_file(text)
    except ParseError as e:
        return {"error": [e.msg, e.line, e.col]}
    return {
        "theory": [
            mt.name,
            list(mt.modes),
            sorted([g, src, tgt] for g, (src, tgt) in mt.modality_gens.items()),
            sorted(f"{c} : {src} => {tgt}" for c, (src, tgt) in mt.cell_gens.items()),
        ],
        "decls": [
            [
                d.name,
                d.mode,
                d.line,
                d.col,
                f"core {d.name} : {S.show_term(d.ty)}",
                f"core {d.name} = {S.show_term(d.body)}",
            ]
            for d in decls
        ],
    }


def build() -> dict:
    out = {}
    for path in CORPUS:
        text = path.read_text(encoding="utf-8")
        rng = Random(f"frontend-{path.name}")
        cases = [{"edit": None, "expect": record(text)}]
        for edit in mutations(text, rng, MUTATIONS_PER_FILE):
            cases.append({"edit": list(edit), "expect": record(apply_edit(text, edit))})
        out[path.name] = cases
    return out


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
