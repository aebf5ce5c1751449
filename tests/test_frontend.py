"""The front end against recorded behaviour.

``frontend_fixture.json`` (see ``_frontend.py``) holds what parsing made of
the corpus and of 20 seeded mutations of each file; ``tokenize`` and the
places ``Tokens.token`` gives are compared with the original tokenizer loop
on random strings.
"""

import json
from random import Random

import pytest

import _frontend as FE
from mtt.cli import ParseError, Parser, tokenize
from mtt.modeth import pointed

FIXTURE = json.loads(FE.FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_corpus():
    assert sorted(FIXTURE) == [p.name for p in FE.CORPUS]
    assert all(len(cases) == 1 + FE.MUTATIONS_PER_FILE for cases in FIXTURE.values())


@pytest.mark.parametrize("path", FE.CORPUS, ids=lambda p: p.name)
def test_front_end_reproduces_the_fixture(path):
    text = path.read_text(encoding="utf-8")
    for case in FIXTURE[path.name]:
        src = text if case["edit"] is None else FE.apply_edit(text, case["edit"])
        assert FE.record(src) == case["expect"], (case["edit"], src)


# Pieces chosen to meet every lexical edge: comments against dashes and
# arrows, newlines inside and after comments, stray characters, and the
# one identifier with a dash in it.
PIECES = ["--", "\n", "-", "$", " ", "\t", "x", "a1'", "iso-inv", "iso", "-inv",
          "->", ":=", ":", "=", ">", "~", "(", ")", ".", "12", " ", "é"]


def _outcome(text):
    try:
        toks = tokenize(text)
    except ParseError as e:
        return (e.msg, e.line, e.col)
    located = [toks.token(i) for i in range(len(toks))]
    assert toks == [t.text for t in located]
    return [(t.kind, t.text, t.line, t.col) for t in located]


def test_tokenize_matches_the_reference_loop_on_random_strings():
    rng = Random("tokenize-reference")
    for _ in range(50_000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(12)))
        ref = FE.reference_tokenize(text)
        if isinstance(ref, list):
            ref = [t[:4] for t in ref]
        assert _outcome(text) == ref, repr(text)


def test_the_front_end_api_the_benchmark_uses():
    """``bench/tracer.py`` counts ``len(tokenize(text)) - 1`` tokens, and
    ``bench/`` parses 2-cells with ``Parser(tokenize(cell), mt).parse_cell``
    and reads ``peek().kind``; the tier-1 suite is what guards them."""
    for path in FE.CORPUS:
        text = path.read_text(encoding="utf-8")
        assert len(tokenize(text)) - 1 == len(FE.reference_tokenize(text)) - 1, path.name
    for cell in ("pt", "(l<pt).(pt)", "(pt>l).(pt)", "(l<l<pt).(l<pt).(pt)"):
        p = Parser(tokenize(cell), pointed())
        p.parse_cell(None)
        assert p.peek().kind == "eof" and p.peek(1).kind == "eof"
