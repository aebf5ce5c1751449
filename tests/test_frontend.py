"""The front end against recorded behaviour.

``frontend_fixture.json`` (see ``_frontend.py``) holds what parsing made of
the corpus and of 20 seeded mutations of each file; ``tokenize`` is compared
with the original tokenizer loop on random strings.
"""

import json
from random import Random

import pytest

import _frontend as FE
from mtt.cli import ParseError, tokenize

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
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return (e.msg, e.line, e.col)


def test_tokenize_matches_the_reference_loop_on_random_strings():
    rng = Random("tokenize-reference")
    for _ in range(50_000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(12)))
        ref = FE.reference_tokenize(text)
        if isinstance(ref, list):
            ref = [t[:4] for t in ref]
        assert _outcome(text) == ref, repr(text)
