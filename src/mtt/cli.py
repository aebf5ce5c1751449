"""The ``.mtt`` surface language and command line.

A source file is an optional mode-theory block followed by declarations::

    theory { modes n m; mod mu : n -> m; decider free }

    def k @m : Pi (mu | x : Bool) -> Mod mu Bool := \\(mu | x) -> box mu x

Shipped theories (``modeth.THEORIES``) can be selected by name (``theory
walking``) or forced from the command line with ``--mode-theory``.  Surface
terms use names; parsing resolves them to de Bruijn indices and attaches the
binder's modality as the identity cell on bare occurrences (``x^CELL`` for
explicit keys).
The name of an earlier ``def`` becomes a ``Const`` reference: the kernel
checks each declaration once and looks its type up at every use.

A file is read as bytes and decoded once, with CRLF and lone CR line ends
read as LF.  Lexing is one ``findall`` per file of a regex with one
alternation, one match per token; comments are matched as tokens and
dropped.  The parser reads the token texts and raises each diagnostic at a
token index.  Where tokens start is found with the same regex, once per
file, only when a diagnostic or ``Decl.line``/``col`` asks for a place.
The commonest binders, ``Pi (x : A) ->`` and ``\\x ->``, are read and
scoped in line.

Identity modalities written bare (``id``) resolve at the lexically
enclosing mode; ``id(m)`` names a mode explicitly.  A run of generator
names is one word, built by ``modeth.word_mod``: a dotted modality, and in
a key a run of ``NAME <`` before a cell or of ``> NAME`` after it, so a
key whiskers once on each side whatever its depth.  Exit codes: 0 success,
1 type error, 2 parse error, a declaration nested too deeply for the
interpreter's stack, or a 2-cell question the mode theory's decider
refuses.  Diagnostics go to stderr; all stdout output is a deterministic
function of the input.  Normal forms print through
``normal.surface_nf``/``surface_nfty``, which read them directly, and
``--print-core`` prints the parsed terms, all through ``syntax.show_term``,
whose output parses again; a closed stdout discards the rest of the output
and changes neither the diagnostics nor the exit code.

A plain command line, ``check FILE`` or ``normalize FILE [NAME]`` with no
argument that starts with ``-``, runs without ``argparse``; it is imported
only for options, ``-h`` and usage errors, whose texts are its own.
"""

from __future__ import annotations

import os
import re
import sys
from functools import cache
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .record import field, record
from . import check as C
from . import syntax as S
from .modeth import (
    THEORIES,
    Cell2,
    ModeError,
    ModeTheory,
    Modality,
    TheoryItemError,
    compose_mod,
    gen_cell,
    id_cell,
    id_mod,
    shipped_theory,
    trivial,
    validate,
    vcomp,
    whisker_left,
    whisker_right,
    word_mod,
)
# All three are bound here: ``bench/tracer.py`` times them as ``cli:surface_*``.
from .normal import surface_ne, surface_nf, surface_nfty  # noqa: F401
from .syntax import Term

if TYPE_CHECKING:
    import argparse


class ParseError(Exception):
    """A syntax error at token ``at`` of ``tokens`` (a ``tokenize`` result).
    Its ``line`` and ``col`` are worked out only when read."""

    def __init__(self, msg: str, tokens: "Tokens", at: int):
        super().__init__(msg)
        self.msg, self.tokens, self.at = msg, tokens, at

    @property
    def line(self) -> int:
        return self.tokens.token(self.at).line

    @property
    def col(self) -> int:
        return self.tokens.token(self.at).col


SHIPPED = THEORIES  # the shipped mode theories, by name; ``bench/run.py`` builds each


# ---------------------------------------------------------------------------
# Tokens


class Token(NamedTuple):
    kind: str  # "ident", "num", "op", "eof"
    text: str
    line: int
    col: int


# One alternation, one match per token: ``findall`` passes over whitespace,
# which no alternative matches.  A comment is matched as a token of its own
# and dropped; ``\S`` takes any other single character, an operator or a
# stray one that ``tokenize`` rejects.  Eof is appended, at the end of the
# text.
_TOKEN_RE = re.compile(r":=|->|=>|~>|iso-inv|[A-Za-z_][A-Za-z0-9_']*|[0-9]+|--[^\n]*|\S")
_NAME_START = frozenset("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_ONE_CHAR = _NAME_START | frozenset("0123456789(){}[]|,;:.*\\^<>@=")


def _kind(tok: str) -> str:
    if not tok:
        return "eof"
    return "ident" if tok[0] in _NAME_START else "num" if tok.isdigit() else "op"


class Tokens(list):
    """The token texts of ``source``, ending in one ``""`` (eof)."""

    __slots__ = ("source", "_starts", "_scan")

    def __init__(self, texts: "list[str]", source: str):
        super().__init__(texts)
        self.source = source
        self._starts: "list[int]" = []
        self._scan: "Iterator[int] | None" = None

    def token(self, i: int) -> Token:
        """Token ``i`` with its kind, line and column.  Lines end at ``\\n``
        only; eof sits at the end of the text.  Where tokens start is found
        by a second pass of ``_TOKEN_RE`` over the text, which goes only as
        far as token ``i`` and resumes there when a later token is asked
        for."""
        starts, src = self._starts, self.source
        if i >= len(starts):
            if self._scan is None:
                found = (m.start() for m in _TOKEN_RE.finditer(src) if m.group()[:2] != "--")
                self._scan = chain(found, (len(src),))
            starts += islice(self._scan, i + 1 - len(starts))
        start, text = starts[i], self[i]
        bol = src.rfind("\n", 0, start) + 1
        return Token(_kind(text), text, src.count("\n", 0, bol) + 1, start - bol + 1)


def tokenize(text: str) -> Tokens:
    """The token texts of ``text`` from one ``findall``, ending in ``""``.

    Every ``--`` in the text lies in a comment, so only a text that has one
    is searched for comments to drop.  A stray character anywhere in the
    text is a ``ParseError`` at the first one.  Positions are not computed
    here: ``Tokens.token`` finds them when a diagnostic or ``Parser.peek``
    asks.
    """
    texts = _TOKEN_RE.findall(text)
    if "--" in text:
        texts = [t for t in texts if t[:2] != "--"]
    texts.append("")
    toks = Tokens(texts, text)
    stray = [t for t in set(texts) if len(t) == 1 and t not in _ONE_CHAR]
    if stray:
        at = min(map(toks.index, stray))
        raise ParseError(f"unexpected character {toks[at]!r}", toks, at)
    return toks


# ---------------------------------------------------------------------------
# Parser


@record
class Decl:
    """A parsed declaration; ``line`` and ``col`` place its ``def``
    keyword, token ``at`` of ``tokens``, when read."""

    name: str
    mode: str
    ty: Term
    body: Term
    at: int
    tokens: Tokens = field(repr=False, compare=False)

    line, col = ParseError.line, ParseError.col


_TERM_KEYWORDS = set(
    "true false box letbox if then else in iso iso-inv PiC SigC BoolC ModC "
    "Pi Sig Bool Uni Mod dec def theory id".split()
)

# The tokens each form of the grammar can start with.
_TYPE_START = {"Pi", "Sig", "Bool", "Uni", "Mod", "dec", "("}
_BINDER_TERMS = {"\\", "letbox", "if", "PiC", "SigC"}
_ATOM_START = {"true", "false", "box", "iso", "iso-inv", "BoolC", "ModC", "("}

# The formers with no fields, one instance each, shared by every parse.
_BOOL, _UNI, _TRUE, _FALSE, _BOOL_CODE = S.Bool(), S.Uni(), S.True_(), S.False_(), S.BoolCode()
_WORD_TYPES = {"Bool": _BOOL, "Uni": _UNI}  # the types of one token


class Parser:
    """Recursive descent over the texts of a ``tokenize`` result.  A name is
    a token whose first character is in ``_NAME_START``; a diagnostic is
    raised at a token index and located only when read."""

    def __init__(self, toks: Tokens, mt: "ModeTheory | None"):
        self.tokens = toks
        self.toks = toks + [""]  # a second eof, so toks[pos + 1] needs no bounds check
        self.pos = 0
        self.mt = mt
        self.defs: dict[str, Decl] = {}
        # The binders around the current token, by level (outermost 0): each
        # one's annotation and whether a name has referred to it, and per
        # name the levels that bind it, innermost last.
        self.anns: list[Modality] = []
        self.used: list[bool] = []
        self.levels: dict[str, list[int]] = {}

    # -- token plumbing; only eof is empty, and ``pos`` never passes it

    def peek(self, ahead: int = 0) -> Token:
        """The located token ``ahead`` places on (eof past the end)."""
        return self.tokens.token(min(self.pos + ahead, len(self.tokens) - 1))

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        t = self.toks[self.pos]
        if t != text:
            raise self.fail(f"expected {text!r}, found {t or 'end of input'!r}")
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        t = self.toks[self.pos]
        if t[:1] not in _NAME_START:
            raise self.fail(f"expected {what}, found {t or 'end of input'!r}")
        self.pos += 1
        return t

    def fail(self, msg: str, at: "int | None" = None) -> ParseError:
        """A ``ParseError`` at token ``at``, by default the current one."""
        return ParseError(msg, self.tokens, self.pos if at is None else at)

    # -- modalities

    def parse_mode(self) -> str:
        at = self.pos
        name = self.expect_ident("a mode name")
        if name not in self.mt.modes:
            raise self.fail(f"unknown mode {name!r}", at)
        return name

    def parse_modexpr(self, amb: "str | None") -> Modality:
        """A modality: ``id``, ``id(m)``, or generator names dotted in
        composition order (last applied leftmost).  Nothing else can follow
        a generator word with ``.NAME``, so that ``NAME`` is an unknown
        generator."""
        at = self.pos
        if self.accept("id"):
            if self.accept("("):
                mode = self.parse_mode()
                self.expect(")")
                return id_mod(mode)
            if amb is None:
                raise self.fail("bare 'id' needs a mode here: write id(<mode>)", at)
            return id_mod(amb)
        self.expect_ident("a modality name")
        toks, gens = self.toks, self.mt.modality_gens
        while toks[self.pos] == "." and toks[self.pos + 1] in gens:
            self.pos += 2
        mod = self._word(at, self.pos)
        if toks[self.pos] == "." and toks[self.pos + 1][:1] in _NAME_START:
            # only a generator could continue the word here
            raise self.fail(f"unknown modality {toks[self.pos + 1]!r}", self.pos + 1)
        return mod

    def _word(self, first: int, end: int) -> Modality:
        """The word of the names at every other token from ``first`` to
        ``end``, last applied leftmost.  An unknown name is blamed at its
        token, a word that does not compose at ``first``."""
        names = self.toks[first:end:2]
        try:
            return word_mod(self.mt, names[::-1])
        except ModeError as e:
            unknown = [i for i, g in enumerate(names) if g not in self.mt.modality_gens]
            raise self.fail(str(e), first + 2 * unknown[-1] if unknown else first) from None

    # -- 2-cells (after ^)

    def parse_cell(self, ann: Modality) -> Cell2:
        """grammar: cell := part ('.' part)* ; part := (NAME '<')* unit
        ('>' NAME)* ; unit := '(' cell ')' | NAME | 'id'.  The cell is
        built through ``modeth``'s constructors, which check its boundaries
        as they go; each run of names is one word, so a part whiskers once
        on each side."""
        at = self.pos
        try:
            cell = self._cell_expr()
        except ModeError as e:
            raise self.fail(f"ill-formed 2-cell: {e}", at) from None
        return id_cell(ann) if cell is None else cell

    # The helpers return None for the bare identity, which only a whole
    # cell may be.

    def _no_id(self, cell: "Cell2 | None") -> Cell2:
        if cell is None:
            raise self.fail("bare 'id' cannot appear inside a composite cell")
        return cell

    def _cell_expr(self) -> "Cell2 | None":
        out = self._cell_part()
        if out is None and not self.at("."):
            return None
        out = self._no_id(out)
        while self.accept("."):
            out = vcomp(out, self._no_id(self._cell_part()), self.mt)  # left side applied later
        return out

    def _cell_part(self) -> "Cell2 | None":
        """A unit whiskered once on each side: a run of ``NAME <`` before it
        is its outer word, a run of ``> NAME`` after it its inner word."""
        toks, outer = self.toks, self.pos
        while (t := toks[self.pos]) != "id" and t[:1] in _NAME_START and toks[self.pos + 1] == "<":
            self.pos += 2
        unit = self.pos
        base = self._cell_unit()
        if unit > outer or self.at(">"):
            base = self._no_id(base)
        inner = self.pos + 1
        while self.accept(">"):
            self.expect_ident("a modality name")
        if self.pos > inner:
            base = whisker_right(base, self._word(inner, self.pos))
        if unit > outer:
            base = whisker_left(self._word(outer, unit), base)
        return base

    def _cell_unit(self) -> "Cell2 | None":
        at = self.pos
        if self.accept("("):
            inner = self._cell_expr()
            self.expect(")")
            return self._no_id(inner)
        if self.accept("id"):
            return None
        name = self.expect_ident("a 2-cell name")
        if name not in self.mt.cell_gens:
            raise self.fail(f"unknown 2-cell {name!r}", at)
        return gen_cell(self.mt, name)

    # -- binders

    def _binder(self, amb: str) -> "tuple[Modality, str]":
        """``( mod | x`` or ``( x``, from the opening paren inclusive.  Only
        a modality can continue with ``|``, ``.`` or ``(`` after its first
        token, so the binder is a modal one exactly when one of those
        follows."""
        self.expect("(")
        toks = self.toks
        if toks[self.pos + 1] in ("|", ".", "("):
            mod = self.parse_modexpr(amb)
            self.expect("|")
            return mod, self.expect_ident("a variable name")
        return id_mod(amb), self.expect_ident("a variable name")

    def _guard_mode(self, mod: Modality, amb: str, at: int) -> None:
        if mod.mode_tgt != amb:
            raise self.fail(
                f"modality {mod} lands in mode {mod.mode_tgt}, "
                f"but the ambient mode is {amb}",
                at,
            )

    def _bind(self, name: str, mod: Modality) -> None:
        """Bind ``name`` at ``mod`` as the innermost binder.  ``Pi`` and
        ``\\`` bind and unbind in line instead."""
        self.levels.setdefault(name, []).append(len(self.anns))
        self.anns.append(mod)
        self.used.append(False)

    def _unbind(self, name: str) -> bool:
        """Drop the innermost binder, ``name``; whether a name referred to it."""
        self.levels[name].pop()
        self.anns.pop()
        return self.used.pop()

    # -- types and terms: each form is chosen by its first token's text

    def parse_type(self, amb: str) -> Term:
        at = self.pos
        head = self.toks[at]
        if head not in _TYPE_START:
            raise self.fail(f"expected a type, found {head!r}")
        self.pos += 1
        if head == "Pi":
            toks, pos = self.toks, self.pos
            name = toks[pos + 1]
            if toks[pos] == "(" and toks[pos + 2] == ":" and name[:1] in _NAME_START:
                mod = id_mod(amb)  # ``Pi (x : A) ->``, read in line
                self.pos = pos + 3
            else:
                mod, name = self._binder(amb)
                self._guard_mode(mod, amb, at)
                self.expect(":")
            # A domain or codomain ``Bool`` or ``Uni`` is read in line, and
            # so is the scope of the binder.
            dom = _WORD_TYPES.get(toks[self.pos])
            if dom is None:
                dom = self.parse_type(mod.mode_src)
            else:
                self.pos += 1
            if toks[self.pos] != ")" or toks[self.pos + 1] != "->":
                self.expect(")")
                self.expect("->")
            pos = self.pos = self.pos + 2
            anns, levels, used = self.anns, self.levels, self.used
            levels.setdefault(name, []).append(len(anns))
            anns.append(mod)
            used.append(False)
            cod = _WORD_TYPES.get(toks[pos])
            if cod is None:
                cod = self.parse_type(amb)
            else:
                self.pos = pos + 1
            levels[name].pop()
            anns.pop()
            return S.Pi(mod, dom, cod, used.pop())
        if head == "Bool":
            return _BOOL
        if head == "Sig":
            self.expect("(")
            name = self.expect_ident("a variable name")
            self.expect(":")
            fst = self.parse_type(amb)
            self.expect(")")
            self.expect("*")
            self._bind(name, id_mod(amb))
            snd = self.parse_type(amb)
            return S.Sig(fst, snd, self._unbind(name))
        if head == "Uni":
            return _UNI
        if head == "Mod":
            mod = self.parse_modexpr(amb)
            self._guard_mode(mod, amb, at)
            return S.Mod(mod, self.parse_type(mod.mode_src))
        if head == "dec":
            return S.Dec(self.parse_atom(amb))
        inner = self.parse_type(amb)  # after "("
        self.expect(")")
        return inner

    def parse_term(self, amb: str) -> Term:
        at = self.pos
        head = self.toks[at]
        if head not in _BINDER_TERMS:
            return self.parse_app(amb)
        self.pos += 1
        if head == "\\":
            toks, pos = self.toks, self.pos
            name = toks[pos]
            if toks[pos + 1] == "->" and name[:1] in _NAME_START:
                mod = id_mod(amb)  # ``\x ->``, read in line
                self.pos = pos + 2
            else:
                if self.at("("):
                    mod, name = self._binder(amb)
                    self._guard_mode(mod, amb, at)
                    self.expect(")")
                else:
                    mod, name = id_mod(amb), self.expect_ident("a variable name")
                self.expect("->")
            anns, levels, used = self.anns, self.levels, self.used
            levels.setdefault(name, []).append(len(anns))
            anns.append(mod)
            used.append(False)
            body = self.parse_term(amb)
            levels[name].pop()
            anns.pop()
            used.pop()
            return S.Lam(body, mod)
        if head == "letbox":
            self.expect("(")
            mu = self.parse_modexpr(amb)
            self._guard_mode(mu, amb, at)
            self.expect("|")
            nu = self.parse_modexpr(mu.mode_src)
            if nu.mode_tgt != mu.mode_src:
                raise self.fail(
                    f"eliminated modality {nu} lands in mode {nu.mode_tgt}, "
                    f"but the lock opens mode {mu.mode_src}",
                    at,
                )
            self.expect(")")
            self.expect("[")
            bname = self.expect_ident("a variable name")
            self.expect(".")
            self._bind(bname, mu)
            motive = self.parse_type(amb)
            self._unbind(bname)
            self.expect("]")
            yname = self.expect_ident("a variable name")
            self.expect("=")
            scrut = self.parse_term(mu.mode_src)
            self.expect("in")
            self._bind(yname, compose_mod(mu, nu))
            branch = self.parse_term(amb)
            self._unbind(yname)
            return S.LetMod(mu, nu, motive, scrut, branch)
        if head == "if":
            self.expect("[")
            bname = self.expect_ident("a variable name")
            self.expect(".")
            self._bind(bname, id_mod(amb))
            motive = self.parse_type(amb)
            self._unbind(bname)
            self.expect("]")
            scrut = self.parse_term(amb)
            self.expect("then")
            tcase = self.parse_term(amb)
            self.expect("else")
            fcase = self.parse_term(amb)
            return S.If(motive, tcase, fcase, scrut)
        if head == "PiC":
            mod, name = self._binder(amb)
            self._guard_mode(mod, amb, at)
            self.expect(":")
            dom = self.parse_term(mod.mode_src)
            self.expect(")")
            self.expect("->")
            self._bind(name, mod)
            cod = self.parse_term(amb)
            self._unbind(name)
            return S.PiCode(mod, dom, cod)
        self.expect("(")  # SigC
        name = self.expect_ident("a variable name")
        self.expect(":")
        fst = self.parse_term(amb)
        self.expect(")")
        self.expect("*")
        self._bind(name, id_mod(amb))
        snd = self.parse_term(amb)
        self._unbind(name)
        return S.SigCode(fst, snd)

    # parse_app and parse_atom run once per token of a term, so they index
    # the padded token list by hand instead of calling accept and advance;
    # they step ``pos`` only past a token they have seen is not eof.

    def parse_app(self, amb: str) -> Term:
        out = self.parse_atom(amb)
        toks = self.toks
        while True:
            t = toks[self.pos]
            if t in _ATOM_START or (t not in _TERM_KEYWORDS and t[:1] in _NAME_START):
                out = S.App(out, self.parse_atom(amb))
            else:
                return out

    def parse_atom(self, amb: str) -> Term:
        toks = self.toks
        at = self.pos
        head = toks[at]
        out: Term
        if head not in _ATOM_START:
            if head in _TERM_KEYWORDS or head[:1] not in _NAME_START:
                raise self.fail(f"expected a term, found {head!r}")
            self.pos += 1
            bound = self.levels.get(head)
            if bound and toks[self.pos] != "^":  # a bound name with no key
                level = bound[-1]
                self.used[level] = True
                anns = self.anns
                out = S.Var(len(anns) - 1 - level, id_cell(anns[level]))
            else:
                out = self._name_ref(head, at, amb)
        else:
            self.pos += 1
            if head == "(":
                out = self.parse_term(amb)
                if self.accept(","):
                    out = S.Pair(out, self.parse_term(amb))
                self.expect(")")
            elif head == "true":
                out = _TRUE
            elif head == "false":
                out = _FALSE
            elif head == "BoolC":
                out = _BOOL_CODE
            elif head == "iso":
                out = S.DecIso(self.parse_atom(amb))
            elif head == "iso-inv":
                out = S.DecIsoInv(self.parse_atom(amb))
            else:  # box or ModC
                mod = self.parse_modexpr(amb)
                self._guard_mode(mod, amb, at)
                inner = self.parse_atom(mod.mode_src)
                out = S.MkBox(mod, inner) if head == "box" else S.ModCode(mod, inner)
        while toks[self.pos] == "." and toks[self.pos + 1].isdigit():
            proj = toks[self.pos + 1]
            self.pos += 2
            if proj == "1":
                out = S.Proj1(out)
            elif proj == "2":
                out = S.Proj2(out)
            else:
                raise self.fail(f"projections are .1 and .2, found .{proj}", self.pos - 1)
        return out

    def _name_ref(self, name: str, at: int, amb: str) -> Term:
        bound = self.levels.get(name)
        if bound:
            level = bound[-1]
            self.used[level] = True
            ann = self.anns[level]
            back = len(self.anns) - 1 - level
            if self.accept("^"):
                return S.Var(back, self.parse_cell(ann))
            return S.Var(back, id_cell(ann))
        if name in self.defs:
            if self.at("^"):
                raise self.fail(
                    f"cannot key the definition {name!r}: keys apply to variables", at
                )
            d = self.defs[name]
            if d.mode != amb:
                raise self.fail(
                    f"definition {name!r} lives at mode {d.mode}, used at mode {amb}", at
                )
            return S.Const(name)
        raise self.fail(f"unknown identifier {name!r}", at)

    # -- theory block

    def parse_theory(self) -> ModeTheory:
        at = self.pos
        self.expect("theory")
        name = self.toks[self.pos]
        if name[:1] in _NAME_START:
            try:
                mt = shipped_theory(name)
            except ModeError as e:
                raise self.fail(str(e)) from None
            self.pos += 1
            return mt
        self.expect("{")
        modes: list[str] = []
        mods: dict[str, tuple[str, str]] = {}
        cells: dict[str, tuple[Modality, Modality]] = {}
        rules: list[tuple[tuple, tuple]] = []
        kind = "free"
        items: dict[tuple, int] = {}  # what ``validate`` may blame -> its keyword
        while not self.accept("}"):
            item_at = self.pos
            item = self.expect_ident("a theory item")
            if item == "modes":
                while self.toks[self.pos][:1] in _NAME_START:
                    mode = self.toks[self.pos]
                    if mode in modes:
                        raise self.fail(f"duplicate mode {mode!r}")
                    modes.append(mode)
                    self.pos += 1
                    self.accept(",")
                self.expect(";")
            elif item == "mod":
                g = self._generator_name("modality", mods)
                self.expect(":")
                src = self.expect_ident("a mode name")
                self.expect("->")
                tgt = self.expect_ident("a mode name")
                mods[g] = (src, tgt)
                items["mod", g] = item_at
                self.expect(";")
            elif item == "cell":
                self.mt = ModeTheory("scratch", tuple(modes), mods, cells)
                g = self._generator_name("2-cell", cells)
                self.expect(":")
                src = self.parse_modexpr(None)
                self.expect("=>")
                tgt = self.parse_modexpr(None)
                cells[g] = (src, tgt)
                items["cell", g] = item_at
                self.expect(";")
            elif item == "rule":
                self.mt = ModeTheory("scratch", tuple(modes), mods, cells)
                lhs = self.parse_modexpr(None)
                self.expect("~>")
                rhs = self.parse_modexpr(None)
                items["rule", len(rules)] = item_at
                rules.append((lhs.word, rhs.word))
                self.expect(";")
            elif item == "decider":
                kind_at = self.pos
                kind = self.expect_ident("a decider kind (free or rewrite)")
                if kind not in ("free", "rewrite"):
                    raise self.fail(
                        f"unsupported decider {kind!r} in a file "
                        "(table deciders ship by name)",
                        kind_at,
                    )
                self.expect(";")
            else:
                raise self.fail(f"unknown theory item {item!r}", item_at)
        if kind == "free" and rules:
            raise self.fail(
                "word rules given but the decider is 'free'; say 'decider rewrite'", at
            )
        try:
            return validate(ModeTheory("file", tuple(modes), mods, cells, tuple(rules)))
        except TheoryItemError as e:
            raise self.fail(f"ill-formed mode theory: {e}", items[e.item]) from None

    def _generator_name(self, what: str, declared: dict) -> str:
        """The name a ``mod`` or ``cell`` item declares: neither one declared
        before nor ``id``, which always reads as an identity."""
        at = self.pos
        name = self.expect_ident(f"a {what} name")
        if name == "id":
            raise self.fail(f"'id' is the identity and cannot name a {what}", at)
        if name in declared:
            raise self.fail(f"duplicate {what} {name!r}", at)
        return name

    # -- declarations

    def parse_decl(self) -> Decl:
        at = self.pos
        self.expect("def")
        name = self.expect_ident("a definition name")
        if name in self.defs:
            raise self.fail(f"duplicate definition {name!r}", at + 1)
        self.expect("@")
        mode = self.parse_mode()
        self.expect(":")
        ty = self.parse_type(mode)
        self.expect(":=")
        body = self.parse_term(mode)
        self.accept(";")
        d = Decl(name, mode, ty, body, at, self.tokens)
        self.defs[name] = d
        return d


def parse_file(text: str, mt_override: "ModeTheory | None" = None):
    """Parse a source file into its mode theory and declaration list.

    The parser recurses once per level of nesting; input nested deeper than
    the interpreter's recursion limit allows is a ``ParseError`` at the
    token where the parser ran out of stack, not a crash.
    """
    p = Parser(tokenize(text), mt_override)  # a theory block reads no theory
    file_mt = p.parse_theory() if p.at("theory") else None
    p.mt = mt_override or file_mt or trivial()
    decls: list[Decl] = []
    try:
        while p.toks[p.pos]:
            decls.append(p.parse_decl())
    except RecursionError:
        raise p.fail("nested too deeply to parse") from None
    return p.mt, decls


# ---------------------------------------------------------------------------
# Commands


def _load(path: str, override_name: "str | None"):
    try:
        override = None if override_name is None else shipped_theory(override_name)
    except ModeError as e:
        print(e, file=sys.stderr)
        return None
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.read()
    except OSError as e:
        print(f"{path}: {e.strerror or e}", file=sys.stderr)
        return None
    # utf-8-sig drops one leading byte-order mark, as some editors write, and
    # CRLF and lone CR line ends read as LF, as text-mode ``open`` reads them
    try:
        text, utf8 = data.decode("utf-8-sig"), True
    except UnicodeDecodeError:
        text, utf8 = data.decode("utf-8-sig", "surrogateescape"), False
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not utf8:
        bad = re.search("[\udc80-\udcff]", text)  # a byte that did not decode
        before = text[: bad.start()].split("\n")
        print(f"{path}:{len(before)}:{len(before[-1]) + 1}: not UTF-8 text", file=sys.stderr)
        return None
    try:
        return parse_file(text, override)
    except ParseError as e:
        print(f"{path}:{e.line}:{e.col}: {e.msg}", file=sys.stderr)
        return None


def _out(line: "str | None" = None) -> None:
    """Write ``line`` and its newline to stdout in one call, or flush stdout
    when there is no line.

    When the reader has closed stdout, stdout is pointed at the null device
    (the SIGPIPE note in the docs of Python's ``signal`` module): the run
    goes on, diagnostics still reach stderr and the exit status is the
    run's own.
    """
    try:
        if line is None:
            sys.stdout.flush()
        else:
            sys.stdout.write(line + "\n")
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_core(decls) -> None:
    for d in decls:
        _out(f"core {d.name} : {S.show_term(d.ty)}")
        _out(f"core {d.name} = {S.show_term(d.body)}")


def _emit(path: str, mt: ModeTheory, decls, render, shown: slice = slice(None)) -> int:
    """Check ``decls``, then print ``render(result)``'s lines for each
    ``shown`` declaration that checked and a located diagnostic for each
    that did not.  Exit status 2 if the kernel failed on some declaration
    (the mode theory's decider refused a 2-cell question, it was nested too
    deeply for the interpreter's stack, or it raised an internal error)
    while checking it or reading back or printing its normal forms; else 1
    if some declaration failed; else 0.  The signature is emptied at the
    end: its bodies' environments point back at it, which would leave all of
    it as cyclic garbage."""
    report = C.check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    status = 0
    try:
        for d, r in zip(decls[shown], report.results[shown]):
            error, fatal = r.error, r.fatal
            if r.ok:
                try:
                    lines = render(r)
                except Exception as e:
                    error, fatal = C.diagnose(e, ())
                else:
                    for line in lines:
                        _out(line)
                    continue
            print(f"{path}:{d.line}:{d.col}: error: {r.name}: {error}", file=sys.stderr)
            status = max(status, 2 if fatal else 1)
    finally:
        report.signature.clear()
    return status


def cmd_check(path: str, override: "str | None" = None, print_core: bool = False) -> int:
    loaded = _load(path, override)
    if loaded is None:
        return 2
    mt, decls = loaded
    if print_core:
        _print_core(decls)
    return _emit(
        path, mt, decls, lambda r: [f"checked {r.name} : {surface_nfty(mt, r.ty_nf)}"]
    )


def cmd_normalize(
    path: str,
    name: "str | None" = None,
    override: "str | None" = None,
    print_core: bool = False,
) -> int:
    loaded = _load(path, override)
    if loaded is None:
        return 2
    mt, decls = loaded
    if print_core:
        _print_core(decls)
    shown = slice(None)
    if name is not None:
        at = next((i for i, d in enumerate(decls) if d.name == name), None)
        if at is None:
            print(f"{path}: no declaration named {name!r}", file=sys.stderr)
            return 1
        # The declarations before NAME are checked for the signature only.
        decls, shown = decls[: at + 1], slice(at, None)
    return _emit(
        path,
        mt,
        decls,
        lambda r: [
            f"{r.name} : {surface_nfty(mt, r.ty_nf)}",
            f"{r.name} = {surface_nf(mt, r.body_nf)}",
        ],
        shown,
    )


@cache
def _arg_parser() -> "argparse.ArgumentParser":
    """The command-line grammar, built on first use and shared by every later
    ``main`` call in the process (parsing leaves no state on it).  Only a
    command line that is not plain (``_plain_command``) loads ``argparse``."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="mtt", description="Check and normalize .mtt files."
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in ("check", "normalize"):
        p = sub.add_parser(cmd)
        p.add_argument("file")
        if cmd == "normalize":
            p.add_argument("name", nargs="?", default=None)
        p.add_argument(
            "--mode-theory",
            default=None,
            help="use a shipped mode theory instead of the file's block",
        )
        p.add_argument(
            "--print-core",
            action="store_true",
            help="dump the elaborated core terms before checking",
        )
    return ap


def _plain_command(argv: "list[str]") -> "tuple[str, str, str | None] | None":
    """``(command, file, name)`` for a plain ``check FILE`` or ``normalize
    FILE [NAME]``, in which no argument starts with ``-``: ``_arg_parser``
    parses such a line to the same, with no option set.  None for any other
    command line."""
    if any(a[:1] == "-" for a in argv):
        return None
    if len(argv) == 2 and argv[0] == "check" or len(argv) in (2, 3) and argv[0] == "normalize":
        return argv[0], argv[1], argv[2] if len(argv) == 3 else None
    return None


def main(argv: "list[str] | None" = None) -> int:
    """Run one command, ``argv`` by default ``sys.argv[1:]``.  A plain
    command line runs without ``argparse``; every other one (an option,
    ``-h``, a usage error) goes through ``_arg_parser``, so help texts and
    usage errors are argparse's own."""
    if argv is None:
        argv = sys.argv[1:]
    plain = _plain_command(argv)
    if plain is None:
        args = _arg_parser().parse_args(argv)
        command, path, name = args.command, args.file, getattr(args, "name", None)
        override, print_core = args.mode_theory, args.print_core
    else:
        (command, path, name), override, print_core = plain, None, False
    if command == "check":
        status = cmd_check(path, override, print_core)
    else:
        status = cmd_normalize(path, name, override, print_core)
    _out()  # a closed stdout surfaces here at the latest, not at exit
    return status


if __name__ == "__main__":
    sys.exit(main())
