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

Lexing is one ``findall`` per file, which yields the token texts; the
parser reads those strings and raises each diagnostic at a token index.
Where tokens start is found, once per file, only when a diagnostic or
``Decl.line``/``col`` asks for a place.

Identity modalities written bare (``id``) resolve at the lexically
enclosing mode; ``id(m)`` names a mode explicitly.  Exit codes: 0 success,
1 type error, 2 parse error, a declaration nested too deeply for the
interpreter's stack, or a 2-cell question the mode theory's decider
refuses.  Diagnostics go to stderr; all stdout output is a deterministic
function of the input.  Normal forms print through
``normal.surface_nf``/``surface_nfty``, whose output parses again; a
closed stdout discards the rest of the output and changes neither the
diagnostics nor the exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache
from itertools import islice
from typing import NamedTuple

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
    Undecided,
    compose_mod,
    gen_cell,
    id_cell,
    id_mod,
    trivial,
    validate,
    vcomp,
    whisker_left,
    whisker_right,
)
# All three are bound here: ``bench/tracer.py`` times them as ``cli:surface_*``.
from .normal import surface_ne, surface_nf, surface_nfty  # noqa: F401
from .syntax import Term


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


SHIPPED = THEORIES  # the shipped mode theories, by name


# ---------------------------------------------------------------------------
# Tokens


class Token(NamedTuple):
    kind: str  # "ident", "num", "op", "eof"
    text: str
    line: int
    col: int


# One match per token: the whitespace and comments before it, then the token,
# ``.`` for any single character (an operator, or a stray one that
# ``tokenize`` rejects), or the empty string at the end of the text.  After
# the greedy skip some character or the end always matches, so the skip never
# backtracks into a comment.
_TOKEN_RE = re.compile(
    r"(?:\s+|--[^\n]*)*(:=|->|=>|~>|iso-inv|[A-Za-z_][A-Za-z0-9_']*|[0-9]+|.|\Z)"
)
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
        self._scan = _TOKEN_RE.finditer(source)  # lazy: matches nothing yet

    def token(self, i: int) -> Token:
        """Token ``i`` with its kind, line and column.  Lines end at ``\\n``
        only; eof sits just past the last line.  Where tokens start is found
        by a second pass over the text, which goes only as far as token
        ``i`` and resumes there when a later token is asked for."""
        starts = self._starts
        if i >= len(starts):
            starts += [m.start(1) for m in islice(self._scan, i + 1 - len(starts))]
        start, text, src = starts[i], self[i], self.source
        bol = src.rfind("\n", 0, start) + 1
        return Token(_kind(text), text, src.count("\n", 0, bol) + 1, start - bol + 1)


def tokenize(text: str) -> Tokens:
    """The token texts of ``text`` from one ``findall``, ending in ``""``.

    A stray character anywhere in the text is a ``ParseError`` at the first
    one.  Positions are not computed here: ``Tokens.token`` finds them
    when a diagnostic or ``Parser.peek`` asks.
    """
    toks = Tokens(_TOKEN_RE.findall(text), text)
    if len(toks) > 1 and not toks[-2]:
        del toks[-1]  # trailing space: eof matched after it and again at the end
    stray = [t for t in set(toks) if len(t) == 1 and t not in _ONE_CHAR]
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
        names = [self.expect_ident("a modality name")]
        toks, gens = self.toks, self.mt.modality_gens
        while toks[self.pos] == "." and toks[self.pos + 1] in gens:
            names.append(toks[self.pos + 1])
            self.pos += 2
        word = tuple(reversed(names))  # application order
        cur: "str | None" = None
        for g in word:
            if g not in gens:
                raise self.fail(f"unknown modality {g!r}", at)
            src, tgt = gens[g]
            if cur is not None and src != cur:
                raise self.fail(
                    f"modality word does not compose: {g!r} starts at {src}, "
                    f"previous part ended at {cur}",
                    at,
                )
            if cur is None:
                start = src
            cur = tgt
        if toks[self.pos] == "." and toks[self.pos + 1][:1] in _NAME_START:
            # only a generator could continue the word here
            raise self.fail(f"unknown modality {toks[self.pos + 1]!r}", self.pos + 1)
        return Modality(start, cur, word)

    def _one_gen(self, name: str, at: int) -> Modality:
        if name not in self.mt.modality_gens:
            raise self.fail(f"unknown modality {name!r}", at)
        src, tgt = self.mt.modality_gens[name]
        return Modality(src, tgt, (name,))

    # -- 2-cells (after ^)

    def parse_cell(self, ann: Modality) -> Cell2:
        """grammar: cell := part ('.' part)* ; part := NAME '<' part
        | unit ('>' NAME)* ; unit := '(' cell ')' | NAME | 'id'.  The cell
        is built through ``modeth``'s constructors, which check its
        boundaries as they go."""
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
        at = self.pos
        t = self.toks[at]
        if t[:1] in _NAME_START and t != "id" and self.toks[at + 1] == "<":
            self.pos += 2
            inner = self._no_id(self._cell_part())
            return whisker_left(self._one_gen(t, at), inner)
        base = self._cell_unit()
        while self.at(">"):
            base = self._no_id(base)
            self.pos += 1
            at = self.pos
            base = whisker_right(base, self._one_gen(self.expect_ident("a modality name"), at))
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
        anns, levels = self.anns, self.levels
        if name in levels:
            levels[name].append(len(anns))
        else:
            levels[name] = [len(anns)]
        anns.append(mod)
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
            mod, name = self._binder(amb)
            self._guard_mode(mod, amb, at)
            self.expect(":")
            dom = self.parse_type(mod.mode_src)
            self.expect(")")
            self.expect("->")
            self._bind(name, mod)
            cod = self.parse_type(amb)
            return S.Pi(mod, dom, cod, self._unbind(name))
        if head == "Bool":
            return S.Bool()
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
            return S.Uni()
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
            if self.at("("):
                mod, name = self._binder(amb)
                self._guard_mode(mod, amb, at)
                self.expect(")")
            else:
                mod, name = id_mod(amb), self.expect_ident("a variable name")
            self.expect("->")
            self._bind(name, mod)
            body = self.parse_term(amb)
            self._unbind(name)
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
            out = self._name_ref(head, at, amb)
        else:
            self.pos += 1
            if head == "(":
                out = self.parse_term(amb)
                if self.accept(","):
                    out = S.Pair(out, self.parse_term(amb))
                self.expect(")")
            elif head == "true":
                out = S.True_()
            elif head == "false":
                out = S.False_()
            elif head == "BoolC":
                out = S.BoolCode()
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
            if name not in SHIPPED:
                raise self.fail(
                    f"unknown mode theory {name!r} "
                    f"(shipped: {', '.join(sorted(SHIPPED))})"
                )
            self.pos += 1
            return SHIPPED[name]()
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
    if override_name is not None and override_name not in SHIPPED:
        print(
            f"unknown mode theory {override_name!r} "
            f"(shipped: {', '.join(sorted(SHIPPED))})",
            file=sys.stderr,
        )
        return None
    try:
        # utf-8-sig drops one leading byte-order mark, as some editors write
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
            text = f.read()
    except OSError as e:
        print(f"{path}: {e.strerror or e}", file=sys.stderr)
        return None
    bad = re.search("[\udc80-\udcff]", text)  # a byte that did not decode
    if bad:
        before = text[: bad.start()].split("\n")
        print(f"{path}:{len(before)}:{len(before[-1]) + 1}: not UTF-8 text", file=sys.stderr)
        return None
    override = SHIPPED[override_name]() if override_name else None
    try:
        return parse_file(text, override)
    except ParseError as e:
        print(f"{path}:{e.line}:{e.col}: {e.msg}", file=sys.stderr)
        return None


def _out(line: "str | None" = None) -> None:
    """Print ``line`` to stdout, or flush stdout when there is none.

    When the reader has closed stdout, stdout is pointed at the null device
    (the SIGPIPE note in the docs of Python's ``signal`` module): the run
    goes on, diagnostics still reach stderr and the exit status is the
    run's own.
    """
    try:
        if line is None:
            sys.stdout.flush()
        else:
            print(line)
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
                except Undecided as e:
                    error, fatal = str(e), True
                except RecursionError:
                    error, fatal = C.TOO_DEEP, True
                except Exception as e:
                    error, fatal = C.internal_error(e), True
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
def _arg_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built on first use and shared by every later
    ``main`` call in the process (parsing leaves no state on it)."""
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


def main(argv: "list[str] | None" = None) -> int:
    args = _arg_parser().parse_args(argv)
    if args.command == "check":
        status = cmd_check(args.file, args.mode_theory, args.print_core)
    else:
        status = cmd_normalize(args.file, args.name, args.mode_theory, args.print_core)
    _out()  # a closed stdout surfaces here at the latest, not at exit
    return status


if __name__ == "__main__":
    sys.exit(main())
