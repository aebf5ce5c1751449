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

Identity modalities written bare (``id``) resolve at the lexically
enclosing mode; ``id(m)`` names a mode explicitly.  Exit codes: 0 success,
1 type error, 2 parse error or a declaration nested too deeply for the
interpreter's stack.  Diagnostics go to stderr; all stdout output
is a deterministic function of the input.  Normal forms print through
``normal.surface_nf``/``surface_nfty``, whose output parses again; a
closed stdout discards the rest of the output and changes neither the
diagnostics nor the exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache, partial
from typing import NamedTuple

from .record import record
from . import check as C
from . import syntax as S
from .modeth import (
    THEORIES,
    Cell2,
    CellExpr,
    CellGen,
    CellVComp,
    CellWhiskL,
    CellWhiskR,
    ModeError,
    ModeTheory,
    Modality,
    RewriteDecider,
    FreeDecider,
    TheoryItemError,
    cell_boundary,
    compose_mod,
    id_cell,
    id_mod,
    trivial,
    validate,
)
# All three are bound here: ``bench/tracer.py`` times them as ``cli:surface_*``.
from .normal import surface_ne, surface_nf, surface_nfty  # noqa: F401
from .syntax import Term


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(msg)
        self.msg = msg
        self.line = line
        self.col = col


SHIPPED = THEORIES  # the shipped mode theories, by name


# ---------------------------------------------------------------------------
# Tokens


class Token(NamedTuple):
    kind: str  # "ident", "num", "op", "eof"
    text: str
    line: int
    col: int


# One match per token: the whitespace and comments before it (group 1), then
# the token.  The skip must not backtrack: a token that fails to match after
# a comment would otherwise shorten the comment and match inside it.  The
# lookahead captures the longest skip and ``\1`` consumes exactly that, the
# spelling of a possessive ``(?:...)*+`` that Python 3.10 accepts.
_TOKEN_RE = re.compile(
    r"""
    (?=((?:\s+|--[^\n]*)*))\1
    (?:
      (?P<op>:=|->|=>|~>|[(){}\[\]|,;:.*\\^<>@=])
    | (?P<num>[0-9]+)
    | (?P<ident>iso-inv|[A-Za-z_][A-Za-z0-9_']*)
    )?
    """,
    re.VERBOSE,
)

# Token(...) without the Python frame of the generated ``Token.__new__``.
_token = partial(tuple.__new__, Token)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending in one ``eof`` token.

    No token or comment spans a newline, so each line is matched on its
    own: one match per token, and one for the end of the line.
    """
    out: list[Token] = []
    for line, chunk in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(chunk):
            kind = m.lastgroup
            start = m.end(1)
            if kind is None:  # the end of the line, or no token starts here
                if start < len(chunk):
                    raise ParseError(f"unexpected character {chunk[start]!r}", line, start + 1)
                break
            out.append(_token((kind, chunk[start : m.end()], line, start + 1)))
    out.append(Token("eof", "", line, len(chunk) + 1))
    return out


# ---------------------------------------------------------------------------
# Parser


@record
class Decl:
    name: str
    mode: str
    ty: Term
    body: Term
    line: int
    col: int


_TERM_KEYWORDS = {
    "true",
    "false",
    "box",
    "letbox",
    "if",
    "then",
    "else",
    "in",
    "iso",
    "iso-inv",
    "PiC",
    "SigC",
    "BoolC",
    "ModC",
    "Pi",
    "Sig",
    "Bool",
    "Uni",
    "Mod",
    "dec",
    "def",
    "theory",
    "id",
}

# The tokens each form of the grammar can start with.
_TYPE_START = {"Pi", "Sig", "Bool", "Uni", "Mod", "dec", "("}
_BINDER_TERMS = {"\\", "letbox", "if", "PiC", "SigC"}
_ATOM_START = {"true", "false", "box", "iso", "iso-inv", "BoolC", "ModC", "("}


class Parser:
    def __init__(self, toks: list[Token], mt: ModeTheory):
        self.toks = toks + toks[-1:]  # a second eof, so peek(1) needs no bounds check
        self.pos = 0
        self.mt = mt
        self.defs: dict[str, Decl] = {}

    # -- token plumbing; only eof has empty text, and ``pos`` never passes it

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.toks[self.pos]
        if t.text != text:
            got = t.text if t.kind != "eof" else "end of input"
            raise ParseError(f"expected {text!r}, found {got!r}", t.line, t.col)
        self.pos += 1
        return t

    def expect_ident(self, what: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != "ident":
            got = t.text if t.kind != "eof" else "end of input"
            raise ParseError(f"expected {what}, found {got!r}", t.line, t.col)
        self.pos += 1
        return t

    def fail(self, msg: str) -> "ParseError":
        t = self.toks[self.pos]
        return ParseError(msg, t.line, t.col)

    # -- modalities

    def parse_mode(self) -> str:
        t = self.expect_ident("a mode name")
        if t.text not in self.mt.modes:
            raise ParseError(f"unknown mode {t.text!r}", t.line, t.col)
        return t.text

    def parse_modexpr(self, amb: "str | None") -> Modality:
        """A modality: ``id``, ``id(m)``, or generator names dotted in
        composition order (last applied leftmost)."""
        t = self.peek()
        if t.text == "id":
            self.advance()
            if self.accept("("):
                mode = self.parse_mode()
                self.expect(")")
                return id_mod(mode)
            if amb is None:
                raise ParseError("bare 'id' needs a mode here: write id(<mode>)", t.line, t.col)
            return id_mod(amb)
        names = [self.expect_ident("a modality name").text]
        while self.peek().text == "." and self.peek(1).kind == "ident" and self.peek(1).text in self.mt.modality_gens:
            self.advance()
            names.append(self.advance().text)
        word = tuple(reversed(names))  # application order
        cur: "str | None" = None
        for g in word:
            if g not in self.mt.modality_gens:
                raise ParseError(f"unknown modality {g!r}", t.line, t.col)
            src, tgt = self.mt.modality_gens[g]
            if cur is not None and src != cur:
                raise ParseError(
                    f"modality word does not compose: {g!r} starts at {src}, "
                    f"previous part ended at {cur}",
                    t.line,
                    t.col,
                )
            if cur is None:
                start = src
            cur = tgt
        return Modality(start, cur, word)

    def _one_gen(self, name: str, tok: Token) -> Modality:
        if name not in self.mt.modality_gens:
            raise ParseError(f"unknown modality {name!r}", tok.line, tok.col)
        src, tgt = self.mt.modality_gens[name]
        return Modality(src, tgt, (name,))

    # -- 2-cells (after ^)

    def parse_cell(self, ann: Modality) -> Cell2:
        """grammar: cell := part ('.' part)* ; part := NAME '<' part
        | unit ('>' NAME)* ; unit := '(' cell ')' | NAME | 'id'."""
        t = self.peek()
        expr = self._cell_expr()
        if isinstance(expr, str):  # the whole cell is the bare identity
            return id_cell(ann)
        try:
            src, tgt = cell_boundary(self.mt, expr)
        except ModeError as e:
            raise ParseError(f"ill-formed 2-cell: {e}", t.line, t.col) from None
        return Cell2(src, tgt, expr)

    def _cell_expr(self) -> "CellExpr | str":
        first = self._cell_part()
        if isinstance(first, str):
            if self.at("."):
                raise self.fail("bare 'id' cannot appear inside a composite cell")
            return first
        out = first
        while self.accept("."):
            nxt = self._cell_part()
            if isinstance(nxt, str):
                raise self.fail("bare 'id' cannot appear inside a composite cell")
            out = CellVComp(out, nxt)  # left side applied later
        return out

    def _cell_part(self) -> "CellExpr | str":
        t = self.peek()
        if t.kind == "ident" and t.text != "id" and self.peek(1).text == "<":
            self.advance()
            self.advance()
            inner = self._cell_part()
            if isinstance(inner, str):
                raise self.fail("bare 'id' cannot appear inside a composite cell")
            return CellWhiskL(self._one_gen(t.text, t), inner)
        base = self._cell_unit()
        while self.at(">"):
            if isinstance(base, str):
                raise self.fail("bare 'id' cannot appear inside a composite cell")
            self.advance()
            g = self.expect_ident("a modality name")
            base = CellWhiskR(base, self._one_gen(g.text, g))
        return base

    def _cell_unit(self) -> "CellExpr | str":
        t = self.peek()
        if self.accept("("):
            inner = self._cell_expr()
            self.expect(")")
            if isinstance(inner, str):
                raise self.fail("bare 'id' cannot appear inside a composite cell")
            return inner
        if t.text == "id":
            self.advance()
            return "id"
        name = self.expect_ident("a 2-cell name").text
        if name not in self.mt.cell_gens:
            raise ParseError(f"unknown 2-cell {name!r}", t.line, t.col)
        return CellGen(name)

    # -- binders

    def _binder(self, amb: str) -> "tuple[Modality, str]":
        """``( mod | x`` or ``( x``, from the opening paren inclusive.  A
        modality is tried only when the token after the first one can
        continue it (``|``, ``.`` or ``(``); if it then fails to parse, or
        no ``|`` follows it, the binder is a plain one."""
        self.expect("(")
        if self.peek(1).text in ("|", ".", "("):
            save = self.pos
            try:
                mod = self.parse_modexpr(amb)
                self.expect("|")
                return mod, self.expect_ident("a variable name").text
            except ParseError:
                self.pos = save
        return id_mod(amb), self.expect_ident("a variable name").text

    def _guard_mode(self, mod: Modality, amb: str, tok: Token) -> None:
        if mod.mode_tgt != amb:
            raise ParseError(
                f"modality {mod} lands in mode {mod.mode_tgt}, "
                f"but the ambient mode is {amb}",
                tok.line,
                tok.col,
            )

    # -- types and terms: each form is chosen by its first token's text

    def parse_type(self, amb: str, scope: list) -> Term:
        t = self.peek()
        head = t.text
        if head not in _TYPE_START:
            raise self.fail(f"expected a type, found {head!r}")
        self.advance()
        if head == "Pi":
            mod, name = self._binder(amb)
            self._guard_mode(mod, amb, t)
            self.expect(":")
            dom = self.parse_type(mod.mode_src, scope)
            self.expect(")")
            self.expect("->")
            cod = self.parse_type(amb, scope + [(name, mod)])
            return S.Pi(mod, dom, cod)
        if head == "Bool":
            return S.Bool()
        if head == "Sig":
            self.expect("(")
            name = self.expect_ident("a variable name").text
            self.expect(":")
            fst = self.parse_type(amb, scope)
            self.expect(")")
            self.expect("*")
            snd = self.parse_type(amb, scope + [(name, id_mod(amb))])
            return S.Sig(fst, snd)
        if head == "Uni":
            return S.Uni()
        if head == "Mod":
            mod = self.parse_modexpr(amb)
            self._guard_mode(mod, amb, t)
            return S.Mod(mod, self.parse_type(mod.mode_src, scope))
        if head == "dec":
            return S.Dec(self.parse_atom(amb, scope))
        inner = self.parse_type(amb, scope)  # after "("
        self.expect(")")
        return inner

    def parse_term(self, amb: str, scope: list) -> Term:
        t = self.peek()
        head = t.text
        if head not in _BINDER_TERMS:
            return self.parse_app(amb, scope)
        self.advance()
        if head == "\\":
            if self.at("("):
                mod, name = self._binder(amb)
                self._guard_mode(mod, amb, t)
                self.expect(")")
            else:
                mod = id_mod(amb)
                name = self.expect_ident("a variable name").text
            self.expect("->")
            return S.Lam(self.parse_term(amb, scope + [(name, mod)]))
        if head == "letbox":
            self.expect("(")
            mu = self.parse_modexpr(amb)
            self._guard_mode(mu, amb, t)
            self.expect("|")
            nu = self.parse_modexpr(mu.mode_src)
            if nu.mode_tgt != mu.mode_src:
                raise ParseError(
                    f"eliminated modality {nu} lands in mode {nu.mode_tgt}, "
                    f"but the lock opens mode {mu.mode_src}",
                    t.line,
                    t.col,
                )
            self.expect(")")
            self.expect("[")
            bname = self.expect_ident("a variable name").text
            self.expect(".")
            motive = self.parse_type(amb, scope + [(bname, mu)])
            self.expect("]")
            yname = self.expect_ident("a variable name").text
            self.expect("=")
            scrut = self.parse_term(mu.mode_src, scope)
            self.expect("in")
            branch = self.parse_term(amb, scope + [(yname, compose_mod(mu, nu))])
            return S.LetMod(mu, nu, motive, scrut, branch)
        if head == "if":
            self.expect("[")
            bname = self.expect_ident("a variable name").text
            self.expect(".")
            motive = self.parse_type(amb, scope + [(bname, id_mod(amb))])
            self.expect("]")
            scrut = self.parse_term(amb, scope)
            self.expect("then")
            tcase = self.parse_term(amb, scope)
            self.expect("else")
            fcase = self.parse_term(amb, scope)
            return S.If(motive, tcase, fcase, scrut)
        if head == "PiC":
            mod, name = self._binder(amb)
            self._guard_mode(mod, amb, t)
            self.expect(":")
            dom = self.parse_term(mod.mode_src, scope)
            self.expect(")")
            self.expect("->")
            cod = self.parse_term(amb, scope + [(name, mod)])
            return S.PiCode(mod, dom, cod)
        self.expect("(")  # SigC
        name = self.expect_ident("a variable name").text
        self.expect(":")
        fst = self.parse_term(amb, scope)
        self.expect(")")
        self.expect("*")
        snd = self.parse_term(amb, scope + [(name, id_mod(amb))])
        return S.SigCode(fst, snd)

    # parse_app and parse_atom run once per token of a term, so they index
    # the padded token list by hand instead of calling peek and advance;
    # they step ``pos`` only past a token they have seen is not eof.

    def parse_app(self, amb: str, scope: list) -> Term:
        out = self.parse_atom(amb, scope)
        toks = self.toks
        while True:
            t = toks[self.pos]
            if t.text in _ATOM_START or (t.kind == "ident" and t.text not in _TERM_KEYWORDS):
                out = S.App(out, self.parse_atom(amb, scope))
            else:
                return out

    def parse_atom(self, amb: str, scope: list) -> Term:
        toks = self.toks
        t = toks[self.pos]
        head = t.text
        out: Term
        if t.kind == "ident" and head not in _TERM_KEYWORDS:
            self.pos += 1
            out = self._name_ref(t, amb, scope)
        elif head not in _ATOM_START:
            raise self.fail(f"expected a term, found {head!r}")
        else:
            self.pos += 1
            if head == "(":
                out = self.parse_term(amb, scope)
                if self.accept(","):
                    out = S.Pair(out, self.parse_term(amb, scope))
                self.expect(")")
            elif head == "true":
                out = S.True_()
            elif head == "false":
                out = S.False_()
            elif head == "BoolC":
                out = S.BoolCode()
            elif head == "iso":
                out = S.DecIso(self.parse_atom(amb, scope))
            elif head == "iso-inv":
                out = S.DecIsoInv(self.parse_atom(amb, scope))
            else:  # box or ModC
                mod = self.parse_modexpr(amb)
                self._guard_mode(mod, amb, t)
                inner = self.parse_atom(mod.mode_src, scope)
                out = S.MkBox(mod, inner) if head == "box" else S.ModCode(mod, inner)
        while toks[self.pos].text == "." and toks[self.pos + 1].kind == "num":
            proj = toks[self.pos + 1]
            self.pos += 2
            if proj.text == "1":
                out = S.Proj1(out)
            elif proj.text == "2":
                out = S.Proj2(out)
            else:
                raise ParseError(
                    f"projections are .1 and .2, found .{proj.text}",
                    proj.line,
                    proj.col,
                )
        return out

    def _name_ref(self, t: Token, amb: str, scope: list) -> Term:
        for back, (name, ann) in enumerate(reversed(scope)):
            if name == t.text:
                if self.accept("^"):
                    return S.Var(back, self.parse_cell(ann))
                return S.Var(back, id_cell(ann))
        if t.text in self.defs:
            if self.at("^"):
                raise ParseError(
                    f"cannot key the definition {t.text!r}: keys apply to variables",
                    t.line,
                    t.col,
                )
            d = self.defs[t.text]
            if d.mode != amb:
                raise ParseError(
                    f"definition {t.text!r} lives at mode {d.mode}, "
                    f"used at mode {amb}",
                    t.line,
                    t.col,
                )
            return S.Const(t.text)
        raise ParseError(f"unknown identifier {t.text!r}", t.line, t.col)

    # -- theory block

    def parse_theory(self) -> ModeTheory:
        t = self.expect("theory")
        if self.peek().kind == "ident" and self.peek().text != "{":
            name = self.advance()
            if name.text not in SHIPPED:
                raise ParseError(
                    f"unknown mode theory {name.text!r} "
                    f"(shipped: {', '.join(sorted(SHIPPED))})",
                    name.line,
                    name.col,
                )
            return SHIPPED[name.text]()
        self.expect("{")
        modes: list[str] = []
        mods: dict[str, tuple[str, str]] = {}
        cells: dict[str, tuple[Modality, Modality]] = {}
        rules: list[tuple[tuple, tuple]] = []
        kind = "free"
        items: dict[tuple, Token] = {}  # what ``validate`` may blame -> its keyword
        while not self.accept("}"):
            item = self.expect_ident("a theory item")
            if item.text == "modes":
                while self.peek().kind == "ident":
                    modes.append(self.advance().text)
                    self.accept(",")
                self.expect(";")
            elif item.text == "mod":
                g = self.expect_ident("a modality name").text
                self.expect(":")
                src = self.expect_ident("a mode name").text
                self.expect("->")
                tgt = self.expect_ident("a mode name").text
                mods[g] = (src, tgt)
                items["mod", g] = item
                self.expect(";")
            elif item.text == "cell":
                self.mt = ModeTheory("scratch", tuple(modes), mods, cells, FreeDecider())
                g = self.expect_ident("a 2-cell name").text
                self.expect(":")
                src = self.parse_modexpr(None)
                self.expect("=>")
                tgt = self.parse_modexpr(None)
                cells[g] = (src, tgt)
                items["cell", g] = item
                self.expect(";")
            elif item.text == "rule":
                self.mt = ModeTheory("scratch", tuple(modes), mods, cells, FreeDecider())
                lhs = self.parse_modexpr(None)
                self.expect("~>")
                rhs = self.parse_modexpr(None)
                items["rule", len(rules)] = item
                rules.append((lhs.word, rhs.word))
                self.expect(";")
            elif item.text == "decider":
                k = self.expect_ident("a decider kind (free or rewrite)")
                if k.text not in ("free", "rewrite"):
                    raise ParseError(
                        f"unsupported decider {k.text!r} in a file "
                        "(table deciders ship by name)",
                        k.line,
                        k.col,
                    )
                kind = k.text
                self.expect(";")
            else:
                raise ParseError(
                    f"unknown theory item {item.text!r}", item.line, item.col
                )
        decider = RewriteDecider(tuple(rules)) if kind == "rewrite" else FreeDecider()
        if kind == "free" and rules:
            raise ParseError(
                "word rules given but the decider is 'free'; say 'decider rewrite'",
                t.line,
                t.col,
            )
        try:
            return validate(ModeTheory("file", tuple(modes), mods, cells, decider))
        except TheoryItemError as e:
            at = items[e.item]
            raise ParseError(f"ill-formed mode theory: {e}", at.line, at.col) from None

    # -- declarations

    def parse_decl(self) -> Decl:
        t = self.expect("def")
        name = self.expect_ident("a definition name")
        if name.text in self.defs:
            raise ParseError(f"duplicate definition {name.text!r}", name.line, name.col)
        self.expect("@")
        mode = self.parse_mode()
        self.expect(":")
        ty = self.parse_type(mode, [])
        self.expect(":=")
        body = self.parse_term(mode, [])
        self.accept(";")
        d = Decl(name.text, mode, ty, body, t.line, t.col)
        self.defs[name.text] = d
        return d


def parse_file(text: str, mt_override: "ModeTheory | None" = None):
    """Parse a source file into its mode theory and declaration list.

    The parser recurses once per level of nesting; input nested deeper than
    the interpreter's recursion limit allows is a ``ParseError`` at the
    token where the parser ran out of stack, not a crash.
    """
    toks = tokenize(text)
    bootstrap = mt_override if mt_override is not None else trivial()
    p = Parser(toks, bootstrap)
    if p.at("theory"):
        file_mt = p.parse_theory()
        if mt_override is None:
            p.mt = file_mt
        else:
            p.mt = mt_override
    decls: list[Decl] = []
    try:
        while p.peek().kind != "eof":
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


def _emit(path: str, decls, results, render) -> int:
    """Print ``render(result)``'s lines for each declaration that checked and
    a located diagnostic for each that did not.  Exit status 2 if the
    kernel failed on some declaration (it was nested too deeply for the
    interpreter's stack, or raised an internal error) while checking it or
    reading back or printing its normal forms; else 1 if some declaration
    failed; else 0."""
    status = 0
    for d, r in zip(decls, results):
        error, fatal = r.error, r.fatal
        if r.ok:
            try:
                lines = render(r)
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
    return status


def cmd_check(path: str, override: "str | None" = None, print_core: bool = False) -> int:
    loaded = _load(path, override)
    if loaded is None:
        return 2
    mt, decls = loaded
    if print_core:
        _print_core(decls)
    report = C.check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    return _emit(
        path,
        decls,
        report.results,
        lambda r: [f"checked {r.name} : {surface_nfty(mt, r.ty_nf, r.mode)}"],
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
    report = C.check_program(mt, [(d.name, d.mode, d.ty, d.body) for d in decls])
    return _emit(
        path,
        decls[shown],
        report.results[shown],
        lambda r: [
            f"{r.name} : {surface_nfty(mt, r.ty_nf, r.mode)}",
            f"{r.name} = {surface_nf(mt, r.body_nf, r.mode)}",
        ],
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
