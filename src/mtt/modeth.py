"""Mode theories: finitely presented strict 2-categories with total equality.

A mode theory has a finite set of modes (objects), named modality generators
(1-cells between modes), named cell generators (2-cells between parallel
modality words), and two facts that decide equality:

- ``rules``: a word rewrite system on 1-cells, empty for a free theory.
  ``validate`` makes every rule shrink its word in shortlex order, so
  rewriting terminates, and every critical pair of the rules joins, so it is
  confluent; words are equal iff their normal forms are.
- ``table``: for theories with finitely many cells, a ``CellTable`` that
  names every whiskered generator layer and folds vertical composites.
  Without one, 2-cells compare by the layered interchange normal form (see
  ``left_normal``), with whisker words rewritten only for the comparison.

A 2-cell is stored as those layers (``Cell2.layers``), which its
constructors build and check once; the decider, ``cell_check`` and the
printer (``str``) read them as they stand.  A modality is a word of
generators: ``word_mod`` is the one reader of such words, a key's whisker
runs included, and ``str`` the one printer, in the syntax the parser reads.

Everything here is immutable and pure.  ``id_mod`` returns one
``Modality`` per mode and ``id_cell`` one ``Cell2`` per modality, so the
checker's usual question, whether an identity equals an identity, is
asked about one object twice, and ``eq_mod`` answers it by identity before
comparing words.  Sharing them is sound: they are built from strings
alone, never change, and compare structurally, so a shared value equals
any freshly built copy.  The two caches hold one entry per mode or
modality that a process has asked about, whatever theory it came from.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache
from typing import Mapping

from .record import record

Word = tuple[str, ...]


class ModeError(Exception):
    """Raised for mode mismatches and malformed presentations."""


class Undecided(ModeError):
    """The decider gave up on a question it cannot settle: a refusal, which
    ``check_program`` reports as fatal, not a verdict of "unequal"."""


class TheoryItemError(ModeError):
    """``validate``'s complaint about one item of a presentation; ``item`` is
    ``("mod", name)``, ``("cell", name)`` or ``("rule", index)``."""

    def __init__(self, msg: str, item: tuple):
        super().__init__(msg)
        self.item = item


# ---------------------------------------------------------------------------
# 1-cells


@record
class Modality:
    """A 1-cell: a word of generator names in application order.

    ``word[0]`` is applied first; the empty word is the identity on a mode.
    """

    mode_src: str
    mode_tgt: str
    word: Word = ()

    def __str__(self) -> str:
        if not self.word:
            return f"id({self.mode_src})"
        # display in composition order (last applied leftmost)
        return ".".join(reversed(self.word))


@cache
def id_mod(mode: str) -> Modality:
    return Modality(mode, mode, ())


def word_mod(mt: "ModeTheory", word: Word, start: "str | None" = None) -> Modality:
    """The modality ``word`` (in application order) names: each generator
    starts where the one before ends, the first at ``start`` if given, and
    then the empty word is the identity there.  An unknown name, the first
    applied, is reported before a part that does not compose."""
    gens, at = mt.modality_gens, start
    for g in word:
        if g not in gens:
            raise ModeError(f"unknown modality {g!r}")
    for g in word:
        src, tgt = gens[g]
        if at is None:
            start = src
        elif src != at:
            raise ModeError(
                f"modality word does not compose: {g!r} starts at {src}, "
                f"previous part ended at {at}"
            )
        at = tgt
    if at is None:
        raise ModeError("an empty modality word needs a start mode")
    return Modality(start, at, tuple(word))


def compose_mod(outer: Modality, inner: Modality) -> Modality:
    """Compose 1-cells: ``inner`` is applied first, then ``outer``."""
    if inner.mode_tgt != outer.mode_src:
        raise ModeError(
            f"cannot compose {outer} : {outer.mode_src} -> {outer.mode_tgt} "
            f"after {inner} : {inner.mode_src} -> {inner.mode_tgt}"
        )
    return Modality(inner.mode_src, outer.mode_tgt, inner.word + outer.word)


def canon_word(mt: "ModeTheory", word: Word) -> Word:
    """Rewrite a word to its normal form under the theory's word rules."""
    if not mt.rules:
        return word
    w = list(word)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in mt.rules:
            n = len(lhs)
            i = 0
            while i + n <= len(w):
                if tuple(w[i : i + n]) == lhs:
                    w[i : i + n] = list(rhs)
                    changed = True
                else:
                    i += 1
    return tuple(w)


def eq_mod(mt: "ModeTheory", a: Modality, b: Modality) -> bool:
    """Decide equality of 1-cells.  Non-parallel inputs are unequal, not errors.
    Equal words have equal normal forms, so they skip the rewriting."""
    if a is b:
        return True
    if a.mode_src != b.mode_src or a.mode_tgt != b.mode_tgt:
        return False
    return a.word == b.word or canon_word(mt, a.word) == canon_word(mt, b.word)


# ---------------------------------------------------------------------------
# 2-cells
#
# A 2-cell is stored as its layers, the form in which Delpeuch & Vicary
# normalize diagrams up to interchange.  The constructors below are the only
# ones the kernel uses, and each checks boundaries as it builds: a whisker
# maps the layers, and ``vcomp`` concatenates them.


@record
class Atom:
    """One layer: a generator cell whiskered by an inner and an outer word.

    The layer acts on the subword at offset ``len(pre)``; ``pre`` is the part
    of the boundary word applied before the generator's boundary, ``post``
    after.
    """

    pre: Word
    gen: str
    post: Word


@record
class Cell2:
    """A 2-cell ``src => tgt`` as its layers in application order; no layers
    is the identity.  ``str`` gives the surface syntax the parser reads back
    to the same layers: last applied first, joined by ``.``, each layer its
    generator after a run of ``g<`` that spells its outer word and before a
    run of ``>g`` that spells its inner word."""

    src: Modality
    tgt: Modality
    layers: tuple[Atom, ...]

    def __str__(self) -> str:
        parts = []
        for a in reversed(self.layers):
            inner = "".join(f">{g}" for g in reversed(a.pre))
            parts.append("".join(f"{g}<" for g in reversed(a.post)) + a.gen + inner)
        return ".".join(parts) or "id"


_ID_CELLS: "dict[tuple[str, str, Word], Cell2]" = {}


def id_cell(mod: Modality) -> Cell2:
    """The one identity cell on ``mod``'s boundary and word, looked up by a
    tuple of strings, which hashes without calling back into Python.  An
    identity modality's cell has ``id_mod`` of its mode as both
    boundaries."""
    key = (mod.mode_src, mod.mode_tgt, mod.word)
    cell = _ID_CELLS.get(key)
    if cell is None:
        if not mod.word and mod.mode_src == mod.mode_tgt:
            mod = id_mod(mod.mode_src)
        cell = _ID_CELLS[key] = Cell2(mod, mod, ())
    return cell


def gen_cell(mt: "ModeTheory", name: str) -> Cell2:
    try:
        src, tgt = mt.cell_gens[name]
    except KeyError:
        raise ModeError(f"unknown cell generator {name!r}") from None
    return Cell2(src, tgt, (Atom((), name, ()),))


def vcomp(later: Cell2, earlier: Cell2, mt: "ModeTheory") -> Cell2:
    """Vertical composite: ``earlier`` first, then ``later``."""
    if not eq_mod(mt, earlier.tgt, later.src):
        raise ModeError(f"ill-formed vertical composite: {earlier.tgt} then {later.src}")
    return Cell2(earlier.src, later.tgt, earlier.layers + later.layers)


def whisker_left(nu: Modality, alpha: Cell2) -> Cell2:
    """Whisker on the outer side: boundary ``nu . src  =>  nu . tgt``."""
    w = nu.word
    return Cell2(
        compose_mod(nu, alpha.src),
        compose_mod(nu, alpha.tgt),
        tuple([Atom(a.pre, a.gen, a.post + w) for a in alpha.layers]),
    )


def whisker_right(alpha: Cell2, nu: Modality) -> Cell2:
    """Whisker on the inner side: boundary ``src . nu  =>  tgt . nu``."""
    w = nu.word
    return Cell2(
        compose_mod(alpha.src, nu),
        compose_mod(alpha.tgt, nu),
        tuple([Atom(w + a.pre, a.gen, a.post) for a in alpha.layers]),
    )


def cell_check(mt: "ModeTheory", cell: Cell2) -> bool:
    """True iff the stored boundary is the one the layers give: each layer
    starts where the one before it, or the source, ends, and the last ends
    at the target, modulo the word rules.  Only a cell built by hand can
    fail it."""
    src, tgt, layers = cell.src, cell.tgt, cell.layers
    if not layers:
        return eq_mod(mt, src, tgt)
    if src.mode_src != tgt.mode_src or src.mode_tgt != tgt.mode_tgt:
        return False
    gens = mt.cell_gens
    if any(a.gen not in gens for a in layers):
        return False
    # the source, then each layer's source and target, then the target
    words = [src.word]
    for a in layers:
        s, t = gens[a.gen]
        words += (a.pre + s.word + a.post, a.pre + t.word + a.post)
    words.append(tgt.word)
    return all(
        u == v or canon_word(mt, u) == canon_word(mt, v) for u, v in zip(words[::2], words[1::2])
    )


# ---------------------------------------------------------------------------
# Deciding 2-cells: the interchange normal form of the layers


def _gen_src_word(mt: "ModeTheory", name: str) -> Word:
    return mt.cell_gens[name][0].word


def _gen_tgt_word(mt: "ModeTheory", name: str) -> Word:
    return mt.cell_gens[name][1].word


def left_normal(mt: "ModeTheory", atoms: "tuple[Atom, ...]") -> tuple[Atom, ...]:
    """Interchange normal form: move every layer as early as it can go.

    A later layer whose input subword lies entirely at or left of an earlier
    layer's output subword is independent of it and bubbles past, with the
    whisker words adjusted.  Offsets count letters of the literal words, so
    two layers swap only where the earlier one's output word is the later
    one's input word letter for letter.  The result is the unique left-handed
    representative of the diagram's interchange class (Delpeuch & Vicary)
    for those literal words; under word rules, layers whose words match
    only modulo the rules stay unswapped, so it is not unique modulo them.

    A part of the diagram that touches no boundary wire, such as a scalar
    built from a unit and a counit, has no such representative: two of them
    each read left of the other and the passes cycle.  Each pass is a
    function of the layers it starts from, and those range over a finite
    set (the same generators, whiskered by words of bounded length), so a pass that starts from layers seen before is such a loop and is
    ``Undecided``.
    """
    out = list(atoms)
    seen = set()
    changed = True
    while changed:
        state = tuple(out)
        if state in seen:
            raise Undecided(
                f"2-cell equality undecided: {len(out)} layers found no interchange "
                "normal form, as when a part of a cell touches no boundary wire"
            )
        seen.add(state)
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]  # a applied first
            a_src, a_tgt = _gen_src_word(mt, a.gen), _gen_tgt_word(mt, a.gen)
            b_src = _gen_src_word(mt, b.gen)
            ao, bo = len(a.pre), len(b.pre)
            if bo + len(b_src) <= ao and b.pre + b_src + b.post == a.pre + a_tgt + a.post:
                # b reads left of a's write: swap, b now acts on a's source
                w0 = a.pre + a_src + a.post
                b2 = Atom(b.pre, b.gen, w0[bo + len(b_src) :])
                b_tgt = _gen_tgt_word(mt, b.gen)
                a2 = Atom(a.pre[:bo] + b_tgt + a.pre[bo + len(b_src) :], a.gen, a.post)
                out[i], out[i + 1] = b2, a2
                changed = True
    return tuple(out)


def _canon_layers(mt: "ModeTheory", cell: Cell2) -> tuple[Atom, ...]:
    """The interchange normal form, with whisker words then rewritten: cells
    whiskered by equal words are equal."""
    atoms = left_normal(mt, cell.layers)
    if not mt.rules:
        return atoms
    return tuple(Atom(canon_word(mt, a.pre), a.gen, canon_word(mt, a.post)) for a in atoms)


def _table_value(mt: "ModeTheory", cell: Cell2) -> "str | None":
    """Fold a cell's layers through the theory's table; None means identity."""
    value: str | None = None
    for a in cell.layers:
        key = (canon_word(mt, a.pre), a.gen, canon_word(mt, a.post))
        try:
            name = mt.table.atom_map[key]
        except KeyError:
            raise ModeError(f"cell table does not cover layer {key}") from None
        if name is None:
            continue
        if value is None:
            value = name
        else:
            try:
                value = mt.table.vcomp_map[(name, value)]
            except KeyError:
                raise ModeError(
                    f"cell table does not cover composite {name} after {value}"
                ) from None
    return value


def _cell_key(mt: "ModeTheory", cell: Cell2):
    """What names a cell's equality class: its value in the theory's table if
    it has one, else its normal form.  The identity's key is None or ()."""
    return _table_value(mt, cell) if mt.table is not None else _canon_layers(mt, cell)


def eq_cell(mt: "ModeTheory", a: Cell2, b: Cell2) -> bool:
    """Decide 2-cell equality modulo the 2-category laws and the presentation."""
    if not (eq_mod(mt, a.src, b.src) and eq_mod(mt, a.tgt, b.tgt)):
        return False
    return _cell_key(mt, a) == _cell_key(mt, b)


def is_id_cell(mt: "ModeTheory", a: Cell2) -> bool:
    """True iff the cell equals the identity on its (necessarily equal) boundary."""
    return eq_mod(mt, a.src, a.tgt) and not _cell_key(mt, a)


# ---------------------------------------------------------------------------
# The theory record


@record(eq=False)
class CellTable:
    """A finite enumeration of a theory's cells.

    ``atom_map`` sends (normalized pre, generator, normalized post) to a cell
    name, or None for layers that the presentation collapses to an identity.
    ``vcomp_map`` composes named cells (identities are handled as units).
    """

    atom_map: Mapping[tuple[Word, str, Word], "str | None"]
    vcomp_map: Mapping[tuple[str, str], str]


@record(eq=False)
class ModeTheory:
    """An immutable presentation, with the word rules (lhs, rhs) and the
    optional cell table that decide its equalities; no rules is free."""

    name: str
    modes: tuple[str, ...]
    modality_gens: Mapping[str, tuple[str, str]]  # name -> (src mode, tgt mode)
    cell_gens: Mapping[str, tuple[Modality, Modality]]  # name -> (src, tgt)
    rules: tuple[tuple[Word, Word], ...] = ()
    table: "CellTable | None" = None


@contextmanager
def _blame(item: tuple):
    try:
        yield
    except ModeError as e:
        raise TheoryItemError(str(e), item) from None


def validate(mt: ModeTheory) -> ModeTheory:
    """Check the presentation's invariants; return the theory for chaining.
    A failure is a ``TheoryItemError`` that names the item at fault."""
    for g, (src, tgt) in mt.modality_gens.items():
        if src not in mt.modes or tgt not in mt.modes:
            raise TheoryItemError(
                f"modality generator {g!r} uses unknown mode(s) {src}, {tgt}", ("mod", g)
            )
    for c, (src, tgt) in mt.cell_gens.items():
        with _blame(("cell", c)):
            for w in (src, tgt):
                if word_mod(mt, w.word, w.mode_src) != w:
                    raise ModeError(f"cell generator {c!r}: {w} does not end at mode {w.mode_tgt}")
            if (src.mode_src, src.mode_tgt) != (tgt.mode_src, tgt.mode_tgt):
                raise ModeError(f"cell generator {c!r} is not between parallel modalities")
            if not src.word and not tgt.word:  # see ``left_normal``
                raise ModeError(f"cell generator {c!r} is a scalar: both its words are empty")
    for i, (lhs, rhs) in enumerate(mt.rules):
        with _blame(("rule", i)):
            if not lhs:
                raise ModeError("empty rule left-hand side")
            left = word_mod(mt, lhs)
            right = word_mod(mt, rhs, left.mode_src)
            rule = f"{left} ~> {right}"
            if right.mode_tgt != left.mode_tgt:
                raise ModeError(f"word rule {rule} does not preserve boundaries")
            # Shortlex is a well-order that rewriting inside a word preserves,
            # so rules that decrease in it make ``canon_word`` terminate.
            if (len(rhs), rhs) >= (len(lhs), lhs):
                raise ModeError(
                    f"word rule {rule} does not shrink the word: the right side must be "
                    "shorter, or as long and smaller in name order from the first-applied "
                    "generator on"
                )
    # Terminating rules are confluent iff each critical pair joins: where two
    # left sides overlap, either rewrite reaches one normal form (Newman; Knuth-Bendix).
    for j, (lj, rj) in enumerate(mt.rules):
        for li, ri in mt.rules[: j + 1]:
            for w, a, b in (*_critical_pairs(li, ri, lj, rj), *_critical_pairs(lj, rj, li, ri)):
                a, b = canon_word(mt, a), canon_word(mt, b)
                if a != b:
                    start = word_mod(mt, w).mode_src
                    w, a, b = (word_mod(mt, v, start) for v in (w, a, b))
                    raise TheoryItemError(
                        f"word rules are not confluent: {w} rewrites to the normal forms "
                        f"{a} and {b}",
                        ("rule", j),
                    )
    return mt


def _critical_pairs(l1: Word, r1: Word, l2: Word, r2: Word):
    """Each word in which left side ``l2`` starts inside ``l1``, with the two
    words that rewriting it by each rule gives."""
    for k in range(len(l1)):
        if l1[k : k + len(l2)] == l2[: len(l1) - k]:
            w = l1[:k] + l2 + l1[k + len(l2) :]
            yield w, r1 + w[len(l1) :], w[:k] + r2 + w[k + len(l2) :]


# ---------------------------------------------------------------------------
# Shipped mode theories

# Each factory builds and validates its theory once per process and then
# returns that one object: a ``ModeTheory`` never changes and compares by
# identity, so every caller may share it.


@cache
def trivial() -> ModeTheory:
    """One mode, no generators: every modality and cell is an identity."""
    return validate(ModeTheory("trivial", ("m",), {}, {}))


@cache
def walking() -> ModeTheory:
    """Two modes and a single modality mu : n -> m with no cells."""
    return validate(ModeTheory("walking", ("n", "m"), {"mu": ("n", "m")}, {}))


@cache
def pointed() -> ModeTheory:
    """One mode, an endomodality l, and a point pt : id => l."""
    l = Modality("m", "m", ("l",))
    return validate(ModeTheory("pointed", ("m",), {"l": ("m", "m")}, {"pt": (id_mod("m"), l)}))


@cache
def adjoint() -> ModeTheory:
    """A split coreflection: l : n -> m retracts along r with counit eps.

    The word rule collapses the round trip r.l (word [l, r]) to the identity
    on n, leaving five 1-cells; eps : l.r => id_m is the only non-identity
    2-cell.  Every whiskered copy of eps collapses to an identity (the
    triangle laws with a strict unit), which the finite table records.
    """
    lr = Modality("m", "m", ("r", "l"))  # l after r
    rules = ((("l", "r"), ()),)
    atom_map: dict[tuple[Word, str, Word], str | None] = {}
    for pre in ((), ("l",), ("r", "l")):
        for post in ((), ("r",), ("r", "l")):
            atom_map[(pre, "eps", post)] = "eps" if not pre and not post else None
    return validate(
        ModeTheory(
            "adjoint",
            ("n", "m"),
            {"l": ("n", "m"), "r": ("m", "n")},
            {"eps": (lr, id_mod("m"))},
            rules,
            CellTable(atom_map, {}),
        )
    )


THEORIES = {
    "trivial": trivial,
    "walking": walking,
    "pointed": pointed,
    "adjoint": adjoint,
}


def shipped_theory(name: str) -> ModeTheory:
    """The shipped theory ``name``, built; a ``ModeError`` that lists the
    shipped names if there is none."""
    if name not in THEORIES:
        raise ModeError(f"unknown mode theory {name!r} (shipped: {', '.join(sorted(THEORIES))})")
    return THEORIES[name]()
