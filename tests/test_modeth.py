"""Mode theory tests: words, cells, deciders."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mtt.cli import parse_file
from mtt.modeth import (
    THEORIES,
    Atom,
    Cell2,
    ModeError,
    ModeTheory,
    Modality,
    TheoryItemError,
    Undecided,
    adjoint,
    canon_word,
    cell_check,
    compose_mod,
    eq_cell,
    eq_mod,
    gen_cell,
    id_cell,
    id_mod,
    is_id_cell,
    pointed,
    trivial,
    validate,
    vcomp,
    walking,
    whisker_left,
    whisker_right,
    word_mod,
)


def free_pq() -> ModeTheory:
    # a: p -> q, b: q -> r, no relations
    return validate(
        ModeTheory("pq", ("p", "q", "r"), {"a": ("p", "q"), "b": ("q", "r")}, {})
    )


def free_endo() -> ModeTheory:
    # two endo-generators on one mode
    return validate(
        ModeTheory("endo", ("m",), {"a": ("m", "m"), "b": ("m", "m")}, {})
    )


# ---------------------------------------------------------------------------
# 1-cells


def test_compose_identity_units():
    mt = walking()
    mu = word_mod(mt, ("mu",))
    assert compose_mod(id_mod("m"), mu) == mu
    assert compose_mod(mu, id_mod("n")) == mu


def test_compose_word_concatenation():
    mt = free_pq()
    a, b = word_mod(mt, ("a",)), word_mod(mt, ("b",))
    ba = compose_mod(b, a)
    assert ba.word == ("a", "b")
    assert (ba.mode_src, ba.mode_tgt) == ("p", "r")


def test_compose_mode_mismatch():
    mt = free_pq()
    a, b = word_mod(mt, ("a",)), word_mod(mt, ("b",))
    with pytest.raises(ModeError):
        compose_mod(a, b)


def test_eq_mod_reflexive_and_free_inequality():
    mt = free_endo()
    ab = Modality("m", "m", ("a", "b"))
    ba = Modality("m", "m", ("b", "a"))
    assert eq_mod(mt, ab, ab)
    assert not eq_mod(mt, ab, ba)


def test_eq_mod_nonparallel_is_false():
    mt = free_pq()
    assert not eq_mod(mt, word_mod(mt, ("a",)), word_mod(mt, ("b",)))


def test_adjoint_round_trip_rewrites_to_identity():
    mt = adjoint()
    l, r = word_mod(mt, ("l",)), word_mod(mt, ("r",))
    assert eq_mod(mt, compose_mod(r, l), id_mod("n"))
    assert not eq_mod(mt, compose_mod(l, r), id_mod("m"))
    # nested occurrence rewrites too: word [l, l, r, r] -> [l, r] -> []
    w = Modality("n", "n", ("l", "l", "r", "r"))
    assert eq_mod(mt, w, id_mod("n"))


def test_identities_are_shared_and_equality_does_not_rely_on_it():
    assert id_mod("m") is id_mod("m")
    mu, mu2 = Modality("n", "m", ("mu",)), Modality("n", "m", ("mu",))
    assert id_cell(mu) is id_cell(mu2) == Cell2(mu, mu, ())
    # eq_mod answers by identity first, but distinct equal words still
    # compare equal, and so do words equal only modulo a rule.
    mt = free_endo()
    ab, ab2 = Modality("m", "m", ("a", "b")), Modality("m", "m", ("a", "b"))
    assert ab is not ab2 and eq_mod(mt, ab, ab2)
    fresh_id = Modality("n", "n")
    assert fresh_id is not id_mod("n") and eq_mod(adjoint(), fresh_id, id_mod("n"))
    assert eq_mod(adjoint(), Modality("n", "n", ("l", "r")), fresh_id)


def test_canon_word_fixpoint():
    mt = adjoint()
    assert canon_word(mt, ("l", "l", "r", "r")) == ()
    assert canon_word(mt, ("r", "l")) == ("r", "l")


@settings(max_examples=200)
@given(st.lists(st.sampled_from(["a", "b"]), max_size=6).map(tuple),
       st.lists(st.sampled_from(["a", "b"]), max_size=6).map(tuple),
       st.lists(st.sampled_from(["a", "b"]), max_size=6).map(tuple))
def test_compose_associative(w1, w2, w3):
    mt = free_endo()
    x = Modality("m", "m", w1)
    y = Modality("m", "m", w2)
    z = Modality("m", "m", w3)
    assert eq_mod(mt, compose_mod(compose_mod(z, y), x), compose_mod(z, compose_mod(y, x)))


# ---------------------------------------------------------------------------
# 2-cells


def test_id_cell_and_unit_laws():
    mt = pointed()
    ell = word_mod(mt, ("l",))
    alpha = gen_cell(mt, "pt")
    assert eq_cell(mt, vcomp(id_cell(alpha.tgt), alpha, mt), alpha)
    assert eq_cell(mt, vcomp(alpha, id_cell(alpha.src), mt), alpha)
    assert is_id_cell(mt, vcomp(id_cell(ell), id_cell(ell), mt))


def test_whisker_of_identity_is_identity():
    mt = pointed()
    ell = word_mod(mt, ("l",))
    assert eq_cell(mt, whisker_left(ell, id_cell(ell)), id_cell(compose_mod(ell, ell)))
    assert eq_cell(mt, whisker_right(id_cell(ell), ell), id_cell(compose_mod(ell, ell)))


def test_pointed_whisker_boundary():
    mt = pointed()
    ell = word_mod(mt, ("l",))
    alpha = gen_cell(mt, "pt")
    w = whisker_left(ell, alpha)
    assert eq_mod(mt, w.src, ell)
    assert eq_mod(mt, w.tgt, compose_mod(ell, ell))
    assert cell_check(mt, w)


def test_vcomp_boundary():
    mt = pointed()
    ell = word_mod(mt, ("l",))
    alpha = gen_cell(mt, "pt")
    beta = whisker_left(ell, alpha)  # l => l.l
    c = vcomp(beta, alpha, mt)  # id => l.l
    assert eq_mod(mt, c.src, id_mod("m"))
    assert eq_mod(mt, c.tgt, compose_mod(ell, ell))
    with pytest.raises(ModeError, match="ill-formed vertical composite: l then id\\(m\\)"):
        vcomp(alpha, alpha, mt)


def test_a_cell_is_its_layers_in_application_order():
    # A whisker maps the layers and a vertical composite concatenates them,
    # earlier first; the boundary is checked as the cell is built.
    mt = pointed()
    ell = word_mod(mt, ("l",))
    alpha = gen_cell(mt, "pt")
    assert alpha.layers == (Atom((), "pt", ()),)
    assert whisker_left(ell, alpha).layers == (Atom((), "pt", ("l",)),)
    assert whisker_right(alpha, ell).layers == (Atom(("l",), "pt", ()),)
    c = vcomp(whisker_left(ell, whisker_right(alpha, ell)), whisker_left(ell, alpha), mt)
    assert c.layers == (Atom((), "pt", ("l",)), Atom(("l",), "pt", ("l",)))
    assert str(c) == "l<pt>l.l<pt"
    assert vcomp(id_cell(ell), id_cell(ell), mt).layers == ()
    with pytest.raises(ModeError, match="cannot compose"):
        whisker_left(Modality("n", "m", ("mu",)), alpha)


def test_cell_check_compares_each_layer_with_the_word_before_it():
    mt, ell = pointed(), Modality("m", "m", ("l",))
    ll = compose_mod(ell, ell)
    pt, lpt = Atom((), "pt", ()), Atom((), "pt", ("l",))
    assert cell_check(mt, Cell2(id_mod("m"), ll, (pt, lpt)))
    assert not cell_check(mt, Cell2(id_mod("m"), ll, (lpt, pt)))  # l.l then id
    assert not cell_check(mt, Cell2(id_mod("m"), ell, (pt, lpt)))  # wrong target
    assert not cell_check(mt, Cell2(ell, ll, (pt,)))  # wrong source
    assert not cell_check(mt, Cell2(id_mod("m"), ell, (Atom((), "nope", ()),)))
    assert not cell_check(mt, Cell2(id_mod("m"), ell, ()))  # no layers, but not an identity
    # modulo the word rules: eps : l.r => id(m) also goes from l.r.l.r,
    # which the rule r.l ~> id rewrites to l.r
    adj = adjoint()
    lrlr = Modality("m", "m", ("r", "l", "r", "l"))
    assert cell_check(adj, Cell2(lrlr, id_mod("m"), (Atom((), "eps", ()),)))
    assert not cell_check(adj, Cell2(lrlr, id_mod("n"), (Atom((), "eps", ()),)))


def test_interchange_both_bracketings():
    # (l < pt) . pt  ==  (pt > l) . pt   (both equal the horizontal square)
    mt = pointed()
    ell = word_mod(mt, ("l",))
    alpha = gen_cell(mt, "pt")
    left = vcomp(whisker_left(ell, alpha), alpha, mt)
    right = vcomp(whisker_right(alpha, ell), alpha, mt)
    assert eq_cell(mt, left, right)


def test_trivial_theory_all_parallel_cells_equal():
    mt = trivial()
    i = id_mod("m")
    a = vcomp(id_cell(i), id_cell(i), mt)
    b = whisker_left(i, id_cell(i))
    assert eq_cell(mt, a, b)
    assert eq_cell(mt, a, id_cell(i))


def test_eq_cell_nonparallel_false():
    mt = pointed()
    alpha = gen_cell(mt, "pt")
    assert not eq_cell(mt, alpha, id_cell(alpha.src))


# Deep interchange: build the same 3-layer diagram two ways.
def test_interchange_three_layers():
    mt = pointed()
    ell = word_mod(mt, ("l",))
    ell2 = compose_mod(ell, ell)
    alpha = gen_cell(mt, "pt")
    # id => l.l.l by inserting left-to-right vs right-to-left
    c1 = vcomp(whisker_left(ell2, alpha), vcomp(whisker_left(ell, alpha), alpha, mt), mt)
    c2 = vcomp(whisker_right(alpha, ell2), vcomp(whisker_right(alpha, ell), alpha, mt), mt)
    assert eq_cell(mt, c1, c2)
    assert not is_id_cell(mt, c1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eq_cell_congruence_random(data):
    """Whiskering and composing eq_cell-equal cells stays eq_cell-equal."""
    mt = pointed()
    ell = word_mod(mt, ("l",))
    alpha = gen_cell(mt, "pt")
    # two syntactically different but equal cells id => l.l
    a = vcomp(whisker_left(ell, alpha), alpha, mt)
    b = vcomp(whisker_right(alpha, ell), alpha, mt)
    assert eq_cell(mt, a, b)
    if data.draw(st.booleans()):
        a, b = whisker_left(ell, a), whisker_left(ell, b)
    else:
        a, b = whisker_right(a, ell), whisker_right(b, ell)
    assert eq_cell(mt, a, b)
    g = vcomp(whisker_left(a.tgt, alpha), a, mt), vcomp(whisker_left(b.tgt, alpha), b, mt)
    assert eq_cell(mt, *g)


UNITS, _ = parse_file(
    "theory { modes m; mod c : m -> m; mod k : m -> m; cell pt : id(m) => c;"
    " cell e : c => id(m); cell mul : c.c => c; cell dup : c => c.c; cell to : c => k;"
    " cell from : k => c; cell cross : k.c => c.k; decider free; }"
)


def _has_closed_part(mt, word, sites):
    """Whether the layers at ``sites`` (offset, name), applied in order to
    ``word``, have a connected part that touches no boundary wire."""
    parent = list(range(len(sites) + 1))  # node len(sites) is the boundary

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    boundary = len(sites)
    wires = [boundary] * len(word)  # the node that writes each wire
    for n, (i, g) in enumerate(sites):
        src, tgt = (m.word for m in mt.cell_gens[g])
        for w in wires[i : i + len(src)]:
            parent[find(w)] = find(n)
        wires[i : i + len(src)] = [n] * len(tgt)
    for w in wires:
        parent[find(w)] = find(boundary)
    return any(find(n) != find(boundary) for n in range(len(sites)))


@pytest.mark.parametrize("seed", range(4))
def test_interchange_decides_every_cell_without_a_closed_part(seed):
    # With the unit pt and the counit e, a random cell can hold a closed
    # part, which left_normal may refuse; every other cell it must decide.
    # Some of these cells need more than n(n-1)/2 swaps for n layers, as a
    # pair of layers can swap twice.
    rng = random.Random(seed)
    gens = sorted(UNITS.cell_gens.items())
    refused = 0
    for _ in range(500):
        word = tuple(rng.choice("ck") for _ in range(rng.randint(0, 3)))
        source, cell, sites = word, id_cell(Modality("m", "m", word)), []
        for _ in range(rng.randint(1, 8)):
            site = rng.choice(
                [
                    (i, g)
                    for i in range(len(word) + 1)
                    for g, (src, _) in gens
                    if word[i : i + len(src.word)] == src.word
                ]
            )
            i, g = site
            src, tgt = (m.word for m in UNITS.cell_gens[g])
            pre, post = word[:i], word[i + len(src) :]
            layer = whisker_right(gen_cell(UNITS, g), Modality("m", "m", pre))
            cell = vcomp(whisker_left(Modality("m", "m", post), layer), cell, UNITS)
            sites.append(site)
            word = pre + tgt + post
        try:
            assert eq_cell(UNITS, cell, cell)
        except Undecided:
            assert _has_closed_part(UNITS, source, sites)
            refused += 1
    assert 0 < refused < 500


def test_a_unit_and_a_counit_that_meet_the_boundary_are_decided():
    # (c<e).(u>c) on c => c: the layers swap twice where they meet at one
    # offset, and the cell is not the identity, as no snake law holds.
    mt, _ = parse_file(
        "theory { modes m; mod c : m -> m; cell u : id(m) => c; cell e : c => id(m);"
        " decider free; }"
    )
    c = Modality("m", "m", ("c",))
    snake = vcomp(whisker_left(c, gen_cell(mt, "e")), whisker_right(gen_cell(mt, "u"), c), mt)
    assert eq_cell(mt, snake, snake)
    assert not is_id_cell(mt, snake)
    bubbles = vcomp(gen_cell(mt, "e"), gen_cell(mt, "u"), mt)
    assert not is_id_cell(mt, bubbles)
    with pytest.raises(Undecided, match="4 layers found no interchange normal form"):
        is_id_cell(mt, vcomp(bubbles, bubbles, mt))


# ---------------------------------------------------------------------------
# adjoint table vs brute force


def all_adjoint_cells():
    """Every 2-cell of the split coreflection, by boundary-directed search."""
    mt = adjoint()
    l, r = word_mod(mt, ("l",)), word_mod(mt, ("r",))
    lr = compose_mod(l, r)
    ones = [id_mod("n"), id_mod("m"), l, r, lr]
    cells = [id_cell(x) for x in ones] + [gen_cell(mt, "eps")]
    return mt, ones, cells


def test_adjoint_cells_enumeration_closed_under_whiskering():
    mt, ones, cells = all_adjoint_cells()
    eps = gen_cell(mt, "eps")
    l, r = word_mod(mt, ("l",)), word_mod(mt, ("r",))
    lr = compose_mod(l, r)
    # every whisker of eps by a composable 1-cell lands on a known cell
    for nu in [l, lr]:
        w = whisker_right(eps, nu)  # inner side: nu into m
        assert any(
            eq_mod(mt, w.src, c.src) and eq_mod(mt, w.tgt, c.tgt) and eq_cell(mt, w, c)
            for c in cells
        )
    for nu in [r, lr]:
        w = whisker_left(nu, eps)
        assert any(
            eq_mod(mt, w.src, c.src) and eq_mod(mt, w.tgt, c.tgt) and eq_cell(mt, w, c)
            for c in cells
        )


def test_adjoint_triangle_collapses():
    # hand-derived: eps whiskered on either side is an identity cell
    mt = adjoint()
    l, r = word_mod(mt, ("l",)), word_mod(mt, ("r",))
    eps = gen_cell(mt, "eps")
    assert is_id_cell(mt, whisker_right(eps, l))
    assert is_id_cell(mt, whisker_left(r, eps))
    assert not is_id_cell(mt, eps)


def test_adjoint_table_matches_structural_on_identities():
    mt = adjoint()
    l = word_mod(mt, ("l",))
    assert is_id_cell(mt, id_cell(l))
    assert eq_cell(mt, id_cell(l), vcomp(id_cell(l), id_cell(l), mt))


# ---------------------------------------------------------------------------
# rewrite decider as a standalone kind


def test_rewrite_decider_collapses_words():
    mt = validate(
        ModeTheory(
            "rw",
            ("s",),
            {"f": ("s", "s"), "g": ("s", "s")},
            {},
            ((("f", "g"), ()),),
        )
    )
    w = Modality("s", "s", ("f", "f", "g", "g"))
    assert eq_mod(mt, w, id_mod("s"))
    assert eq_mod(mt, Modality("s", "s", ("g", "f")), Modality("s", "s", ("g", "f")))
    assert not eq_mod(mt, Modality("s", "s", ("g", "f")), id_mod("s"))


def test_validate_rejects_bad_presentations():
    with pytest.raises(ModeError):
        validate(ModeTheory("bad", ("m",), {"f": ("m", "x")}, {}))
    with pytest.raises(ModeError):
        validate(
            ModeTheory(
                "bad2",
                ("m", "n"),
                {"f": ("m", "n")},
                {"c": (Modality("m", "n", ("f",)), id_mod("m"))},
            )
        )


@pytest.mark.parametrize("side", ["src", "tgt"])
def test_validate_rejects_a_cell_generator_whose_stated_target_mode_is_wrong(side):
    # The word mu ends at m, but one side states n -> n, parallel to the
    # other side nu.mu; only the whole stated boundary shows it.
    wrong, right = Modality("n", "n", ("mu",)), Modality("n", "n", ("mu", "nu"))
    cell = (wrong, right) if side == "src" else (right, wrong)
    mt = ModeTheory("bad", ("n", "m"), {"mu": ("n", "m"), "nu": ("m", "n")}, {"c": cell})
    with pytest.raises(TheoryItemError) as e:
        validate(mt)
    assert e.value.item == ("cell", "c")
    assert str(e.value) == "cell generator 'c': mu does not end at mode n"


def test_validate_rejects_a_scalar_cell_generator():
    # Two layers of an endo-cell of id(m) each read left of the other, so
    # left_normal used to swap them forever.
    scalar = ModeTheory("sc", ("m",), {}, {"s": (id_mod("m"), id_mod("m"))})
    with pytest.raises(TheoryItemError, match="'s' is a scalar") as e:
        validate(scalar)
    assert e.value.item == ("cell", "s")


def _rewrite_theory(*rules):
    return ModeTheory("rw", ("s",), {"f": ("s", "s"), "g": ("s", "s")}, {}, rules)


@pytest.mark.parametrize(
    "lhs, rhs",
    [(("f",), ("f", "f")), (("f",), ("f",)), (("f", "g"), ("g", "f")), ((), ())],
    ids=["grows", "stays", "larger-in-name-order", "empty"],
)
def test_validate_rejects_rules_that_do_not_shrink(lhs, rhs):
    # Rewriting with any of these could run forever in canon_word.
    with pytest.raises(ModeError):
        validate(_rewrite_theory((lhs, rhs)))


def test_validate_accepts_rules_that_shrink_in_shortlex_order():
    # Shorter, or as long and smaller in name order from the first-applied
    # generator on; the shipped adjoint rule (r.l ~> id) shrinks too.
    mt = validate(_rewrite_theory((("f", "f"), ("f",)), (("g", "f"), ("f", "g"))))
    assert canon_word(mt, ("g", "g", "f", "f")) == ("f", "g", "g")
    validate(adjoint())


@pytest.mark.parametrize(
    "rules, pair, blamed",
    [
        # y.x ~> z and w.y ~> v overlap in w.y.x
        ([("xy", "z"), ("yw", "v")], "w.y.x rewrites to the normal forms w.z and v.x", 1),
        # x.y.x ~> id overlaps itself in x.y.x.y.x
        ([("xyx", "")], "x.y.x.y.x rewrites to the normal forms x.y and y.x", 0),
        # y ~> id sits inside y.x ~> z
        ([("z", ""), ("xy", "z"), ("y", "")], "y.x rewrites to the normal forms id(s) and x", 2),
    ],
    ids=["overlap", "self-overlap", "inclusion"],
)
def test_validate_rejects_rules_that_are_not_confluent(rules, pair, blamed):
    # Each overlap rewrites to two distinct normal forms, so conversion would
    # reject modalities that the rules make equal.
    gens = {g: ("s", "s") for g in "vwxyz"}
    rules = tuple((tuple(lhs), tuple(rhs)) for lhs, rhs in rules)
    with pytest.raises(TheoryItemError, match="word rules are not confluent") as e:
        validate(ModeTheory("nc", ("s",), gens, {}, rules))
    assert pair in str(e.value)
    assert e.value.item == ("rule", blamed)


def test_validate_accepts_rules_whose_critical_pairs_join():
    # c.c ~> c overlaps itself in c.c.c, which rewrites to c either way; the
    # adjoint rule r.l ~> id does not overlap itself.
    mt = validate(ModeTheory("idem", ("s",), {"c": ("s", "s")}, {}, ((("c", "c"), ("c",)),)))
    assert canon_word(mt, ("c", "c", "c")) == ("c",)
    validate(adjoint())


# ---------------------------------------------------------------------------
# naming-rule oracle: a rule x.y ~> z with z fresh presents the same
# 2-category as the free theory with z written out as x.y

_CELLS = "cell b : y => y; cell c : w => w; cell d : x => x;"
NAMED, _ = parse_file(
    "theory { modes m; mod w : m -> m; mod x : m -> m; mod y : m -> m; mod z : m -> m;"
    f" rule x.y ~> z; cell a : z => z; {_CELLS} decider rewrite; }}"
)
EXPANDED, _ = parse_file(
    "theory { modes m; mod w : m -> m; mod x : m -> m; mod y : m -> m;"
    f" cell a : x.y => x.y; {_CELLS} decider free; }}"
)
XY, Z = EXPANDED.cell_gens["a"][0].word, NAMED.cell_gens["a"][0].word  # in application order


def _contract(rng, word):
    """``word`` with each x.y, at random, written as z."""
    out, i = (), 0
    while i < len(word):
        if word[i : i + 2] == XY and rng.random() < 0.5:
            out, i = out + Z, i + 2
        else:
            out, i = out + word[i : i + 1], i + 1
    return out


def _cell(mt, rng, word, sites):
    """The composite of generator layers at ``sites`` (offset, name) of the
    expanded ``word``, applied in order; in ``NAMED`` each whisker is written
    with its own random choice of z for x.y."""
    layers = []
    for i, g in sites:
        pre, post = word[:i], word[i + len(EXPANDED.cell_gens[g][0].word) :]
        if mt is NAMED:
            pre, post = _contract(rng, pre), _contract(rng, post)
        inner = whisker_right(gen_cell(mt, g), Modality("m", "m", pre))
        layers.append(whisker_left(Modality("m", "m", post), inner))
    cell = layers[0]
    for later in layers[1:]:
        cell = vcomp(later, cell, mt)
    return cell


@pytest.mark.parametrize("seed", range(3))
def test_a_naming_rule_accepts_no_pair_of_cells_its_expansion_rejects(seed):
    # Pairs of 1-6 layers, the second a reordering of the first, so that
    # interchange alone decides them.  The rule's decider may still reject
    # pairs that the expansion accepts: it is sound, not complete.
    rng = random.Random(seed)
    for _ in range(1000):
        word = sum((rng.choice([XY, XY, ("w",), ("x",), ("y",)]) for _ in range(rng.randint(1, 3))), ())
        sites = [
            (i, g)
            for i in range(len(word))
            for g, (src, _) in sorted(EXPANDED.cell_gens.items())
            if word[i : i + len(src.word)] == src.word
        ]
        first = [rng.choice(sites) for _ in range(rng.randint(1, 6))]
        second = rng.sample(first, len(first))
        if eq_cell(NAMED, _cell(NAMED, rng, word, first), _cell(NAMED, rng, word, second)):
            assert eq_cell(
                EXPANDED, _cell(EXPANDED, rng, word, first), _cell(EXPANDED, rng, word, second)
            ), (word, first, second)


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_each_shipped_theory_is_built_once(name):
    assert THEORIES[name]() is THEORIES[name]()
