import random

import pytest
from hypothesis import given, settings, strategies as st

from gbs import _wordcore_py as pure
from gbs import wordcore
from gbs.graphs import GraphError, paths_from
from gbs.words import (MAX_EDGE_LENGTH, GbsGroup, WordError, closed_words,
                       random_closed_word)

from conftest import random_graph_text
from oracles import insert_pinch


def test_reduce_defining_relation(bs23):
    alpha = bs23.graph.alpha
    assert wordcore.reduce_items([0, 0, 3, 1, 0], alpha) == [2]   # y a^3 ~y


def test_reduce_inverse_pair(bs23):
    assert wordcore.reduce_items([0, 0, 0, 1, 0], bs23.graph.alpha) == [0]


def test_no_pinch_when_not_divisible(bs23):
    items = [0, 0, 1, 1, 0]                     # y a ~y: 3 does not divide 1
    assert wordcore.reduce_items(list(items), bs23.graph.alpha) == items


def test_canonical_pushes_residue(bs23):
    # a^5 y -> a y a^6
    assert wordcore.canon_items([5, 0, 0], bs23.graph.alpha) == [1, 0, 6]


def test_canonical_idempotent(bs23):
    alpha = bs23.graph.alpha
    w = wordcore.canon_items([5, 0, 0], alpha)
    assert wordcore.canon_items(list(w), alpha) == w
    assert bs23.identity().items == (0,)


def test_path_consistency_enforced(gbs2):
    with pytest.raises(WordError, match="does not start at P"):
        gbs2.element([0, 1, 0])                 # ~w starts at Q, not P
    with pytest.raises(WordError, match="not closed at the base"):
        gbs2.element([0, 0, 0])                 # w ends at Q
    assert gbs2.element([0, 0, 1, 1, 0]) == gbs2.vertex_generator("Q")
    with pytest.raises(WordError, match="must alternate exponent, edge"):
        gbs2.element([0, 0])
    with pytest.raises(WordError, match="unknown edge index 4"):
        gbs2.element([0, 4, 0])


def test_multiply_examples(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    assert (t * t.inverse()).is_identity()
    assert a ** 2 * a ** 3 == a ** 5
    lhs = (t * a * t.inverse()) * (t * a ** 2 * t.inverse())
    assert lhs == a ** 2


def test_base_mismatch_rejected(bs23, gbs2):
    with pytest.raises(WordError):
        bs23.vertex_generator("P") * gbs2.vertex_generator("P")


def test_embed_examples(bs23, gbs2):
    assert bs23.from_string("g[y]").items == (0, 0, 0)
    aq = gbs2.from_string("a[Q]")
    assert aq.items == (0, 0, 1, 1, 0)            # w a_Q ~w
    assert gbs2.from_string("g[w]").is_identity()  # tree edges die
    assert gbs2.to_string(aq) == "a[Q]"


def test_word_grammar_roundtrip(bs23, gbs2):
    rng = random.Random(5)
    for group in (bs23, gbs2):
        for _ in range(50):
            g = random_closed_word(group, rng, 5, 6)
            assert group.from_string(group.to_string(g)) == g


def test_grammar_errors(bs23):
    for bad in ("", "a[P]*", "^2", "a[P]^^2", "a[P] a[P]"):
        with pytest.raises(WordError):
            bs23.from_string(bad)
    with pytest.raises(GraphError, match="unknown vertex 'Z'"):
        bs23.from_string("a[Z]")
    with pytest.raises(GraphError, match="unknown edge 'z'"):
        bs23.from_string("g[z]")


def test_grammar_misplaced_tokens(bs23):
    for text in ("*a[P]", "a[P]**a[P]"):
        with pytest.raises(WordError, match="misplaced '\\*'"):
            bs23.from_string(text)
    for text in ("a[P]1", "1 1", "g[y]^2 1"):
        with pytest.raises(WordError, match="misplaced '1'"):
            bs23.from_string(text)


def test_power_cap(bs23, gbs2):
    cap = MAX_EDGE_LENGTH
    assert bs23.from_string(f"g[y]^{cap}").edge_length == cap
    for group, text in ((bs23, f"g[y]^{cap + 1}"), (bs23, f"g[~y]^-{cap + 1}"),
                        (bs23, f"a[P]*g[y]^{cap + 1}*a[P]"),
                        (gbs2, f"g[y]^{cap // 2 + 1}")):   # g[y] = y ~w there
        with pytest.raises(WordError, match="edge-length cap"):
            group.from_string(text)
    # powers of a[P] keep their edge length and stay uncapped
    assert bs23.from_string(f"a[P]^{10 ** 30}").edge_length == 0
    assert gbs2.from_string(f"a[Q]^{cap + 1}").edge_length == 2
    # one exponent per factor: a chained power is a syntax error, capped or not
    for group, text in ((bs23, f"g[y]^2^{cap // 2 + 1}"),
                        (gbs2, f"a[Q]^3^{cap + 1}")):
        with pytest.raises(WordError, match="misplaced exponent"):
            group.from_string(text)
    with pytest.raises(WordError, match="exponent too long"):
        bs23.from_string("a[P]^" + "9" * 5000)


def test_length_and_signs(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    assert a.edge_letter_count("y") == 0
    h = t * a * t.inverse()
    assert h.edge_letter_count("y") == 2
    assert h.items[1::2] == (0, 1)              # signs +1, -1: y, then ~y
    assert (t * a ** 3 * t.inverse()).edge_letter_count("y") == 0


def test_cyclic_membership(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    assert bs23.cyclic_membership(a ** 6, "P", 3) == 2
    assert bs23.cyclic_membership(a ** 5, "P", 3) is None
    assert bs23.cyclic_membership(t * a ** 3 * t.inverse(), "P", 2) == 1
    with pytest.raises(WordError):
        bs23.cyclic_membership(a, "P", 0)


def test_cyclic_membership_transported(gbs2):
    aq = gbs2.vertex_generator("Q")
    assert gbs2.cyclic_membership(aq ** 4, "Q", 2) == 2
    # a_Q^2 = a_P^3 via the tree relation
    ap = gbs2.vertex_generator("P")
    assert aq ** 2 == ap ** 3


# -- randomized properties ----------------------------------------------------


@pytest.mark.parametrize("fixture", ["bs23", "gbs2"])
def test_pinch_insertion_soundness(request, fixture):
    group = request.getfixturevalue(fixture)
    rng = random.Random(11)
    for _ in range(500):
        g = random_closed_word(group, rng, 5, 8, nontrivial=False)
        mutated = insert_pinch(group, g.items, rng)
        assert group.element(mutated) == g


@pytest.mark.parametrize("fixture", ["bs23", "gbs2"])
def test_group_axioms(request, fixture):
    group = request.getfixturevalue(fixture)
    rng = random.Random(13)
    e = group.identity()
    for _ in range(100):
        f = random_closed_word(group, rng, 4, 6)
        g = random_closed_word(group, rng, 4, 6)
        h = random_closed_word(group, rng, 4, 6)
        assert (f * g) * h == f * (g * h)
        assert f * f.inverse() == e
        assert e * f == f == f * e


def test_equals_iff_quotient_trivial(bs23):
    rng = random.Random(17)
    for _ in range(100):
        g = random_closed_word(bs23, rng, 4, 6)
        h = random_closed_word(bs23, rng, 4, 6)
        assert (g == h) == (g * h.inverse()).is_identity()
        assert (g == g) and (g * g.inverse()).is_identity()


def test_reduced_closed_words_are_nontrivial(bs23, gbs2):
    # Britton: nonempty reduced closed words differ from the identity
    for group in (bs23, gbs2):
        for items in closed_words(group, 3, 2):
            if len(items) > 1 or items[0] != 0:
                g = group.element(list(items))
                assert not g.is_identity()
                assert g.items == items  # already canonical


def test_random_closed_word_draws_closed_words(bs23, gbs2, two_vertex,
                                               chain3):
    """Every draw is one of ``closed_words``' words with the same bounds, and
    on the multi-vertex fixtures most draws walk an edge.  The random graphs
    include alpha = +-1, where a walk can dead-end after a back-to-back
    pair and is drawn again; on ``dead_end`` every walk of positive length
    does."""
    dead_end = GbsGroup.from_text(
        "vertex P\nvertex Q\nedge w : P -> Q alpha 1 1\n")
    rng = random.Random(3)
    randoms = [GbsGroup.from_text(random_graph_text(rng)) for _ in range(30)]
    # the graphs whose word sets stay small
    randoms = [g for g in randoms
               if sum(1 for _ in closed_words(g, 4, 3)) <= 50_000]
    assert sum(g.graph.n_vertices > 1 and 1 in map(abs, g.graph.alpha)
               for g in randoms) >= 5
    walkers = (gbs2, two_vertex, chain3)
    rng = random.Random(5)
    for group in [bs23, *walkers, dead_end, *randoms]:
        words = set(closed_words(group, 4, 3))
        draws = [random_closed_word(group, rng, 4, 3, nontrivial=False).items
                 for _ in range(2000 if group in walkers else 200)]
        assert set(draws) <= words
        if group in walkers:
            assert sum(len(w) > 1 for w in draws) > len(draws) // 2


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_group_axioms_on_random_graphs(rng):
    """Associativity, inverses, the identity and canonical idempotence on a
    random graph, with words from ``random_closed_word``."""
    group = GbsGroup.from_text(random_graph_text(rng))
    alpha = group.graph.alpha
    e = group.identity()
    x, y, z = (random_closed_word(group, rng, 4, 6, nontrivial=False)
               for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * x.inverse() == e == x.inverse() * x
    assert e * x == x == x * e
    for w in (x, y, x * y, x.inverse()):
        assert wordcore.canon_items(list(w.items), alpha) == list(w.items)


def _random_order_reduce(group, items, rng):
    """Oracle reducer: eliminate pinches in random order, then random-order
    residue sweeps; must agree with the deterministic kernel."""
    alpha = group.graph.alpha
    items = list(items)
    while True:
        pinches = [i for i in range(3, len(items), 2)
                   if items[i] == items[i - 2] ^ 1
                   and items[i - 1] % alpha[items[i - 2]] == 0]
        if not pinches:
            break
        i = rng.choice(pinches)
        s = items[i - 1] // alpha[items[i - 2]]
        merged = items[i - 3] + alpha[items[i]] * s + items[i + 1]
        items = items[:i - 3] + [merged] + items[i + 2:]
    # residues, random sweep order but repeated to a fixed point
    changed = True
    while changed:
        changed = False
        order = list(range(1, len(items), 2))
        rng.shuffle(order)
        for i in sorted(order):  # left-to-right inside one round
            e = items[i]
            m = abs(alpha[e ^ 1])
            rho = items[i - 1] % m
            if rho != items[i - 1]:
                items[i + 1] += alpha[e] * ((items[i - 1] - rho) // alpha[e ^ 1])
                items[i - 1] = rho
                changed = True
    return items


@pytest.mark.parametrize("fixture", ["bs23", "gbs2"])
def test_length_invariant_under_reduction_order(request, fixture):
    group = request.getfixturevalue(fixture)
    rng = random.Random(23)
    y = group.graph.edge_id("y")
    for _ in range(200):
        g = random_closed_word(group, rng, 5, 6)
        noisy = insert_pinch(group, g.items, rng)
        other = _random_order_reduce(group, noisy, rng)
        assert tuple(other) == g.items
        assert group.element(other).edge_letter_count(y) == g.edge_letter_count(y)


def test_kernel_mul_matches_full_canonicalization(bs23, gbs2):
    rng = random.Random(29)
    for group in (bs23, gbs2):
        alpha = group.graph.alpha
        for _ in range(300):
            a = random_closed_word(group, rng, 5, 9, nontrivial=False)
            b = random_closed_word(group, rng, 5, 9, nontrivial=False)
            seam = wordcore.mul_items(list(a.items), list(b.items), alpha)
            joined = list(a.items)
            joined[-1] += b.items[0]
            joined.extend(b.items[1:])
            assert seam == wordcore.canon_items(joined, alpha)


def _random_canonical(group, rng, max_edges, exp):
    """Canonical closed word from a random edge walk that returns to the base
    along the tree, with random exponents; built with ``canon_items`` only,
    so it never calls the ``mul_items`` under test."""
    graph = group.graph
    back = paths_from(graph, group.base, group.spanning.tree_edges)
    v = group.base
    items = [rng.randint(-exp, exp)]
    for _ in range(rng.randint(0, max_edges)):
        e = rng.choice(graph.edges_from(v))
        items += [e, rng.randint(-exp, exp)]
        v = graph.terminus[e]
    for e in reversed(back[v]):
        items += [e ^ 1, rng.randint(-exp, exp)]
    return pure.canon_items(items, graph.alpha)


def test_mul_items_matches_canon_of_joined_word(bs23, gbs2, two_vertex,
                                                chain3):
    """The carry sweep of ``mul_items`` stops at the first unchanged residue;
    the product must still equal the full canonicalization of the joined
    word.  Huge seam exponents drive carries through the whole of ``b`` on
    the HNN fixtures (on the amalgams a carry never passes a back-and-forth
    pair, since it adds a multiple of the next modulus)."""
    rng = random.Random(31)
    longest = through = 0
    for group in (bs23, gbs2, two_vertex, chain3):
        alpha = group.graph.alpha
        for trial in range(1000):
            a = _random_canonical(group, rng, 12, 6)
            b = _random_canonical(group, rng, 60, 6)
            if trial % 3 == 0:
                a[-1] += rng.choice((-1, 1)) * 10 ** rng.randint(3, 60)
            joined = a[:-1] + [a[-1] + b[0]] + b[1:]
            got = pure.mul_items(list(a), list(b), alpha)
            assert got == pure.canon_items(list(joined), alpha)
            if len(got) == len(joined) and len(b) > 1:
                tail = range(len(a) - 1, len(got) - 1, 2)
                longest = max(longest, sum(got[k] != joined[k] for k in tail))
                through += got[-3] != joined[-3]
    # carry chains many pairs long, and into the residue before b's last edge
    assert longest >= 15 and through >= 200, (longest, through)
