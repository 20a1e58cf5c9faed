import importlib.util
import itertools
import json
import pathlib
import random
import re
from collections import Counter

import pytest

from gbs import tree, wordcore
from gbs.graphs import GraphError
from gbs.words import GbsGroup
from gbs.words import WordError, closed_words, path_string, random_closed_word

from conftest import bs_text, random_graph_text
from oracles import tree_degrees, tree_depths


def test_ball_radius_zero(bs23):
    b = tree.ball(bs23, 0)
    assert len(b.vertices) == 1
    assert b.vertices[0] == tree.base_vertex(bs23)
    with pytest.raises(GraphError, match="radius must be nonnegative"):
        tree.ball(bs23, -1)


def test_ball_sizes_bs23(bs23):
    b = tree.ball(bs23, 1)
    assert len(b.vertices) == 6
    assert tree_degrees(b)[0] == 5
    b3 = tree.ball(bs23, 3)
    assert len(b3.vertices) == 1 + 5 + 20 + 80


def test_gbs2_center_degree(gbs2):
    b = tree.ball(gbs2, 1)
    assert tree_degrees(b)[0] == 3 + 5     # |alpha(~w)| + |alpha(~y)|


def _tree_counts(group, radius):
    """Vertices of the radius-r ball of the covering tree by (depth, vertex
    type), from the degrees alone: a type-P vertex has |alpha(bar f)|
    neighbours along each out-edge f, and when it was reached along e one
    of those along bar e is its parent."""
    graph = group.graph
    counts = Counter()
    layer = Counter({(group.base, None): 1})    # (type, arrival edge) -> count
    for depth in range(radius + 1):
        nxt = Counter()
        for (v, arrived), c in layer.items():
            counts[depth, v] += c
            for f in graph.edges_from(v):
                parent = arrived is not None and f == arrived ^ 1
                nxt[graph.terminus[f], f] += c * (abs(graph.alpha[f ^ 1])
                                                  - parent)
        layer = nxt
    return counts


def test_balls_are_trees(bs23, gbs2, two_vertex, chain3):
    """The ball holds exactly the covering tree's vertices: a duplicated
    coset would add vertices at some depth, merged cosets would lose some."""
    for group in (bs23, gbs2, two_vertex, chain3):
        for r in range(5):
            b = tree.ball(group, r)
            got = Counter((d, v.vertex)
                          for d, v in zip(tree_depths(b), b.vertices))
            assert got == _tree_counts(group, r), (group.graph.vertices, r)


def _tree_ball_size():
    """perfbench's recursive ball-size oracle (perfbench/run.py)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tree_ball_size


def test_layer_sizes_match_ball_oracles(bs23, gbs2, two_vertex, chain3):
    oracle = _tree_ball_size()
    for group in (bs23, gbs2, two_vertex, chain3):
        sizes = list(itertools.islice(tree.layer_sizes(group), 8))
        for r in range(8):
            assert sum(sizes[:r + 1]) == oracle(group.graph, group.base, r)
        b = tree.ball(group, 4)
        assert sizes[:5] == [n for _, n in sorted(
            Counter(tree_depths(b)).items())]
    assert list(tree.layer_sizes(GbsGroup.from_text("vertex P\n"))) == [1]


def test_ball_caps(bs23, monkeypatch):
    """Over-cap balls are refused before the BFS; bs23 at radius 3 has 106
    vertices and 1 + 5*3 + 20*5 + 80*7 = 676 key letters."""
    with pytest.raises(GraphError, match="cap of 500000 vertices"):
        tree.ball(bs23, 3_000_000)
    line = GbsGroup.from_text(bs_text(1, 1))     # Z^2: the tree is a line
    with pytest.raises(GraphError, match="cap of 10000000 key letters"):
        tree.ball(line, 10_000)
    monkeypatch.setattr(tree, "MAX_BALL_VERTICES", 106)
    monkeypatch.setattr(tree, "MAX_BALL_KEY_LETTERS", 676)
    assert len(tree.ball(bs23, 3).vertices) == 106
    monkeypatch.setattr(tree, "MAX_BALL_VERTICES", 105)
    with pytest.raises(GraphError, match="cap of 105 vertices"):
        tree.ball(bs23, 3)
    monkeypatch.setattr(tree, "MAX_BALL_VERTICES", 106)
    monkeypatch.setattr(tree, "MAX_BALL_KEY_LETTERS", 675)
    with pytest.raises(GraphError, match="cap of 675 key letters"):
        tree.ball(bs23, 3)


def test_interior_degrees(bs23, gbs2, two_vertex):
    for group in (bs23, gbs2, two_vertex):
        graph = group.graph
        b = tree.ball(group, 3)
        degrees = tree_degrees(b)
        interior = [(i, v) for i, (v, d) in enumerate(
            zip(b.vertices, tree_depths(b))) if d < 3]
        assert interior
        for i, v in interior:
            expected = sum(abs(graph.alpha[e ^ 1])
                           for e in graph.edges_from(v.vertex))
            assert degrees[i] == expected


def test_covering_endpoint_formulas(bs23, gbs2):
    """The adjacency produced by the residue construction matches the
    orientation-based endpoint formulas o(g iota_y) = g g_y^e(y) G_o and
    t(g iota_y) = g g_y^(1-e(y)) G_t, written on each pair's declared
    direction (the orientation), for which e = 0."""

    def key_of(group, items, _):
        k = wordcore.canon_items(list(items), group.graph.alpha)
        k[-1] = 0
        return tuple(k)

    for group in (bs23, gbs2):
        b = tree.ball(group, 2)
        for i, j, e, rho in b.edges:
            u = b.vertices[i]     # type o(e)
            w = b.vertices[j]     # type t(e)
            h = list(u.key)
            h[-1] = rho
            if e % 2 == 0:
                # edge coset h iota_e: o = h G_{o(e)}, t = (h g_e) G_{t(e)}
                assert key_of(group, h, e) == u.key
                assert key_of(group, h + [e, 0], e) == w.key
            else:
                # write the coset on the oriented partner: g = h g_e, then
                # o(g iota_bar) = g G_{t(e)} = w and t = (g g_bar) G_{o(e)} = u
                g = h + [e, 0]
                assert key_of(group, g, e) == w.key
                assert key_of(group, g + [e ^ 1, 0], e) == u.key


def test_act_examples(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    base = tree.base_vertex(bs23)
    assert tree.act(bs23, a, base) == base
    tv = tree.act(bs23, t, base)
    assert tv != base
    # a moves t G_P since t^-1 a t is no vertex power (1 not in 3Z)
    assert tree.act(bs23, a, tv) != tv


def test_act_is_action(bs23, gbs2):
    rng = random.Random(43)
    for group in (bs23, gbs2):
        b = tree.ball(group, 2)
        for _ in range(200):
            g = random_closed_word(group, rng, 4, 5)
            h = random_closed_word(group, rng, 4, 5)
            v = rng.choice(b.vertices)
            assert tree.act(group, g * h, v) == \
                tree.act(group, g, tree.act(group, h, v))
        e = group.identity()
        for v in b.vertices[:10]:
            assert tree.act(group, e, v) == v


def test_coset_key_invariance(bs23, gbs2):
    rng = random.Random(47)
    for group in (bs23, gbs2):
        for _ in range(300):
            g = random_closed_word(group, rng, 4, 6, nontrivial=False)
            v = rng.randrange(group.graph.n_vertices)
            geo = group.geodesic_items(v)
            rep = wordcore.mul_items(list(g.items), list(geo), group.graph.alpha)
            k = rng.randint(-5, 5)
            rep_shifted = list(rep)
            rep_shifted[-1] += k
            assert tree.coset_vertex(group, rep, v) == \
                tree.coset_vertex(group, rep_shifted, v)


def test_stabilizes(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    base = tree.base_vertex(bs23)
    tv = tree.act(bs23, t, base)
    assert tree.stabilizes(bs23, a, base)
    assert not tree.stabilizes(bs23, t, base)
    assert not tree.stabilizes(bs23, a, tv)
    assert tree.stabilizes(bs23, a ** 2, tv)   # t^-1 a^2 t = a^3


def _assert_bfs_depth(group, v, d):
    """``moved_vertex``'s depth d of v is v's BFS depth in the ball."""
    b = tree.ball(group, d)
    assert tree_depths(b)[b.vertices.index(v)] == d


def test_moved_vertex_examples(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    v, d = tree.moved_vertex(bs23, a, 10)
    assert d == 1
    _assert_bfs_depth(bs23, v, d)
    v, d = tree.moved_vertex(bs23, t, 10)
    assert d == 0
    _assert_bfs_depth(bs23, v, d)
    with pytest.raises(WordError):
        tree.moved_vertex(bs23, bs23.identity(), 10)


def test_moved_vertex_exhaustion_reported(bs23):
    a = bs23.vertex_generator("P")
    with pytest.raises(tree.SearchExhausted):
        tree.moved_vertex(bs23, a ** 6, 1)     # a^6 fixes the radius-1 ball


def test_faithfulness_random_words(bs23, gbs2):
    rng = random.Random(53)
    for group in (bs23, gbs2):
        for _ in range(60):
            g = random_closed_word(group, rng, 6, 8)
            v, d = tree.moved_vertex(group, g, 2 * g.edge_length + 2)
            assert d <= 2 * g.edge_length + 2
            _assert_bfs_depth(group, v, d)


def _joint_stabilizer_implies(group, cover, target, words):
    joint = 0
    for h in words:
        if all(tree.stabilizes(group, h, v) for v in cover):
            joint += 1
            assert tree.stabilizes(group, h, target)
    return joint


def test_stabilizer_cover_hnn_loop(bs23):
    e = bs23.identity()
    cover = tree.stabilizer_cover(bs23, e, "y")
    t = bs23.edge_generator("y")
    p = tree.base_vertex(bs23)
    assert cover[0] == p
    assert cover[1] == tree.act(bs23, t.inverse(), p)
    words = [bs23.element(list(it)) for it in closed_words(bs23, 4, 3)]
    assert _joint_stabilizer_implies(bs23, cover, p, words) > 1


def test_stabilizer_cover_amalgam(two_vertex):
    e = two_vertex.identity()
    cover = tree.stabilizer_cover(two_vertex, e, "w")
    p = tree.base_vertex(two_vertex)
    b = two_vertex.vertex_generator("Q")
    assert cover[0] == p
    assert cover[1] == tree.act(two_vertex, b, p)
    q = two_vertex.graph.vertex_id("Q")
    target = tree.coset_vertex(two_vertex, two_vertex.geodesic_items(q), q)
    words = [two_vertex.element(list(it)) for it in closed_words(two_vertex, 4, 3)]
    assert _joint_stabilizer_implies(two_vertex, cover, target, words) > 1


def test_stabilizer_cover_amalgam_needs_proper_subgroup():
    group = GbsGroup.from_text("vertex P\nvertex Q\nedge w : P -> Q alpha 1 3\n")
    with pytest.raises(GraphError, match="amalgam branch needs a proper edge"):
        tree.stabilizer_cover(group, group.identity(), "w")


def _vertex_group_power(group, v, k):
    """h a^k h^-1, a^k the k-th power of the vertex generator of v = h G."""
    rep = list(v.key)
    return group.element(rep[:-1] + [k] + wordcore.inv_items(rep)[1:])


def test_stabilizer_cover_gbs2_tree_edge(gbs2):
    g = gbs2.edge_generator("y")
    cover = tree.stabilizer_cover(gbs2, g, "w")
    q = gbs2.graph.vertex_id("Q")
    target = tree.act(gbs2, g,
                      tree.coset_vertex(gbs2, gbs2.geodesic_items(q), q))
    words = [gbs2.element(list(it)) for it in closed_words(gbs2, 4, 3)]
    assert _joint_stabilizer_implies(gbs2, cover, target, words) >= 1
    # The joint stabilizer lies in the cyclic stabilizer of each cover vertex,
    # so the least power of that vertex group that fixes the other vertex
    # generates it.  Its members: products of powers of both generators.
    gens = []
    for v, other in (cover, cover[::-1]):
        k = next(k for k in range(1, 100) if tree.stabilizes(
            gbs2, _vertex_group_power(gbs2, v, k), other))
        gens.append(_vertex_group_power(gbs2, v, k))
    members = {gens[0] ** i * gens[1] ** j
               for i in range(-5, 6) for j in range(-5, 6)}
    members.discard(gbs2.identity())
    assert len(members) >= 20
    assert (_joint_stabilizer_implies(gbs2, cover, target, members)
            == len(members))


def test_exports(bs23):
    b = tree.ball(bs23, 1)
    dot = b.to_dot()
    assert dot.startswith("graph ball {") and dot.rstrip().endswith("}")
    assert dot.count(" -- ") == len(b.edges)
    d = b.to_json_dict()
    json.dumps(d)
    assert d["radius"] == 1
    assert len(d["vertices"]) == 6
    assert len(d["edges"]) == 5
    assert {v["frontier"] for v in d["vertices"]} == {True, False}


def test_exports_match_vertex_oracles(bs23, gbs2, two_vertex, chain3):
    """Each vertex's key has 2d + 1 items, d its BFS depth counted over the
    ball's edges; each exported key is ``path_string`` of the vertex's key,
    each depth d, each frontier flag whether d is the radius, and each dot
    label "<type> | <key>": on the four fixtures at radii 0-4 and on 20
    seeded random graphs, each at the largest radius up to 3 whose ball has
    at most 2,000 vertices."""
    rng = random.Random(31)
    cases = [(g, r) for g in (bs23, gbs2, two_vertex, chain3)
             for r in range(5)]
    for _ in range(20):
        group = GbsGroup.from_text(random_graph_text(rng))
        sizes = itertools.accumulate(
            itertools.islice(tree.layer_sizes(group), 4))
        cases.append((group, max(r for r, n in enumerate(sizes) if n <= 2000)))
    for group, r in cases:
        graph = group.graph
        b = tree.ball(group, r)
        depths = tree_depths(b)
        assert [len(v.key) for v in b.vertices] == \
            [2 * d + 1 for d in depths], (graph.vertices, r)
        rows = b.to_json_dict()["vertices"]
        labels = re.findall(r'^  v(\d+) \[label="(.*)"\];$', b.to_dot(), re.M)
        assert len(rows) == len(labels) == len(b.vertices)
        for i, (v, row, label) in enumerate(zip(b.vertices, rows, labels)):
            name = graph.vertices[v.vertex]
            key = path_string(graph, group.base, v.key)
            assert row == {"id": i, "vertex": name, "key": key,
                           "depth": depths[i],
                           "frontier": depths[i] == r}, (graph.vertices, r)
            assert label == (str(i), f"{name} | {key}")
