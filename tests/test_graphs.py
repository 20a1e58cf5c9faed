import pytest

from gbs.graphs import (Decomposition, GbsGraph, GraphError, ParseError,
                        compute_spanning_tree, decompose, parse_graph)

from conftest import BS23_TEXT, CHAIN3_TEXT, FIXTURES, GBS2_TEXT, TWO_VERTEX_TEXT


def test_parse_bs23():
    graph, spanning = parse_graph(BS23_TEXT)
    assert graph.vertices == ("P",)
    assert graph.edge_names == ("y",)
    assert graph.alpha == (3, 2)
    assert spanning.tree_edges == frozenset()
    assert spanning.base == 0


def test_parse_gbs2():
    graph, spanning = parse_graph(GBS2_TEXT)
    assert graph.vertices == ("P", "Q")
    assert graph.alpha == (2, 3, 4, 5)
    assert spanning.tree_edges == frozenset({0, 1})
    assert spanning.base == 0


def test_computed_tree_is_unique_for_gbs2():
    # dropping the explicit stanza picks the same tree: w comes first
    text = "\n".join(l for l in GBS2_TEXT.splitlines() if not l.startswith("tree"))
    graph, spanning = parse_graph(text)
    assert spanning.tree_edges == frozenset({0, 1})


def test_reversed_edge_naming():
    graph, _ = parse_graph(GBS2_TEXT)
    e = graph.edge_id("~y")
    assert e == graph.edge_id("y") ^ 1
    assert graph.edge_name(e) == "~y"
    assert graph.origin[e] == graph.vertex_id("Q")


def test_alpha_zero_rejected():
    with pytest.raises(ParseError, match="alpha must be nonzero"):
        parse_graph("vertex P\nedge y : P -> Q alpha 0 2\n")


def test_syntax_error_carries_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("vertex P\n\nedge y : P -> alpha 1 2\n")


def test_unknown_directive():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_graph("vertx P\n")


def test_disconnected_rejected():
    text = "vertex P\nvertex Q\nvertex R\nedge w : P -> Q alpha 2 2\n"
    with pytest.raises(ParseError, match="not connected"):
        parse_graph(text)


def test_declared_tree_must_be_maximal():
    text = GBS2_TEXT.replace("tree w", "tree w y")
    with pytest.raises(ParseError, match="maximal"):
        parse_graph(text)
    with pytest.raises(ParseError, match="maximal"):
        parse_graph(GBS2_TEXT.replace("tree w", "tree"))  # explicitly empty tree


def test_graph_constructor_checks():
    cases = [
        ([], [], "at least one vertex"),
        (["P", "P"], [], "duplicate vertex name"),
        (["P"], [("y", "P", "P", 1, 2), ("y", "P", "P", 2, 1)],
         "duplicate edge name 'y'"),
        (["P"], [("y", "Q", "P", 1, 2)], "unknown origin vertex 'Q'"),
        (["P"], [("y", "P", "Q", 1, 2)], "unknown terminus vertex 'Q'"),
        (["P"], [("y", "P", "P", 0, 2)], "edge 'y': alpha must be nonzero"),
    ]
    for vertices, edges, message in cases:
        with pytest.raises(GraphError, match=message):
            GbsGraph(vertices, edges)


def test_parse_line_checks():
    cases = [
        ("vertex P Q\n", "line 1: expected: vertex <id>"),
        ("vertex P\nbase\n", "line 2: expected: base <vertex-id>"),
        ("vertex P\nbase P Q\n", "line 2: expected: base <vertex-id>"),
        ("vertex 1P\n", "line 1: bad identifier '1P'"),
        ("vertex P\nedge 9y : P -> P alpha 1 2\n",
         "line 2: bad identifier '9y'"),
        # two of the three pairs, as a maximal tree needs, but a cycle on P, Q
        ("vertex P\nvertex Q\nvertex R\nedge w : P -> Q alpha 2 3\n"
         "edge u : P -> Q alpha 2 3\nedge v : Q -> R alpha 2 3\ntree w u\n",
         "line 7: declared tree does not span all vertices"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError, match=message):
            parse_graph(text)


def test_roundtrip_all_fixtures():
    for path in sorted(FIXTURES.glob("*.gbs")):
        graph, spanning = parse_graph(path.read_text())
        text = graph.to_text(spanning)
        graph2, spanning2 = parse_graph(text)
        assert graph2.vertices == graph.vertices
        assert graph2.edge_names == graph.edge_names
        assert graph2.alpha == graph.alpha
        assert graph2.origin == graph.origin
        assert spanning2.tree_edges == spanning.tree_edges
        assert spanning2.base == spanning.base


def test_spanning_tree_shape():
    for text in (BS23_TEXT, GBS2_TEXT, TWO_VERTEX_TEXT, CHAIN3_TEXT):
        graph, _ = parse_graph(text)
        tree = compute_spanning_tree(graph, 0)
        assert len(tree) // 2 == graph.n_vertices - 1
        # spans: every vertex reachable through tree edges
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in tree:
                if graph.origin[e] == v and graph.terminus[e] not in seen:
                    seen.add(graph.terminus[e])
                    stack.append(graph.terminus[e])
        assert len(seen) == graph.n_vertices


def test_decompose_bs23_loop_is_hnn():
    graph, _ = parse_graph(BS23_TEXT)
    dec = decompose(graph, "y")
    assert dec.kind == Decomposition.HNN
    assert len(dec.components) == 1
    assert dec.components[0][0] == frozenset({0})
    assert dec.components[0][1] == frozenset()


def test_decompose_gbs2_tree_edge_is_hnn():
    # removing {w, ~w} leaves the y pair joining P and Q
    graph, _ = parse_graph(GBS2_TEXT)
    dec = decompose(graph, "w")
    assert dec.kind == Decomposition.HNN


def test_decompose_two_vertex_is_amalgam():
    graph, _ = parse_graph(TWO_VERTEX_TEXT)
    dec = decompose(graph, "w")
    assert dec.kind == Decomposition.AMALGAM
    sides = {frozenset(graph.vertices[v] for v in comp[0])
             for comp in dec.components}
    assert sides == {frozenset({"P"}), frozenset({"Q"})}


def test_decompose_matches_connectivity_traversal():
    for text in (BS23_TEXT, GBS2_TEXT, TWO_VERTEX_TEXT, CHAIN3_TEXT):
        graph, _ = parse_graph(text)
        for e in range(graph.n_edges):
            dec = decompose(graph, e)
            # independent oracle: union-find over the remaining edges
            parent = list(range(graph.n_vertices))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for x in range(graph.n_edges):
                if x // 2 != e // 2:
                    a, b = find(graph.origin[x]), find(graph.terminus[x])
                    parent[a] = b
            n_comp = len({find(v) for v in range(graph.n_vertices)})
            expected = Decomposition.HNN if n_comp == 1 else Decomposition.AMALGAM
            assert dec.kind == expected
            total_vertices = sum(len(c[0]) for c in dec.components)
            assert total_vertices == graph.n_vertices


def test_unknown_edge():
    graph, _ = parse_graph(BS23_TEXT)
    with pytest.raises(GraphError, match="unknown edge"):
        decompose(graph, "z")
