import pytest

from gbs.graphs import (GbsGraph, GraphError, ParseError, compute_spanning_tree,
                        parse_graph)

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
        # names are identifiers, as parse_graph demands: exports print them
        # unquoted, so a quote or a backslash would break their strings
        (['P"'], [], "bad identifier 'P\"'"),
        (["P", 1], [], "bad identifier 1"),
        (["P"], [("y\\", "P", "P", 1, 2)], r"bad identifier 'y\\\\'"),
        (["P"], [("~y", "P", "P", 1, 2)], "bad identifier '~y'"),
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
        ("vertex P\nbase Q\n", "line 2: unknown vertex 'Q'"),
        ("vertex P\nvertex Q\nedge w : P -> Q alpha 2 3\ntree w\ntree z\n",
         "line 5: unknown edge 'z'"),
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


def test_unknown_edge():
    graph, _ = parse_graph(BS23_TEXT)
    with pytest.raises(GraphError, match="unknown edge"):
        graph.edge_id("z")


def test_package_exports_resolve():
    import gbs
    assert [name for name in gbs.__all__ if not hasattr(gbs, name)] == []
    namespace = {}
    exec("from gbs import *", namespace)
    assert set(gbs.__all__) <= set(namespace)
