"""The BFS helper, spanning trees and the name resolver
against brute-force oracles on seeded random graphs."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbs.graphs import (GraphError, SpanningData, compute_spanning_tree,
                        paths_from, parse_graph)
from gbs import indices, wordcore
from gbs.indices import (TheoremVerdict, big_N, check_theorem, index_report,
                         modular_value)
from gbs.words import GbsGroup, closed_words, random_closed_word

from conftest import random_graph_text
from oracles import oracle_big_n

INF = float("inf")


def _graphs(seed=7, count=200):
    rng = random.Random(seed)
    return [(text, *parse_graph(text))
            for text in (random_graph_text(rng) for _ in range(count))]


def test_generator_covers_the_shapes():
    graphs = _graphs()
    loops = parallel = negative = declared = computed = 0
    for text, graph, spanning in graphs:
        ends = [(graph.origin[e], graph.terminus[e])
                for e in range(0, graph.n_edges, 2)]
        loops += any(o == t for o, t in ends)
        parallel += len({frozenset(p) for p in ends}) < len(ends)
        negative += any(a < 0 for a in graph.alpha)
        declared += "tree " in text
        computed += "tree " not in text and graph.n_vertices > 1
    assert {g.n_vertices for _, g, _ in graphs} == {1, 2, 3, 4, 5}
    assert min(loops, parallel, negative, declared, computed) >= 5


def _scan_bfs_tree(graph, base):
    """Breadth-first search that scans every edge for every vertex."""
    seen, tree, queue = {base}, set(), [base]
    while queue:
        v = queue.pop(0)
        for e in range(graph.n_edges):
            if graph.origin[e] == v and graph.terminus[e] not in seen:
                seen.add(graph.terminus[e])
                tree |= {e, e ^ 1}
                queue.append(graph.terminus[e])
    return frozenset(tree)


def test_spanning_tree_matches_scanning_bfs():
    for _, graph, _ in _graphs():
        for v in range(graph.n_vertices):
            assert graph.edges_from(v) == tuple(
                e for e in range(graph.n_edges) if graph.origin[e] == v)
        for base in range(graph.n_vertices):
            assert compute_spanning_tree(graph, base) == _scan_bfs_tree(graph, base)


def _floyd_warshall(graph, edges):
    n = graph.n_vertices
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for e in edges:
        o, t = graph.origin[e], graph.terminus[e]
        if o != t:
            d[o][t] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _check_paths(graph, source, paths, edges):
    for v, path in paths.items():
        at = source
        for e in path:
            assert e in edges and graph.origin[e] == at
            at = graph.terminus[e]
        assert at == v


def test_path_lengths_match_floyd_warshall():
    for _, graph, spanning in _graphs():
        every = range(graph.n_edges)
        full = _floyd_warshall(graph, every)
        tree = _floyd_warshall(graph, spanning.tree_edges)
        for s in range(graph.n_vertices):
            paths = paths_from(graph, s)
            _check_paths(graph, s, paths, every)
            assert {v: len(p) for v, p in paths.items()} == {
                v: full[s][v] for v in range(graph.n_vertices)}
            # inside the maximal subtree the path is the unique tree path
            paths = paths_from(graph, s, spanning.tree_edges)
            _check_paths(graph, s, paths, spanning.tree_edges)
            assert {v: len(p) for v, p in paths.items()} == {
                v: tree[s][v] for v in range(graph.n_vertices)}


def test_resolver_names_and_indices():
    for _, graph, _ in _graphs(count=20):
        for e in range(graph.n_edges):
            assert graph.edge_id(e) == e
            assert graph.edge_id(graph.edge_name(e)) == e
        for v, name in enumerate(graph.vertices):
            assert graph.vertex_id(v) == v
            assert graph.vertex_id(name) == v
        for bad in (-1, graph.n_edges, graph.n_edges + 5):
            with pytest.raises(GraphError, match="unknown edge index"):
                graph.edge_id(bad)
        for bad in (-1, graph.n_vertices):
            with pytest.raises(GraphError, match="unknown vertex index"):
                graph.vertex_id(bad)


def test_check_theorem_matches_kappa_pairs():
    met = set()
    for _, graph, spanning in _graphs():
        non_tree = [e for e in range(0, graph.n_edges, 2)
                    if e not in spanning.tree_edges]
        kappa = index_report(graph, spanning).kappa
        mismatched = [graph.edge_name(e) for e in non_tree
                      if len(set(kappa[graph.edge_name(e)])) == 2]
        verdict = check_theorem(graph, spanning)
        assert verdict == TheoremVerdict(
            not_a_tree=bool(non_tree),
            all_groups_z=True,
            exists_kappa_mismatch=bool(mismatched),
            witness_edge=mismatched[0] if mismatched else None,
            all_proper=all(abs(a) >= 2 for a in graph.alpha))
        met.add(verdict.sufficient_conditions_met)
    assert met == {True, False}


def test_kappa_ratio_is_modular_value():
    """kappa_y / kappa_ybar = |Delta(g_y)| on every non-tree declared edge
    of the first 2,000 seeded random graphs, where Delta is the modular
    homomorphism ``modular_value``: kappa mismatch is non-unimodularity."""
    rng = random.Random(0)
    edges = 0
    for _ in range(2000):
        group = GbsGroup.from_text(random_graph_text(rng))
        graph, spanning = group.graph, group.spanning
        kappa = index_report(graph, spanning).kappa
        for e in range(0, graph.n_edges, 2):
            if e not in spanning.tree_edges:
                ky, kyb = kappa[graph.edge_name(e)]
                assert Fraction(ky, kyb) == abs(
                    modular_value(group.edge_generator(e))), graph.edge_name(e)
                edges += 1
    assert edges == 2938


def test_k_prime_mutant_breaks_the_ratio(monkeypatch):
    """The ratio oracle can fail: k_c and k_cbar swapped inside _k_prime
    give kappa_y / kappa_ybar != |Delta(g_y)| on some seeded graph."""
    real = indices._k_prime
    monkeypatch.setattr(indices, "_k_prime",
                        lambda graph, e, kc, kcbar: real(graph, e, kcbar, kc))
    rng = random.Random(0)
    for _ in range(200):
        group = GbsGroup.from_text(random_graph_text(rng))
        graph, spanning = group.graph, group.spanning
        kappa = index_report(graph, spanning).kappa
        for e in range(0, graph.n_edges, 2):
            if e not in spanning.tree_edges:
                ky, kyb = kappa[graph.edge_name(e)]
                if Fraction(ky, kyb) != abs(
                        modular_value(group.edge_generator(e))):
                    return
    pytest.fail("no graph tells the mutant apart")


def test_big_n_matches_oracle_on_random_graphs():
    """big_N of every directed non-tree edge of the first 100 seeded random
    graphs against the brute-force search for the least j with
    t^2 a^j t^-2 in <b>."""
    rng = random.Random(0)
    edges = 0
    for _ in range(100):
        group = GbsGroup.from_text(random_graph_text(rng))
        graph, spanning = group.graph, group.spanning
        for e in range(graph.n_edges):
            if e not in spanning.tree_edges:
                assert big_N(graph, spanning, e) == \
                    oracle_big_n(group, e, bound=2000), graph.edge_name(e)
                edges += 1
    assert edges == 320


def _spanning_choices(graph):
    """Every maximal subtree of ``graph`` with every base vertex."""
    for pairs in itertools.combinations(range(graph.n_edges // 2),
                                        graph.n_vertices - 1):
        edges = frozenset(x for p in pairs for x in (2 * p, 2 * p + 1))
        if len(paths_from(graph, 0, edges)) == graph.n_vertices:
            for base in range(graph.n_vertices):
                yield SpanningData(edges, base)


def test_verdict_is_tree_invariant():
    """exists_kappa_mismatch (|Delta| nontrivial, a property of the group)
    and sufficient_conditions_met do not depend on the maximal subtree or
    the base: every choice on the first 400 seeded random graphs."""
    rng = random.Random(0)
    choices = 0
    for _ in range(400):
        graph, spanning = parse_graph(random_graph_text(rng))
        verdict = check_theorem(graph, spanning)
        for other in _spanning_choices(graph):
            got = check_theorem(graph, other)
            assert (got.exists_kappa_mismatch, got.sufficient_conditions_met) \
                == (verdict.exists_kappa_mismatch,
                    verdict.sufficient_conditions_met)
            choices += 1
    assert choices == 4144


def test_word_printer_roundtrip():
    words = 0
    for _, graph, spanning in _graphs(count=50):
        group = GbsGroup(graph, spanning)
        for items in closed_words(group, 2, 1):
            g = group.element(items)
            assert group.from_string(group.to_string(g)) == g
            words += 1
    assert words > 10_000


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_graph_text_roundtrip_on_random_graphs(rng):
    """``to_text`` is a fixed point of ``parse_graph``: the printed text
    parses back to the same graph, base and tree edges, and prints again
    unchanged."""
    graph, spanning = parse_graph(random_graph_text(rng))
    text = graph.to_text(spanning)
    graph2, spanning2 = parse_graph(text)
    assert graph2.to_text(spanning2) == text
    for field in ("vertices", "edge_names", "origin", "terminus", "alpha"):
        assert getattr(graph2, field) == getattr(graph, field)
    assert spanning2 == spanning


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_word_string_roundtrip_on_random_graphs(rng):
    """``from_string`` inverts ``to_string`` on ``random_closed_word``
    draws over a random graph."""
    group = GbsGroup.from_text(random_graph_text(rng))
    for _ in range(5):
        g = random_closed_word(group, rng, 4, 6, nontrivial=False)
        assert group.from_string(group.to_string(g)) == g


def _trailing_shift_failure(group, rng):
    """The first of five random draws on which the kernel breaks one of
    the facts behind ``opsim``'s fibered ball, or None.  For canonical g
    and x = s a^k (a the base generator, s the skeleton): mul(g, s a^k) is
    mul(g, s a^0) with k added to the trailing exponent, and mul(x, (r,))
    is x with r added to it.  Half the g end in x^-1, so that the pinch
    loop consumes x's edges up to its trailing exponent."""
    alpha = group.graph.alpha
    mul = wordcore.mul_items
    for _ in range(5):
        x = random_closed_word(group, rng, 4, 12, nontrivial=False)
        g = random_closed_word(group, rng, 4, 12, nontrivial=False)
        if rng.random() < 0.5:
            g = g * x.inverse()
        s, k, r = list(x.items[:-1]), x.items[-1], rng.randint(-40, 40)
        h = mul(list(g.items), s + [0], alpha)
        if mul(list(g.items), s + [k], alpha) != h[:-1] + [h[-1] + k]:
            return "left", g, x
        if mul(list(x.items), [r], alpha) != s + [k + r]:
            return "right", x, r
    return None


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_products_shift_the_trailing_exponent(rng):
    group = GbsGroup.from_text(random_graph_text(rng))
    assert group.vertex_generator(group.base).items == (1,)
    assert _trailing_shift_failure(group, rng) is None


def test_trailing_shift_catches_a_kernel_that_reads_it(monkeypatch):
    """The property can fail: a kernel that sweeps b's trailing exponent
    into [0, |alpha(bar e)|), e b's last edge, like the exponents before
    edges, breaks it on some seeded graph."""
    real = wordcore.mul_items

    def mutant(a, b, alpha):
        if len(b) > 1:
            b = b[:-1] + [b[-1] % abs(alpha[b[-2] ^ 1])]
        return real(a, b, alpha)

    monkeypatch.setattr(wordcore, "mul_items", mutant)
    rng = random.Random(0)
    for _ in range(50):
        group = GbsGroup.from_text(random_graph_text(rng))
        if _trailing_shift_failure(group, rng) is not None:
            return
    pytest.fail("no graph tells the mutant apart")
