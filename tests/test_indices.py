import random
from fractions import Fraction

import pytest

from gbs import indices
from gbs.graphs import GraphError, parse_graph, paths_from
from gbs.words import GbsGroup, random_closed_word

from conftest import bs_text
from oracles import oracle_big_n


def oracle_relative_order(group, source_vertex, target_vertex, bound=1000):
    """Minimal k > 0 with a_source^k inside <a_target>, by exponent search."""
    a = group.vertex_generator(source_vertex)
    for k in range(1, bound + 1):
        if group.as_vertex_power(a ** k, target_vertex) is not None:
            return k
    raise AssertionError("oracle bound exceeded")


def test_geodesic_k_empty_path(bs23):
    assert indices._index_along(bs23.graph.alpha, []) == 1


def test_geodesic_k_gbs2(gbs2):
    w = gbs2.graph.edge_id("w")
    assert indices._index_along(gbs2.graph.alpha, [w]) == 2
    assert indices._index_along(gbs2.graph.alpha, [w ^ 1]) == 3
    # oracle: [G_Q : G_Q cap G_P] and the reverse
    assert oracle_relative_order(gbs2, "Q", "P") == 2
    assert oracle_relative_order(gbs2, "P", "Q") == 3


def test_geodesic_k_two_step_chain(chain3):
    g = chain3.graph
    path = [g.edge_id("w1"), g.edge_id("w2")]
    # k_1 = m_1 = 2; k_2 = 2*3/gcd(2, 2) = 3
    assert indices._index_along(g.alpha, path) == 3
    assert oracle_relative_order(chain3, "R", "P") == 3


def test_geodesic_k_matches_oracle_on_all_tree_paths(gbs2, chain3):
    for group in (gbs2, chain3):
        g = group.graph
        for p in range(g.n_vertices):
            for q in range(g.n_vertices):
                path = paths_from(g, p, group.spanning.tree_edges)[q]
                k = indices._index_along(g.alpha, path)
                assert k == oracle_relative_order(
                    group, g.vertices[q] if path else g.vertices[p],
                    g.vertices[p])


def oracle_kappa(group, edge):
    """[iota_bar(G_y) : iota_bar cap iota] by exponent search <= 1000."""
    graph = group.graph
    e = graph.edge_id(edge) if isinstance(edge, str) else edge
    a_t = group.vertex_generator(graph.terminus[e])
    b_o = group.vertex_generator(graph.origin[e])
    alpha_y = graph.alpha[e]
    alpha_bar = graph.alpha[e ^ 1]
    kappa_bar = None
    for j in range(1, 1001):
        if group.cyclic_membership(b_o ** (alpha_bar * j),
                                   graph.terminus[e], abs(alpha_y)) is not None:
            kappa_bar = j
            break
    kappa = None
    for j in range(1, 1001):
        if group.cyclic_membership(a_t ** (alpha_y * j),
                                   graph.origin[e], abs(alpha_bar)) is not None:
            kappa = j
            break
    return kappa, kappa_bar


def test_kappa_examples(bs23, gbs2):
    assert indices.index_report(bs23.graph, bs23.spanning).kappa["y"] == (2, 3)
    g22, s22 = parse_graph(bs_text(2, 2))
    assert indices.index_report(g22, s22).kappa["y"] == (1, 1)
    report = indices.index_report(gbs2.graph, gbs2.spanning)
    assert report.kappa["y"] == (5, 6)
    assert report.k_prime["y"] == (20, 30)


def test_kappa_matches_oracle_everywhere(bs23, gbs2, chain3, two_vertex):
    for group in (bs23, gbs2, chain3, two_vertex):
        kappa = indices.index_report(group.graph, group.spanning).kappa
        for name in group.graph.edge_names:
            assert kappa[name] == oracle_kappa(group, name)


def test_big_n_pinned_values(bs23):
    assert indices.big_N(bs23.graph, bs23.spanning, "y") == 9
    g24, s24 = parse_graph(bs_text(2, 4))
    assert indices.big_N(g24, s24, "y") == 8


def test_big_n_grid_matches_oracle(gbs2):
    for n in range(2, 5):
        for m in range(2, 5):
            graph, spanning = parse_graph(bs_text(n, m))
            group = GbsGroup(graph, spanning)
            assert indices.big_N(graph, spanning, "y") == oracle_big_n(group, "y")
    assert indices.big_N(gbs2.graph, gbs2.spanning, "y") == oracle_big_n(gbs2, "y") == 24


def test_big_n_rejects_tree_edge(gbs2):
    with pytest.raises(GraphError):
        indices.big_N(gbs2.graph, gbs2.spanning, "w")


def test_modular_examples(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    assert indices.modular_value(a) == 1
    assert indices.modular_value(t) == Fraction(2, 3)
    r1 = a * t.inverse() * a * t
    assert indices.modular_value(r1) == 1


def test_modular_is_homomorphism(bs23, gbs2):
    rng = random.Random(31)
    for group in (bs23, gbs2):
        for _ in range(500):
            g = random_closed_word(group, rng, 5, 6)
            h = random_closed_word(group, rng, 5, 6)
            assert indices.modular_value(g * h) == \
                indices.modular_value(g) * indices.modular_value(h)


def test_vertex_index_examples(bs23):
    t = bs23.edge_generator("y")
    assert indices.vertex_index(bs23.identity(), "P") == 1
    assert indices.vertex_index(t, "P") == 3
    assert indices.vertex_index(t.inverse(), "P") == 2


def test_vertex_index_linear_scan_oracle(bs23, gbs2):
    rng = random.Random(37)
    for group in (bs23, gbs2):
        a_by_vertex = {v: group.vertex_generator(v)
                       for v in range(group.graph.n_vertices)}
        for _ in range(25):
            g = random_closed_word(group, rng, 3, 4)
            v = rng.randrange(group.graph.n_vertices)
            got = indices.vertex_index(g, v)
            a = a_by_vertex[v]
            for k in range(1, got + 1):
                member = group.as_vertex_power(g * a ** k * g.inverse(), v)
                assert (member is not None) == (k == got)


def test_modular_matches_index_ratio(bs23):
    rng = random.Random(41)
    for _ in range(60):
        g = random_closed_word(bs23, rng, 5, 6)
        q = indices.modular_value(g)
        ratio = Fraction(indices.vertex_index(g.inverse(), "P"),
                         indices.vertex_index(g, "P"))
        assert abs(q) == ratio


def test_theorem_grid():
    for n in range(1, 5):
        for m in range(1, 5):
            graph, spanning = parse_graph(bs_text(n, m))
            verdict = indices.check_theorem(graph, spanning)
            assert verdict.not_a_tree
            assert verdict.all_groups_z
            assert verdict.exists_kappa_mismatch == (n != m)
            assert verdict.all_proper == (n >= 2 and m >= 2)
            assert verdict.sufficient_conditions_met == (n != m and n >= 2 and m >= 2)


def test_theorem_verdict_fields(bs23, two_vertex):
    v = indices.check_theorem(bs23.graph, bs23.spanning)
    assert v.witness_edge == "y"
    d = v.to_json_dict()
    assert set(d) == {"not_a_tree", "all_groups_z", "exists_kappa_mismatch",
                      "witness_edge", "all_proper", "sufficient_conditions_met"}
    tv = indices.check_theorem(two_vertex.graph, two_vertex.spanning)
    assert not tv.not_a_tree and not tv.sufficient_conditions_met


def test_index_report_serialization(gbs2):
    rep = indices.index_report(gbs2.graph, gbs2.spanning)
    d = rep.to_json_dict()
    assert set(d) == {"not_a_tree", "kappa", "proper", "witness_edge",
                      "sufficient_conditions_met", "big_N"}
    assert d["kappa"]["y"] == [5, 6]
    assert d["big_N"] == {"y": 24}
    assert d["proper"]["~y"] is True


def test_intersection_law_bs23(bs23):
    """<a_lf> cap t^-n <a^6> t^n with a_lf = a^3: exponents 2, 3, 9.

    The geometric law gcd(N,M) * |M/gcd|^n (here 3^n for (N, M) = (2, 3))
    holds from n = 1 on; at n = 0 the intersection is plainly <a_lf^N>.
    """
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    expected = [2, 3, 9]
    for n in range(3):
        tn = t ** n
        found = None
        for j in range(1, 100):
            x = tn * a ** (3 * j) * tn.inverse()
            r = bs23.as_vertex_power(x, "P")
            if r is not None and r % 6 == 0:
                found = j
                break
        assert found == expected[n]
        if n >= 1:
            assert found == 1 * 3 ** n


# -- vertex_index against independent oracles ---------------------------------

FIXTURE_NAMES = ("bs23", "gbs2", "chain3", "two_vertex")


def product_words(group, rng, count, max_factors):
    """Random products of the vertex and edge generators and their inverses,
    so that multi-vertex fixtures see edge letters too."""
    graph = group.graph
    gens = [group.vertex_generator(v) for v in range(graph.n_vertices)]
    gens += [group.edge_generator(e) for e in range(0, graph.n_edges, 2)]
    gens += [x.inverse() for x in gens]
    for _ in range(count):
        g = group.identity()
        for _ in range(rng.randint(0, max_factors)):
            g = g * rng.choice(gens)
        yield g


def brute_force_index(group, g, vertex, bound=10**4):
    """Least k > 0 with g a^k g^-1 in <a>, by a linear scan over k."""
    step = g * group.vertex_generator(vertex) * g.inverse()
    x = step
    for k in range(1, bound + 1):
        if group.as_vertex_power(x, vertex) is not None:
            return k
        x = x * step
    raise AssertionError("brute-force bound exceeded")


def index_mismatches(groups, seed):
    """(name, word, vertex, got, expected) for every disagreement with the
    brute-force scan, and the largest index seen per fixture."""
    rng = random.Random(seed)
    bad, largest = [], {}
    for name, group in groups.items():
        largest[name] = 1
        for g in product_words(group, rng, 100, 6):
            for v in range(group.graph.n_vertices):
                got = indices.vertex_index(g, v)
                expected = brute_force_index(group, g, v)
                largest[name] = max(largest[name], expected)
                if got != expected:
                    bad.append((name, str(g), v, got, expected))
    return bad, largest


def prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def theorem_data_certificate_failures(group, ks):
    """k for which K1 of build_theorem_data(t^k a t^-k) is not the least
    valid exponent.  The valid exponents of x = r'_2^-1 form a subgroup of
    Z, so K1 is least iff K1 is valid and K1/p is not, for each prime p | K1.
    """
    from gbs.pingpong import build_theorem_data

    graph = group.graph
    e = graph.edge_id("y")
    target = graph.terminus[e]
    a = group.vertex_generator(target)
    t = group.edge_generator(e)
    bad = []
    for k in ks:
        td = build_theorem_data(group, e, t ** k * a * t.inverse() ** k, 4)
        x = td.rp2.inverse()
        xinv = td.rp2

        def valid(j):
            return group.as_vertex_power(x * a ** j * xinv, target) is not None

        k1 = td.K1_exponent
        if not valid(k1) or any(valid(k1 // p) for p in prime_factors(k1)):
            bad.append((k, k1))
    return bad


def test_vertex_index_brute_force_every_vertex(request):
    groups = {name: request.getfixturevalue(name) for name in FIXTURE_NAMES}
    bad, largest = index_mismatches(groups, seed=53)
    assert bad == []
    for name, group in groups.items():
        if group.graph.n_vertices > 1:
            assert largest[name] > 1, name


def test_theorem_data_k1_is_minimal(bs23, gbs2):
    for group in (bs23, gbs2):
        assert theorem_data_certificate_failures(group, range(13)) == []


def test_vertex_index_fixed_kernel_calls(bs23, monkeypatch):
    from gbs import wordcore

    calls = []
    real_mul = wordcore.mul_items

    def counting_mul(a, b, alpha):
        calls.append(len(b))
        return real_mul(a, b, alpha)

    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    words = [t ** k * a * t.inverse() ** k for k in (1, 10, 50, 200)]
    monkeypatch.setattr(wordcore, "mul_items", counting_mul)
    counts = []
    for g in words:
        calls.clear()
        indices.vertex_index(g, "P")
        counts.append(len(calls))
    assert counts == [1] * len(words)


def test_swapped_recursion_fails_the_oracles(request, monkeypatch):
    """Reading alpha(bar e) for alpha(e) in the recursion must be caught."""
    groups = {name: request.getfixturevalue(name) for name in FIXTURE_NAMES}
    real = indices._index_along
    monkeypatch.setattr(indices, "_index_along",
                        lambda alpha, edges: real(alpha, [e ^ 1 for e in edges]))
    bad, _ = index_mismatches(groups, seed=53)
    assert bad
    assert theorem_data_certificate_failures(groups["bs23"], range(13))
