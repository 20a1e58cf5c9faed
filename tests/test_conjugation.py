"""The seam readers behind every h^-1 g h test (``as_vertex_power``,
``vertex_index``'s letters, ``tree.stabilizes``) against the two-product
kernel conjugation of ``conftest.kernel_conjugate``."""

import random
from collections import Counter

import pytest

from gbs import indices, tree, wordcore
from gbs.words import GbsGroup, GroupElement, random_closed_word

from conftest import kernel_conjugate, random_graph_text

FIXTURE_NAMES = ("bs23", "gbs2", "two_vertex", "chain3")


def _groups(request, seed, count):
    rng = random.Random(seed)
    groups = [request.getfixturevalue(name) for name in FIXTURE_NAMES]
    return groups + [GbsGroup.from_text(random_graph_text(rng))
                     for _ in range(count)]


def _conjugate_of_power(group, rep, k):
    """rep a^k rep^-1 for a path word ``rep`` from the base (trailing 0)."""
    back = wordcore.inv_items(list(rep))
    return GroupElement(group, list(rep[:-1]) + [k + back[0]] + back[1:])


def test_as_vertex_power_matches_kernel_conjugation(request, monkeypatch):
    """For every vertex P: a_P^q, conjugates of vertex powers and random
    closed words.  as_vertex_power is the single exponent of h^-1 g h or
    None, and vertex_index recurses over exactly its letters."""
    rng = random.Random(41)
    seen = []
    real = indices._index_along

    def recording(alpha, edges):
        seen.append(edges)
        return real(alpha, edges)

    monkeypatch.setattr(indices, "_index_along", recording)
    cases = Counter()
    for group in _groups(request, seed=37, count=60):
        n_vertices = group.graph.n_vertices
        for vertex in range(n_vertices):
            h = group.geodesic_items(vertex)
            a = group.vertex_generator(vertex)
            gs = [a ** q for q in range(-3, 4)]
            for _ in range(3):
                w = random_closed_word(group, rng, 3, 2, nontrivial=False)
                b = group.vertex_generator(rng.randrange(n_vertices))
                gs.append(w * b ** rng.randint(1, 6) * w.inverse())
            gs += [random_closed_word(group, rng, 4, 3) for _ in range(4)]
            for g in gs:
                x = kernel_conjugate(group, g.items, h)
                expected = x[0] if len(x) == 1 else None
                assert group.as_vertex_power(g, vertex) == expected
                seen.clear()
                indices.vertex_index(g, vertex)
                assert seen == [x[1::2]]
                cases[expected is not None, len(g.items) > 1] += 1
    assert min(cases.values()) >= 150, cases


def test_stabilizes_matches_kernel_conjugation(request):
    """Every vertex of a radius-2 tree ball, whose representatives are not
    tree geodesics, against random closed words and conjugates of vertex
    powers through ball vertices (each fixes at least its own vertex)."""
    rng = random.Random(43)
    cases = Counter()
    for group in _groups(request, seed=47, count=60):
        vertices = tree.ball(group, 2).vertices
        gs = [random_closed_word(group, rng, 4, 3) for _ in range(3)]
        gs += [_conjugate_of_power(group, v.key, rng.randint(1, 6))
               for v in rng.sample(vertices, min(3, len(vertices)))]
        for g in gs:
            for v in vertices:
                fixed = len(kernel_conjugate(group, g.items, v.key)) == 1
                assert tree.stabilizes(group, g, v) == fixed
                cases[fixed] += 1
    assert min(cases.values()) >= 2000, cases


def _count_kernel(monkeypatch):
    counts = Counter()
    for name in ("mul_items", "sweep_items"):
        real = getattr(wordcore, name)

        def counting(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(wordcore, name, counting)
    return counts


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_conjugation_tests_form_one_product(request, monkeypatch, name):
    """as_vertex_power and stabilizes form one kernel product per call and
    sweep nothing, on words whose conjugation needs pinches or not."""
    group = request.getfixturevalue(name)
    rng = random.Random(53)
    gs = [random_closed_word(group, rng, 6, 4) for _ in range(10)]
    gs += [group.vertex_generator(v) ** 6 for v in range(group.graph.n_vertices)]
    vertices = tree.ball(group, 2).vertices
    counts = _count_kernel(monkeypatch)
    for g in gs:
        for vertex in range(group.graph.n_vertices):
            counts.clear()
            group.as_vertex_power(g, vertex)
            assert counts == {"mul_items": 1}
        for v in vertices:
            counts.clear()
            tree.stabilizes(group, g, v)
            assert counts == {"mul_items": 1}
