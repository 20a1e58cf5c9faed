"""Acceptance criteria, one test per criterion, each printing a PASS line
with its elapsed time.  Bounds and tolerances are pinned here; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import numpy as np
import pytest

from gbs import indices, opsim, pingpong, tree
from gbs.graphs import parse_graph
from gbs.words import GbsGroup, random_closed_word

from conftest import bs_text
from oracles import insert_pinch, oracle_big_n, tree_degrees, tree_depths


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        return False

    def done(self, label):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, f"{label}: {elapsed:.1f}s over {self.limit}s"
        print(f"PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_bs_classification_grid():
    with _Timer(1.0) as tm:
        for n in range(1, 5):
            for m in range(1, 5):
                graph, spanning = parse_graph(bs_text(n, m))
                v = indices.check_theorem(graph, spanning)
                assert v.exists_kappa_mismatch == (n != m)
                t = GbsGroup(graph, spanning).edge_generator("y")
                assert v.exists_kappa_mismatch == \
                    (abs(indices.modular_value(t)) != 1)
                assert v.all_proper == (n >= 2 and m >= 2)
                assert v.sufficient_conditions_met == \
                    (n != m and n >= 2 and m >= 2)
    tm.done("criterion 1: BS(n,m) classification grid, 1 <= n,m <= 4")


def test_criterion_02_big_n_oracle(bs23, gbs2):
    with _Timer(5.0) as tm:
        assert indices.big_N(bs23.graph, bs23.spanning, "y") == 9
        assert oracle_big_n(bs23, "y") == 9
        g24, s24 = parse_graph(bs_text(2, 4))
        assert indices.big_N(g24, s24, "y") == 8
        assert oracle_big_n(GbsGroup(g24, s24), "y") == 8
        assert indices.big_N(gbs2.graph, gbs2.spanning, "y") == \
            oracle_big_n(gbs2, "y")
    tm.done("criterion 2: N formula vs brute-force oracle (BS23, BS24, GBS2)")


def test_criterion_03_pingpong_exhaustive(bs23):
    with _Timer(300.0) as tm:
        data = pingpong.build_ce2(bs23, "y", 2)
        report = pingpong.verify_pingpong(data, word_bound=3, exponent_bound=6)
        assert report.passed, report.counterexample
        assert report.counterexample is None
        assert report.pairs_checked == 4179474
        # every (j, g) is proven for all f, not only the bounded ones
        assert report.certified == report.g_count * report.j_count == 3033
        # criterion 4 averages up to z_16: prove those conjugators too
        longer = data._replace(z=tuple(pingpong.averaging_elements(data, 16)))
        report16 = pingpong.verify_pingpong(longer, word_bound=3,
                                            exponent_bound=6)
        assert report16.passed, report16.counterexample
        assert report16.certified == report16.g_count * 16 == 5392
    tm.done(f"criterion 3: ping-pong on BS23 proven for every f "
            f"({report.certified} (j, g) pairs, {report.pairs_checked} "
            f"bounded triples; {report16.certified} pairs for j <= 16)")


def test_criterion_04_norm_decay(bs23):
    with _Timer(300.0) as tm:
        a = bs23.vertex_generator("P")
        t = bs23.edge_generator("y")
        g = t * a * t.inverse()
        f = opsim.FormalElement.lam(g) + opsim.FormalElement.lam(g.inverse())
        data = pingpong.build_ce2(bs23, "y", 2)
        table = opsim.powers_decay_experiment(data, f, [4, 9, 16], 8,
                                              seed=42, tol=1e-6)
        for row in table.rows:
            assert row.estimate <= row.bound + 1e-9
        # f is a disjoint union of paths; the longest has 21 vertices
        assert table.f_norm == pytest.approx(2 * math.cos(math.pi / 22),
                                             rel=1e-12)
        nine = next(r for r in table.rows if r.m == 9)
        assert nine.estimate <= (2.0 / 3.0) * table.f_norm + 1e-9
    tm.done(f"criterion 4: averaging norm decay on the radius-8 ball "
            f"(|ball|={table.ball_size}, ||f||={table.f_norm:.6f})")


def test_criterion_05_faithfulness(bs23, gbs2):
    with _Timer(30.0) as tm:
        rng = random.Random(2024)
        edge_words = {bs23: 0, gbs2: 0}
        for group in (bs23, gbs2):
            for _ in range(200):
                g = random_closed_word(group, rng, 6, 8)
                _, depth = tree.moved_vertex(group, g, 2 * g.edge_length + 2)
                assert depth <= 2 * g.edge_length + 2
                edge_words[group] += g.edge_length > 0
        assert edge_words[gbs2] >= 100
    tm.done(f"criterion 5: 200 random words per fixture move a tree vertex "
            f"({edge_words[gbs2]} gbs2 words carry an edge letter)")


def test_criterion_06_tree_shape(bs23):
    with _Timer(5.0) as tm:
        b = tree.ball(bs23, 3)
        assert len(b.vertices) == 1 + 5 + 20 + 80
        degrees = tree_degrees(b)
        interior = [i for i, d in enumerate(tree_depths(b)) if d < 3]
        assert len(interior) == 1 + 5 + 20
        for i in interior:
            assert degrees[i] == 5
    tm.done("criterion 6: BS23 radius-3 ball is the 106-vertex 5-regular tree")


def test_criterion_07_normal_form_confluence(bs23, gbs2):
    with _Timer(30.0) as tm:
        rng = random.Random(4096)
        edge_words = {bs23: 0, gbs2: 0}
        for group in (bs23, gbs2):
            for _ in range(5000):
                g = random_closed_word(group, rng, 5, 8, nontrivial=False)
                mutated = insert_pinch(group, g.items, rng)
                assert group.element(mutated) == g
                edge_words[group] += g.edge_length > 0
        for group in (bs23, gbs2):
            e = group.identity()
            for _ in range(500):
                x = random_closed_word(group, rng, 4, 6)
                y = random_closed_word(group, rng, 4, 6)
                z = random_closed_word(group, rng, 4, 6)
                assert (x * y) * z == x * (y * z)
                assert x * x.inverse() == e
                assert e * x == x == x * e
                edge_words[group] += sum(w.edge_length > 0 for w in (x, y, z))
        # of the 6,500 gbs2 draws
        assert edge_words[gbs2] >= 3250
    tm.done(f"criterion 7: 10^4 pinch-insertion round trips, "
            f"10^3 group-axiom triples ({edge_words[gbs2]} of 6500 gbs2 "
            f"words carry an edge letter)")


def test_criterion_08_intersection_law(bs23):
    # <a_lf> cap t^-n <a^6> t^n for a_lf = a^3: the geometric law
    # gcd(N,M)|M/gcd|^n = 3^n holds from n = 1; n = 0 is the plain
    # intersection <a_lf^N> with N = 2.
    with _Timer(5.0) as tm:
        a = bs23.vertex_generator("P")
        t = bs23.edge_generator("y")
        n_const, m_const = 2, 3
        for n in range(0, 3):
            tn = t ** n
            found = None
            for j in range(1, 200):
                x = tn * a ** (3 * j) * tn.inverse()
                r = bs23.as_vertex_power(x, "P")
                if r is not None and r % 6 == 0:
                    found = j
                    break
            expected = n_const if n == 0 else \
                math.gcd(n_const, m_const) * m_const ** n
            assert found == expected
    tm.done("criterion 8: stabilizer intersection law, exponents 2, 3, 9")


def test_criterion_09_modular_kernel(bs23):
    with _Timer(30.0) as tm:
        data = pingpong.build_ce2(bs23, "y", 2)
        from fractions import Fraction
        one = Fraction(1)
        a, t = data.a, data.t
        r1 = a * t.inverse() * a * t
        r2 = a * t.inverse() ** 2 * a * t ** 2
        assert indices.modular_value(r1) == one
        assert indices.modular_value(r2) == one
        for z in data.z:
            assert indices.modular_value(z) == one
        td = pingpong.build_theorem_data(bs23, "y", t * a * t.inverse(), 4)
        for w in td.w:
            assert indices.modular_value(w) == one
        rng = random.Random(99)
        for _ in range(100):
            g = random_closed_word(bs23, rng, 5, 6)
            assert abs(indices.modular_value(g)) == Fraction(
                indices.vertex_index(g.inverse(), "P"),
                indices.vertex_index(g, "P"))
    tm.done("criterion 9: modular kernel exact, |q| matches index ratios")


def test_criterion_10_operator_sanity(bs23):
    with _Timer(30.0) as tm:
        rep = opsim.ps_inequality_check(1000, 64, seed=42)
        assert rep.passed
        a = bs23.vertex_generator("P")
        line = opsim.enumerate_ball(bs23, [a, a.inverse()], 8)
        assert len(line) == 17
        half = opsim.FormalElement.lam(a, 0.5) + \
            opsim.FormalElement.lam(a.inverse(), 0.5)
        est = opsim.norm_estimate(opsim.operator_of(half, line), tol=1e-6)
        assert abs(est - math.cos(math.pi / 18)) <= 1e-10
        dense = opsim.operator_of(half, line).matrix.toarray()
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
        assert abs(est - oracle) <= 1e-10
    tm.done("criterion 10: PS inequality (10^3 trials) and the 17-point "
            "line spectrum")
