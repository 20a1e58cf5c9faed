import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from conftest import BS23_TEXT, random_graph_text
from oracles import ball_elements
from gbs import opsim, pingpong, wordcore
from gbs.words import (GbsGroup, GroupElement, WordError,
                       random_closed_word)


def lam(g, c=1):
    return opsim.FormalElement.lam(g, c)


def test_formal_algebra(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    x = lam(a) + lam(t)
    assert x.terms == {a: 1, t: 1}
    assert (x + lam(a, -1) + lam(t, -1)).terms == {}
    assert (x + lam(a, Fraction(-1, 2))).terms == {a: Fraction(1, 2), t: 1}
    assert lam(a, Fraction(1, 2)).exact


def test_adjoint_and_selfadjointness(bs23):
    t = bs23.edge_generator("y")
    f = lam(t) + lam(t.inverse())
    assert f.is_selfadjoint()
    assert not lam(t).is_selfadjoint()
    assert lam(t).adjoint().terms == lam(t.inverse()).terms


def test_enumerate_ball(bs23):
    b0 = opsim.enumerate_ball(bs23, None, 0)
    assert len(b0) == 1
    with pytest.raises(opsim.OpsimError, match="radius must be nonnegative"):
        opsim.enumerate_ball(bs23, None, -1)
    b1 = opsim.enumerate_ball(bs23, None, 1)
    assert [str(g) for g in ball_elements(b1)] == \
        ["1", "a[P]", "a[P]^-1", "g[y]", "g[~y]"]
    # radius 2 matches a hash-set oracle over reduced 2-letter products
    b2 = opsim.enumerate_ball(bs23, None, 2)
    gens = opsim.default_generators(bs23)
    oracle = {bs23.identity().items}
    for g in gens:
        oracle.add(g.items)
        for h in gens:
            oracle.add((g * h).items)
    assert set(b2.index) == oracle


def test_lambda_operator(bs23):
    a = bs23.vertex_generator("P")
    b1 = opsim.enumerate_ball(bs23, None, 1)
    ident = opsim.operator_of(lam(bs23.identity()), b1)
    assert np.array_equal(ident.matrix.toarray(), np.eye(len(b1)))
    la = opsim.operator_of(lam(a), b1)
    # partial permutation: at most one entry per row and column, all ones
    assert la.matrix.max() == 1
    assert all(c <= 1 for c in np.asarray(la.matrix.sum(axis=0)).ravel())
    assert all(c <= 1 for c in np.asarray(la.matrix.sum(axis=1)).ravel())
    # maps e -> a and a^-1 -> e
    i_e = b1.index[bs23.identity().items]
    i_a = b1.index[a.items]
    i_ainv = b1.index[a.inverse().items]
    assert la.matrix[i_a, i_e] == 1
    assert la.matrix[i_e, i_ainv] == 1


def test_lambda_multiplicative_on_domains(bs23):
    rng = random.Random(79)
    ball = opsim.enumerate_ball(bs23, None, 3)
    for _ in range(30):
        g = random_closed_word(bs23, rng, 2, 2)
        h = random_closed_word(bs23, rng, 2, 2)
        prod = (opsim.operator_of(lam(g), ball).matrix
                @ opsim.operator_of(lam(h), ball).matrix)
        gh = opsim.operator_of(lam(g * h), ball).matrix
        # wherever the composition is defined it agrees with lambda_{gh}
        diff = prod - prod.multiply(gh)
        assert diff.nnz == 0


def test_lambda_partial_isometry_composition(bs23):
    t = bs23.edge_generator("y")
    ball = opsim.enumerate_ball(bs23, None, 2)
    lt = opsim.operator_of(lam(t), ball).matrix
    ltinv = opsim.operator_of(lam(t.inverse()), ball).matrix
    comp = (lt @ ltinv).toarray()
    assert np.allclose(comp, np.diag(np.diag(comp)))
    assert set(np.diag(comp)) <= {0.0, 1.0}


def test_restrict_expectation(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    x = lam(a) + lam(t)
    assert opsim.restrict_expectation(x, "P", 1).terms == {a: 1}
    assert opsim.restrict_expectation(lam(bs23.identity()), "P", 1).terms \
        == {bs23.identity(): 1}
    assert opsim.restrict_expectation(lam(a ** 3), "P", 9).terms == {}
    # idempotent and linear
    e1 = opsim.restrict_expectation(x, "P", 2)
    assert opsim.restrict_expectation(e1, "P", 2).terms == e1.terms
    y = lam(a ** 2, Fraction(3, 2)) + lam(t, -1)
    assert opsim.restrict_expectation(x + y, "P", 2).terms == (
        opsim.restrict_expectation(x, "P", 2)
        + opsim.restrict_expectation(y, "P", 2)).terms


def test_restriction_composition_law(bs23):
    rng = random.Random(83)
    n_exp, k1_exp = 9, 18
    both = math.lcm(n_exp, k1_exp)
    for _ in range(30):
        x = opsim.FormalElement(
            {random_closed_word(bs23, rng, 3, 20, nontrivial=False):
             Fraction(rng.randint(-5, 5)) for _ in range(6)})
        via = opsim.restrict_expectation(
            opsim.restrict_expectation(x, "P", n_exp), "P", k1_exp)
        assert via.terms == opsim.restrict_expectation(x, "P", both).terms


def test_average_conjugates(bs23):
    a = bs23.vertex_generator("P")
    x = lam(a)
    assert opsim.average_conjugates(x, [bs23.identity()]).terms == x.terms
    assert opsim.average_conjugates(x, [a]).terms == x.terms
    with pytest.raises(opsim.OpsimError):
        opsim.average_conjugates(x, [])
    data = pingpong.build_ce2(bs23, "y", 2)
    g = data.t * a * data.t.inverse()
    f = lam(g) + lam(g.inverse())
    avg = opsim.average_conjugates(f, list(data.z))
    assert avg.exact
    assert sum(avg.terms.values()) == 2      # mass preserved
    # support stays clear of <a^N>
    assert opsim.restrict_expectation(avg, "P", data.N).terms == {}


def _brute_force_operator(x, ball):
    """One product and one lookup per (term, ball element) pair."""
    rows, cols, vals = [], [], []
    for g, c in x.terms.items():
        for j, el in enumerate(ball_elements(ball)):
            i = ball.index.get((g * el).items)
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(float(c))
    n = len(ball)
    return csr_matrix((np.array(vals), (rows, cols)), shape=(n, n))


def _supports(group, ball, edge, rng):
    """Random elements of a larger ball, the normest averaged elements
    (when the fixture has a non-tree edge), boundary terms y x^-1 with
    edge_len(y) at the ball's top edge length, and g, g^-1 at unequal
    coefficients beside a term without its inverse and the identity."""
    wide = ball_elements(opsim.enumerate_ball(group, None, ball.radius + 2))
    yield opsim.FormalElement(
        {rng.choice(wide) * rng.choice(wide): Fraction(rng.randint(1, 5), 3)
         for _ in range(40)})
    if edge is not None:
        t = group.edge_generator(edge)
        a = group.vertex_generator(
            group.graph.terminus[group.graph.edge_id(edge)])
        g = t * a * t.inverse()
        f = lam(g) + lam(g.inverse())
        data = pingpong.build_ce2(group, edge, 2)
        for m in (4, 9):
            yield opsim.average_conjugates(
                f, pingpong.averaging_elements(data, m))
    top = max(ball.by_length)
    elements = ball_elements(ball)
    tops = [elements[i] for i in sorted(
        i for s in ball.by_length[top] for i in ball.fibers[s].values())]
    inner = [el for el in elements if el.edge_length >= 1]
    yield opsim.FormalElement(
        {rng.choice(tops) * rng.choice(inner).inverse(): -1.5
         for _ in range(40)})
    g = h = group.identity()
    while g.is_identity():
        g = rng.choice(inner) * rng.choice(inner)
    while h.is_identity() or h in (g, g.inverse()):
        h = rng.choice(inner)
    yield opsim.FormalElement({g: Fraction(7, 2), g.inverse(): -2,
                               h: Fraction(5, 3), group.identity(): 3})


@pytest.mark.parametrize("name, radius, edge", [
    ("bs23", 4, "y"), ("gbs2", 3, "y"), ("chain3", 3, None),
    ("two_vertex", 4, None)])
def test_operator_of_matches_brute_force(request, name, radius, edge):
    group = request.getfixturevalue(name)
    ball = opsim.enumerate_ball(group, None, radius)
    elements = ball_elements(ball)
    top = max(ball.by_length)
    assert top == max(el.edge_length for el in elements)
    rng = random.Random(radius)
    skipped = visited = at_bound = 0
    for x in _supports(group, ball, edge, rng):
        got = opsim.operator_of(x, ball).matrix
        want = _brute_force_operator(x, ball)
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        for g in x.terms:
            for el in elements:
                gap = abs(g.edge_length - el.edge_length)
                if gap > top:
                    skipped += 1
                else:
                    visited += 1
                    if gap == top and (g * el).items in ball.index:
                        at_bound += 1
    assert skipped and visited and at_bound


def _plain_ball(group, generators, radius):
    """Reference BFS: every product g s of every frontier element."""
    seen = {group.identity().items: group.identity()}
    frontier = [group.identity()]
    for _ in range(radius):
        new = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h.items not in seen:
                    seen[h.items] = h
                    new.append(h)
        frontier = new
    return [g.items for g in seen.values()]


@pytest.mark.parametrize("name, radius", [
    ("bs23", 4), ("gbs2", 4), ("chain3", 4), ("two_vertex", 4), ("bs23", 6)])
def test_enumerate_ball_matches_plain_bfs(request, name, radius):
    group = request.getfixturevalue(name)
    gens = opsim.default_generators(group)
    for r in range(radius + 1):
        ball = opsim.enumerate_ball(group, None, r)
        assert list(ball.index) == _plain_ball(group, gens, r)


def test_enumerate_ball_odd_generator_lists(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    for gens in ([a, t], [a, a, a.inverse()],
                 [bs23.identity(), t, a, t.inverse()]):
        for r in range(5):
            ball = opsim.enumerate_ball(bs23, gens, r)
            assert list(ball.index) == _plain_ball(bs23, gens, r)


def test_enumerate_ball_matches_plain_bfs_on_random_graphs():
    """Parity on 20 seeded random graphs at radii 0-3, for the default
    generators and for the other generators followed by a, a^-1, a (a the
    base generator, whose steps are integer shifts)."""
    rng = random.Random(5)
    for _ in range(20):
        group = GbsGroup.from_text(random_graph_text(rng))
        gens = opsim.default_generators(group)
        a = group.vertex_generator(group.base)
        assert a.items == (1,)
        others = [s for s in gens if s not in (a, a.inverse())]
        for generators in (gens, others + [a, a.inverse(), a]):
            for r in range(4):
                ball = opsim.enumerate_ball(group, generators, r)
                assert list(ball.index) == _plain_ball(group, generators, r)


@pytest.mark.parametrize("name, radius, size, ball_mul, f_mul", [
    ("bs23", 8, 6575, 3779, 1656), ("gbs2", 4, 799, 574, 349)],
    ids=["bs23", "gbs2"])
def test_normest_product_counts(request, monkeypatch, name, radius, size,
                                ball_mul, f_mul):
    """One kernel product per non-parent step of the BFS by a generator
    that is not a power of the base generator a (a^+-1 steps are integer
    shifts), and one per skeleton s of the ball for f = lam(g) +
    lam(g^-1): a product per element, a second product per {g, g^-1} pair,
    a kernel call for an a^+-1 step or a step back to the parent fails by
    count.  Neither the BFS nor the assembly goes through GroupElement
    products."""
    group = request.getfixturevalue(name)
    e = group.graph.edge_id("y")
    t = group.edge_generator(e)
    g = t * group.vertex_generator(group.graph.terminus[e]) * t.inverse()
    f = lam(g) + lam(g.inverse())
    calls = [0]
    element_calls = [0]
    mul = wordcore.mul_items
    element_mul = GroupElement.__mul__

    def counting(a, b, alpha):
        calls[0] += 1
        return mul(a, b, alpha)

    def element_counting(self, other):
        element_calls[0] += 1
        return element_mul(self, other)

    monkeypatch.setattr(wordcore, "mul_items", counting)
    monkeypatch.setattr(GroupElement, "__mul__", element_counting)
    ball = opsim.enumerate_ball(group, None, radius)
    assert (len(ball), len(ball.fibers), calls[0]) == (size, f_mul, ball_mul)
    calls[0] = 0
    opsim.operator_of(f, ball)
    assert calls[0] == f_mul
    assert element_calls[0] == 0


@pytest.mark.parametrize("name, radius", [("bs23", 2), ("gbs2", 4)])
def test_decay_averages_from_one_conjugate_table(request, monkeypatch,
                                                 name, radius):
    """``powers_decay_experiment`` hands ``operator_of``, after f, the
    average of each m as ``average_conjugates`` forms it from z_1 .. z_m:
    the same terms in the same order.  It conjugates each term of f once
    per z_j up to the largest m, 16 products z g per term for m in
    (1, 4, 9, 16), not one per (m, j)."""
    group = request.getfixturevalue(name)
    e = group.graph.edge_id("y")
    t = group.edge_generator(e)
    g = t * group.vertex_generator(group.graph.terminus[e]) * t.inverse()
    f = lam(g) + lam(g.inverse())
    data = pingpong.build_ce2(group, e, 2)
    m_values = (1, 4, 9, 16)
    received = []
    conjugations = [0]
    operator_of = opsim.operator_of
    element_mul = GroupElement.__mul__

    def recording(x, ball):
        received.append(x)
        return operator_of(x, ball)

    def counting(self, other):
        conjugations[0] += other in f.terms
        return element_mul(self, other)

    monkeypatch.setattr(opsim, "operator_of", recording)
    monkeypatch.setattr(GroupElement, "__mul__", counting)
    opsim.powers_decay_experiment(data, f, m_values, radius)
    assert conjugations[0] == 16 * len(f.terms)
    monkeypatch.undo()
    assert received[0] is f
    for m, avg in zip(m_values, received[1:], strict=True):
        expected = opsim.average_conjugates(
            f, pingpong.averaging_elements(data, m))
        assert list(avg.terms.items()) == list(expected.terms.items())


def test_all_skipped_operator_is_empty(bs23):
    """Terms the edge-length gap skips on every skeleton give the empty
    n x n operator, whose norm the solver reads as 0 in no step."""
    ball = opsim.enumerate_ball(bs23, None, 2)
    t = bs23.edge_generator("y")
    mat = opsim.operator_of(lam(t ** 9) + lam(t ** -9), ball).matrix
    assert mat.format == "csr"
    assert (mat.shape, mat.nnz) == ((len(ball), len(ball)), 0)
    assert opsim._power_iteration(mat, 1e-6, 100, 42) == (0.0, 0)


def test_ball_and_operator_reject_foreign_elements():
    """Two groups parsed from one text have equal items but their own alpha
    tables: a generator or a term of the other group raises WordError, as
    their GroupElement product does, also at radius 0 and for a term the
    edge-length gap would skip."""
    one, two = GbsGroup.from_text(BS23_TEXT), GbsGroup.from_text(BS23_TEXT)
    a, t = one.vertex_generator("P"), two.edge_generator("y")
    with pytest.raises(WordError, match="different groups"):
        a * t
    for radius in (0, 2):
        with pytest.raises(WordError, match="different groups"):
            opsim.enumerate_ball(one, [a, a.inverse(), t], radius)
    ball = opsim.enumerate_ball(one, None, 2)
    for x in (lam(t), lam(t ** 10), lam(one.edge_generator("y")) + lam(t)):
        with pytest.raises(WordError, match="different groups"):
            opsim.operator_of(x, ball)
    assert opsim.operator_of(lam(one.edge_generator("y")), ball).matrix.nnz


def test_norm_identity_and_isometry(bs23):
    ball = opsim.enumerate_ball(bs23, None, 2)
    ident = opsim.operator_of(lam(bs23.identity()), ball)
    assert abs(opsim.norm_estimate(ident) - 1.0) <= 1e-6
    lt = opsim.operator_of(lam(bs23.edge_generator("y")), ball)
    assert abs(opsim.norm_estimate(lt) - 1.0) <= 1e-6
    zero = opsim.operator_of(opsim.FormalElement(), ball)
    assert opsim.norm_estimate(zero) == 0.0


def test_norm_line_spectrum(bs23):
    a = bs23.vertex_generator("P")
    for radius in (4, 8):
        line = opsim.enumerate_ball(bs23, [a, a.inverse()], radius)
        assert len(line) == 2 * radius + 1
        half = lam(a, 0.5) + lam(a.inverse(), 0.5)
        est = opsim.norm_estimate(opsim.operator_of(half, line), tol=1e-6)
        expected = math.cos(math.pi / (2 * radius + 2))
        assert abs(est - expected) <= 1e-10
        # dense eigensolver oracle
        dense = opsim.operator_of(half, line).matrix.toarray()
        assert abs(est - np.max(np.abs(np.linalg.eigvalsh(dense)))) <= 1e-10


def test_norm_monotone_in_radius(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    g = t * a * t.inverse()
    f = lam(g) + lam(g.inverse())
    prev = 0.0
    for radius in (2, 3, 4, 5):
        ball = opsim.enumerate_ball(bs23, None, radius)
        est = opsim.norm_estimate(opsim.operator_of(f, ball))
        assert est >= prev - 1e-9
        prev = est
    assert prev <= 2.0 + 1e-9


def test_norm_estimate_is_deterministic(bs23):
    ball = opsim.enumerate_ball(bs23, None, 3)
    f = lam(bs23.vertex_generator("P"), 0.5) + \
        lam(bs23.vertex_generator("P").inverse(), 0.5)
    op = opsim.operator_of(f, ball)
    assert opsim.norm_estimate(op, seed=7) == opsim.norm_estimate(op, seed=7)


def test_decay_experiment_small(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    g = t * a * t.inverse()
    f = lam(g) + lam(g.inverse())
    data = pingpong.build_ce2(bs23, "y", 2)
    table = opsim.powers_decay_experiment(data, f, [1, 4, 9], 4, seed=42)
    assert table.all_passed
    assert [r.m for r in table.rows] == [1, 4, 9]
    csv = table.to_csv()
    assert csv.splitlines()[0] == "m,bound,estimate,ball_size,iterations"
    assert len(csv.splitlines()) == 4


def test_decay_experiment_reads_the_stored_period(bs23):
    """The letter cap reads r1 from the data, so data that stores z_1 alone
    gives the table of the nine stored conjugators."""
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    g = t * a * t.inverse()
    f = lam(g) + lam(g.inverse())
    data = pingpong.build_ce2(bs23, "y", 2)
    table = opsim.powers_decay_experiment(data, f, [4, 9], 2)
    assert opsim.powers_decay_experiment(
        data._replace(z=data.z[:1]), f, [4, 9], 2) == table


def test_decay_experiment_gbs2(gbs2):
    aq = gbs2.vertex_generator("Q")
    t = gbs2.edge_generator("y")
    g = t * aq * t.inverse()
    f = lam(g) + lam(g.inverse())
    data = pingpong.build_ce2(gbs2, "y", 2)
    table = opsim.powers_decay_experiment(data, f, [4, 9, 16], 5, seed=42)
    assert table.all_passed
    for row in table.rows:
        assert row.bound == pytest.approx(2.0 / math.sqrt(row.m) * table.f_norm)


def test_norm_nonconvergence_reported(bs23):
    a = bs23.vertex_generator("P")
    line = opsim.enumerate_ball(bs23, [a, a.inverse()], 8)
    half = lam(a, 0.5) + lam(a.inverse(), 0.5)
    op = opsim.operator_of(half, line)
    with pytest.raises(opsim.NormConvergenceError) as err:
        opsim.norm_estimate(op, tol=1e-12, max_iter=3)
    assert 0 < err.value.last_estimate <= 1.0


def test_power_iteration_rectangular():
    rng = np.random.default_rng(11)
    for shape in ((9, 4), (4, 9), (1, 6)):
        dense = rng.standard_normal(shape)
        est, iters = opsim._power_iteration(csr_matrix(dense), 1e-12,
                                            10 ** 5, 42)
        assert iters > 0
        assert est == pytest.approx(np.linalg.norm(dense, 2), rel=1e-9)


def _probe(group, vertex):
    """f = lam(g) + lam(g^-1) for g = t a t^-1, with t the stable letter y."""
    t = group.edge_generator("y")
    g = t * group.vertex_generator(vertex) * t.inverse()
    return g, lam(g) + lam(g.inverse())


_PROBE_BALLS = [("bs23", "P", r) for r in range(2, 9)] + \
    [("gbs2", "Q", r) for r in range(3, 7)]


def _component_norm(mat):
    """||M|| as the largest spectral norm of a block over the connected
    components of M's nonzero pattern (union-find)."""
    coo = mat.tocoo()
    parent = list(range(mat.shape[0]))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(coo.row.tolist(), coo.col.tolist()):
        parent[find(i)] = find(j)
    comps = {}
    for i in set(coo.row.tolist()) | set(coo.col.tolist()):
        comps.setdefault(find(i), []).append(i)
    return max(np.linalg.norm(mat[c][:, c].toarray(), 2)
               for c in comps.values())


def _longest_run(g, ball):
    """Longest run x, g x, g^2 x, ... inside the ball."""
    ginv = g.inverse()
    longest = 0
    for x in ball_elements(ball):
        if (ginv * x).items in ball.index:
            continue
        length, y = 0, x
        while y.items in ball.index:
            length += 1
            y = g * y
        longest = max(longest, length)
    return longest


@pytest.mark.parametrize("name, vertex, radius", _PROBE_BALLS)
def test_norm_matches_component_and_path_oracles(request, name, vertex,
                                                 radius):
    group = request.getfixturevalue(name)
    g, f = _probe(group, vertex)
    ball = opsim.enumerate_ball(group, None, radius)
    op = opsim.operator_of(f, ball)
    est = opsim.norm_estimate(op, tol=1e-12, max_iter=1000)
    exact = _component_norm(op.matrix)
    assert abs(est - exact) <= 1e-10 * exact
    assert est <= exact * (1 + 1e-12)
    # f's operator is a disjoint union of paths, one per run of <g>-orbit
    run = _longest_run(g, ball)
    if (name, radius) in {("bs23", 8), ("gbs2", 4)}:
        assert run == {"bs23": 21, "gbs2": 7}[name]
    assert est == pytest.approx(2 * math.cos(math.pi / (run + 1)), rel=1e-12)


def _free_ball_adjacency(m, radius):
    """Adjacency / m of the radius-R ball of the Cayley tree of F_m: the
    root has 2m children, every other inner vertex 2m - 1."""
    parent = np.zeros(0, dtype=np.int64)
    level = np.array([0])
    for depth in range(radius):
        start = len(parent) + 1
        parent = np.concatenate(
            [parent, np.repeat(level, 2 * m if depth == 0 else 2 * m - 1)])
        level = np.arange(start, len(parent) + 1)
    size = len(parent) + 1
    child = np.arange(1, size)
    rows = np.concatenate([child, parent])
    cols = np.concatenate([parent, child])
    vals = np.full(len(rows), 1.0 / m)
    return csr_matrix((vals, (rows, cols)), shape=(size, size))


@pytest.mark.parametrize("m, radius", [(2, 6), (4, 4), (9, 3), (16, 2),
                                       (2, 9)])
def test_norm_matches_free_ball_tridiagonal(m, radius):
    mat = _free_ball_adjacency(m, radius)
    assert mat.shape[0] == 1 + 2 * m * ((2 * m - 1) ** radius - 1) // (2 * m - 2)
    off = [math.sqrt(2 * m)] + [math.sqrt(2 * m - 1)] * (radius - 1)
    tri = np.diag(off, 1) + np.diag(off, -1)
    exact = float(np.linalg.eigvalsh(tri)[-1]) / m
    est, _ = opsim._power_iteration(mat, 1e-12, 1000, 42)
    assert est == pytest.approx(exact, rel=1e-12)
    assert est <= exact * (1 + 1e-12)


def test_norm_steps_are_bounded(bs23):
    # criterion 4's f operator; power iteration took 2,186 steps on it
    _, f = _probe(bs23, "P")
    op = opsim.operator_of(f, opsim.enumerate_ball(bs23, None, 8))
    exact = 2 * math.cos(math.pi / 22)
    est, steps = opsim._power_iteration(op.matrix, 1e-6, 1000, 42)
    assert steps <= 150
    assert est == pytest.approx(exact, rel=1e-12)
    # a tol below the rounding level still stops, by the stall rule
    dense = np.random.default_rng(5).standard_normal((300, 200))
    for mat, exact in ((op.matrix, exact),
                       (csr_matrix(dense), np.linalg.norm(dense, 2))):
        est, steps = opsim._power_iteration(mat, 1e-300, 1000, 42)
        assert steps <= 200
        assert est == pytest.approx(exact, rel=1e-12)


def test_max_iter_must_be_positive(bs23):
    ball = opsim.enumerate_ball(bs23, None, 1)
    op = opsim.operator_of(lam(bs23.identity()), ball)
    for max_iter in (0, -5):
        with pytest.raises(opsim.OpsimError, match="max_iter"):
            opsim.norm_estimate(op, max_iter=max_iter)
    assert opsim.norm_estimate(op, max_iter=1) == pytest.approx(1.0)


def test_operator_of_rejects_complex_coefficients(bs23):
    ball = opsim.enumerate_ball(bs23, None, 1)
    e = bs23.identity()
    for c in (1j, 1 + 0j, np.complex128(2 - 1j)):
        with pytest.raises(opsim.OpsimError, match="real"):
            opsim.operator_of(lam(e, c), ball)
    for c in (2, Fraction(1, 3), 0.5, np.float64(1.5), np.int64(3)):
        op = opsim.operator_of(lam(e, c), ball)
        assert op.matrix[0, 0] == float(c)


def test_tol_must_be_finite_and_positive(bs23):
    ball = opsim.enumerate_ball(bs23, None, 1)
    op = opsim.operator_of(lam(bs23.identity()), ball)
    t = bs23.edge_generator("y")
    g = t * bs23.vertex_generator("P") * t.inverse()
    f = lam(g) + lam(g.inverse())
    data = pingpong.build_ce2(bs23, "y", 2)
    for tol in (0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(opsim.OpsimError, match="finite and positive"):
            opsim.norm_estimate(op, tol=tol)
        with pytest.raises(opsim.OpsimError, match="finite and positive"):
            opsim.powers_decay_experiment(data, f, [4], 1, tol=tol)


def test_decay_preconditions(bs23):
    a = bs23.vertex_generator("P")
    data = pingpong.build_ce2(bs23, "y", 2)
    with pytest.raises(opsim.OpsimError):   # not self-adjoint
        opsim.powers_decay_experiment(data, lam(bs23.edge_generator("y")),
                                      [4], 3)
    with pytest.raises(opsim.OpsimError, match="zero expectation"):
        opsim.powers_decay_experiment(data, lam(a ** 9) + lam(a ** -9), [4], 3)
    t = bs23.edge_generator("y")
    h = t ** 3 * a * t.inverse() ** 3               # 6 y-letters, L = 2
    with pytest.raises(opsim.OpsimError, match="y-length budget L"):
        opsim.powers_decay_experiment(data, lam(h) + lam(h.inverse()), [4], 3)


def test_negative_seed_rejected(bs23):
    t = bs23.edge_generator("y")
    g = t * bs23.vertex_generator("P") * t.inverse()
    f = lam(g) + lam(g.inverse())
    op = opsim.operator_of(f, opsim.enumerate_ball(bs23, None, 1))
    data = pingpong.build_ce2(bs23, "y", 2)
    message = "seed must be nonnegative, got -1"
    with pytest.raises(opsim.OpsimError, match=message):
        opsim.norm_estimate(op, seed=-1)
    with pytest.raises(opsim.OpsimError, match=message):
        opsim.powers_decay_experiment(data, f, [4], 1, seed=-1)
    with pytest.raises(opsim.OpsimError, match=message):
        opsim.ps_inequality_check(2, 3, seed=-1)


def test_ps_inequality(bs23):
    rep = opsim.ps_inequality_check(100, 64, seed=3)
    assert rep.passed
    assert rep.max_ratio <= 1.0 + 1e-9
    rep0 = opsim.ps_inequality_check(5, 1, seed=4)
    assert rep0.passed


@pytest.mark.parametrize("trials, dim", [(5, 0), (0, 8), (-2, 4), (2, -1)])
def test_ps_inequality_refuses_empty_checks(trials, dim):
    """No trial or no dimension would pass with nothing checked, and a
    negative dim would escape as numpy's ValueError: both are refused."""
    with pytest.raises(opsim.OpsimError, match="must be positive"):
        opsim.ps_inequality_check(trials, dim)
