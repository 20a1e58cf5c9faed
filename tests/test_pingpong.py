import itertools
import random
from collections import Counter

import pytest

from gbs import pingpong, wordcore
from gbs.graphs import parse_graph
from gbs.indices import modular_value
from gbs.words import (GbsGroup, GroupElement, _collapsed_exponent,
                       _seam_depth, _seam_reach, closed_words,
                       random_closed_word)

from conftest import bs_text, kernel_conjugate, random_graph_text
from oracles import in_Ui


@pytest.fixture(scope="module")
def ce2_bs23(bs23):
    return pingpong.build_ce2(bs23, "y", 2)


def test_build_ce2_fields(bs23, ce2_bs23):
    d = ce2_bs23
    assert (d.N, d.L) == (9, 2)
    a, t = d.a, d.t
    r1 = a * t.inverse() * a * t
    r2 = a * t.inverse() ** 2 * a * t ** 2
    assert d.z[0] == r1 * r2 * r1 ** 2
    assert d.z[4] == r1 ** 5 * r2 * r1 ** 2
    assert len(d.z) == 9


def test_build_ce2_l_zero_collapses_tail(bs23):
    d = pingpong.build_ce2(bs23, "y", 0)
    r1 = d.a * d.t.inverse() * d.b * d.t
    r2 = d.a * d.t.inverse() ** 2 * d.b * d.t ** 2
    assert d.z[2] == r1 ** 3 * r2


def test_build_ce2_preconditions(bs23, gbs2):
    """Only y's own hypotheses: a non-tree edge, proper at both ends, and
    L >= 0.  The rest of the graph plays no part: BS(2, 2), which fails
    the theorem's conditions, and a loop x with equal kappa values beside
    y are accepted, and both pass."""
    with pytest.raises(pingpong.PingPongError, match="w is a tree edge"):
        pingpong.build_ce2(gbs2, "w", 2)
    for alpha in ("1 2", "-1 3", "2 -1"):
        group = GbsGroup(*parse_graph(
            f"vertex P\nedge y : P -> P alpha {alpha}\n"))
        for edge in ("y", "~y"):
            with pytest.raises(pingpong.PingPongError,
                               match=f"{edge} is improper"):
                pingpong.build_ce2(group, edge, 2)
    with pytest.raises(pingpong.PingPongError, match="L must be nonnegative"):
        pingpong.build_ce2(bs23, "y", -1)
    g22 = GbsGroup(*parse_graph(bs_text(2, 2)))
    group = GbsGroup(*parse_graph(
        "vertex P\nedge y : P -> P alpha 3 2\nedge x : P -> P alpha 2 2\n"))
    for data in (pingpong.build_ce2(g22, "y", 2),
                 pingpong.build_ce2(group, "x", 1)):
        assert pingpong.verify_pingpong(data, 1, 1).passed
    assert pingpong.build_ce2(group, "y", 0).edge == group.graph.edge_id("y")


def test_z_commutes_with_aN(ce2_bs23):
    aN = ce2_bs23.a ** ce2_bs23.N
    for z in ce2_bs23.z:
        assert z * aN * z.inverse() == aN


def test_modular_kernel(ce2_bs23):
    a, t = ce2_bs23.a, ce2_bs23.t
    assert modular_value(a * t.inverse() * a * t) == 1
    assert modular_value(a * t.inverse() ** 2 * a * t ** 2) == 1
    for z in ce2_bs23.z:
        assert modular_value(z) == 1


def test_in_sj_pattern(bs23, ce2_bs23):
    a = ce2_bs23.a
    t = ce2_bs23.t
    # epsilon prefix (-1, +1, -1, -1): in S'_1
    f = t.inverse() * a * t * a * t.inverse() * a * t.inverse()
    assert pingpong.in_Sj(f, ce2_bs23, 1)
    assert not pingpong.in_Sj(a, ce2_bs23, 1)
    g = t * a * t.inverse()
    u = ce2_bs23.z[0] * g * ce2_bs23.z[0].inverse()
    assert pingpong.in_Sj(u, ce2_bs23, 1)     # f = identity case
    assert not pingpong.in_Sj(u, ce2_bs23, 2)


def test_sj_pairwise_disjoint_patterns(ce2_bs23):
    # membership depends only on the sign sequence; enumerate all sign
    # patterns of length <= 10 and check no pattern lies in two sets
    def matches(seq, j):
        if len(seq) < 2 * j + 2:
            return False
        for i in range(j):
            if seq[2 * i] != -1 or seq[2 * i + 1] != 1:
                return False
        return seq[2 * j] == -1 and seq[2 * j + 1] == -1

    for n in range(0, 11):
        for seq in itertools.product((-1, 1), repeat=n):
            hits = [j for j in range(1, 10) if matches(seq, j)]
            assert len(hits) <= 1


def test_sj_disjoint_on_words(bs23, ce2_bs23):
    import random

    from gbs.words import random_closed_word
    rng = random.Random(61)
    for _ in range(500):
        f = random_closed_word(bs23, rng, 10, 4)
        hits = [j for j in range(1, 10) if pingpong.in_Sj(f, ce2_bs23, j)]
        assert len(hits) <= 1


def test_verify_small_and_counts(ce2_bs23):
    rep = pingpong.verify_pingpong(ce2_bs23, word_bound=1, exponent_bound=2)
    assert rep.passed
    assert rep.counterexample is None
    # identity and a^{+-9...} would be the only exclusions at this bound
    assert rep.excluded_g == 1
    assert rep.certified == rep.g_count * rep.j_count
    assert rep.pairs_checked == rep.g_count * rep.f_count * rep.j_count
    assert rep.to_json_dict() == {
        "pairs_checked": rep.pairs_checked, "pass": True, "counterexample": None}


def test_pairs_checked_skips_f_in_Sj(bs23):
    # four edge letters reach S'_1, so the bounded pools differ by j
    data = pingpong.build_ce2(bs23, "y", 0)
    rep = pingpong.verify_pingpong(data, word_bound=4, exponent_bound=1)
    fs = [GroupElement(bs23, f, _canonical=True)
          for f in closed_words(bs23, 4, 1)]
    pools = [sum(not pingpong.in_Sj(f, data, j) for f in fs)
             for j in range(1, 10)]
    assert rep.passed and rep.certified == rep.g_count * 9
    assert pools[0] < len(fs) and pools[1:] == [len(fs)] * 8
    assert rep.pairs_checked == rep.g_count * sum(pools)


@pytest.mark.parametrize("big_l, word_bound", [(0, 3), (3, 1), (2, 2)])
def test_one_closed_word_walk_per_proof(bs23, monkeypatch, big_l, word_bound):
    """One ``closed_words`` walk, to max(L, word_bound), gives both the g
    skeletons and the f pool, each the whole of its own bound's walk."""
    calls = []

    def counting(group, max_edges, exp_bound):
        calls.append(max_edges)
        return closed_words(group, max_edges, exp_bound)

    data = pingpong.build_ce2(bs23, "y", big_l)
    monkeypatch.setattr(pingpong, "closed_words", counting)
    rep = pingpong.verify_pingpong(data, word_bound, 1)
    assert calls == [max(big_l, word_bound)]
    assert rep.g_count + rep.excluded_g == \
        sum(1 for _ in closed_words(bs23, big_l, 1))
    assert rep.f_count == sum(1 for _ in closed_words(bs23, word_bound, 1))


def test_verify_negative_control(ce2_bs23):
    bad = pingpong.make_negative_control(ce2_bs23)
    rep = pingpong.verify_pingpong(bad, word_bound=1, exponent_bound=2)
    assert not rep.passed
    assert set(rep.counterexample) == {"j", "g", "f", "product"}
    # v = g is too short for S'_1, so f = 1 fails at the first pair
    assert rep.certified == 0 and rep.pairs_checked == 0
    assert rep.counterexample["f"] == "1"


def _starts_with_pattern(signs, j):
    pattern = (-1, 1) * j + (-1, -1)
    return tuple(signs[:len(pattern)]) == pattern


# Lengths 2p+2 for j = 1, 2 and 2p, the shortest certified length, for j = 3.
@pytest.mark.parametrize("j, max_len", [(1, 10), (2, 14), (3, 16)])
def test_failing_power_matches_definition(j, max_len):
    """The two-window rule against the literal all-f statement on every
    sign sequence s of v = z g z^-1 up to max_len: f cancelling k y-letters
    of v leaves s[:n-k] in the product and starts with -reverse(s[n-k:]),
    so the inclusion holds for every f iff, for every k, one of the two
    starts with the S'_j pattern."""
    edge = 3                                # the reversal is letter 2
    seen = set()
    for n in range(max_len + 1):
        for s in itertools.product((-1, 1), repeat=n):
            letters = [edge if x == 1 else edge ^ 1 for x in s]
            holds = all(
                _starts_with_pattern(s[:n - k], j)
                or _starts_with_pattern([-x for x in reversed(s[n - k:])], j)
                for k in range(n + 1))
            power = pingpong._failing_power(letters, edge, j)
            # letters of another edge pair (0 and 1) are skipped
            assert pingpong._failing_power(
                [y for x in letters for y in (0, x)] + [1], edge, j) == power
            seen.add(power)
            assert (power is None) == holds, s
            if power == 0:              # f = 1: the product is v itself
                assert not _starts_with_pattern(s, j)
            elif power == -1:           # f = v^-1 lies outside S'_j
                assert not _starts_with_pattern(
                    [-x for x in reversed(s)], j)
    assert seen == {None, 0, -1}


def _brute_force_certified(data, rep, word_bound, exponent_bound):
    """Check a report against one product and one S'_j test per bounded
    pair: every (j, g) the report certifies (the first ``certified`` in the
    verifier's order) passes every bounded f outside S'_j, and their pool
    sizes add up to ``pairs_checked``.  Returns the (j, g) that comes next,
    or None when the report certifies all of them."""
    group = data.group

    def el(items):
        return GroupElement(group, items, _canonical=True)

    tvert = group.graph.terminus[data.edge]
    gs = [el(g) for g in closed_words(group, data.L, exponent_bound)]
    gs = [g for g in gs if group.cyclic_membership(g, tvert, data.N) is None]
    fs = [el(f) for f in closed_words(group, word_bound, exponent_bound)]
    order = [(j, g) for j in range(1, len(data.z) + 1) for g in gs]
    pools = {j: [f for f in fs if not pingpong.in_Sj(f, data, j)]
             for j in range(1, len(data.z) + 1)}
    pairs = 0
    for j, g in order[:rep.certified]:
        z = data.z[j - 1]
        v = z * g * z.inverse()
        assert all(pingpong.in_Sj(v * f, data, j) for f in pools[j]), (j, g)
        pairs += len(pools[j])
    assert pairs == rep.pairs_checked
    return order[rep.certified] if rep.certified < len(order) else None


def _random_product(data, rng, length):
    """Seeded product of the generators a, b, t and their inverses."""
    out = data.group.identity()
    for _ in range(length):
        x = rng.choice((data.a, data.b, data.t))
        out = out * (x if rng.random() < 0.5 else x.inverse())
    return out


# On bs23 seeds 49 and 27 make the perturbed conjugator fail late (at j = 2
# and j = 8), after thousands of certified pairs.  The all-random
# conjugators are products of the generators a, b and t (_random_product).
@pytest.mark.parametrize("name, big_l, word_bound, exp_bound, seed", [
    ("bs23", 2, 1, 2, 49),
    ("bs23", 1, 2, 2, 27),
    ("gbs2", 2, 1, 1, 0),
    ("gbs2", 1, 2, 1, 0),
])
def test_verify_matches_brute_force(request, name, big_l, word_bound,
                                    exp_bound, seed):
    group = request.getfixturevalue(name)
    data = pingpong.build_ce2(group, "y", big_l)
    rng = random.Random(seed)
    k = rng.randrange(len(data.z))
    perturbed = list(data.z)
    perturbed[k] = perturbed[k] * random_closed_word(group, rng, 8, 3)
    cases = [
        data,
        pingpong.make_negative_control(data),
        data._replace(z=tuple(perturbed)),
        data._replace(z=tuple(_random_product(data, rng, 16)
                              for _ in data.z)),
    ]
    outcomes = [_matches_brute_force(case, word_bound, exp_bound)
                 for case in cases]
    assert outcomes[:2] == [True, False]


def _matches_brute_force(case, word_bound, exp_bound):
    """Run the verifier on ``case``, check its report against
    ``_brute_force_certified`` and return its verdict.  A counterexample
    must be the next pair and fail by a real product."""
    group = case.group
    rep = pingpong.verify_pingpong(case, word_bound, exp_bound)
    failing = _brute_force_certified(case, rep, word_bound, exp_bound)
    assert rep.passed == (failing is None)
    if rep.passed:
        assert rep.counterexample is None
        return True
    ce = rep.counterexample
    j, g = failing
    assert (ce["j"], ce["g"]) == (j, str(g))
    z = case.z[j - 1]
    f = group.from_string(ce["f"])
    product = group.from_string(ce["product"])
    assert z * g * z.inverse() * f == product
    assert not pingpong.in_Sj(f, case, j)
    assert not pingpong.in_Sj(product, case, j)
    return False


def _ce2_edges(group, big_l):
    """build_ce2 data on every directed edge of ``group`` it accepts."""
    out = []
    for e in range(group.graph.n_edges):
        try:
            out.append(pingpong.build_ce2(group, e, big_l))
        except pingpong.PingPongError:
            pass
    return out


def _random_ce2(count, big_l):
    """build_ce2 data on the first edge it accepts, for each of the first
    ``count`` seeded random graphs that have one."""
    rng = random.Random(0)
    out = []
    while len(out) < count:
        out += _ce2_edges(GbsGroup.from_text(random_graph_text(rng)), big_l)[:1]
    return out


def test_verify_matches_brute_force_on_random_graphs():
    """The brute-force oracle beyond the two fixtures, on 20 random graphs:
    the real conjugators, the negative control, and one conjugator with a
    random word in front, which changes the head of its v (some of these
    still pass)."""
    rng = random.Random(23)
    outcomes = Counter()
    for data in _random_ce2(20, 1):
        k = rng.randrange(len(data.z))
        perturbed = list(data.z)
        perturbed[k] = random_closed_word(data.group, rng, 2, 3) * perturbed[k]
        cases = (("real", data),
                 ("control", pingpong.make_negative_control(data)),
                 ("perturbed", data._replace(z=tuple(perturbed))))
        for kind, case in cases:
            outcomes[kind, _matches_brute_force(case, 1, 1)] += 1
    assert outcomes["real", True] == outcomes["control", False] == 20
    assert outcomes["perturbed", True] and outcomes["perturbed", False]


def test_verify_passes_on_random_graphs():
    """Every non-tree directed edge of the first 400 seeded random graphs
    at L = 1, word bound 0 and exponent bound 3: ``build_ce2`` accepts the
    proper ones, and every one with a g to prove passes; it rejects the
    improper ones, and their unguarded data fails whenever some g is left.
    So y's properness is the one hypothesis the proof needs.  With no g
    outside <a^N>, the verifier raises."""
    rng = random.Random(0)
    outcomes = Counter()
    graphs = certified = 0
    for _ in range(400):
        group = GbsGroup.from_text(random_graph_text(rng))
        passing = 0
        for e in range(group.graph.n_edges):
            if e in group.spanning.tree_edges:
                continue
            proper = min(abs(group.graph.alpha[x]) for x in (e, e ^ 1)) > 1
            if proper:
                data = pingpong.build_ce2(group, e, 1)
            else:
                with pytest.raises(pingpong.PingPongError, match="improper"):
                    pingpong.build_ce2(group, e, 1)
                data = pingpong._ce2_data(group, e, 1)
            try:
                rep = pingpong.verify_pingpong(data, 0, 3)
            except pingpong.PingPongError as exc:
                assert "no g outside" in str(exc)
                outcomes[proper, "vacuous"] += 1
                continue
            outcomes[proper, rep.passed] += 1
            if rep.passed:
                passing += 1
                certified += rep.certified
        graphs += bool(passing)
    assert outcomes == {(True, True): 859, (True, "vacuous"): 7,
                        (False, False): 326, (False, "vacuous"): 38}
    assert (graphs, certified) == (265, 334_332)


def test_outside_cyclic_matches_kernel_conjugation():
    """The seam exclusion against the two-product kernel conjugation
    h^-1 g h on seeded random graphs, for every vertex P and n in {1, 2,
    3, 6}: powers a_P^(n q) and random closed words, each with its
    trailing exponent shifted by -2..2.  Members with edge letters are the
    powers whose tree path to P does not collapse; the fixtures have none
    (on gbs2, a_Q^(24 q) is a_P^(36 q))."""
    rng = random.Random(29)
    cases = Counter()
    for _ in range(60):
        group = GbsGroup.from_text(random_graph_text(rng))
        alpha = group.graph.alpha
        for vertex in range(group.graph.n_vertices):
            h = group.geodesic_items(vertex)
            a = group.vertex_generator(vertex)
            for n in (1, 2, 3, 6):
                gs = [a ** (n * q) for q in range(-3, 4)]
                gs += [random_closed_word(group, rng, 4, 3, nontrivial=False)
                       for _ in range(6)]
                for g in gs:
                    s = list(g.items[:-1]) + [0]
                    ks = range(g.items[-1] - 2, g.items[-1] + 3)
                    outside = pingpong._outside_cyclic(s, ks, h, n, alpha)
                    for k in ks:
                        x = kernel_conjugate(group, s[:-1] + [k], h)
                        member = len(x) == 1 and x[0] % n == 0
                        assert (k not in outside) == member
                        cases[member, len(s) > 1] += 1
    assert min(cases.values()) >= 2500, cases


def _seam_check(a, b, k, alpha):
    """Check ``_seam_depth`` and ``_collapsed_exponent`` against the kernel
    product of ``a``, with its trailing exponent raised by k, and ``b``;
    return the depth and whether both sides collapse."""
    ak = a[:-1] + [a[-1] + k]
    product = wordcore.mul_items(ak, b, alpha)
    d, r = _seam_depth(a, k, b, alpha)
    # each pinch removes one letter and one exponent from each side
    assert 4 * d == len(a) + len(b) - 1 - len(product)
    n = len(a) // 2
    assert product[1::2] == a[1::2][:n - d] + b[1::2][d:]
    collapsed = len(product) == 1
    if collapsed:
        assert product == [r]
    assert _collapsed_exponent(a, k, b, alpha) == (r if collapsed else None)
    return d, collapsed


def test_seam_depth_matches_kernel(bs23, gbs2, two_vertex, chain3):
    """The pinch count and the letters it predicts, against mul_items, on
    a = x y and b = y^-1 z over the fixtures and seeded random graphs, and
    on the verifier's own z_j s and z_j^-1; raising b's trailing exponent
    by k raises the product's by k.  A product that collapses fully is the
    exponent the seam leaves."""
    rng = random.Random(19)
    groups = [bs23, gbs2, two_vertex, chain3]
    groups += [GbsGroup.from_text(random_graph_text(rng)) for _ in range(20)]
    depths = Counter()
    for group in groups:
        alpha = group.graph.alpha
        for _ in range(20):
            x, y, z = (random_closed_word(group, rng, 4, 3, nontrivial=False)
                       for _ in range(3))
            a, b = list((x * y).items), list((y.inverse() * z).items)
            ab = wordcore.mul_items(a, b, alpha)
            for k in range(-6, 7):
                depths[_seam_check(a, b, k, alpha)] += 1
                bk = b[:-1] + [b[-1] + k]
                assert wordcore.mul_items(a, bk, alpha) == ab[:-1] + [ab[-1] + k]
    for group in (bs23, gbs2):
        data = pingpong.build_ce2(group, "y", 2)
        alpha = group.graph.alpha
        for z in data.z:
            zj, zj_inv = list(z.items), list(z.inverse().items)
            for s in closed_words(group, 2, 0):
                w = wordcore.mul_items(zj, list(s), alpha)
                for k in range(-6, 7):
                    depths[_seam_check(w, zj_inv, k, alpha)] += 1
    assert set(range(7)) <= {d for d, _ in depths}
    assert {(d, True) for d in range(5)} <= set(depths)


@pytest.mark.parametrize(
    "name, products, exclusions, reads, collapsed, records, pairs",
    [("bs23", 35, 1, 12, 13, 34, 4_179_474),
     ("gbs2", 55, 6, 25, 78, 49, 2_552_004)], ids=["bs23", "gbs2"])
def test_verify_product_counts(request, monkeypatch, name, products,
                               exclusions, reads, collapsed, records, pairs):
    """The <a^N> exclusion forms h^-1 s only for a skeleton s whose seam
    walk with h^-1 leaves h's letter count: on bs23 h is empty and only
    the identity skeleton qualifies; on gbs2 l(h) = 1 and 6 of the 41
    skeletons do.  Each such h^-1 s reads the seam of each of its 13 k.
    One product per skeleton gives the verdicts at j = 1; each later j
    costs one junction product, and r1 none, since it is stored: a product
    per (j >= 2, skeleton), per g or per (j, g) fails by count.  The
    window bound proves all but the (1, g) of a few skeletons without a
    seam walk, the depths walked stay within it, so no window of v is
    read, and every (j >= 2, g) follows from (1, g), one record per j."""
    group = request.getfixturevalue(name)
    data = pingpong.build_ce2(group, "y", 2)
    skeletons = sum(1 for _ in closed_words(group, 2, 0))
    calls = Counter()
    mul, failing_power = wordcore.mul_items, pingpong._failing_power
    collapsed_exponent = pingpong._collapsed_exponent
    failing_powers = pingpong._failing_powers

    def counting(a, b, alpha):
        calls["mul"] += 1
        return mul(a, b, alpha)

    def counting_power(letters, edge, j):
        calls["power"] += 1
        return failing_power(letters, edge, j)

    def counting_collapsed(w, k, b, alpha):
        calls["collapsed"] += 1
        return collapsed_exponent(w, k, b, alpha)

    def counting_records(data, skeletons):
        for record in failing_powers(data, skeletons):
            calls["records"] += 1
            yield record

    monkeypatch.setattr(wordcore, "mul_items", counting)
    monkeypatch.setattr(pingpong, "_failing_power", counting_power)
    monkeypatch.setattr(pingpong, "_collapsed_exponent", counting_collapsed)
    monkeypatch.setattr(pingpong, "_failing_powers", counting_records)
    rep = pingpong.verify_pingpong(data, word_bound=3, exponent_bound=6)
    assert rep.passed
    assert calls["mul"] == products == (exclusions + skeletons
                                        + rep.j_count - 1)
    assert calls["collapsed"] == collapsed
    assert calls["records"] == records == skeletons + rep.j_count - 1
    assert rep.certified == rep.g_count * rep.j_count
    assert rep.pairs_checked == pairs
    assert rep.seam_reads == reads and calls["power"] == 0
    assert "seam_reads" not in rep.to_json_dict()


def _per_j_powers(data, skeletons):
    """``_failing_powers`` as it read every (j, skeleton): one product and
    one reach per pair, no junction."""
    for j, z in enumerate(data.z, 1):
        read = pingpong._skeleton_reader(data, j, z)
        for s, ks in skeletons:
            yield (j, s) + read(s, ks)[:3]


def _report_matches_per_j(monkeypatch, data, word_bound, exp_bound):
    """Run the verifier on ``data`` and again with the per-j reading of
    every (j, skeleton); the reports agree but for seam_reads, which the
    junction only lowers.  Returns the verifier's report."""
    rep = pingpong.verify_pingpong(data, word_bound, exp_bound)
    with monkeypatch.context() as patch:
        patch.setattr(pingpong, "_failing_powers", _per_j_powers)
        oracle = pingpong.verify_pingpong(data, word_bound, exp_bound)
    assert rep._replace(seam_reads=0) == oracle._replace(seam_reads=0)
    assert rep.seam_reads <= oracle.seam_reads
    return rep


@pytest.mark.parametrize("name, big_l", [("bs23", 1), ("bs23", 2),
                                         ("gbs2", 1), ("gbs2", 2)])
def test_junction_matches_per_j_reading(request, monkeypatch, name, big_l):
    """The verifier against the per-j reading on y and ~y: the real
    conjugators pass, and every mutant gets the same report, counterexample
    included.  The mutants: the negative control, r2 replaced by r1^2, the
    cut conjugators, one z_k with a random word in front or behind, and
    two that keep z_j = r1^(j-1) z_1 but break another premise of the
    junction: z_1 without its leading a (r1 z_1 pinches a y-letter), and
    r1 replaced by a t b t^-1 (its y-signs are (+, -))."""
    group = request.getfixturevalue(name)
    rng = random.Random(53)
    verdicts = Counter()
    for edge in ("y", "~y"):
        data = pingpong.build_ce2(group, edge, big_l)
        r1 = data.r1
        k = rng.randrange(len(data.z))
        x = random_closed_word(group, rng, 3, 3)
        flipped = data._replace(r1=data.a * data.t * data.b * data.t.inverse())
        cases = {
            "real": data,
            "control": pingpong.make_negative_control(data),
            "r2 = r1^2": data._replace(z=tuple(
                r1 ** (j + 2 + big_l) for j in range(1, len(data.z) + 1))),
            "cut": data._replace(z=_cut_conjugators(data)),
            "prefix": data._replace(
                z=data.z[:k] + (x * data.z[k],) + data.z[k + 1:]),
            "suffix": data._replace(
                z=data.z[:k] + (data.z[k] * x,) + data.z[k + 1:]),
            "pinched": data._replace(z=tuple(
                r1 ** j * data.a.inverse() * data.z[0]
                for j in range(len(data.z)))),
            "flipped": flipped._replace(z=tuple(
                flipped.r1 ** j * data.z[0] for j in range(len(data.z)))),
        }
        for kind, case in cases.items():
            rep = _report_matches_per_j(monkeypatch, case, 1, 3)
            verdicts[kind, rep.passed] += 1
            if kind in ("pinched", "flipped"):
                assert rep.counterexample["j"] == 2
    assert verdicts["real", True] == verdicts["control", False] == 2
    assert verdicts["r2 = r1^2", False] == 2


def test_junction_matches_per_j_on_improper_edges(monkeypatch):
    """Unguarded data on improper edges of seeded random graphs fails, with
    the per-j reading's report."""
    rng = random.Random(0)
    failed = 0
    while failed < 10:
        group = GbsGroup.from_text(random_graph_text(rng))
        for e in range(group.graph.n_edges):
            if e in group.spanning.tree_edges or min(
                    abs(group.graph.alpha[x]) for x in (e, e ^ 1)) > 1:
                continue
            try:
                rep = _report_matches_per_j(
                    monkeypatch, pingpong._ce2_data(group, e, 1), 1, 3)
            except pingpong.PingPongError:
                continue                # nothing to prove
            assert not rep.passed
            failed += 1


@pytest.mark.parametrize("name, certified", [
    ("bs23", (3033, 5392, 10784)), ("gbs2", (4788, 8512, 17024))])
def test_junction_proves_every_stored_j(request, monkeypatch, name,
                                        certified):
    """Criterion 3's bounds with 9, 16 and 32 conjugators: every (j, g) is
    proven, as the per-j reading proves it, and only j = 1 reads seams."""
    group = request.getfixturevalue(name)
    data = pingpong.build_ce2(group, "y", 2)
    reads = set()
    for count, expected in zip((9, 16, 32), certified):
        case = data._replace(z=tuple(pingpong.averaging_elements(data, count)))
        rep = _report_matches_per_j(monkeypatch, case, 1, 6)
        assert rep.passed and rep.certified == expected
        reads.add(rep.seam_reads)
    assert len(reads) == 1


def _skeletons(case, exp_bound):
    """The g skeletons of ``case`` with their trailing exponents within
    ``exp_bound`` outside <a^N>, as ``verify_pingpong`` lists them."""
    group = case.group
    h = group.geodesic_items(group.graph.terminus[case.edge])
    ks = range(-exp_bound, exp_bound + 1)
    return [(s, pingpong._outside_cyclic(s, ks, h, case.N, group.graph.alpha))
            for s in map(list, closed_words(group, case.L, 0))]


def _bound_matches_kernel(case, exp_bound):
    """Check the window bound of the per-j reading against v's full
    letters, v = z_j s a^k z_j^-1 formed by two kernel products, for every
    (j, s, k) of ``case`` with trailing exponent within ``exp_bound``:
    the seam depth d never passes the reach; a d within the bound has no
    failing power; and each (j, s) record gives the leading proven k, the
    first failing (k, power) and the seam reads.  Then check
    ``_failing_powers`` against those records.  Returns a Counter of
    (certified by the bound, failing power), and the number of j read per
    skeleton though their junction holds (``_junction_matches_per_j``)."""
    edge, alpha = case.edge, case.group.graph.alpha
    skeletons = _skeletons(case, exp_bound)
    per_j = list(_per_j_powers(case, skeletons))
    records = iter(per_j)
    outcomes = Counter()
    for j, z in enumerate(case.z, 1):
        zj, zj_inv = list(z.items), list(z.inverse().items)
        width = pingpong._pattern_width(zj[1::2], edge, j)
        for s, kept in skeletons:
            w = wordcore.mul_items(zj, s, alpha)
            limit = pingpong._depth_bound(zj, s, w, width)
            reach = _seam_reach(w, zj_inv)
            powers = []
            for k in kept:
                zg = wordcore.mul_items(zj, s[:-1] + [k], alpha)
                v = wordcore.mul_items(zg, zj_inv, alpha)
                power = pingpong._failing_power(v[1::2], edge, j)
                d = _seam_depth(w, k, zj_inv, alpha)[0]
                assert d <= reach
                assert d > limit or power is None, (j, s, k)
                outcomes[d <= limit, power] += 1
                powers.append(power)
            proven = next((i for i, x in enumerate(powers) if x is not None),
                          len(powers))
            failure = ((kept[proven], powers[proven])
                       if proven < len(kept) else None)
            reads = 0 if reach <= limit else proven + (failure is not None)
            assert next(records) == (j, s, proven, failure, reads)
    assert next(records, None) is None
    return outcomes, _junction_matches_per_j(case, skeletons, per_j)


def _junction_holds(case):
    """The j >= 2 whose junction premises hold, from group elements: z_j
    is r1^(j-1) z_1, r1's y-signs are (-, +), and z_j has 2(j - 1) more
    y-letters than z_1 (see ``verify_pingpong``)."""
    signs = [x for x in case.r1.items[1::2] if x // 2 == case.edge // 2]
    if signs != [case.edge ^ 1, case.edge]:
        return set()
    lemma = pingpong.averaging_elements(case._replace(z=case.z[:1]),
                                        len(case.z))
    ly = [z.edge_letter_count(case.edge) for z in case.z]
    return {j for j in range(2, len(case.z) + 1)
            if case.z[j - 1] == lemma[j - 1]
            and ly[j - 1] == ly[0] + 2 * (j - 1)}


def _junction_matches_per_j(case, skeletons, per_j):
    """``_failing_powers`` gives every (j, s) the verdict of the per-j
    records ``per_j``, past a failure too, once each summary record
    (j, None, all k, None, 0) is expanded into the records (j, s, len(ks),
    None) it stands for; a summary comes only from a j >= 2 whose junction
    holds, and reads no seam.  Every other j reads every skeleton, with
    the per-j reading's seam reads.  Returns the number of j >= 2 whose
    junction holds but which are read whole, because some (1, g) read a
    sign window of v."""
    junction = _junction_holds(case)
    records, fallbacks = [], set()
    for record in pingpong._failing_powers(case, skeletons):
        j, s = record[:2]
        if s is None:
            assert j in junction
            assert record == (j, None, sum(len(ks) for _, ks in skeletons),
                              None, 0)
            records += [(j, s, len(ks), None, None) for s, ks in skeletons]
        else:
            if j in junction:
                fallbacks.add(j)
            records.append(record)
    for new, old in itertools.zip_longest(records, per_j):
        assert new[:4] == old[:4]
        assert new[4] in (old[4], None)
    return len(fallbacks)


def _cut_conjugators(data):
    """r1^j a t^-1 b t^-1 for each j: S'_j's pattern ends at the last
    letter, so a skeleton whose first letter pinches that letter (t a t on
    bs23) moves it out of the window."""
    a, b, t = data.a, data.b, data.t
    return tuple(data.r1 ** j * a * t.inverse() * b * t.inverse()
                 for j in range(1, len(data.z) + 1))


def _bound_cases(data, rng):
    """The real conjugators, the negative control, and every conjugator
    with a random word on each side (some of these pass)."""
    group = data.group
    perturbed = tuple(random_closed_word(group, rng, 2, 3) * z
                      * random_closed_word(group, rng, 2, 3) for z in data.z)
    return (("real", data),
            ("control", pingpong.make_negative_control(data)),
            ("perturbed", data._replace(z=perturbed)))


@pytest.mark.parametrize("name", ["bs23", "gbs2"])
def test_window_bound_matches_kernel_on_fixtures(request, name):
    """Criterion 3's bounds on y and ~y, with the cut conjugators besides
    the real, control and perturbed ones; the real ones read no window.
    The cut conjugators keep the junction at every j >= 2 while some
    skeleton fails at j = 1, so their 8 later j on each edge are read
    whole, which covers that path of ``_failing_powers``."""
    group = request.getfixturevalue(name)
    rng = random.Random(37)
    outcomes = Counter()
    fallbacks = 0
    for edge in ("y", "~y"):
        data = pingpong.build_ce2(group, edge, 2)
        cases = _bound_cases(data, rng)
        cases += (("cut", data._replace(z=_cut_conjugators(data))),)
        for kind, case in cases:
            counts, fallback = _bound_matches_kernel(case, 6)
            fallbacks += fallback
            for (bounded, power), count in counts.items():
                outcomes[kind, bounded, power is None] += count
    kinds = {kind: {key[1:] for key in outcomes if key[0] == kind}
             for kind in ("real", "control", "perturbed", "cut")}
    assert kinds["real"] == {(True, True)}
    assert kinds["control"] == {(False, False)}
    assert kinds["perturbed"] >= {(True, True), (False, False)}
    assert kinds["cut"] >= {(True, True), (False, True), (False, False)}
    assert fallbacks == 16


@pytest.mark.parametrize("name, edge", [("bs23", "y"), ("bs23", "~y"),
                                        ("gbs2", "y")])
def test_junction_needs_z1_windows(request, name, edge):
    """The family z_j = r1^(j-1) z_1 from the cut conjugator z_1 = r1 a
    t^-1 b t^-1 at L = 2, on the skeletons whose (1, g) all pass: the
    junction holds at every j >= 2, yet some (1, g) is proven only by
    reading a sign window of v, its seam past z_1's pattern width W but
    short of z_1's first y-letter.  The lemma's one hypothesis on g is
    that z_1's own windows proved (1, g), so no j is summarised: every j
    is read whole, with the per-j reading's records, and every (j, g)
    passes."""
    group = request.getfixturevalue(name)
    data = pingpong.build_ce2(group, edge, 2)
    case = data._replace(z=_cut_conjugators(data)[:1])
    case = case._replace(z=tuple(pingpong.averaging_elements(case, 9)))
    alpha = group.graph.alpha
    z1, z1_inv = list(case.z[0].items), list(case.z[0].inverse().items)
    width = pingpong._pattern_width(z1[1::2], case.edge, 1)
    read = pingpong._skeleton_reader(case, 1, case.z[0])
    kept, windowed = [], []
    for s, ks in _skeletons(case, 6):
        _, failure, _, flag = read(s, ks)
        if failure is None:
            w = wordcore.mul_items(z1, s, alpha)
            limit = pingpong._depth_bound(z1, s, w, width)
            assert flag == any(_seam_depth(w, k, z1_inv, alpha)[0] > limit
                               for k in ks)
            kept.append((s, ks))
            windowed.append(flag)
    assert any(windowed)
    assert _junction_holds(case) == set(range(2, len(case.z) + 1))
    per_j = list(_per_j_powers(case, kept))
    assert all(record[3] is None for record in per_j)
    assert all(record[1] is not None
               for record in pingpong._failing_powers(case, kept))
    assert _junction_matches_per_j(case, kept, per_j) == len(case.z) - 1


def test_window_bound_matches_kernel_on_random_graphs():
    """Every directed edge that build_ce2 accepts at L = 1 on the first 400
    seeded random graphs, at exponent bound 1."""
    rng, case_rng = random.Random(0), random.Random(41)
    outcomes = Counter()
    for _ in range(400):
        for data in _ce2_edges(GbsGroup.from_text(random_graph_text(rng)), 1):
            for kind, case in _bound_cases(data, case_rng):
                counts, _ = _bound_matches_kernel(case, 1)
                for (bounded, power), count in counts.items():
                    outcomes[kind, bounded, power is None] += count
    assert outcomes["real", False, False] == 0
    assert outcomes["real", True, True] > outcomes["real", False, True]
    assert outcomes["perturbed", True, True] and \
        outcomes["perturbed", False, False]


def test_verify_refuses_data_without_conjugators(ce2_bs23):
    """With no conjugator there is nothing to prove: an error, not a pass
    that certified nothing."""
    with pytest.raises(pingpong.PingPongError, match="no conjugators"):
        pingpong.verify_pingpong(ce2_bs23._replace(z=()), 1, 3)


def test_verify_gbs2_at_spec_bounds(gbs2):
    data = pingpong.build_ce2(gbs2, "y", 2)
    rep = pingpong.verify_pingpong(data, word_bound=3, exponent_bound=6)
    assert rep.passed
    assert rep.certified == rep.g_count * rep.j_count == 4788
    assert rep.pairs_checked == 2552004


def test_choose_cd_examples(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    cases = [
        (t * a * t.inverse(), ("a", "a")),
        (a, ("e", "e")),
        (t * a ** 2, ("a", "e")),
    ]
    for g, expected in cases:
        (c, d), flags = pingpong.choose_cd(bs23, "y", g)
        assert flags == expected
        base = g.edge_letter_count("y")
        for u in (t, t.inverse()):
            for v in (t, t.inverse()):
                assert (u * c * g * d * v).edge_letter_count("y") == base + 2


def test_choose_cd_needs_proper_origin_subgroup():
    group = GbsGroup(*parse_graph(bs_text(1, 3)))     # |alpha(~y)| = 1
    with pytest.raises(pingpong.PingPongError,
                       match="needs a proper edge subgroup at the origin"):
        pingpong.choose_cd(group, "y", group.identity())


@pytest.fixture(scope="module")
def theorem_bs23(bs23):
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    return pingpong.build_theorem_data(bs23, "y", t * a * t.inverse(), 4)


def test_theorem_data_structure(bs23, theorem_bs23):
    td = theorem_bs23
    a = bs23.vertex_generator("P")
    t = bs23.edge_generator("y")
    g = td.g
    # r'_j = g d t^-j b t^j d g^-1 c t^-j b t^j c with c = d = a here
    rp1 = (g * a * t.inverse() * a * t * a * g.inverse()
           * a * t.inverse() * a * t * a)
    assert td.rp1 == rp1
    assert td.ly_rp1 == rp1.edge_letter_count("y") == 8
    assert td.w[0] == rp1.inverse() * td.rp2.inverse() ** 2
    assert td.w[2] == td.rp1.inverse() ** 3 * td.rp2.inverse() ** 2


@pytest.mark.parametrize("name", ["bs23", "gbs2"])
def test_theorem_conjugators_follow_the_recursion(request, name):
    """w_{i+1} = rp1^-1 w_i gives w_i = rp1^-i rp2^-2 for every i <= count,
    and count = 0 gives no w."""
    group = request.getfixturevalue(name)
    a = group.vertex_generator(group.graph.terminus[group.graph.edge_id("y")])
    t = group.edge_generator("y")
    g = t * a * t.inverse()
    assert pingpong.build_theorem_data(group, "y", g, 0).w == ()
    td = pingpong.build_theorem_data(group, "y", g, 6)
    assert len(td.w) == 6
    for i, w in enumerate(td.w, 1):
        assert w == td.rp1.inverse() ** i * td.rp2.inverse() ** 2


def test_theorem_modular_kernel(theorem_bs23):
    assert modular_value(theorem_bs23.rp1) == 1
    assert modular_value(theorem_bs23.rp2) == 1
    for w in theorem_bs23.w:
        assert modular_value(w) == 1


def test_k1_exponent_stabilizes_coset(bs23, theorem_bs23):
    td = theorem_bs23
    a = bs23.vertex_generator("P")
    k1 = td.K1_exponent
    conj = td.rp2.inverse() * a ** k1 * td.rp2
    assert bs23.as_vertex_power(conj, "P") is not None
    for k in range(1, k1):
        conj = td.rp2.inverse() * a ** k * td.rp2
        assert bs23.as_vertex_power(conj, "P") is None
    assert td.K0_exponent == 18   # lcm(N=9, K1)


def test_r_primes_fix_K1(bs23, theorem_bs23):
    td = theorem_bs23
    h = bs23.vertex_generator("P") ** td.K1_exponent
    assert td.rp1.inverse() * h * td.rp1 == h
    assert td.rp2.inverse() * h * td.rp2 == h


def test_w_letters_cover_their_windows(bs23, gbs2):
    """Each w_i has at least the i*l_y(r'_1)+2 y-letters that in_Ui reads
    off it, so its window is never cut short."""
    for group in (bs23, gbs2):
        a = group.vertex_generator(group.graph.terminus[group.graph.edge_id("y")])
        t = group.edge_generator("y")
        td = pingpong.build_theorem_data(group, "y", t * a * t.inverse(), 6)
        for i, w in enumerate(td.w, 1):
            assert w.edge_letter_count("y") >= i * td.ly_rp1 + 2


def test_u_sets_disjoint(bs23, theorem_bs23):
    import random

    from gbs.words import random_closed_word
    td = theorem_bs23
    rng = random.Random(67)
    found = 0
    for _ in range(400):
        f = random_closed_word(bs23, rng, 12, 4)
        hits = [i for i in range(1, 5) if in_Ui(f, td, i)]
        assert len(hits) <= 1
        found += bool(hits)
    for i in range(1, 5):
        assert in_Ui(td.w[i - 1], td, i)
        for k in range(1, 5):
            if k != i:
                assert not in_Ui(td.w[i - 1], td, k)


def test_w_conjugation_contract(bs23, theorem_bs23):
    """w_i h w_i^-1 f lands in U_i for h in <a> minus <a^K1> and f outside."""
    import random

    from gbs.words import random_closed_word
    td = theorem_bs23
    a = bs23.vertex_generator("P")
    rng = random.Random(71)
    for i in (1, 2):
        w = td.w[i - 1]
        for exp in range(-6, 7):
            if exp == 0 or exp % td.K1_exponent == 0:
                continue
            core = w * a ** exp * w.inverse()
            for _ in range(25):
                f = random_closed_word(bs23, rng, 4, 4, nontrivial=False)
                if in_Ui(f, td, i):
                    continue
                assert in_Ui(core * f, td, i)
