"""Brute-force oracles and word helpers that more than one test module
uses.  Test modules import from here, not from each other."""

from collections import Counter
from itertools import islice

from gbs.words import MAX_EDGE_LENGTH, GroupElement, WordError, path_string


def oracle_big_n(group, edge, bound=200):
    """The least j >= 1 with t^2 a^j t^-2 in <b>, by search over j up to
    ``bound``: t = g_y, a and b the generators at t(y) and o(y)."""
    graph = group.graph
    e = graph.edge_id(edge)
    a = group.vertex_generator(graph.terminus[e])
    t2 = group.edge_generator(e) ** 2
    for j in range(1, bound + 1):
        if group.as_vertex_power(t2 * a ** j * t2.inverse(),
                                 graph.origin[e]) is not None:
            return j
    raise AssertionError("oracle bound exceeded")


def insert_pinch(group, items, rng):
    """``items`` with a random pinch e a^(alpha(e) s) bar-e spliced in at a
    random exponent slot, the exponents around it split so that the word
    still represents the same element."""
    graph = group.graph
    items = list(items)
    slot = rng.randrange(0, len(items), 2)
    v = group.base
    for i in range(1, slot, 2):
        v = graph.terminus[items[i]]
    choices = graph.edges_from(v)
    e = rng.choice(choices)
    s = rng.randint(-3, 3)
    r1 = rng.randint(-5, 5)
    r2 = items[slot] - r1 - graph.alpha[e ^ 1] * s
    return items[:slot] + [r1, e, graph.alpha[e] * s, e ^ 1, r2] + items[slot + 1:]


def tree_depths(ball):
    """Each vertex's BFS depth in a ``tree.TreeBall``, counted over its
    edges: the base's is 0 and a child's its parent's + 1.  Every vertex
    but the base is the child of exactly one edge, listed after its
    parent's."""
    depths = [0] + [None] * (len(ball.vertices) - 1)
    for parent, child, _, _ in ball.edges:
        assert depths[child] is None and depths[parent] is not None
        depths[child] = depths[parent] + 1
    assert None not in depths
    return depths


def tree_degrees(ball):
    """Each vertex's degree in a ``tree.TreeBall``, by index, counted over
    its edges."""
    return Counter(i for a, b, _, _ in ball.edges for i in (a, b))


def ball_elements(ball):
    """The ``GroupElement``s of an ``opsim.Ball``, in index order."""
    return [GroupElement(ball.group, items, _canonical=True)
            for items in ball.index]


def _head(letters, edge, count):
    """The first ``count`` letters of ``letters`` from the pair of ``edge``."""
    return list(islice(filter({edge, edge ^ 1}.__contains__, letters), count))


def in_Ui(f, data, i):
    """Membership in U'_i for ``pingpong.TheoremData``: the sign prefix of
    length i*l_y(r'_1)+2 along the edge matches w_i's."""
    need = i * data.ly_rp1 + 2
    window = _head(data.w[i - 1].items[1::2], data.edge, need)
    return _head(f.items[1::2], data.edge, need) == window


def tree_json_dict(ball):
    """The rows of ``tree.TreeBall.to_json`` as a dict, each key printed by
    ``path_string`` and each depth counted over the ball's edges."""
    group = ball.group
    graph = group.graph
    depths = tree_depths(ball)
    return {
        "radius": ball.radius,
        "vertices": [
            {
                "id": i,
                "vertex": graph.vertices[v.vertex],
                "key": path_string(graph, group.base, v.key),
                "depth": depths[i],
                "frontier": depths[i] == ball.radius,
            }
            for i, v in enumerate(ball.vertices)
        ],
        "edges": [
            {"source": a, "target": b, "edge": graph.edge_name(e),
             "residue": rho}
            for a, b, e, rho in ball.edges
        ],
    }


def from_string_by_factors(group, text):
    """``GbsGroup.from_string`` one factor at a time: each factor a
    ``GroupElement``, its power by repeated squaring, the factors
    multiplied left to right.  Each power, not the whole word, is capped
    (an a[P] power not at all)."""
    text = text.strip()
    factors = []
    vertex_power = False    # the last factor is a power of some a[P]
    powered = False         # the last factor already carries an exponent
    pos, n = 0, len(text)
    expect_atom = True
    while pos < n:
        m = group._TOKEN.match(text, pos)
        if not m or m.group(6):
            raise WordError(f"bad word syntax at position {pos}: "
                            f"{text[pos:pos+10]!r}")
        pos = m.end()
        star, power, atom_a, atom_g, one = m.group(1, 2, 3, 4, 5)
        if star:
            if expect_atom:
                raise WordError("misplaced '*'")
            expect_atom = True
        elif power:
            if expect_atom or powered:
                raise WordError("misplaced exponent")
            try:
                k = int(power[1:])
            except ValueError:
                raise WordError(
                    f"exponent too long at position {m.start(2)}") from None
            length = factors[-1].edge_length
            if not vertex_power and length * abs(k) > MAX_EDGE_LENGTH:
                raise WordError(
                    f"power of a factor of edge length {length} exceeds "
                    f"the edge-length cap {MAX_EDGE_LENGTH}")
            factors[-1] = factors[-1] ** k
            powered = True
        elif one:
            if not expect_atom:
                raise WordError("misplaced '1'")
            factors.append(group.identity())
            vertex_power = powered = False
            expect_atom = False
        else:
            if not expect_atom:
                raise WordError("missing '*' between factors")
            if atom_a:
                factors.append(group.vertex_generator(atom_a[2:-1]))
            else:
                factors.append(group.edge_generator(atom_g[2:-1]))
            vertex_power, powered = bool(atom_a), False
            expect_atom = False
    if expect_atom:
        raise WordError("empty word" if not factors else "dangling '*'")
    out = group.identity()
    for f in factors:
        out = out * f
    return out
