"""Finite balls of the universal covering tree and the group action.

Vertices of the covering are cosets g G_P, one family per vertex type P.
A coset is keyed by the canonical form of a representative path word from
the base to P with its trailing exponent zeroed; right multiplication by
powers of a_P only moves that trailing exponent, so the key is a faithful
coset invariant.  ``stabilizes`` reads it: g fixes h G_P iff the key of
g h is the key of h, one kernel product.

Neighbours of g G_P: for every edge e with origin P and every residue
rho in {0, ..., |alpha(bar e)| - 1}, the coset (g a_P^rho g_e) G_{t(e)}.
Except for the parent (the back edge with residue 0), its key is g's with
rho, e, 0 appended, canonical as it stands: these are the steps of the
closed-word rule ``GbsGroup.steps``, and a depth-d key has 2d + 1 items.
"""

from __future__ import annotations

from typing import NamedTuple

from gbs import wordcore
from gbs.graphs import Decomposition, GraphError, decompose, paths_from
from gbs.words import GbsGroup, GroupElement, WordError, path_items


# Caps on one ``ball``: about 1 KB per vertex once exported.
MAX_BALL_VERTICES = 500_000
MAX_BALL_KEY_LETTERS = 10_000_000


class SearchExhausted(RuntimeError):
    """A bounded tree search ran out of radius before succeeding."""


class TreeVertex(NamedTuple):
    """A coset g G_P: vertex type plus canonical representative key."""

    vertex: int
    key: tuple


def coset_vertex(group: GbsGroup, items, vertex: int) -> TreeVertex:
    """Key the coset of the path word ``items`` (base -> vertex)."""
    key = wordcore.canon_items(list(items), group.graph.alpha)
    key[-1] = 0
    return TreeVertex(vertex, tuple(key))


def base_vertex(group: GbsGroup) -> TreeVertex:
    return TreeVertex(group.base, (0,))


def act(group: GbsGroup, g: GroupElement, v: TreeVertex) -> TreeVertex:
    """Left multiplication on cosets."""
    items = wordcore.mul_items(list(g.items), list(v.key), group.graph.alpha)
    items[-1] = 0
    return TreeVertex(v.vertex, tuple(items))


def stabilizes(group: GbsGroup, g: GroupElement, v: TreeVertex) -> bool:
    """True iff h^-1 g h lies in the vertex group, h a representative:
    g fixes the coset h G_P, which its key decides."""
    return act(group, g, v) == v


class TreeBall:
    """A radius-r ball around the base coset, in BFS order."""

    def __init__(self, group: GbsGroup, radius: int):
        self.group = group
        self.radius = radius
        self.vertices = []
        self.edges = []          # (i, j, edge, residue)

    def _export_columns(self):
        """Edge names by index, and each vertex's printed key (``path_string``
        of its key).  ``ball`` appends (parent, child, e, rho) in BFS order,
        and a child's key is its parent's with rho, e, 0 appended, so its
        printed key is the parent's followed by a_P^rho (P the parent's
        type) and g_e."""
        graph = self.group.graph
        names = [graph.edge_name(e) for e in range(graph.n_edges)]
        paths = [""]                    # the base's path word is empty
        for a, _, e, rho in self.edges:
            step = f"g[{names[e]}]"
            if rho:
                power = f"^{rho}" if rho != 1 else ""
                step = f"a[{graph.vertices[graph.origin[e]]}]{power}*{step}"
            path = paths[a]
            paths.append(f"{path}*{step}" if path else step)
        paths[0] = "1"
        return names, paths

    def to_dot(self) -> str:
        graph = self.group.graph
        names, keys = self._export_columns()
        lines = ["graph ball {"]
        for i, (v, key) in enumerate(zip(self.vertices, keys)):
            lines.append(f'  v{i} [label="{graph.vertices[v.vertex]} | {key}"];')
        for a, b, e, rho in self.edges:
            lines.append(f'  v{a} -- v{b} [label="{names[e]}:{rho}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        graph = self.group.graph
        names, keys = self._export_columns()
        return {
            "radius": self.radius,
            "vertices": [
                {
                    "id": i,
                    "vertex": graph.vertices[v.vertex],
                    "key": key,
                    "depth": len(v.key) // 2,
                    "frontier": len(v.key) // 2 == self.radius,
                }
                for i, (v, key) in enumerate(zip(self.vertices, keys))
            ],
            "edges": [
                {"source": a, "target": b, "edge": names[e], "residue": rho}
                for a, b, e, rho in self.edges
            ],
        }


def _bfs(group: GbsGroup, radius: int):
    """Lazy BFS over the cosets around the base, yielding (vertex, parent,
    edge, residue), the parent as its position in the yield order (None,
    with edge and residue, at the base).  It stops at the first key of
    2 radius + 1 items, all later ones having as many.  Children are the
    steps of ``GbsGroup.steps`` (module notes); no vertex lies n_vertices
    edges from the base, so the rule's distance filter drops none."""
    steps, remaining = group.steps, group.graph.n_vertices
    start = base_vertex(group)
    yield start, None, None, None
    queue = [start]                 # grows while read, in yield order
    for i, v in enumerate(queue):
        if len(v.key) > 2 * radius:
            return
        for e, w, residues in steps(v.vertex, v.key, remaining):
            for rho in residues:
                child = TreeVertex(w, v.key[:-1] + (rho, e, 0))
                yield child, i, e, rho
                queue.append(child)


def layer_sizes(group: GbsGroup):
    """Yield the number of tree vertices at depth 0, 1, ... from the base
    coset, from the alphas alone: a vertex of type v has |alpha(bar f)|
    neighbours along each edge f leaving v, one of which is its parent when
    it was reached along bar f.  Stops after the last nonempty depth."""
    graph = group.graph
    layer = {(group.base, None): 1}     # (type, arrival edge) -> vertices
    while layer:
        yield sum(layer.values())
        nxt = {}
        for (v, arrived), c in layer.items():
            for f in graph.edges_from(v):
                n = abs(graph.alpha[f ^ 1]) - (f ^ 1 == arrived)
                if n:
                    key = graph.terminus[f], f
                    nxt[key] = nxt.get(key, 0) + c * n
        layer = nxt


def _check_ball_caps(group: GbsGroup, radius: int) -> int:
    """Refuse a ball over the caps before any BFS; return its vertex count.
    A key at depth d has 2d + 1 letters, so a line-shaped tree that is
    cheap in vertices can still be quadratic in letters."""
    vertices = letters = 0
    for d, n in zip(range(radius + 1), layer_sizes(group)):
        vertices += n
        letters += n * (2 * d + 1)
        if vertices > MAX_BALL_VERTICES:
            raise GraphError(f"radius {radius} ball exceeds the cap of "
                             f"{MAX_BALL_VERTICES} vertices")
        if letters > MAX_BALL_KEY_LETTERS:
            raise GraphError(f"radius {radius} ball exceeds the cap of "
                             f"{MAX_BALL_KEY_LETTERS} key letters")
    return vertices


def ball(group: GbsGroup, radius: int) -> TreeBall:
    """BFS ball around the base coset; each coset appears once.  Balls over
    ``MAX_BALL_VERTICES`` or ``MAX_BALL_KEY_LETTERS`` raise GraphError."""
    if radius < 0:
        raise GraphError("radius must be nonnegative")
    _check_ball_caps(group, radius)
    b = TreeBall(group, radius)
    for w, parent, e, rho in _bfs(group, radius):
        if parent is not None:
            b.edges.append((parent, len(b.vertices), e, rho))
        b.vertices.append(w)
    return b


def moved_vertex(group: GbsGroup, g: GroupElement, max_radius: int):
    """First tree vertex moved by g, lazy BFS.  Errors on the identity, and
    raises SearchExhausted when no moved vertex shows up within the radius."""
    if g.is_identity():
        raise WordError("the identity moves no vertex")
    for v, *_ in _bfs(group, max_radius):
        if act(group, g, v) != v:
            return v, len(v.key) // 2
    raise SearchExhausted(
        f"no moved vertex within radius {max_radius}")


def _avoiding_geodesics(group: GbsGroup, e: int):
    """Zero-exponent base geodesics through the BFS subtree of the graph
    without e's pair; ``stabilizer_cover`` calls it only for an HNN edge,
    whose removal keeps the graph connected."""
    graph = group.graph
    paths = paths_from(graph, group.base,
                       {x for x in range(graph.n_edges) if x // 2 != e // 2})
    return {v: path_items(path) for v, path in paths.items()}


def _stable_through(group: GbsGroup, e: int, paths) -> GroupElement:
    """The edge generator of ``e`` taken through the subtree of ``paths``."""
    graph = group.graph
    items = list(paths[graph.origin[e]])
    items.append(e)
    items.extend(wordcore.inv_items(paths[graph.terminus[e]]))
    return group.element(items)


def _transporter(group: GbsGroup, paths, vertex: int) -> GroupElement:
    """Closed word moving the avoiding-subtree embedding of the vertex
    group at ``vertex`` onto the spanning-tree embedding."""
    items = list(paths[vertex])
    back = wordcore.inv_items(group.geodesic_items(vertex))
    items[-1] += back[0]
    items.extend(back[1:])
    return group.element(items)


def stabilizer_cover(group: GbsGroup, g: GroupElement, edge):
    """Two origin-type tree vertices whose joint stabilizer is contained in
    the stabilizer of g G_{t(edge)}.

    HNN branch (removal keeps the graph connected): {g G_P, g s^-1 G_P}
    with s the stable letter of the splitting at the edge.  When the edge
    lies in the spanning tree the splitting is written through a different
    maximal subtree, so the vertices pick up the tree-change transporters
    of the two endpoint groups.  Amalgam branch: {g G_P, g a_Q G_P}; needs
    |alpha(edge)| >= 2 so a_Q witnesses G_Q minus the edge subgroup.
    """
    graph = group.graph
    e = graph.edge_id(edge)
    p = graph.origin[e]
    pcoset = coset_vertex(group, group.geodesic_items(p), p)
    dec = decompose(graph, e)
    if dec.kind == Decomposition.HNN:
        if e not in group.spanning.tree_edges:
            first = act(group, g, pcoset)
            second = act(group, g * group.edge_generator(e).inverse(), pcoset)
        else:
            paths = _avoiding_geodesics(group, e)
            s = _stable_through(group, e, paths)
            sigma = _transporter(group, paths, p)
            tau = _transporter(group, paths, graph.terminus[e])
            left = g * tau.inverse()
            first = act(group, left * sigma, pcoset)
            second = act(group, left * s.inverse() * sigma, pcoset)
    else:
        if abs(graph.alpha[e]) < 2:
            raise GraphError(
                "amalgam branch needs a proper edge subgroup at the terminus")
        b = group.vertex_generator(graph.terminus[e])
        first = act(group, g, pcoset)
        second = act(group, g * b, pcoset)
    return [first, second]
