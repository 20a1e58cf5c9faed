"""Graphs of groups with infinite-cyclic vertex and edge groups.

A graph is a finite connected graph whose directed edges come in reversed
pairs.  Each directed edge ``e`` carries a nonzero integer ``alpha(e)``
encoding the edge-group injection into the terminal vertex group: the
defining relation reads

    g_e * a_{t(e)}^(alpha(e)*s) * g_e^-1 = a_{o(e)}^(alpha(bar e)*s).

Internally directed edges are integers; a declared edge named ``y`` gets an
even index and its reversal (written ``~y``) the following odd index, so
``bar(e) == e ^ 1``.

Text format (``#`` starts a comment, identifiers ``[A-Za-z_][A-Za-z0-9_]*``)::

    vertex <id>
    edge <id> : <origin-id> -> <terminus-id> alpha <int> <int>
    tree <edge-id> ...        # optional, must form a maximal subtree
    base <vertex-id>          # optional, defaults to first vertex
"""

from __future__ import annotations

import re
from collections import deque
from typing import NamedTuple


class GraphError(ValueError):
    """Structural problem with a graph of groups."""


class ParseError(GraphError):
    """Syntax or validation error in the text format, with a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_ident(name):
    if not (isinstance(name, str) and _IDENT.match(name)):
        raise GraphError(f"bad identifier {name!r}")


class GbsGraph:
    """Immutable graph of groups with Z vertex/edge groups."""

    __slots__ = ("vertices", "edge_names", "origin", "terminus", "alpha",
                 "_vertex_index", "_edge_index", "_out")

    def __init__(self, vertices, edges):
        """``vertices``: iterable of names.  ``edges``: iterable of
        ``(name, origin, terminus, alpha_fwd, alpha_back)`` tuples, one per
        edge pair, in declaration order.  Names are identifiers, as in the
        text format, so every export can print them unquoted."""
        vertices = tuple(vertices)
        if not vertices:
            raise GraphError("graph must have at least one vertex")
        for v in vertices:
            _check_ident(v)
        if len(set(vertices)) != len(vertices):
            raise GraphError("duplicate vertex name")
        self.vertices = vertices
        self._vertex_index = {v: i for i, v in enumerate(vertices)}

        names, orig, term, alph = [], [], [], []
        for name, o, t, af, ab in edges:
            _check_ident(name)
            if name in names:
                raise GraphError(f"duplicate edge name {name!r}")
            if o not in self._vertex_index:
                raise GraphError(f"unknown origin vertex {o!r} for edge {name!r}")
            if t not in self._vertex_index:
                raise GraphError(f"unknown terminus vertex {t!r} for edge {name!r}")
            if af == 0 or ab == 0:
                raise GraphError(f"edge {name!r}: alpha must be nonzero")
            names.append(name)
            orig.append(self._vertex_index[o])
            term.append(self._vertex_index[t])
            alph.append((int(af), int(ab)))

        self.edge_names = tuple(names)
        self.origin = tuple(x for o, t in zip(orig, term) for x in (o, t))
        self.terminus = tuple(x for o, t in zip(orig, term) for x in (t, o))
        self.alpha = tuple(x for af, ab in alph for x in (af, ab))
        self._edge_index = {n: 2 * i for i, n in enumerate(names)}
        out = [[] for _ in vertices]
        for e, o in enumerate(self.origin):
            out[o].append(e)
        self._out = tuple(tuple(es) for es in out)

        if len(paths_from(self, 0)) != self.n_vertices:
            raise GraphError("graph is not connected")

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        """Number of directed edges (twice the number of pairs)."""
        return 2 * len(self.edge_names)

    def edge_name(self, e: int) -> str:
        base = self.edge_names[e // 2]
        return base if e % 2 == 0 else "~" + base

    def edge_id(self, name) -> int:
        """Directed edge index for ``name``, ``~name`` or an index."""
        if not isinstance(name, str):
            if not 0 <= name < self.n_edges:
                raise GraphError(f"unknown edge index {name}")
            return name
        rev = name.startswith("~")
        if rev:
            name = name[1:]
        try:
            e = self._edge_index[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None
        return e ^ 1 if rev else e

    def vertex_id(self, name) -> int:
        """Vertex index for a name or an index."""
        if not isinstance(name, str):
            if not 0 <= name < self.n_vertices:
                raise GraphError(f"unknown vertex index {name}")
            return name
        try:
            return self._vertex_index[name]
        except KeyError:
            raise GraphError(f"unknown vertex {name!r}") from None

    def edges_from(self, v: int):
        """Directed edges with origin ``v``, in index order."""
        return self._out[v]

    def to_text(self, spanning=None) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        for i, name in enumerate(self.edge_names):
            e = 2 * i
            lines.append(
                f"edge {name} : {self.vertices[self.origin[e]]} -> "
                f"{self.vertices[self.terminus[e]]} alpha {self.alpha[e]} {self.alpha[e + 1]}"
            )
        if spanning is not None:
            tree_names = [self.edge_names[e // 2]
                          for e in sorted(spanning.tree_edges) if e % 2 == 0]
            if tree_names:
                lines.append("tree " + " ".join(tree_names))
            lines.append(f"base {self.vertices[spanning.base]}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"GbsGraph({len(self.vertices)} vertices, "
                f"{len(self.edge_names)} edge pairs)")


class SpanningData(NamedTuple):
    """A maximal subtree, an orientation, and a base vertex.

    ``tree_edges`` holds the directed edge indices of the subtree (both
    directions of every tree pair).  The orientation contains the declared
    direction of every pair, so ``e(x)`` is 0 on even indices.
    """

    tree_edges: frozenset
    base: int


def paths_from(graph: GbsGraph, source: int, edges=None):
    """BFS-tree edge path source -> v for every vertex v reachable from
    ``source`` along the directed edges in ``edges`` (all edges when None).
    Vertices are expanded first in, first out and their edges in index
    order, so inside a tree the path is the unique one."""
    paths = {source: []}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for e in graph.edges_from(v):
            w = graph.terminus[e]
            if w not in paths and (edges is None or e in edges):
                paths[w] = paths[v] + [e]
                queue.append(w)
    return paths


def compute_spanning_tree(graph: GbsGraph, base: int) -> frozenset:
    """Deterministic maximal subtree: BFS from the base, edges scanned in
    declaration order.  Returns directed edge indices (both directions)."""
    paths = paths_from(graph, base)
    return frozenset(x for path in paths.values() if path
                     for x in (path[-1], path[-1] ^ 1))


_EDGE_RE = re.compile(
    r"edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s+alpha\s+(-?\d+)\s+(-?\d+)\s*\Z")


def _resolve(resolve, name, lineno):
    """``resolve(name)``, an unknown name reported at ``lineno``."""
    try:
        return resolve(name)
    except GraphError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_graph(text: str):
    """Parse the text format.  Returns ``(GbsGraph, SpanningData)``."""
    vertices = []
    edges = []
    tree_names = []
    tree_declared = False
    tree_line = None
    base_name = base_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "vertex":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected: vertex <id>", lineno)
            if not _IDENT.match(parts[1]):
                raise ParseError(f"bad identifier {parts[1]!r}", lineno)
            vertices.append(parts[1])
        elif head == "edge":
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError(
                    "expected: edge <id> : <origin> -> <terminus> alpha <int> <int>",
                    lineno)
            name, o, t, af, ab = m.groups()
            for ident in (name, o, t):
                if not _IDENT.match(ident):
                    raise ParseError(f"bad identifier {ident!r}", lineno)
            try:
                af, ab = int(af), int(ab)
            except ValueError:      # beyond Python's int-string limit
                raise ParseError("alpha too long", lineno) from None
            if af == 0 or ab == 0:
                raise ParseError("alpha must be nonzero", lineno)
            edges.append((name, o, t, af, ab))
        elif head == "tree":
            tree_names.extend((name, lineno) for name in line.split()[1:])
            tree_declared = True
            tree_line = lineno
        elif head == "base":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected: base <vertex-id>", lineno)
            base_name, base_line = parts[1], lineno
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    try:
        graph = GbsGraph(vertices, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None

    if base_name is None:
        base = 0
    else:
        base = _resolve(graph.vertex_id, base_name, base_line)

    if tree_declared:
        tree = set()
        for name, lineno in tree_names:
            e = _resolve(graph.edge_id, name, lineno)
            tree.add(e)
            tree.add(e ^ 1)
        pairs = len(tree) // 2
        if pairs != graph.n_vertices - 1:
            raise ParseError("declared tree is not a maximal subtree "
                             f"({pairs} pairs for {graph.n_vertices} vertices)",
                             tree_line)
        if len(paths_from(graph, 0, tree)) != graph.n_vertices:
            raise ParseError("declared tree does not span all vertices", tree_line)
        tree_edges = frozenset(tree)
    else:
        tree_edges = compute_spanning_tree(graph, base)

    return graph, SpanningData(tree_edges=tree_edges, base=base)

