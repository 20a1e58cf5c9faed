"""Path words and the fundamental group of a graph of groups.

Elements are closed path words at the base vertex, kept in a reduced
canonical form: no pinches, and every exponent in front of an edge ``e``
lies in the left transversal ``{0, ..., |alpha(bar e)| - 1}``; the trailing
exponent is unconstrained.  Two words are equal in the group iff their
canonical forms coincide, so equality and hashing are structural.

Generators named in the word grammar are mapped through the maximal
subtree: ``a[P]`` becomes geodesic * a_P * geodesic and ``g[y]`` becomes
geodesic * y * geodesic, with zero exponents on the tree letters.  Tree
letters with zero exponent disappear when printing, which realizes the
quotient that kills the subtree.
"""

from __future__ import annotations

import random
import re

from gbs import wordcore
from gbs.graphs import (GbsGraph, GraphError, SpanningData, parse_graph,
                        paths_from)

# Longest edge length a factor power in the word grammar may produce.  The
# bound |N| * edge_length(factor) is checked before the power is built, so
# g[y]^N with a huge N fails at once instead of exhausting memory.
MAX_EDGE_LENGTH = 100_000


class WordError(ValueError):
    """Invalid word input (grammar, path consistency, or base mismatch)."""


class GroupElement:
    """Element of the fundamental group: a canonical closed word at base."""

    __slots__ = ("group", "items")

    def __init__(self, group: "GbsGroup", items, _canonical=False):
        if not _canonical:
            items = wordcore.canon_items(list(items), group.graph.alpha)
        self.group = group
        self.items = tuple(items)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise WordError("elements of different groups")
        items = wordcore.mul_items(list(self.items), list(other.items),
                                   self.group.graph.alpha)
        return GroupElement(self.group, items, _canonical=True)

    def inverse(self) -> "GroupElement":
        items = wordcore.sweep_items(wordcore.inv_items(list(self.items)),
                                     self.group.graph.alpha)
        return GroupElement(self.group, items, _canonical=True)

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.group.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return self.items == (0,)

    @property
    def edge_length(self) -> int:
        return len(self.items) // 2

    def edge_letter_count(self, edge) -> int:
        """Occurrences of ``edge`` or its reversal among the letters (l_y)."""
        e = self.group.graph.edge_id(edge)
        pair = e // 2
        return sum(1 for i in range(1, len(self.items), 2)
                   if self.items[i] // 2 == pair)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and other.group is self.group
                and other.items == self.items)

    def __hash__(self):
        return hash(self.items)

    def __str__(self):
        return self.group.to_string(self)

    def __repr__(self):
        return f"<{self}>"


class GbsGroup:
    """The fundamental group pi_1(G, Y, T) with a fixed base vertex."""

    def __init__(self, graph: GbsGraph, spanning: SpanningData):
        self.graph = graph
        self.spanning = spanning
        self.base = spanning.base
        self._geo = self._base_geodesics()
        self.steps = _step_rule(self)   # shared by every closed-word walk

    @classmethod
    def from_text(cls, text: str) -> "GbsGroup":
        return cls(*parse_graph(text))

    def _base_geodesics(self):
        """Edge path in the tree from the base to every vertex."""
        paths = paths_from(self.graph, self.base, self.spanning.tree_edges)
        if len(paths) != self.graph.n_vertices:
            raise GraphError("spanning tree does not reach every vertex")
        return paths

    def geodesic_items(self, v: int):
        """Zero-exponent tree word base->v."""
        return path_items(self._geo[v])

    # -- constructors --------------------------------------------------------

    def identity(self) -> GroupElement:
        return GroupElement(self, [0], _canonical=True)

    def element(self, items) -> GroupElement:
        """Canonicalize a closed word given as a flat item list."""
        items = list(items)
        if len(items) % 2 != 1:
            raise WordError("items must alternate exponent, edge, ..., exponent")
        graph = self.graph
        v = self.base
        for i in range(1, len(items), 2):
            e = items[i]
            if not 0 <= e < graph.n_edges:
                raise WordError(f"unknown edge index {e}")
            if graph.origin[e] != v:
                raise WordError(
                    f"edge {graph.edge_name(e)} does not start at "
                    f"{graph.vertices[v]} (position {i})")
            v = graph.terminus[e]
        if v != self.base:
            raise WordError("word is not closed at the base vertex")
        return GroupElement(self, items)

    def vertex_generator(self, vertex) -> GroupElement:
        """a_P, transported to the base along the tree."""
        geo = self.geodesic_items(self.graph.vertex_id(vertex))
        back = wordcore.inv_items(geo)
        return GroupElement(self, geo[:-1] + [1] + back[1:])

    def edge_generator(self, edge) -> GroupElement:
        """g_y: geodesic to o(y), the letter y, geodesic back from t(y)."""
        e = self.graph.edge_id(edge)
        items = self.geodesic_items(self.graph.origin[e])
        items.append(e)
        items.extend(wordcore.inv_items(
            self.geodesic_items(self.graph.terminus[e])))
        return GroupElement(self, items)

    # -- membership ----------------------------------------------------------

    def _rebase(self, g: GroupElement, vertex):
        """(u, h) for g as a closed word at P: h the zero-exponent tree word
        base -> P and u = h^-1 g, one kernel product.  h^-1 has zero
        exponents and no backtrack, so it is canonical as it stands, and
        h^-1 g h is u h, whose letters ``_seam_depth`` reads."""
        h = self.geodesic_items(self.graph.vertex_id(vertex))
        return wordcore.mul_items(wordcore.inv_items(h), list(g.items),
                                  self.graph.alpha), h

    def as_vertex_power(self, g: GroupElement, vertex):
        """Return r with g = a_P^r in the group, or None."""
        u, h = self._rebase(g, vertex)
        return _collapsed_exponent(u, 0, h, self.graph.alpha)

    def cyclic_membership(self, g: GroupElement, vertex, k: int):
        """Return s with g = a_P^(k*s), or None.  Requires k > 0."""
        if k <= 0:
            raise WordError("k must be positive")
        r = self.as_vertex_power(g, vertex)
        if r is None or r % k != 0:
            return None
        return r // k

    # -- word grammar ---------------------------------------------------------

    _TOKEN = re.compile(r"\s*(?:(\*)|(\^-?\d+)|(a\[[A-Za-z_][A-Za-z0-9_]*\])"
                        r"|(g\[~?[A-Za-z_][A-Za-z0-9_]*\])|(1)|(\S))")

    def from_string(self, text: str) -> GroupElement:
        """Parse ``word := '1' | factor ('*' factor)*`` with
        ``factor := atom ('^' int)?`` and ``atom := a[P] | g[~?y]``.

        A power of a ``g[y]`` factor whose edge length could exceed
        ``MAX_EDGE_LENGTH`` is rejected before it is built; powers of
        ``a[P]`` keep their edge length and are not capped."""
        text = text.strip()
        factors = []
        vertex_power = False    # the last factor is a power of some a[P]
        powered = False         # the last factor already carries an exponent
        pos, n = 0, len(text)
        expect_atom = True
        while pos < n:
            m = self._TOKEN.match(text, pos)
            if not m or m.group(6):
                raise WordError(f"bad word syntax at position {pos}: {text[pos:pos+10]!r}")
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
                except ValueError:      # beyond Python's int-string limit
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
                factors.append(self.identity())
                vertex_power = powered = False
                expect_atom = False
            else:
                if not expect_atom:
                    raise WordError("missing '*' between factors")
                if atom_a:
                    factors.append(self.vertex_generator(atom_a[2:-1]))
                else:
                    factors.append(self.edge_generator(atom_g[2:-1]))
                vertex_power, powered = bool(atom_a), False
                expect_atom = False
        if expect_atom:
            raise WordError("empty word" if not factors else "dangling '*'")
        out = self.identity()
        for f in factors:
            out = out * f
        return out

    def to_string(self, g: GroupElement) -> str:
        """Print in the word grammar; tree letters are suppressed (they are
        identity in the group), their exponents stay at their vertices."""
        return path_string(self.graph, self.base, g.items,
                           self.spanning.tree_edges)


def _seam_depth(w, k, b, alpha):
    """(d, r): the d pinches in the product of the canonical words ``w``,
    with its trailing exponent raised by ``k``, and ``b``, and the exponent
    r left at the seam before carries (the whole product when both sides
    collapse).  ``mul_items``' pinch loop, run without copying ``w``.
    The product's letters are those of ``w`` less the last d and of ``b``
    less the first d: it cancels only at the seam (Britton's lemma), and
    its carries change exponents only."""
    r = w[-1] + k + b[0]
    i, p = 1, len(w) - 2
    while (i < len(b) and p > 0 and w[p] == b[i] ^ 1
           and r % alpha[w[p]] == 0):
        r = w[p - 1] + alpha[b[i]] * (r // alpha[w[p]]) + b[i + 1]
        i += 2
        p -= 2
    return i // 2, r


def _seam_reach(w, b):
    """The letters of the canonical words ``w`` and ``b`` that mirror each
    other at their seam: w's i-th letter from the end is the reversal of
    b's i-th, for i up to the result.  A pinch needs mirrored letters, so
    ``_seam_depth(w, k, b, alpha)`` is at most this for every k."""
    i, p = 1, len(w) - 2
    while i < len(b) and p > 0 and w[p] == b[i] ^ 1:
        i += 2
        p -= 2
    return i // 2


def _collapsed_exponent(w, k, b, alpha):
    """r when the product read by ``_seam_depth`` is the vertex power a^r:
    the seam pinches every letter of both sides.  Otherwise None, since a
    reduced word with a letter left is no vertex power."""
    d, r = _seam_depth(w, k, b, alpha)
    return r if 2 * d == len(w) - 1 == len(b) - 1 else None


def path_items(path):
    """The zero-exponent path word along an edge path."""
    items = [0]
    for e in path:
        items.append(e)
        items.append(0)
    return items


def path_string(graph: GbsGraph, start: int, items, omit=frozenset()) -> str:
    """Rendering of a path word in the word grammar; the edge letters in
    ``omit`` are left out, every other letter is printed."""
    parts = []
    v = start
    for i, x in enumerate(items):
        if i % 2 == 0:
            if x != 0:
                parts.append(f"a[{graph.vertices[v]}]" + (f"^{x}" if x != 1 else ""))
        else:
            if x not in omit:
                parts.append(f"g[{graph.edge_name(x)}]")
            v = graph.terminus[x]
    return "*".join(parts) if parts else "1"


# -- enumeration and random words ---------------------------------------------


def _step_rule(group: GbsGroup):
    """The step rule of canonical closed words at the base: ``steps(v,
    items, remaining)`` lists the steps ``(e, w, residues)`` that may extend
    the path word ``items`` at ``v``.  Edge e runs from v to a w from which
    the walk still closes at the base within ``remaining`` edges, and
    ``residues`` are the exponents that may stand in front of e: the
    transversal ``range(|alpha(bar e)|)``, without 0 right after ``bar e``.
    Edges with no residue left are omitted.  The list depends on
    (v, the edge back, remaining) alone, so each is built once and shared."""
    graph = group.graph
    # edges come in reversed pairs, so distance to the base is distance from it
    dist = {v: len(p) for v, p in paths_from(graph, group.base).items()}
    out = [[(e, graph.terminus[e], abs(graph.alpha[e ^ 1]))
            for e in graph.edges_from(v)] for v in range(graph.n_vertices)]
    memo = {}

    def steps(v, items, remaining):
        back = items[-2] ^ 1 if len(items) > 1 else None
        key = v, back, remaining
        if key not in memo:
            memo[key] = [(e, w, range(1 if e == back else 0, m))
                         for e, w, m in out[v]
                         if dist[w] < remaining and (m > 1 or e != back)]
        return memo[key]

    return steps


def closed_words(group: GbsGroup, max_edges: int, exp_bound: int):
    """Yield every canonical closed word at the base with at most
    ``max_edges`` edge letters and trailing exponent in
    ``[-exp_bound, exp_bound]``.

    Canonical forms are generated directly by ``_step_rule``, so each group
    element appears exactly once.  Words are emitted as item tuples.
    """
    steps = group.steps

    def rec(v, items, remaining):
        if v == group.base:
            for r in range(-exp_bound, exp_bound + 1):
                items[-1] = r
                yield tuple(items)
            items[-1] = 0
        if remaining == 0:
            return
        for e, w, residues in steps(v, items, remaining):
            for rho in residues:
                items[-1] = rho
                items.append(e)
                items.append(0)
                yield from rec(w, items, remaining - 1)
                items.pop()
                items.pop()
            items[-1] = 0

    yield from rec(group.base, [0], max_edges)


def random_closed_word(group: GbsGroup, rng: random.Random, max_edges: int,
                       exp_bound: int, nontrivial=True):
    """Random canonical closed word: a walk of random length whose steps
    are drawn from ``_step_rule``, then a random trailing exponent.  A walk
    that dead-ends is drawn again."""
    steps = group.steps
    for _ in range(1000):
        items = [0]
        v = group.base
        for remaining in range(rng.randint(0, max_edges), 0, -1):
            options = steps(v, items, remaining)
            if not options:
                break
            e, v, residues = rng.choice(options)
            items[-1] = rng.choice(residues)
            items += (e, 0)
        else:
            items[-1] = rng.randint(-exp_bound, exp_bound)
            if not (nontrivial and items == [0]):
                return GroupElement(group, items, _canonical=True)
    raise RuntimeError("failed to sample a word")
