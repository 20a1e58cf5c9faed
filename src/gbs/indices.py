"""Index arithmetic along the spanning tree and the simplicity criterion.

All formulas use absolute values of the injection integers.  Two naming
conventions coexist in the literature for an edge y; we pin them here once:

* geodesic recursion: each step i uses n_i = |alpha(bar y_i)| (index of the
  edge group in the origin vertex group) and m_i = |alpha(y_i)| (index in
  the terminus group);
* the averaging constant N for a non-tree edge y uses n = |alpha(y)| and
  m = |alpha(bar y)| -- i.e. the roles flip.  Report fields are therefore
  labeled by the alpha they come from, never by bare n/m.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from gbs.graphs import GbsGraph, GraphError, SpanningData, paths_from
from gbs.words import GroupElement, _seam_depth


def _index_along(alpha, edges) -> int:
    """The k_c gcd recursion k <- k*|alpha(e)| / gcd(k, |alpha(bar e)|) over
    the edge sequence, from k = 1."""
    k = 1
    for e in edges:
        k = k * abs(alpha[e]) // gcd(k, abs(alpha[e ^ 1]))
    return k


def _edge_ks(graph: GbsGraph, spanning: SpanningData, e: int):
    """(k_c, k_cbar) for the tree path c from o(e) to t(e) and its reverse."""
    c = paths_from(graph, graph.origin[e], spanning.tree_edges)[graph.terminus[e]]
    cbar = [x ^ 1 for x in reversed(c)]
    return _index_along(graph.alpha, c), _index_along(graph.alpha, cbar)


def _k_prime(graph: GbsGraph, e: int, kc: int, kcbar: int):
    """(k'_y, k'_ybar): relative orders of the edge-group intersection in
    the terminus and origin vertex groups."""
    m = abs(graph.alpha[e])
    n = abs(graph.alpha[e ^ 1])
    return lcm(m, kc * n // gcd(n, kcbar)), lcm(n, kcbar * m // gcd(m, kc))


def _kappa(graph: GbsGraph, e: int, k_prime):
    """(kappa_y, kappa_ybar): indices of the edge-group intersection inside
    each of the two edge-group images."""
    kp, kp_bar = k_prime
    return kp // abs(graph.alpha[e]), kp_bar // abs(graph.alpha[e ^ 1])


def _big_n(graph: GbsGraph, e: int, kg: int, kgb: int) -> int:
    n = abs(graph.alpha[e])
    m = abs(graph.alpha[e ^ 1])
    return n * n * kgb // (gcd(n, kg * m // gcd(m, kgb)) * gcd(m, kgb))


def big_N(graph: GbsGraph, spanning: SpanningData, edge) -> int:
    """The constant with <a^N> = <a> cap t^-2 <b> t^2 for a non-tree edge,
    where a, b generate the terminus and origin vertex groups and t is the
    edge generator."""
    e = graph.edge_id(edge)
    if e in spanning.tree_edges:
        raise GraphError(f"edge {graph.edge_name(e)} lies in the spanning tree")
    return _big_n(graph, e, *_edge_ks(graph, spanning, e))


def modular_value(g: GroupElement) -> Fraction:
    """Multiplicative scaling factor of g: the product over edge letters of
    alpha(bar e)/alpha(e).  A homomorphism into the nonzero rationals; its
    absolute value is the modular function of the tree-closure group."""
    graph = g.group.graph
    q = Fraction(1)
    for i in range(1, len(g.items), 2):
        e = g.items[i]
        q *= Fraction(graph.alpha[e ^ 1], graph.alpha[e])
    return q


def vertex_index(g: GroupElement, vertex) -> int:
    """Minimal k > 0 with g a_P^k g^-1 back in <a_P>, in time linear in the
    length of g.

    Let x = r0 e1 r1 ... en rn be g as a canonical closed word at P.  Then
    x a^k x^-1 = r0 e1 ... en k bar(en) ... bar(e1) -r0 collapses one pinch
    at a time from the middle out, and it lies in <a> iff every collapse
    happens: alpha(en) divides k, alpha(e_{n-1}) divides
    alpha(bar en) k / alpha(en), and so on.  A collapse that fails leaves a
    word with no pinch (x has none), which by Britton's lemma is not in <a>.
    So the valid k form the subgroup k_c Z, with k_c the gcd recursion over
    e1, ..., en: the edge labels of the Bass-Serre geodesic from P to x P.
    The exponents r_i play no part, so only x's letters are needed: x is
    u h with u = h^-1 g (``GbsGroup._rebase``), and its letters are u's
    less the last d and h's less the first d, d the seam's pinches.
    """
    group = g.group
    alpha = group.graph.alpha
    u, h = group._rebase(g, vertex)
    d = _seam_depth(u, 0, h, alpha)[0]
    return _index_along(alpha, u[1:len(u) - 2 * d:2] + h[2 * d + 1::2])


class TheoremVerdict(NamedTuple):
    """The four sufficient conditions for C*-simplicity of the closure."""

    not_a_tree: bool
    all_groups_z: bool
    exists_kappa_mismatch: bool
    witness_edge: str | None
    all_proper: bool

    @property
    def sufficient_conditions_met(self) -> bool:
        return (self.not_a_tree and self.all_groups_z
                and self.exists_kappa_mismatch and self.all_proper)

    def to_json_dict(self):
        return {
            "not_a_tree": self.not_a_tree,
            "all_groups_z": self.all_groups_z,
            "exists_kappa_mismatch": self.exists_kappa_mismatch,
            "witness_edge": self.witness_edge,
            "all_proper": self.all_proper,
            "sufficient_conditions_met": self.sufficient_conditions_met,
        }


def check_theorem(graph: GbsGraph, spanning: SpanningData) -> TheoremVerdict:
    """Evaluate the sufficient conditions; the verdict is data, not a proof
    of non-simplicity when it fails."""
    return index_report(graph, spanning).verdict


class IndexReport(NamedTuple):
    kappa: dict            # declared edge -> (kappa_y, kappa_ybar)
    k_prime: dict          # declared edge -> (k'_y, k'_ybar)
    proper: dict           # directed edge name -> bool
    big_n: dict            # non-tree declared edge -> N
    verdict: TheoremVerdict

    def to_json_dict(self):
        return {
            "not_a_tree": self.verdict.not_a_tree,
            "kappa": {k: list(v) for k, v in self.kappa.items()},
            "proper": dict(self.proper),
            "witness_edge": self.verdict.witness_edge,
            "sufficient_conditions_met": self.verdict.sufficient_conditions_met,
            "big_N": dict(self.big_n),
        }


def index_report(graph: GbsGraph, spanning: SpanningData) -> IndexReport:
    """Every declared edge's tree path and (k_c, k_cbar) are computed once;
    kappa, k', N and the verdict all derive from them."""
    kappa = {}
    k_prime = {}
    big_n = {}
    for i, name in enumerate(graph.edge_names):
        e = 2 * i
        kc, kcbar = _edge_ks(graph, spanning, e)
        k_prime[name] = _k_prime(graph, e, kc, kcbar)
        kappa[name] = _kappa(graph, e, k_prime[name])
        if e not in spanning.tree_edges:
            big_n[name] = _big_n(graph, e, kc, kcbar)
    proper = {graph.edge_name(e): abs(graph.alpha[e]) >= 2
              for e in range(graph.n_edges)}
    # big_n holds exactly the non-tree declared edges, in declaration order
    witness = next((name for name in big_n
                    if kappa[name][0] != kappa[name][1]), None)
    verdict = TheoremVerdict(
        not_a_tree=bool(big_n),
        all_groups_z=True,
        exists_kappa_mismatch=witness is not None,
        witness_edge=witness,
        all_proper=all(proper.values()),
    )
    return IndexReport(kappa=kappa, k_prime=k_prime, proper=proper,
                       big_n=big_n, verdict=verdict)
