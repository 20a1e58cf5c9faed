"""Explicit averaging conjugators and desk-scale ping-pong verification.

For a non-tree edge y with generator t, terminus generator a and origin
generator b, the conjugators are

    r1 = a t^-1 b t,   r2 = a t^-2 b t^2,   z_j = r1^j r2 r1^L,

and S'_j collects the elements whose sign sequence along y starts with j
copies of (-1, +1) followed by (-1, -1).  The verified inclusion is

    z_j g z_j^-1 (pi_1 minus S'_j)  inside  S'_j

for every g outside <a^N> whose y-length is at most L.  The theorem-proof
variant conjugates around an arbitrary group element g with letters
c, d in {a, e} protecting the junctions.
"""

from __future__ import annotations

from collections import Counter
from math import lcm
from typing import NamedTuple

from gbs import wordcore
from gbs.indices import big_N, vertex_index
from gbs.tree import MAX_BALL_VERTICES, _check_ball_caps
from gbs.words import (GbsGroup, GroupElement, _collapsed_exponent,
                       _seam_depth, _seam_reach, closed_words)


# Conjugators z_1 .. z_9 stored by build_ce2.
CE2_COUNT = 9


class PingPongError(ValueError):
    """Preconditions of the averaging constructions are not met."""


class Ce2Data(NamedTuple):
    """Inputs and conjugators of the compact-open-subgroup averaging lemma."""

    group: GbsGroup
    edge: int
    a: GroupElement            # generator of the terminus vertex group
    b: GroupElement            # generator of the origin vertex group
    t: GroupElement            # stable letter g_y
    r1: GroupElement           # a t^-1 b t, the period of the z_j
    N: int                     # <a^N> = <a> cap t^-2 <b> t^2
    L: int
    z: tuple                   # z_1 .. z_9


def build_ce2(group: GbsGroup, edge, L: int) -> Ce2Data:
    """Construct the averaging data; L is supplied by the caller (the lemma
    takes the maximum y-length over the finite set under test).  The proof
    needs y non-tree (t a stable letter) and proper, so that no a or b of
    r1, r2 pinches against t and z_j keeps the S'_j pattern; nothing else."""
    graph = group.graph
    e = graph.edge_id(edge)
    if e in group.spanning.tree_edges:
        raise PingPongError(f"{graph.edge_name(e)} is a tree edge")
    if min(abs(graph.alpha[e]), abs(graph.alpha[e ^ 1])) < 2:
        raise PingPongError(f"{graph.edge_name(e)} is improper: |alpha| < 2")
    if L < 0:
        raise PingPongError("L must be nonnegative")
    return _ce2_data(group, e, L)


def _ce2_data(group: GbsGroup, e: int, L: int) -> Ce2Data:
    """``build_ce2``'s data on the edge index ``e``, without its guards."""
    graph = group.graph
    a = group.vertex_generator(graph.terminus[e])
    b = group.vertex_generator(graph.origin[e])
    t = group.edge_generator(e)
    tinv = t.inverse()
    r1 = a * tinv * b * t
    r2 = a * tinv * tinv * b * t * t
    data = Ce2Data(group=group, edge=e, a=a, b=b, t=t, r1=r1,
                   N=big_N(graph, group.spanning, e), L=L,
                   z=(r1 * r2 * r1 ** L,))
    return data._replace(z=tuple(averaging_elements(data, CE2_COUNT)))


def check_search(group: GbsGroup, L: int, word_bound: int,
                 exponent_bound: int) -> None:
    """Refuse bounds whose proof ``build_ce2`` and ``verify_pingpong``
    could not finish, before r1^L is formed or any word enumerated.  The
    skeletons of g and f are base-type coset keys of the covering-tree
    ball of radius max(L, word_bound), so that ball must pass ``tree``'s
    caps (GraphError), and its vertex count times the 2 exponent_bound + 1
    trailing exponents of each must not pass ``MAX_BALL_VERTICES``."""
    radius = max(L, word_bound)
    words = _check_ball_caps(group, radius) * (2 * exponent_bound + 1)
    if words > MAX_BALL_VERTICES:
        raise PingPongError(
            f"radius {radius} ball times {2 * exponent_bound + 1} exponents "
            f"exceeds the cap of {MAX_BALL_VERTICES} words")


def averaging_elements(data: Ce2Data, count: int):
    """z_1 .. z_count; extends past the stored ones by z_{j+1} = r1 z_j."""
    out = list(data.z[:count])
    while len(out) < count:
        out.append(data.r1 * out[-1])
    return out


def in_Sj(f: GroupElement, data: Ce2Data, j: int) -> bool:
    """Membership in S'_j, j >= 1: its pattern starts f's y-signs."""
    return _sj_index(f.items[1::2], data.edge) == j


def _sj_index(letters, edge: int) -> int:
    """The j whose S'_j pattern (-1, +1)^j (-1, -1) starts ``letters``'
    letters from the pair of ``edge`` (+1 is ``edge``), or 0 when there is
    none (the S'_j are disjoint).  Reads no letter past the pattern."""
    bar = edge ^ 1
    head = filter({edge, bar}.__contains__, letters)
    j = 0
    for first, second in zip(head, head):
        if first != bar:
            return 0
        if second == bar:
            return j
        j += 1
    return 0


def _failing_power(letters, edge: int, j: int):
    """Decide v (pi_1 minus S'_j) inside S'_j from the edge letters of v:
    None when it holds for every f, else k with f = v^k failing, 0 (f = 1)
    when v is outside S'_j and -1 (f = v^-1) when v^-1 is.  v^-1's letters
    are v's reversed and barred."""
    if _sj_index(letters, edge) != j:
        return 0
    if _sj_index(reversed(letters), edge ^ 1) != j:
        return -1
    return None


def _pattern_width(letters, edge: int, j: int):
    """W_j: the length of the shortest prefix of ``letters`` that holds
    the S'_j pattern, or None when ``letters`` lack it."""
    if _sj_index(letters, edge) != j:
        return None
    ends = [i for i, x in enumerate(letters, 1) if x // 2 == edge // 2]
    return ends[2 * j + 1]


def _depth_bound(z, s, w, width):
    """The deepest seam of v = w a^k z^-1 at which v and v^-1 both keep the
    first ``width`` letters of z, for the canonical item lists z, s and w =
    z s, or -1 when there is none (see ``verify_pingpong``)."""
    n, m = len(z) // 2, len(w) // 2
    if width is None or (n + len(s) // 2 - m) // 2 > n - width:
        return -1
    return min(m, n) - width


class PingPongReport(NamedTuple):
    pairs_checked: int
    passed: bool
    counterexample: dict | None
    g_count: int
    f_count: int
    excluded_g: int
    j_count: int
    certified: int             # (j, g) proven for every f outside S'_j
    seam_reads: int            # (j, g) whose seam depth was read

    def to_json_dict(self):
        return {
            "pairs_checked": self.pairs_checked,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


def verify_pingpong(data: Ce2Data, word_bound: int,
                    exponent_bound: int) -> PingPongReport:
    """Prove z_j g z_j^-1 f in S'_j for every f outside S'_j, for g over
    the canonical closed words with at most L edge letters (a cap on the
    y-length too) and trailing exponent within exponent_bound, minus <a^N>.

    Each (j, g) holds for every f iff v = z_j g z_j^-1 and v^-1 both lie in
    S'_j.  Let s be the y-sign sequence of v, n = |s|, and P the S'_j
    pattern, p = 2j+2.  By Britton's lemma (Lyndon-Schupp, Combinatorial
    Group Theory, IV.2) a product v f of canonical words cancels only at
    the seam, one letter from each side per pinch; if f cancels k y-letters
    of v, then sig(v f) = s[:n-k] + sig(f)[k:] and sig(f)[:k] =
    -reverse(s[n-k:]) = sig(v^-1)[:k].  For k <= n-p, v f keeps v's first p
    signs; for k >= p, f starts like v^-1 and lies in S'_j.  A k strictly
    between would overlap the head windows of v and v^-1 in two or more
    letters, putting two consecutive +1 in P.  Conversely f = 1 fails when
    v is outside S'_j, and f = v^-1 when v^-1 is.

    Write g = s a^k, where the skeleton s (a word here, not the signs
    above) is g's word with trailing exponent 0.  For canonical c, c g is
    c s with k added to its trailing exponent: the pinch loop never tests
    s's trailing exponent and the carry sweep only adds to it.  A product
    of that word and a canonical b changes letters only at the seam, and
    its carries change exponents only, so its letters are those of c s
    less the last d and of b less the first d, d the number of pinches
    (``_seam_depth``).  So at most one product per skeleton for the
    exclusion, one per skeleton at j = 1 and one per j >= 2 do all the
    work:

    - g lies in <a^N> iff h^-1 g h = a^(N q) at t(y), h the tree word from
      the base to t(y); h^-1 has zero exponents, so it is canonical.  With
      c = h^-1 and b = h, that holds iff the seam pinches every letter of
      both sides and leaves a multiple of N (``_outside_cyclic``, by the
      same reader as ``GbsGroup.as_vertex_power``).  That needs h^-1 s to
      have h's letter count, which l(s) or a read-only seam walk rules out
      for most skeletons, with no product; only such an h^-1 s is formed,
      and it reads each k.
    - With c = z_j and b = z_j^-1, d gives the letters of v.  Most pairs
      need no d.  Let W be the length of the shortest letter prefix of z_j
      that holds P, and n, m the letter counts of z_j and w = z_j s.  w
      keeps z_j's first n - d1 letters, d1 = (n + |s| - m)/2 the pinches
      of z_j s, and v keeps w's first m - d.  v^-1's letters are v's
      reversed and barred, and so are z_j^-1's of z_j, so v^-1 keeps z_j's
      first n - d.  Hence for d1 <= n - W and d <= min(m, n) - W both
      windows are z_j's own, and (j, g) holds.  A pinch needs mirrored
      letters, so d is at most the reach R of w and z_j^-1
      (``_seam_reach``), which does not depend on k: R <= min(m, n) - W
      proves every k of s at once.  Otherwise d is read for each k, and
      only a d past the bound reads both windows of v's letters, once per
      (j, s, d); only a failing pair builds v.  This runs at j = 1, and
      at j >= 2 only where the lemma below does not apply.

    The lemma: (1, g) gives (j, g) for every j >= 2.  Read words as reduced
    paths from the base vertex of the Bass-Serre tree: two canonical words
    share their first i letters with their exponents iff their paths share
    their first i edges, and a product cancels the common start of the
    first path reversed and the second translated.  Let u = r1^(j-1) and
    W the width above for z_1.  ``_failing_powers`` forms r1^(j-1) z_1 as
    r1 (r1^(j-2) z_1) from ``data.r1``, one product per j, and requires
    that it equal z_j, that r1's y-signs be exactly (-, +), and that
    l_y(z_j) = l_y(z_1) + 2(j - 1).  Since l_y(u) <= 2(j - 1) and a
    pinched y-letter takes one from each side, u keeps every y-letter,
    with signs (-+)^(j-1), and the junction u | z_1 cancels no y-letter:
    only letters of z_1 before its first y-letter, so before its W-th
    letter.  The hypothesis on g: z_1's own windows proved (1, g), that
    is, no k read a sign window of v_1 (d1 <= n - W and d <= min(m, n) -
    W).  Then v_1 and v_1^-1 both start with z_1's first W letters,
    exponents included, so the cancellation the junction reads is the
    same: u v_1 cancels what u z_1 does, and, since d(X, Y) = d(Y^-1,
    X^-1) for the pinch count of X Y, the right junction of u v_1 u^-1
    mirrors the left junction of u v_1^-1.  Neither reaches a y-letter of
    v_1, and v_1 has one (it lies in S'_1), so the two stay apart: v_j =
    u v_1 u^-1 has y-signs (-+)^(j-1), then v_1's, then (-+)^(j-1), and
    likewise v_j^-1 with v_1^-1's.  If v_1 and v_1^-1 lie in S'_1, then
    v_j and v_j^-1 lie in S'_j, and (j, g) holds (Britton's lemma, as
    above).  A j whose junction holds while no (1, g) read a window is
    decided whole, with one record for all its g.  Any other j is read
    whole, as at j = 1, so every (j, g) gets the verdict of that reading.

    word_bound only sizes ``pairs_checked``: the sum, over the (j, g)
    certified before the first failure, of the number of f outside S'_j
    with at most word_bound edge letters and trailing exponent within
    exponent_bound.  The S'_j are disjoint and depend on letters alone, so
    one pass over the skeletons of the f gives each its j, or none.  The
    skeletons of g and f are those of one ``closed_words`` walk to
    max(L, word_bound) filtered by length (its preorder is lexicographic).
    With no conjugator, or no g within the bounds, it raises.
    """
    if word_bound < 0 or exponent_bound < 0:
        raise PingPongError("word and exponent bounds must be nonnegative")
    if not data.z:
        raise PingPongError("no conjugators to verify")
    group = data.group
    alpha = group.graph.alpha
    h = group.geodesic_items(group.graph.terminus[data.edge])
    ks = range(-exponent_bound, exponent_bound + 1)

    skeletons, in_sj = [], Counter()
    for w in closed_words(group, max(data.L, word_bound), 0):
        if len(w) // 2 <= data.L:
            s = list(w)
            skeletons.append((s, _outside_cyclic(s, ks, h, data.N, alpha)))
        if len(w) // 2 <= word_bound:
            in_sj[_sj_index(w[1::2], data.edge)] += 1
    g_count = sum(len(kept) for _, kept in skeletons)
    if g_count == 0:
        raise PingPongError(f"no g outside <a^{data.N}> within the bounds")
    f_count = in_sj.total() * len(ks)
    pools = [f_count - in_sj[j] * len(ks) for j in range(len(data.z) + 1)]

    pairs = certified = seam_reads = 0
    counterexample = None
    for j, s, proven, failure, reads in _failing_powers(data, skeletons):
        certified += proven
        pairs += proven * pools[j]
        seam_reads += reads
        if failure is not None:
            k, power = failure
            z = data.z[j - 1]
            g = GroupElement(group, s[:-1] + [k], _canonical=True)
            v = z * g * z.inverse()
            f = v ** power
            counterexample = {"j": j, "g": str(g), "f": str(f),
                              "product": str(v * f)}
            break

    return PingPongReport(
        pairs_checked=pairs,
        passed=counterexample is None,
        counterexample=counterexample,
        g_count=g_count,
        f_count=f_count,
        excluded_g=len(skeletons) * len(ks) - g_count,
        j_count=len(data.z),
        certified=certified,
        seam_reads=seam_reads,
    )


def _outside_cyclic(s, ks, h, n: int, alpha):
    """The k in ``ks`` with s a^k outside <a_P^n>, for a skeleton ``s`` and
    the tree word ``h`` from the base to P (see ``verify_pingpong``).

    h^-1 s a^k h is a vertex power only when u = h^-1 s has as many letters
    as h, and k changes no letter of u.  u has l(h) + l(s) - 2d letters,
    d <= l(h) the pinches of h^-1 s, so an s with l(s) odd or above
    2 l(h) keeps every k with no seam walk; any other s reads d by the
    seam walk, and forms u and reads its k only when l(s) = 2d."""
    if len(s) > 2 * len(h) - 1 or len(s) // 2 % 2:
        return list(ks)
    h_inv = wordcore.inv_items(h)
    if 4 * _seam_depth(h_inv, 0, s, alpha)[0] != len(s) - 1:
        return list(ks)
    u = wordcore.mul_items(h_inv, s, alpha)
    return [k for k in ks
            if (r := _collapsed_exponent(u, k, h, alpha)) is None or r % n]


def _failing_powers(data: Ce2Data, skeletons):
    """Yield (j, s, proven, failure, reads) for every j and every skeleton
    s with its trailing exponents ks, in that order: the number of leading
    k in ks proven for every f, the first failing (k, power of v = z_j s
    a^k z_j^-1) or None, and the number of k whose seam depth was read.
    Every skeleton is read at j = 1.  When no skeleton read a sign window
    of v there, a j >= 2 whose junction holds yields one record (j, None,
    the number of all k, None, 0) for all its skeletons; any other j reads
    every skeleton (see ``verify_pingpong``)."""
    alpha = data.group.graph.alpha
    r1 = list(data.r1.items)
    periodic = [x for x in r1[1::2] if x // 2 == data.edge // 2] == [
        data.edge ^ 1, data.edge]
    y_length = data.z[0].edge_letter_count(data.edge)
    total = sum(len(ks) for _, ks in skeletons)
    zj = list(data.z[0].items)
    for j, z in enumerate(data.z, 1):
        if j > 1 and periodic:
            zj = wordcore.mul_items(r1, zj, alpha)   # r1^(j-1) z_1
            if (tuple(zj) == z.items and z.edge_letter_count(data.edge)
                    == y_length + 2 * (j - 1)):
                yield j, None, total, None, 0
                continue
        read = _skeleton_reader(data, j, z)
        for s, ks in skeletons:
            proven, failure, reads, windowed = read(s, ks)
            if windowed and j == 1:
                periodic = False
            yield j, s, proven, failure, reads


def _skeleton_reader(data: Ce2Data, j: int, z: GroupElement):
    """``read(s, ks)`` -> (proven, failure, reads, windowed) for the
    conjugator z = z_j and a skeleton s with its trailing exponents ks: the
    record of ``_failing_powers``, one product z s, and whether some k had
    a seam depth past ``_depth_bound`` and read the sign windows of v = z s
    a^k z^-1."""
    alpha = data.group.graph.alpha
    zj, zj_inv = list(z.items), list(z.inverse().items)
    width = _pattern_width(zj[1::2], data.edge, j)
    tail = zj_inv[1::2]

    def read(s, ks):
        w = wordcore.mul_items(zj, s, alpha)
        limit = _depth_bound(zj, s, w, width)
        if _seam_reach(w, zj_inv) <= limit:
            return len(ks), None, 0, False
        letters = w[1::2]
        powers = {}                 # seam depth past limit -> failing power
        for i, k in enumerate(ks):
            d = _seam_depth(w, k, zj_inv, alpha)[0]
            if d > limit:
                if d not in powers:
                    powers[d] = _failing_power(
                        letters[:len(letters) - d] + tail[d:], data.edge, j)
                if powers[d] is not None:
                    return i, (k, powers[d]), i + 1, True
        return len(ks), None, len(ks), bool(powers)

    return read


_CD_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


def choose_cd(group: GbsGroup, edge, g: GroupElement):
    """First pair (c, d) over {e, a} x {e, a} such that all four words
    t^+-1 c g d t^+-1 gain exactly two y-letters over g.  Returns the pair
    as group elements together with their "e"/"a" flags."""
    graph = group.graph
    e = graph.edge_id(edge)
    if abs(graph.alpha[e ^ 1]) < 2:
        raise PingPongError("needs a proper edge subgroup at the origin")
    a = group.vertex_generator(graph.terminus[e])
    t = group.edge_generator(e)
    tinv = t.inverse()
    base_len = g.edge_letter_count(e)
    for cf, df in _CD_ORDER:
        c = a if cf else group.identity()
        d = a if df else group.identity()
        mid = c * g * d
        if all((u * mid * v).edge_letter_count(e) == base_len + 2
               for u in (t, tinv) for v in (t, tinv)):
            return (c, d), ("a" if cf else "e", "a" if df else "e")
    raise PingPongError("no junction letters found; this contradicts the "
                        "length lemma and needs investigation")


class TheoremData(NamedTuple):
    """Conjugators around an arbitrary element g, with the cyclic-subgroup
    realizations of the compact groups they stabilize."""

    group: GbsGroup
    edge: int
    g: GroupElement
    c: GroupElement
    d: GroupElement
    cd_flags: tuple
    rp1: GroupElement
    rp2: GroupElement
    w: tuple                   # w_i = rp1^-i rp2^-2
    ly_rp1: int
    K1_exponent: int
    K0_exponent: int


def build_theorem_data(group: GbsGroup, edge, g: GroupElement,
                       count: int) -> TheoremData:
    graph = group.graph
    e = graph.edge_id(edge)
    (c, d), flags = choose_cd(group, e, g)
    b = group.vertex_generator(graph.origin[e])
    t = group.edge_generator(e)
    ginv = g.inverse()

    def rprime(j):
        tj = t ** j
        tjinv = tj.inverse()
        return (g * d * tjinv * b * tj * d * ginv
                * c * tjinv * b * tj * c)

    rp1 = rprime(1)
    rp2 = rprime(2)
    rp1_inv = rp1.inverse()
    w = []
    acc = rp2.inverse() ** 2
    for _ in range(count):
        acc = rp1_inv * acc                     # w_{i+1} = rp1^-1 w_i
        w.append(acc)

    k1 = vertex_index(rp2.inverse(), graph.terminus[e])
    n_exp = big_N(graph, group.spanning, e)
    return TheoremData(group=group, edge=e, g=g, c=c, d=d, cd_flags=flags,
                       rp1=rp1, rp2=rp2, w=tuple(w),
                       ly_rp1=rp1.edge_letter_count(e),
                       K1_exponent=k1, K0_exponent=lcm(n_exp, k1))


def make_negative_control(data: Ce2Data) -> Ce2Data:
    """Replace every conjugator by the identity; verification must then fail."""
    ident = data.group.identity()
    return data._replace(z=tuple(ident for _ in data.z))
