"""Truncated regular-representation numerics.

Formal group-algebra elements keep exact rational coefficients until matrix
assembly; operators act on the span of a finite ball of group elements, so
every norm estimate is a compression and therefore a lower bound on the
untruncated operator norm.

numpy and scipy are imported inside the functions that compute, so importing
this module (and with it ``gbs.cli``) stays free of the numeric stack; only
``gbs normest`` and the numeric API load it.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from gbs import wordcore
from gbs.pingpong import Ce2Data, averaging_elements
from gbs.words import GbsGroup, GroupElement, WordError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Cap on one ``enumerate_ball``: each element is a fiber entry, at most with
# a skeleton tuple of its own, a few hundred bytes, and operator assembly
# visits every one.
MAX_BALL_ELEMENTS = 200_000
# Cap on the edge letters of z_1 .. z_m in ``powers_decay_experiment``:
# each letter costs about a hundred bytes in the conjugators and in the
# averaged terms z f z^-1.
MAX_CONJUGATOR_LETTERS = 500_000


class OpsimError(ValueError):
    pass


class NormConvergenceError(RuntimeError):
    """The norm solver hit max_iter; carries the last estimate."""

    def __init__(self, last_estimate, iterations):
        self.last_estimate = last_estimate
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last estimate {last_estimate})")


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c


def _exact(c):
    return isinstance(c, (int, Fraction))


class FormalElement:
    """Finitely supported map from group elements to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {g: c for g, c in (terms or {}).items() if c != 0}

    @classmethod
    def lam(cls, g: GroupElement, coeff=1) -> "FormalElement":
        return cls({g: coeff})

    @property
    def exact(self) -> bool:
        return all(_exact(c) for c in self.terms.values())

    def __add__(self, other):
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return FormalElement(out)

    def adjoint(self) -> "FormalElement":
        return FormalElement({g.inverse(): _conj(c) for g, c in self.terms.items()})

    def is_selfadjoint(self) -> bool:
        return self.terms == self.adjoint().terms


def restrict_expectation(x: FormalElement, vertex, k: int) -> FormalElement:
    """Keep the terms supported on <a_P^k>: the coefficient restriction
    realizing the conditional expectation at the truncated level."""
    if not x.terms:
        return FormalElement()
    group = next(iter(x.terms)).group
    kept = {g: c for g, c in x.terms.items()
            if group.cyclic_membership(g, vertex, k) is not None}
    return FormalElement(kept)


def _conjugates(x: FormalElement, z: GroupElement):
    """The terms (z g z^-1, c) of z x z^-1, in x's term order."""
    zinv = z.inverse()
    return [(z * g * zinv, c) for g, c in x.terms.items()]


def _mean(conjugates, exact: bool) -> FormalElement:
    """(1/n) sum of the n term lists ``conjugates``, summed in list order."""
    if not conjugates:
        raise OpsimError("need at least one conjugator")
    n = len(conjugates)
    weight = Fraction(1, n) if exact else 1.0 / n
    out = {}
    for terms in conjugates:
        for h, c in terms:
            out[h] = out.get(h, 0) + weight * c
    return FormalElement(out)


def average_conjugates(x: FormalElement, conjugators) -> FormalElement:
    """(1/n) sum_z z x z^-1, exact when the input coefficients are exact."""
    return _mean([_conjugates(x, z) for z in conjugators], x.exact)


class Ball:
    """Deterministic BFS closure of products of few generators, fibered over
    the cosets x<a> of the base generator a.

    A canonical element x is s a^k: its skeleton s is its items less the
    trailing exponent k.  ``fibers`` maps each skeleton to a dict from
    trailing exponent to ball index, and ``by_length`` maps each edge
    length to the skeletons of that length, in order of first appearance.
    ``index``, built on first use, maps the canonical item tuple of each
    element to its ball index, in index order."""

    __slots__ = ("group", "fibers", "by_length", "radius", "size", "_index")

    def __init__(self, group, fibers, by_length, radius, size):
        self.group = group
        self.fibers = fibers
        self.by_length = by_length
        self.radius = radius
        self.size = size
        self._index = None

    def __len__(self):
        return self.size

    @property
    def index(self):
        if self._index is None:
            items = [None] * self.size
            for s, fiber in self.fibers.items():
                for k, i in fiber.items():
                    items[i] = (*s, k)
            self._index = {x: i for i, x in enumerate(items)}
        return self._index


def default_generators(group: GbsGroup):
    """All a_P^{+-1} plus g_y^{+-1} for non-tree pairs, declaration order."""
    gens = []
    for v in range(group.graph.n_vertices):
        a = group.vertex_generator(v)
        gens.extend([a, a.inverse()])
    for i in range(len(group.graph.edge_names)):
        if 2 * i not in group.spanning.tree_edges:
            t = group.edge_generator(2 * i)
            gens.extend([t, t.inverse()])
    return gens


def _check_group(g: GroupElement, group: GbsGroup) -> None:
    if g.group is not group:
        raise WordError("elements of different groups")


def enumerate_ball(group: GbsGroup, generators=None, radius: int = 0) -> Ball:
    """Breadth-first ball: from each frontier element g, in order, append
    every new g s for the generators s in list order.

    A generator whose items are one exponent r (a power of the base
    generator a) moves g = s a^k to s a^(k + r): that step is an integer
    shift within g's fiber, with no kernel call.  Every other step is the
    kernel's product of canonical item lists, split into skeleton and
    trailing exponent.  An element reached by the step s keeps the index
    of s^-1 in the list (the first one, or None when s^-1 is not listed),
    and that step is not taken from it: it only leads back to the parent,
    which is already seen.  The elements and their order are those of the
    plain BFS.  Every generator must belong to ``group`` (WordError
    otherwise).  Before each layer, a ball that could pass
    ``MAX_BALL_ELEMENTS``, its size plus one element per frontier element
    and generator, raises OpsimError."""
    if generators is None:
        generators = default_generators(group)
    generators = list(generators)
    if radius < 0:
        raise OpsimError("radius must be nonnegative")
    first = {}
    for k, s in enumerate(generators):
        _check_group(s, group)
        first.setdefault(s.items, k)
    undo = [first.get(s.inverse().items) for s in generators]
    # (n, shift, None, undo) for a power of a, (n, None, items, undo) for
    # a kernel step
    steps = [(n, s.items[0], None, undo[n]) if len(s.items) == 1
             else (n, None, list(s.items), undo[n])
             for n, s in enumerate(generators)]
    alpha = group.graph.alpha
    mul = wordcore.mul_items
    fibers = {(): {0: 0}}
    by_length = {0: [()]}
    size = 1
    frontier = [((), 0, None)]
    for _ in range(radius):
        if size + len(frontier) * len(steps) > MAX_BALL_ELEMENTS:
            raise OpsimError(f"radius {radius} ball exceeds the cap of "
                             f"{MAX_BALL_ELEMENTS} elements")
        new = []
        for s, k, back in frontier:
            fiber = fibers[s]
            g = None
            for n, shift, items, up in steps:
                if n == back:
                    continue
                if shift is not None:
                    hs, hk, target = s, k + shift, fiber
                else:
                    if g is None:
                        g = [*s, k]
                    h = mul(g, items, alpha)
                    hk = h.pop()
                    hs = tuple(h)
                    target = fibers.get(hs)
                    if target is None:
                        target = fibers[hs] = {}
                        by_length.setdefault(len(hs) // 2, []).append(hs)
                if target.setdefault(hk, size) == size:
                    size += 1
                    new.append((hs, hk, up))
        frontier = new
        if not frontier:
            break
    return Ball(group, fibers, by_length, radius, size)


class BallOperator(NamedTuple):
    matrix: csr_matrix


def operator_of(x: FormalElement, ball: Ball) -> BallOperator:
    """Sum of coefficient-weighted translation operators; for lam(g) the
    partial permutation x -> g x on the ball.  Products are the kernel's,
    of the items of g and of a skeleton; no ``GroupElement`` is formed.
    Every term must belong to the ball's group (WordError otherwise).

    Coefficients must be real (OpsimError otherwise): the norm solver
    multiplies by M^T, which is the adjoint of M only for a real M.

    lam(g) commutes with right translation by the base generator a, and
    the kernel's product uses the right factor's trailing exponent only by
    adding it to the result's: g (s a^k) is (g s) a^k.  So one product
    g s per skeleton s maps its whole fiber, each s a^k to the element of
    trailing exponent k more in the fiber of g s's skeleton, by integer
    lookups.

    A product of canonical words cancels only at the seam (Britton's lemma),
    so edge_len(g x) >= |edge_len(g) - edge_len(x)|.  When that gap exceeds
    the largest edge length in the ball, g x has no position in the ball, and
    the skeleton is skipped without forming the product.

    For x_i, x_j in the ball, g x_j = x_i exactly when g^-1 x_i = x_j, so on
    every ball the matrix of lam(g^-1) is the transpose of that of lam(g).
    One product g s therefore serves the pair {g, g^-1}: it puts c_g at
    (i, j) and, when g^-1 is another term, c_{g^-1} at (j, i); g^-1 has g's
    edge length, so the gap skips both alike.  No two terms share a slot
    (g x = h x implies g = h), so nothing is summed.
    """
    import numpy as np
    from scipy.sparse import csr_matrix

    for g, c in x.terms.items():
        _check_group(g, ball.group)
        if not isinstance(c, numbers.Real):
            raise OpsimError(f"coefficients must be real, got {c!r}")
    top = max(ball.by_length, default=0)
    alpha = ball.group.graph.alpha
    mul = wordcore.mul_items
    fibers = ball.fibers
    rows, cols, vals = [], [], []
    paired = set()
    for g, c in x.terms.items():
        if g.items in paired:
            continue
        near = [skeletons for length, skeletons in ball.by_length.items()
                if abs(g.edge_length - length) <= top]
        if not near:
            continue
        ginv = g.inverse()
        cinv = x.terms.get(ginv) if ginv != g else None
        if cinv is not None:
            paired.add(ginv.items)
            cinv = float(cinv)
        fc = float(c)
        gl = list(g.items)
        for skeletons in near:
            for s in skeletons:
                h = mul(gl, [*s, 0], alpha)
                shift = h.pop()
                target = fibers.get(tuple(h))
                if target is None:
                    continue
                for k, j in fibers[s].items():
                    i = target.get(k + shift)
                    if i is not None:
                        rows.append(i)
                        cols.append(j)
                        vals.append(fc)
                        if cinv is not None:
                            rows.append(j)
                            cols.append(i)
                            vals.append(cinv)
    n = len(ball)
    if not vals:        # every term skipped by the gap, or no terms
        return BallOperator(csr_matrix((n, n)))
    mat = csr_matrix((np.array(vals), (rows, cols)), shape=(n, n))
    return BallOperator(mat)


def _power_iteration(mat: csr_matrix, tol: float, max_iter: int, seed: int):
    """Largest singular value of a real M by symmetric Lanczos on A = M^T M.

    The name is historical: the body was power iteration once.  Returns
    (sigma, steps); each step is one product with M and one with M^T, and
    no reorthogonalisation is done, so memory stays O(n).

    At checkpoints k = 1, then k += max(1, k // 4), theta is the top
    eigenvalue of the k x k tridiagonal T_k.  By Cauchy interlacing theta is
    nondecreasing in k and at most lambda_max(A), and in finite precision
    Ritz values stay inside the spectrum up to O(eps ||A||) (Paige), so
    sigma = sqrt(theta) is a lower bound at every checkpoint.  The run stops
    when the residual bound beta_k |s_k| (s_k the last component of T_k's top
    eigenvector) is at most tol * theta / 2: an eigenvalue of A then lies
    within that bound of theta (the top one, for a start vector with a
    component along its eigenvector, which a random start has), so sigma is
    within relative accuracy tol.  It also stops when beta vanishes (an
    invariant subspace) or when theta did not grow since the previous
    checkpoint, which bounds the steps for a tol below the rounding level.
    """
    import numpy as np

    n = mat.shape[1]
    if n == 0 or mat.nnz == 0:
        return 0.0, 0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    mt = mat.T.tocsr()
    eps = float(np.finfo(float).eps)
    alphas, betas = [], []
    beta = 0.0
    theta = theta_prev = 0.0
    check = 1
    for k in range(1, max_iter + 1):
        w = mt @ (mat @ v)
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        # A v = beta v_prev + alpha v + w: a w at rounding level next to
        # the other two terms means an invariant subspace.
        w_norm = float(np.linalg.norm(w))
        vanished = w_norm <= eps * (alpha + beta)
        beta = w_norm
        alphas.append(alpha)
        if k == check or k == max_iter or vanished:
            check = k + max(1, k // 4)
            ritz, vecs = np.linalg.eigh(
                np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            theta = max(float(ritz[-1]), 0.0)
            if (vanished or beta * abs(vecs[-1, -1]) <= tol * theta / 2
                    or theta <= theta_prev):
                return math.sqrt(theta), k
            theta_prev = theta
        betas.append(beta)
        v_prev, v = v, w / beta
    raise NormConvergenceError(math.sqrt(theta), max_iter)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise OpsimError(f"tol must be finite and positive, got {tol!r}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise OpsimError(f"seed must be nonnegative, got {seed!r}")


def norm_estimate(op: BallOperator, tol: float = 1e-6,
                  max_iter: int = 100000, seed: int = 42) -> float:
    """Lower bound on ||op|| within relative accuracy tol (Lanczos steps,
    see ``_power_iteration``); NormConvergenceError after max_iter steps."""
    _check_tol(tol)
    _check_seed(seed)
    if max_iter < 1:
        raise OpsimError(f"max_iter must be at least 1, got {max_iter!r}")
    value, _ = _power_iteration(op.matrix, tol, max_iter, seed)
    return value


class DecayRow(NamedTuple):
    m: int
    bound: float
    estimate: float
    iterations: int     # Lanczos steps of the norm solver

    @property
    def passed(self) -> bool:
        return self.estimate <= self.bound + 1e-9


class DecayTable(NamedTuple):
    rows: tuple
    f_norm: float
    ball_size: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self) -> str:
        lines = ["m,bound,estimate,ball_size,iterations"]
        for r in self.rows:
            lines.append(f"{r.m},{r.bound:.12g},{r.estimate:.12g},"
                         f"{self.ball_size},{r.iterations}")
        return "\n".join(lines) + "\n"


def powers_decay_experiment(data: Ce2Data, f: FormalElement, m_values,
                            radius: int, seed: int = 42,
                            tol: float = 1e-6) -> DecayTable:
    """Averaging-norm decay: for each m, conjugate f by z_1..z_m and compare
    the truncated norm of the average against (2/sqrt(m)) ||f||_est.  An
    empty m list, an m < 1 and an m whose conjugators pass
    ``MAX_CONJUGATOR_LETTERS`` raise OpsimError before the ball is built or
    ``averaging_elements`` called (z_j = r1^(j-1) z_1 has no cancellation,
    so z_1 .. z_m have m len(z_1) + len(r1) m (m - 1) / 2 letters); so does
    a ball on which f's operator is zero."""
    group = data.group
    _check_tol(tol)
    _check_seed(seed)
    if not f.is_selfadjoint():
        raise OpsimError("f must be self-adjoint")
    tvert = group.graph.terminus[data.edge]
    if restrict_expectation(f, tvert, data.N).terms:
        raise OpsimError("f must have zero expectation onto <a^N>")
    for g in f.terms:
        if g.edge_letter_count(data.edge) > data.L:
            raise OpsimError(
                "support exceeds the y-length budget L of the conjugators")
    m_values = list(m_values)
    if not m_values or min(m_values) < 1:
        raise OpsimError(f"bad m list {m_values!r}")
    top = max(m_values)
    first = data.z[0].edge_length
    step = data.r1.edge_length
    letters = top * first + step * top * (top - 1) // 2
    if letters > MAX_CONJUGATOR_LETTERS:
        raise OpsimError(f"m = {top} conjugators have {letters} letters, past "
                         f"the cap of {MAX_CONJUGATOR_LETTERS}")

    ball_ = enumerate_ball(group, None, radius)
    f_op = operator_of(f, ball_).matrix
    if not f_op.count_nonzero():
        raise OpsimError(f"f's operator on the radius {radius} ball is zero: "
                         "every bound would be 0 and check nothing")
    f_norm, _ = _power_iteration(f_op, tol, 10 ** 5, seed)
    # z f z^-1 once per z_1 .. z_top; each m averages the first m
    conjugates = [_conjugates(f, z) for z in averaging_elements(data, top)]
    rows = []
    for m in m_values:
        avg = _mean(conjugates[:m], f.exact)
        est, iters = _power_iteration(operator_of(avg, ball_).matrix,
                                      tol, 10 ** 5, seed)
        rows.append(DecayRow(m=m, bound=2.0 / math.sqrt(m) * f_norm,
                             estimate=est, iterations=iters))
    return DecayTable(rows=tuple(rows), f_norm=f_norm, ball_size=len(ball_))


class PsReport(NamedTuple):
    trials: int
    dim: int
    max_ratio: float
    passed: bool


def ps_inequality_check(trials: int, dim: int, seed: int = 42,
                        slack: float = 1e-9) -> PsReport:
    """Random instances of |<T xi, xi>| <= 2 ||T|| ||q xi|| for self-adjoint
    T with (1-q) T (1-q) = 0 and a coordinate projection q."""
    import numpy as np

    if trials < 1 or dim < 1:
        raise OpsimError(
            f"trials and dim must be positive, got {trials!r} and {dim!r}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    passed = True
    for _ in range(trials):
        a = rng.standard_normal((dim, dim))
        t0 = (a + a.T) / 2.0
        qdiag = rng.integers(0, 2, size=dim).astype(float)
        q = np.diag(qdiag)
        comp = np.eye(dim) - q
        t = t0 - comp @ t0 @ comp
        xi = rng.standard_normal(dim)
        xi /= np.linalg.norm(xi)
        lhs = abs(float(xi @ (t @ xi)))
        tnorm = float(np.max(np.abs(np.linalg.eigvalsh(t))))
        rhs = 2.0 * tnorm * float(np.linalg.norm(q @ xi))
        if lhs > rhs + slack:
            passed = False
        if rhs > 0:
            max_ratio = max(max_ratio, lhs / rhs)
    return PsReport(trials=trials, dim=dim, max_ratio=max_ratio, passed=passed)
