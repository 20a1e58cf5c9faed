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
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from gbs import wordcore
from gbs.pingpong import Ce2Data, averaging_elements
from gbs.words import GbsGroup, GroupElement, WordError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


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

    def support(self):
        return list(self.terms.keys())

    def coefficient(self, g: GroupElement):
        return self.terms.get(g, 0)

    @property
    def exact(self) -> bool:
        return all(_exact(c) for c in self.terms.values())

    def __add__(self, other):
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return FormalElement(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return FormalElement({g: scalar * c for g, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FormalElement):
            return FormalElement({g: c * other for g, c in self.terms.items()})
        out = {}
        for g, c in self.terms.items():
            for h, d in other.terms.items():
                gh = g * h
                out[gh] = out.get(gh, 0) + c * d
        return FormalElement(out)

    def adjoint(self) -> "FormalElement":
        return FormalElement({g.inverse(): _conj(c) for g, c in self.terms.items()})

    def is_selfadjoint(self) -> bool:
        return self.terms == self.adjoint().terms

    def __eq__(self, other):
        return isinstance(other, FormalElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*lam[{g}]" for g, c in self.terms.items())


def restrict_expectation(x: FormalElement, vertex, k: int) -> FormalElement:
    """Keep the terms supported on <a_P^k>: the coefficient restriction
    realizing the conditional expectation at the truncated level."""
    if not x.terms:
        return FormalElement()
    group = next(iter(x.terms)).group
    kept = {g: c for g, c in x.terms.items()
            if group.cyclic_membership(g, vertex, k) is not None}
    return FormalElement(kept)


def average_conjugates(x: FormalElement, conjugators) -> FormalElement:
    """(1/n) sum_z z x z^-1, exact when the input coefficients are exact."""
    conjugators = list(conjugators)
    if not conjugators:
        raise OpsimError("need at least one conjugator")
    n = len(conjugators)
    weight = Fraction(1, n) if x.exact else 1.0 / n
    out = {}
    for z in conjugators:
        zinv = z.inverse()
        for g, c in x.terms.items():
            h = z * g * zinv
            out[h] = out.get(h, 0) + weight * c
    return FormalElement(out)


class Ball:
    """Deterministic BFS closure of products of few generators.

    ``index`` maps the canonical item tuple of each element to its ball
    index, in index order, and ``by_length`` maps each edge length to the
    ball indices of that length, in index order.  ``elements``, the
    ``GroupElement``s in index order, is built on first access."""

    __slots__ = ("group", "index", "by_length", "radius", "_elements")

    def __init__(self, group, index, by_length, radius):
        self.group = group
        self.index = index
        self.by_length = by_length
        self.radius = radius
        self._elements = None

    def __len__(self):
        return len(self.index)

    @property
    def elements(self):
        if self._elements is None:
            self._elements = [GroupElement(self.group, items, _canonical=True)
                              for items in self.index]
        return self._elements

    def position(self, g: GroupElement):
        return self.index.get(g.items)


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

    The walk runs on canonical item lists through the kernel's product; each
    new element's one hash is its insert into the ball's index.  An element
    reached by the step s keeps the index of s^-1 in the list (the first
    one, or None when s^-1 is not listed), and that one product is not
    formed from it: it only leads back to the parent, which is already seen.
    The elements and their order are those of the plain BFS.  Every
    generator must belong to ``group`` (WordError otherwise)."""
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
    steps = [list(s.items) for s in generators]
    alpha = group.graph.alpha
    mul = wordcore.mul_items
    identity = group.identity().items
    index = {identity: 0}
    by_length = {0: [0]}
    frontier = [(list(identity), None)]
    for _ in range(radius):
        new = []
        for g, back in frontier:
            for k, s in enumerate(steps):
                if k == back:
                    continue
                h = mul(g, s, alpha)
                n = len(index)
                if index.setdefault(tuple(h), n) == n:
                    by_length.setdefault(len(h) // 2, []).append(n)
                    new.append((h, undo[k]))
        frontier = new
        if not frontier:
            break
    return Ball(group, index, by_length, radius)


@dataclass
class BallOperator:
    matrix: csr_matrix


def operator_of(x: FormalElement, ball: Ball) -> BallOperator:
    """Sum of coefficient-weighted translation operators; for lam(g) the
    partial permutation x -> g x on the ball.  Each product is the kernel's,
    of the items of g and of x, looked up in ``ball.index``; no
    ``GroupElement`` is formed.  Every term must belong to the ball's
    group (WordError otherwise).

    Coefficients must be real (OpsimError otherwise): the norm solver
    multiplies by M^T, which is the adjoint of M only for a real M.

    A product of canonical words cancels only at the seam (Britton's lemma),
    so edge_len(g x) >= |edge_len(g) - edge_len(x)|.  When that gap exceeds
    the largest edge length in the ball, g x has no position in the ball, and
    the pair is skipped without forming the product.

    For x_i, x_j in the ball, g x_j = x_i exactly when g^-1 x_i = x_j, so on
    every ball the matrix of lam(g^-1) is the transpose of that of lam(g).
    One product g x_j therefore serves the pair {g, g^-1}: it puts c_g at
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
    index = ball.index
    ball_items = list(index)
    rows, cols, vals = [], [], []
    paired = set()
    for g, c in x.terms.items():
        if g.items in paired:
            continue
        near = [js for length, js in ball.by_length.items()
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
        for js in near:
            for j in js:
                i = index.get(tuple(mul(gl, list(ball_items[j]), alpha)))
                if i is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(fc)
                    if cinv is not None:
                        rows.append(j)
                        cols.append(i)
                        vals.append(cinv)
    n = len(ball)
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


@dataclass(frozen=True)
class DecayRow:
    m: int
    bound: float
    estimate: float
    iterations: int     # Lanczos steps of the norm solver

    @property
    def passed(self) -> bool:
        return self.estimate <= self.bound + 1e-9


@dataclass(frozen=True)
class DecayTable:
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
    the truncated norm of the average against (2/sqrt(m)) ||f||_est."""
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

    ball_ = enumerate_ball(group, None, radius)
    f_norm, _ = _power_iteration(operator_of(f, ball_).matrix, tol, 10 ** 5, seed)
    rows = []
    for m in m_values:
        zs = averaging_elements(data, m)
        avg = average_conjugates(f, zs)
        est, iters = _power_iteration(operator_of(avg, ball_).matrix,
                                      tol, 10 ** 5, seed)
        rows.append(DecayRow(m=m, bound=2.0 / math.sqrt(m) * f_norm,
                             estimate=est, iterations=iters))
    return DecayTable(rows=tuple(rows), f_norm=f_norm, ball_size=len(ball_))


@dataclass(frozen=True)
class PsReport:
    trials: int
    dim: int
    max_ratio: float
    passed: bool


def ps_inequality_check(trials: int, dim: int, seed: int = 42,
                        slack: float = 1e-9) -> PsReport:
    """Random instances of |<T xi, xi>| <= 2 ||T|| ||q xi|| for self-adjoint
    T with (1-q) T (1-q) = 0 and a coordinate projection q."""
    import numpy as np

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
        tnorm = float(np.max(np.abs(np.linalg.eigvalsh(t)))) if dim else 0.0
        rhs = 2.0 * tnorm * float(np.linalg.norm(q @ xi))
        if lhs > rhs + slack:
            passed = False
        if rhs > 0:
            max_ratio = max(max_ratio, lhs / rhs)
    return PsReport(trials=trials, dim=dim, max_ratio=max_ratio, passed=passed)
