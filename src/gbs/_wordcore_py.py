"""Pure-Python word kernel: Britton reduction and transversal normal forms.

A path word is a flat list ``[r0, e1, r1, e2, ..., en, rn]``: integer
exponents at even slots, edge indices at odd slots.  Edge indices are laid
out so that the reversed edge of ``e`` is ``e ^ 1``.  The only graph data
needed here is the table ``alpha`` mapping an edge index to its nonzero
injection integer; vertex bookkeeping lives in the callers.

Conventions (shared with the Cython twin, which gives the same outputs,
checked by ``tests/test_kernel.py``):

* pinch: a segment ``e, r, bar(e)`` with ``alpha[e] | r`` collapses to the
  exponent ``alpha[bar(e)] * (r // alpha[e])``, merged into its neighbours;
* canonical residues: the exponent before an edge ``e`` is reduced into
  ``[0, |alpha[bar(e)]|)``, pushing ``alpha[e] * s`` to the right;
* exponents are arbitrary-precision throughout.
"""


def reduce_items(items, alpha):
    """One linear pass removing pinches (cascades included)."""
    out = [items[0]]
    n = len(items)
    i = 1
    while i < n:
        e = items[i]
        r = items[i + 1]
        i += 2
        if len(out) >= 3 and out[-2] == (e ^ 1) and out[-1] % alpha[e ^ 1] == 0:
            s = out[-1] // alpha[e ^ 1]
            del out[-2:]
            out[-1] += alpha[e] * s + r
        else:
            out.append(e)
            out.append(r)
    return out


def sweep_items(items, alpha):
    """Left-to-right residue normalization; input must be reduced."""
    out = list(items)
    n = len(out)
    i = 1
    while i < n:
        e = out[i]
        ab = alpha[e ^ 1]
        m = ab if ab > 0 else -ab
        r = out[i - 1]
        rho = r % m
        if rho != r:
            out[i - 1] = rho
            out[i + 1] += alpha[e] * ((r - rho) // ab)
        i += 2
    return out


def canon_items(items, alpha):
    return sweep_items(reduce_items(items, alpha), alpha)


def inv_items(items):
    """Reverse the word, negate exponents, bar the edges.  Not canonical."""
    n = len(items)
    out = [-items[n - 1]]
    i = n - 2
    while i > 0:
        out.append(items[i] ^ 1)
        out.append(-items[i - 1])
        i -= 2
    return out


def mul_items(a, b, alpha):
    """Product of two canonical words, canonical output.

    Cancellation can only start at the seam, and ``b`` is canonical past it,
    so the carry sweep stops at the first residue it leaves unchanged.  The
    cost is an O(len(a)) copy of ``a``, plus the cancelled stretch, plus the
    carry stretch.
    """
    out = list(a)
    nb = len(b)
    r = out.pop() + b[0]
    i = 1
    while i < nb:
        e = b[i]
        if len(out) >= 2 and out[-1] == (e ^ 1) and r % alpha[e ^ 1] == 0:
            s = r // alpha[e ^ 1]
            out.pop()
            r = out.pop() + alpha[e] * s + b[i + 1]
            i += 2
        else:
            break
    start = len(out)
    out.append(r)
    if i < nb:
        out.extend(b[i:])
    j = start + 1
    n = len(out)
    while j < n:
        e = out[j]
        ab = alpha[e ^ 1]
        m = ab if ab > 0 else -ab
        r0 = out[j - 1]
        rho = r0 % m
        if rho == r0:
            break
        out[j - 1] = rho
        out[j + 1] += alpha[e] * ((r0 - rho) // ab)
        j += 2
    return out
