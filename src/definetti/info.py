"""Entropy, relative entropy and mutual information in natural-log units.

All quantities are plain floats in nats.  +inf is a legal value, not an
error: it arises exactly when absolute continuity fails (some outcome has
positive probability under P and exact zero under Q) and it propagates
through sums.  0 log 0 = 0 throughout.  Zeros are never thresholded; they
come exactly from the constructions.  Accumulation uses math.fsum over a
fixed lexicographic term order, so values are reproducible well below the
certification tolerances.

Conditional informations of an exchangeable law are signed sums of its block
entropies (:func:`definetti.core.block_entropies`); block-to-block mutual
informations are summed over type pairs of a :class:`BlockJoint`.
"""

from __future__ import annotations

from functools import reduce
from math import fsum, inf, log

import numpy as np

from .core import (
    BlockJoint,
    ExchangeableLaw,
    GenericJoint,
    block_entropies,
    block_joint,
    enumerate_types,
    multiplicity,
)


def entropy(p) -> float:
    """Shannon entropy -sum p log p of a distribution, in nats."""
    arr = np.asarray(p, dtype=float).ravel()
    return max(0.0, fsum(-x * log(x) for x in arr.tolist() if x > 0.0))


def relative_entropy(p, q) -> float:
    """D(P || Q) = sum_{x: P(x)>0} P(x) log(P(x)/Q(x)).

    Returns +inf exactly when some x has P(x) > 0 and Q(x) == 0.
    """
    pa = np.asarray(p, dtype=float).ravel()
    qa = np.asarray(q, dtype=float).ravel()
    if pa.shape != qa.shape:
        raise ValueError("distributions must share an index set")
    terms = []
    for pi, qi in zip(pa.tolist(), qa.tolist()):
        if pi > 0.0:
            if qi == 0.0:
                return inf
            terms.append(pi * (log(pi) - log(qi)))
    return max(0.0, fsum(terms))


def total_variation(p, q) -> float:
    """Total variation distance (1/2) sum |P(x) - Q(x)|, in [0, 1]."""
    pa = np.asarray(p, dtype=float).ravel()
    qa = np.asarray(q, dtype=float).ravel()
    if pa.shape != qa.shape:
        raise ValueError("distributions must share an index set")
    return 0.5 * fsum(np.abs(pa - qa).tolist())


def _matrix_mi(mat: np.ndarray) -> float:
    """Mutual information of a dense 2-D joint distribution."""
    pu = mat.sum(axis=1)
    pv = mat.sum(axis=0)
    terms = []
    rows, cols = mat.shape
    for r in range(rows):
        pr = pu[r]
        for c in range(cols):
            v = mat[r, c]
            if v > 0.0:
                terms.append(v * (log(v) - log(pr * pv[c])))
    return max(0.0, fsum(terms))


def mutual_information(bj: BlockJoint) -> float:
    """Mutual information between the two blocks of a BlockJoint, in nats.

    The sum runs over type pairs weighted by both multiplicities; block
    marginals are recomputed from the joint so the value is self-contained.
    """
    types_a = enumerate_types(bj.m, bj.a)
    types_b = enumerate_types(bj.m, bj.b)
    mult_a = [multiplicity(t) for t in types_a]
    mult_b = [multiplicity(t) for t in types_b]
    j = bj.joint
    pa = {
        ta: fsum(mb * j.get((ta, tb), 0.0) for tb, mb in zip(types_b, mult_b))
        for ta in types_a
    }
    pb = {
        tb: fsum(ma * j.get((ta, tb), 0.0) for ta, ma in zip(types_a, mult_a))
        for tb in types_b
    }
    terms = []
    for ta, ma in zip(types_a, mult_a):
        pta = pa[ta]
        for tb, mb in zip(types_b, mult_b):
            v = j.get((ta, tb), 0.0)
            if v > 0.0:
                terms.append(ma * mb * v * (log(v) - log(pta * pb[tb])))
    return max(0.0, fsum(terms))


def conditional_mutual_information(law: ExchangeableLaw, i: int, cond_len: int) -> float:
    """I(X_1^{i-1}; X_i | W) where W is any disjoint block of ``cond_len``.

    Positions are immaterial by exchangeability; only block sizes matter, and
    the value is H_{i-1+c} + H_{1+c} - H_{i+c} - H_c with c = ``cond_len``.
    ``i = 1`` gives 0 (empty first block).
    """
    if i < 1 or cond_len < 0 or i + cond_len > law.n:
        raise ValueError("need i >= 1, cond_len >= 0 and i + cond_len <= n")
    h = block_entropies(law)
    c = cond_len
    return max(0.0, fsum((h[i - 1 + c], h[1 + c], -h[i + c], -h[c])))


def lemma1_decomposition(j: GenericJoint) -> tuple[float, list[float]]:
    """Split D(joint || product of marginals) into chained informations.

    Returns the relative entropy between ``j`` and the product of its
    single-coordinate marginals, together with the per-coordinate terms
    I(Z_1^{i-1}; Z_i).  The terms sum to the relative entropy for *every*
    joint, exchangeable or not; tests assert the residual.
    """
    arr = np.asarray(j.probs, dtype=float)
    L = arr.ndim
    m = j.m
    margs = [
        arr.sum(axis=tuple(ax for ax in range(L) if ax != i)) for i in range(L)
    ]
    product = reduce(np.multiply.outer, margs)
    total = relative_entropy(arr, product)
    per_term = []
    for i in range(1, L + 1):
        ji = arr.sum(axis=tuple(range(i, L))) if i < L else arr
        per_term.append(_matrix_mi(ji.reshape(m ** (i - 1), m)))
    return total, per_term


def lemma2_check(law: ExchangeableLaw, i: int, k: int) -> tuple[float, float]:
    """Both sides of the chain-rule identity for tail information.

    lhs sums I(X_1^{i-1}; X_i | block of length mm-k) over mm = k..n; rhs is
    I(X_1^{i-1}; X_k^n).  For exchangeable laws the chain rule makes these
    equal; the general statement is only lhs <= rhs.  Both are returned so
    callers can assert whichever applies.  The lhs comes from the block
    entropies and the rhs from the type-pair joint, so the two sides are
    computed independently and their agreement is a check, not an identity.
    """
    if not 1 <= i <= k <= law.n - 1:
        raise ValueError("need 1 <= i <= k <= n-1")
    lhs = fsum(
        conditional_mutual_information(law, i, mm - k) for mm in range(k, law.n + 1)
    )
    rhs = mutual_information(block_joint(law, i - 1, law.n - k + 1))
    return lhs, rhs
