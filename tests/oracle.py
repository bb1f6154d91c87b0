"""Dense brute-force reference implementation (the suite's oracle).

Everything here enumerates sequences of A^n explicitly and works on dense
numpy arrays.  It deliberately shares no machinery with the package: its own
generator paths, its own marginalization by axis sums, its own information
sums over raw sequences.  The package must agree with it to 1e-12 at oracle
scale (n <= 6, m <= 3).
"""

import itertools
from math import fsum, inf, log

import numpy as np


# ---------------------------------------------------------------------------
# generators, sequence by sequence
# ---------------------------------------------------------------------------

def dense_polya(counts, n):
    m = len(counts)
    arr = np.empty((m,) * n)
    for x in itertools.product(range(m), repeat=n):
        c = list(counts)
        total = sum(c)
        p = 1.0
        for s in x:
            p *= c[s] / total
            c[s] += 1
            total += 1
        arr[x] = p
    return arr


def dense_urn(counts, n):
    m = len(counts)
    arr = np.empty((m,) * n)
    for x in itertools.product(range(m), repeat=n):
        c = list(counts)
        total = sum(c)
        p = 1.0
        for s in x:
            p *= c[s] / total
            c[s] -= 1
            total -= 1
            if p == 0.0:
                break
        arr[x] = p
    return arr


def dense_iid_mixture(weights, dists, n):
    m = len(dists[0])
    arr = np.empty((m,) * n)
    for x in itertools.product(range(m), repeat=n):
        arr[x] = fsum(
            w * float(np.prod([d[s] for s in x])) for w, d in zip(weights, dists)
        )
    return arr


def dense_from_law(law):
    """Per-sequence array built by direct per-type lookup."""
    m, n = law.m, law.n
    arr = np.empty((m,) * n)
    for x in itertools.product(range(m), repeat=n):
        counts = [0] * m
        for s in x:
            counts[s] += 1
        arr[x] = law.seq_prob(tuple(counts))
    return arr


# ---------------------------------------------------------------------------
# information functionals on dense arrays
# ---------------------------------------------------------------------------

def entropy_d(p):
    return fsum(-v * log(v) for v in np.asarray(p).ravel().tolist() if v > 0.0)


def kl_d(p, q):
    total = []
    for pv, qv in zip(np.asarray(p).ravel().tolist(), np.asarray(q).ravel().tolist()):
        if pv > 0.0:
            if qv == 0.0:
                return inf
            total.append(pv * log(pv / qv))
    return fsum(total)


def tv_d(p, q):
    return 0.5 * fsum(
        abs(pv - qv)
        for pv, qv in zip(np.asarray(p).ravel().tolist(), np.asarray(q).ravel().tolist())
    )


def mi_matrix_d(mat):
    pu = mat.sum(axis=1)
    pv = mat.sum(axis=0)
    terms = []
    for r in range(mat.shape[0]):
        for c in range(mat.shape[1]):
            v = mat[r, c]
            if v > 0.0:
                terms.append(v * log(v / (pu[r] * pv[c])))
    return fsum(terms)


# ---------------------------------------------------------------------------
# marginals, blocks, conditionals
# ---------------------------------------------------------------------------

def marginal_d(arr, k):
    n = arr.ndim
    if k == n:
        return arr
    return arr.sum(axis=tuple(range(k, n)))


def block_joint_d(arr, a, b):
    """Joint of the first a and the *last* b coordinates, as an (m^a, m^b) matrix.

    Using the trailing block (instead of the contiguous one the package uses)
    doubles as a check that block position is immaterial.
    """
    n = arr.ndim
    m = arr.shape[0] if n else 1
    mid = tuple(range(a, n - b))
    joint = arr.sum(axis=mid) if mid else arr
    return joint.reshape(m**a, m**b)


def mi_blocks_d(arr, a, b):
    return mi_matrix_d(block_joint_d(arr, a, b))


def cmi_d(arr, i, c):
    """I(X_1^{i-1}; X_i | next c coordinates), all indices 1-based."""
    if i == 1:
        return 0.0
    n = arr.ndim
    m = arr.shape[0]
    used = i + c
    head = arr.sum(axis=tuple(range(used, n))) if used < n else arr
    # axes: prefix 0..i-2, target i-1, conditioning i..i+c-1
    order = tuple(range(i, i + c)) + tuple(range(i - 1)) + (i - 1,)
    j = np.transpose(head, order).reshape(m**c, m ** (i - 1), m)
    pz = j.sum(axis=(1, 2))
    ju = j.sum(axis=2)
    jv = j.sum(axis=1)
    terms = []
    for z in range(m**c):
        if pz[z] <= 0.0:
            continue
        for u in range(m ** (i - 1)):
            for v in range(m):
                val = j[z, u, v]
                if val > 0.0:
                    terms.append(val * log(val * pz[z] / (ju[z, u] * jv[z, v])))
    return fsum(terms)


def cond_mi_sum_d(arr, k, mm):
    return fsum(cmi_d(arr, i, mm - k) for i in range(1, k + 1))


def select_mstar_d(arr, k):
    # same tie rule as the package: improvements below 1e-13 keep the
    # incumbent (smaller) endpoint
    n = arr.ndim
    best_m, best_v = k, inf
    for mm in range(k, n + 1):
        v = cond_mi_sum_d(arr, k, mm)
        if v < best_v - 1e-13:
            best_m, best_v = mm, v
    return best_m, best_v


def conditional_component_d(arr, c, wseq):
    """P(X_1 = . | X_2^{1+c} = wseq), from the dense joint."""
    n = arr.ndim
    m = arr.shape[0]
    head = arr.sum(axis=tuple(range(1 + c, n))) if 1 + c < n else arr
    slab = head[(slice(None),) + tuple(wseq)]
    return slab / slab.sum()


def conditional_block_d(arr, k, c, wseq):
    """P(X_1^k = . | next c coordinates = wseq)."""
    n = arr.ndim
    head = arr.sum(axis=tuple(range(k + c, n))) if k + c < n else arr
    slab = head[(slice(None),) * k + tuple(wseq)]
    return slab / slab.sum()


def mixture_d(arr, k, m_star):
    """Mixture of k-fold products, conditioning on the last m_star - k coords.

    Atoms are kept per suffix assignment (no grouping by type), which makes
    this an independent route to the same mixture.
    """
    n = arr.ndim
    m = arr.shape[0]
    c = m_star - k
    mid = tuple(range(1, n - c))
    pair = arr.sum(axis=mid) if mid else arr  # joint of X_1 and the last c coords
    acc = np.zeros((m,) * k)
    for w in itertools.product(range(m), repeat=c):
        slab = pair[(slice(None),) + w]
        pw = slab.sum()
        if pw <= 0.0:
            continue
        comp = slab / pw
        block = comp
        for _ in range(k - 1):
            block = np.multiply.outer(block, comp)
        acc += pw * block
    return acc


def certify_D_d(arr, k, m_star):
    return kl_d(marginal_d(arr, k), mixture_d(arr, k, m_star))


# ---------------------------------------------------------------------------
# weight fit on the dense joint
# ---------------------------------------------------------------------------

def product_d(comp, k):
    """The k-fold product of a letter distribution, as an array of shape (m,)*k."""
    out = np.ones(())
    for _ in range(k):
        out = np.multiply.outer(out, np.asarray(comp, dtype=float))
    return out


def em_fit_d(target, comps, init, iterations):
    """Plain EM for D(target || sum_j w_j comp_j^k) over sequences, fixed step count.

    Returns (weights, divergence) after ``iterations`` updates.
    """
    t = np.asarray(target).ravel()
    support = t > 0.0
    rows = np.array([product_d(c, np.ndim(target)).ravel()[support] for c in comps])
    w = np.asarray(init, dtype=float) / np.sum(init)
    for _ in range(iterations):
        w = w * (rows @ (t[support] / (w @ rows)))
        w = w / w.sum()
    return w, kl_d(t[support], w @ rows)


def gap_d(target, comps, weights):
    """Lindsay's gap log max_j sum_x t(x) C_j(x) / M_w(x) over sequences."""
    t = np.asarray(target).ravel()
    support = t > 0.0
    rows = np.array([product_d(c, np.ndim(target)).ravel()[support] for c in comps])
    ratio = t[support] / (np.asarray(weights, dtype=float) @ rows)
    return log(max(fsum((row * ratio).tolist()) for row in rows))
