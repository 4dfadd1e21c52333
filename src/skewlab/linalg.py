"""Exact linear algebra helpers.

Three layers: generic Gaussian elimination over any field whose elements carry
Python operators (used over L and over F_2(s)), numpy integer elimination
mod a prime (used for the large finite-context systems), and the batched
rank scan over an F_p-linear family of matrices (used by the MRD and
zero-divisor scans).
"""

import numpy as np

from .polyring import Poly


# ---------------------------------------------------------------- generic --


def rref(rows):
    """Row-reduce a list of element lists in place-ish; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel of the equation rows (each of length ncols)."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """One solution of rows * x = rhs with free variables zero, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
    x = [field.zero] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[-1]
    return x


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def identity_matrix(field, n):
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def charpoly(A, field):
    """det(yI - A) as a monic Poly over the entry field (Laplace expansion;
    fine at companion-matrix sizes)."""
    n = len(A)
    y = Poly.gen(field)
    entries = [
        [
            (y - Poly.constant(field, A[i][j]))
            if i == j
            else Poly.constant(field, -A[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(entries, field)


def _poly_det(M, field):
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = Poly.zero(field)
    for j in range(n):
        if not M[0][j]:
            continue
        minor = [[M[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = M[0][j] * _poly_det(minor, field)
        acc = acc - term if j % 2 else acc + term
    return acc


def min_poly(A, field):
    """Minimal polynomial of the square matrix A over its entry field,
    by the first linear dependence among I, A, A^2, ... (Krylov on vec)."""
    n = len(A)
    power = identity_matrix(field, n)
    seen = [[x for row in power for x in row]]
    while True:
        power = mat_mul(power, A)
        vec = [x for row in power for x in row]
        cols = list(zip(*seen))
        combo = solve([list(c) for c in cols], vec, field)
        if combo is not None:
            coeffs = [-c for c in combo] + [field.one]
            return Poly(field, coeffs)
        seen.append(vec)
        if len(seen) > n * n + 1:
            raise RuntimeError("minimal polynomial search failed to terminate")


# ---------------------------------------------------------------- mod p ----


def np_rref(M, p):
    """Return (reduced rows, pivot columns) of an integer matrix mod p."""
    R = (np.array(M, dtype=np.int64) % p).copy()
    if R.size == 0:
        return R.reshape(0, R.shape[1] if R.ndim == 2 else 0), []
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        rows_nz = np.nonzero(R[r:, c])[0]
        if rows_nz.size == 0:
            continue
        pr = r + rows_nz[0]
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, p)) % p
        other = np.nonzero(R[:, c])[0]
        other = other[other != r]
        if other.size:
            R[other] = (R[other] - np.outer(R[other, c], R[r])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R[:r], pivots


def np_rank(M, p):
    return len(np_rref(M, p)[1])


def np_kernel(M, p, ncols=None):
    """Rows spanning the right kernel of M mod p."""
    M = np.atleast_2d(np.array(M, dtype=np.int64))
    if M.size == 0:
        if ncols is None:
            ncols = M.shape[1]
        return np.eye(ncols, dtype=np.int64)
    ncols = M.shape[1]
    R, pivots = np_rref(M, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for row, pc in zip(R, pivots):
            basis[k, pc] = (-row[fc]) % p
    return basis


def np_solve(M, b, p):
    """One solution of M x = b mod p (free variables zero), or None."""
    M = np.atleast_2d(np.array(M, dtype=np.int64))
    b = np.array(b, dtype=np.int64).reshape(-1, 1)
    aug = np.hstack([M, b])
    R, pivots = np_rref(aug, p)
    ncols = M.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for row, pc in zip(R, pivots):
        x[pc] = row[-1]
    return x


def np_inv(M, p):
    M = np.array(M, dtype=np.int64)
    n = M.shape[0]
    aug = np.hstack([M % p, np.eye(n, dtype=np.int64)])
    R, pivots = np_rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible mod p")
    return R[:, n:]


# ------------------------------------------------------------ rank scan ----

DEFAULT_BUDGET = 10**7  # ranks one scan may compute
SCAN_CHUNK_ENTRIES = 1 << 16  # matrix entries ranked per batch; bounds memory
SPOT_CHECK_EVERY = 997


class BudgetExceeded(RuntimeError):
    pass


def scan_size(p, n):
    """Ranks a scan of an n-member basis computes: one per F_p^* orbit of
    the nonzero indices."""
    return (p**n - 1) // (p - 1)


def _small_dtype(bound):
    """The narrowest signed integer dtype holding every |value| <= bound."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def family_members(basis, indices, p):
    """The members sum_j digit_j(i) basis[j], one per index i, where
    digit_j(i) is the coefficient of p^j in i; shape (len(indices),) +
    basis[0].shape.  Entries are the integer sums, not reduced mod p."""
    basis = np.asarray(basis) % p
    n = basis.shape[0]
    idx = np.asarray(indices, dtype=np.int64)
    dtype = _small_dtype(n * (p - 1) ** 2)
    flat = basis.reshape(n, -1).astype(dtype)
    out = np.zeros((len(idx), flat.shape[1]), dtype=dtype)
    for j in range(n):
        out += ((idx // p**j) % p).astype(dtype)[:, None] * flat[j]
    return out.reshape(idx.shape + basis.shape[1:])


def batch_rank(mats, p):
    """Ranks mod p of a stack of integer matrices (count, rows, cols).

    Gaussian elimination to echelon form, all matrices at once, by column
    operations: row r picks as pivot its first nonzero entry mod p in a
    column not yet used and clears row r from the other unused columns.
    Only row r and the pivot column are reduced mod p.  An entry below them
    takes at most one update of size < p^2 per row above it, and times an
    inverse (< p) it must still fit: that bound picks the smallest integer
    dtype that cannot overflow.
    """
    mats = np.asarray(mats)
    count, nrows, ncols = mats.shape
    largest = max(-int(mats.min(initial=0)), int(mats.max(initial=0)))
    M = mats.astype(_small_dtype((largest + nrows * (p - 1) ** 2) * (p - 1)))
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=M.dtype)
    free = np.ones((count, ncols), dtype=bool)
    ranks = np.zeros(count, dtype=np.int64)
    at = np.arange(count)
    for r in range(nrows):
        row = M[:, r, :] % p
        cand = free & (row != 0)
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        free[at[has], piv[has]] = False
        ranks += has
        # column c -= (row[c] / row[piv]) * pivot column, for unused c
        scale = (M[at, r + 1 :, piv] * inv[row[at, piv]][:, None]) % p
        row *= free
        M[:, r + 1 :, :] -= scale[:, :, None] * row[:, None, :]
    return ranks


def rank_scan(basis, p, threshold, unit=1, budget=DEFAULT_BUDGET, check=None):
    """First member of an F_p-linear family of matrices whose rank is below
    threshold, in index order, and the minimum rank up to that member.

    The member with index i is sum_j digit_j(i) basis[j] (see
    family_members); its rank is its F_p-rank divided by unit, and a
    remainder raises.  Scaling a member by c in F_p^* keeps its rank and the
    smallest index of each orbit has leading digit 1, so only the indices in
    [p^k, 2 p^k), k = 0..n-1, are ranked, in increasing order and in chunks
    of bounded size: the first deficient index and the minimum rank up to it
    are those of a scan of every index.  check(index, matrix, rank) is called
    on every SPOT_CHECK_EVERY-th ranked member and a False result raises.

    Returns (first deficient index or None, minimum rank).  A family whose
    scan would compute more than budget ranks is refused up front.
    """
    basis = np.asarray(basis)
    n = basis.shape[0]
    total = scan_size(p, n)
    if total > budget:
        raise BudgetExceeded(f"{total} ranks exceed the scan budget {budget}")
    chunk = max(1, SCAN_CHUNK_ENTRIES // basis[0].size)
    min_rank = None
    scanned = 0
    for k in range(n):
        for lo in range(p**k, 2 * p**k, chunk):
            idx = np.arange(lo, min(lo + chunk, 2 * p**k), dtype=np.int64)
            mats = family_members(basis, idx, p)
            ranks, rem = np.divmod(batch_rank(mats, p), unit)
            if rem.any():
                raise RuntimeError("an F_p-rank is not a multiple of the rank unit")
            if check is not None:
                first = -scanned % SPOT_CHECK_EVERY
                for pos in range(first, len(idx), SPOT_CHECK_EVERY):
                    if not check(int(idx[pos]), mats[pos], int(ranks[pos])):
                        raise RuntimeError(
                            f"rank scan disagrees with the direct computation "
                            f"at index {int(idx[pos])}"
                        )
            scanned += len(idx)
            bad = np.flatnonzero(ranks < threshold)
            stop = bad[0] + 1 if bad.size else len(idx)
            low = int(ranks[:stop].min())
            min_rank = low if min_rank is None else min(min_rank, low)
            if bad.size:
                return int(idx[bad[0]]), min_rank
    return None, min_rank
