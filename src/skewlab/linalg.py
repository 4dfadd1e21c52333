"""Exact linear algebra helpers.

Three layers.  The generic layer works over any field whose elements
carry Python operators (L, K and E(f)): rref, kernel_basis, mat_mul and
charpoly.  Numpy integer elimination mod a prime serves the large
finite-context systems.  The batched rank scan over an F_p-linear family of
matrices serves the MRD and zero-divisor scans: it ranks the members, one
chunk at a time in one chunk loop (_scan), by one batched pivot loop
(_echelon_ranks) with two arithmetics: mod p (batch_rank), or over a tabled
field F_(p^a) on element indices (batch_rank_over).
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


def charpoly(A, field):
    """det(yI - A) as a monic Poly over the entry field (Laplace expansion;
    fine at the sizes of A_f)."""
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
            # row r is zero left of c, so only columns c.. change
            R[other, c:] = (R[other, c:] - np.outer(R[other, c], R[r, c:])) % p
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
    if M.size == 0:  # no equation: ncols, when given, is the width
        M = np.zeros((0, M.shape[1] if ncols is None else ncols), dtype=np.int64)
    R, pivots = np_rref(M, p)
    free = np.delete(np.arange(M.shape[1]), pivots)
    basis = np.zeros((len(free), M.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:, free].T % p
    return basis


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


def scan_size(p, n, a=1):
    """Representatives a scan of an n-member basis ranks when a field of
    order p^a acts on it (a = 1: F_p): one per F_(p^a)^* orbit of the
    nonzero indices, (p^n - 1) / (p^a - 1)."""
    return (p**n - 1) // (p**a - 1)


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


def _inverses(x, p):
    """The inverses mod p of the residues x (0 for 0): x^(p-2) by
    left-to-right square-and-multiply (Fermat), x itself for p = 2."""
    x = out = x.astype(_small_dtype((p - 1) ** 2), copy=False)
    for bit in format(p - 2, "b")[1:]:
        out = out * out % p
        if bit == "1":
            out = out * x % p
    return out


def _echelon_ranks(row, nrows, step):
    """Ranks of a stack of matrices with nrows >= 1 rows: the pivot loop of
    both finite-field kernels, Gaussian elimination to echelon form of all
    the matrices at once by column operations.  row is row 0 of each,
    reduced (count, cols).  Row r picks as pivot its first nonzero entry in
    a column not yet used; then step(r, row, piv, cand) clears row r from
    the rows below it in the columns cand, the unused ones (the pivot's
    included) where row r is nonzero, and returns row r + 1, reduced.  The
    columns used before row r are never read again."""
    count, ncols = row.shape
    free = np.ones((count, ncols), dtype=bool)
    ranks = np.zeros(count, dtype=np.int64)
    at = np.arange(count)
    for r in range(nrows):
        cand = free & (row != 0)
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        free[at[has], piv[has]] = False
        ranks += has
        if r + 1 < nrows:
            row = step(r, row, piv, cand)
    return ranks


def batch_rank(mats, p):
    """Ranks mod p of a stack of integer matrices (count, rows, cols), for
    p < 2^31: _echelon_ranks with the mod-p step.

    Only row r and the pivot column are reduced mod p.  An entry below them
    takes at most one update of size < p^2 per row above it, and times an
    inverse (< p) it must still fit: that bound picks the smallest integer
    dtype that cannot overflow.  Where no dtype holds it, the whole block
    is reduced mod p at the start and after every step, so that entries
    stay below p and products below p^2 < 2^62.
    """
    mats = np.asarray(mats)
    count, nrows, ncols = mats.shape
    largest = max(-int(mats.min(initial=0)), int(mats.max(initial=0)))
    bound = (largest + nrows * (p - 1) ** 2) * (p - 1)
    M = mats.astype(_small_dtype(bound))
    eager = bound > np.iinfo(np.int64).max
    if eager:
        M %= p
    # the inverses of all residues, unless there are more of them than
    # matrices: then each step inverts its pivot values only
    table = _inverses(np.arange(p), p) if p <= count else None
    at = np.arange(count)

    def step(r, row, piv, cand):
        # column c -= (row[c] / row[piv]) * pivot column, for every c: row is
        # zero on the unused columns outside cand, and the used ones are
        # never read again
        pivots = row[at, piv]
        inv = _inverses(pivots, p) if table is None else table[pivots]
        scale = (M[at, r + 1 :, piv] * inv[:, None]) % p
        M[:, r + 1 :, :] -= scale[:, :, None] * row[:, None, :]
        if eager:
            M[:, r + 1 :, :] %= p
        return M[:, r + 1, :] % p

    return _echelon_ranks(M[:, 0, :] % p, nrows, step)


def batch_rank_over(mats, field):
    """Ranks over a tabled field F_(p^a) (fields.GFCtx.index_tables) of a
    stack of matrices (count, rows, cols) whose entries are element
    indices in elem_from_index order: _echelon_ranks with a step in log/exp
    arithmetic.

    Products go through log/exp; sums use the field's Zech logarithms,
    log(a + b) = log a + zech[log b - log a], or in characteristic 2 the
    XOR of the indices: the rules of FFElem.
    """
    log, exp, zech = field.index_tables()
    q1 = field.order - 1
    zero = 2 * q1  # log[0]; exp is 0 from there on
    minus = 0 if field.p == 2 else q1 // 2  # the log of -1
    M = np.array(mats, dtype=np.int64)
    at = np.arange(len(M))

    def step(r, row, piv, cand):
        # column c += (-row[c] / row[piv]) * pivot column, for c in cand:
        # the logs of the factors, and of the terms (zero from `zero` on)
        lrow = log[row]
        lf = np.where(cand, (lrow - lrow[at, piv][:, None] + minus) % q1, zero)
        lt = log[M[at, r + 1 :, piv]][:, :, None] + lf[:, None, :]
        below = M[:, r + 1 :, :]
        if zech is None:
            below ^= exp[lt]
        else:
            la = log[below]
            total = exp[la + zech[(lt - la) % q1]]
            below[...] = np.where(
                lt >= zero, below, np.where(below == 0, exp[lt], total)
            )
        return M[:, r + 1, :]

    return _echelon_ranks(M[:, 0, :], M.shape[1], step)


def _entry_indices(mats, p, a):
    """The index matrices of members whose rows come in blocks of a: the
    F_p-coordinates of one entry each, the most significant first, as in
    elem_from_index order (quotient.vec)."""
    count, rows, cols = mats.shape
    digits = (mats % p).reshape(count, rows // a, a, cols)
    return np.einsum("cjtk,t->cjk", digits, p ** np.arange(a - 1, -1, -1))


def member_ranks(mats, p, over=None):
    """Ranks of a chunk of members: over F_p, or over the field over."""
    if over is None:
        return batch_rank(mats, p)
    return batch_rank_over(_entry_indices(mats, p, over.dim), over)


def _orbit_chunks(basis, p, stride=1, scale=1):
    """(indices, members) of an F_p-linear family in chunks of bounded size,
    one member per orbit of a field of order p^stride acting on the digit
    blocks of length stride (see rank_scan): the indices in [p^k, 2 p^k),
    k = 0, stride, 2 stride, ... < n, in increasing order.  With stride 1
    the orbits are those of F_p^*, whose smallest index has leading digit
    1.  A chunk holds SCAN_CHUNK_ENTRIES entries of members scale times the
    size of basis[0]."""
    chunk = max(1, SCAN_CHUNK_ENTRIES // (basis[0].size * scale))
    for k in range(0, basis.shape[0], stride):
        for lo in range(p**k, 2 * p**k, chunk):
            idx = np.arange(lo, min(lo + chunk, 2 * p**k), dtype=np.int64)
            yield idx, family_members(basis, idx, p)


def _scan(basis, p, stop, limit, unit=1, check=None, stride=1, origin=None, over=None):
    """The chunk loop of every family scan: rank the members _orbit_chunks
    yields until stop(ranks), a mask over a chunk's ranks, marks one.
    Returns (its index or None, minimum rank up to it, members ranked).  A
    chunk that would take the members ranked past limit raises
    BudgetExceeded, as does a family whose indices do not fit in int64,
    before any rank.  unit, check and over are rank_scan's; origin(i) is
    the index check sees for member i (i itself when None)."""
    _indices_fit(p, len(basis))
    min_rank = None
    scanned = 0
    scale = 1 if over is None else over.dim
    for idx, mats in _orbit_chunks(basis, p, stride, scale):
        if scanned + len(idx) > limit:
            raise BudgetExceeded(f"ranks past the scan budget ({limit} were left)")
        ranks, rem = np.divmod(member_ranks(mats, p, over), unit)
        if rem.any():
            raise RuntimeError("a rank is not a multiple of the rank unit")
        if check is not None:
            first = -scanned % SPOT_CHECK_EVERY
            for pos in range(first, len(idx), SPOT_CHECK_EVERY):
                at = int(idx[pos]) if origin is None else origin(int(idx[pos]))
                if not check(at, mats[pos], int(ranks[pos])):
                    raise RuntimeError(
                        f"rank scan disagrees with the direct computation "
                        f"at index {at}"
                    )
        scanned += len(idx)
        bad = np.flatnonzero(stop(ranks))
        end = bad[0] + 1 if bad.size else len(idx)
        low = int(ranks[:end].min())
        min_rank = low if min_rank is None else min(min_rank, low)
        if bad.size:
            return int(idx[bad[0]]), min_rank, scanned
    return None, min_rank, scanned


def _field_basis(field, n, p):
    """beta_0 = I, then each matrix of field outside the F_p-span of those
    before it (the pivot columns of one elimination of them all): an
    F_p-basis, starting with I, of the span of I and field (n x n)."""
    mats = np.array([np.eye(n, dtype=np.int64), *field], dtype=np.int64) % p
    return mats[np_rref(mats.reshape(len(mats), -1).T, p)[1]]


def _closed_under_products(beta, p):
    """True iff every product beta_i beta_j lies in the F_p-span of beta:
    iff stacking all of them under beta keeps its rank."""
    a = len(beta)
    products = np.einsum("iab,jbc->ijac", beta, beta).reshape(a * a, -1)
    return np_rank(np.vstack([beta.reshape(a, -1), products]), p) == a


def _orbit_basis(beta, p):
    """Rows beta_i c_j, in the order i + a j, of the reordered index basis
    (coordinates over the old one), a = len(beta): the c_j are the e_k
    whose block of rows beta_i e_k starts with a pivot of one elimination
    of all the blocks, the e_k outside the span of the blocks before them.
    That span is a module over the field spanned by beta, so the c_j are a
    basis of F_p^n over that field."""
    a, n = beta.shape[:2]
    blocks = beta.transpose(2, 0, 1)  # blocks[k, i] = beta_i e_k
    _, pivots = np_rref(blocks.reshape(n * a, n).T, p)
    return blocks[[c // a for c in pivots if c % a == 0]].reshape(-1, n)


def rank_scan(
    basis, p, threshold, unit=1, budget=DEFAULT_BUDGET, check=None, field=(),
    over=None,
):
    """First member of an F_p-linear family of matrices whose rank is below
    threshold, in index order, and the minimum rank up to that member.

    The member with index i is sum_j digit_j(i) basis[j] (see
    family_members); its rank is its F_p-rank divided by unit, and a
    remainder raises.  Scaling a member by c in F_p^* keeps its rank, so
    only one member per orbit is ranked.

    over = None ranks over F_p (batch_rank).  A tabled field F_(p^a)
    (fields.GFCtx) ranks each member over it instead (batch_rank_over),
    and the rank is that rank divided by unit: the rows of a member come in
    blocks of a, the F_p-coordinates of one entry each, most significant
    first.  Such a member stands for the F_p-matrix of an F_(p^a)-linear
    map, a times its size, and chunks are sized by that, so they end at
    the same members as the F_p scan of that matrix.

    field may give larger groups of scalings: n x n matrices A acting on
    the digit vectors x (columns) with rank(member(A x)) <= rank(member(x)),
    such as a left idealiser acting on the span of the basis.  Let
    beta_0 = I, ..., beta_(a-1) be an F_p-basis of the span of I and field.
    The field check asks that this span be closed under products and that
    no nonzero member of it be singular ((p^a - 1)/(p - 1) ranks of n x n
    matrices).  Then it is a finite division ring, so a field of order
    p^a, and ranks are constant on its orbits (A^-1 is in it too).  The
    index basis is reordered as beta_i c_j, c_j a basis over that field,
    and one member per F_(p^a)^* orbit is ranked: the indices in
    [p^k, 2 p^k) with a | k.  The field is used only when the check and
    the representatives together rank fewer members than the F_p^* scan;
    otherwise, and when the check fails, a = 1, which is the same loop
    over the unchanged basis.

    If no representative is deficient the answer is (None, the minimum
    rank), as ranks are constant on orbits.  If one is, the F_p^* scan is
    run again in index order for the first deficient index and the minimum
    rank up to it, so the result is always that of a scan of every index.

    check(index, matrix, rank) is called on every SPOT_CHECK_EVERY-th
    ranked member (as family_members gives it), with the member's index in
    the unchanged basis, and a False result raises.

    budget counts every rank the scan computes.  The field check and the
    representatives are counted up front, and a scan over budget is
    refused before any rank; the rerun is counted as it goes and raises
    BudgetExceeded when it would pass the budget.  A family whose indices
    do not fit in int64 (p^n - 1 >= 2^63) raises it too, before any rank.
    """
    basis = np.asarray(basis)
    n = basis.shape[0]
    _indices_fit(p, n)  # as _scan does, but before the field check
    beta = _field_basis(field, n, p)
    a = len(beta)
    checking = scan_size(p, a) if a > 1 else 0
    if checking + scan_size(p, n, a) >= scan_size(p, n):  # the field saves no rank
        a, checking = 1, 0
    _within_budget(checking + scan_size(p, n, a), budget)
    ranked = 0
    members, origin = basis, None
    if a > 1:
        singular, _, ranked = _scan(beta, p, lambda r: r < n, checking)
        if singular is not None or not _closed_under_products(beta, p):
            a = 1
            _within_budget(ranked + scan_size(p, n), budget)
        else:
            order = _orbit_basis(beta, p)
            weights = p ** np.arange(n, dtype=np.int64)

            def origin(i):
                return int((((i // weights) % p) @ order % p) @ weights)

            # member j + a j' of the new basis is beta_j c_j', origin(p^(j + a j'))
            members = family_members(basis, [origin(p**j) for j in range(n)], p)
    first, min_rank, scanned = _scan(
        members, p, lambda r: r < threshold, budget - ranked, unit, check, a,
        origin, over,
    )
    if first is None or a == 1:
        return first, min_rank
    first, min_rank, _ = _scan(
        basis, p, lambda r: r < threshold, budget - ranked - scanned, unit, check,
        over=over,
    )
    return first, min_rank


def _indices_fit(p, n):
    if p**n - 1 > np.iinfo(np.int64).max:
        raise BudgetExceeded(
            f"member indices 0 to {p}^{n} - 1 exceed the int64 index range"
        )


def _within_budget(total, budget):
    if total > budget:
        raise BudgetExceeded(f"{total} ranks exceed the scan budget {budget}")


def first_invertible(basis, p, budget=DEFAULT_BUDGET):
    """Index of the first invertible member of an F_p-linear family of
    square matrices, in rank_scan's order, or None if every member is
    singular: _scan until a member has full rank.  A chunk that would take
    the ranks computed past budget raises BudgetExceeded instead, as does a
    family whose indices do not fit in int64."""
    basis = np.asarray(basis)
    size = basis.shape[1]
    return _scan(basis, p, lambda ranks: ranks == size, budget)[0]
