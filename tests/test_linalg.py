"""The batched rank scan against per-matrix elimination."""

import time

import numpy as np
import pytest

from skewlab import linalg
from skewlab.fields import GFCtx

from helpers import finite_ctx, record_chunks


@pytest.mark.parametrize(
    "p", [2, 3, 5, 13, 251, 65521, 16777213, 2**31 - 1]
)
def test_batch_rank_equals_np_rank(p):
    # random stacks, rectangular and low-rank ones included, and a last row
    # dependent on the first two; p = 13 and 251 take the int16 and int32
    # elimination dtypes, and from p = 16777213 on no dtype holds the lazy
    # bound, so every step is reduced mod p
    rng = np.random.default_rng(p)
    for rows, cols in ((4, 4), (3, 6), (7, 2), (9, 9)):
        mats = rng.integers(0, p, size=(60, rows, cols))
        col = rng.integers(0, p, size=(60, rows, 1))
        mats[::3] = (col @ rng.integers(0, p, size=(60, 1, cols)))[::3]
        a, b = rng.integers(1, p, size=2)
        mats[1::3, -1] = (a * mats[1::3, 0] % p + b * mats[1::3, 1] % p) % p
        got = linalg.batch_rank(mats, p)
        assert got.tolist() == [linalg.np_rank(m, p) for m in mats]


def test_batch_rank_builds_nothing_of_size_p():
    # an inverse table of all p residues took 25 s at p = 16777213
    p = 2**31 - 1
    start = time.perf_counter()
    assert linalg.batch_rank(np.array([[[3, 5], [6, 10]]]), p).tolist() == [1]
    assert time.perf_counter() - start < 1


def test_rank_scan_matches_a_scan_of_every_index(monkeypatch):
    # the orbit cut keeps the first deficient index and the minimum rank
    # up to it; seven matrices per chunk put chunk boundaries inside ranges
    monkeypatch.setattr(linalg, "SCAN_CHUNK_ENTRIES", 7 * 9)
    p = 5
    rng = np.random.default_rng(7)
    basis = rng.integers(0, p, size=(4, 3, 3))
    members = linalg.family_members(basis, np.arange(1, p**4), p)
    ranks = [linalg.np_rank(m, p) for m in members]
    for threshold in (1, 2, 3, 4):
        bad = next((i for i, r in enumerate(ranks, 1) if r < threshold), None)
        want_min = min(ranks[: bad if bad else len(ranks)])
        got = linalg.rank_scan(basis, p, threshold)
        assert got == (bad, want_min)


def test_rank_scan_budget_and_spot_checks(monkeypatch):
    # members [[a, b], [c, a]]: never zero, rank 1 where a^2 = bc
    basis = np.array([[[0, 0], [1, 0]], [[0, 1], [0, 0]], [[1, 0], [0, 1]]])
    with pytest.raises(linalg.BudgetExceeded):
        linalg.rank_scan(basis, 3, 1, budget=linalg.scan_size(3, 3) - 1)
    # every 4th ranked member, counted across chunks of two
    monkeypatch.setattr(linalg, "SCAN_CHUNK_ENTRIES", 2 * 4)
    monkeypatch.setattr(linalg, "SPOT_CHECK_EVERY", 4)
    ranked = [1, 3, 4, 5] + list(range(9, 18))
    seen = []

    def check(idx, mat, rank):
        seen.append(idx)
        return rank == linalg.np_rank(mat, 3)

    assert linalg.rank_scan(basis, 3, 1, check=check) == (None, 1)
    assert seen == ranked[::4]
    with pytest.raises(RuntimeError, match="disagrees"):
        linalg.rank_scan(basis, 3, 1, check=lambda idx, mat, rank: idx != 9)


def test_first_invertible_is_the_first_full_rank_index(monkeypatch):
    # members [[a, c], [0, b]] for index a + 3b + 9c: invertible iff a, b != 0
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]])
    assert linalg.first_invertible(basis, 3) == 4
    assert linalg.first_invertible(basis[[0, 2]], 3) is None
    with pytest.raises(linalg.BudgetExceeded):
        linalg.first_invertible(basis[[0, 2]], 3, budget=linalg.scan_size(3, 2) - 1)
    # random families, chunk boundaries inside ranges: the orbit cut keeps
    # the first invertible index of a scan of every index
    monkeypatch.setattr(linalg, "SCAN_CHUNK_ENTRIES", 5 * 9)
    rng = np.random.default_rng(11)
    for _ in range(20):
        basis = rng.integers(0, 5, size=(3, 3, 3)) * (rng.random((3, 3, 3)) < 0.3)
        members = linalg.family_members(basis, np.arange(1, 5**3), 5)
        want = next(
            (i for i, m in enumerate(members, 1) if linalg.np_rank(m, 5) == 3), None
        )
        assert linalg.first_invertible(basis, 5) == want


# ---------------------------------------------------- the one pivot loop --


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_batch_rank_equals_np_rank_and_rref_on_every_branch(p):
    # fewer matrices than residues and at least as many (the inverse table
    # off and on), one-row and rectangular stacks, and entries reduced or
    # up to 100 or 10^6 off, as unreduced family sums are: for p <= 7 the
    # int8, int16 and int32 elimination dtypes, and for p = 2^31 - 1 the
    # eager mode, every step reduced mod p
    field = GFCtx(p, 1)
    rng = np.random.default_rng(p + 22)
    for count in (max(p - 1, 1), p + 2) if p < 8 else (5,):
        for rows, cols in ((1, 4), (3, 5), (5, 2), (4, 4)):
            for offset in (0, 100, 10**6):
                mats = rng.integers(0, p, size=(count, rows, cols))
                mats[0] = 0
                mats[-1] = np.outer(mats[-1][:, 0], mats[-1][0]) % p  # rank <= 1
                k = offset // p
                mats = mats + p * rng.integers(-k, k + 1, size=mats.shape)
                rref = [
                    len(linalg.rref([[field.elem_from_index(int(x) % p) for x in r]
                                     for r in m])[1])
                    for m in mats
                ]
                assert [linalg.np_rank(m, p) for m in mats] == rref
                assert linalg.batch_rank(mats, p).tolist() == rref


def test_both_kernels_run_the_one_pivot_loop(monkeypatch):
    # each kernel hands _echelon_ranks row 0, reduced, and its step
    loop = linalg._echelon_ranks
    calls = []

    def counted(row, nrows, step):
        calls.append((row.shape, nrows, row.min() >= 0))
        return loop(row, nrows, step)

    monkeypatch.setattr(linalg, "_echelon_ranks", counted)
    mats = np.array([[[1, 2, 3], [2, 4, 6]], [[-1, 0, 0], [0, 5, 1]]])
    assert linalg.batch_rank(mats, 5).tolist() == [1, 2]
    assert linalg.batch_rank_over(mats % 4, GFCtx(2, 2)).tolist() == [2, 2]
    assert calls == [((2, 3), 2, True)] * 2


def _field_basis_greedy(field, n, p):
    """The field basis, by one rank per matrix of field."""
    rows = [np.eye(n, dtype=np.int64).reshape(-1)]
    for M in field:
        cand = np.asarray(M, dtype=np.int64).reshape(-1) % p
        if linalg.np_rank(rows + [cand], p) > len(rows):
            rows.append(cand)
    return np.array(rows).reshape(-1, n, n)


def _closed_greedy(beta, p):
    """Closure under products, by one rank per product."""
    flat = beta.reshape(len(beta), -1)
    return all(
        linalg.np_rank(np.vstack([flat, (x @ y % p).reshape(1, -1)]), p) == len(beta)
        for x in beta
        for y in beta
    )


def _orbit_basis_greedy(beta, p):
    """The reordered basis, by one rank per unit vector: c_j is the first
    e_k outside the span of the rows so far."""
    n = beta.shape[1]
    rows = np.zeros((0, n), dtype=np.int64)
    for k in range(n):
        e_k = np.eye(n, dtype=np.int64)[k]
        if linalg.np_rank(np.vstack([rows, e_k]), p) > len(rows):
            rows = np.vstack([rows, beta[:, :, k]])
    return rows


def _conjugated_field(p, a, m, rng):
    """F_(p^a) acting on F_p^(a m): a + 2 random elements (repeats, 0 and 1
    may occur), each as m diagonal blocks of its multiplication matrix,
    conjugated by one random invertible matrix."""
    ctx = finite_ctx(p, a)
    mults = np.array([ctx.mult_matrix(b) for b in ctx.basis])
    elems = np.einsum("ki,iab->kab", rng.integers(0, p, size=(a + 2, a)), mults) % p
    n = a * m
    P = rng.integers(0, p, size=(n, n))
    while linalg.np_rank(P, p) < n:
        P = rng.integers(0, p, size=(n, n))
    P_inv = linalg.np_inv(P, p)
    return [P_inv @ np.kron(np.eye(m, dtype=np.int64), x) @ P % p for x in elems]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("a", [2, 3, 4])
def test_field_check_eliminations_match_the_greedy_loops(p, a):
    rng = np.random.default_rng(10 * p + a)
    for m in (1, 2, 3)[: 4 - a // 2]:
        field = _conjugated_field(p, a, m, rng)
        n = a * m
        beta = linalg._field_basis(field, n, p)
        assert np.array_equal(beta, _field_basis_greedy(field, n, p))
        assert len(beta) == a  # random elements of F_(p^a) span it with I
        assert linalg._closed_under_products(beta, p) and _closed_greedy(beta, p)
        order = linalg._orbit_basis(beta, p)
        assert np.array_equal(order, _orbit_basis_greedy(beta, p))
        assert order.shape == (n, n) and linalg.np_rank(order, p) == n


def test_field_check_eliminations_on_a_span_not_closed_under_products():
    # the companion matrix of y^3 + y + 1 over F_2 (see below): I and C
    # span no field, as C^2 is outside their span
    C = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    field = [np.kron(np.eye(2, dtype=np.int64), C)] * 2
    beta = linalg._field_basis(field, 6, 2)
    assert np.array_equal(beta, _field_basis_greedy(field, 6, 2)) and len(beta) == 2
    assert not linalg._closed_under_products(beta, 2) and not _closed_greedy(beta, 2)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_np_kernel_is_a_reduced_basis_of_the_kernel(p):
    rng = np.random.default_rng(p)
    for rows, cols in ((3, 5), (5, 3), (4, 4), (1, 6)):
        M = rng.integers(0, p, size=(rows, cols))
        M[-1] = M[0]
        K = linalg.np_kernel(M, p)
        assert K.shape == (cols - linalg.np_rank(M, p), cols)
        assert not (M @ K.T % p).any() and linalg.np_rank(K, p) == len(K)
        # one free column each, with 1 there and 0 at the other free columns
        free = np.setdiff1d(np.arange(cols), linalg.np_rref(M, p)[1])
        assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))


# ------------------------------------------------- orbits of a larger field --


def _orbit_indices(basis, p, *stride):
    return [int(i) for idx, _ in linalg._orbit_chunks(basis, p, *stride) for i in idx]


@pytest.mark.parametrize("p, n", [(2, 5), (3, 4), (5, 3)])
def test_orbit_chunks_with_stride_one_are_the_fp_scan(monkeypatch, p, n):
    # leading digit 1: the indices in [p^k, 2 p^k), k = 0..n-1, in order
    monkeypatch.setattr(linalg, "SCAN_CHUNK_ENTRIES", 3 * 4)
    basis = np.zeros((n, 2, 2), dtype=np.int64)
    want = [i for k in range(n) for i in range(p**k, 2 * p**k)]
    assert _orbit_indices(basis, p) == _orbit_indices(basis, p, 1) == want
    assert len(want) == linalg.scan_size(p, n) == linalg.scan_size(p, n, 1)


@pytest.mark.parametrize("p, n, a", [(2, 4, 2), (2, 6, 3), (3, 4, 2), (5, 4, 2)])
def test_orbit_chunks_with_stride_a_give_one_index_per_orbit(monkeypatch, p, n, a):
    monkeypatch.setattr(linalg, "SCAN_CHUNK_ENTRIES", 5 * 4)
    got = _orbit_indices(np.zeros((n, 2, 2), dtype=np.int64), p, a)
    assert len(got) == linalg.scan_size(p, n, a) == (p**n - 1) // (p**a - 1)
    assert got == [i for k in range(0, n, a) for i in range(p**k, 2 * p**k)]


def _counting_ranks(monkeypatch):
    ranked = []
    batch_rank = linalg.batch_rank

    def counted(mats, p):
        ranked.append(len(mats))
        return batch_rank(mats, p)

    monkeypatch.setattr(linalg, "batch_rank", counted)
    return ranked


def _scan_of_every_index(basis, p, threshold):
    """(first index ranked below threshold or None, minimum rank up to it)
    from the rank of every nonzero member, in index order."""
    n = len(basis)
    ranks = linalg.batch_rank(linalg.family_members(basis, np.arange(1, p**n), p), p)
    bad = next((i for i, r in enumerate(ranks, 1) if r < threshold), None)
    return bad, int(min(ranks[: bad if bad else len(ranks)]))


def _linearised_family(p, m, a):
    """Members y -> x1 y + x2 y^(p^a) on F_(p^m), for (x1, x2) in F_(p^m)^2
    (digits: the F_p-coordinates of x1, then of x2), and the subfield
    F_(p^a) acting by (x1, x2) -> (c x1, c x2): each such map is
    F_(p^a)-linear, member(c x) = c member(x), and its F_p-rank is m or
    m - a."""
    ctx = finite_ctx(p, m)
    frob = np.array([ctx.frobenius(b, a).coeffs for b in ctx.basis]).T
    mults = [ctx.mult_matrix(b) for b in ctx.basis]
    basis = np.array(mults + [M @ frob % p for M in mults])
    zero = np.zeros((m, m), dtype=np.int64)
    field = [
        np.block([[ctx.mult_matrix(c), zero], [zero, ctx.mult_matrix(c)]])
        for c in ctx.fixed_basis(a)
    ]
    return basis, field


@pytest.mark.parametrize("p, m, a", [(2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 4, 2)])
def test_orbit_scan_matches_a_scan_of_every_index(monkeypatch, p, m, a):
    basis, field = _linearised_family(p, m, a)
    n = 2 * m
    for threshold in (m - a, m - a + 1, m):
        want = _scan_of_every_index(basis, p, threshold)
        ranked = _counting_ranks(monkeypatch)
        got = linalg.rank_scan(basis, p, threshold, field=field)
        assert got == want
        if got[0] is None:
            # the field check, then one member per F_(p^a)^* orbit
            assert sum(ranked) == linalg.scan_size(p, a) + linalg.scan_size(p, n, a)
        assert got == linalg.rank_scan(basis, p, threshold)
        monkeypatch.undo()
    # both verdicts occur: ranks are m and m - a
    assert linalg.rank_scan(basis, p, m - a, field=field) == (None, m - a)
    assert linalg.rank_scan(basis, p, m - a + 1, field=field)[0] is not None


def test_spot_checks_see_indices_of_the_unchanged_basis(monkeypatch):
    # decoding a checked index with the caller's basis gives the ranked member
    monkeypatch.setattr(linalg, "SPOT_CHECK_EVERY", 5)
    p = 3
    basis, field = _linearised_family(p, 4, 2)
    seen = []

    def check(idx, mat, rank):
        seen.append(idx)
        member = linalg.family_members(basis, [idx], p)[0]
        return np.array_equal(member % p, mat % p) and rank == linalg.np_rank(mat, p)

    assert linalg.rank_scan(basis, p, 2, check=check, field=field) == (None, 2)
    assert len(seen) == -(-linalg.scan_size(p, 8, 2) // 5)


def test_a_nucleus_that_is_not_a_field_falls_back_to_fp_orbits(monkeypatch):
    # M_2(F_3) acting on the left of the 2 x 4 matrices [X1 | X2] (all of
    # them, the unit matrices as basis): rank(G X) <= rank(X), but singular
    # G exist, so the scan is that of F_3^* orbits
    p = 3
    units = np.eye(8, dtype=np.int64).reshape(8, 2, 4)
    eye4 = np.eye(4, dtype=np.int64)
    field = [np.kron(g.reshape(2, 2), eye4) for g in eye4]
    assert linalg.rank_scan(units, p, 2, field=field) == (1, 1)
    assert _scan_of_every_index(units, p, 2) == (1, 1)
    ranked = _counting_ranks(monkeypatch)
    assert linalg.rank_scan(units, p, 1, field=field) == (None, 1)
    # the field check stops at its first singular member; then every F_3^*
    # orbit is ranked
    plain = linalg.scan_size(p, 8)
    assert plain < sum(ranked) < plain + linalg.scan_size(p, 4)


def test_a_span_not_closed_under_products_falls_back(monkeypatch):
    # C, the companion matrix of y^3 + y + 1 over F_2, has no eigenvalue, so
    # every nonzero a I + b C is invertible; but C^2 is not in their span
    C = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    field = [np.kron(np.eye(2, dtype=np.int64), C)]
    basis = np.eye(6, dtype=np.int64).reshape(6, 2, 3)
    ranked = _counting_ranks(monkeypatch)
    assert linalg.rank_scan(basis, 2, 1, field=field) == (None, 1)
    assert sum(ranked) == linalg.scan_size(2, 2) + linalg.scan_size(2, 6)


def test_the_rerun_is_counted_against_the_budget(monkeypatch):
    # members L_(x0 + x1) for (x0, x1) in F_4^2, F_4 acting on both: the
    # only deficient orbit is F_4^* (1, 1).  The field check (3 ranks) and
    # the representatives (indices 1 and 4..7) fit a budget of 8; the
    # deficient representative 5 sends the scan back to the F_2^* orbits,
    # whose first deficient index is 5 after 7 more ranks
    ctx = finite_ctx(2, 2)
    mults = [ctx.mult_matrix(b) for b in ctx.basis]
    basis = np.array(mults * 2)
    zero = np.zeros((2, 2), dtype=np.int64)
    field = [np.block([[c, zero], [zero, c]]) for c in mults]
    ranked = _counting_ranks(monkeypatch)
    assert linalg.rank_scan(basis, 2, 2, field=field) == (5, 0)
    assert ranked == [1, 2, 1, 4, 1, 2, 4]
    up_front = linalg.scan_size(2, 2) + linalg.scan_size(2, 4, 2)
    assert up_front == 8
    with pytest.raises(linalg.BudgetExceeded, match="budget"):
        linalg.rank_scan(basis, 2, 2, budget=up_front, field=field)
    with pytest.raises(linalg.BudgetExceeded, match="budget"):
        linalg.rank_scan(basis, 2, 2, budget=14, field=field)
    assert linalg.rank_scan(basis, 2, 2, budget=15, field=field) == (5, 0)
    with pytest.raises(linalg.BudgetExceeded, match="8 ranks exceed the scan budget 7"):
        linalg.rank_scan(basis, 2, 2, budget=up_front - 1, field=field)


# ------------------------------------------------ ranks over F_(p^a) -------


def _expansion(field, mats):
    """The F_p-matrices of index matrices over field: entry x becomes the
    a x a matrix of y -> x y."""
    blocks = [
        np.array([(field.elem_from_index(x) * b).coeffs for b in field.basis]).T
        for x in range(field.order)
    ]
    return np.array([np.block([[blocks[x] for x in row] for row in m]) for m in mats])


def _index_stack(field, rng, rows, cols):
    """Index matrices over field: a zero matrix, random ones, rank-one
    outer products, upper-triangular ones (zeros below each pivot), and
    ones with a repeated row or a zero column."""
    q = field.order
    elems = [field.elem_from_index(i) for i in range(q)]
    mats = [np.zeros((rows, cols), dtype=np.int64)]
    mats += [rng.integers(0, q, size=(rows, cols)) for _ in range(6)]
    for _ in range(3):
        u, v = rng.integers(0, q, rows), rng.integers(1, q, cols)
        mats.append(np.array([[(elems[x] * elems[y]).i for y in v] for x in u]))
    mats += [np.triu(rng.integers(1, q, size=(rows, cols))) for _ in range(3)]
    repeated, zero_col = rng.integers(0, q, size=(2, rows, cols))
    repeated[-1] = repeated[0]
    zero_col[:, 0] = 0
    return np.array(mats + [repeated, zero_col])


@pytest.mark.parametrize(
    "p, a", [(2, 2), (2, 4), (2, 8), (3, 2), (5, 2), (3, 4), (3, 8)],
    ids=["F_4", "F_16", "F_256", "F_9", "F_25", "F_81", "F_3^8"],
)
def test_batch_rank_over_equals_rref_and_the_fp_expansion(p, a):
    # XOR sums in characteristic 2, Zech sums otherwise; two references:
    # elimination over FFElem entries, and the F_p-rank of the expansion
    # divided by a
    field = GFCtx(p, a)
    rng = np.random.default_rng(p * 100 + a)
    seen = set()
    for rows, cols in ((4, 4), (3, 5), (5, 2), (1, 3), (6, 6)):
        mats = _index_stack(field, rng, rows, cols)
        got = linalg.batch_rank_over(mats, field)
        rref = [
            len(linalg.rref([[field.elem_from_index(int(x)) for x in r] for r in m])[1])
            for m in mats
        ]
        assert got.tolist() == rref
        fp = linalg.batch_rank(_expansion(field, mats), p)
        assert not (fp % a).any() and (fp // a).tolist() == rref
        seen.update(r == min(rows, cols) for r in rref)
        assert got[0] == 0
    assert seen == {True, False}  # full-rank and deficient members both occur


def test_member_ranks_reads_entries_from_blocks_of_coordinates():
    # a member over F_9 given as F_3-coordinate blocks (most significant
    # first) ranks like its index matrix
    field = GFCtx(3, 2)
    rng = np.random.default_rng(5)
    mats = _index_stack(field, rng, 3, 3)
    coords = np.array([
        [[c for x in row for c in field.elem_from_index(int(x)).coeffs]
         for row in m.T]
        for m in mats
    ]).transpose(0, 2, 1)
    assert coords.shape == (len(mats), 6, 3)
    want = linalg.batch_rank_over(mats, field)
    assert (linalg.member_ranks(coords, 3, field) == want).all()
    assert (linalg.member_ranks(coords + 3, 3, field) == want).all()


def test_chunks_over_a_field_end_where_those_of_the_expansion_do(monkeypatch):
    # a member of N = 2 columns over F_9 stands for a 4 x 4 F_3-matrix:
    # the scan over F_9 hands its kernel the chunks of the F_3 scan of the
    # expansion, and both scans agree
    monkeypatch.setattr(linalg, "SCAN_CHUNK_ENTRIES", 5 * 16)
    field = GFCtx(3, 2)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 9, size=(4, 2, 2))
    exp = _expansion(field, idx)
    basis = exp[:, :, ::2]  # column j*a: the entries of column j
    chunks = record_chunks(monkeypatch)
    for threshold in (1, 2):
        over = linalg.rank_scan(basis, 3, threshold, unit=1, over=field)
        on_field = list(chunks)
        chunks.clear()
        plain = linalg.rank_scan(exp, 3, threshold, unit=2)
        assert over == plain
        assert [(field, n) for _, n in chunks] == on_field
        chunks.clear()


def test_a_family_whose_indices_overflow_int64_is_refused(monkeypatch):
    # p = 2^31 - 1 and 3 members: indices up to p^3 - 1 > 2^63 - 1, inside a
    # budget of 10^30; refused before any chunk, naming the index range
    p = 2**31 - 1
    basis = np.array([np.eye(2, dtype=np.int64) * (j + 1) for j in range(3)])
    ranked = _counting_ranks(monkeypatch)
    with pytest.raises(linalg.BudgetExceeded, match=rf"0 to {p}\^3 - 1 exceed"):
        linalg.rank_scan(basis, p, 2, budget=10**30)
    with pytest.raises(linalg.BudgetExceeded, match="int64"):
        linalg.first_invertible(basis, p, budget=10**30)
    assert ranked == []
