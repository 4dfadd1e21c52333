"""The batched rank scan against per-matrix elimination."""

import numpy as np
import pytest

from skewlab import linalg


@pytest.mark.parametrize("p", [2, 3, 5, 13, 251])
def test_batch_rank_equals_np_rank(p):
    # random stacks, rectangular and low-rank ones included; p = 13 and 251
    # take the int16 and int32 elimination dtypes
    rng = np.random.default_rng(p)
    for rows, cols in ((4, 4), (3, 6), (7, 2), (9, 9)):
        mats = rng.integers(0, p, size=(60, rows, cols))
        col = rng.integers(0, p, size=(60, rows, 1))
        mats[::3] = (col @ rng.integers(0, p, size=(60, 1, cols)))[::3]
        got = linalg.batch_rank(mats, p)
        assert got.tolist() == [linalg.np_rank(m, p) for m in mats]


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
