"""S- and D-family codes: validation, enumeration, MRD scans, idealisers,
centralisers, and the newness arithmetic."""

import random

import numpy as np
import pytest

from skewlab import linalg
from skewlab.codes import (
    BudgetExceeded,
    DCodeSpec,
    SCodeSpec,
    _membership_matrix,
    _vec,
    centraliser_and_centre,
    code_spec_from_dict,
    codeword_count,
    codeword_from_index,
    d_codeword,
    enumerate_codewords,
    left_idealiser,
    newness_mrd,
    newness_report,
    newness_semifield,
    nuclear_params,
    rank_family,
    right_idealiser,
    s_codeword,
    validate,
    validate_d,
    validate_s,
    verify_mrd,
)
from skewlab.fields import AutMap, FunctionFieldCtx
from skewlab.quotient import QuotCtx, rank
from skewlab.skewpoly import SkewPoly, bound

from helpers import finite_ctx, irreducible_quadratic, y_minus_one


def quot34():
    ctx = finite_ctx(3, 4)
    return QuotCtx(ctx, y_minus_one(ctx))


def test_validate_s_examples():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    # eta = 0 is always valid (Gabidulin-like)
    assert validate_s(SCodeSpec(q, 1, ctx.zero, AutMap.identity(ctx)))
    # q=3, n=4, s=1, k=1, rho=id, eta a generator: N(eta) = -1 != 1
    assert validate_s(SCodeSpec(q, 1, w, AutMap.identity(ctx)))
    # q=2, L=F_8: all norms are trivial, no valid nonzero eta
    ctx8 = finite_ctx(2, 3)
    q8 = QuotCtx(ctx8, y_minus_one(ctx8))
    for i in range(1, ctx8.order):
        eta = ctx8.elem_from_index(i)
        assert not validate_s(SCodeSpec(q8, 1, eta, AutMap.identity(ctx8)))


def test_validate_d_examples():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    spec = DCodeSpec(q, 1, w)
    assert validate_d(spec)
    lp = spec.lprime_basis()
    gamma_in = lp[1]
    assert not validate_d(DCodeSpec(q, 1, gamma_in))
    ctx23 = finite_ctx(2, 3)
    q23 = QuotCtx(ctx23, y_minus_one(ctx23))
    with pytest.raises(ValueError):
        DCodeSpec(q23, 1, ctx23.gen)  # odd n


def test_validate_d_funcfield_gamma():
    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    f = x * x + SkewPoly.constant(ff, f0)
    q = QuotCtx(ff, bound(f).F, f=f, irreducible_certified=True)
    gamma = ff.one + ff.t
    assert validate_d(DCodeSpec(q, 1, gamma))
    assert not validate_d(DCodeSpec(q, 1, ff.s_ff))


def test_codeword_counts_and_uniqueness():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    s2 = SCodeSpec(q, 2, w, AutMap.identity(ctx))
    assert codeword_count(s2) == 3**8
    d1 = DCodeSpec(q, 1, w)
    assert codeword_count(d1) == 81
    words = list(enumerate_codewords(d1))
    assert len(set(words)) == 81
    assert sum(1 for u in words if not u.rep) == 1
    d2 = DCodeSpec(q, 2, w)
    assert codeword_count(d2) == 6561


def test_codeword_shapes():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    spec = SCodeSpec(q, 2, w, AutMap.sigma_power(ctx, 1))
    coeffs = [ctx.gen, ctx.one]
    word = s_codeword(spec, coeffs)
    assert word.rep[0] == ctx.gen
    assert word.rep[2] == w * ctx.sigma(ctx.gen)
    dspec = DCodeSpec(q, 2, w)
    lp = dspec.lprime_basis()
    word = d_codeword(dspec, lp[0], lp[1], [ctx.gen])
    assert word.rep[0] == lp[0]
    assert word.rep[2] == w * lp[1]
    with pytest.raises(ValueError):
        d_codeword(dspec, ctx.gen, lp[0], [ctx.zero])  # a_0' outside L'


def test_verify_mrd_d_family():
    q = quot34()
    w = q.ctx.gen
    rep1 = verify_mrd(DCodeSpec(q, 1, w))
    assert rep1.witnessed and rep1.min_rank == 4 and rep1.checked == 80
    rep2 = verify_mrd(DCodeSpec(q, 2, w))
    assert rep2.witnessed and rep2.min_rank == 3 and rep2.checked == 6560


def test_verify_mrd_gabidulin_like():
    q = quot34()
    ctx = q.ctx
    spec = SCodeSpec(q, 1, ctx.zero, AutMap.identity(ctx))
    rep = verify_mrd(spec)
    assert rep.witnessed and rep.min_rank == 4


def test_verify_mrd_budget_and_sampled():
    q = quot34()
    w = q.ctx.gen
    spec = DCodeSpec(q, 2, w)
    with pytest.raises(BudgetExceeded):
        verify_mrd(spec, budget=100)
    rep = verify_mrd(spec, mode="sampled", samples=50, seed=9, budget=100)
    assert rep.mode == "sampled" and not rep.witnessed
    assert rep.min_rank >= 3 and rep.seed == 9
    with pytest.raises(ValueError):
        verify_mrd(spec, mode="sampled", samples=50)  # missing seed


def test_sufficiency_on_small_instances():
    # every validated spec passes the exhaustive scan (in budget)
    q = quot34()
    ctx = q.ctx
    rng = random.Random(31)
    tried = 0
    for _ in range(40):
        eta = ctx.random_elem(rng)
        spec = SCodeSpec(q, 1, eta, AutMap.sigma_power(ctx, rng.randrange(4)))
        if validate_s(spec):
            tried += 1
            assert verify_mrd(spec).witnessed
        if tried >= 3:
            break
    assert tried >= 1


def test_left_idealiser_sizes():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    d2 = DCodeSpec(q, 2, w)
    li = left_idealiser(d2)
    assert li.size == 9 and li.constant_field_order == 9
    assert not li.outside_theorem_range
    s2 = SCodeSpec(q, 2, w, AutMap.identity(ctx))
    assert left_idealiser(s2).size == 81
    s0 = SCodeSpec(q, 2, ctx.zero, AutMap.identity(ctx))
    assert left_idealiser(s0).size == 81
    assert right_idealiser(s0).size == 81


def test_right_idealiser_composite_fixed_field():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    # rho = sigma^2, skl = 2: Fix(rho^{-1} sigma^{skl}) = Fix(id) = L
    s22 = SCodeSpec(q, 2, w, AutMap.sigma_power(ctx, 2))
    assert validate_s(s22)
    assert right_idealiser(s22).size == 81
    d2 = DCodeSpec(q, 2, w)
    assert right_idealiser(d2).size == 9


def test_s_family_idealisers_match_fixed_field_orders():
    # within the closed-form hypotheses (skl > 2, k <= m/2) the idealisers
    # are Fix(rho) and Fix(rho^-1 sigma^skl); with n = 4, s = 2, k = 2 the
    # composite collapses to Fix(rho^-1)
    ctx = finite_ctx(3, 4)
    q2 = QuotCtx(ctx, irreducible_quadratic(ctx))
    import math

    for h in (0, 1, 2):
        rho = AutMap.frobenius_power(ctx, h)
        eta = next(
            (
                ctx.elem_from_index(i)
                for i in range(1, ctx.order)
                if validate_s(SCodeSpec(q2, 2, ctx.elem_from_index(i), rho))
            ),
            None,
        )
        if eta is None:
            continue
        spec = SCodeSpec(q2, 2, eta, rho)
        expected = 3 ** math.gcd(h, 4) if h else 81
        li = left_idealiser(spec)
        assert not li.outside_theorem_range
        assert li.size == expected
        assert right_idealiser(spec).size == expected


def test_centraliser_and_centre():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    c, z = centraliser_and_centre(DCodeSpec(q, 2, w))
    assert c == 3 and z == 3
    # Gabidulin-like code contains the identity; centre = K (k = 2 so that
    # the code reaches past the constants)
    s0 = SCodeSpec(q, 2, ctx.zero, AutMap.identity(ctx))
    c0, z0 = centraliser_and_centre(s0)
    assert c0 == 3 and z0 == 3
    # s = 2 D-code: centraliser = E_F of order q^s
    ctx2 = finite_ctx(3, 4)
    q2 = QuotCtx(ctx2, irreducible_quadratic(ctx2))
    gamma = None
    for i in range(1, ctx2.order):
        cand = ctx2.elem_from_index(i)
        spec = DCodeSpec(q2, 1, cand)
        if validate_d(spec):
            gamma = cand
            break
    c2, z2 = centraliser_and_centre(DCodeSpec(q2, 1, gamma))
    assert c2 == 9 and z2 == 3


def test_nuclear_params_match_theorem():
    q = quot34()
    np_ = nuclear_params(DCodeSpec(q, 2, q.ctx.gen))
    assert (np_.il, np_.ir, np_.c, np_.z) == (9, 9, 3, 3)
    assert not np_.outside_theorem_range
    # skl = 1 sits outside the closed-form hypotheses but still computes
    part = left_idealiser(DCodeSpec(q, 1, q.ctx.gen))
    assert part.outside_theorem_range and part.size == 9


def test_idealiser_invariant_under_normalisation():
    # sizes computed on the raw code equal those after the identity
    # normalisation used for the centraliser
    from skewlab.codes import _first_invertible, _spanning_words
    from skewlab.quotient import QuotElem
    from skewlab.skewpoly import gcrd_extended, right_mod

    q = quot34()
    ctx = q.ctx
    spec = DCodeSpec(q, 2, ctx.gen)
    base = left_idealiser(spec).size
    u = _first_invertible(spec)
    d, alpha, _ = gcrd_extended(u.rep, q.F_skew)
    u_inv = right_mod(alpha.scale_left(d.constant_coeff.inverse()), q.F_skew)
    normalised = [
        QuotElem(q, right_mod(u_inv * wd.rep, q.F_skew))
        for wd in _spanning_words(spec)
    ]
    # membership matrix of the normalised code: M' = M . L_u
    from skewlab.codes import _left_mult_matrix, _right_mult_matrix
    from skewlab import linalg

    M = _membership_matrix(spec)
    Mp = (M @ _left_mult_matrix(q, u.rep)) % ctx.p
    rows = [(Mp @ _right_mult_matrix(q, wd.rep)) % ctx.p for wd in normalised]
    width = ctx.n * q.s * ctx.dim
    ker = linalg.np_kernel(np.vstack(rows), ctx.p, ncols=width)
    assert ctx.p ** ker.shape[0] == base


def test_eta_zero_is_rho_independent():
    q = quot34()
    ctx = q.ctx
    a = SCodeSpec(q, 1, ctx.zero, AutMap.identity(ctx))
    b = SCodeSpec(q, 1, ctx.zero, AutMap.sigma_power(ctx, 1))
    set_a = {u.rep for u in enumerate_codewords(a)}
    set_b = {u.rep for u in enumerate_codewords(b)}
    assert set_a == set_b


def test_d_family_matches_tz_shape():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    spec = DCodeSpec(q, 2, w)
    lp = spec.lprime_basis()

    def lp_elems():
        out = []
        for c0 in range(3):
            for c1 in range(3):
                out.append(ctx.from_int(c0) * lp[0] + ctx.from_int(c1) * lp[1])
        return out

    tz = set()
    for a0p in lp_elems():
        for a0pp in lp_elems():
            for i in range(ctx.order):
                a1 = ctx.elem_from_index(i)
                word = SkewPoly(ctx, (a0p, a1, w * a0pp))
                tz.add(word)
    ours = {u.rep for u in enumerate_codewords(spec)}
    assert ours == tz


def test_dimension_matches_singleton_equality():
    q = quot34()
    ctx = q.ctx
    spec = DCodeSpec(q, 2, ctx.gen)
    count = codeword_count(spec)
    d = q.m - spec.k + 1
    # |C| = |K'|^(m (m-d+1) [E(f):K']), K' = K = F_q, [E(f):K] = s
    expected = (ctx.q) ** (q.m * (q.m - d + 1) * q.s)
    assert count == expected


def test_membership_matrix_characterises_codewords():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    spec = SCodeSpec(q, 2, w, AutMap.sigma_power(ctx, 1))
    M = _membership_matrix(spec)
    rng = random.Random(41)
    for _ in range(10):
        word = codeword_from_index(spec, rng.randrange(codeword_count(spec)))
        vec = _vec(ctx, word.rep, ctx.n * q.s)
        assert not ((M @ vec) % ctx.p).any()
    # a non-codeword violates it
    bad = SkewPoly(ctx, (ctx.zero, ctx.zero, ctx.zero, ctx.one))
    vec = _vec(ctx, bad, ctx.n * q.s)
    assert ((M @ vec) % ctx.p).any()


def test_newness_acceptance_case():
    entries = {e.family: e for e in newness_mrd(3, 1, 4, 3, 2)}
    assert entries["overall"].verdict == "new"
    for fam in ("Gabidulin-like", "AGTG", "TZ", "S-family"):
        assert entries[fam].verdict == "new"
        assert entries[fam].reason
    sf = {e.family: e for e in newness_semifield(3, 1, 4, 2)}
    assert sf["overall"].verdict == "new"
    for fam in ("PZ", "rank-two", "S-family", "biprojective-S", "GK-unified"):
        assert sf[fam].verdict == "new"


def test_newness_known_and_undecided():
    known = newness_report(3, 1, 4, 1, 1)
    assert known[0].family == "HK" and known[0].verdict == "known"
    tz = newness_report(3, 1, 4, 1, 2)
    assert tz[0].family == "TZ" and tz[0].verdict == "known"
    # n | sk violates the hypotheses: overall undecided
    out = {e.family: e for e in newness_mrd(3, 1, 4, 4, 2)}
    assert out["overall"].verdict == "undecided"


def test_code_spec_from_dict_roundtrip(tmp_path):
    d = {
        "family": "D",
        "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
        "F": [-1, 1],
        "k": 1,
        "gamma": "w",
    }
    spec = code_spec_from_dict(d)
    assert spec.family == "D" and validate(spec)
    s = {
        "family": "S",
        "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
        "F": [-1, 1],
        "k": 2,
        "eta": "w",
        "rho_exp": 1,
    }
    spec_s = code_spec_from_dict(s)
    assert spec_s.family == "S" and validate(spec_s)
    ffd = {
        "family": "D",
        "field": {"kind": "funcfield", "r": 3},
        "F": ["(t^6+t^4+t^2+1)/(t^6+t^5+t^3+t+1)", "1"],
        "k": 1,
        "gamma": "t+1",
        "f": "x^2+(t^2+1)/(t^2+t+1)",
    }
    spec_ff = code_spec_from_dict(ffd)
    assert validate(spec_ff)
    with pytest.raises(ValueError):
        code_spec_from_dict({"family": "Q"})


def test_funcfield_s_family_sampled_mrd():
    # the ell_F = 2 instance: S codes in R_F = M_r(E(f)) over F_{2^r}(t)
    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    f = x * x + SkewPoly.constant(ff, f0)
    q = QuotCtx(ff, bound(f).F, f=f, irreducible_certified=True)
    assert q.ell == 2 and q.m == 3
    for k in (1, 2):
        spec = SCodeSpec(q, k, ff.t, AutMap.identity(ff))
        assert validate_s(spec)
        rep = verify_mrd(spec, mode="sampled", samples=25, seed=5)
        assert rep.counterexample is None
        assert rep.min_rank >= q.m - k + 1


def test_funcfield_d_family_sampled_mrd():
    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    f = x * x + SkewPoly.constant(ff, f0)
    q = QuotCtx(ff, bound(f).F, f=f, irreducible_certified=True)
    spec = DCodeSpec(q, 1, ff.one + ff.t)
    assert validate_d(spec)
    rep = verify_mrd(spec, mode="sampled", samples=20, seed=8)
    assert rep.counterexample is None and rep.min_rank == q.m
    with pytest.raises(Exception):
        codeword_count(spec)  # enumeration refused over an infinite field


F81 = {"kind": "finite", "p": 3, "e": 1, "n": 4}


@pytest.mark.parametrize(
    "d",
    [
        {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "w"},
        {"family": "S", "field": F81, "F": [-1, 1], "k": 2, "eta": "w", "rho_exp": 1},
        {"family": "D", "field": F81, "F": [1, 0, 1], "k": 1, "gamma": "w"},
    ],
    ids=["D412", "S412", "D_s2"],
)
def test_kernel_rank_equals_gcrd_rank_on_every_word(d):
    spec = code_spec_from_dict(d)
    p = spec.qctx.ctx.p
    basis, unit = rank_family(spec)
    idx = np.arange(1, codeword_count(spec))
    fp = linalg.batch_rank(linalg.family_members(basis, idx, p), p)
    assert not (fp % unit).any()
    gcrd_ranks = [rank(codeword_from_index(spec, int(i))) for i in idx]
    assert (fp // unit).tolist() == gcrd_ranks



def test_parallel_scan_matches_sequential():
    # the kernel ranks a chunk of orbit representatives at once; a
    # word-by-word gcrd scan in index order must give the same report, for
    # an MRD gamma and for gamma = 1, which is not MRD
    for gamma in ("w", "1"):
        d = {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": gamma}
        spec = code_spec_from_dict(d)
        par = verify_mrd(spec)
        min_rank, first_bad = None, None
        for i in range(1, codeword_count(spec)):
            r = rank(codeword_from_index(spec, i))
            min_rank = r if min_rank is None else min(min_rank, r)
            if r < par.distance_target:
                first_bad = i
                break
        checked = codeword_count(spec) - 1 if first_bad is None else first_bad
        assert (par.witnessed, par.min_rank, par.checked) == (
            first_bad is None,
            min_rank,
            checked,
        )
    assert (par.witnessed, par.checked, par.min_rank) == (False, 810, 2)
