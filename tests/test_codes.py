"""S- and D-family codes: validation, enumeration, MRD scans, idealisers,
centralisers, and the newness arithmetic."""

import itertools
import math
import random
import re

import numpy as np
import pytest

from skewlab import codes, fields, linalg
from skewlab.codes import (
    BudgetExceeded,
    DCodeSpec,
    SCodeSpec,
    _code_kernels,
    _spanning_words,
    code_spec_from_dict,
    codeword_count,
    codeword_from_index,
    d_codeword,
    newness_mrd,
    newness_report,
    newness_semifield,
    nuclear_params,
    rank_family,
    s_codeword,
    validate,
    validate_d,
    validate_s,
    verify_mrd,
)
from skewlab.fields import AutMap, FunctionFieldCtx
from skewlab.quotient import (
    QuotCtx,
    QuotElem,
    rank,
    subspace_action,
    subspace_nuclei,
    vec,
)
from skewlab.skewpoly import CentralPoly, SkewPoly, bound, central_is_irreducible

from helpers import base_field_elems, finite_ctx, irreducible_quadratic, y_minus_one


def all_codewords(spec):
    """Every codeword exactly once, in index order (finite contexts)."""
    return (codeword_from_index(spec, i) for i in range(codeword_count(spec)))


def quot34():
    ctx = finite_ctx(3, 4)
    return QuotCtx(ctx, y_minus_one(ctx))


def test_validate_s_examples():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    # eta = 0 is always valid (Gabidulin-like)
    assert validate_s(SCodeSpec(q, 1, ctx.zero, AutMap(ctx, 0)))
    # q=3, n=4, s=1, k=1, rho=id, eta a generator: N(eta) = -1 != 1
    assert validate_s(SCodeSpec(q, 1, w, AutMap(ctx, 0)))
    # q=2, L=F_8: all norms are trivial, no valid nonzero eta
    ctx8 = finite_ctx(2, 3)
    q8 = QuotCtx(ctx8, y_minus_one(ctx8))
    for i in range(1, ctx8.order):
        eta = ctx8.elem_from_index(i)
        assert not validate_s(SCodeSpec(q8, 1, eta, AutMap(ctx8, 0)))


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
    s2 = SCodeSpec(q, 2, w, AutMap(ctx, 0))
    assert codeword_count(s2) == 3**8
    d1 = DCodeSpec(q, 1, w)
    assert codeword_count(d1) == 81
    words = list(all_codewords(d1))
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
    spec = SCodeSpec(q, 1, ctx.zero, AutMap(ctx, 0))
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
    for samples in (None, 0, -3):
        with pytest.raises(ValueError, match="sample"):
            verify_mrd(spec, mode="sampled", samples=samples, seed=9)


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
    alg = q.algebra
    il = subspace_nuclei(alg, [alg.to_vec(wd) for wd in _spanning_words(d2)]).il
    # Il of the D-code is made of constants: an F_9 inside L
    assert ctx.p ** len(il) == 9 and not il[:, ctx.dim :].any()
    assert nuclear_params(d2).il == 9
    assert not nuclear_params(d2).outside_theorem_range
    s2 = SCodeSpec(q, 2, w, AutMap(ctx, 0))
    assert nuclear_params(s2).il == 81
    s0 = SCodeSpec(q, 2, ctx.zero, AutMap(ctx, 0))
    assert nuclear_params(s0).il == 81
    assert nuclear_params(s0).ir == 81


def test_right_idealiser_composite_fixed_field():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    # rho = sigma^2, skl = 2: Fix(rho^{-1} sigma^{skl}) = Fix(id) = L
    s22 = SCodeSpec(q, 2, w, AutMap.sigma_power(ctx, 2))
    assert validate_s(s22)
    assert nuclear_params(s22).ir == 81
    d2 = DCodeSpec(q, 2, w)
    assert nuclear_params(d2).ir == 9


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
        got = nuclear_params(spec)
        assert not got.outside_theorem_range
        assert got.il == expected
        assert got.ir == expected


def test_centraliser_and_centre():
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    got = nuclear_params(DCodeSpec(q, 2, w))
    assert got.c == 3 and got.z == 3
    # Gabidulin-like code contains the identity; centre = K (k = 2 so that
    # the code reaches past the constants)
    s0 = SCodeSpec(q, 2, ctx.zero, AutMap(ctx, 0))
    got0 = nuclear_params(s0)
    assert got0.c == 3 and got0.z == 3
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
    got2 = nuclear_params(DCodeSpec(q2, 1, gamma))
    assert got2.c == 9 and got2.z == 3


def test_nuclear_params_match_theorem():
    q = quot34()
    np_ = nuclear_params(DCodeSpec(q, 2, q.ctx.gen))
    assert (np_.il, np_.ir, np_.c, np_.z) == (9, 9, 3, 3)
    assert not np_.outside_theorem_range
    # skl = 1 sits outside the closed-form hypotheses but still computes
    part = nuclear_params(DCodeSpec(q, 1, q.ctx.gen))
    assert part.outside_theorem_range and part.il == 9


NO_UNIT_SPEC = {
    "family": "S", "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
    "F": [-1, 1], "k": 1, "eta": "w^3+w^2+1", "rho_exp": 3,
}


def test_nuclear_params_never_rank_codewords(monkeypatch):
    # the normalising unit comes from the spanning words' left
    # multiplications, never from ranking codewords one by one
    import skewlab.codes

    def no_rank(_word):
        raise AssertionError("nuclear_params ranked a codeword")

    monkeypatch.setattr(skewlab.codes, "rank", no_rank)
    q = quot34()
    got = nuclear_params(DCodeSpec(q, 2, q.ctx.gen))
    assert (got.il, got.ir, got.c, got.z) == (9, 9, 3, 3)
    with pytest.raises(ValueError, match="no invertible codeword found; cannot normalise"):
        nuclear_params(code_spec_from_dict(NO_UNIT_SPEC))


def test_scan_and_nuclear_report_share_one_solve_of_the_code_kernels(monkeypatch):
    # D_(4,1,2), verify_d412's spec: the orbit cut of verify_mrd and the
    # report of nuclear_params come from one span and one set of kernels
    from test_golden import CASES

    spec = code_spec_from_dict(CASES["verify_d412"][1])
    solves, fields_given = [], []
    solve, rank_scan = codes.subspace_nuclei, linalg.rank_scan

    def counted(*args):
        solves.append(args)
        return solve(*args)

    def recorded(*args, **kwargs):
        fields_given.append(kwargs["field"])
        return rank_scan(*args, **kwargs)

    monkeypatch.setattr(codes, "subspace_nuclei", counted)
    monkeypatch.setattr(linalg, "rank_scan", recorded)
    assert verify_mrd(spec).witnessed
    got = nuclear_params(spec)
    assert (got.il, got.ir, got.c, got.z) == (9, 9, 3, 3)
    assert len(solves) == 1
    span, kernels = _code_kernels(spec, linalg.DEFAULT_BUDGET)
    assert len(solves) == 1
    alg = spec.qctx.algebra
    assert span == [alg.to_vec(w) for w in _spanning_words(spec)]
    assert alg.p ** len(kernels.il) == got.il
    expected = subspace_action(alg, span, kernels.il)
    assert len(fields_given) == 1 and len(fields_given[0]) == len(expected) == 2
    assert all(np.array_equal(a, b) for a, b in zip(fields_given[0], expected))


def test_idealiser_invariant_under_normalisation():
    # sizes computed on the raw code equal those on u^-1 C, for u the first
    # codeword (in index order) that is a unit
    from skewlab.polyring import ext_gcd
    from skewlab.skewpoly import right_mod

    q = quot34()
    ctx = q.ctx
    spec = DCodeSpec(q, 2, ctx.gen)
    base = nuclear_params(spec)
    u = next(w for w in all_codewords(spec) if w.rep and rank(w) == q.m)
    d, alpha, _ = ext_gcd(u.rep, q.F_skew)
    u_inv = right_mod(alpha.scale_left(d.constant_coeff.inverse()), q.F_skew)
    alg = q.algebra
    normalised = [
        alg.to_vec(QuotElem(q, right_mod(u_inv * wd.rep, q.F_skew)))
        for wd in _spanning_words(spec)
    ]
    sizes = [ctx.p ** len(b) for b in subspace_nuclei(alg, normalised)]
    assert sizes == [base.il, base.ir, base.c, base.z]


def test_eta_zero_is_rho_independent():
    q = quot34()
    ctx = q.ctx
    a = SCodeSpec(q, 1, ctx.zero, AutMap(ctx, 0))
    b = SCodeSpec(q, 1, ctx.zero, AutMap.sigma_power(ctx, 1))
    set_a = {u.rep for u in all_codewords(a)}
    set_b = {u.rep for u in all_codewords(b)}
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
    ours = {u.rep for u in all_codewords(spec)}
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
    # the spanning words span exactly the code: F_p-dimension log_p |C|,
    # every sampled codeword inside, a non-codeword outside
    q = quot34()
    ctx = q.ctx
    w = ctx.gen
    spec = SCodeSpec(q, 2, w, AutMap.sigma_power(ctx, 1))
    slots = ctx.n * q.s
    span = np.array([vec(wd.rep, slots) for wd in _spanning_words(spec)])
    dim = linalg.np_rank(span, ctx.p)
    assert ctx.p**dim == codeword_count(spec)
    rng = random.Random(41)
    for _ in range(10):
        word = codeword_from_index(spec, rng.randrange(codeword_count(spec)))
        v = np.array(vec(word.rep, slots))
        assert linalg.np_rank(np.vstack([span, v]), ctx.p) == dim
    bad = SkewPoly(ctx, (ctx.zero, ctx.zero, ctx.zero, ctx.one))
    v = np.array(vec(bad, slots))
    assert linalg.np_rank(np.vstack([span, v]), ctx.p) == dim + 1


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


def _quoting_d_specs():
    """D-codes whose newness report quotes orders: newness_mrd quotes them
    for s >= 2 and k >= 2, which needs m >= 3; over n = 4 (ell = 1, m = 4)
    with q = 3 (s = 2, 3) and q = 5 (s = 2), k = 2, 3, the first valid
    gamma in index order and the first monic irreducible F(y) with F(0) != 0
    in the order of base_field_elems."""
    for p, s in ((3, 2), (3, 3), (5, 2)):
        ctx = finite_ctx(p, 4)
        K = base_field_elems(ctx)
        F = next(
            F
            for low in itertools.product(K, repeat=s)
            if low[0]
            for F in [CentralPoly.from_coeffs(ctx, [*low, ctx.one])]
            if central_is_irreducible(F)
        )
        q = QuotCtx(ctx, F)
        for k in (2, 3):
            gamma = next(
                g
                for g in map(ctx.elem_from_index, range(1, ctx.order))
                if validate_d(DCodeSpec(q, k, g))
            )
            yield f"D_q{p}_n4_s{s}_k{k}", DCodeSpec(q, k, gamma)


QUOTING_D_SPECS = dict(_quoting_d_specs())


@pytest.mark.parametrize("name", list(QUOTING_D_SPECS))
def test_newness_quotes_the_computed_idealiser_orders(name):
    spec = QUOTING_D_SPECS[name]
    ctx = spec.qctx.ctx
    assert spec.qctx.m == 4
    got = nuclear_params(spec)
    quoted = 0
    for entry in newness_mrd(ctx.p, ctx.e, ctx.n, spec.qctx.s, spec.k):
        for exp in re.findall(r"left idealiser order q\^(\d+)", entry.reason):
            assert got.il == ctx.q ** int(exp)
            quoted += 1
        for exp in re.findall(r"both idealisers q\^(\d+)", entry.reason):
            assert got.il == got.ir == ctx.q ** int(exp)
            quoted += 1
        # the Trombetti-Zhou comparison quotes the centraliser C (the
        # paper's q^s), against the centre q of a TZ code
        for exp in re.findall(r"centraliser order q\^(\d+) != q", entry.reason):
            assert (got.c, got.z) == (ctx.q ** int(exp), ctx.q)
            quoted += 1
    assert quoted >= 2


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
        spec = SCodeSpec(q, k, ff.t, AutMap(ff, 0))
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
    # over L (N x N, unit s*ell) and over F_p (the dN x dN expansion, unit
    # s*ell*d), every word's rank is its gcrd rank
    spec = code_spec_from_dict(d)
    q = spec.qctx
    ctx = q.ctx
    basis, unit, over = rank_family(spec)
    assert over is ctx and unit == q.s * q.ell
    idx = np.arange(1, codeword_count(spec))
    gcrd_ranks = [rank(codeword_from_index(spec, int(i))) for i in idx]
    on_l = linalg.member_ranks(linalg.family_members(basis, idx, ctx.p), ctx.p, ctx)
    assert not (on_l % unit).any()
    assert (on_l // unit).tolist() == gcrd_ranks
    alg = q.algebra
    full = [alg.right_mult_matrix(R[:, 0]) for R in basis]
    fp = linalg.batch_rank(linalg.family_members(full, idx, ctx.p), ctx.p)
    assert (fp // (unit * ctx.dim)).tolist() == gcrd_ranks
    assert not (fp % (unit * ctx.dim)).any()


def _outcome(spec_dict, budget):
    try:
        return verify_mrd(code_spec_from_dict(spec_dict), budget=budget).as_dict()
    except BudgetExceeded as exc:
        return str(exc)


def test_budget_edge_of_the_rerun_is_that_of_the_fp_scan(monkeypatch):
    # gamma = 1: the orbit scan meets a deficient representative and the
    # rerun stops at word 810.  Just below, at and above the least budget
    # that lets the rerun finish, ranking over L gives the outcome of the
    # F_p scan: the same report, or the same BudgetExceeded
    d = {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "1"}
    lo, hi = 1, linalg.DEFAULT_BUDGET
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(_outcome(d, mid), str):
            lo = mid + 1
        else:
            hi = mid
    edge = lo
    assert "ranks past the scan budget" in _outcome(d, edge - 1)
    assert _outcome(d, edge)["checked"] == 810
    on_l = [_outcome(d, b) for b in (edge - 1, edge, edge + 1)]
    monkeypatch.setattr(fields, "TABLE_LIMIT", 80)
    assert rank_family(code_spec_from_dict(d))[2] is None
    assert [_outcome(d, b) for b in (edge - 1, edge, edge + 1)] == on_l


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


# -------------------------------------------- nuclear parameters oracle ----


def nuclear_params_by_definition(spec):
    """(Il, Ir, C, Z) counted over every g in R_F from the definitions:
    Il = #{g : g C <= C}, Ir = #{g : C g <= C}, and for the normalised code
    C' = u^{-1} C (u the first codeword with a left inverse, in index
    order) C = #{g : g c = c g for c in C'} and Z counts those g with
    g C' <= C' as well.  C and Z are None when no codeword is a unit.

    Membership is looked up in the set of all codewords.  The product g*w
    of every g is the F_p-combination, by the coordinates of g, of the
    direct products e_j*w of the unit residues e_j = b x^i; it is enough to
    test the words of an F_p-basis of the code, taken from the codewords
    by rank.  Nothing here uses the structure constants, the spanning
    words or the membership matrix of the code under test.
    """
    q = spec.qctx
    ctx = q.ctx
    p = ctx.p
    slots = q.F_skew.degree
    units = [
        QuotElem(q, SkewPoly.monomial(ctx, b, i))
        for i in range(slots)
        for b in ctx.basis
    ]
    dim = len(units)
    weights = p ** np.arange(dim - 1, -1, -1)
    every_g = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)

    def coords(a):
        return np.array(vec(a.rep, slots), dtype=np.int64)

    def products(mul):
        """Rows vec(mul(g)) for every g, mul being F_p-linear in g."""
        images = np.array([coords(mul(e)) for e in units])
        return every_g @ images % p

    def index_set(elems):
        return np.array(sorted({int(coords(a) @ weights) for a in elems}))

    def all_in(rows, indices):
        return np.isin(rows @ weights, indices)

    code = list(all_codewords(spec))
    basis = []
    for w in code:
        cand = np.array([coords(b) for b in basis + [w]])
        if linalg.np_rank(cand, p) > len(basis):
            basis.append(w)
    code_idx = index_set(code)
    one = coords(QuotElem(q, SkewPoly.one(ctx)))
    il = np.ones(len(every_g), dtype=bool)
    ir = np.ones(len(every_g), dtype=bool)
    for w in basis:
        il &= all_in(products(lambda e: e * w), code_idx)
        ir &= all_in(products(lambda e: w * e), code_idx)
    for u in code:
        left_inverses = np.flatnonzero((products(lambda e: e * u) == one).all(axis=1))
        if left_inverses.size:
            break
    else:
        return int(il.sum()), int(ir.sum()), None, None
    g = every_g[left_inverses[0]]
    u_inv = QuotElem(q, SkewPoly.zero(ctx))
    for c, e in zip(g, units):
        u_inv = u_inv + QuotElem(q, e.rep.scale_left(ctx.from_int(int(c))))
    normalised = [u_inv * w for w in basis]
    normalised_idx = index_set(u_inv * w for w in code)
    cen = np.ones(len(every_g), dtype=bool)
    idl = np.ones(len(every_g), dtype=bool)
    for c in normalised:
        right = products(lambda e: e * c)
        cen &= (right == products(lambda e: c * e)).all(axis=1)
        idl &= all_in(right, normalised_idx)
    return int(il.sum()), int(ir.sum()), int(cen.sum()), int((cen & idl).sum())


def _small_nuclear_specs():
    for p in (2, 3):
        for s in (1, 2):
            ctx = finite_ctx(p, 2)
            F = y_minus_one(ctx) if s == 1 else irreducible_quadratic(ctx)
            q = QuotCtx(ctx, F)
            rho = AutMap.sigma_power(ctx, 1)
            # the first valid eta (over F_4 only eta = 0 is valid)
            s_spec = next(
                spec
                for spec in (
                    SCodeSpec(q, 1, ctx.elem_from_index(i), rho)
                    for i in (*range(1, ctx.order), 0)
                )
                if validate_s(spec)
            )
            yield f"S_q{p}_s{s}", s_spec
            yield f"D_q{p}_s{s}", DCodeSpec(q, 1, ctx.gen)
    # one-sided: Il = 8 but Ir = 16 (eta = 1 is not a valid eta over F_8)
    ctx = finite_ctx(2, 3)
    q = QuotCtx(ctx, y_minus_one(ctx))
    yield "S_q2_n3_k2", SCodeSpec(q, 2, ctx.one, AutMap(ctx, 0))
    # e = 2 towers (K = F_{p^2}, n = 2, skl = 1) with rho the p-Frobenius,
    # which is no power of sigma: the first valid nonzero eta (over F_16
    # only eta = 0 is valid) and the first invalid one; with rho = sigma the
    # first invalid eta over F_81 leaves the code without a unit
    for p in (2, 3):
        ctx = finite_ctx(p, 2, e=2)
        q = QuotCtx(ctx, y_minus_one(ctx))
        frob = AutMap.frobenius_power(ctx, 1)
        specs = [
            SCodeSpec(q, 1, ctx.elem_from_index(i), frob) for i in range(ctx.order)
        ]
        yield f"S_q{p}e2_frob_valid", next(
            (spec for spec in specs[1:] if validate_s(spec)), specs[0]
        )
        yield f"S_q{p}e2_frob_invalid", next(sp for sp in specs if not validate_s(sp))
        yield f"D_q{p}e2_s1", DCodeSpec(q, 1, ctx.gen)
    sigma = AutMap.sigma_power(ctx, 1)
    specs = [SCodeSpec(q, 1, ctx.elem_from_index(i), sigma) for i in range(ctx.order)]
    yield "S_q3e2_sigma_no_unit", next(sp for sp in specs if not validate_s(sp))


NUCLEAR_SPECS = dict(_small_nuclear_specs())


@pytest.mark.parametrize("name", list(NUCLEAR_SPECS))
def test_nuclear_params_match_definitions(name):
    spec = NUCLEAR_SPECS[name]
    assert spec.qctx.algebra.order <= 3**8
    want = nuclear_params_by_definition(spec)
    if want[2] is None:
        with pytest.raises(ValueError, match="no invertible codeword"):
            nuclear_params(spec)
        return
    got = nuclear_params(spec)
    assert (got.il, got.ir, got.c, got.z) == want


# over F_256 with K = F_16 and rho = a^4 (not in Gal(L/K)), every spanning
# word a + eta rho(a) x, a = w^i, is a non-unit, yet 204 of the 255 nonzero
# codewords are units
UNIT_OFF_SPANNING_WORDS = {
    "family": "S", "field": {"kind": "finite", "p": 2, "e": 4, "n": 2},
    "F": ["w^7+w^6+w^5", 1], "k": 1, "eta": "w^5+w^4", "rho_exp": 2,
}


def test_nuclear_params_when_no_spanning_word_is_a_unit():
    spec = code_spec_from_dict(UNIT_OFF_SPANNING_WORDS)
    alg = spec.qctx.algebra
    mults = [alg.left_mult_matrix(alg.to_vec(w)) for w in _spanning_words(spec)]
    assert all(linalg.np_rank(L, alg.p) < alg.dim for L in mults)
    got = nuclear_params(spec)
    assert (got.il, got.ir, got.c, got.z) == nuclear_params_by_definition(spec)
    assert (got.il, got.ir, got.c, got.z) == (4, 4, 16, 4)
    # the search for a unit codeword is counted against the budget
    with pytest.raises(BudgetExceeded):
        nuclear_params(spec, budget=1)


@pytest.mark.parametrize("p,e,n,sigma_exp", [(2, 2, 3, 2), (2, 3, 2, 1), (3, 2, 2, 1)])
def test_norm_k_to_kprime_is_the_frobenius_orbit_product(p, e, n, sigma_exp):
    # N_{K/K'}(c) = prod_{i < e/e'} c^(p^(e' i)), e' = gcd(h, e), for every
    # c in K and every rho = Frob^h
    from skewlab.fields import FiniteFieldCtx

    ctx = FiniteFieldCtx(p, e, n, sigma_exp)
    q = QuotCtx(ctx, y_minus_one(ctx))
    for h in range(ctx.dim):
        spec = SCodeSpec(q, 1, ctx.one, AutMap.frobenius_power(ctx, h))
        ep = math.gcd(h, e)
        for c in base_field_elems(ctx):
            expected = ctx.one
            for i in range(e // ep):
                expected = expected * c ** (p ** (ep * i))
            # validate_s's N_{K/K'}: Gal(K/K') has order |<sigma, rho>| / n
            got = fields.norm_to_fixed(c, spec.kprime, spec.kprime.order() // ctx.n)
            assert got == expected


def test_codeword_decoder_rejects_indices_out_of_range():
    # S_(4,1,2) and D_(4,1,2) both have 6561 words; index 6561 used to
    # decode to the zero word and -1 to a nonzero one
    q = quot34()
    w = q.ctx.gen
    for spec in (SCodeSpec(q, 2, w, AutMap.sigma_power(q.ctx, 1)), DCodeSpec(q, 2, w)):
        count = codeword_count(spec)
        assert count == 6561
        assert not codeword_from_index(spec, 0).rep
        assert codeword_from_index(spec, count - 1).rep
        for idx in (count, -1):
            with pytest.raises(ValueError):
                codeword_from_index(spec, idx)
