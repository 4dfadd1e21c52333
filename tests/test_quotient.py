"""Quotient ring R_F: reduction, rank, the full-rank certificate over
F_(2^r)(t), eigenrings, matrix images."""

import random
from functools import partial

import numpy as np
import pytest

from skewlab import codes
from skewlab.codes import (
    code_spec_from_dict,
    d_codeword,
    random_codeword,
    validate,
    verify_mrd,
)
from skewlab.fields import AutMap, FiniteFieldCtx, FunctionFieldCtx, norm_to_fixed
from skewlab.linalg import BudgetExceeded, rref
from skewlab.polyring import Poly
from skewlab.quotient import (
    CERTIFICATE_POINTS,
    EigenElem,
    QuotCtx,
    Specialisation,
    eigenring,
    full_rank_certified,
    matrix_image,
    matrix_rank,
    rank,
)
from skewlab.semifields import StarDSpec, StarSPrimeSpec, algebra_for_star
from skewlab.skewpoly import (
    CentralPoly,
    SkewPoly,
    bound,
    right_divides,
    right_mod,
    skew_to_literal,
)

from helpers import (
    base_field_elems,
    evaluate_at,
    full_rank_certified_oracle,
    finite_ctx,
    irreducible_quadratic,
    linearized_rank,
    product_table_constants,
    random_skew,
    residue,
    y_minus_one,
)
from test_golden import CASES, E2, FF8
from test_semifields import ORACLE_CASES


def quot_f8():
    ctx = finite_ctx(2, 3)
    return QuotCtx(ctx, y_minus_one(ctx))


def quot_funcfield(r=3):
    ff = FunctionFieldCtx(r)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    f = x * x + SkewPoly.constant(ff, f0)
    return QuotCtx(ff, bound(f).F, f=f, irreducible_certified=True)


def test_reduce_examples():
    q = quot_f8()
    ctx = q.ctx
    x = SkewPoly.x(ctx)
    assert not residue(q, q.F_skew)
    assert residue(q, x * x * x).rep == SkewPoly.one(ctx)
    assert residue(q, x * x * x * x).rep == x
    a = random_skew(ctx, 5, random.Random(0))
    assert residue(q, residue(q, a).rep) == residue(q, a)


def test_rank_examples():
    q = quot_f8()
    ctx = q.ctx
    x = SkewPoly.x(ctx)
    assert rank(residue(q, SkewPoly.one(ctx))) == q.m
    assert rank(residue(q, x + SkewPoly.one(ctx))) == 2
    assert rank(residue(q, SkewPoly.zero(ctx))) == 0
    qf = quot_funcfield()
    assert rank(residue(qf, qf.f)) == qf.m - 1 == 2
    assert rank(residue(qf, SkewPoly.one(qf.ctx))) == qf.m


def test_distinguished_divisor_properties():
    ctx = finite_ctx(3, 1 * 4)
    q = QuotCtx(ctx, y_minus_one(ctx))
    assert q.f.is_monic() and q.f.degree == q.s * q.ell
    assert not right_mod(q.F_skew, q.f)
    assert q.ell == 1 and q.m == 4


@pytest.mark.parametrize("s", [1, 2])
def test_divisor_search_is_budgeted(s):
    ctx = finite_ctx(3, 4)
    F = y_minus_one(ctx) if s == 1 else irreducible_quadratic(ctx)
    f = QuotCtx(ctx, F).f
    # the candidate index of f: its lower coefficients as base-order digits,
    # each element as the base-p digits of its coordinates
    index = 0
    for c in f.coeffs[:-1]:
        index = index * ctx.order + int("".join(map(str, c.coeffs)), ctx.p)
    assert index > 0
    with pytest.raises(BudgetExceeded):
        QuotCtx(ctx, F, budget=index)
    assert QuotCtx(ctx, F, budget=index + 1).f == f


def test_quotctx_rejects_bad_F():
    ctx = finite_ctx(2, 3)
    with pytest.raises(ValueError):
        QuotCtx(ctx, CentralPoly.from_coeffs(ctx, [ctx.zero, ctx.one]))  # F = y
    with pytest.raises(ValueError):
        # y^2 - 1 = (y-1)(y+1) is reducible
        QuotCtx(ctx, CentralPoly.from_coeffs(ctx, [ctx.one, ctx.zero, ctx.one]))
    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    f = x * x + SkewPoly.constant(ff, f0)
    with pytest.raises(ValueError):
        QuotCtx(ff, bound(f).F, f=f)  # missing certification


def test_eigenring_f8():
    q = quot_f8()
    eb = eigenring(q)
    assert len(eb) == 1
    assert eb[0] == SkewPoly.one(q.ctx)


def test_eigenring_s2_closure_and_field():
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, irreducible_quadratic(ctx))
    eb = eigenring(q)
    assert len(eb) == 2
    # the K-span of the basis is closed under the mod-f product and has no
    # zero divisors (it is the field F_{q^s})
    span = []
    for c0 in range(3):
        for c1 in range(3):
            g = eb[0].scale_left(ctx.from_int(c0)) + eb[1].scale_left(
                ctx.from_int(c1)
            )
            span.append(g)
    span_set = set(span)
    for g in span:
        for h in span:
            prod = right_mod(g * h, q.f)
            assert prod in span_set
            if g and h:
                assert prod


def test_eigenring_funcfield_dimension():
    qf = quot_funcfield()
    eb = eigenring(qf)
    assert len(eb) == 4  # s * ell^2
    for g in eb:
        assert not right_mod(qf.f * g, qf.f)


@pytest.mark.parametrize(
    "make",
    [
        # the verify_d_e2 tower: K = F_9 inside L = F_81, F = y^2 + 2w^10
        lambda: code_spec_from_dict({**E2, "family": "D", "k": 1, "gamma": "w^2"}).qctx,
        lambda: quot_funcfield(5),
    ],
    ids=["e2", "F32(t)"],
)
def test_eigenring_has_dimension_s_ell_squared_over_K(make):
    q = make()
    ctx, f = q.ctx, q.f
    eb = eigenring(q)
    assert len(eb) == q.s * q.ell**2
    for g in eb:
        assert g.degree < f.degree and not right_mod(f * g, f)
    # the members are K-independent: their K-coordinates have full rank
    coords = [
        [c for j in range(f.degree) for c in ctx.coords_over_K(g[j])]
        for g in eb
    ]
    assert len(rref(coords)[1]) == len(eb)


def test_matrix_image_identity_and_welldefined():
    q = quot_f8()
    ctx = q.ctx
    one = residue(q, SkewPoly.one(ctx))
    mi = matrix_image(one)
    for i in range(q.m):
        for j in range(q.m):
            assert bool(mi[i][j]) == (i == j)
            if i == j:
                assert mi[i][j].rep == SkewPoly.one(ctx)
    # a and a + F(x^n) h give the same matrix
    rng = random.Random(1)
    a = random_skew(ctx, 2, rng)
    h = random_skew(ctx, 2, rng)
    m1 = matrix_image(residue(q, a))
    m2 = matrix_image(residue(q, a + q.F_skew * h))
    assert all(m1[i][j] == m2[i][j] for i in range(q.m) for j in range(q.m))


def test_matrix_image_rank_example():
    q = quot_f8()
    ctx = q.ctx
    a = residue(q, SkewPoly.x(ctx) + SkewPoly.one(ctx))
    entries = matrix_image(a)
    assert matrix_rank(entries) == 2 == rank(a)


def test_matrix_image_is_ring_hom():
    q = quot_f8()
    ctx = q.ctx
    rng = random.Random(2)

    def rand_q():
        return residue(q, random_skew(ctx, 2, rng))

    m = q.m
    for _ in range(10):
        u, v = rand_q(), rand_q()
        A, B = matrix_image(u), matrix_image(v)
        S = matrix_image(u + v)
        P = matrix_image(u * v)
        for i in range(m):
            for j in range(m):
                assert S[i][j] == A[i][j] + B[i][j]
                acc = A[i][0] * B[0][j]
                for k in range(1, m):
                    acc = acc + A[i][k] * B[k][j]
                assert P[i][j] == acc


def test_rank_oracles_agree():
    rng = random.Random(3)
    for p in (2, 3):
        for n in (2, 3, 4):
            ctx = finite_ctx(p, n)
            for s in (1, 2):
                F = y_minus_one(ctx) if s == 1 else irreducible_quadratic(ctx)
                q = QuotCtx(ctx, F)
                for _ in range(20):
                    a = residue(q, random_skew(ctx, n * s - 1, rng))
                    r = rank(a)
                    assert r == matrix_rank(matrix_image(a))
                    if s == 1:
                        assert r == linearized_rank(a)


def test_rank_full_iff_invertible():
    q = quot_f8()
    ctx = q.ctx
    rng = random.Random(4)
    from skewlab.skewpoly import gcrd

    for _ in range(20):
        a = residue(q, random_skew(ctx, 2, rng, nonzero=True))
        full = rank(a) == q.m
        assert full == (gcrd(a.rep, q.F_skew).degree == 0)
        entries = matrix_image(a)
        assert full == (matrix_rank(entries) == q.m)


def test_tower_e2_quotient_and_eigenring_extraction():
    # K = F_4 inside L = F_16: exercises the K-basis expansion in the
    # eigenring extraction and the matrix images over a non-prime K
    from skewlab.fields import FiniteFieldCtx
    from skewlab.skewpoly import central_is_irreducible

    ctx = FiniteFieldCtx(2, 2, 2)
    F2 = None
    for i in range(1, ctx.q**2):
        c0 = sum(
            (ctx.from_int((i >> b) & 1) * kb for b, kb in enumerate(ctx.k_basis)),
            ctx.zero,
        )
        for j in range(ctx.q**2):
            c1 = sum(
                (
                    ctx.from_int((j >> b) & 1) * kb
                    for b, kb in enumerate(ctx.k_basis)
                ),
                ctx.zero,
            )
            cand = CentralPoly.from_coeffs(ctx, [c0, c1, ctx.one])
            if central_is_irreducible(cand):
                F2 = cand
                break
        if F2 is not None:
            break
    q = QuotCtx(ctx, F2)
    assert q.s == 2 and q.ell == 1 and q.m == 2
    eb = eigenring(q)
    assert len(eb) == 2
    rng = random.Random(6)
    for _ in range(20):
        a = residue(q, random_skew(ctx, 3, rng))
        assert rank(a) == matrix_rank(matrix_image(a))


def quot_funcfield_g_side():
    ff = FunctionFieldCtx(3)
    x = SkewPoly.x(ff)
    g = x * x + SkewPoly.constant(ff, ff.one / ff.t)
    return QuotCtx(ff, bound(g).F, f=g, irreducible_certified=True)


def test_funcfield_g_side_quotient():
    # the ell = 1 function-field quotient: m = 2r, ranks through gcrd only
    q = quot_funcfield_g_side()
    ff, g = q.ctx, q.f
    assert q.ell == 1 and q.m == 6 and q.s == 2
    assert rank(residue(q, SkewPoly.one(ff))) == 6
    assert rank(residue(q, g)) == 5
    with pytest.raises(Exception):
        matrix_image(residue(q, SkewPoly.one(ff)))


def test_rank_lower_bound_and_norm_ratio():
    # every nonzero word of degree <= s*k*l has rank >= m-k; equality forces
    # deg = skl and the norm ratio identity
    q = quot_f8()
    ctx = q.ctx
    k = 1
    skl = q.s * q.ell * k
    sigma = AutMap.sigma_power(ctx, 1)
    sign_exp = skl * (ctx.n - 1)
    sign = ctx.minus_one if sign_exp % 2 else ctx.one
    target = sign * q.F.F0 ** (k * q.ell)
    for idx in range(1, ctx.order ** (skl + 1)):
        digits = []
        v = idx
        for _ in range(skl + 1):
            digits.append(v % ctx.order)
            v //= ctx.order
        a = residue(q, SkewPoly(ctx, [ctx.elem_from_index(d) for d in digits]))
        if not a.rep:
            continue
        r = rank(a)
        assert r >= q.m - k
        if r == q.m - k:
            assert a.rep.degree == skl
            ratio = norm_to_fixed(a.rep[0], sigma) / norm_to_fixed(
                a.rep[skl], sigma
            )
            assert ratio == target


# ------------------------------------------ beyond e = 1, sigma_exp = 1 ----

TOWERS = [(2, 2, 2, 1), (2, 2, 3, 2), (3, 1, 4, 3)]


def tower_quotient(p, e, n, sigma_exp, s):
    ctx = FiniteFieldCtx(p, e, n, sigma_exp)
    F = y_minus_one(ctx) if s == 1 else irreducible_quadratic(ctx)
    return QuotCtx(ctx, F)


def test_irreducible_quadratic_over_non_prime_base():
    ctx = FiniteFieldCtx(2, 2, 3, 2)  # K = F_4 inside L = F_64, sigma = a^16
    K = base_field_elems(ctx)
    assert len(set(K)) == ctx.q and all(ctx.is_in_K(c) for c in K)
    F = irreducible_quadratic(ctx)
    assert F.s == 2 and F.is_monic() and F.F0
    assert all(F.poly.evaluate(c) for c in K)  # no root in K
    # e = 1 keeps the integer order of the coefficients
    ctx3 = finite_ctx(3, 4)
    assert irreducible_quadratic(ctx3).poly.coeffs == (
        ctx3.one, ctx3.zero, ctx3.one
    )


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("p,e,n,sigma_exp", TOWERS)
def test_multiplication_matrices_match_direct_products(p, e, n, sigma_exp, s):
    q = tower_quotient(p, e, n, sigma_exp, s)
    assert q.s == s
    alg = q.algebra
    assert alg.dim == n * s * e * n
    rng = random.Random(p * 1000 + e * 100 + n * 10 + s)
    for _ in range(12):
        a = alg.elem_from_index(rng.randrange(alg.order))
        b = alg.elem_from_index(rng.randrange(alg.order))
        va = np.array(alg.to_vec(a))
        vb = np.array(alg.to_vec(b))
        assert tuple(alg.left_mult_matrix(va) @ vb % p) == alg.to_vec(a * b)
        assert tuple(alg.right_mult_matrix(va) @ vb % p) == alg.to_vec(b * a)
    # column j of M_i is e_i e_j, for the products of basis residues
    units = alg.basis()
    mats = alg.left_mult_matrices()
    for i in rng.sample(range(alg.dim), 4):
        for j in rng.sample(range(alg.dim), 4):
            assert tuple(mats[i][:, j]) == alg.to_vec(units[i] * units[j])
    # the residue round trip through the coordinates
    assert all(alg.from_vec(alg.to_vec(u)) == u for u in units)


# every finite R_F a golden code uses: F_81 with F = y - 1 and y^2 + 1,
# the e = 2 tower, the F_256 tower; and the two n = 2 semifield towers
GOLDEN_R_F = {
    "verify_d412", "verify_d_s2_k1", "verify_d_e2",
    "verify_s_unit_off_spanning_words", "semifield_star_d_q3_n2_s2",
    "semifield_star_d_q5_n2_s2",
}


def golden_r_f(name):
    spec = {k: v for k, v in CASES[name][1].items() if k != "semifield"}
    return code_spec_from_dict({**spec, "k": 1}).qctx.algebra


def golden_star(name):
    """The star algebra skewlab verify builds for a semifield golden."""
    spec = {k: v for k, v in CASES[name][1].items() if k != "semifield"}
    code = code_spec_from_dict({**spec, "k": 1})
    if code.family == "S":
        return algebra_for_star(StarSPrimeSpec(code.qctx, code.eta, code.rho))
    return algebra_for_star(StarDSpec(code.qctx, code.gamma, enforce_norm=False))


# R_F of the golden codes, the star algebra of every semifield golden and
# every star algebra of the nuclei oracle (unital and not): all residue
# algebras, whose T comes from left actions
RESIDUE_ALGEBRAS = {name: partial(golden_r_f, name) for name in GOLDEN_R_F}
RESIDUE_ALGEBRAS.update(
    (f"star-{name}", partial(golden_star, name))
    for name, (_, spec, _) in CASES.items()
    if spec is not None and spec.get("semifield")
)
RESIDUE_ALGEBRAS.update(
    (f"oracle-{name}", build)
    for name, build in ORACLE_CASES.items()
    if name.startswith("star")
)


@pytest.mark.parametrize("name", sorted(RESIDUE_ALGEBRAS))
def test_structure_constants_from_x_and_L_equal_the_product_table(name):
    alg = RESIDUE_ALGEBRAS[name]()
    T = alg.structure_constants()
    assert T.shape == (alg.dim,) * 3
    assert np.array_equal(T, product_table_constants(alg))


# ------------------------------------- full-rank certificate over F(t) ----


def _sampled_funcfield_scans():
    """(spec dict, samples, seed) of every sampled F_(2^r)(t) scan in the
    golden reports and the tests, and of invalid-eta/gamma variants."""
    for name, (argv, spec, _) in CASES.items():
        funcfield = spec is not None and spec["field"]["kind"] == "funcfield"
        if funcfield and "sampled" in argv:
            opts = dict(zip(argv[::2], argv[1::2]))
            yield name, spec, int(opts["--samples"]), int(opts["--seed"])
    s, d = {**FF8, "family": "S"}, {**FF8, "family": "D"}
    yield "test_funcfield_s_k1", {**s, "k": 1, "eta": "t"}, 25, 5
    yield "test_funcfield_s_k2", {**s, "k": 2, "eta": "t"}, 25, 5
    yield "test_funcfield_d_k1", {**d, "k": 1, "gamma": "t+1"}, 20, 8
    yield "test_verify_funcfield_spec", {**d, "k": 1, "gamma": "t+1"}, 10, 3
    # invalid: eta = 1/f_0 and 1/f_0^2 make N(eta) F_0^(k ell) = 1 (f_0's
    # norm is F_0^2); gamma = 1 lies in L'; gamma = t has a square norm
    yield "invalid_s_k1", {**s, "k": 1, "eta": "(t^2+t+1)/(t^2+1)"}, 10, 1
    yield "invalid_s_k2", {**s, "k": 2, "eta": "(t^4+t^2+1)/(t^4+1)"}, 4, 1
    yield "invalid_d_gamma_1", {**d, "k": 1, "gamma": "1"}, 10, 1
    yield "invalid_d_gamma_t", {**d, "k": 1, "gamma": "t"}, 10, 1


SAMPLED_FUNCFIELD = {name: rest for name, *rest in _sampled_funcfield_scans()}


@pytest.mark.parametrize("name", sorted(SAMPLED_FUNCFIELD))
def test_certified_words_have_gcrd_rank_m(name):
    spec_dict, samples, seed = SAMPLED_FUNCFIELD[name]
    spec = code_spec_from_dict(spec_dict)
    assert validate(spec) == (not name.startswith("invalid"))
    # the words verify_mrd draws for this seed (up to its first counterexample)
    rng = random.Random(seed)
    words = [random_codeword(spec, rng) for _ in range(samples)]
    certified = full_rank_certified(words)
    assert all(rank(w) == spec.qctx.m for w, c in zip(words, certified) if c)
    assert any(certified)


@pytest.mark.parametrize("make", [quot_funcfield, quot_funcfield_g_side])
def test_rank_deficient_words_are_never_certified(make):
    # h*f mod F(x^n) lies in the left ideal R_F f, of rank below m; the
    # s = 2, ell = 1 quotient (m = 6) certifies 12 x 12 matrices
    q = make()
    ctx = q.ctx
    deficient, other = _deficient_and_random_words(q, random.Random(4), 15)
    assert len(deficient) >= 10
    assert not any(full_rank_certified(deficient))
    assert all(rank(w) < q.m for w in deficient)
    assert all(
        rank(w) == q.m for w, c in zip(other, full_rank_certified(other)) if c
    )
    assert full_rank_certified([residue(q, SkewPoly.zero(ctx))]) == [False]
    # over a finite field the caller always ranks by gcrd
    q8 = quot_f8()
    assert full_rank_certified([residue(q8, SkewPoly.one(q8.ctx))]) == [False]


def _deficient_and_random_words(q, rng, count):
    """The nonzero words h*f mod F(x^n) (rank below m) and random words of
    degree <= 3, count draws of each."""
    deficient, other = [], []
    for _ in range(count):
        word = residue(q, random_skew(q.ctx, 3, rng, nonzero=True) * q.f)
        if word:
            deficient.append(word)
        other.append(residue(q, random_skew(q.ctx, 3, rng, nonzero=True)))
    return deficient, other


def test_verify_mrd_ranks_uncertified_words_by_gcrd(monkeypatch):
    # with gamma = 1 in L', f = f_0 + x^2 itself is a codeword of rank m - 1
    spec = code_spec_from_dict(
        {**SAMPLED_FUNCFIELD["test_funcfield_d_k1"][0], "gamma": "1"}
    )
    q = spec.qctx
    ff = q.ctx
    word = d_codeword(spec, q.f[0], ff.one, [q.f[1]])
    assert word.rep == q.f
    monkeypatch.setattr(codes, "random_codeword", lambda _spec, _rng: word)
    rep = verify_mrd(spec, mode="sampled", samples=5, seed=1)
    assert (rep.min_rank, rep.checked, rep.counterexample) == (q.m - 1, 1, word)


def test_verify_mrd_report_is_that_of_a_word_by_word_loop(monkeypatch):
    # a counterexample in the middle of the second chunk (words 16-47): a
    # zero word, then the rank m - 1 word f; the words after it are drawn
    # with their chunk but not reported
    spec_dict, _, seed = SAMPLED_FUNCFIELD["test_funcfield_d_k1"]
    spec = code_spec_from_dict(spec_dict)
    q = spec.qctx
    rng = random.Random(seed)
    words = [random_codeword(spec, rng) for _ in range(40)]
    words[20] = residue(q, SkewPoly.zero(q.ctx))
    words[23] = residue(q, q.f)
    samples = len(words)
    min_rank, checked, counter = None, 0, None
    for word in words:
        if not word.rep:
            continue
        r = rank(word)
        checked += 1
        min_rank = r if min_rank is None else min(min_rank, r)
        if r < q.m - spec.k + 1:
            counter = word
            break
    assert (checked, counter) == (23, words[23])
    drawn = iter(words)
    monkeypatch.setattr(codes, "random_codeword", lambda _spec, _rng: next(drawn))
    rep = verify_mrd(spec, mode="sampled", samples=samples, seed=seed)
    assert rep == codes.MrdReport(
        "D", "sampled", False, min_rank, q.m - spec.k + 1, checked, counter, seed
    )
    assert next(drawn, None) is None


def test_sampled_verify_at_r_9_ranks_by_gcrd_without_a_specialisation():
    # GF(2^18) has no tables: no certificate and no scan for a root there
    q = quot_funcfield(9)
    spec = codes.SCodeSpec(q, 1, q.ctx.t, AutMap.sigma_power(q.ctx, 0))
    rep = verify_mrd(spec, mode="sampled", samples=2, seed=1)
    assert (rep.min_rank, rep.checked, rep.counterexample) == (9, 2, None)
    assert q._special is None


def _degree_over_f2(z):
    d = 1
    while z ** (2**d) != z:
        d += 1
    return d


@pytest.mark.parametrize("r", [3, 5])
def test_certificate_points_lie_outside_gf_2_r(r):
    q = quot_funcfield(r)
    special = Specialisation(q)
    E = special.field
    assert (E.p, E.dim) == (2, 2 * r)
    # the first points of degree 2r in index order: none in GF(2^r)
    want = [
        z for z in map(E.elem_from_index, range(E.order)) if _degree_over_f2(z) == 2 * r
    ][:CERTIFICATE_POINTS]
    assert [point.z for point in special.points] == want
    assert all(z ** (2**r) != z for z in want)
    # embed is a ring map GF(2^r) -> E, so it commutes with evaluation; w
    # goes to the first root of GF(2^r)'s modulus in index order
    cf = q.ctx.coeff_field
    elems = [cf.elem_from_index(i) for i in range(cf.order)]

    def embed(a):
        return E.elem_from_index(int(special.embed[a.i]))

    for a in elems:
        for b in elems[:: max(1, cf.order // 8)]:
            assert embed(a * b) == embed(a) * embed(b)
            assert embed(a + b) == embed(a) + embed(b)
    assert embed(cf.one) == E.one
    roots = (
        z for z in map(E.elem_from_index, range(E.order))
        if not E.combine(cf.modulus, [z**i for i in range(r + 1)])
    )
    assert embed(cf.gen) == next(roots)


def _pole_at(special, q, y):
    """1/m(t), m the minimal polynomial of y in E over GF(2^r): a fraction
    with a pole at y."""
    E, cf = special.field, q.ctx.coeff_field
    back = {int(e): cf.elem_from_index(i) for i, e in enumerate(special.embed)}
    conj = E.frobenius(y, cf.dim)
    m = [y * conj, y + conj, E.one] if conj != y else [y, E.one]
    return q.ctx.one / q.ctx.rat.from_polys(Poly(cf, [back[c.i] for c in m]))


@pytest.mark.parametrize("r", [3, 5, 7])
def test_values_at_a_point_are_frobenius_at_the_twisted_point(r):
    # ev_z(sigma^i(c)) = Frob^k(c(y_i)), y_i = Frob^(-k)(z^((-1)^i)), with
    # the poles of sigma^i(c) at z those of c at y_i
    q = quot_funcfield(r)
    ctx = q.ctx
    special = Specialisation(q)
    E = special.field
    _, exp, _ = E.index_tables()
    rng = random.Random(r)
    for point in special.points:
        z = point.z
        ys = [
            E.frobenius(z if i % 2 == 0 else z.inverse(), -(i % r))
            for i in range(ctx.n)
        ]
        fracs = [ctx.random_elem(rng) for _ in range(4)] + [ctx.zero, ctx.t]
        fracs += [_pole_at(special, q, ys[i]) * ctx.random_elem(rng) for i in (0, 1)]
        V, pole = special.twisted_values(point, fracs)
        assert pole.any() and not pole.all()
        for c, values, poles in zip(fracs, V, pole):
            for i in range(ctx.n):
                direct = evaluate_at(special, ctx.sigma_pow(c, i), z)
                at_y = evaluate_at(special, c, ys[i])
                assert (direct is None) == (at_y is None) == bool(poles[i])
                if direct is not None:
                    assert direct == E.frobenius(at_y, i % r)
                    assert exp[values[i]] == direct.i


def _oracle_words(name):
    """(quotient, words) on which the batch and the oracle are compared."""
    if name.startswith("r"):
        q = quot_funcfield(int(name[1:]))
        rng = random.Random(name)
        count = {"r3": 20, "r5": 8, "r7": 4}[name]
        words = [
            residue(q, random_skew(q.ctx, q.F_skew.degree - 1, rng, nonzero=True))
            for _ in range(count)
        ]
        return q, words + _deficient_and_random_words(q, rng, 2)[0]
    if name == "pole_at_first_point":
        q = quot_funcfield()
        special = Specialisation(q)
        c = _pole_at(special, q, special.points[0].z)
        one = q.ctx.one
        return q, [residue(q, SkewPoly(q.ctx, pair)) for pair in ([c, one], [one, c])]
    make = quot_funcfield if name == "deficient_f_side" else quot_funcfield_g_side
    q = make()
    deficient, other = _deficient_and_random_words(q, random.Random(4), 15)
    return q, deficient + other


@pytest.mark.parametrize(
    "name",
    ["r3", "r5", "r7", "deficient_f_side", "deficient_g_side", "pole_at_first_point"],
)
def test_batched_certificate_equals_the_per_word_oracle(name):
    q, words = _oracle_words(name)
    batch = full_rank_certified(words)
    assert batch == [full_rank_certified_oracle(w) for w in words]
    assert [full_rank_certified([w])[0] for w in words] == batch
    if name == "pole_at_first_point":
        # the first point is skipped, and a later one certifies
        special = q._special
        fracs = [c for w in words for c in w.rep.coeffs]
        assert special.twisted_values(special.points[0], fracs)[1].any()
        assert all(batch)


def test_certificate_builds_no_twisted_fraction(monkeypatch):
    q, words = _oracle_words("r3")
    want = [full_rank_certified_oracle(w) for w in words]

    def refuse(*_args):
        raise AssertionError("FunctionFieldCtx.aut called")

    monkeypatch.setattr(FunctionFieldCtx, "aut", refuse)
    q._special = None
    assert full_rank_certified(words) == want


def test_divisor_search_skips_whole_norm_blocks():
    # F_81 with F = y^2 + 1: the norm filter, tested once per constant
    # coefficient, finds the first right divisor of the unfiltered search,
    # and the budget counts the skipped candidates as tried
    ctx = finite_ctx(3, 4)
    F = CentralPoly.from_coeffs(ctx, [ctx.one, ctx.zero, ctx.one])
    q = QuotCtx(ctx, F)
    index = next(
        i
        for i in range(ctx.order**2)
        if right_divides(
            SkewPoly(ctx, [ctx.elem_from_index(i // ctx.order),
                           ctx.elem_from_index(i % ctx.order), ctx.one]),
            q.F_skew,
        )
    )
    f = SkewPoly(ctx, [ctx.elem_from_index(index // ctx.order),
                       ctx.elem_from_index(index % ctx.order), ctx.one])
    assert q.f == f and index > ctx.order
    for budget in range(1, index + 2):
        if budget <= index:
            with pytest.raises(BudgetExceeded):
                q._find_divisor(budget)
        else:
            assert q._find_divisor(budget) == f


def test_divisor_search_tests_one_norm_per_constant(monkeypatch):
    # the order-3^16 star_D spec: f = x^2 + w^6, whose constant is the
    # third nonzero element in index order, so three norms are computed
    calls = []
    norm = FiniteFieldCtx.norm

    def counted(ctx, a):
        calls.append(a)
        return norm(ctx, a)

    monkeypatch.setattr(FiniteFieldCtx, "norm", counted)
    spec = code_spec_from_dict(
        {"family": "D", "field": {"kind": "finite", "p": 3, "e": 1, "n": 8},
         "F": [1, 0, 1], "k": 1, "gamma": "w"}
    )
    assert skew_to_literal(spec.qctx.f) == "x^2+w^6"
    ctx = spec.qctx.ctx
    assert calls == [ctx.elem_from_index(i) for i in (1, 2, 3)]


def test_divisor_search_counts_the_constants_that_fail_the_norm_test(monkeypatch):
    # over F_(p^2), p = 16777213, with F = y - 1 the first right divisor
    # lies past the first thousand constants, and a search that counted only
    # the constants passing the norm test computed norms for minutes
    calls = []
    norm = FiniteFieldCtx.norm

    def counted(ctx, a):
        calls.append(a)
        return norm(ctx, a)

    monkeypatch.setattr(FiniteFieldCtx, "norm", counted)
    ctx = FiniteFieldCtx(16777213, 1, 2)
    F = CentralPoly.from_coeffs(ctx, [ctx.minus_one, ctx.one])
    for budget in (1, 2, 10, 1000):
        calls.clear()
        with pytest.raises(BudgetExceeded):
            QuotCtx(ctx, F, budget=budget)
        assert len(calls) <= budget


def test_eigen_elem_inverses():
    # E(f) is the field F_(q^s) = F_9: every nonzero K-combination of the
    # eigenring basis has an inverse by the q^s - 2 power
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, irreducible_quadratic(ctx))
    b0, b1 = eigenring(q)
    one = EigenElem(q, SkewPoly.one(ctx))
    seen = set()
    for c0 in range(3):
        for c1 in range(3):
            rep = b0.scale_left(ctx.from_int(c0)) + b1.scale_left(ctx.from_int(c1))
            a = EigenElem(q, rep)
            if not a:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
                continue
            inv = a.inverse()
            assert a * inv == one == inv * a
            seen.add(inv)
    assert len(seen) == 8
