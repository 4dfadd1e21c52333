"""Quotient ring R_F: reduction, rank, eigenrings, matrix images."""

import random

import numpy as np
import pytest

from skewlab.fields import AutMap, FiniteFieldCtx, FunctionFieldCtx, norm_to_fixed
from skewlab.quotient import (
    QuotCtx,
    eigenring,
    linearized_rank,
    matrix_image,
    matrix_rank,
    rank,
)
from skewlab.skewpoly import (
    CentralPoly,
    SkewPoly,
    bound,
    right_mod,
)

from helpers import (
    base_field_elems,
    finite_ctx,
    irreducible_quadratic,
    random_skew,
    y_minus_one,
)


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
    assert not q.reduce(q.F_skew)
    assert q.reduce(x * x * x).rep == SkewPoly.one(ctx)
    assert q.reduce(x * x * x * x).rep == x
    a = random_skew(ctx, 5, random.Random(0))
    assert q.reduce(q.reduce(a).rep) == q.reduce(a)


def test_rank_examples():
    q = quot_f8()
    ctx = q.ctx
    x = SkewPoly.x(ctx)
    assert rank(q.reduce(SkewPoly.one(ctx))) == q.m
    assert rank(q.reduce(x + SkewPoly.one(ctx))) == 2
    assert rank(q.reduce(SkewPoly.zero(ctx))) == 0
    qf = quot_funcfield()
    assert rank(qf.reduce(qf.f)) == qf.m - 1 == 2
    assert rank(qf.reduce(SkewPoly.one(qf.ctx))) == qf.m


def test_distinguished_divisor_properties():
    ctx = finite_ctx(3, 1 * 4)
    q = QuotCtx(ctx, y_minus_one(ctx))
    assert q.f.is_monic() and q.f.degree == q.s * q.ell
    assert not right_mod(q.F_skew, q.f)
    assert q.ell == 1 and q.m == 4


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
    assert eb.dimension == 1
    assert eb.basis[0] == SkewPoly.one(q.ctx)


def test_eigenring_s2_closure_and_field():
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, irreducible_quadratic(ctx))
    eb = eigenring(q)
    assert eb.dimension == 2
    # the K-span of the basis is closed under the mod-f product and has no
    # zero divisors (it is the field F_{q^s})
    span = []
    for c0 in range(3):
        for c1 in range(3):
            g = eb.basis[0].scale_left(ctx.from_int(c0)) + eb.basis[1].scale_left(
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
    assert eb.dimension == 4  # s * ell^2
    for g in eb.basis:
        assert not right_mod(qf.f * g, qf.f)


def test_matrix_image_identity_and_welldefined():
    q = quot_f8()
    ctx = q.ctx
    one = q.reduce(SkewPoly.one(ctx))
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
    m1 = matrix_image(q.reduce(a))
    m2 = matrix_image(q.reduce(a + q.F_skew * h))
    assert all(m1[i][j] == m2[i][j] for i in range(q.m) for j in range(q.m))


def test_matrix_image_rank_example():
    q = quot_f8()
    ctx = q.ctx
    a = q.reduce(SkewPoly.x(ctx) + SkewPoly.one(ctx))
    entries = matrix_image(a)
    assert matrix_rank(entries) == 2 == rank(a)


def test_matrix_image_is_ring_hom():
    q = quot_f8()
    ctx = q.ctx
    rng = random.Random(2)

    def rand_q():
        return q.reduce(random_skew(ctx, 2, rng))

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
                    a = q.reduce(random_skew(ctx, n * s - 1, rng))
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
        a = q.reduce(random_skew(ctx, 2, rng, nonzero=True))
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
    assert eb.dimension == 2
    rng = random.Random(6)
    for _ in range(20):
        a = q.reduce(random_skew(ctx, 3, rng))
        assert rank(a) == matrix_rank(matrix_image(a))


def test_funcfield_g_side_quotient():
    # the ell = 1 function-field quotient: m = 2r, ranks through gcrd only
    from skewlab.fields import FunctionFieldCtx

    ff = FunctionFieldCtx(3)
    x = SkewPoly.x(ff)
    g = x * x + SkewPoly.constant(ff, ff.one / ff.t)
    q = QuotCtx(ff, bound(g).F, f=g, irreducible_certified=True)
    assert q.ell == 1 and q.m == 6 and q.s == 2
    assert rank(q.reduce(SkewPoly.one(ff))) == 6
    assert rank(q.reduce(g)) == 5
    with pytest.raises(Exception):
        matrix_image(q.reduce(SkewPoly.one(ff)))


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
        a = q.reduce(SkewPoly(ctx, [ctx.elem_from_index(d) for d in digits]))
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
