"""Star products, zero-divisor scans, nuclei, Hughes-Kleinfeld."""

import random

import numpy as np
import pytest

from skewlab.codes import DCodeSpec, SCodeSpec, _membership_matrix, validate_d
from skewlab.fields import AutMap
from skewlab.quotient import QuotCtx, vec
from skewlab import linalg
from skewlab.semifields import (
    AlgebraElem,
    HKParams,
    StarDSpec,
    StarSPrimeSpec,
    StarSSpec,
    algebra_for_field,
    algebra_for_hk,
    algebra_for_star,
    has_two_sided_unit,
    hk_mul,
    nuclei,
    zero_divisor_scan,
)
from skewlab.skewpoly import CentralPoly, SkewPoly

from helpers import finite_ctx, irreducible_quadratic, y_minus_one


def quot_x_minus_one():
    ctx = finite_ctx(3, 4)
    F = y_minus_one(ctx)
    f = SkewPoly(ctx, (ctx.minus_one, ctx.one))
    return QuotCtx(ctx, F, f=f)


def quot_s2():
    ctx = finite_ctx(3, 4)
    return QuotCtx(ctx, irreducible_quadratic(ctx))


def first_valid_gamma(q):
    ctx = q.ctx
    for i in range(1, ctx.order):
        cand = ctx.elem_from_index(i)
        try:
            return StarDSpec(q, cand), cand
        except ValueError:
            continue
    raise RuntimeError("no valid gamma")


def test_star_s_zero_absorbs():
    q = quot_x_minus_one()
    ctx = q.ctx
    spec = StarSSpec(q, ctx.gen, AutMap.identity(ctx))
    zero = AlgebraElem(q, SkewPoly.zero(ctx))
    b = AlgebraElem(q, SkewPoly.constant(ctx, ctx.gen))
    assert not spec.mul(zero, b)
    assert not spec.mul(b, zero)


def test_star_s_left_mults_are_the_k1_code():
    # phi_S(R/Rf) coincides with S_{n, s*ell, 1}(eta, rho, F)
    q = quot_x_minus_one()
    ctx = q.ctx
    rng = random.Random(3)
    for rho_exp in (0, 1):
        rho = AutMap.sigma_power(ctx, rho_exp)
        spec = StarSSpec(q, ctx.gen, rho)
        code = SCodeSpec(q, 1, ctx.gen, rho)
        M = _membership_matrix(code)
        for _ in range(20):
            a = AlgebraElem(
                q, SkewPoly.constant(ctx, ctx.elem_from_index(rng.randrange(81)))
            )
            lifted = spec.lift(a)
            v = np.array(vec(lifted, ctx.n * q.s))
            assert not ((M @ v) % ctx.p).any()


def test_star_s_product_table_no_zero_divisors():
    # exhaustive 81 x 81 direct product table
    q = quot_x_minus_one()
    ctx = q.ctx
    spec = StarSSpec(q, ctx.gen, AutMap.identity(ctx))
    elems = [
        AlgebraElem(q, SkewPoly.constant(ctx, ctx.elem_from_index(i)))
        for i in range(81)
    ]
    for a in elems[1:]:
        for b in elems[1:]:
            assert spec.mul(a, b)


def test_star_s_bilinear_over_kprime():
    q = quot_s2()
    ctx = q.ctx
    rng = random.Random(5)
    spec = StarSSpec(q, ctx.gen, AutMap.identity(ctx))  # K' = K = F_3
    alg = algebra_for_star(spec)
    for _ in range(15):
        a = alg.elem_from_index(rng.randrange(alg.order))
        a2 = alg.elem_from_index(rng.randrange(alg.order))
        b = alg.elem_from_index(rng.randrange(alg.order))
        alpha = ctx.from_int(rng.randrange(3))
        lhs = spec.mul(
            AlgebraElem(q, a.rep.scale_left(alpha) + a2.rep), b
        )
        rhs_rep = spec.mul(a, b).rep.scale_left(alpha) + spec.mul(a2, b).rep
        assert lhs.rep == rhs_rep
        lhs2 = spec.mul(a, AlgebraElem(q, b.rep.scale_left(alpha)))
        assert lhs2.rep == spec.mul(a, b).rep.scale_left(alpha)


def test_tau_eta_bijective_iff_norm_condition():
    # exhaustive over L = F_9: tau_eta is injective exactly when N(eta f0) != 1
    ctx = finite_ctx(3, 2)
    q = QuotCtx(ctx, y_minus_one(ctx))
    f0 = q.f.constant_coeff
    sigma = AutMap.sigma_power(ctx, 1)
    from skewlab.fields import norm_to_fixed

    for i in range(ctx.order):
        eta = ctx.elem_from_index(i)
        cond = norm_to_fixed(eta * f0, sigma) != ctx.one
        if not cond:
            with pytest.raises(ValueError):
                StarSSpec(q, eta, AutMap.identity(ctx))
            continue
        spec = StarSSpec(q, eta, AutMap.identity(ctx))
        images = {spec.decode_a0(ctx.elem_from_index(j)) for j in range(ctx.order)}
        assert len(images) == ctx.order


def test_star_s_prime_unit_laws_s2():
    q = quot_s2()
    ctx = q.ctx
    spec = StarSPrimeSpec(q, ctx.gen, AutMap.identity(ctx))
    alg = algebra_for_star(spec)
    assert has_two_sided_unit(alg)
    rng = random.Random(7)
    for _ in range(30):
        b = alg.elem_from_index(rng.randrange(alg.order))
        assert spec.mul(spec.unit, b) == b
        assert spec.mul(b, spec.unit) == b


def test_star_s_prime_right_unit_s1_exhaustive():
    # at s*ell = 1 only the right unit law holds (spec example); the left
    # lift of x cannot be x itself
    q = quot_x_minus_one()
    ctx = q.ctx
    spec = StarSPrimeSpec(q, ctx.gen, AutMap.identity(ctx))
    alg = algebra_for_star(spec)
    for i in range(alg.order):
        b = alg.elem_from_index(i)
        assert spec.mul(b, spec.unit) == b
    assert not has_two_sided_unit(alg)


def test_star_s_prime_isotopy_identity():
    # star' is an isotope of star: a *S' b = a *S (Z b mod f), and the
    # Z-multiplication is invertible (Z inverts x in R/Rf)
    q = quot_s2()
    ctx = q.ctx
    spec = StarSPrimeSpec(q, ctx.gen, AutMap.sigma_power(ctx, 1))
    plain = StarSSpec(q, ctx.gen, AutMap.sigma_power(ctx, 1))
    alg = algebra_for_star(spec)
    rng = random.Random(11)
    from skewlab.skewpoly import right_mod

    images = set()
    for i in range(alg.order):
        b = alg.elem_from_index(i)
        images.add(AlgebraElem(q, right_mod(spec.z_skew * b.rep, q.f)))
    assert len(images) == alg.order  # h3 is a bijection
    for _ in range(15):
        a = alg.elem_from_index(rng.randrange(alg.order))
        b = alg.elem_from_index(rng.randrange(alg.order))
        h3b = AlgebraElem(q, right_mod(spec.z_skew * b.rep, q.f))
        assert spec.mul(a, b) == plain.mul(a, h3b)


def test_star_d_unital_and_bilinear():
    q = quot_s2()
    spec, gamma = first_valid_gamma(q)
    ctx = q.ctx
    alg = algebra_for_star(spec)
    assert has_two_sided_unit(alg)
    rng = random.Random(13)
    for _ in range(20):
        b = alg.elem_from_index(rng.randrange(alg.order))
        assert spec.mul(spec.unit, b) == b
        alpha = ctx.from_int(rng.randrange(3))
        a = alg.elem_from_index(rng.randrange(alg.order))
        a2 = alg.elem_from_index(rng.randrange(alg.order))
        lhs = spec.mul(AlgebraElem(q, a.rep.scale_left(alpha) + a2.rep), b)
        assert lhs.rep == spec.mul(a, b).rep.scale_left(alpha) + spec.mul(a2, b).rep


def test_star_d_left_mults_are_the_k1_code():
    q = quot_s2()
    spec, gamma = first_valid_gamma(q)
    ctx = q.ctx
    # phi_D lands in D(-gamma/f0, F) with k = 1
    code = DCodeSpec(q, 1, -(gamma / q.f.constant_coeff))
    M = _membership_matrix(code)
    alg = algebra_for_star(spec)
    rng = random.Random(17)
    for _ in range(20):
        a = alg.elem_from_index(rng.randrange(alg.order))
        v = np.array(vec(spec.lift(a), ctx.n * q.s))
        assert not ((M @ v) % ctx.p).any()


def test_star_d_invalid_gamma_rejected():
    q = quot_s2()
    ctx = q.ctx
    spec0, _ = first_valid_gamma(q)
    lp_elem = ctx.sigma_pow(ctx.gen, 2) * ctx.gen  # norm to L', lands in L'
    with pytest.raises(ValueError):
        StarDSpec(q, lp_elem)


def test_hk_params_and_mul():
    ctx = finite_ctx(3, 4)
    w = ctx.gen
    hk = HKParams(ctx, w)
    assert ctx.sigma_pow(w, 1) * w == hk.u + hk.v * w
    assert hk.in_subfield(hk.u) and hk.in_subfield(hk.v)
    d = (ctx.elem_from_index(5), ctx.elem_from_index(11))
    assert hk_mul((ctx.one, ctx.zero), d, hk) == d
    assert hk_mul((ctx.zero, ctx.one), (ctx.zero, ctx.one), hk) == (hk.u, hk.v)


def test_hk_matches_star_d_exhaustively():
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, y_minus_one(ctx), f=SkewPoly(ctx, (ctx.minus_one, ctx.one)))
    w = ctx.gen
    spec = StarDSpec(q, w)
    hk = HKParams(ctx, w)
    for i in range(81):
        for j in range(81):
            a_el = ctx.elem_from_index(i)
            b_el = ctx.elem_from_index(j)
            c0, c1 = hk.split(a_el)
            d0, d1 = hk.split(b_el)
            a = AlgebraElem(q, SkewPoly.constant(ctx, a_el))
            b = AlgebraElem(q, SkewPoly.constant(ctx, b_el))
            out = spec.mul(a, b).rep.constant_coeff
            h0, h1 = hk_mul((c0, c1), (d0, d1), hk)
            assert out == h0 + w * h1


def test_zero_divisor_scan_field_fixture():
    ctx = finite_ctx(3, 2)
    rep = zero_divisor_scan(algebra_for_field(ctx))
    assert not rep.found and rep.pairs_checked == 64


def test_zero_divisor_scan_budget():
    ctx = finite_ctx(3, 4)
    with pytest.raises(RuntimeError):
        zero_divisor_scan(algebra_for_field(ctx), budget=10)


def test_zero_divisor_scan_detects_witness():
    # F_3 x F_3 with componentwise product has zero divisors
    ctx = finite_ctx(3, 2)
    from skewlab.semifields import FiniteAlgebra

    def mul(a, b):
        return (a[0] * b[0], a[1] * b[1])

    def to_vec(a):
        return (a[0].coeffs[0], a[1].coeffs[0])

    def from_vec(v):
        return (ctx.from_int(int(v[0])), ctx.from_int(int(v[1])))

    alg = FiniteAlgebra(3, 2, to_vec, from_vec, mul)
    rep = zero_divisor_scan(alg)
    assert rep.found
    a, b = rep.witness
    prod = mul(a, b)
    assert not prod[0] and not prod[1]
    # first witness in enumeration order: a = (0,1), b = (1,0)
    assert to_vec(a) == (0, 1) and to_vec(b) == (1, 0)


def pairwise_zero_divisor_scan(alg):
    """Reference: every pair (a, b) of nonzero elements in enumeration
    order, by the direct product; returns (witness indices, pairs tried)."""
    elems = [alg.elem_from_index(i) for i in range(alg.order)]
    tried = 0
    for i in range(1, alg.order):
        for j in range(1, alg.order):
            tried += 1
            if not any(alg.to_vec(alg.mul(elems[i], elems[j]))):
                return (i, j), tried
    return None, tried


@pytest.mark.parametrize("gamma_lit", ["w", "w^2", "w^2+w"])
def test_zero_divisor_scan_matches_pairwise_products(gamma_lit):
    # order 81; gamma = w is valid, the other two have square norm
    from skewlab.fields import elem_from_literal

    q = quot_x_minus_one()
    gamma = elem_from_literal(q.ctx, gamma_lit)
    alg = algebra_for_star(StarDSpec(q, gamma, enforce_norm=False))
    witness, tried = pairwise_zero_divisor_scan(alg)
    rep = zero_divisor_scan(alg)
    assert rep.found == (witness is not None) == (gamma_lit != "w")
    assert rep.pairs_checked == tried
    if witness:
        a, b = rep.witness
        assert alg.to_vec(a) == alg.to_vec(alg.elem_from_index(witness[0]))
        assert alg.to_vec(b) == alg.to_vec(alg.elem_from_index(witness[1]))


def test_invalid_norm_gamma_scan_runs_without_judgment():
    # gamma outside L' whose norm is a square: validity fails but the
    # multiplication is defined; the scan simply reports what it finds
    q = quot_x_minus_one()
    ctx = q.ctx
    gamma = ctx.gen * ctx.gen  # N(w^2) = w^80 = 1, a square
    assert not validate_d(DCodeSpec(q, 1, gamma))
    with pytest.raises(ValueError):
        StarDSpec(q, gamma)
    spec = StarDSpec(q, gamma, enforce_norm=False)
    alg = algebra_for_star(spec)
    rep = zero_divisor_scan(alg)
    assert rep.pairs_checked > 0  # outcome reported either way


def test_nuclei_star_d_s2():
    q = quot_s2()
    spec, _ = first_valid_gamma(q)
    rep = nuclei(algebra_for_star(spec))
    assert (rep.nl, rep.nm, rep.nr, rep.z) == (9, 9, 9, 3)


def test_nuclei_hk():
    ctx = finite_ctx(3, 4)
    hk = HKParams(ctx, ctx.gen)
    rep = nuclei(algebra_for_hk(hk))
    assert rep.nm == 9  # N_m(HK) = F_{q^t}
    assert rep.nl == 9 and rep.nr == 9 and rep.z == 3


def test_nuclei_star_s_prime_s1():
    q = quot_x_minus_one()
    ctx = q.ctx
    spec = StarSPrimeSpec(q, ctx.gen, AutMap.identity(ctx))
    rep = nuclei(algebra_for_star(spec))
    assert rep.nl == 81  # |Fix(L, rho)| with rho = id


def test_nuclei_match_associativity_definition():
    # independent oracle: solve the defining associativity systems directly
    ctx = finite_ctx(3, 4)
    hk = HKParams(ctx, ctx.gen)
    alg = algebra_for_hk(hk)
    p, dim = alg.p, alg.dim
    basis = [
        alg.from_vec(tuple(1 if k == i else 0 for k in range(dim)))
        for i in range(dim)
    ]

    def vec(e):
        return np.array(alg.to_vec(e), dtype=np.int64)

    def mulv(a, b):
        return alg.mul(a, b)

    rows_nl, rows_nm, rows_nr = [], [], []
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            prod = mulv(ei, ej)
            for k, ek in enumerate(basis):
                # N_l: (a ei) ej - a (ei ej), linear in a = e_k
                lhs = vec(mulv(mulv(ek, ei), ej)) - vec(mulv(ek, prod))
                rows_nl.append((k, (i, j), lhs % p))
                # N_m: (ei a) ej - ei (a ej)
                lhs = vec(mulv(mulv(ei, ek), ej)) - vec(
                    mulv(ei, mulv(ek, ej))
                )
                rows_nm.append((k, (i, j), lhs % p))
                # N_r: (ei ej) a - ei (ej a)
                lhs = vec(mulv(prod, ek)) - vec(mulv(ei, mulv(ej, ek)))
                rows_nr.append((k, (i, j), lhs % p))

    from skewlab import linalg

    def size(rows):
        by_pair = {}
        for k, pair, col in rows:
            by_pair.setdefault(pair, {})[k] = col
        mat = []
        for pair, cols in by_pair.items():
            block = np.stack([cols[k] for k in range(dim)], axis=1)
            mat.append(block)
        stacked = np.vstack(mat)
        ker = linalg.np_kernel(stacked % p, p, ncols=dim)
        return p ** ker.shape[0]

    rep = nuclei(alg)
    assert size(rows_nl) == rep.nl
    assert size(rows_nm) == rep.nm
    assert size(rows_nr) == rep.nr


def test_nuclei_match_associativity_definition_s2_instance():
    # dual route for the order-3^8 instance: the defining associativity
    # systems (linear in one slot, basis triples only) agree with the
    # spread-set computation
    q = quot_s2()
    spec, _ = first_valid_gamma(q)
    alg = algebra_for_star(spec)
    p, dim = alg.p, alg.dim
    basis = [
        alg.from_vec(tuple(1 if k == i else 0 for k in range(dim)))
        for i in range(dim)
    ]

    def vec(e):
        return np.array(alg.to_vec(e), dtype=np.int64)

    left_of = {}
    for i, ei in enumerate(basis):
        cols = [vec(alg.mul(ei, ej)) for ej in basis]
        left_of[i] = np.stack(cols, axis=1)

    # N_r only (one system suffices as a cross-check at this size):
    # rows ((ei ej) a - ei (ej a)) linear in a
    from skewlab import linalg

    blocks = []
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            prod = alg.mul(ei, ej)
            lhs_cols = []
            for k, ek in enumerate(basis):
                lhs_cols.append(
                    vec(alg.mul(prod, ek)) - vec(alg.mul(ei, alg.mul(ej, ek)))
                )
            blocks.append(np.stack(lhs_cols, axis=1) % p)
    ker = linalg.np_kernel(np.vstack(blocks), p, ncols=dim)
    assert p ** ker.shape[0] == nuclei(alg).nr == 9


def nuclei_by_definition(alg):
    """(N_l, N_m, N_r) sizes straight from the structure constants
    C[i, j] = e_i e_j: N_l = {z : (za)b = z(ab)}, N_m = {z : (az)b = a(zb)},
    N_r = {z : (ab)z = a(bz)}, each the kernel of a system linear in z."""
    p, d = alg.p, alg.dim
    basis = [alg.from_vec(tuple(int(k == i) for k in range(d))) for i in range(d)]
    C = np.array(
        [[alg.to_vec(alg.mul(x, y)) for y in basis] for x in basis], dtype=np.int64
    )

    def size(lhs, rhs):
        diff = np.einsum(lhs, C, C) - np.einsum(rhs, C, C)
        rows = diff.reshape(d, d**3).T % p
        return p ** linalg.np_kernel(rows, p, ncols=d).shape[0]

    return (
        size("lim,mjk->lijk", "ijm,lmk->lijk"),
        size("ilm,mjk->lijk", "ljm,imk->lijk"),
        size("ijm,mlk->lijk", "jlm,imk->lijk"),
    )


def test_nuclei_match_structure_constants_when_t_differs_from_s():
    # (q, n, s) = (3, 2, 2) and (5, 2, 2) have t = 1 != s, so N_r = q^s
    # differs from N_l = q^t; star_S' of order 3^8 (unit x) has N_r = 9
    cases = []
    for p_, c0 in ((3, 1), (5, 2)):
        ctx = finite_ctx(p_, 2)
        F = CentralPoly.from_coeffs(ctx, [ctx.from_int(c0), ctx.zero, ctx.one])
        spec, _ = first_valid_gamma(QuotCtx(ctx, F))
        cases.append((spec, p_**2))
    q = quot_s2()
    cases.append((StarSPrimeSpec(q, q.ctx.gen, AutMap.identity(q.ctx)), 9))
    for spec, nr in cases:
        alg = algebra_for_star(spec)
        rep = nuclei(alg)
        assert (rep.nl, rep.nm, rep.nr) == nuclei_by_definition(alg)
        assert rep.nr == nr


def test_star_products_are_not_associative():
    # proper semifields: some triple must break associativity
    q = quot_s2()
    spec, _ = first_valid_gamma(q)
    alg = algebra_for_star(spec)
    rng = random.Random(23)
    broken = False
    for _ in range(50):
        a = alg.elem_from_index(rng.randrange(1, alg.order))
        b = alg.elem_from_index(rng.randrange(1, alg.order))
        c = alg.elem_from_index(rng.randrange(1, alg.order))
        if spec.mul(spec.mul(a, b), c) != spec.mul(a, spec.mul(b, c)):
            broken = True
            break
    assert broken


def test_star_s_funcfield_rho_identity():
    # the infinite-field twisted algebra: products defined, zero-free on
    # samples, and the lift lands in the k=1 twisted shape
    from skewlab.fields import FunctionFieldCtx
    from skewlab.quotient import QuotCtx
    from skewlab.skewpoly import bound

    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    f = x * x + SkewPoly.constant(ff, f0)
    q = QuotCtx(ff, bound(f).F, f=f, irreducible_certified=True)
    eta = ff.t
    spec = StarSSpec(q, eta, AutMap.identity(ff))
    rng = random.Random(29)
    for _ in range(10):
        a = AlgebraElem(
            q,
            SkewPoly(
                ff, (ff.random_elem(rng, max_deg=1), ff.random_elem(rng, max_deg=1))
            ),
        )
        b = AlgebraElem(
            q,
            SkewPoly(
                ff, (ff.random_elem(rng, max_deg=1), ff.random_elem(rng, max_deg=1))
            ),
        )
        lifted = spec.lift(a)
        a0 = spec.decode_a0(a.rep.constant_coeff)
        assert lifted[2] == eta * a0  # twist slot of the k=1 word
        if a and b:
            assert spec.mul(a, b)
    with pytest.raises(Exception):
        StarSSpec(q, eta, AutMap.sigma_power(ff, 1))  # rho != id unsupported


def test_nuclei_invariant_under_normalisation():
    from skewlab.semifields import FiniteAlgebra

    q = quot_s2()
    spec, _ = first_valid_gamma(q)
    alg = algebra_for_star(spec)
    stripped = FiniteAlgebra(
        alg.p, alg.dim, alg.to_vec, alg.from_vec, alg.mul, None, alg.scalar_mats
    )
    assert nuclei(alg).as_dict() == nuclei(stripped).as_dict()
