"""Star products, zero-divisor scans, nuclei, Hughes-Kleinfeld."""

import math
import random

import numpy as np
import pytest

from skewlab.codes import DCodeSpec, SCodeSpec, _spanning_words, validate_d
from skewlab.fields import AutMap
from skewlab.quotient import FiniteAlgebra, QuotCtx, subspace_nuclei, vec
from skewlab import linalg
from skewlab.semifields import (
    AlgebraElem,
    StarDSpec,
    StarSPrimeSpec,
    StarSSpec,
    algebra_for_star,
    has_two_sided_unit,
    nuclei,
    zero_divisor_scan,
)
from skewlab.semifields import _solve_nuclei
from skewlab.skewpoly import CentralPoly, SkewPoly

from helpers import (
    HKParams,
    algebra_for_field,
    algebra_for_hk,
    finite_ctx,
    hk_mul,
    irreducible_quadratic,
    product_table_constants,
    record_rank_scans,
    y_minus_one,
)


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


def code_complement(code):
    """Rows Q with Q v = 0 exactly for v in the F_p-span of the code."""
    q = code.qctx
    span = [vec(w.rep, q.ctx.n * q.s) for w in _spanning_words(code)]
    return linalg.np_kernel(np.array(span), q.ctx.p)


def test_star_s_left_mults_are_the_k1_code():
    # phi_S(R/Rf) coincides with S_{n, s*ell, 1}(eta, rho, F)
    q = quot_x_minus_one()
    ctx = q.ctx
    rng = random.Random(3)
    for rho_exp in (0, 1):
        rho = AutMap.sigma_power(ctx, rho_exp)
        spec = StarSSpec(q, ctx.gen, rho)
        code = SCodeSpec(q, 1, ctx.gen, rho)
        Q = code_complement(code)
        for _ in range(20):
            a = AlgebraElem(
                q, SkewPoly.constant(ctx, ctx.elem_from_index(rng.randrange(81)))
            )
            lifted = spec.lift(a)
            v = np.array(vec(lifted, ctx.n * q.s))
            assert not ((Q @ v) % ctx.p).any()


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
    Q = code_complement(code)
    alg = algebra_for_star(spec)
    rng = random.Random(17)
    for _ in range(20):
        a = alg.elem_from_index(rng.randrange(alg.order))
        v = np.array(vec(spec.lift(a), ctx.n * q.s))
        assert not ((Q @ v) % ctx.p).any()


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
    assert ctx.in_Lprime(hk.u) and ctx.in_Lprime(hk.v)
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

    def mul(a, b):
        return (a[0] * b[0], a[1] * b[1])

    def to_vec(a):
        return (a[0].coeffs[0], a[1].coeffs[0])

    def from_vec(v):
        return (ctx.from_int(int(v[0])), ctx.from_int(int(v[1])))

    alg = FiniteAlgebra(3, 2, to_vec, from_vec, mul, product_table_constants)
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


def test_zero_divisor_scan_spot_check_catches_a_wrong_left_action(monkeypatch):
    # T comes from the left actions of x and L, the spot check from the
    # products: one wrong entry of L_a, for a = e_(dim-1) (index 1, the
    # first member the scan ranks and checks), in the column a itself hits
    from skewlab import quotient

    left_actions = quotient.left_actions

    def off_by_one(ctx, modulus, polys):
        mats = left_actions(ctx, modulus, polys)
        mats[-1, 0, -1] = (mats[-1, 0, -1] + 1) % ctx.p
        return mats

    q = quot_x_minus_one()
    alg = algebra_for_star(StarDSpec(q, q.ctx.gen))
    assert not zero_divisor_scan(alg).found
    monkeypatch.setattr(quotient, "left_actions", off_by_one)
    alg = algebra_for_star(StarDSpec(q, q.ctx.gen))
    with pytest.raises(RuntimeError):
        zero_divisor_scan(alg)


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


class MatrixAlgebra:
    """M_d(F_p) in row-major coordinates: vec(X Y) = (X kron I) vec(Y) and
    vec(Y X) = (I kron X^T) vec(Y)."""

    def __init__(self, p, d):
        self.p, self.d, self.dim = p, d, d * d
        self._eye = np.eye(d, dtype=np.int64)

    def left_mult_matrix(self, v):
        return np.kron(np.reshape(v, (self.d, self.d)), self._eye)

    def right_mult_matrix(self, v):
        return np.kron(self._eye, np.reshape(v, (self.d, self.d)).T)


def nuclei_by_spread_set(alg):
    """(N_l, N_m, N_r, Z) sizes by a route nuclei does not take: the left
    and right idealisers, centraliser and centre of the spread set {L_a}
    inside M_dim(F_p), by quotient.subspace_nuclei (which normalises the
    spread set by its first invertible member, so no unit is needed)."""
    spread = [M.reshape(-1) for M in alg.left_mult_matrices()]
    kernels = subspace_nuclei(MatrixAlgebra(alg.p, alg.dim), spread)
    return tuple(alg.p ** len(basis) for basis in kernels)


def star_s_s2(rho_exp):
    q = quot_s2()
    return StarSSpec(q, q.ctx.gen, AutMap.sigma_power(q.ctx, rho_exp))


def star_d_t_differs_from_s(p_, c0):
    # (q, n, s) = (p_, 2, 2): t = 1 != s
    ctx = finite_ctx(p_, 2)
    F = CentralPoly.from_coeffs(ctx, [ctx.from_int(c0), ctx.zero, ctx.one])
    return first_valid_gamma(QuotCtx(ctx, F))[0]


def star_s_prime_s1(rho_exp):
    q = quot_x_minus_one()
    return StarSPrimeSpec(q, q.ctx.gen, AutMap.sigma_power(q.ctx, rho_exp))


def hk_3e8():
    ctx = finite_ctx(3, 4)
    return HKParams(ctx, ctx.gen)


def star_s_prime_s2():
    q = quot_s2()
    return StarSPrimeSpec(q, q.ctx.gen, AutMap.identity(q.ctx))


def sheared_field():
    """F_81 under a . b = phi(a) b, phi(a) = a + a_1 (a_1 the coefficient of
    w): an isotope of the field with no unit whose right multiplications
    do not normalise the field's scalars."""
    ctx = finite_ctx(3, 4)
    return FiniteAlgebra(
        3, 4, lambda a: a.coeffs, lambda v: ctx.elem(tuple(int(c) for c in v)),
        lambda a, b: (a + ctx.from_int(a.coeffs[1])) * b, product_table_constants,
    )


# unital: star_D, HK and star_S' (s = 2); no two-sided unit: star_S' at
# s = 1, star_S and the sheared field, whose nuclei come from a unital
# isotope
ORACLE_CASES = {
    "sheared_field": sheared_field,
    "star_d_3e8": lambda: algebra_for_star(first_valid_gamma(quot_s2())[0]),
    "hk_3e8": lambda: algebra_for_hk(hk_3e8()),
    "star_s_prime_3e8": lambda: algebra_for_star(star_s_prime_s2()),
    "star_s_prime_s1_rho_id": lambda: algebra_for_star(star_s_prime_s1(0)),
    "star_s_prime_s1_rho_sigma": lambda: algebra_for_star(star_s_prime_s1(1)),
    "star_s_s2_rho_id": lambda: algebra_for_star(star_s_s2(0)),
    "star_s_s2_rho_sigma": lambda: algebra_for_star(star_s_s2(1)),
    "star_s_s2_rho_sigma2": lambda: algebra_for_star(star_s_s2(2)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_nuclei_match_the_spread_set_oracle(name):
    alg = ORACLE_CASES[name]()
    unital = not name.startswith(("star_s_s2", "star_s_prime_s1", "sheared"))
    assert has_two_sided_unit(alg) == unital
    rep = nuclei(alg)
    assert (rep.nl, rep.nm, rep.nr, rep.z) == nuclei_by_spread_set(alg)


def test_nuclei_match_the_spread_set_when_t_differs_from_s():
    # N_r = q^s differs from N_l = q^t; star_S' of order 3^8 (unit x) has
    # N_r = 9
    cases = [(star_d_t_differs_from_s(3, 1), 9), (star_d_t_differs_from_s(5, 2), 25)]
    cases.append((star_s_prime_s2(), 9))
    for spec, nr in cases:
        alg = algebra_for_star(spec)
        assert has_two_sided_unit(alg)
        rep = nuclei(alg)
        assert (rep.nl, rep.nm, rep.nr, rep.z) == nuclei_by_spread_set(alg)
        assert rep.nr == nr


@pytest.mark.parametrize("name", ["star_d_3e8", "star_s_s2_rho_id"])
def test_nuclei_systems_have_dim_unknowns(name, monkeypatch):
    # one unknown per coordinate of z, not dim^2 matrix entries
    alg = ORACLE_CASES[name]()
    np_kernel = linalg.np_kernel
    widths = []

    def recorded(M, p, ncols=None):
        basis = np_kernel(M, p, ncols)
        widths.append(basis.shape[1])
        return basis

    monkeypatch.setattr(linalg, "np_kernel", recorded)
    nuclei(alg)
    assert widths and max(widths) <= alg.dim


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_nl_action_multiplies_the_spread_set_on_the_left(name):
    # each matrix A that zero_divisor_scan takes for N_l satisfies
    # L_(a(A x)) = G L_(a(x)) for one G, a(x) the element with index digits x
    alg = ORACLE_CASES[name]()
    p, d = alg.p, alg.dim
    basis = np.stack(alg.left_mult_matrices()[::-1])

    def member(x):
        return np.einsum("j,jab->ab", x % p, basis) % p

    idx = linalg.first_invertible(basis, p)
    x0 = np.array([(idx // p**j) % p for j in range(d)])
    inv0 = linalg.np_inv(member(x0), p)
    _, action = _solve_nuclei(alg, linalg.DEFAULT_BUDGET)
    assert p ** len(action) == nuclei(alg).nl
    for A in action:
        G = member(A @ x0) @ inv0 % p
        for j in range(d):
            assert np.array_equal(member(A[:, j]), G @ basis[j] % p)


def test_non_unital_zero_divisor_scan_scans_nl_orbits(monkeypatch):
    # star_S has no unit; N_l of its isotope (order 81) acts on the index
    # digits, and the orbit scan agrees with the F_p^* scan
    alg = algebra_for_star(star_s_s2(0))
    assert not has_two_sided_unit(alg)
    assert nuclei(alg).nl == 81
    scans = record_rank_scans(monkeypatch)
    rep = zero_divisor_scan(alg)
    assert not rep.found and rep.pairs_checked == (alg.order - 1) ** 2
    assert len(scans) == 1
    orbit, got, plain = scans[0]
    assert orbit and got == plain


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
    # rho != id: the closed-form tau_eta^-1 inverts tau_eta(a) = a - c rho(a)
    c = eta * f0
    for k in (1, 2, 3):
        rho = AutMap.sigma_power(ff, k)
        spec = StarSSpec(q, eta, rho)
        for _ in range(20):
            target = ff.random_elem(rng, max_deg=1)
            a0 = spec.decode_a0(target)
            assert a0 - c * rho.apply(a0) == target


def test_nuclei_invariant_under_normalisation():
    q = quot_s2()
    spec, _ = first_valid_gamma(q)
    alg = algebra_for_star(spec)
    stripped = FiniteAlgebra(
        alg.p, alg.dim, alg.to_vec, alg.from_vec, alg.mul, product_table_constants
    )
    assert nuclei(alg).as_dict() == nuclei(stripped).as_dict()


def test_nuclei_search_the_spread_set_for_an_invertible_element():
    # F_3 x F_3 with the componentwise product, passed without its unit:
    # neither basis L_a = diag(1, 0), diag(0, 1) is invertible, their sum is
    ctx = finite_ctx(3, 2)

    def to_vec(a):
        return (a[0].coeffs[0], a[1].coeffs[0])

    def from_vec(v):
        return (ctx.from_int(int(v[0])), ctx.from_int(int(v[1])))

    def mul(a, b):
        return (a[0] * b[0], a[1] * b[1])

    # the spread set is the diagonal matrices: every nucleus is that F_3 x F_3
    alg = FiniteAlgebra(3, 2, to_vec, from_vec, mul, product_table_constants)
    assert nuclei(alg).as_dict() == {"Nl": 9, "Nm": 9, "Nr": 9, "Z": 9}
    zero = FiniteAlgebra(
        3, 2, to_vec, from_vec, lambda a, b: (ctx.zero, ctx.zero),
        product_table_constants,
    )
    with pytest.raises(ValueError, match="spread set contains no invertible element"):
        nuclei(zero)


@pytest.mark.parametrize("p,e,n", [(3, 1, 4), (2, 2, 2)])
def test_decode_a0_inverts_tau_eta(p, e, n):
    # tau_eta(a) = a - eta f0 rho(a) undone by the closed form, for every c
    # in L and every rho = Frob^h whose N_{L/K'}(eta f0) != 1, with
    # K' = Fix(Frob^gcd(h, e)); the other etas are refused
    from skewlab.fields import FiniteFieldCtx, norm_to_fixed

    ctx = FiniteFieldCtx(p, e, n)
    q = QuotCtx(ctx, y_minus_one(ctx))
    f0 = q.f.constant_coeff
    elems = [ctx.elem_from_index(i) for i in range(ctx.order)]
    for h in range(ctx.dim):
        rho = AutMap.frobenius_power(ctx, h)
        kprime = AutMap.frobenius_power(ctx, math.gcd(h, e))
        inverted = 0
        for eta in elems[1:9]:
            if norm_to_fixed(eta * f0, kprime) == ctx.one:
                with pytest.raises(ValueError):
                    StarSSpec(q, eta, rho)
                continue
            spec = StarSSpec(q, eta, rho)
            for c in elems:
                a0 = spec.decode_a0(c)
                assert a0 - eta * f0 * rho.apply(a0) == c
            inverted += 1
        # over K' = F_2 every nonzero norm is 1, so no eta qualifies
        assert inverted or p ** math.gcd(h, e) == 2


def test_decode_a0_inverts_tau_eta_over_f8t():
    from skewlab.fields import FunctionFieldCtx
    from skewlab.skewpoly import bound

    ff = FunctionFieldCtx(3)
    x = SkewPoly.x(ff)
    f = x * x + SkewPoly.constant(ff, ff.elem((1, 0, 1), (1, 1, 1)))
    q = QuotCtx(ff, bound(f).F, f=f, irreducible_certified=True)
    eta = ff.t
    spec = StarSSpec(q, eta, AutMap.identity(ff))
    rng = random.Random(31)
    for _ in range(20):
        c = ff.random_elem(rng)
        assert spec.decode_a0(c) * (ff.one - eta * q.f.constant_coeff) == c


def test_algebra_index_decoder_rejects_indices_out_of_range():
    # on F_81, index 81 used to decode to (0, 0, 0, 0) and -1 to (2, 2, 2, 2)
    alg = algebra_for_field(finite_ctx(3, 4))
    assert alg.to_vec(alg.elem_from_index(80)) == (2, 2, 2, 2)
    for idx in (81, -1):
        with pytest.raises(ValueError):
            alg.elem_from_index(idx)
