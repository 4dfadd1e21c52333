"""Skew polynomial arithmetic, divisions, gcrd, bounds."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewlab.fields import AutMap, FunctionFieldCtx
from skewlab.linalg import charpoly
from skewlab.polyring import Poly
from skewlab.skewpoly import (
    CentralPoly,
    OppositeSkewPoly,
    SkewPoly,
    bound,
    central_is_irreducible,
    central_to_literal,
    gcrd,
    gcrd_extended,
    is_irreducible,
    left_divides,
    left_divmod,
    norm_identity_check,
    power_reductions,
    right_divides,
    right_divmod,
    right_mod,
    skew_from_literal,
    skew_to_literal,
    _psi,
)

from helpers import (
    bound_oracle,
    companion_product,
    finite_ctx,
    np_solve,
    random_elem,
    random_irreducible,
    random_skew,
)


def test_defining_relation_f4():
    ctx = finite_ctx(2, 2)
    x = SkewPoly.x(ctx)
    w = SkewPoly.constant(ctx, ctx.gen)
    assert skew_to_literal(x * w) == "(w+1)*x"


def test_schoolbook_product_f4():
    ctx = finite_ctx(2, 2)
    x = SkewPoly.x(ctx)
    one = SkewPoly.one(ctx)
    w = SkewPoly.constant(ctx, ctx.gen)
    assert skew_to_literal((x + one) * (x + w)) == "x^2+w*x+w"


def test_mul_identity_and_degree():
    rng = random.Random(2)
    ctx = finite_ctx(3, 2)
    one = SkewPoly.one(ctx)
    for _ in range(20):
        f = random_skew(ctx, 4, rng, nonzero=True)
        g = random_skew(ctx, 4, rng, nonzero=True)
        assert f * one == f
        assert (f * g).degree == f.degree + g.degree


def test_ring_axioms_random():
    rng = random.Random(3)
    for ctx in (finite_ctx(2, 3), FunctionFieldCtx(3)):
        for _ in range(12):
            f = random_skew(ctx, 3, rng)
            g = random_skew(ctx, 3, rng)
            h = random_skew(ctx, 3, rng)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h


def test_right_divmod_examples():
    ctx = finite_ctx(2, 2)
    x = SkewPoly.x(ctx)
    one = SkewPoly.one(ctx)
    q, r = right_divmod(x * x + one, x + one)
    assert skew_to_literal(q) == "x+1" and not r
    # deg f < deg g
    q2, r2 = right_divmod(one, x + one)
    assert not q2 and r2 == one
    with pytest.raises(ZeroDivisionError):
        right_divmod(x, SkewPoly.zero(ctx))


def test_division_remultiplication_random():
    # left division runs in the opposite ring L[x; sigma^-1], whose psi
    # reverses products
    rng = random.Random(4)
    for ctx in (
        finite_ctx(2, 3), finite_ctx(3, 4), finite_ctx(5, 2), FunctionFieldCtx(3),
        FunctionFieldCtx(5),
    ):
        for _ in range(15):
            f = random_skew(ctx, 4, rng)
            g = random_skew(ctx, 4, rng, nonzero=True)
            q, r = right_divmod(f, g)
            assert q * g + r == f and r.degree < g.degree
            ql, rl = left_divmod(f, g)
            assert g * ql + rl == f and rl.degree < g.degree
            assert type(ql) is type(rl) is SkewPoly
            op_f, op_g = (_psi(h, -1, OppositeSkewPoly) for h in (f, g))
            assert _psi(op_g * op_f, 1, SkewPoly) == f * g


def test_norm_divisor_of_central_f8():
    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    f83 = SkewPoly(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))  # x^3 + 1
    fw = x - SkewPoly.constant(ctx, ctx.gen)
    q, r = right_divmod(f83, fw)
    assert not r and q * fw == f83


def test_left_division_of_central_funcfield():
    ff = FunctionFieldCtx(3)
    x = SkewPoly.x(ff)
    g = x * x + SkewPoly.constant(ff, ff.one / ff.t)
    G = bound(g).F.to_skew()
    assert not left_divmod(G, g)[1]
    assert not right_divmod(G, g)[1]


def test_gcrd_examples():
    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    one = SkewPoly.one(ctx)
    f83 = SkewPoly(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
    assert gcrd(x + one, f83) == x + one
    # (x^2+x+1)(x+1) = x^3+1 in characteristic 2
    assert (x * x + x + one) * (x + one) == f83
    assert gcrd(x, f83) == one
    g = random_skew(ctx, 3, random.Random(0), nonzero=True)
    assert gcrd(g, SkewPoly.zero(ctx)) == g.monic()
    with pytest.raises(ValueError):
        gcrd(SkewPoly.zero(ctx), SkewPoly.zero(ctx))


def test_gcrd_contracts_random():
    rng = random.Random(6)
    for ctx in (finite_ctx(3, 2), FunctionFieldCtx(3)):
        for _ in range(12):
            f = random_skew(ctx, 4, rng, nonzero=True)
            g = random_skew(ctx, 4, rng, nonzero=True)
            d = gcrd(f, g)
            assert right_divides(d, f) and right_divides(d, g)
            assert d == gcrd(g, right_mod(f, g))
            dd, u, v = gcrd_extended(f, g)
            assert dd == d and u * f + v * g == d


def test_bound_a_matrix_examples():
    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    rep = bound(x - SkewPoly.constant(ctx, ctx.gen))
    assert rep.a_matrix == [[ctx.one]]
    assert rep.char_poly == Poly(ctx, (ctx.minus_one, ctx.one))
    assert bound(x - SkewPoly.one(ctx)).a_matrix == [[ctx.one]]
    with pytest.raises(ValueError):
        bound(SkewPoly.constant(ctx, ctx.gen) * x)


def test_funcfield_af_is_scalar():
    # A_f = (C_f C_f^sigma)^r = f0^r I, char = (y + f0^r)^2
    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    rep = bound(x * x + SkewPoly.constant(ff, f0))
    v = f0**3
    assert rep.a_matrix == [[v, ff.zero], [ff.zero, v]]
    Fy = Poly(ff, (v, ff.one))
    assert rep.char_poly == Fy * Fy
    assert rep.F.poly == Fy


def _random_monic(ctx, deg, rng):
    """A random monic f of degree deg with nonzero constant coefficient."""
    while True:
        coeffs = [random_elem(ctx, rng) for _ in range(deg)] + [ctx.one]
        if coeffs[0]:
            return SkewPoly(ctx, coeffs)


def _funcfield_polys(r):
    """f = x^2 + f0, g = x^2 + 1/t and a cubic over F_(2^r)(t)."""
    ff = FunctionFieldCtx(r)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    x = SkewPoly.x(ff)
    cubic = x * x * x + SkewPoly.constant(ff, ff.t) * x + SkewPoly.constant(ff, f0)
    return [
        x * x + SkewPoly.constant(ff, f0),
        x * x + SkewPoly.constant(ff, ff.one / ff.t),
        cubic,
    ]


def _finite_polys(ctx, seed):
    """Random monic f of degrees 1 to 3, then reducible products of two."""
    rng = random.Random(seed)
    polys = [_random_monic(ctx, rng.randrange(1, 4), rng) for _ in range(6)]
    for _ in range(4):
        g = _random_monic(ctx, 1, rng)
        polys.append(g * _random_monic(ctx, rng.randrange(1, 3), rng))
    return polys


@pytest.mark.parametrize(
    "polys",
    [
        lambda: _finite_polys(finite_ctx(3, 2, e=2), 1),
        lambda: _finite_polys(finite_ctx(2, 3, e=2), 2),
        lambda: _finite_polys(finite_ctx(3, 4, sigma_exp=3), 3),
        lambda: _funcfield_polys(3),
        lambda: _funcfield_polys(5),
    ],
    ids=["p3-n2-e2", "p2-n3-e2", "p3-n4-sigma3", "F8(t)", "F32(t)"],
)
def test_a_matrix_is_the_companion_product(polys):
    # A_f read off x^(n+i) mod_r f is the semilinear product of the C_f
    for f in polys():
        assert bound(f).a_matrix == companion_product(f)


def test_bound_examples():
    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    rep = bound(x - SkewPoly.constant(ctx, ctx.gen))
    assert central_to_literal(rep.F) == "y+1"
    assert rep.ell == 1 and rep.m == 3

    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    xf = SkewPoly.x(ff)
    rep_f = bound(xf * xf + SkewPoly.constant(ff, f0))
    assert rep_f.F.poly.coeffs == (f0**3, ff.one)
    assert rep_f.ell == 2 and rep_f.m == 3
    rep_g = bound(xf * xf + SkewPoly.constant(ff, ff.one / ff.t))
    g1 = ff.elem((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1))
    assert rep_g.F.poly.coeffs == (ff.one, g1, ff.one)
    assert rep_g.ell == 1 and rep_g.m == 6


def test_bound_of_reducible_polynomial():
    # the minimal central multiple exists for any monic f with nonzero
    # constant; for a reducible f the char poly need not be a clean power
    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    w = ctx.gen
    f = (x - SkewPoly.constant(ctx, w)) * (x - SkewPoly.constant(ctx, w * w))
    rep = bound(f)
    assert central_to_literal(rep.F) == "y+1"
    assert rep.F == bound_oracle(f)
    assert rep.ell is None and rep.m is None
    assert not is_irreducible(f)


def test_central_poly_requires_K_coefficients():
    ctx = finite_ctx(2, 3)
    from skewlab.fields import FieldError

    with pytest.raises(FieldError):
        CentralPoly.from_coeffs(ctx, [ctx.gen, ctx.one])


def test_bound_preconditions():
    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    with pytest.raises(ValueError):
        bound(x * x + x)  # zero constant coefficient
    with pytest.raises(ValueError):
        bound(SkewPoly.constant(ctx, ctx.gen) * x + SkewPoly.one(ctx))


def test_bound_against_oracle_random():
    rng = random.Random(10)
    towers = ((2, 3, 1, 1), (3, 4, 1, 1), (3, 2, 2, 1), (3, 4, 1, 3))
    seen = set()
    for p, n, e, sigma_exp in towers:
        ctx = finite_ctx(p, n, e=e, sigma_exp=sigma_exp)
        for _ in range(15):
            deg = rng.randrange(1, 4)
            f = random_irreducible(ctx, deg, rng)
            rep = bound(f)
            assert rep.F == bound_oracle(f)
            assert rep.F.s == f.degree and rep.ell == 1
            assert central_is_irreducible(rep.F)
            F_skew = rep.F.to_skew()
            assert right_divides(f, F_skew) and left_divides(f, F_skew)
            assert F_skew.degree <= ctx.n * f.degree
        # random reducible f: products of two monic factors
        for _ in range(12):
            g = _random_monic(ctx, rng.randrange(1, 3), rng)
            f = g * _random_monic(ctx, rng.randrange(1, 3), rng)
            rep = bound(f)
            assert rep.F == bound_oracle(f)
            F_skew = rep.F.to_skew()
            assert right_divides(f, F_skew) and left_divides(f, F_skew)
            # ell is defined exactly when the char poly of the companion
            # product is F^k with k | n
            char = charpoly(companion_product(f), ctx)
            k, rem = divmod(f.degree, rep.F.s)
            power = not rem and rep.F.poly**k == char
            clean = power and n % k == 0
            assert (rep.ell is not None) == clean
            if clean:
                assert (rep.ell, rep.m) == (k, n // k)
            seen.add((power, clean))
    # char poly F^k with k | n, F^k with k not dividing n, and not a power
    assert seen == {(True, True), (True, False), (False, False)}


def test_min_poly_over_L_equals_over_K():
    # regular-representation oracle over the prime field
    rng = random.Random(12)
    ctx = finite_ctx(3, 4)
    for _ in range(6):
        f = random_irreducible(ctx, rng.randrange(1, 4), rng)
        rep = bound(f)
        h = f.degree
        big = np.zeros((h * ctx.dim, h * ctx.dim), dtype=np.int64)
        for i in range(h):
            for j in range(h):
                big[
                    i * ctx.dim : (i + 1) * ctx.dim, j * ctx.dim : (j + 1) * ctx.dim
                ] = ctx.mult_matrix(rep.a_matrix[i][j])
        # Krylov over F_p on the regular representation
        power = np.eye(h * ctx.dim, dtype=np.int64)
        seen = [power.reshape(-1) % ctx.p]
        coeffs = None
        while coeffs is None:
            power = (power @ big) % ctx.p
            vec = power.reshape(-1)
            mat = np.array(seen, dtype=np.int64).T
            sol = np_solve(mat, vec, ctx.p)
            if sol is not None:
                coeffs = [int(c) for c in sol]
            else:
                seen.append(vec)
        oracle = Poly(
            ctx, [-ctx.from_int(c) for c in coeffs] + [ctx.one]
        )
        assert oracle == rep.F.poly


def test_composite_divisor_norm_identity():
    # g = x^2 + x + 1, the least common left multiple of the degree-1
    # divisors x - w and x - w^2 of x^3 - 1, is a degree-2 monic divisor;
    # its constant coefficient satisfies the h = 2 norm identity
    from skewlab.fields import AutMap, norm_to_fixed

    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    w = ctx.gen
    F_skew = SkewPoly(ctx, (ctx.one, ctx.zero, ctx.zero, ctx.one))
    g = skew_from_literal(ctx, "x^2+x+1")
    for c in (w, w * w):
        assert right_divides(x - SkewPoly.constant(ctx, c), g)
    assert g.degree == 2 and right_divides(g, F_skew)
    sigma = AutMap.sigma_power(ctx, 1)
    h = 2
    exponent = h * (ctx.n - 1)
    sign = ctx.minus_one if exponent % 2 else ctx.one
    assert norm_to_fixed(g.constant_coeff, sigma) == sign * ctx.one**h


def test_divisor_degrees_are_multiples_of_s():
    # with s = 2 every divisor of F(x^n) has even degree: no monic linear
    # right divisors exist
    ctx = finite_ctx(3, 4)
    from helpers import irreducible_quadratic

    F_skew = irreducible_quadratic(ctx).to_skew()
    x = SkewPoly.x(ctx)
    for i in range(ctx.order):
        cand = x + SkewPoly.constant(ctx, ctx.elem_from_index(i))
        assert not right_divides(cand, F_skew)


def test_norm_identity():
    ctx = finite_ctx(2, 3)
    x = SkewPoly.x(ctx)
    fw = x - SkewPoly.constant(ctx, ctx.gen)
    res = norm_identity_check(fw, bound(fw))
    assert res.holds and res.irreducibility_checked
    f1 = x - SkewPoly.one(ctx)
    assert norm_identity_check(f1, bound(f1)).holds
    ff = FunctionFieldCtx(3)
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    f_ff = SkewPoly.x(ff) * SkewPoly.x(ff) + SkewPoly.constant(ff, f0)
    res_ff = norm_identity_check(f_ff, bound(f_ff))
    assert res_ff.holds and not res_ff.irreducibility_checked


def test_is_irreducible_against_divisor_search():
    rng = random.Random(14)

    def reducible_by_search(f):
        ctx = f.ctx
        for d in range(1, f.degree):
            for idx in range(ctx.order**d):
                digits = []
                v = idx
                for _ in range(d):
                    digits.append(v % ctx.order)
                    v //= ctx.order
                cand = SkewPoly(
                    ctx, [ctx.elem_from_index(dd) for dd in digits] + [ctx.one]
                )
                if right_divides(cand, f):
                    return True
        return False

    ctx = finite_ctx(2, 3)
    for _ in range(25):
        f = random_skew(ctx, 4, rng, monic=True, nonzero=True)
        if f.degree < 1:
            continue
        assert is_irreducible(f) == (not reducible_by_search(f))
    ctx34 = finite_ctx(3, 4)
    for _ in range(10):
        f = random_skew(ctx34, 2, rng, monic=True, nonzero=True)
        if f.degree < 1:
            continue
        assert is_irreducible(f) == (not reducible_by_search(f))


def test_power_reductions_match_divisions():
    rng = random.Random(15)
    ctx = finite_ctx(3, 2)
    f = random_skew(ctx, 3, rng, monic=True, nonzero=True)
    while f.degree < 1:
        f = random_skew(ctx, 3, rng, monic=True, nonzero=True)
    reds = power_reductions(f, 6)
    for i, red in enumerate(reds):
        assert red == right_mod(SkewPoly.monomial(ctx, ctx.one, i), f)


def test_skew_literals():
    ctx = finite_ctx(2, 3)
    rng = random.Random(16)
    for _ in range(15):
        f = random_skew(ctx, 4, rng)
        assert skew_from_literal(ctx, skew_to_literal(f)) == f
    ff = FunctionFieldCtx(3)
    lit = "x^2+(t^2+1)/(t^2+t+1)"
    f = skew_from_literal(ff, lit)
    assert skew_to_literal(f) == lit
    assert skew_from_literal(ctx, "x^3+(w+1)*x+1") == SkewPoly(
        ctx, (ctx.one, ctx.gen + ctx.one, ctx.zero, ctx.one)
    )


# ------------------------------------------ contracts beyond sigma = Frob_q --

TOWERS = {
    "F_8/F_2, sigma = a^4": finite_ctx(2, 3, sigma_exp=2),
    "F_81/F_3, sigma = a^27": finite_ctx(3, 4, sigma_exp=3),
    "F_64/F_4 (e = 2)": finite_ctx(2, 3, e=2),
    "F_64/F_4 (e = 2), sigma = a^16": finite_ctx(2, 3, e=2, sigma_exp=2),
    "F_81/F_9 (e = 2)": finite_ctx(3, 2, e=2),
}


def skew_polys(ctx, max_deg):
    return st.lists(st.integers(0, ctx.order - 1), max_size=max_deg + 1).map(
        lambda idx: SkewPoly(ctx, [ctx.elem_from_index(i) for i in idx])
    )


def tower_and_skews(count, max_deg=4):
    return st.sampled_from(sorted(TOWERS)).flatmap(
        lambda name: st.tuples(
            st.just(TOWERS[name]),
            *(skew_polys(TOWERS[name], max_deg) for _ in range(count)),
        )
    )


PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


def test_towers_twist_by_their_sigma():
    for ctx in TOWERS.values():
        a = ctx.gen
        twisted = SkewPoly.x(ctx) * SkewPoly.constant(ctx, a)
        assert twisted == SkewPoly.monomial(ctx, a ** (ctx.q**ctx.sigma_exp), 1)
        assert len(ctx.k_basis) == ctx.e


@PROPERTY
@given(tower_and_skews(2))
def test_right_divmod_contract(args):
    _, f, g = args
    if not g:
        with pytest.raises(ZeroDivisionError):
            right_divmod(f, g)
        return
    q, r = right_divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@PROPERTY
@given(tower_and_skews(3, max_deg=3))
def test_gcrd_contract(args):
    _, a, b, c = args
    # a common right factor c makes nontrivial gcrds common
    f, g = a * c, b * c
    if not f and not g:
        with pytest.raises(ValueError):
            gcrd(f, g)
        return
    d = gcrd(f, g)
    assert d.is_monic()
    assert right_divides(d, f) and right_divides(d, g)
    d2, u, v = gcrd_extended(f, g)
    assert d2 == d and u * f + v * g == d
    if c:
        assert right_divides(c, d)


# ------------------------------------------- SkewPoly as a twisted Poly ----


def test_skew_structure_stays_skew_and_divides_on_the_right():
    rng = random.Random(15)
    for ctx in (finite_ctx(3, 2), FunctionFieldCtx(3)):
        x = SkewPoly.x(ctx)
        for _ in range(8):
            f = random_skew(ctx, 4, rng, nonzero=True)
            g = random_skew(ctx, 3, rng, nonzero=True)
            c = random_elem(ctx, rng)
            results = (f + g, f - g, -f, f.shift(2), f.scale_left(c), f.monic(),
                       f * g, f**2, *divmod(f, g), f % g, f // g, f.gcd(g))
            assert all(type(h) is SkewPoly for h in results)
            # shifting multiplies by x^k on the right
            assert f.shift(2) == f * x * x
            assert divmod(f, g) == right_divmod(f, g)
            assert f.gcd(g) == gcrd(f, g) == gcrd_extended(f, g)[0]
            assert f**3 == f * f * f


def test_commutative_only_methods_refuse_skew_polynomials():
    ctx = finite_ctx(3, 2)
    f = SkewPoly(ctx, (ctx.gen, ctx.one, ctx.one))
    g = SkewPoly.x(ctx) + SkewPoly.one(ctx)
    with pytest.raises(TypeError):
        pow(f, 2, g)
    with pytest.raises(TypeError):
        f.evaluate(ctx.gen)


def test_skew_poly_never_equals_a_poly():
    ctx = finite_ctx(3, 2)
    f = SkewPoly(ctx, (ctx.gen, ctx.one))
    pairs = ((f, Poly(ctx, f.coeffs)), (SkewPoly.zero(ctx), Poly.zero(ctx)))
    for skew, plain in pairs:
        assert skew.coeffs == plain.coeffs
        assert skew != plain and plain != skew
        assert not skew == plain and not plain == skew
    # equal coefficients over another context are not equal either
    other = finite_ctx(3, 2)
    assert SkewPoly.zero(ctx) != SkewPoly.zero(other)
    assert hash(f) == hash(SkewPoly(ctx, f.coeffs))


def test_skew_arithmetic_with_sigma_the_identity_is_commutative():
    # n = 1: sigma = id, so the twisted loops must give Poly's results
    rng = random.Random(18)
    for ctx in (finite_ctx(2, 1, e=2), finite_ctx(3, 1, e=2)):
        assert ctx.sigma(ctx.gen) == ctx.gen
        for _ in range(15):
            f = random_skew(ctx, 4, rng)
            g = random_skew(ctx, 3, rng, nonzero=True)
            pf, pg = Poly(ctx, f.coeffs), Poly(ctx, g.coeffs)
            assert (f * g).coeffs == (pf * pg).coeffs == (g * f).coeffs
            q, r = divmod(f, g)
            pq, pr = divmod(pf, pg)
            assert (q.coeffs, r.coeffs) == (pq.coeffs, pr.coeffs)
            assert f.gcd(g).coeffs == pf.gcd(pg).coeffs


def test_right_division_by_divisors_whose_lead_sigma_moves():
    # each quotient term divides by sigma^k(lead g), not by lead g
    rng = random.Random(19)
    for ctx in (finite_ctx(2, 3, e=2), FunctionFieldCtx(3)):
        for _ in range(10):
            g = random_skew(ctx, 2, rng, nonzero=True)
            while g.degree < 1 or ctx.is_in_K(g.lead):
                g = random_skew(ctx, 2, rng, nonzero=True)
            f = random_skew(ctx, 5, rng)
            while f.degree < g.degree + 2:
                f = random_skew(ctx, 5, rng)
            q, r = divmod(f, g)
            assert q * g + r == f and r.degree < g.degree
