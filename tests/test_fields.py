"""Field contexts: arithmetic, automorphisms, norms, squares, literals."""

import itertools
import math
import random

import pytest

from skewlab.fields import (
    AutMap,
    FieldError,
    FiniteFieldCtx,
    FunctionFieldCtx,
    GFCtx,
    LiteralError,
    TABLE_LIMIT,
    elem_from_literal,
    elem_to_literal,
    field_from_inline,
    field_from_spec,
    finite_elem_from_literal,
    finite_elem_to_literal,
    funcfield_elem_from_literal,
    funcfield_elem_to_literal,
    norm_to_fixed,
)

from skewlab.polyring import Poly

from helpers import finite_ctx, random_elem


def test_canonical_modulus_f8():
    ctx = finite_ctx(2, 3)
    assert ctx.modulus == (1, 1, 0, 1)  # w^3 + w + 1


def test_sigma_frobenius_f4():
    ctx = finite_ctx(2, 2)
    w = ctx.gen
    assert finite_elem_to_literal(ctx.sigma(w)) == "w+1"


def test_sigma_order_exact():
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 4)):
        ctx = finite_ctx(p, n)
        w = ctx.gen
        assert ctx.sigma_pow(w, n) == w
        for d in range(1, n):
            if n % d == 0:
                assert ctx.sigma_pow(w, d) != w


def test_fixed_field_is_K():
    ctx = finite_ctx(3, 4)
    assert len(ctx.k_basis) == 1
    assert all(ctx.is_in_K(b) for b in ctx.k_basis)


def test_sigma_exp_must_be_coprime():
    with pytest.raises(FieldError):
        FiniteFieldCtx(2, 1, 4, sigma_exp=2)


def test_field_axioms_random():
    rng = random.Random(11)
    ctx = finite_ctx(3, 4)
    ff = FunctionFieldCtx(3)
    for field in (ctx, ff):
        for _ in range(40):
            a = random_elem(field, rng)
            b = random_elem(field, rng)
            c = random_elem(field, rng)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + field.zero == a and a * field.one == a
            if b:
                assert (a / b) * b == a


def test_apply_aut_is_homomorphism():
    rng = random.Random(5)
    ctx = finite_ctx(3, 4)
    rho = AutMap.frobenius_power(ctx, 1)
    for _ in range(30):
        a, b = ctx.random_elem(rng), ctx.random_elem(rng)
        assert rho.apply(a + b) == rho.apply(a) + rho.apply(b)
        assert rho.apply(a * b) == rho.apply(a) * rho.apply(b)


def test_norm_orbit_product_f8():
    ctx = finite_ctx(2, 3)
    sigma = AutMap.sigma_power(ctx, 1)
    assert norm_to_fixed(ctx.gen, sigma) == ctx.one  # w * w^2 * w^4 = w^7
    assert norm_to_fixed(ctx.one, sigma) == ctx.one
    assert not norm_to_fixed(ctx.zero, sigma)


def test_norm_multiplicative():
    rng = random.Random(7)
    ctx = finite_ctx(3, 4)
    sigma = AutMap.sigma_power(ctx, 1)
    for _ in range(25):
        a, b = ctx.random_elem(rng), ctx.random_elem(rng)
        assert norm_to_fixed(a * b, sigma) == norm_to_fixed(a, sigma) * norm_to_fixed(
            b, sigma
        )


def test_is_square_finite():
    ctx = finite_ctx(3, 2)
    assert not ctx.is_square_in_K(ctx.from_int(2))
    assert ctx.is_square_in_K(ctx.one)
    assert ctx.is_square_in_K(ctx.zero)
    with pytest.raises(FieldError):
        ctx.is_square_in_K(ctx.gen)  # not in K


def test_funcfield_sigma_and_fixed_elements():
    ff = FunctionFieldCtx(3)
    sigma = AutMap.sigma_power(ff, 1)
    assert funcfield_elem_to_literal(ff.sigma(ff.t)) == "(1)/(t)"
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    assert ff.sigma(f0) == f0
    assert sigma.apply(ff.s_ff) == ff.s_ff
    assert sigma.apply(ff.t) != ff.t
    c8 = finite_ctx(2, 3)
    assert AutMap.sigma_power(c8, 1).apply(c8.gen) != c8.gen


def test_funcfield_norm_of_one_plus_t():
    for r in (3, 5):
        ff = FunctionFieldCtx(r)
        sigma = AutMap.sigma_power(ff, 1)
        gamma = ff.one + ff.t
        expected = (ff.one + ff.t) ** (2 * r) / ff.t**r
        assert norm_to_fixed(gamma, sigma) == expected
        assert not ff.is_square_in_K(expected)


def test_funcfield_squares_detected():
    rng = random.Random(3)
    ff = FunctionFieldCtx(3)
    sigma = AutMap.sigma_power(ff, 1)
    for _ in range(10):
        b = ff.random_elem(rng, max_deg=1)
        if not b:
            continue
        a = norm_to_fixed(b, sigma)
        assert ff.is_square_in_K(a * a)


def test_funcfield_sigma_squared_is_tau_squared():
    rng = random.Random(9)
    ff = FunctionFieldCtx(3)
    for _ in range(10):
        a = ff.random_elem(rng, max_deg=1)
        assert ff.sigma_pow(a, 2) == ff.tau(a, 2)
    # theta and tau commute
    for _ in range(10):
        a = ff.random_elem(rng, max_deg=1)
        assert ff.theta(ff.tau(a)) == ff.tau(ff.theta(a))


def test_funcfield_sigma_order():
    ff = FunctionFieldCtx(3)
    probes = [ff.t, ff.w, ff.t + ff.w]
    assert all(ff.sigma_pow(a, 6) == a for a in probes)
    for d in (1, 2, 3):
        assert any(ff.sigma_pow(a, d) != a for a in probes)


def test_coords_over_K_roundtrip():
    rng = random.Random(17)
    ff = FunctionFieldCtx(3)
    for _ in range(15):
        a = ff.random_elem(rng, max_deg=2)
        assert ff.from_coords(ff.coords_over_K(a)) == a
    assert ff.from_coords(ff.coords_over_K(ff.zero)) == ff.zero


@pytest.mark.parametrize("p, e, n", [(3, 1, 4), (2, 1, 3), (3, 2, 2), (2, 2, 2)])
def test_finite_coords_over_K_roundtrip(p, e, n):
    # e = 2: the K-coordinates are elements of K = F_(p^2) inside L
    rng = random.Random(p * 100 + e * 10 + n)
    ctx = FiniteFieldCtx(p, e, n)
    assert ctx.K0 is ctx and len(ctx.l_basis) == n
    for i, b in enumerate(ctx.l_basis):
        assert ctx.coords_over_K(b) == [ctx.one if j == i else ctx.zero for j in range(n)]
    for _ in range(20):
        a = ctx.random_elem(rng)
        coords = ctx.coords_over_K(a)
        assert all(ctx.is_in_K(c) for c in coords)
        assert ctx.from_coords(coords) == a
        c = [ctx.combine([rng.randrange(p) for _ in range(e)], ctx.k_basis)
             for _ in range(n)]
        assert ctx.coords_over_K(ctx.from_coords(c)) == c


@pytest.mark.parametrize("r", [3, 5])
def test_funcfield_coords_over_K_roundtrip(r):
    # denominators outside F_2[t] (cleared by the lcm of their tau-images)
    # and inside it (their own lcm)
    rng = random.Random(r)
    ff = FunctionFieldCtx(r)
    K0 = ff.K0
    cf = ff.coeff_field
    for i, b in enumerate(ff.l_basis):
        assert ff.coords_over_K(b) == [K0.one if j == i else K0.zero for j in range(ff.n)]
    outside = 0
    for _ in range(10):
        a = ff.random_elem(rng, max_deg=3)
        outside += any(any(c.coeffs[1:]) for c in a.den.coeffs)
        num = [cf.random_elem(rng) for _ in range(4)]
        b = ff.elem(num, [rng.randrange(2) for _ in range(3)] + [1])
        for x in (a, b):
            assert ff.from_coords(ff.coords_over_K(x)) == x
    assert outside
    # elements of K have the coordinates (c, 0, ..., 0)
    gf2 = K0.coeff_field

    def f2_poly(k):
        return Poly(gf2, [gf2.from_int(rng.randrange(2)) for _ in range(k)])

    for _ in range(5):
        c = K0.from_polys(f2_poly(4), f2_poly(3) + Poly.gen(gf2) ** 3)
        assert ff.coords_over_K(ff.embed_K0(c)) == [c] + [K0.zero] * (ff.n - 1)


def test_finite_literals_roundtrip():
    rng = random.Random(23)
    ctx = finite_ctx(3, 4)
    for _ in range(20):
        a = ctx.random_elem(rng)
        assert finite_elem_from_literal(ctx, finite_elem_to_literal(a)) == a
    assert finite_elem_to_literal(ctx.zero) == "0"
    assert finite_elem_from_literal(ctx, "2*w^3+w+1") == ctx.from_int(
        2
    ) * ctx.gen**3 + ctx.gen + ctx.one


def test_funcfield_literals_roundtrip():
    rng = random.Random(29)
    ff = FunctionFieldCtx(3)
    for _ in range(20):
        a = ff.random_elem(rng, max_deg=2)
        assert funcfield_elem_from_literal(ff, funcfield_elem_to_literal(a)) == a
    lit = "(t^2+1)/(t^2+t+1)"
    assert funcfield_elem_to_literal(funcfield_elem_from_literal(ff, lit)) == lit
    assert funcfield_elem_from_literal(ff, "w*t^2+(w+1)*t") == ff.w * ff.t**2 + (
        ff.w + ff.one
    ) * ff.t


def test_literal_errors_carry_position():
    ctx = finite_ctx(2, 3)
    with pytest.raises(LiteralError):
        finite_elem_from_literal(ctx, "w^")
    with pytest.raises(LiteralError):
        finite_elem_from_literal(ctx, "1++w")
    ff = FunctionFieldCtx(3)
    with pytest.raises(LiteralError):
        funcfield_elem_from_literal(ff, "t^^2")


def test_context_mismatch_raises():
    a = finite_ctx(2, 3).gen
    b = finite_ctx(3, 2).gen
    with pytest.raises(FieldError):
        a + b


def test_field_from_spec_and_inline():
    ctx = field_from_spec({"kind": "finite", "p": 2, "e": 1, "n": 3})
    assert ctx.q == 2 and ctx.n == 3
    ctx2 = field_from_inline("finite:p=3,e=1,n=4,sigma_exp=3")
    assert ctx2.sigma_exp == 3
    ff = field_from_inline("funcfield:r=3")
    assert ff.n == 6
    with pytest.raises(FieldError):
        field_from_spec({"kind": "finite", "p": 4, "e": 1, "n": 2})
    # explicit modulus accepted for e = 1
    ctx3 = field_from_spec(
        {"kind": "finite", "p": 2, "e": 1, "n": 3, "modulus": [1, 1, 0, 1]}
    )
    assert ctx3.modulus == (1, 1, 0, 1)
    with pytest.raises(FieldError):
        field_from_spec(
            {"kind": "finite", "p": 2, "e": 2, "n": 2, "modulus": [1, 1, 0, 0, 1]}
        )


def test_elem_literal_dispatch():
    ctx = finite_ctx(2, 3)
    assert elem_to_literal(elem_from_literal(ctx, "w+1")) == "w+1"
    ff = FunctionFieldCtx(3)
    assert elem_to_literal(elem_from_literal(ff, "1/t")) == "(1)/(t)"


def test_autmap_order_and_apply():
    ctx = finite_ctx(3, 4)
    rho = AutMap.frobenius_power(ctx, 1)
    sigma = AutMap.sigma_power(ctx, 1)
    assert sigma.order() == 4
    assert AutMap(ctx, -1).order() == 4 and AutMap.identity(ctx).order() == 1
    a = ctx.random_elem(random.Random(0))
    assert rho.apply(a) == a**3 and sigma.apply(a) == a**3
    assert AutMap(ctx, 2).apply(a) == rho.apply(rho.apply(a))
    ff = FunctionFieldCtx(3)
    sff = AutMap.sigma_power(ff, 1)
    assert sff.order() == 6
    assert AutMap.sigma_power(ff, 3).order() == 2  # theta itself


def test_tower_with_e_greater_than_one():
    ctx = FiniteFieldCtx(2, 2, 2)  # K = F_4 inside L = F_16
    assert ctx.q == 4 and len(ctx.k_basis) == 2
    w = ctx.gen
    assert ctx.sigma_pow(w, 2) == w
    assert ctx.sigma(w) != w
    for b in ctx.k_basis:
        assert ctx.is_in_K(b)


@pytest.mark.parametrize(
    "p,e,n,sigma_exp", [(2, 2, 2, 1), (2, 2, 3, 2), (3, 1, 4, 3), (2, 1, 6, 1)]
)
def test_fixed_basis_matches_definition(p, e, n, sigma_exp):
    # the F_p-span of fixed_basis(h) is exactly {a : a^(p^h) = a}
    ctx = FiniteFieldCtx(p, e, n, sigma_exp)
    elems = [ctx.elem_from_index(i) for i in range(ctx.order)]
    for h in range(ctx.dim + 1):
        basis = ctx.fixed_basis(h)
        fixed = {a for a in elems if a ** (p**h) == a}
        span = {
            ctx.combine(c, basis)
            for c in itertools.product(range(p), repeat=len(basis))
        }
        assert len(span) == p ** len(basis) and span == fixed
    assert ctx.k_basis == ctx.fixed_basis(ctx.sig) and len(ctx.k_basis) == e


@pytest.mark.parametrize(
    "p,e,n,sigma_exp", [(2, 2, 3, 2), (2, 2, 2, 1), (3, 2, 2, 1), (2, 1, 6, 5)]
)
def test_join_fixes_the_intersection(p, e, n, sigma_exp):
    # Fix(rho.join(sigma)) = Fix(rho) cap K, counted by fixed_basis dimension
    ctx = FiniteFieldCtx(p, e, n, sigma_exp)
    sigma = AutMap.sigma_power(ctx, 1)
    elems = [ctx.elem_from_index(i) for i in range(ctx.order)]
    for h in range(ctx.dim):
        rho = AutMap.frobenius_power(ctx, h)
        both = sum(1 for a in elems if rho.apply(a) == a and ctx.is_in_K(a))
        assert p ** len(ctx.fixed_basis(rho.join(sigma).exp)) == both
        assert rho.join(sigma).exp == math.gcd(h, e)


def test_join_with_sigma_over_funcfield_is_sigma():
    ff = FunctionFieldCtx(3)
    sigma = AutMap.sigma_power(ff, 1)
    for k in range(ff.n):
        assert AutMap.sigma_power(ff, k).join(sigma).exp == 1


def test_tower_interface_of_both_families():
    # sigma = aut^sig inside a cyclic group of order aut_order, and the norm
    # is the orbit product of sigma
    rng = random.Random(11)
    for ctx in (FiniteFieldCtx(2, 2, 3, 2), FunctionFieldCtx(3)):
        a = random_elem(ctx, rng)
        assert ctx.sigma(a) == ctx.aut(a, ctx.sig)
        assert ctx.aut(a, ctx.aut_order) == a
        assert ctx.sigma_pow(a, ctx.n) == a
        expected = a
        for i in range(1, ctx.n):
            expected = expected * ctx.sigma_pow(a, i)
        assert ctx.norm(a) == expected and ctx.is_in_K(expected)


# ----------------------------------------- arithmetic against an oracle ----
#
# The oracle is the coordinate-tuple arithmetic finite fields used before
# they had tables: the schoolbook product reduced by the modulus, the
# coordinatewise sum, and Frobenius as a p^k-th power of those products.


def _oracle_mul(ctx, x, y):
    p, dim, mod = ctx.p, ctx.dim, ctx.modulus
    out = [0] * (2 * dim - 1)
    for i, c in enumerate(x):
        for j, d in enumerate(y):
            out[i + j] = (out[i + j] + c * d) % p
    # the modulus is monic: fold the top term down, highest degree first
    for k in range(2 * dim - 2, dim - 1, -1):
        c = out[k]
        if c:
            for j in range(dim + 1):
                out[k - dim + j] = (out[k - dim + j] - c * mod[j]) % p
    return tuple(out[:dim])


def _oracle_pow(ctx, x, e):
    result = (1,) + (0,) * (ctx.dim - 1)
    for bit in bin(e)[2:]:
        result = _oracle_mul(ctx, result, result)
        if bit == "1":
            result = _oracle_mul(ctx, result, x)
    return result


def _oracle_add(ctx, x, y, sign=1):
    return tuple((a + sign * b) % ctx.p for a, b in zip(x, y))


def _oracle_digits(ctx, i):
    """Element i's coordinates: base-p digits, the constant most significant."""
    out = []
    for _ in range(ctx.dim):
        i, d = divmod(i, ctx.p)
        out.append(d)
    return tuple(reversed(out))


ORACLE_FIELDS = {
    "F_5": lambda: GFCtx(5, 1),
    "F_7919": lambda: GFCtx(7919, 1),
    "F_81": lambda: FiniteFieldCtx(3, 1, 4),
    "F_16_e2": lambda: FiniteFieldCtx(2, 2, 2),
    "GF(2^6)": lambda: GFCtx(2, 6),
    "GF(2^10)": lambda: GFCtx(2, 10),
    "F_3^8": lambda: FiniteFieldCtx(3, 1, 8),
    "GF(2^17)": lambda: GFCtx(2, 17),
    # the one field above TABLE_LIMIT with a prime-specific branch: the
    # inverse pow(a, -1, p)
    "F_65537": lambda: GFCtx(65537, 1),
}


def _oracle_pairs(ctx, rng):
    """Every pair of a field of order <= 81, else sampled pairs that
    include zero and one."""
    if ctx.order <= 81:
        elems = [ctx.elem_from_index(i) for i in range(ctx.order)]
        return [(a, b) for a in elems for b in elems]
    special = [ctx.zero, ctx.one, ctx.minus_one, ctx.gen]
    pairs = [(a, b) for a in special for b in special]
    samples = 400 if ctx.order > TABLE_LIMIT else 2000
    pairs += [
        (ctx.random_elem(rng), ctx.random_elem(rng)) for _ in range(samples)
    ]
    return pairs


def _check_frobenius(ctx, elems):
    for a in elems:
        for k in range(ctx.dim + 1):
            assert ctx.frobenius(a, k).coeffs == _oracle_pow(
                ctx, a.coeffs, ctx.p**k
            ), (a, k)


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_arithmetic_matches_the_tuple_oracle(name):
    ctx = ORACLE_FIELDS[name]()
    rng = random.Random(name)
    probes = [ctx.zero, ctx.one, ctx.gen] + [ctx.random_elem(rng) for _ in range(6)]
    for a, b in _oracle_pairs(ctx, rng):
        x, y = a.coeffs, b.coeffs
        assert (a * b).coeffs == _oracle_mul(ctx, x, y), (a, b)
        assert (a + b).coeffs == _oracle_add(ctx, x, y), (a, b)
        assert (a - b).coeffs == _oracle_add(ctx, x, y, -1), (a, b)
        assert (a == b) == (x == y)
        assert bool(a) == any(x)
    _check_frobenius(ctx, probes)
    for a in probes + [ctx.random_elem(rng) for _ in range(50)]:
        x = a.coeffs
        assert (-a).coeffs == _oracle_add(ctx, (0,) * ctx.dim, x, -1)
        assert a ** 0 == ctx.one and a**1 == a
        assert (a**5).coeffs == _oracle_pow(ctx, x, 5)
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        inv = a.inverse()
        assert _oracle_mul(ctx, x, inv.coeffs) == ctx.one.coeffs
        assert a ** -2 == inv * inv
        # equal elements made two ways are equal and hash alike
        twin = ctx.elem(x)
        assert twin == a and hash(twin) == hash(a)


@pytest.mark.parametrize("name", ["F_5", "F_81", "F_16_e2", "GF(2^6)"])
def test_elem_from_index_order(name):
    ctx = ORACLE_FIELDS[name]()
    elems = [ctx.elem_from_index(i) for i in range(ctx.order)]
    assert [a.coeffs for a in elems] == [
        _oracle_digits(ctx, i) for i in range(ctx.order)
    ]
    assert len(set(elems)) == ctx.order
    assert all(a.i == i for i, a in enumerate(elems))


@pytest.mark.parametrize("name", ["F_5", "F_81", "GF(2^6)", "GF(2^17)"])
def test_elem_from_index_rejects_indices_out_of_range(name):
    ctx = ORACLE_FIELDS[name]()
    for idx in (ctx.order, ctx.order + 5, -1, -ctx.order):
        with pytest.raises(ValueError):
            ctx.elem_from_index(idx)


def _primes_up_to(n):
    sieve = [True] * (n + 1)
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    return [d for d in range(2, n + 1) if sieve[d]]


def test_finite_tower_refuses_p_from_2_to_the_31():
    # np_rank multiplies two residues in int64
    with pytest.raises(FieldError):
        FiniteFieldCtx(4294967311, 1, 2)
    assert FiniteFieldCtx(2**31 - 1, 1, 2).p == 2**31 - 1


def test_construction_builds_the_tables_up_to_the_limit():
    for p in _primes_up_to(6561):
        fp = GFCtx(p, 1)
        assert len(fp._elems) == len(fp._log) == p, p
    for ctx in (FiniteFieldCtx(3, 1, 8), GFCtx(2, 16)):
        assert len(ctx._elems) == len(ctx._log) == ctx.order
    # above the limit no table is ever built
    for big in (GFCtx(2, 17), GFCtx(65537, 1)):
        big.gen * big.gen + big.one
        big.gen.inverse()
        assert big._log is None and big._elems is None
