"""Field contexts: arithmetic, automorphisms, norms, squares, literals."""

import itertools
import random

import pytest

from skewlab.fields import (
    AutMap,
    FieldError,
    FiniteFieldCtx,
    FunctionFieldCtx,
    LiteralError,
    apply_aut,
    elem_from_literal,
    elem_to_literal,
    field_from_inline,
    field_from_spec,
    finite_elem_from_literal,
    finite_elem_to_literal,
    funcfield_elem_from_literal,
    funcfield_elem_to_literal,
    in_fixed_field,
    is_square_in_base,
    norm_to_fixed,
)

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
        assert apply_aut(rho, a + b) == apply_aut(rho, a) + apply_aut(rho, b)
        assert apply_aut(rho, a * b) == apply_aut(rho, a) * apply_aut(rho, b)


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
    assert not is_square_in_base(ctx.from_int(2))
    assert is_square_in_base(ctx.one)
    assert is_square_in_base(ctx.zero)
    with pytest.raises(FieldError):
        is_square_in_base(ctx.gen)  # not in K


def test_funcfield_sigma_and_fixed_elements():
    ff = FunctionFieldCtx(3)
    sigma = AutMap.sigma_power(ff, 1)
    assert funcfield_elem_to_literal(ff.sigma(ff.t)) == "(1)/(t)"
    f0 = ff.elem((1, 0, 1), (1, 1, 1))
    assert ff.sigma(f0) == f0
    assert in_fixed_field(ff.s_ff, sigma)
    assert not in_fixed_field(ff.t, sigma)
    c8 = finite_ctx(2, 3)
    assert not in_fixed_field(c8.gen, AutMap.sigma_power(c8, 1))


def test_funcfield_norm_of_one_plus_t():
    for r in (3, 5):
        ff = FunctionFieldCtx(r)
        sigma = AutMap.sigma_power(ff, 1)
        gamma = ff.one + ff.t
        expected = (ff.one + ff.t) ** (2 * r) / ff.t**r
        assert norm_to_fixed(gamma, sigma) == expected
        assert not is_square_in_base(expected, ff)


def test_funcfield_squares_detected():
    rng = random.Random(3)
    ff = FunctionFieldCtx(3)
    sigma = AutMap.sigma_power(ff, 1)
    for _ in range(10):
        b = ff.random_elem(rng, max_deg=1)
        if not b:
            continue
        a = norm_to_fixed(b, sigma)
        assert is_square_in_base(a * a, ff)


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


def test_autmap_compose_and_order():
    ctx = finite_ctx(3, 4)
    rho = AutMap.frobenius_power(ctx, 1)
    sigma = AutMap.sigma_power(ctx, 1)
    assert rho.compose(rho.inverse()).is_identity()
    assert sigma.order() == 4
    assert rho.inverse().compose(sigma).order() in (1, 2, 4)
    a = ctx.random_elem(random.Random(0))
    assert rho.compose(sigma).apply(a) == rho.apply(sigma.apply(a))
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
    assert ctx.k_basis == ctx.fixed_basis(ctx._sig) and len(ctx.k_basis) == e
