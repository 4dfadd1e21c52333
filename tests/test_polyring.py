"""Commutative polynomials: Rabin's irreducibility test, the canonical field
moduli, and the Euclidean contracts of Poly over F_p and an e = 2 tower."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from skewlab.fields import TABLE_LIMIT, FiniteFieldCtx, GFCtx
from skewlab.modpoly import digits
from skewlab.polyring import (
    Poly,
    RatFuncCtx,
    ext_gcd,
    irreducible_over,
    power,
    prime_divisors,
)
from skewlab.skewpoly import CentralPoly, central_is_irreducible

from helpers import base_field_elems


def mobius(n):
    primes = prime_divisors(n)
    if any(n % (r * r) == 0 for r in primes):
        return 0
    return (-1) ** len(primes)


def gauss_count(q, d):
    """Monic irreducibles of degree d over F_q: (1/d) sum_{k|d} mu(d/k) q^k."""
    total = sum(mobius(d // k) * q**k for k in range(1, d + 1) if d % k == 0)
    assert total % d == 0
    return total // d


def test_prime_divisors():
    assert [prime_divisors(n) for n in (0, 1, 2, 12, 97, 360)] == [
        [], [], [2], [2, 3], [97], [2, 3, 5],
    ]


# d = 6 is the first degree with two prime divisors, so both gcd steps count
@pytest.mark.parametrize(
    "p, d", [(p, d) for p in (2, 3, 5) for d in (1, 2, 3, 4)] + [(2, 6), (3, 6)]
)
def test_rabin_accepts_gauss_count_over_prime_fields(p, d):
    fp = GFCtx(p, 1)
    elems = [fp.from_int(c) for c in range(p)]
    accepted = sum(
        irreducible_over(Poly(fp, list(low) + [fp.one]), p)
        for low in itertools.product(elems, repeat=d)
    )
    assert accepted == gauss_count(p, d)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_rabin_accepts_gauss_count_over_e2_towers(p, d):
    # K = F_4 or F_9 inside L = F_16 or F_81: the coefficients lie in a
    # proper subfield of the Poly's field, as for the central F(y)
    ctx = FiniteFieldCtx(p, 2, 2)
    K = base_field_elems(ctx)
    accepted = sum(
        central_is_irreducible(CentralPoly.from_coeffs(ctx, list(low) + [ctx.one]))
        for low in itertools.product(K, repeat=d)
    )
    assert accepted == gauss_count(ctx.q, d)


def _has_nonzero_remainder(f, g, p):
    """f mod g != 0 for int-tuple polynomials over F_p, g monic."""
    r = list(f)
    k = len(g) - 1
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            for j in range(k + 1):
                r[i - k + j] = (r[i - k + j] - c * g[j]) % p
    return any(r[:k])


def _monic(idx, p, d):
    """Candidate idx of degree d in the modulus order: y^d + c with
    c_0 + c_1*p + ... + c_{d-1}*p^(d-1) = idx."""
    return tuple(reversed(digits(idx, p, d))) + (1,)


def _first_without_small_factor(p, d):
    """First candidate with no monic factor of degree 1..d/2, by trial
    division."""
    for idx in range(p**d):
        f = _monic(idx, p, d)
        if all(
            _has_nonzero_remainder(f, _monic(j, p, k), p)
            for k in range(1, d // 2 + 1)
            for j in range(p**k)
        ):
            return f
    raise AssertionError("no irreducible candidate")


def _primes_up_to(n):
    return [
        p for p in range(2, n + 1) if all(p % r for r in range(2, int(p**0.5) + 1))
    ]


LIMIT = 3**8


@pytest.mark.parametrize("d", range(1, 13))
def test_default_modulus_matches_trial_division(d):
    pairs = [(p, d) for p in _primes_up_to(LIMIT) if p**d <= LIMIT]
    assert pairs
    for p, d in pairs:
        assert GFCtx(p, d).modulus == _first_without_small_factor(p, d), (p, d)


# ------------------------------------------------- Euclidean contracts ----


FIELDS = {
    "F_2": GFCtx(2, 1),
    "F_5": GFCtx(5, 1),
    "F_81 (e = 2)": FiniteFieldCtx(3, 2, 2),
}


def polys(field, max_deg=6):
    return st.lists(
        st.integers(0, field.order - 1), max_size=max_deg + 1
    ).map(lambda idx: Poly(field, [field.elem_from_index(i) for i in idx]))


def field_and_polys(count, max_deg=6):
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(
            st.just(FIELDS[name]),
            *(polys(FIELDS[name], max_deg) for _ in range(count)),
        )
    )


PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@PROPERTY
@given(field_and_polys(2))
def test_divmod_contract(args):
    _, a, b = args
    if not b:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@PROPERTY
@given(field_and_polys(3, max_deg=4))
def test_gcd_and_ext_gcd_contract(args):
    field, a, b, c = args
    # a common factor c makes nontrivial gcds common
    a, b = a * c, b * c
    g = a.gcd(b)
    if not a and not b:
        assert not g
        with pytest.raises(ValueError):
            ext_gcd(a, b)
        return
    assert g.lead == field.one
    assert not a % g and not b % g
    g2, u, v = ext_gcd(a, b)
    assert g2 == g and u * a + v * b == g
    if c:
        assert not g % c.monic()


@PROPERTY
@given(field_and_polys(2, max_deg=4), st.integers(0, 40))
def test_modular_pow_contract(args, e):
    _, a, m = args
    if not m:
        return
    assert pow(a, e, m) == (a**e) % m
    assert pow(a, e, m).degree < max(m.degree, 1)


# ----------------------------------------------------- square-and-multiply --


def repeated_product(x, e, one):
    out = one
    for _ in range(e):
        out = out * x
    return out


def test_power_matches_repeated_products_above_the_table_limit():
    # GF(2^17) has no tables: powers and Frobenius images multiply
    # coordinate tuples through power
    F = GFCtx(2, 17)
    assert F.order > TABLE_LIMIT
    for idx in (1, 2, 12345, F.order - 1):
        a = F.elem_from_index(idx)
        for e in range(20):
            assert a**e == repeated_product(a, e, F.one)
        assert a**-3 * a**3 == F.one
        assert F.frobenius(a) == a * a
        assert F.frobenius(a, 3) == repeated_product(a, 8, F.one)


def test_power_of_fractions_with_negative_exponents():
    fp = GFCtx(3, 1)
    R = RatFuncCtx(fp)
    t = R.gen
    a = (t * t + R.one) / (t + R.one + R.one)
    for e in range(8):
        assert a**-e == repeated_product(a.inverse(), e, R.one)
        assert a**e * a**-e == R.one
    with pytest.raises(ZeroDivisionError):
        R.zero**-1


def test_power_of_polys_with_a_modulus():
    fp = GFCtx(5, 1)
    f = Poly(fp, [fp.from_int(c) for c in (2, 0, 3, 1)])
    mod = Poly(fp, [fp.from_int(c) for c in (1, 4, 0, 0, 1)])
    for e in range(12):
        assert pow(f, e, mod) == repeated_product(f, e, Poly.one(fp)) % mod
        assert f**e == repeated_product(f, e, Poly.one(fp))
    assert pow(f, 0, Poly.one(fp)) == Poly.zero(fp)
    with pytest.raises(ValueError):
        power(f, -1, Poly.one(fp))


def test_digits_reject_indices_out_of_range():
    assert digits(0, 3, 0) == []
    assert digits(8, 3, 2) == [2, 2]
    for idx, count in ((9, 2), (-1, 2), (1, 0)):
        with pytest.raises(ValueError):
            digits(idx, 3, count)
