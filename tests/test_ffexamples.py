"""The F_{2^r}(t) verification suite and its negative controls."""

import random

import pytest

from skewlab.ffexamples import (
    CHECKS,
    SuiteInstance,
    f_cofactor,
    run_suite,
    verify_f_bound,
    verify_g_bound,
    verify_gamma_example,
    verify_sff_rewrite,
    verify_sigma_order,
)
from skewlab.polyring import Poly, FracElem
from skewlab.skewpoly import SkewPoly


def test_suite_passes_for_r_3_5_7():
    results = run_suite([3, 5, 7])
    assert all(ok for (_, _, ok) in results)
    assert len(results) == 3 * len(CHECKS)


def test_sigma_order_and_tau_alone():
    inst = SuiteInstance(3)
    assert verify_sigma_order(inst)
    # tau alone has order r = 3, not 2r
    ctx = inst.ctx
    a = ctx.w + ctx.t
    assert ctx.tau(ctx.tau(ctx.tau(a))) == a
    assert ctx.tau(a) != a


def test_f_bound_negative_control():
    inst = SuiteInstance(3)
    assert verify_f_bound(inst)
    perturbed = f_cofactor(inst) + SkewPoly.one(inst.ctx)
    assert not verify_f_bound(inst, cofactor=perturbed)


def test_gamma_negative_control():
    inst = SuiteInstance(3)
    assert verify_gamma_example(inst)
    assert not verify_gamma_example(inst, gamma=inst.ctx.s_ff)


def test_g_bound_details():
    inst = SuiteInstance(5)
    assert verify_g_bound(inst)


def test_sff_rewrite_examples_through_coordinates():
    inst = SuiteInstance(3)
    assert verify_sff_rewrite(inst)
    # t lies outside K: its coordinates are those of the basis vector w^0 t
    ctx = inst.ctx
    K0 = ctx.K0
    assert ctx.coords_over_K(ctx.t) == [K0.zero, K0.one] + [K0.zero] * (ctx.n - 2)


def test_palindromic_fractions_round_trip_through_coordinates():
    # sum a_i t^(2i) / t^ell with a_i = a_(ell-i) in F_2 and ell odd lies in
    # K: its coordinates are (P(s), 0, ..., 0), deg P = ell when a_0 = 1
    rng = random.Random(19)
    ctx = SuiteInstance(3).ctx
    cf = ctx.coeff_field
    for ell in (1, 3, 5, 7, 9):
        for _ in range(20):
            half = [rng.randrange(2) for _ in range((ell + 1) // 2)]
            a = half + half[::-1]
            num_coeffs = []
            for ai in a:
                num_coeffs.append(cf.from_int(ai))
                num_coeffs.append(cf.zero)
            num = Poly(cf, num_coeffs[:-1])
            den = Poly(cf, [cf.zero] * ell + [cf.one])
            rt = FracElem(ctx.rat, num, den)
            coords = ctx.coords_over_K(rt)
            P = coords[0]
            assert not any(coords[1:]) and P.den.degree == 0
            if a[0] == 1:
                assert P.num.degree == ell
            else:
                assert P.num.degree < ell
            assert ctx.from_coords(coords) == rt


def test_run_suite_argument_validation():
    with pytest.raises(ValueError):
        run_suite([4])
    with pytest.raises(ValueError):
        run_suite([11])  # above the default cap
    with pytest.raises(ValueError):
        run_suite([3], checks=["no-such-check"])
    results = run_suite([3], checks=["f-bound"])
    assert results == [(3, "f-bound", True)]
