"""Verification suite for the explicit F_{2^r}(t) skew polynomial examples.

For odd r >= 3 the ring F_{2^r}(t)[x; sigma] contains f = x^2 + f0 with
f0 = (t^2+1)/(t^2+t+1), whose bound F(y) = y + f0^r has degree 1 (so the
degree ratio is 2), and g = x^2 + 1/t, whose bound
G(y) = y^2 + ((t^(2r)+1)/t^r) y + 1 has degree 2 (ratio 1).  Every finitely
checkable identity around these examples is verified exactly here.
"""

from math import comb

from .fields import FunctionFieldCtx
from .skewpoly import SkewPoly, bound, left_divides, right_divides


class SuiteInstance:
    """One odd r with its context and the two catalogued polynomials."""

    def __init__(self, r):
        ctx = FunctionFieldCtx(r)
        self.r = r
        self.ctx = ctx
        self.f0 = ctx.elem((1, 0, 1), (1, 1, 1))
        x = SkewPoly.x(ctx)
        self.f = x * x + SkewPoly.constant(ctx, self.f0)
        self.g = x * x + SkewPoly.constant(ctx, ctx.one / ctx.t)
        self.F_expected = (self.f0**r, ctx.one)
        g1 = ctx.elem((1,) + (0,) * (2 * r - 1) + (1,), (0,) * r + (1,))
        self.G_expected = (ctx.one, g1, ctx.one)
        self.gamma = ctx.one + ctx.t


def verify_sigma_order(inst):
    """sigma has order exactly n = 2r, tested on t and the coefficient
    field generator."""
    ctx = inst.ctx
    n = ctx.n
    probes = [ctx.t, ctx.w]
    if any(ctx.sigma_pow(a, n) != a for a in probes):
        return False
    for d in range(1, n):
        if n % d:
            continue
        if all(ctx.sigma_pow(a, d) == a for a in probes):
            return False
    return True


def f_cofactor(inst):
    """The explicit cofactor sum_{i=0}^{r-1} f0^i x^(n-2-2i)."""
    ctx = inst.ctx
    acc = SkewPoly.zero(ctx)
    for i in range(inst.r):
        acc = acc + SkewPoly.monomial(ctx, inst.f0**i, ctx.n - 2 - 2 * i)
    return acc


def verify_f_bound(inst, cofactor=None):
    """cofactor * f = F(x^n) exactly, and bound(f) = F with ell = 2, m = r."""
    ctx = inst.ctx
    rep = bound(inst.f)
    if rep.F.poly.coeffs != inst.F_expected:
        return False
    if rep.ell != 2 or rep.m != inst.r:
        return False
    if rep.semilinear.char_poly != rep.F.poly * rep.F.poly:
        return False
    cof = cofactor if cofactor is not None else f_cofactor(inst)
    return cof * inst.f == rep.F.to_skew()


def verify_g_bound(inst):
    """g divides G(x^(2r)) on both sides, G(1) != 0, and bound(g) = G with
    ell = 1, m = 2r."""
    ctx = inst.ctx
    rep = bound(inst.g)
    if rep.F.poly.coeffs != inst.G_expected:
        return False
    if rep.ell != 1 or rep.m != ctx.n:
        return False
    if rep.semilinear.char_poly != rep.F.poly:
        return False
    G_skew = rep.F.to_skew()
    if not right_divides(inst.g, G_skew) or not left_divides(inst.g, G_skew):
        return False
    g_at_one = rep.F.poly.evaluate(ctx.one)
    if not g_at_one:
        return False
    # G(1) is a polynomial of degree exactly r in s_ff
    coeffs = rewrite_in_sff(ctx, g_at_one, inst.r)
    return len(coeffs) - 1 == inst.r


def rewrite_in_sff(ctx, rt, ell):
    """Rewrite a palindromic fraction sum a_i t^(2i) / t^ell (a_i = a_{ell-i}
    in F_2, ell odd) as a polynomial in s_ff = (t^2+1)/t over F_2.

    Follows the peel-or-shift recursion: subtract s_ff^ell when a_0 = 1,
    cancel t^2 when a_0 = 0.  Returns ascending F_2 coefficients; the result
    re-substitutes to rt exactly (asserted).
    """
    if ell < 0 or ell % 2 == 0:
        raise ValueError("ell must be an odd positive integer")
    cf = ctx.coeff_field
    if not rt:
        a = [0] * (ell + 1)
    else:
        shifted = rt * ctx.t**ell
        if shifted.den.degree != 0:
            raise ValueError("element is not of the form p(t^2) / t^ell")
        if shifted.num.degree > 2 * ell:
            raise ValueError("numerator degree exceeds 2*ell")
        a = [0] * (ell + 1)
        for i, c in enumerate(shifted.num.coeffs):
            if not c:
                continue
            if i % 2 or any(c.coeffs[1:]) or c.coeffs[0] != 1:
                raise ValueError("numerator is not an F_2 polynomial in t^2")
            a[i // 2] = 1
    if a != a[::-1]:
        raise ValueError("numerator is not palindromic")

    def rec(vec, m):
        if not any(vec):
            return []
        if m == 1:
            return [0, 1]
        if vec[0] == 0:
            inner = rec(vec[1:m], m - 2)
            return inner
        shifted = [(vec[i] + comb(m, i)) % 2 for i in range(m + 1)]
        inner = rec(shifted[1:m], m - 2)
        out = inner + [0] * (m + 1 - len(inner))
        out[m] = 1
        return out

    coeffs = rec(a, ell)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    # exact round trip
    acc = ctx.zero
    for c in reversed(coeffs):
        acc = acc * ctx.s_ff
        if c:
            acc = acc + ctx.one
    if acc != rt:
        raise RuntimeError("s_ff rewrite failed to round-trip")
    return coeffs


def verify_gamma_example(inst, gamma=None):
    """gamma = 1+t: gamma/f0 falls outside L' = Fix(sigma^r), its theta-image
    is gamma/(t f0), and N(gamma) = (1+t)^(2r)/t^r is not a square in K."""
    ctx = inst.ctx
    gamma = inst.gamma if gamma is None else gamma
    ratio = gamma / inst.f0
    if ctx.sigma_pow(ratio, inst.r) == ratio:
        return False
    if ctx.theta(ratio) != gamma / (ctx.t * inst.f0):
        return False
    ngam = ctx.norm(gamma)
    expected = (ctx.one + ctx.t) ** ctx.n / ctx.t**inst.r
    if ngam != expected:
        return False
    return not ctx.is_square_in_K(ngam)


def verify_sff_rewrite(inst):
    """The worked rewrites: s_ff itself, the cube, and zero."""
    ctx = inst.ctx
    if rewrite_in_sff(ctx, ctx.s_ff, 1) != [0, 1]:
        return False
    cube = ctx.elem((1, 0, 1, 0, 1, 0, 1), (0, 0, 0, 1))
    if rewrite_in_sff(ctx, cube, 3) != [0, 0, 0, 1]:
        return False
    return rewrite_in_sff(ctx, ctx.zero, 3) == []


CHECKS = {
    "sigma-order": verify_sigma_order,
    "f-bound": verify_f_bound,
    "g-bound": verify_g_bound,
    "gamma-example": verify_gamma_example,
    "sff-rewrite": verify_sff_rewrite,
}

DEFAULT_R_CAP = 9


def run_suite(r_values, checks=None, r_cap=DEFAULT_R_CAP):
    """Run the named checks for each odd r; returns [(r, name, passed)]."""
    names = list(CHECKS) if checks is None else list(checks)
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    results = []
    for r in r_values:
        if r % 2 == 0 or r < 3:
            raise ValueError(f"r must be odd and >= 3, got {r}")
        if r > r_cap:
            raise ValueError(f"r = {r} exceeds the cap {r_cap}")
        inst = SuiteInstance(r)
        for name in names:
            results.append((r, name, bool(CHECKS[name](inst))))
    return results
