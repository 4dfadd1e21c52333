"""Verification suite for the explicit F_{2^r}(t) skew polynomial examples.

For odd r >= 3 the ring F_{2^r}(t)[x; sigma] contains f = x^2 + f0 with
f0 = (t^2+1)/(t^2+t+1), whose bound F(y) = y + f0^r has degree 1 (so the
degree ratio is 2), and g = x^2 + 1/t, whose bound
G(y) = y^2 + ((t^(2r)+1)/t^r) y + 1 has degree 2 (ratio 1).  Every finitely
checkable identity around these examples is verified exactly here.  Elements
of K = F_2(s_ff), such as G(1), a polynomial of degree r in s_ff, are read
through the tower's K-coordinates (FunctionFieldCtx.coords_over_K).
"""

from .fields import FunctionFieldCtx
from .skewpoly import SkewPoly, bound


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
    if rep.char_poly != rep.F.poly * rep.F.poly:
        return False
    cof = cofactor if cofactor is not None else f_cofactor(inst)
    return cof * inst.f == rep.F.to_skew()


def verify_g_bound(inst):
    """bound(g) = G with ell = 1, m = 2r, and G(1) != 0.  bound checks that
    g divides G(x^(2r)) on both sides and raises if it does not."""
    ctx = inst.ctx
    rep = bound(inst.g)
    if rep.F.poly.coeffs != inst.G_expected:
        return False
    if rep.ell != 1 or rep.m != ctx.n:
        return False
    if rep.char_poly != rep.F.poly:
        return False
    g_at_one = rep.F.poly.evaluate(ctx.one)
    if not g_at_one:
        return False
    # G(1) lies in K as a polynomial of degree exactly r in s_ff
    P, *rest = ctx.coords_over_K(g_at_one)
    return not any(rest) and P.den.degree == 0 and P.num.degree == inst.r


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
    """The worked rewrites in K = F_2(s_ff): s_ff, its cube and zero have
    the K-coordinates (s, 0, ..., 0), (s^3, 0, ..., 0) and zero, and
    from_coords maps each back."""
    ctx = inst.ctx
    K0 = ctx.K0
    cube = ctx.elem((1, 0, 1, 0, 1, 0, 1), (0, 0, 0, 1))
    for a, c in ((ctx.s_ff, K0.gen), (cube, K0.gen**3), (ctx.zero, K0.zero)):
        coords = ctx.coords_over_K(a)
        if coords != [c] + [K0.zero] * (ctx.n - 1) or ctx.from_coords(coords) != a:
            return False
    return True


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
