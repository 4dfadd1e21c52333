"""The skew polynomial ring L[x; sigma] with xa = sigma(a)x.

Multiplication is schoolbook with the twist; left and right Euclidean
division, gcrd/lclm, two-sidedness, companion/semilinear matrices and the
bound (minimal central multiple) of a polynomial all live here.
"""

from . import linalg
from .fields import (
    FieldError,
    FiniteFieldCtx,
    LiteralError,
    elem_from_literal,
    poly_to_literal,
)
from .polyring import NEG_INF, Poly, exact_power

import numpy as np


class SkewPoly:
    """Skew polynomial: ascending coefficient tuple over the field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def monomial(cls, ctx, c, i):
        return cls(ctx, (ctx.zero,) * i + (c,))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_coeff(self):
        return self[0]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.ctx, (self[i] + other[i] for i in range(n)))

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.ctx, (self[i] - other[i] for i in range(n)))

    def __neg__(self):
        return SkewPoly(self.ctx, (-c for c in self.coeffs))

    def __mul__(self, other):
        """Twisted product: (a x^i)(b x^j) = a sigma^i(b) x^(i+j)."""
        self._check(other)
        if not self or not other:
            return SkewPoly.zero(self.ctx)
        ctx = self.ctx
        out = [ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * ctx.sigma_pow(b, i)
        return SkewPoly(self.ctx, out)

    def scale_left(self, c):
        """c * f (coefficients scaled on the left)."""
        return SkewPoly(self.ctx, (c * a for a in self.coeffs))

    def monic(self):
        if not self:
            return self
        return self.scale_left(self.lead.inverse())

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise FieldError("skew polynomial context mismatch")

    def __repr__(self):
        return f"SkewPoly({skew_to_literal(self)!r})"


def right_divmod(f, g):
    """Quotient and remainder with f = q*g + r, deg r < deg g."""
    if not g:
        raise ZeroDivisionError("skew division by zero")
    ctx = f.ctx
    dg = g.degree
    lead_g = g.lead
    rem = list(f.coeffs)
    q = [ctx.zero] * max(len(rem) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        if not rem[-1]:
            rem.pop()
            continue
        k = len(rem) - 1 - dg
        c = rem[-1] / ctx.sigma_pow(lead_g, k)
        q[k] = c
        # rem -= (c x^k) * g
        for j, b in enumerate(g.coeffs):
            if b:
                rem[k + j] = rem[k + j] - c * ctx.sigma_pow(b, k)
        rem.pop()
    return SkewPoly(ctx, q), SkewPoly(ctx, rem)


def left_divmod(f, g):
    """Quotient and remainder with f = g*q + r, deg r < deg g."""
    if not g:
        raise ZeroDivisionError("skew division by zero")
    ctx = f.ctx
    dg = g.degree
    lead_g = g.lead
    rem = list(f.coeffs)
    q = [ctx.zero] * max(len(rem) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        if not rem[-1]:
            rem.pop()
            continue
        k = len(rem) - 1 - dg
        c = ctx.sigma_pow(rem[-1] / lead_g, -dg)
        q[k] = c
        # rem -= g * (c x^k)
        for j, b in enumerate(g.coeffs):
            if b:
                rem[k + j] = rem[k + j] - b * ctx.sigma_pow(c, j)
        rem.pop()
    return SkewPoly(ctx, q), SkewPoly(ctx, rem)


def right_mod(f, g):
    return right_divmod(f, g)[1]


def left_mod(f, g):
    return left_divmod(f, g)[1]


def right_divides(g, f):
    """True iff f = q*g for some q."""
    return not right_mod(f, g)


def left_divides(g, f):
    return not left_mod(f, g)


def gcrd(f, g):
    """Monic greatest common right divisor."""
    if not f and not g:
        raise ValueError("gcrd(0, 0) is undefined")
    while g:
        f, g = g, right_mod(f, g)
    return f.monic()


def gcrd_extended(f, g):
    """(d, u, v) with d = u*f + v*g the monic gcrd."""
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = SkewPoly.one(ctx), SkewPoly.zero(ctx)
    v0, v1 = SkewPoly.zero(ctx), SkewPoly.one(ctx)
    while r1:
        q, r = right_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if not r0:
        raise ValueError("gcrd(0, 0) is undefined")
    c = r0.lead.inverse()
    return r0.scale_left(c), u0.scale_left(c), v0.scale_left(c)


def power_reductions(f, upto):
    """x^i mod_r f for i = 0..upto, each as a SkewPoly of degree < deg f."""
    ctx = f.ctx
    h = f.degree
    if h < 1:
        raise ValueError("modulus must have positive degree")
    out = []
    cur = [ctx.one] + [ctx.zero] * (h - 1)
    for _ in range(upto + 1):
        out.append(SkewPoly(ctx, cur))
        # multiply by x on the left: x * sum c_i x^i = sum sigma(c_i) x^(i+1)
        shifted = [ctx.zero] + [ctx.sigma_pow(c, 1) for c in cur]
        lead = shifted.pop()
        if lead:
            # x^h = -(f_0 + ... + f_{h-1} x^{h-1}) mod_r f for monic f; here
            # fold via lead * (x^h mod f) with f not assumed monic
            inv = f.lead.inverse()
            for j in range(h):
                shifted[j] = shifted[j] - lead * inv * f[j]
        cur = shifted
    return out


def lclm(f, g):
    """Monic least common left multiple, by the linear-system method.

    The conditions h mod_r f = 0, h mod_r g = 0 are left-L-linear in the
    coefficients of h, so for each candidate degree d the monic h of degree d
    is found by one linear solve; the first solvable d wins.
    """
    if not f or not g:
        raise ValueError("lclm of the zero polynomial is undefined")
    ctx = f.ctx
    if g.degree == 0:
        return f.monic() if f.degree > 0 else SkewPoly.one(ctx)
    if f.degree == 0:
        return g.monic()
    df, dg = f.degree, g.degree
    top = df + dg
    red_f = power_reductions(f, top)
    red_g = power_reductions(g, top)
    for d in range(max(df, dg), top + 1):
        # unknowns c_0..c_{d-1}; rows indexed by remainder coefficient slots
        rows = []
        rhs = []
        for slot in range(df):
            rows.append([red_f[i][slot] for i in range(d)])
            rhs.append(-red_f[d][slot])
        for slot in range(dg):
            rows.append([red_g[i][slot] for i in range(d)])
            rhs.append(-red_g[d][slot])
        sol = linalg.solve(rows, rhs, ctx)
        if sol is None:
            continue
        h = SkewPoly(ctx, sol + [ctx.one])
        if right_mod(h, f) or right_mod(h, g):
            raise RuntimeError("lclm solution failed the divisibility check")
        return h
    raise RuntimeError("lclm search exceeded deg f + deg g")


def is_two_sided(f):
    """True iff f = d * G(x^n) * x^m with G over K (Rf = fR)."""
    if not f:
        return True
    ctx = f.ctx
    n = ctx.n
    m = next(i for i, c in enumerate(f.coeffs) if c)
    d = f.lead
    for i, c in enumerate(f.coeffs):
        if not c:
            continue
        if (i - m) % n:
            return False
        if not ctx.is_in_K(c / d):
            return False
    return True


class CentralPoly:
    """F(y) over K, representing the central element F(x^n)."""

    __slots__ = ("ctx", "poly")

    def __init__(self, ctx, poly):
        for c in poly.coeffs:
            if not ctx.is_in_K(c):
                raise FieldError("central polynomial coefficients must lie in K")
        self.ctx = ctx
        self.poly = poly

    @classmethod
    def from_coeffs(cls, ctx, coeffs):
        return cls(ctx, Poly(ctx, coeffs))

    @property
    def s(self):
        return self.poly.degree

    @property
    def F0(self):
        return self.poly[0]

    def is_monic(self):
        return bool(self.poly) and self.poly.lead == self.ctx.one

    def to_skew(self):
        """F(x^n) as a skew polynomial."""
        ctx = self.ctx
        out = [ctx.zero] * (ctx.n * self.poly.degree + 1) if self.poly else []
        for i, c in enumerate(self.poly.coeffs):
            out[ctx.n * i] = c
        return SkewPoly(ctx, out)

    def __eq__(self, other):
        return isinstance(other, CentralPoly) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"CentralPoly({central_to_literal(self)!r})"


def central_is_irreducible(cp):
    """Irreducibility of F(y) over the finite base field K of order q."""
    ctx = cp.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("irreducibility over K is only decided for finite fields")
    F = cp.poly
    s = F.degree
    if s < 1:
        return False
    if s == 1:
        return True
    q = ctx.q
    y = Poly.gen(ctx)

    def pow_mod(base, e, m):
        result = Poly.one(ctx)
        base = base % m
        while e:
            if e & 1:
                result = (result * base) % m
            base = (base * base) % m
            e >>= 1
        return result

    d = s
    primes = []
    k = 2
    while k * k <= d:
        if d % k == 0:
            primes.append(k)
            while d % k == 0:
                d //= k
        k += 1
    if d > 1:
        primes.append(d)
    for r in primes:
        h = pow_mod(y, q ** (s // r), F)
        if (h - y).gcd(F).degree != 0:
            return False
    return pow_mod(y, q**s, F) == y % F


class SemilinearData:
    """Companion matrix C_f, the product A_f and its char/min polynomials."""

    __slots__ = ("companion", "a_matrix", "char_poly", "min_poly")

    def __init__(self, companion, a_matrix, char_poly, min_poly):
        self.companion = companion
        self.a_matrix = a_matrix
        self.char_poly = char_poly
        self.min_poly = min_poly


def companion_and_af(f):
    """Build C_f, A_f = C_f C_f^sigma ... C_f^sigma^(n-1), and the
    characteristic/minimal polynomials of A_f (both over K)."""
    if not f.is_monic():
        raise ValueError("companion matrix needs a monic polynomial")
    h = f.degree
    if h < 1:
        raise ValueError("companion matrix needs degree >= 1")
    ctx = f.ctx
    C = [[ctx.zero] * h for _ in range(h)]
    for i in range(h):
        C[i][h - 1] = -f[i]
        if i + 1 < h:
            C[i + 1][i] = ctx.one
    A = C
    cur = C
    for _ in range(1, ctx.n):
        cur = [[ctx.sigma_pow(x, 1) for x in row] for row in cur]
        A = linalg.mat_mul(A, cur)
    char = linalg.charpoly(A, ctx)
    for c in char.coeffs:
        if not ctx.is_in_K(c):
            raise RuntimeError("characteristic polynomial of A_f left K")
    minp = linalg.min_poly(A, ctx)
    for c in minp.coeffs:
        if not ctx.is_in_K(c):
            raise RuntimeError("minimal polynomial of A_f left K")
    if minp and char % minp:
        raise RuntimeError("minimal polynomial does not divide characteristic")
    return SemilinearData(C, A, char, minp)


class BoundReport:
    """The bound F(x^n) of f together with ell = n/m when defined."""

    __slots__ = ("F", "ell", "m", "semilinear")

    def __init__(self, F, ell, m, semilinear=None):
        self.F = F
        self.ell = ell
        self.m = m
        self.semilinear = semilinear


def bound(f):
    """The bound of a monic f with nonzero constant coefficient.

    F(y) is the minimal polynomial of A_f over K; the characteristic
    polynomial equals F^ell, which pins ell and m = n/ell (for irreducible f
    these are the invariants ell_F, m_F of the quotient R/RF(x^n); otherwise
    they may be undefined and are reported as None).
    """
    if not f.is_monic():
        raise ValueError("bound needs a monic polynomial")
    if f.degree < 1:
        raise ValueError("bound needs degree >= 1")
    if not f.constant_coeff:
        raise ValueError("constant coefficient must be nonzero")
    ctx = f.ctx
    sd = companion_and_af(f)
    F = CentralPoly(ctx, sd.min_poly)
    if F.poly.degree > f.degree:
        raise RuntimeError("bound degree exceeded deg f")
    f_star = F.to_skew()
    if right_mod(f_star, f) or left_mod(f_star, f):
        raise RuntimeError("computed bound is not a two-sided multiple of f")
    k = exact_power(F.poly, sd.char_poly)
    if k is not None and ctx.n % k == 0:
        return BoundReport(F, k, ctx.n // k, sd)
    return BoundReport(F, None, None, sd)


def bound_oracle(f):
    """Independent brute-force bound: the smallest d such that the K-linear
    system 'monic F of degree d with F(x^n) mod_r f = 0' is solvable.

    Finite contexts only; this is the test-side guard for bound().
    """
    ctx = f.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("brute-force bound oracle requires a finite context")
    if not f.is_monic() or f.degree < 1 or not f.constant_coeff:
        raise ValueError("oracle needs a monic f with nonzero constant coefficient")
    from .quotient import vec

    h = f.degree
    n = ctx.n
    e = len(ctx.k_basis)
    reds = power_reductions(f, n * h)
    for d in range(1, h + 1):
        cols = []
        for i in range(d):
            red = reds[n * i]
            for b in ctx.k_basis:
                cols.append(vec(red.scale_left(b), h))
        rhs = [(-x) % ctx.p for x in vec(reds[n * d], h)]
        mat = np.array(cols, dtype=np.int64).T
        sol = linalg.np_solve(mat, rhs, ctx.p)
        if sol is None:
            continue
        coeffs = [ctx.combine(sol[i * e : (i + 1) * e], ctx.k_basis) for i in range(d)]
        return CentralPoly.from_coeffs(ctx, coeffs + [ctx.one])
    raise RuntimeError("oracle found no bound up to deg f")


def is_irreducible(f):
    """Irreducibility in L[x; sigma] over a finite context.

    f (monic, degree >= 1) is irreducible iff deg F = deg f for its bound F
    and F is irreducible over K; x-multiples are handled separately.
    """
    ctx = f.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("irreducibility is only decided over finite fields")
    if f.degree < 1:
        return False
    f = f.monic()
    if not f.constant_coeff:
        return f.degree == 1
    rep = bound(f)
    return rep.F.s == f.degree and central_is_irreducible(rep.F)


class NormIdentityResult:
    __slots__ = ("holds", "irreducibility_checked")

    def __init__(self, holds, irreducibility_checked):
        self.holds = holds
        self.irreducibility_checked = irreducibility_checked

    def __bool__(self):
        return self.holds


def norm_identity_check(f, rep):
    """Check N_{L/K}(f_0) = (-1)^(s*ell*(n-1)) * F_0^ell exactly.

    Over finite contexts the irreducibility precondition is verified; over
    function fields it is reported unchecked and the identity still evaluated.
    """
    from .fields import AutMap, norm_to_fixed

    ctx = f.ctx
    if rep.ell is None:
        raise ValueError("bound report carries no ell; f may be reducible")
    s = rep.F.s
    if f.degree != s * rep.ell:
        raise ValueError("deg f != s*ell; norm identity needs an irreducible f")
    if isinstance(ctx, FiniteFieldCtx):
        checked = True
        if not is_irreducible(f):
            raise ValueError("norm identity requires an irreducible f")
    else:
        checked = False
    n = ctx.n
    sigma = AutMap.sigma_power(ctx, 1)
    lhs = norm_to_fixed(f.constant_coeff, sigma)
    exponent = s * rep.ell * (n - 1)
    sign = ctx.minus_one if exponent % 2 else ctx.one
    rhs = sign * rep.F.F0**rep.ell
    return NormIdentityResult(lhs == rhs, checked)


# ---------------------------------------------------------------- literals -


def skew_to_literal(f):
    """Canonical literal: descending powers of x, composite coefficients
    parenthesized, monic leading term written without its coefficient."""
    return poly_to_literal(f.coeffs, "x")


def skew_from_literal(ctx, text):
    """Parse the x-polynomial literal grammar (terms c*x^i joined by +)."""
    from .fields import _signed_terms, _strip_outer

    s = text.replace(" ", "")
    if not s:
        raise LiteralError("empty polynomial literal")
    acc = SkewPoly.zero(ctx)
    for sign, term, pos in _signed_terms(s):
        coef_s, k = _split_x_part(term, pos)
        if coef_s is None:
            coef = ctx.one
        else:
            coef_s = _strip_outer(coef_s)
            coef = elem_from_literal(ctx, coef_s)
        mono = SkewPoly.monomial(ctx, coef, k)
        acc = acc + mono if sign > 0 else acc - mono
    return acc


def _split_x_part(term, pos):
    """Return (coefficient literal or None, power of x) for one term."""
    depth = 0
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            rest = term[i + 1 :]
            if rest == "x":
                return term[:i], 1
            if rest.startswith("x^") and rest[2:].isdigit():
                return term[:i], int(rest[2:])
    if term == "x":
        return None, 1
    if term.startswith("x^") and term[2:].isdigit():
        return None, int(term[2:])
    if "x" in _outside_parens(term):
        raise LiteralError(f"bad term {term!r}", pos)
    return term, 0


def _outside_parens(s):
    out = []
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def central_to_literal(cp):
    """Literal for F(y), same grammar as skew polynomials with variable y."""
    return poly_to_literal(cp.poly.coeffs, "y")
