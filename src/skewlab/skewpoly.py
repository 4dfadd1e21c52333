"""The skew polynomial ring L[x; sigma] with xa = sigma(a)x.

SkewPoly is a polyring.Poly that overrides only _twist, to sigma^k, so
Poly's product and division are the skew product and right division.  Left
division is right division in the opposite ring L[x; sigma^-1]
(OppositeSkewPoly, another _twist).  Gcrd and the bound (minimal central
multiple) of a polynomial live here too; the bound is the minimal
polynomial of A_f, x^n acting on R/Rf, whose matrix is read off the
reductions x^j mod_r f.
"""

from . import linalg
from .fields import (
    FieldError,
    FiniteFieldCtx,
    elem_from_literal,
    parse_poly,
    poly_to_literal,
)
from .polyring import Poly, exact_power, ext_gcd, irreducible_over


class SkewPoly(Poly):
    """Skew polynomial: a Poly twisted by sigma, so its product is skew and
    its division (divmod, %, //, gcd) is on the right."""

    __slots__ = ()

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def monomial(cls, ctx, c, i):
        return cls(ctx, (ctx.zero,) * i + (c,))

    @property
    def constant_coeff(self):
        return self[0]

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    __hash__ = Poly.__hash__  # a class that defines __eq__ gets None

    def _twist(self, coeffs, k):
        """sigma^k of each coefficient: x^k c = sigma^k(c) x^k."""
        if not k:
            return coeffs
        sigma_pow = self.ctx.sigma_pow
        return [sigma_pow(c, k) if c else c for c in coeffs]

    def __mul__(self, other):
        """Twisted product: (a x^i)(b x^j) = a sigma^i(b) x^(i+j)."""
        if self.ctx is not other.ctx:
            raise FieldError("skew polynomial context mismatch")
        return Poly.__mul__(self, other)

    def gcd(self, other):
        return gcrd(self, other)

    # c * f, coefficients scaled on the left
    scale_left = Poly.scale

    def __repr__(self):
        return f"SkewPoly({skew_to_literal(self)!r})"


def right_divmod(f, g):
    """Quotient and remainder with f = q*g + r, deg r < deg g."""
    return divmod(f, g)


class OppositeSkewPoly(SkewPoly):
    """L[x; sigma^-1], the opposite ring of L[x; sigma] under the
    anti-isomorphism psi(sum a_i x^i) = sum sigma^(-i)(a_i) x^i."""

    __slots__ = ()

    def _twist(self, coeffs, k):
        return SkewPoly._twist(self, coeffs, -k)


def _psi(f, sign, cls):
    """sum sigma^(sign i)(a_i) x^i as a cls: psi for sign -1, psi^-1 for 1."""
    aut = f.ctx.sigma_pow
    return cls(f.ctx, (aut(c, sign * i) if c else c for i, c in enumerate(f.coeffs)))


def left_divmod(f, g):
    """Quotient and remainder with f = g*q + r, deg r < deg g: a right
    division in the opposite ring, as psi(f) = psi(q)*psi(g) + psi(r)."""
    q, r = divmod(_psi(f, -1, OppositeSkewPoly), _psi(g, -1, OppositeSkewPoly))
    return _psi(q, 1, SkewPoly), _psi(r, 1, SkewPoly)


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


# (d, u, v) with d = u*f + v*g the monic gcrd
gcrd_extended = ext_gcd


def power_reductions(f, upto):
    """x^i mod_r f for i = 0..upto, each as a SkewPoly of degree < deg f
    (right reduction commutes with left factors such as x)."""
    if f.degree < 1:
        raise ValueError("modulus must have positive degree")
    x = SkewPoly.x(f.ctx)
    out = [SkewPoly.one(f.ctx)]
    for _ in range(upto):
        out.append(x * out[-1] % f)
    return out


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
        return self.poly.is_monic()

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
    return irreducible_over(cp.poly, ctx.q)


class BoundReport:
    """The bound F(x^n) of f, the matrix A_f and its characteristic
    polynomial, and ell = n/m when defined."""

    __slots__ = ("F", "ell", "m", "a_matrix", "char_poly")

    def __init__(self, F, ell, m, a_matrix, char_poly):
        self.F = F
        self.ell = ell
        self.m = m
        self.a_matrix = a_matrix
        self.char_poly = char_poly


def bound(f):
    """The bound of a monic f of degree h >= 1 with nonzero constant
    coefficient: the monic F(y) over K of least degree with f | F(x^n).

    x^n is central, so left multiplication by x^n is an L-linear map of
    R/Rf; its matrix A_f in the basis 1, x, ..., x^(h-1) has x^(n+i) mod_r f
    as column i.  F(x^n) lies in Rf iff F(A_f) = 0, so F is the minimal
    polynomial of A_f: the first L-linear relation among I, A_f, A_f^2, ...
    Its coefficients lie in K, F(x^n) is a two-sided multiple of f, and F
    divides the characteristic polynomial of A_f, also over K; each is
    checked, and a failure raises.  When that polynomial is F^ell with
    ell | n, ell and m = n/ell are reported (for irreducible f these are
    the invariants ell_F, m_F of the quotient R/RF(x^n)); otherwise both
    are None.
    """
    if not f.is_monic():
        raise ValueError("bound needs a monic polynomial")
    h = f.degree
    if h < 1:
        raise ValueError("bound needs degree >= 1")
    if not f.constant_coeff:
        raise ValueError("constant coefficient must be nonzero")
    ctx = f.ctx
    reds = power_reductions(f, ctx.n + h - 1)
    A = [[reds[ctx.n + i][j] for i in range(h)] for j in range(h)]
    power = [[reds[i][j] for i in range(h)] for j in range(h)]  # I
    powers = []  # vec(A^k), k = 0, 1, ...: the unknowns of the relation
    for _ in range(h + 1):
        powers.append([c for row in power for c in row])
        relation = linalg.kernel_basis(list(zip(*powers)), len(powers), ctx)
        if relation:
            break
        power = linalg.mat_mul(A, power)
    else:
        raise RuntimeError("bound degree exceeded deg f")
    F = CentralPoly(ctx, Poly(ctx, relation[0]))
    char = linalg.charpoly(A, ctx)
    if not all(ctx.is_in_K(c) for c in char.coeffs):
        raise RuntimeError("characteristic polynomial of A_f left K")
    k = exact_power(F.poly, char)  # a power of F is a multiple of F
    if k is None and char % F.poly:
        raise RuntimeError("bound does not divide the characteristic polynomial")
    f_star = F.to_skew()
    if right_mod(f_star, f) or left_mod(f_star, f):
        raise RuntimeError("computed bound is not a two-sided multiple of f")
    if k is not None and ctx.n % k == 0:
        return BoundReport(F, k, ctx.n // k, A, char)
    return BoundReport(F, None, None, A, char)


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

    The identity holds for irreducible f.  None means it makes no claim:
    ell is undefined, deg f != s*ell, or f is reducible over a finite
    context.  rep is bound(f), so irreducibility is read off it without a
    second bound.  Over function fields irreducibility is not decided; the
    result says so and the identity is still evaluated.
    """
    ctx = f.ctx
    s = rep.F.s
    if rep.ell is None or f.degree != s * rep.ell:
        return None
    checked = isinstance(ctx, FiniteFieldCtx)
    if checked and not (s == f.degree and central_is_irreducible(rep.F)):
        return None
    lhs = ctx.norm(f.constant_coeff)
    exponent = s * rep.ell * (ctx.n - 1)
    sign = ctx.minus_one if exponent % 2 else ctx.one
    rhs = sign * rep.F.F0**rep.ell
    return NormIdentityResult(lhs == rhs, checked)


# ---------------------------------------------------------------- literals -


def skew_to_literal(f):
    """Canonical literal: descending powers of x, composite coefficients
    parenthesized, monic leading term written without its coefficient."""
    return poly_to_literal(f.coeffs, "x")


def skew_from_literal(ctx, text):
    """Parse an x-polynomial literal: terms c*x^k with any field literal c."""
    return parse_poly(
        text,
        "x",
        lambda c: elem_from_literal(ctx, c),
        SkewPoly.zero(ctx),
        lambda c, k: SkewPoly.monomial(ctx, c, k),
    )


def central_to_literal(cp):
    """Literal for F(y), same grammar as skew polynomials with variable y."""
    return poly_to_literal(cp.poly.coeffs, "y")
