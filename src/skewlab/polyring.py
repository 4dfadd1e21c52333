"""Generic dense polynomials and rational functions over a field.

Coefficients can be any objects supporting field arithmetic through the
Python operators (the field elements of :mod:`skewlab.fields`).  The owning
field handle `ctx` supplies `zero` and `one`.  Poly coefficients are
ascending, trimmed; the zero polynomial has degree -inf.  Structural methods
build type(self), and skewpoly.SkewPoly overrides only the hook _twist, so
the one product, the one (right) division and ext_gcd serve both.
"""

import operator

NEG_INF = float("-inf")


def power(x, e, one, mul=operator.mul):
    """x**e for an integer e >= 0, where mul(a, b) is the product (reduced,
    or of coordinate tuples) and one the e = 0 result; left-to-right, so
    powers of y multiply by y only."""
    if e < 0:
        raise ValueError("power needs a nonnegative exponent")
    if not e:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


class Poly:
    """Dense univariate polynomial over a coefficient field ctx."""

    __slots__ = ("ctx", "coeffs")

    # x^k c = _twist((c,), k)[0] x^k, applied to each row of a product's
    # right factor and each shifted divisor; None when x commutes
    _twist = None

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
    def gen(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

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

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(self.ctx, (self[i] + other[i] for i in range(n)))

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(self.ctx, (self[i] - other[i] for i in range(n)))

    def __neg__(self):
        return type(self)(self.ctx, (-c for c in self.coeffs))

    def __mul__(self, other):
        if not self or not other:
            return type(self).zero(self.ctx)
        twist, row = self._twist, other.coeffs
        out = [self.ctx.zero] * (len(self.coeffs) + len(row) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                if twist is not None:
                    row = twist(other.coeffs, i)
                for j, y in enumerate(row):
                    out[i + j] = out[i + j] + x * y
        return type(self)(self.ctx, out)

    def scale(self, c):
        """c * self, each coefficient multiplied by c on the left."""
        return type(self)(self.ctx, (c * x for x in self.coeffs))

    def shift(self, k):
        """Multiply by the k-th power of the variable (on the right)."""
        if not self:
            return self
        return type(self)(self.ctx, (self.ctx.zero,) * k + self.coeffs)

    def __divmod__(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        twist, row, inv_lead = self._twist, other.coeffs, other.lead.inverse()
        rem = list(self.coeffs)
        db = other.degree
        q = [self.ctx.zero] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            if not rem[-1]:
                rem.pop()
                continue
            k = len(rem) - 1 - db
            if twist is not None:
                row = twist(other.coeffs, k)  # x^k * other, as a row
                inv_lead = row[-1].inverse()
            c = rem[-1] * inv_lead
            q[k] = c
            for j, y in enumerate(row):
                rem[k + j] = rem[k + j] - c * y
            rem.pop()
        return type(self)(self.ctx, q), type(self)(self.ctx, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __pow__(self, e, mod=None):
        """self**e, or pow(self, e, mod) with every product reduced mod
        `mod` (commutative only: right reduction in a skew polynomial ring
        does not commute with products)."""
        if mod is None:
            return power(self, e, type(self).one(self.ctx))
        if type(self) is not Poly:
            raise TypeError("pow with a modulus needs a commutative polynomial")
        # 1 mod `mod` is 1 unless `mod` is a unit
        one = Poly(self.ctx, (self.ctx.one,) if mod.degree > 0 else ())
        return power(self % mod, e, one, lambda a, b: a * b % mod)

    def monic(self):
        if not self:
            return self
        return self.scale(self.lead.inverse())

    def gcd(self, other):
        return Poly(self.ctx, _gcd_coeff_lists(self.coeffs, other.coeffs)).monic()

    def evaluate(self, x):
        """Horner evaluation; x may live in any extension of the field."""
        if type(self) is not Poly:
            raise TypeError("evaluation needs a commutative polynomial")
        if not self.coeffs:
            return x - x if not isinstance(x, Poly) else type(x).zero(x.ctx)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def reverse(self):
        """Coefficient reversal up to the true degree."""
        return type(self)(self.ctx, reversed(self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _gcd_coeff_lists(a, b):
    """A gcd, not normalised, of two trimmed coefficient lists (in-place
    remainders, no Poly object churn); [] when both are empty."""
    a = list(a)
    b = list(b)
    while b:
        inv = b[-1].inverse()
        nb = len(b)
        while len(a) >= nb:
            top = a[-1]
            if top:
                c = top * inv
                k = len(a) - nb
                for j in range(nb - 1):
                    if b[j]:
                        a[k + j] = a[k + j] - c * b[j]
            a.pop()
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return a


def ext_gcd(a, b):
    """(g, u, v) with g = u*a + v*b the monic gcd; quotients multiply on the
    left, so for skew polynomials (right divmod) g is the monic gcrd."""
    P, ctx = type(a), a.ctx
    r0, r1 = a, b
    u0, u1 = P.one(ctx), P.zero(ctx)
    v0, v1 = P.zero(ctx), P.one(ctx)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if not r0:
        raise ValueError("ext_gcd(0, 0) is undefined")
    c = r0.lead.inverse()
    return r0.scale(c), u0.scale(c), v0.scale(c)


def prime_divisors(n):
    """The distinct primes dividing n, ascending ([] for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def irreducible_over(f, q):
    """Rabin's test: f of degree d over a field of order q (its coefficients
    may lie in a subfield of f.ctx of that order) is irreducible iff
    y^(q^d) = y mod f and gcd(y^(q^(d/r)) - y, f) = 1 for each prime r | d."""
    d = f.degree
    if d < 1:
        return False
    y = Poly.gen(f.ctx)
    for r in prime_divisors(d):
        if (pow(y, q ** (d // r), f) - y).gcd(f).degree != 0:
            return False
    return pow(y, q**d, f) == y % f


def exact_power(base, target):
    """Return k with target == base**k, or None."""
    if base.degree < 1:
        return None
    k = 0
    cur = target
    while cur.degree > 0:
        q, r = divmod(cur, base)
        if r:
            return None
        cur = q
        k += 1
    if cur != Poly.one(target.ctx):
        return None
    return k


class FracElem:
    """Reduced fraction num/den of Polys; den monic, gcd(num, den) = 1."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den, reduce=True):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if reduce:
            if not num:
                den = Poly.one(num.ctx)
            elif den.degree == 0:
                if den.lead != num.ctx.one:
                    inv = den.lead.inverse()
                    num = num.scale(inv)
                    den = Poly.one(num.ctx)
            else:
                g = _gcd_coeff_lists(num.coeffs, den.coeffs)
                if len(g) > 1:
                    gp = Poly(num.ctx, g)
                    num = num // gp
                    den = den // gp
                lead_inv = den.lead.inverse()
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        self.ctx = ctx
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, FracElem)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def _combine(self, other, sign):
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        n2 = n2 if sign > 0 else -n2
        if d1.degree == 0 and d2.degree == 0:
            return FracElem(self.ctx, n1 + n2, d1, reduce=False)
        if not n1:
            return FracElem(self.ctx, n2, d2, reduce=False)
        if not n2:
            return FracElem(self.ctx, n1, d1, reduce=False)
        g = _gcd_coeff_lists(d1.coeffs, d2.coeffs)
        if len(g) <= 1:
            # coprime denominators: the combination is already reduced
            num = n1 * d2 + n2 * d1
            if not num:
                return self.ctx.zero
            return FracElem(self.ctx, num, d1 * d2, reduce=False)
        return FracElem(self.ctx, n1 * d2 + n2 * d1, d1 * d2)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return FracElem(self.ctx, -self.num, self.den, reduce=False)

    def __mul__(self, other):
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1 or not n2:
            return self.ctx.zero
        # cross-reduce so the product of reduced fractions stays reduced
        if d2.degree > 0 and n1.degree > 0:
            g1 = _gcd_coeff_lists(n1.coeffs, d2.coeffs)
            if len(g1) > 1:
                gp = Poly(n1.ctx, g1).monic()
                n1 = n1 // gp
                d2 = d2 // gp
        if d1.degree > 0 and n2.degree > 0:
            g2 = _gcd_coeff_lists(n2.coeffs, d1.coeffs)
            if len(g2) > 1:
                gp = Poly(n2.ctx, g2).monic()
                n2 = n2 // gp
                d1 = d1 // gp
        return FracElem(self.ctx, n1 * n2, d1 * d2, reduce=False)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("zero has no inverse")
        inv = self.num.lead.inverse()
        return FracElem(
            self.ctx, self.den.scale(inv), self.num.scale(inv), reduce=False
        )

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.ctx.one)

    def __repr__(self):
        return f"FracElem({self.num!r}/{self.den!r})"


class RatFuncCtx:
    """The rational function field coeff_field(var)."""

    def __init__(self, coeff_field, var="t"):
        self.coeff_field = coeff_field
        self.var = var
        self.zero = FracElem(
            self, Poly.zero(coeff_field), Poly.one(coeff_field), reduce=False
        )
        self.one = FracElem(
            self, Poly.one(coeff_field), Poly.one(coeff_field), reduce=False
        )
        self.gen = FracElem(
            self, Poly.gen(coeff_field), Poly.one(coeff_field), reduce=False
        )

    def from_polys(self, num, den=None):
        if den is None:
            den = Poly.one(self.coeff_field)
        return FracElem(self, num, den)

    def constant(self, c):
        return FracElem(
            self,
            Poly.constant(self.coeff_field, c),
            Poly.one(self.coeff_field),
            reduce=False,
        )
