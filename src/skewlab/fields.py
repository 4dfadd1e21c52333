"""Coefficient fields with a distinguished automorphism.

Two families: finite towers K = F_q <= L = F_{q^n} with sigma(a) = a^(q^j),
and the rational function fields L = F_{2^r}(t) with sigma = theta o tau
(theta: t -> 1/t, tau the coefficient Frobenius), whose fixed field is
K = F_2(s_ff) for s_ff = (t^2+1)/t.

Finite elements are coordinate vectors over the prime field; function field
elements are reduced fractions.  Contexts are immutable after construction
and all operations are pure.
"""

from . import modpoly
from .linalg import np_kernel
from .polyring import FracElem, Poly, RatFuncCtx

import numpy as np


class FieldError(ValueError):
    pass


class LiteralError(ValueError):
    """Raised on malformed element or polynomial literals; carries a position."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


# ------------------------------------------------------------ finite GF ----


class FFElem:
    """Element of a finite field context: coordinate vector over F_p."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FFElem)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise FieldError("field context mismatch")
        cache = ctx._add_cache
        if cache is not None:
            key = (self.coeffs, other.coeffs)
            hit = cache.get(key)
            if hit is not None:
                return hit
        p = ctx.p
        result = FFElem(
            ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )
        if cache is not None:
            cache[key] = result
        return result

    def __sub__(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise FieldError("field context mismatch")
        cache = ctx._sub_cache
        if cache is not None:
            key = (self.coeffs, other.coeffs)
            hit = cache.get(key)
            if hit is not None:
                return hit
        p = ctx.p
        result = FFElem(
            ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )
        if cache is not None:
            cache[key] = result
        return result

    def __neg__(self):
        p = self.ctx.p
        return FFElem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise FieldError("field context mismatch")
        cache = ctx._mul_cache
        if cache is not None:
            hit = cache.get((self.coeffs, other.coeffs))
            if hit is not None:
                return hit
        return ctx._mul(self, other)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        return self.ctx._inverse(self)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        return f"FFElem({self.ctx.describe()}, {finite_elem_to_literal(self)!r})"


class GFCtx:
    """The plain finite field F_p[w]/(modulus), of degree dim over F_p."""

    def __init__(self, p, dim, modulus=None):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if modulus is None:
            modulus = modpoly.canonical_irreducible(p, dim)
        modulus = modpoly.trim(c % p for c in modulus)
        if len(modulus) - 1 != dim or modulus[-1] != 1:
            raise FieldError("modulus must be monic of the stated degree")
        if not modpoly.is_irreducible(modulus, p):
            raise FieldError("modulus is not irreducible")
        self.p = p
        self.dim = dim
        self.modulus = modulus
        self.zero = FFElem(self, (0,) * dim)
        # the F_p-basis 1, w, ..., w^(dim-1): the coordinate unit vectors
        self.basis = [
            FFElem(self, (0,) * i + (1,) + (0,) * (dim - 1 - i)) for i in range(dim)
        ]
        self.one = self.basis[0]
        self.minus_one = -self.one
        self.gen = self.basis[1] if dim > 1 else self.one
        # x^k mod modulus for k in [dim, 2*dim-2], used to fold products
        self._red = []
        cur = list(modpoly.mod(tuple(0 for _ in range(dim)) + (1,), modulus, p))
        for _ in range(dim, 2 * dim - 1):
            vec = cur + [0] * (dim - len(cur))
            self._red.append(tuple(vec))
            cur = [0] + cur
            if len(cur) > dim:
                lead = cur.pop()
                if lead:
                    cur = [
                        (c - lead * m) % p for c, m in zip(cur, modulus[:-1])
                    ]
        self._frob_cache = {}
        # memoised products and inverses pay off in the fraction-field and
        # scan loops; only worthwhile (and bounded) for small fields
        small = p**dim <= 512
        self._mul_cache = {} if small else None
        self._inv_cache = {} if p**dim <= 65536 else None
        # sums are cheap to compute, so memoise them only for tiny fields
        # (at most 4096 entries each), where the call overhead dominates
        tiny = p**dim <= 64
        self._add_cache = {} if tiny else None
        self._sub_cache = {} if tiny else None

    def describe(self):
        return f"GF({self.p}^{self.dim})" if self.dim > 1 else f"GF({self.p})"

    def elem(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) > self.dim:
            red = modpoly.mod(modpoly.trim(coeffs), self.modulus, self.p)
            coeffs = red
        return FFElem(self, coeffs + (0,) * (self.dim - len(coeffs)))

    def from_int(self, v):
        return self.elem((v,))

    def _mul(self, a, b):
        cache = self._mul_cache
        if cache is not None:
            key = (a.coeffs, b.coeffs)
            hit = cache.get(key)
            if hit is not None:
                return hit
        p, dim = self.p, self.dim
        out = [0] * (2 * dim - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    out[i + j] += x * y
        res = [c % p for c in out[:dim]]
        for k in range(dim, 2 * dim - 1):
            c = out[k] % p
            if c:
                row = self._red[k - dim]
                res = [(r + c * m) % p for r, m in zip(res, row)]
        result = FFElem(self, tuple(res))
        if cache is not None:
            cache[key] = result
        return result

    def _inverse(self, a):
        cache = self._inv_cache
        if cache is not None:
            hit = cache.get(a.coeffs)
            if hit is not None:
                return hit
        result = self._inverse_uncached(a)
        if cache is not None:
            cache[a.coeffs] = result
        return result

    def _inverse_uncached(self, a):
        poly = modpoly.trim(a.coeffs)
        if not poly:
            raise ZeroDivisionError("zero has no inverse")
        # extended Euclid in F_p[x]
        r0, r1 = self.modulus, poly
        s0, s1 = (), (1,)
        p = self.p
        while r1:
            q, r = modpoly.divmod_(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, modpoly.sub(s0, modpoly.mul(q, s1, p), p)
        inv_lead = pow(r0[-1], -1, p)
        inv = tuple((c * inv_lead) % p for c in s0)
        return self.elem(inv)

    def frobenius(self, a, k=1):
        """a^(p^k), via cached basis-image tables."""
        k %= self.dim
        if k == 0:
            return a
        imgs = self._frob_cache.get(k)
        if imgs is None:
            imgs = [(b ** (self.p**k)).coeffs for b in self.basis]
            self._frob_cache[k] = imgs
        p = self.p
        acc = [0] * self.dim
        for c, img in zip(a.coeffs, imgs):
            if c:
                acc = [(r + c * m) % p for r, m in zip(acc, img)]
        return FFElem(self, tuple(acc))

    def sqrt(self, a):
        """A square root in characteristic 2 (Frobenius is bijective)."""
        if self.p != 2:
            raise FieldError("sqrt shortcut only implemented in characteristic 2")
        return self.frobenius(a, self.dim - 1)

    @property
    def order(self):
        return self.p**self.dim

    def elem_from_index(self, idx):
        """Elements ordered by coordinate tuples lexicographically."""
        return FFElem(self, tuple(modpoly.digits(idx, self.p, self.dim)))

    def combine(self, coords, basis):
        """sum_i coords[i] * basis[i] for integer coordinates."""
        acc = [0] * self.dim
        for c, b in zip(coords, basis):
            if c:
                acc = [x + int(c) * y for x, y in zip(acc, b.coeffs)]
        return self.elem(tuple(acc))

    def random_elem(self, rng):
        return self.elem_from_index(rng.randrange(self.order))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteFieldCtx(GFCtx):
    """Cyclic tower F_q <= F_{q^n} with sigma(a) = a^(q^j), gcd(j, n) = 1.

    L is realised as F_p[w]/(modulus) of degree e*n over the prime field;
    K is the sigma-fixed subfield of order q = p^e.
    """

    kind = "finite"

    def __init__(self, p, e, n, sigma_exp=1, modulus=None):
        if e < 1 or n < 1:
            raise FieldError("e and n must be positive")
        import math

        if math.gcd(sigma_exp, n) != 1:
            raise FieldError("sigma exponent must be coprime to n")
        if modulus is not None and e != 1:
            raise FieldError("explicit modulus is only supported for e = 1")
        super().__init__(p, e * n, modulus)
        self.e = e
        self.n = n
        self.q = p**e
        self.sigma_exp = sigma_exp
        self._sig = (e * sigma_exp) % self.dim if self.dim > 1 else 0
        # sigma must have order exactly n on L: check on the field generator
        w = self.gen
        if self.sigma_pow(w, n) != w:
            raise FieldError("sigma does not have order n")
        for d in range(1, n):
            if n % d == 0 and self.sigma_pow(w, d) == w:
                raise FieldError("sigma has order smaller than n")
        # fixed field of sigma = K, checked as an F_p-dimension count
        self.k_basis = self.fixed_basis(self._sig)
        if len(self.k_basis) != e:
            raise FieldError("fixed field of sigma does not have order q")

    def describe(self):
        return f"F_{self.p}^{self.e * self.n} tower(q={self.q}, n={self.n})"

    def _aut_matrix(self, frob_exp):
        """Matrix (columns = basis images) of a -> a^(p^frob_exp) over F_p."""
        cols = [self.frobenius(b, frob_exp).coeffs for b in self.basis]
        return np.array(cols, dtype=np.int64).T

    def fixed_basis(self, frob_exp):
        """F_p-basis of Fix(a -> a^(p^frob_exp)): the echelon rows of the
        kernel of that map minus the identity."""
        mat = self._aut_matrix(frob_exp) - np.eye(self.dim, dtype=np.int64)
        ker = np_kernel(mat % self.p, self.p)
        return [FFElem(self, tuple(int(c) for c in row)) for row in ker]

    def sigma(self, a):
        return self.frobenius(a, self._sig)

    def sigma_pow(self, a, i):
        return self.frobenius(a, (self._sig * i) % self.dim)

    def is_in_K(self, a):
        return self.sigma(a) == a

    def mult_matrix(self, a):
        """F_p-matrix of left multiplication by a on L."""
        return np.array([(a * b).coeffs for b in self.basis], dtype=np.int64).T


# ------------------------------------------------------- function field ----


class FunctionFieldCtx:
    """L = F_{2^r}(t) with sigma = theta o tau, of order n = 2r; r odd >= 3.

    K = Fix(L, sigma) = F_2(s_ff) with s_ff = (t^2+1)/t.  Elements are
    reduced FracElems over GF(2^r)[t].  A coordinate field K0 = F_2(s)
    (an abstract copy of K) backs the L-over-K linear algebra.
    """

    kind = "funcfield"

    def __init__(self, r):
        if r < 3 or r % 2 == 0:
            raise FieldError("r must be an odd integer >= 3")
        self.r = r
        self.n = 2 * r
        self.p = 2
        self.coeff_field = GFCtx(2, r)
        self.rat = RatFuncCtx(self.coeff_field, "t")
        self.zero = self.rat.zero
        self.one = self.rat.one
        self.minus_one = self.one
        self.t = self.rat.gen
        self.w = self.rat.constant(self.coeff_field.gen)
        num = Poly(self.coeff_field, [self.coeff_field.one, self.coeff_field.zero,
                                      self.coeff_field.one])
        self.s_ff = self.rat.from_polys(num, Poly.gen(self.coeff_field))
        self.K0 = RatFuncCtx(GFCtx(2, 1), "s")

    def describe(self):
        return f"F_(2^{self.r})(t)"

    def tau(self, a, k=1):
        """Coefficient-wise Frobenius a -> a^(2^k)."""
        k %= self.r
        if k == 0:
            return a
        cf = self.coeff_field
        num = Poly(cf, (cf.frobenius(c, k) for c in a.num.coeffs))
        den = Poly(cf, (cf.frobenius(c, k) for c in a.den.coeffs))
        return FracElem(self.rat, num, den, reduce=False)

    def theta(self, a):
        """The substitution t -> 1/t extended to fractions."""
        if not a:
            return self.zero
        num, den = a.num, a.den
        dn, dd = num.degree, den.degree
        rnum = num.reverse()
        rden = den.reverse()
        if dd > dn:
            rnum = rnum.shift(dd - dn)
        elif dn > dd:
            rden = rden.shift(dn - dd)
        return FracElem(self.rat, rnum, rden)

    def sigma(self, a):
        return self.theta(self.tau(a))

    def sigma_pow(self, a, i):
        i %= self.n
        out = self.tau(a, i % self.r)
        if i % 2:
            out = self.theta(out)
        return out

    def is_in_K(self, a):
        return self.sigma(a) == a

    def elem(self, num_coeffs, den_coeffs=(1,)):
        cf = self.coeff_field
        to_c = lambda c: c if isinstance(c, FFElem) else cf.from_int(c)
        num = Poly(cf, (to_c(c) for c in num_coeffs))
        den = Poly(cf, (to_c(c) for c in den_coeffs))
        return FracElem(self.rat, num, den)

    # -- L as a K-vector space of dimension 2r, basis w^i * t^delta --------

    def embed_K0(self, c):
        """Map an abstract K0 = F_2(s) element into L via s -> s_ff."""
        def eval_at_sff(poly):
            acc = self.zero
            for coeff in reversed(poly.coeffs):
                acc = acc * self.s_ff
                if coeff:
                    acc = acc + self.one
            return acc

        num = eval_at_sff(c.num)
        den = eval_at_sff(c.den)
        return num / den

    def coords_over_K(self, a):
        """Coordinates of a over the K-basis {w^i t^delta} (index 2*i+delta),
        as elements of K0 = F_2(s)."""
        K0 = self.K0
        if not a:
            return [K0.zero] * self.n
        cf = self.coeff_field
        # clear the denominator into F_2[t] via the tau-orbit product
        extra = Poly.one(cf)
        den_img = a.den
        for k in range(1, self.r):
            den_img = Poly(cf, (cf.frobenius(c, 1) for c in den_img.coeffs))
            extra = extra * den_img
        D = a.den * extra
        N = a.num * extra
        if any(any(c.coeffs[1:]) for c in D.coeffs):
            raise FieldError("tau-orbit denominator product not rational over F_2")
        gf2 = K0.coeff_field
        D2 = Poly(gf2, (gf2.from_int(c.coeffs[0]) for c in D.coeffs))
        # split the numerator over the F_2-basis {w^i} of F_{2^r}
        coords = []
        d_pair = self._pair_from_poly(D2)
        for i in range(self.r):
            Ni = Poly(gf2, (gf2.from_int(c.coeffs[i]) for c in N.coeffs))
            n_pair = self._pair_from_poly(Ni)
            alpha, beta = self._pair_div(n_pair, d_pair)
            coords.append(alpha)
            coords.append(beta)
        return coords

    def from_coords(self, coords):
        """Inverse of coords_over_K."""
        acc = self.zero
        wpow = self.one
        for i in range(self.r):
            alpha = self.embed_K0(coords[2 * i])
            beta = self.embed_K0(coords[2 * i + 1])
            acc = acc + wpow * (alpha + beta * self.t)
            wpow = wpow * self.w
        return acc

    def _pair_from_poly(self, P):
        """Express P(t) over GF(2) as alpha + beta*t with alpha, beta in K0,
        using t^2 = s*t + 1."""
        K0 = self.K0
        s = K0.gen
        alpha, beta = K0.zero, K0.zero
        a, b = K0.one, K0.zero  # t^k = a + b*t, k ascending
        for c in P.coeffs:
            if c:
                alpha = alpha + a
                beta = beta + b
            a, b = b, a + s * b
        return alpha, beta

    def random_elem(self, rng, max_deg=2):
        """A random fraction with numerator/denominator degree <= max_deg."""
        cf = self.coeff_field
        while True:
            num = Poly(cf, (cf.random_elem(rng) for _ in range(max_deg + 1)))
            den = Poly(cf, (cf.random_elem(rng) for _ in range(max_deg + 1)))
            if den:
                return FracElem(self.rat, num, den)

    def random_lprime_elem(self, rng, t, max_deg=1):
        """A random element of Fix(sigma^t), as the sigma^t-trace of a sample."""
        u = self.random_elem(rng, max_deg=max_deg)
        return u + self.sigma_pow(u, t)

    def _pair_div(self, n_pair, d_pair):
        """(n0 + n1 t) / (d0 + d1 t) in F_2(s)[t]/(t^2 + s t + 1)."""
        K0 = self.K0
        s = K0.gen
        n0, n1 = n_pair
        d0, d1 = d_pair
        norm = d0 * d0 + s * d0 * d1 + d1 * d1
        if not norm:
            raise ZeroDivisionError("zero denominator in quadratic tower")
        c0, c1 = d0 + s * d1, d1
        q0 = n0 * c0 + n1 * c1
        q1 = n0 * c1 + n1 * c0 + s * n1 * c1
        return q0 / norm, q1 / norm


# --------------------------------------------------------- automorphisms ---


class AutMap:
    """An automorphism of L: a Frobenius power a -> a^(p^exp) in the finite
    case, a power of sigma in the function field case."""

    __slots__ = ("ctx", "exp")

    def __init__(self, ctx, exp):
        if isinstance(ctx, FiniteFieldCtx):
            exp %= ctx.dim if ctx.dim > 0 else 1
        else:
            exp %= ctx.n
        self.ctx = ctx
        self.exp = exp

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, 0)

    @classmethod
    def frobenius_power(cls, ctx, h):
        if not isinstance(ctx, FiniteFieldCtx):
            raise FieldError("independent Frobenius powers exist only for finite L")
        return cls(ctx, h)

    @classmethod
    def sigma_power(cls, ctx, k):
        if isinstance(ctx, FiniteFieldCtx):
            return cls(ctx, ctx._sig * k)
        return cls(ctx, k)

    def apply(self, a):
        if a.ctx is not self.ctx and getattr(a, "ctx", None) is not getattr(
            self.ctx, "rat", None
        ):
            raise FieldError("element does not belong to this automorphism's field")
        if isinstance(self.ctx, FiniteFieldCtx):
            return self.ctx.frobenius(a, self.exp)
        return self.ctx.sigma_pow(a, self.exp)

    def order(self):
        import math

        if isinstance(self.ctx, FiniteFieldCtx):
            d = self.ctx.dim
            return d // math.gcd(self.exp, d) if self.exp else 1
        return self.ctx.n // math.gcd(self.exp, self.ctx.n) if self.exp else 1

    def compose(self, other):
        if self.ctx is not other.ctx:
            raise FieldError("automorphism context mismatch")
        return AutMap(self.ctx, self.exp + other.exp)

    def inverse(self):
        return AutMap(self.ctx, -self.exp)

    def is_identity(self):
        return self.exp == 0

    def fixed_field_order(self):
        import math

        if not isinstance(self.ctx, FiniteFieldCtx):
            raise FieldError("fixed field order is only finite for finite L")
        return self.ctx.p ** math.gcd(self.exp, self.ctx.dim) if self.exp else (
            self.ctx.p**self.ctx.dim
        )


def apply_aut(phi, a):
    """Image of a under the automorphism phi."""
    return phi.apply(a)


def in_fixed_field(a, sub):
    """True iff a is fixed by sub."""
    return sub.apply(a) == a


def norm_to_fixed(a, sub):
    """Product of a over the orbit of <sub>: prod_i a^(sub^i)."""
    ord_ = sub.order()
    acc = a
    cur = a
    for _ in range(ord_ - 1):
        cur = sub.apply(cur)
        acc = acc * cur
    return acc


def is_square_in_base(a, ctx=None):
    """True iff a (an element of the base field K) is a square in K.

    Finite case of odd order: Euler's criterion; even order: every element
    is a square.  Function field case: an element of K = F_2(s_ff) is a
    square in K iff it is a square in L, iff the reduced numerator and
    denominator carry only even powers of t; the square root is built from
    coefficient roots and verified by squaring.
    """
    if isinstance(a, FFElem):
        ctx = a.ctx
        if not isinstance(ctx, FiniteFieldCtx):
            raise FieldError("element has no tower structure")
        if not ctx.is_in_K(a):
            raise FieldError("element does not lie in the base field K")
        if not a:
            return True
        if ctx.q % 2 == 0:
            return True
        return a ** ((ctx.q - 1) // 2) == ctx.one
    if ctx is None:
        raise FieldError("function field elements need the context argument")
    if not ctx.is_in_K(a):
        raise FieldError("element does not lie in the base field K")
    if not a:
        return True
    cf = ctx.coeff_field

    def root_of(poly):
        if any(poly.coeffs[i] for i in range(1, len(poly.coeffs), 2)):
            return None
        return Poly(cf, (cf.sqrt(c) for c in poly.coeffs[::2]))

    rn = root_of(a.num)
    rd = root_of(a.den)
    if rn is None or rd is None:
        return False
    candidate = FracElem(ctx.rat, rn, rd)
    return candidate * candidate == a


# ---------------------------------------------------------------- literals -


def finite_elem_to_literal(a):
    """Canonical literal: descending powers of w, e.g. "w^3+2*w+1"."""
    terms = []
    for i in range(len(a.coeffs) - 1, -1, -1):
        c = a.coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "w" if i == 1 else f"w^{i}"
            terms.append(head if c == 1 else f"{c}*{head}")
    return "+".join(terms) if terms else "0"


def finite_elem_from_literal(ctx, text):
    """Parse a w-polynomial literal into a finite field element."""
    s = text.replace(" ", "")
    if not s:
        raise LiteralError("empty element literal")
    if s.startswith("(") and _matching_paren(s, 0) == len(s) - 1:
        s = s[1:-1]
    acc = ctx.zero
    for sign, term, pos in _signed_terms(s):
        val = _parse_w_term(ctx, term, pos)
        acc = acc + val if sign > 0 else acc - val
    return acc


def _signed_terms(s):
    """Split into (sign, term, start_pos) at top-level +/-, respecting parens."""
    out = []
    depth = 0
    start = 0
    sign = 1
    if s and s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    cur_start = start
    i = start
    while i < len(s):
        c = s[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise LiteralError("unbalanced parenthesis", i)
        elif c in "+-" and depth == 0:
            if i == cur_start:
                raise LiteralError("empty term", i)
            out.append((sign, s[cur_start:i], cur_start))
            sign = -1 if c == "-" else 1
            cur_start = i + 1
        i += 1
    if depth != 0:
        raise LiteralError("unbalanced parenthesis", len(s) - 1)
    if cur_start >= len(s):
        raise LiteralError("trailing operator", len(s) - 1)
    out.append((sign, s[cur_start:], cur_start))
    return out


def _parse_w_term(ctx, term, pos):
    if "*" in term:
        coef_s, _, rest = term.partition("*")
        if not coef_s.isdigit():
            raise LiteralError(f"bad coefficient {coef_s!r}", pos)
        coef = int(coef_s)
    else:
        coef, rest = 1, term
        if rest.isdigit():
            return ctx.from_int(int(rest))
    if rest == "w":
        k = 1
    elif rest.startswith("w^") and rest[2:].isdigit():
        k = int(rest[2:])
    else:
        raise LiteralError(f"bad term {term!r}", pos)
    return ctx.from_int(coef) * ctx.gen**k


def _matching_paren(s, i):
    depth = 0
    for j in range(i, len(s)):
        if s[j] == "(":
            depth += 1
        elif s[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return -1


def funcfield_elem_to_literal(a):
    """Canonical literal: "num" or "(num)/(den)" with descending t-powers."""
    num = poly_to_literal(a.num.coeffs, "t")
    if a.den.degree == 0:
        return num
    return f"({num})/({poly_to_literal(a.den.coeffs, 't')})"


def poly_to_literal(coeffs, var):
    """Canonical literal of sum_i coeffs[i] var^i (t-polynomials, skew and
    central polynomials): descending powers, composite coefficients
    parenthesized, a coefficient 1 omitted before a power of var."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        cl = elem_to_literal(c)
        if i == 0:
            terms.append(f"({cl})" if "+" in cl and "/" not in cl else cl)
            continue
        head = var if i == 1 else f"{var}^{i}"
        if cl == "1":
            terms.append(head)
        elif "+" in cl or "/" in cl:
            terms.append(f"({cl})*{head}")
        else:
            terms.append(f"{cl}*{head}")
    return "+".join(terms) if terms else "0"


def funcfield_elem_from_literal(ctx, text):
    """Parse a fraction literal like "(t^2+1)/(t^2+t+1)" or "t^2+w*t"."""
    s = text.replace(" ", "")
    if not s:
        raise LiteralError("empty element literal")
    num_s, den_s = _split_fraction(s)
    num = _parse_tpoly(ctx, num_s)
    if den_s is None:
        return num
    den = _parse_tpoly(ctx, den_s)
    if not den:
        raise LiteralError("zero denominator in literal")
    return num / den


def _split_fraction(s):
    depth = 0
    for i, c in enumerate(s):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "/" and depth == 0:
            return s[:i], s[i + 1 :]
    return s, None


def _strip_outer(s):
    while s.startswith("(") and _matching_paren(s, 0) == len(s) - 1:
        s = s[1:-1]
    return s


def _parse_tpoly(ctx, s):
    s = _strip_outer(s)
    acc = ctx.zero
    for sign, term, pos in _signed_terms(s):
        val = _parse_t_term(ctx, term, pos)
        acc = acc + val if sign > 0 else acc - val
    return acc


def _parse_t_term(ctx, term, pos):
    cf = ctx.coeff_field
    coef_s = None
    tpart = None
    depth = 0
    for i, c in enumerate(term):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "*" and depth == 0:
            coef_s, tpart = term[:i], term[i + 1 :]
            break
    if tpart is None:
        if term == "t" or (term.startswith("t^") and term[2:].isdigit()):
            coef_s, tpart = None, term
        else:
            coef_s, tpart = term, None
    if tpart is not None:
        if tpart == "t":
            k = 1
        elif tpart.startswith("t^") and tpart[2:].isdigit():
            k = int(tpart[2:])
        else:
            raise LiteralError(f"bad term {term!r}", pos)
    else:
        k = 0
    if coef_s is None:
        coef = ctx.one
    else:
        coef_s = _strip_outer(coef_s)
        if coef_s.isdigit():
            coef = ctx.rat.constant(cf.from_int(int(coef_s)))
        else:
            coef = ctx.rat.constant(finite_elem_from_literal(cf, coef_s))
    return coef * ctx.t**k if k else coef


def elem_to_literal(a, ctx=None):
    if isinstance(a, FFElem):
        return finite_elem_to_literal(a)
    return funcfield_elem_to_literal(a)


def elem_from_literal(ctx, text):
    if isinstance(ctx, FiniteFieldCtx):
        return finite_elem_from_literal(ctx, text)
    return funcfield_elem_from_literal(ctx, text)


# -------------------------------------------------------------- field spec -


FIELD_SPEC_KEYS = ("kind", "p", "e", "n", "sigma_exp", "modulus", "r")


def field_from_spec(spec):
    """Build a context from a field-spec mapping:
    {"kind": "finite", "p": .., "e": .., "n": .., "sigma_exp"?: .., "modulus"?: [..]}
    or {"kind": "funcfield", "r": ..}.  Any other key is an error.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FieldError("field spec must be a mapping with a 'kind' key")
    unknown = [key for key in spec if key not in FIELD_SPEC_KEYS]
    if unknown:
        raise FieldError(f"unknown field spec key(s): {', '.join(map(repr, unknown))}")
    kind = spec["kind"]
    if kind == "finite":
        return FiniteFieldCtx(
            p=int(spec["p"]),
            e=int(spec.get("e", 1)),
            n=int(spec["n"]),
            sigma_exp=int(spec.get("sigma_exp", 1)),
            modulus=tuple(spec["modulus"]) if spec.get("modulus") else None,
        )
    if kind == "funcfield":
        return FunctionFieldCtx(int(spec["r"]))
    raise FieldError(f"unknown field kind {kind!r}")


def field_from_inline(text):
    """Parse the compact CLI form "finite:p=2,e=1,n=3" / "funcfield:r=3"."""
    kind, _, rest = text.partition(":")
    spec = {"kind": kind.strip()}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise FieldError(f"bad field spec fragment {part!r}")
            spec[key.strip()] = int(val)
    return field_from_spec(spec)
