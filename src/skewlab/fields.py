"""Coefficient fields with a distinguished automorphism.

Two families: finite towers K = F_q <= L = F_{q^n} with sigma(a) = a^(q^j),
and the rational function fields L = F_{2^r}(t) with sigma = theta o tau
(theta: t -> 1/t, tau the coefficient Frobenius), whose fixed field is
K = F_2(s_ff) for s_ff = (t^2+1)/t.

Both families are Towers: each supplies its cyclic automorphism group
(aut, aut_order, the exponent sig of sigma), a square test in K and the
K-coordinates of L (l_basis, K0, embed_K0, coords_over_K), and sigma,
K-membership, the norm N_{L/K} and from_coords are defined once on Tower.
A finite element (FFElem) carries its index i in elem_from_index order and
its coordinate tuple over the prime field, stored once when it is made.  A
finite field computes on one of two paths.  Up to order TABLE_LIMIT, prime
fields included, it builds at construction its interned elements and
exp/log tables (Zech logarithms for sums in odd characteristic, XOR in
characteristic 2), and every operation is a lookup.  Above that order
elements are made per operation and multiply coordinate tuples.  Function
field elements are reduced fractions.  Contexts change only by filling
caches (Frobenius basis images, numpy copies of the tables), and all
operations are pure.
"""

import itertools
import math
import re
from contextlib import contextmanager

from .linalg import np_inv, np_kernel
from .modpoly import digits
from .polyring import (
    FracElem,
    Poly,
    RatFuncCtx,
    ext_gcd,
    irreducible_over,
    power,
    prime_divisors,
)

import numpy as np


class FieldError(ValueError):
    pass


class LiteralError(ValueError):
    """Raised on malformed element or polynomial literals; carries a position."""

    def __init__(self, reason, pos):
        super().__init__(f"{reason} (at position {pos})")
        self.reason = reason
        self.pos = pos


# ------------------------------------------------------------ finite GF ----


# fields of at most this order intern their elements and compute by exp/log
# tables; larger ones multiply coordinate tuples (schoolbook, then fold)
TABLE_LIMIT = 2**16


class FFElem:
    """Element of a finite field context: its index i in elem_from_index
    order and its coordinate tuple over F_p, both fixed when it is made.

    A field with tables hands out one interned element per index, and its
    arithmetic never builds a coordinate tuple; the operators reach the
    context's _add, _mul and _inverse only in a field without tables.
    """

    __slots__ = ("ctx", "i", "coeffs")

    def __init__(self, ctx, i, coeffs):
        self.ctx = ctx
        self.i = i
        self.coeffs = coeffs

    def __bool__(self):
        return self.i != 0

    def __eq__(self, other):
        return (
            isinstance(other, FFElem) and self.ctx is other.ctx and self.i == other.i
        )

    def __hash__(self):
        return hash(self.i)

    # log[0] is a sentinel whose sums index the zero tail of exp, so products
    # and negations need no zero test
    def __add__(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise FieldError("field context mismatch")
        log = ctx._log
        if log is None:
            return ctx._add(self, other, 1)
        a, b = self.i, other.i
        if ctx.p == 2:
            return ctx._elems[a ^ b]
        if not a or not b:
            return self if a else other
        la = log[a]
        return ctx._exp[la + ctx._zech[log[b] - la]]

    def __sub__(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise FieldError("field context mismatch")
        log = ctx._log
        if log is None:
            return ctx._add(self, other, -1)
        a, b = self.i, other.i
        if ctx.p == 2:
            return ctx._elems[a ^ b]
        if not b:
            return self
        lb = log[b] + ctx._half  # the log of -b
        if not a:
            return ctx._exp[lb]
        la = log[a]
        return ctx._exp[la + ctx._zech[lb - la]]

    def __neg__(self):
        ctx = self.ctx
        if ctx.p == 2:
            return self
        log = ctx._log
        if log is None:
            return ctx._add(ctx.zero, self, -1)
        return ctx._exp[log[self.i] + ctx._half]

    def __mul__(self, other):
        ctx = self.ctx
        if ctx is not other.ctx:
            raise FieldError("field context mismatch")
        log = ctx._log
        if log is None:
            return ctx._mul(self, other)
        return ctx._exp[log[self.i] + log[other.i]]

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if not self.i:
            raise ZeroDivisionError("zero has no inverse")
        ctx = self.ctx
        log = ctx._log
        if log is None:
            return ctx._inverse(self)
        return ctx._exp[ctx.order - 1 - log[self.i]]

    def __pow__(self, e):
        log = self.ctx._log
        if log is not None and self.i:
            return self.ctx._exp[log[self.i] * e % (self.ctx.order - 1)]
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.ctx.one)

    def __repr__(self):
        return f"FFElem({self.ctx.describe()}, {finite_elem_to_literal(self)!r})"


class GFCtx:
    """The plain finite field F_p[w]/(modulus), of degree dim over F_p.

    Element i of elem_from_index order has the base-p digits of i as its
    coordinates, the constant coordinate most significant.  A field of
    order at most TABLE_LIMIT, prime or not, builds at construction its
    interned elements, exp/log tables of a primitive element and, in odd
    characteristic, Zech logarithms log(1 + g^d): every operation,
    Frobenius included, is then a lookup.  Above TABLE_LIMIT elements are
    made per operation: products multiply coordinate tuples, inverses take
    ext_gcd with the modulus (pow(a, -1, p) in a prime field), and
    Frobenius combines basis images.
    """

    def __init__(self, p, dim, modulus=None):
        if prime_divisors(p) != [p]:
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.dim = dim
        self.order = p**dim
        # the tables (see _tabulate); None above TABLE_LIMIT
        self._log = self._exp = self._elems = self._zech = self._frob_log = None
        self._index_tables = None
        self._half = (self.order - 1) // 2
        self._frob_cache = {}
        self.zero = self._make(0)
        # the F_p-basis 1, w, ..., w^(dim-1): the coordinate unit vectors
        self.basis = [self._make(p ** (dim - 1 - i)) for i in range(dim)]
        self.one = self.basis[0]
        self.minus_one = self._make((p - 1) * self.one.i)
        self.gen = self.basis[1] if dim > 1 else self.one
        # the modulus lives in F_p[y], over the prime field (this field
        # itself when dim = 1, whose products never reduce)
        fp = self.prime_field = self if dim == 1 else GFCtx(p, 1)
        if modulus is None:
            # every monic y + c is irreducible; y is the first candidate
            M = Poly.gen(fp) if dim == 1 else canonical_irreducible(fp, dim)
        else:
            M = self._poly(modulus)
            if M.degree != dim or M.lead != fp.one:
                raise FieldError("modulus must be monic of the stated degree")
            if not irreducible_over(M, p):
                raise FieldError("modulus is not irreducible")
        self._M = M
        self.modulus = _ints(M.coeffs)
        # y^k mod modulus for k in [dim, 2*dim-2], used to fold products
        y = Poly.gen(fp)
        self._red = [
            _ints(pow(y, k, M).coeffs, dim) for k in range(dim, 2 * dim - 1)
        ]
        if self.order <= TABLE_LIMIT:
            self._tabulate()

    def _poly(self, coeffs):
        """The F_p[y] polynomial with integer coefficients coeffs."""
        fp = self.prime_field
        return Poly(fp, (fp.from_int(c) for c in coeffs))

    def describe(self):
        return f"GF({self.p}^{self.dim})" if self.dim > 1 else f"GF({self.p})"

    def _make(self, i):
        """A new element of index i (no table is consulted)."""
        return FFElem(self, i, tuple(digits(i, self.p, self.dim)))

    def _from_coeffs(self, coeffs):
        """The element with reduced coordinate tuple coeffs."""
        i = 0
        for c in coeffs:
            i = i * self.p + c
        elems = self._elems
        return elems[i] if elems is not None else FFElem(self, i, coeffs)

    def elem(self, coeffs):
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.dim:
            red = self._poly(coeffs) % self._M
            return self._from_coeffs(_ints(red.coeffs, self.dim))
        return self._from_coeffs(coeffs + (0,) * (self.dim - len(coeffs)))

    def from_int(self, v):
        return self.elem((v,))

    # -- arithmetic without tables: the operators come here above
    # TABLE_LIMIT, and during construction before _tabulate

    def _add(self, a, b, sign):
        """a + sign * b."""
        p = self.p
        return self._from_coeffs(
            tuple((x + sign * y) % p for x, y in zip(a.coeffs, b.coeffs))
        )

    def _mul(self, a, b):
        return self._from_coeffs(self._schoolbook(a.coeffs, b.coeffs))

    def _schoolbook(self, x, y):
        """The coordinates of the product of coordinate tuples x and y."""
        p, dim = self.p, self.dim
        out = [0] * (2 * dim - 1)
        for i, c in enumerate(x):
            if c:
                for j, d in enumerate(y):
                    out[i + j] += c * d
        res = [c % p for c in out[:dim]]
        for k in range(dim, 2 * dim - 1):
            c = out[k] % p
            if c:
                row = self._red[k - dim]
                res = [(r + c * m) % p for r, m in zip(res, row)]
        return tuple(res)

    def _inverse(self, a):
        if self.dim == 1:
            return self._from_coeffs((pow(a.i, -1, self.p),))
        _, inv, _ = ext_gcd(self._poly(a.coeffs), self._M)
        return self._from_coeffs(_ints(inv.coeffs, self.dim))

    # -- the tables ------------------------------------------------------

    def _tabulate(self):
        """Build the tables at construction (fields of order at most
        TABLE_LIMIT) from the first primitive element g in index order, in
        one pass over the multiplicative group: the coordinate rows of
        g^m, ..., g^(2m-1) are those of g^0, ..., g^(m-1) times the matrix
        of x -> x g^m, and that matrix squared is the one of x -> x g^(2m).

        log[i] is the discrete logarithm of element i, and exp[k] the
        interned element g^k for k < 2(q-1).  log[0] = 2(q-1) is a sentinel:
        every sum with it lies in the zero tail of exp.  zech[d] (odd
        characteristic) is log(1 + g^d), doubled in length so that
        differences of logs index it directly.
        """
        p, dim, q = self.p, self.dim, self.order
        q1 = q - 1
        g = self._primitive()
        step = np.array(
            [self._schoolbook(b.coeffs, g) for b in self.basis], dtype=np.int64
        )
        powers = np.zeros((1, dim), dtype=np.int64)
        powers[0, 0] = 1
        while len(powers) < q1:
            powers = np.vstack([powers, powers @ step % p])
            step = step @ step % p
        weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        exp_idx = powers[:q1] @ weights
        log = np.full(q, 2 * q1, dtype=np.int64)
        log[exp_idx] = np.arange(q1)
        if np.count_nonzero(log[1:] == 2 * q1) or log[0] != 2 * q1:
            raise RuntimeError(f"no primitive element found in {self.describe()}")
        elems = [
            FFElem(self, i, c)
            for i, c in enumerate(itertools.product(range(p), repeat=dim))
        ]
        cycle = [elems[i] for i in exp_idx.tolist()]
        self._exp = cycle + cycle + [elems[0]] * (2 * q1 + 1)
        if p != 2:
            # 1 + a adds 1 to the most significant digit of a's index
            zech = log[(exp_idx + self.one.i) % q].tolist()
            self._zech = zech + zech
        self._frob_log = [pow(p, k, q1) for k in range(dim)]
        self._elems = elems
        self._log = log.tolist()

    def index_tables(self):
        """The tables as numpy arrays on element indices, for batched
        arithmetic (linalg.batch_rank_over): (log, exp, zech) as _tabulate
        builds them, with exp[k] the index of g^k, and zech None in
        characteristic 2, where a sum is the XOR of the indices.  None for
        a field without tables (order above TABLE_LIMIT).  Converted on
        first use and kept."""
        if self._log is None:
            return None
        if self._index_tables is None:
            zech = None if self.p == 2 else np.array(self._zech)
            exp = np.array([a.i for a in self._exp])
            self._index_tables = (np.array(self._log), exp, zech)
        return self._index_tables

    def _primitive(self):
        """The coordinates of the first element in index order whose
        (q-1)/r-th power is not 1 for any prime r dividing q-1."""
        q1 = self.order - 1
        exps = [q1 // r for r in prime_divisors(q1)]
        one = self.one.coeffs
        for i in range(1, self.order):
            g = tuple(digits(i, self.p, self.dim))
            if all(power(g, e, one, self._schoolbook) != one for e in exps):
                return g
        raise RuntimeError(f"{self.describe()} has no primitive element")

    def frobenius(self, a, k=1):
        """a^(p^k): a table lookup, or in a field without tables a
        combination of the cached basis images."""
        k %= self.dim
        if k == 0:
            return a
        if self._log is not None:
            if not a.i:
                return a
            return self._exp[self._log[a.i] * self._frob_log[k] % (self.order - 1)]
        imgs = self._frob_cache.get(k)
        if imgs is None:
            one, e = self.one.coeffs, self.p**k
            imgs = [power(b.coeffs, e, one, self._schoolbook) for b in self.basis]
            self._frob_cache[k] = imgs
        p = self.p
        acc = [0] * self.dim
        for c, img in zip(a.coeffs, imgs):
            if c:
                acc = [(r + c * m) % p for r, m in zip(acc, img)]
        return self._from_coeffs(tuple(acc))

    def sqrt(self, a):
        """A square root in characteristic 2 (Frobenius is bijective)."""
        if self.p != 2:
            raise FieldError("sqrt shortcut only implemented in characteristic 2")
        return self.frobenius(a, self.dim - 1)

    def elem_from_index(self, idx):
        """Elements ordered by coordinate tuples lexicographically; idx must
        lie in [0, order)."""
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} outside [0, {self.order})")
        elems = self._elems
        return elems[idx] if elems is not None else self._make(idx)

    def combine(self, coords, basis):
        """sum_i coords[i] * basis[i] for integer coordinates."""
        acc = [0] * self.dim
        for c, b in zip(coords, basis):
            if c:
                acc = [x + int(c) * y for x, y in zip(acc, b.coeffs)]
        return self.elem(tuple(acc))

    def random_elem(self, rng):
        return self.elem_from_index(rng.randrange(self.order))


def _ints(coeffs, size=0):
    """Integer coordinates of prime-field coefficients, zero-padded to size."""
    out = tuple(c.coeffs[0] for c in coeffs)
    return out + (0,) * (size - len(out))


def canonical_irreducible(fp, d):
    """The canonical monic irreducible of degree d over the prime field fp.

    Candidates y^d + c are scanned by the integer encoding of the lower
    coefficients, c_0 + c_1*p + ... + c_{d-1}*p^(d-1), smallest first.
    """
    p = fp.p
    for idx in range(p**d):
        low = [fp.from_int(c) for c in reversed(digits(idx, p, d))]
        cand = Poly(fp, low + [fp.one])
        if irreducible_over(cand, p):
            return cand
    raise ValueError(f"no irreducible of degree {d} over F_{p}")


class Tower:
    """The interface both field families share: L with sigma of order n and
    its fixed field K.

    A family supplies aut(a, k), the k-th power of a generator of a cyclic
    group of automorphisms of L (Frobenius over a finite field, sigma over
    F_(2^r)(t)); aut_order, that group's order; sig, the exponent with
    sigma = aut^sig; and is_square_in_K.  Everything else about sigma and
    the norm N_{L/K} is defined here, once.

    A family also supplies L's K-coordinates: l_basis, a K-basis of L; K0,
    the field the coordinates lie in; embed_K0, its isomorphism onto K; and
    coords_over_K(a), the coordinates of a over l_basis.  from_coords, the
    inverse map, is defined here.
    """

    def sigma(self, a):
        return self.aut(a, self.sig)

    def sigma_pow(self, a, i):
        return self.aut(a, self.sig * i)

    def is_in_K(self, a):
        return self.sigma(a) == a

    def in_Lprime(self, a):
        """a in L' = Fix(sigma^(n/2)), the index-2 subfield when n is even."""
        return self.sigma_pow(a, self.n // 2) == a

    def norm(self, a):
        """N_{L/K}(a) = a sigma(a) ... sigma^(n-1)(a)."""
        return norm_to_fixed(a, AutMap.sigma_power(self, 1))

    def _check_in_K(self, a):
        if not self.is_in_K(a):
            raise FieldError("element does not lie in the base field K")

    def from_coords(self, coords):
        """sum_i embed_K0(coords[i]) * l_basis[i]: the inverse of coords_over_K."""
        acc = self.zero
        for c, b in zip(coords, self.l_basis):
            if c:
                acc = acc + self.embed_K0(c) * b
        return acc


class FiniteFieldCtx(GFCtx, Tower):
    """Cyclic tower F_q <= F_{q^n} with sigma(a) = a^(q^j), gcd(j, n) = 1.

    L is realised as F_p[w]/(modulus) of degree e*n over the prime field;
    K is the sigma-fixed subfield of order q = p^e.  The tower's cyclic
    group is Gal(L/F_p), generated by a -> a^p, and sigma = Frob^(e*j).
    p must lie below 2^31, so that the mod-p linear algebra (linalg),
    which multiplies two residues in int64, cannot overflow.
    """

    kind = "finite"
    aut = GFCtx.frobenius

    def __init__(self, p, e, n, sigma_exp=1, modulus=None):
        if e < 1 or n < 1:
            raise FieldError("e and n must be positive")
        if p >= 2**31:
            raise FieldError(f"p = {p} must lie below 2^31")
        if math.gcd(sigma_exp, n) != 1:
            raise FieldError("sigma exponent must be coprime to n")
        if modulus is not None and e != 1:
            raise FieldError("explicit modulus is only supported for e = 1")
        super().__init__(p, e * n, modulus)
        self.e = e
        self.n = n
        self.q = p**e
        self.sigma_exp = sigma_exp
        self.aut_order = self.dim
        self.sig = (e * sigma_exp) % self.dim if self.dim > 1 else 0
        # sigma must have order exactly n on L: check on the field generator
        w = self.gen
        if self.sigma_pow(w, n) != w:
            raise FieldError("sigma does not have order n")
        for d in range(1, n):
            if n % d == 0 and self.sigma_pow(w, d) == w:
                raise FieldError("sigma has order smaller than n")
        # fixed field of sigma = K, checked as an F_p-dimension count
        self.k_basis = self.fixed_basis(self.sig)
        if len(self.k_basis) != e:
            raise FieldError("fixed field of sigma does not have order q")
        # L = K(w), so w^0..w^(n-1) is a K-basis; its coordinates are the
        # elements of L that lie in K
        self.l_basis = [w**i for i in range(n)]
        self.K0 = self
        self._coords_inv = None

    def describe(self):
        return f"F_{self.p}^{self.e * self.n} tower(q={self.q}, n={self.n})"

    def fixed_basis(self, frob_exp):
        """F_p-basis of Fix(a -> a^(p^frob_exp)): the echelon rows of the
        kernel of that map (columns = basis images) minus the identity."""
        cols = [self.frobenius(b, frob_exp).coeffs for b in self.basis]
        mat = np.array(cols, dtype=np.int64).T - np.eye(self.dim, dtype=np.int64)
        ker = np_kernel(mat % self.p, self.p)
        return [self.elem(row) for row in ker]

    def is_square_in_K(self, a):
        """Euler's criterion in K of odd order; in even order every element
        is a square."""
        self._check_in_K(a)
        if not a or self.q % 2 == 0:
            return True
        return a ** ((self.q - 1) // 2) == self.one

    def embed_K0(self, c):
        return c

    def coords_over_K(self, a):
        """Coordinates of a over l_basis, as elements of K: F_p-coordinates
        over the products k_b w^i (index i*e + b), combined over k_basis.
        The inverse of that F_p-matrix is built on first use and kept."""
        if self._coords_inv is None:
            cols = [(kb * wi).coeffs for wi in self.l_basis for kb in self.k_basis]
            inv = np_inv(np.array(cols, dtype=np.int64).T, self.p)
            self._coords_inv = inv.tolist()
        x = [sum(m * c for m, c in zip(row, a.coeffs)) for row in self._coords_inv]
        e = self.e
        return [self.combine(x[i : i + e], self.k_basis) for i in range(0, self.dim, e)]

    def mult_matrix(self, a):
        """F_p-matrix of left multiplication by a on L."""
        return np.array([(a * b).coeffs for b in self.basis], dtype=np.int64).T


# ------------------------------------------------------- function field ----


class FunctionFieldCtx(Tower):
    """L = F_{2^r}(t) with sigma = theta o tau, of order n = 2r; r odd >= 3.

    K = Fix(L, sigma) = F_2(s_ff) with s_ff = (t^2+1)/t.  Elements are
    reduced FracElems over GF(2^r)[t].  The K-coordinates of L are taken
    over the basis w^i t^delta and lie in K0 = F_2(s), an abstract copy of
    K mapped onto it by s -> s_ff.  The tower's cyclic group is <sigma>
    itself.
    """

    kind = "funcfield"
    sig = 1

    def __init__(self, r):
        if r < 3 or r % 2 == 0:
            raise FieldError("r must be an odd integer >= 3")
        self.r = r
        self.n = self.aut_order = 2 * r
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
        self.l_basis = [self.w**i * self.t**d for i in range(r) for d in (0, 1)]

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

    def aut(self, a, i):
        """sigma^i(a) = theta^i(tau^i(a)): tau and theta commute."""
        i %= self.n
        out = self.tau(a, i % self.r)
        if i % 2:
            out = self.theta(out)
        return out

    def is_square_in_K(self, a):
        """An element of K is a square in K iff it is a square in L, iff
        its reduced numerator and denominator carry only even powers of t;
        the square root is built from coefficient roots and checked by
        squaring."""
        self._check_in_K(a)
        if not a:
            return True
        cf = self.coeff_field

        def root_of(poly):
            if any(poly.coeffs[1::2]):
                return None
            return Poly(cf, (cf.sqrt(c) for c in poly.coeffs[::2]))

        rn = root_of(a.num)
        rd = root_of(a.den)
        if rn is None or rd is None:
            return False
        candidate = FracElem(self.rat, rn, rd)
        return candidate * candidate == a

    def elem(self, num_coeffs, den_coeffs=(1,)):
        cf = self.coeff_field
        to_c = lambda c: c if isinstance(c, FFElem) else cf.from_int(c)
        num = Poly(cf, (to_c(c) for c in num_coeffs))
        den = Poly(cf, (to_c(c) for c in den_coeffs))
        return FracElem(self.rat, num, den)

    # -- L as a K-vector space of dimension 2r, basis w^i * t^delta --------

    def embed_K0(self, c):
        """The image in L of c in K0 = F_2(s): s -> s_ff."""
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
        """Coordinates of a over l_basis, as elements of K0 = F_2(s).

        The denominator is cleared by D, the lcm of its tau-images: tau fixes
        D, so D lies in F_2[t], and so does each slice N_i of the numerator
        over the F_2-basis {w^i} of F_(2^r).  N_i / D is then read in
        K(t) = K0[t]/(t^2 + s t + 1) through the powers t^k = a_k + b_k t."""
        K0 = self.K0
        if not a:
            return [K0.zero] * self.n
        cf = self.coeff_field
        D = img = a.den
        for _ in range(1, self.r):
            img = Poly(cf, (cf.frobenius(c, 1) for c in img.coeffs))
            if img == a.den:
                break
            D = D * (img // D.gcd(img))
        if any(any(c.coeffs[1:]) for c in D.coeffs):
            raise FieldError("tau-orbit lcm of the denominator not rational over F_2")
        N = a.num * (D // a.den)
        gf2 = K0.coeff_field
        s = Poly.gen(gf2)
        # t^(k+1) = t (a_k + b_k t) = b_k + (a_k + s b_k) t
        powers = [(Poly.one(gf2), Poly.zero(gf2))]
        for _ in range(max(N.degree, D.degree)):
            ak, bk = powers[-1]
            powers.append((bk, ak + s * bk))

        def pair(bits):
            """The F_2[t] polynomial with coefficients bits as x0 + x1 t."""
            x0 = x1 = Poly.zero(gf2)
            for bit, (ak, bk) in zip(bits, powers):
                if bit:
                    x0, x1 = x0 + ak, x1 + bk
            return x0, x1

        # 1/(d0 + d1 t) = (c0 + c1 t)/norm, where c0 + c1 t = d0 + d1 (s + t)
        # is the conjugate of d0 + d1 t
        d0, d1 = pair(c.coeffs[0] for c in D.coeffs)
        c0, c1 = d0 + s * d1, d1
        norm = d0 * c0 + d1 * d1
        c0s = c0 + s * c1
        coords = []
        for i in range(self.r):
            n0, n1 = pair(c.coeffs[i] for c in N.coeffs)
            coords.append(K0.from_polys(n0 * c0 + n1 * c1, norm))
            coords.append(K0.from_polys(n0 * c1 + n1 * c0s, norm))
        return coords

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


# --------------------------------------------------------- automorphisms ---


class AutMap:
    """The automorphism ctx.aut(., exp) of L: a Frobenius power a -> a^(p^exp)
    over a finite field, a power of sigma over F_(2^r)(t)."""

    __slots__ = ("ctx", "exp")

    def __init__(self, ctx, exp):
        self.ctx = ctx
        self.exp = exp % ctx.aut_order

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
        return cls(ctx, ctx.sig * k)

    def apply(self, a):
        if a.ctx is not self.ctx and getattr(a, "ctx", None) is not getattr(
            self.ctx, "rat", None
        ):
            raise FieldError("element does not belong to this automorphism's field")
        return self.ctx.aut(a, self.exp)

    def order(self):
        n = self.ctx.aut_order
        return n // math.gcd(self.exp, n)

    def join(self, other):
        """The generator of <self, other>, whose fixed field is
        Fix(self) cap Fix(other)."""
        if self.ctx is not other.ctx:
            raise FieldError("automorphism context mismatch")
        return AutMap(self.ctx, math.gcd(self.exp, other.exp, self.ctx.aut_order))


def norm_to_fixed(a, sub, terms=None):
    """Product of a over the orbit of <sub>: prod_{i < terms} a^(sub^i),
    with terms = sub.order() (the whole orbit) by default."""
    acc = cur = a
    for _ in range((sub.order() if terms is None else terms) - 1):
        cur = sub.apply(cur)
        acc = acc * cur
    return acc


# ---------------------------------------------------------------- literals -


def finite_elem_to_literal(a):
    """Canonical literal: descending powers of w, e.g. "w^3+2*w+1"."""
    return poly_to_literal(a.coeffs, "w")


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


def elem_to_literal(a):
    """Literal of a field element, or of an integer (an F_p coordinate)."""
    if isinstance(a, FFElem):
        return finite_elem_to_literal(a)
    if isinstance(a, (int, np.integer)):
        return str(int(a))
    return funcfield_elem_to_literal(a)


def parse_poly(text, var, coef, zero, mono):
    """Parse the one literal grammar, sum_k c_k var^k, into zero + sum of
    mono(c_k, k).

    Spaces and every enclosing pair of parentheses are dropped, and the
    literal splits at its top-level + and -.  A term splits at its last
    top-level * when var or var^k follows it; otherwise the whole term is
    its coefficient.  coef reads a coefficient literal (enclosing
    parentheses dropped; "1" before a bare var^k).  A coefficient with var
    outside parentheses is an error.  Error positions count the characters
    of text without its spaces.
    """
    s, off = _strip(text)
    with _shifted(off):
        if not s:
            raise LiteralError("empty literal", 0)
        acc = zero
        for sign, term, pos in _signed_terms(s):
            star = max((i for i, ch in _top_level(term) if ch == "*"), default=-1)
            k = _power(term[star + 1 :], var)
            if k is None:
                head, k = term, 0
            else:
                head = term[:star] if star >= 0 else "1"
            if any(ch == var for _, ch in _top_level(head)):
                raise LiteralError(f"bad term {term!r}", pos)
            lit, skip = _strip(head)
            with _shifted(pos + skip):
                m = mono(coef(lit), k)
            acc = acc + m if sign > 0 else acc - m
    return acc


def finite_elem_from_literal(ctx, text):
    """Parse a w-polynomial literal with integer coefficients."""

    def coef(s):
        if not s.isdecimal():
            raise LiteralError(f"bad coefficient {s!r}", 0)
        return ctx.from_int(int(s))

    return parse_poly(text, "w", coef, ctx.zero, lambda c, k: c * ctx.gen**k)


def funcfield_elem_from_literal(ctx, text):
    """Parse a fraction literal like "(t^2+1)/(t^2+t+1)" or "t^2+w*t": t-
    polynomials with w-literal coefficients, split at the first top-level /.

    The split must agree with the usual precedence, so a numerator with a
    top-level + or - after its first character, and a denominator with a
    top-level +, -, * or /, are errors ("1/t+1", "t+1/t", "1/t*w")."""

    def tpoly(s):
        return parse_poly(
            s,
            "t",
            lambda c: ctx.rat.constant(finite_elem_from_literal(ctx.coeff_field, c)),
            ctx.zero,
            lambda c, k: c * ctx.t**k,
        )

    s, off = _strip(text)
    with _shifted(off):
        ops = [(i, ch) for i, ch in _top_level(s) if ch in "+-*/"]
        slash = next((i for i, ch in ops if ch == "/"), len(s))
        for i, ch in ops:
            if i > slash:
                raise LiteralError(f"{ch!r} in a denominator needs parentheses", i)
        num = tpoly(s[:slash])
        if slash == len(s):
            return num
        with _shifted(slash + 1):
            den = tpoly(s[slash + 1 :])
            if not den:
                raise LiteralError("zero denominator", 0)
        # checked after the denominator, so "t+1/0" (t + 1/0) reports the 0
        for i, ch in ops:
            if i > 0 and ch in "+-":
                raise LiteralError(f"{ch!r} in a numerator needs parentheses", i)
    return num / den


def elem_from_literal(ctx, text):
    if isinstance(ctx, FiniteFieldCtx):
        return finite_elem_from_literal(ctx, text)
    return funcfield_elem_from_literal(ctx, text)


def _strip(text):
    """text without spaces and enclosing parentheses, and the number of
    parentheses taken off its front."""
    s = text.replace(" ", "")
    off = 0
    while s.startswith("(") and _matching_paren(s, 0) == len(s) - 1:
        s, off = s[1:-1], off + 1
    return s, off


@contextmanager
def _shifted(offset):
    """Move the position of a LiteralError raised inside by offset."""
    try:
        yield
    except LiteralError as exc:
        raise LiteralError(exc.reason, exc.pos + offset) from None


def _signed_terms(s):
    """(sign, term, start) for the terms of s between its top-level + and -."""
    out, sign, start = [], 1, 0
    for i, ch in _top_level(s):
        if ch not in "+-":
            continue
        if i > 0:
            if i == start:
                raise LiteralError("empty term", i)
            out.append((sign, s[start:i], start))
        sign, start = (-1 if ch == "-" else 1), i + 1
    if start >= len(s):
        raise LiteralError("trailing operator", len(s) - 1)
    out.append((sign, s[start:], start))
    return out


def _top_level(s):
    """(index, character) for each character of s outside parentheses;
    LiteralError if the parentheses do not balance."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise LiteralError("unbalanced parenthesis", i)
        elif depth == 0:
            yield i, ch
    if depth:
        raise LiteralError("unbalanced parenthesis", len(s) - 1)


def _power(s, var):
    """k if s is var or var^k, else None."""
    m = re.fullmatch(var + r"(?:\^(\d+))?", s)
    return None if m is None else int(m[1] or 1)


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


# -------------------------------------------------------------- field spec -


FIELD_SPEC_KEYS = ("kind", "p", "e", "n", "sigma_exp", "modulus", "r")


def spec_int(value, key):
    """value if it is a JSON integer (an int, not a bool), else a ValueError
    naming the spec key the value came from."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"spec key {key!r} must be an integer, got {value!r}")


def spec_list(value, key):
    """value, or a ValueError naming the spec key if it is not a list."""
    if not isinstance(value, list):
        raise ValueError(f"spec key {key!r} must be a list, got {value!r}")
    return value


def spec_literal(value, key):
    """value, or a ValueError naming the spec key if it is not a string."""
    if not isinstance(value, str):
        raise ValueError(f"spec key {key!r} must be a literal string, got {value!r}")
    return value


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
        modulus = spec.get("modulus")
        return FiniteFieldCtx(
            p=spec_int(spec["p"], "p"),
            e=spec_int(spec.get("e", 1), "e"),
            n=spec_int(spec["n"], "n"),
            sigma_exp=spec_int(spec.get("sigma_exp", 1), "sigma_exp"),
            modulus=(
                tuple(spec_int(c, "modulus") for c in spec_list(modulus, "modulus"))
                if modulus else None
            ),
        )
    if kind == "funcfield":
        return FunctionFieldCtx(spec_int(spec["r"], "r"))
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
            key = key.strip()
            try:
                spec[key] = int(val)
            except ValueError:
                raise FieldError(
                    f"field key {key!r} must be an integer, got {val!r}"
                ) from None
    return field_from_spec(spec)
