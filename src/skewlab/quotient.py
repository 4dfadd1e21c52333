"""The quotient R_F = R/RF(x^n): canonical reduction, rank, eigenrings,
and (finite case) explicit matrix images under the canonical isomorphism
R_F = M_m(E(f)) for a distinguished irreducible right divisor f of F(x^n).
The eigenring is one computation for both field families, a kernel over K
in the tower's K-coordinates (fields.Tower.coords_over_K).

rank is the gcrd definition.  Over F_(2^r)(t) with r <= 7,
full_rank_certified is a cheaper sufficient test for rank m, which sampled
MRD scans try first on each chunk of words: the matrix of the rows
x^i a mod F(x^n) is evaluated at points of GF(2^(2r)), where a rank can
only drop, so full rank there proves full rank over F_(2^r)(t); a word it
cannot certify is ranked by gcrd.

This module also owns the F_p-coordinate layer every exact scan works in:
vec/unvec (residues as F_p vectors), the residue classes (QuotElem and its
mod-f subclasses), FiniteAlgebra, an F_p-bilinear product given by its
structure constants, and subspace_nuclei, the idealiser, centraliser and
centre systems of a subspace of such an algebra, which give the nuclear
parameters of a code.  Every such algebra is R/Rg under a b = g_a b mod_r
g (residue_algebra), its structure constants the left actions of the g_a:
R_F with g_a = a (QuotCtx.algebra), and the star algebras of semifields.
"""

from collections import namedtuple

import numpy as np

from . import linalg
from .fields import (
    TABLE_LIMIT, FieldError, FiniteFieldCtx, FunctionFieldCtx, GFCtx,
)
from .modpoly import digits
from .polyring import power, prime_divisors
from .skewpoly import (
    CentralPoly,
    SkewPoly,
    bound,
    central_is_irreducible,
    gcrd,
    power_reductions,
    right_divides,
    right_mod,
    skew_to_literal,
)


# ---------------------------------------------------------- coordinates ----


def vec(sp, slots):
    """F_p coordinates of sp (finite contexts): the coefficient vectors of
    x^0, ..., x^(slots-1), concatenated."""
    return tuple(c for i in range(slots) for c in sp[i].coeffs)


def unvec(ctx, v, slots):
    """The skew polynomial of degree < slots whose coordinates are v."""
    d = ctx.dim
    coeffs = [tuple(int(c) for c in v[i * d : (i + 1) * d]) for i in range(slots)]
    return SkewPoly(ctx, [ctx.elem(c) for c in coeffs])


class FiniteAlgebra:
    """A finite algebra in F_p coordinates: to_vec/from_vec map elements to
    and from vectors of length dim, and mul is F_p-bilinear.

    Every multiplication matrix is a contraction of the structure constants
    T, e_a e_b = sum_k T[a, b, k] e_k, which constants(alg) builds on first
    use (residue_algebra: from the left actions of x and L).
    """

    def __init__(self, p, dim, to_vec, from_vec, mul, constants, unit=None):
        self.p = p
        self.dim = dim
        self.to_vec = to_vec
        self.from_vec = from_vec
        self.mul = mul
        self.unit = unit
        self._constants = constants
        self._T = None

    @property
    def order(self):
        return self.p**self.dim

    def elem_from_index(self, idx):
        return self.from_vec(tuple(digits(idx, self.p, self.dim)))

    def basis(self):
        """The basis elements e_0, ..., e_{dim-1} (coordinate unit vectors)."""
        d = self.dim
        return [self.from_vec((0,) * i + (1,) + (0,) * (d - 1 - i)) for i in range(d)]

    def structure_constants(self):
        """T[a, b, k], the k-th coordinate of e_a e_b, reduced mod p."""
        if self._T is None:
            self._T = self._constants(self)
        return self._T

    def left_mult_matrix(self, v):
        """Matrix of b -> a b, for the element a with coordinates v."""
        T = self.structure_constants()
        return np.einsum("a,abk->kb", np.asarray(v, dtype=np.int64), T) % self.p

    def right_mult_matrix(self, v):
        """Matrix of b -> b a, for the element a with coordinates v."""
        T = self.structure_constants()
        return np.einsum("b,abk->ka", np.asarray(v, dtype=np.int64), T) % self.p

    def left_mult_matrices(self):
        """M_i = matrix of left multiplication by the i-th basis vector."""
        return [self.left_mult_matrix(e) for e in np.eye(self.dim, dtype=np.int64)]


def left_actions(ctx, modulus, polys):
    """The F_p-matrices of b -> g b mod_r modulus, one per skew polynomial
    g in polys (finite contexts).  R/R modulus is a left R-module, so c x^i
    acts as S_c L_x^i: L_x costs dim products x e_b, and S_c is
    block-diagonal in ctx.mult_matrix(c).  g is not reduced (right
    reduction does not commute with right factors): L_x^i runs to deg g."""
    p, d, N = ctx.p, ctx.dim, modulus.degree
    dim = N * d
    x = SkewPoly.x(ctx)
    units = (SkewPoly.monomial(ctx, b, i) for i in range(N) for b in ctx.basis)
    L_x = np.array([vec(right_mod(x * e, modulus), N) for e in units]).T
    slots = max(g.degree for g in polys) + 1
    powers = [np.eye(dim, dtype=np.int64)]
    for _ in range(slots - 1):
        powers.append(L_x @ powers[-1] % p)
    S = np.array([ctx.mult_matrix(b) for b in ctx.basis], dtype=np.int64)
    G = np.array([vec(g, slots) for g in polys], dtype=np.int64)
    # S_(c_i) for the coefficient c_i of x^i in g: C[g, s, i, t]
    C = np.einsum("gia,ast->gsit", G.reshape(len(polys), slots, d), S) % p
    # M_g[j d + s, b] = sum_(i, t) C[g, s, i, t] L_x^i[j d + t, b]: one
    # product per (g, j), batched so that it lands in M's layout (no copy)
    P = np.array(powers).reshape(slots, N, d, dim).transpose(1, 0, 2, 3)
    M = C.reshape(len(polys), 1, d, slots * d) @ P.reshape(N, slots * d, dim)
    M %= p
    return M.reshape(len(polys), dim, dim)


def residue_algebra(qctx, modulus, elem, left_factor, unit=None):
    """R/R modulus as a FiniteAlgebra over F_p (finite contexts) under
    a b = g_a b mod_r modulus, g_a = left_factor(a) a skew polynomial and
    elem(qctx, rep) the residue of rep; T[a] is the transposed left action
    of g_(e_a)."""
    ctx = qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("F_p coordinates need a finite context")
    slots = modulus.degree

    def mul(a, b):
        return elem(qctx, right_mod(left_factor(a) * b.rep, modulus))

    def constants(alg):
        polys = [left_factor(e) for e in alg.basis()]
        return left_actions(ctx, modulus, polys).transpose(0, 2, 1)

    return FiniteAlgebra(
        ctx.p, slots * ctx.dim, lambda a: vec(a.rep, slots),
        lambda v: elem(qctx, unvec(ctx, v, slots)), mul, constants, unit,
    )


# kernel bases (rows of F_p coordinates) of the four idealiser systems
SubspaceNuclei = namedtuple("SubspaceNuclei", "il ir c z")


def subspace_nuclei(amb, span, budget=linalg.DEFAULT_BUDGET):
    """Left/right idealisers, centraliser and centre of the F_p-subspace S
    spanned by the coordinate vectors span inside the algebra amb (any
    object with p, dim, left_mult_matrix(v) and right_mult_matrix(v)).

    Il = {g : gS <= S} and Ir = {g : Sg <= S} are taken on S itself.  C and
    Z are taken on the normalised S' = u^-1 S, u the first unit of
    linalg.first_invertible's scan of S (at most budget ranks; ValueError
    if S holds no unit).  C is the centraliser of S', and Z = C cap Il(S').
    Every set is the kernel of a linear system; v lies in S iff Q v = 0 for
    the complement rows Q, and in S' iff Q L_u v = 0.

    C and Z do not depend on the unit (amb is associative, such as R_F).
    For units u, v of S let w = v^-1 u.
    Then w^-1 = u^-1 v lies in u^-1 S, and w is a polynomial in w^-1, so
    u^-1 S and v^-1 S = w u^-1 S generate the same subalgebra and have the
    same centraliser C.  Each g in C commutes with w, so g lies in
    Il(v^-1 S) = w Il(u^-1 S) w^-1 exactly when g lies in Il(u^-1 S): Z is
    the same too.
    """
    p, dim = amb.p, amb.dim
    span = np.array(span, dtype=np.int64) % p
    Q = linalg.np_kernel(span, p, ncols=dim)

    def kernel(rows):
        return linalg.np_kernel(np.vstack(rows) % p, p, ncols=dim)

    mults = np.array([amb.left_mult_matrix(v) for v in span]) % p
    il = kernel([Q @ amb.right_mult_matrix(v) for v in span])
    ir = kernel([Q @ L for L in mults])
    index = linalg.first_invertible(mults, p, budget)
    if index is None:
        raise ValueError("the subspace holds no unit; cannot normalise")
    L_u = linalg.family_members(mults, [index], p)[0] % p
    # [L_u | span^T] reduces to [I | L_u^-1 span^T] as L_u is invertible
    normalised = linalg.np_rref(np.hstack([L_u, span.T]), p)[0][:, dim:].T
    c = kernel(
        [amb.right_mult_matrix(v) - amb.left_mult_matrix(v) for v in normalised]
    )
    # Z in the coordinates of the C basis: the rows of Il(S') times C^T
    Q_u = Q @ L_u % p
    il_rows = np.vstack([Q_u @ amb.right_mult_matrix(v) % p for v in normalised])
    z = linalg.np_kernel(il_rows @ c.T % p, p, ncols=len(c)) @ c % p
    return SubspaceNuclei(il, ir, c, z)


def cached_nuclei(owner, budget, solve):
    """solve(budget), the nuclear systems of owner (a code spec or an
    algebra), computed once per owner and budget, so a scan and the nuclear
    report share them.  A ValueError or BudgetExceeded it raised is kept
    and raised again."""
    memo = owner.__dict__.setdefault("_nuclei", {})
    if budget not in memo:
        try:
            memo[budget] = solve(budget)
        except (ValueError, linalg.BudgetExceeded) as exc:
            memo[budget] = exc
    if isinstance(memo[budget], Exception):
        raise memo[budget]
    return memo[budget]


def subspace_action(amb, span, elems):
    """Matrices A_g of v -> g v on the F_p-span S of span, in the
    coordinates of span (column j of A_g is the coordinate vector of g
    s_j), one per g in elems (vectors of amb with gS <= S, such as the rows
    of Il).  Empty when span is dependent or some g s_j leaves S."""
    p = amb.p
    span_t = np.array(span, dtype=np.int64).T % p
    n = span_t.shape[1]
    images = [amb.left_mult_matrix(g) @ span_t % p for g in elems]
    R, pivots = linalg.np_rref(np.hstack([span_t, *images]), p)
    if pivots != list(range(n)):
        return []
    return [R[:, n * (i + 1) : n * (i + 2)] for i in range(len(elems))]


# --------------------------------------------------------------- R_F ------


class QuotCtx:
    """R_F with its distinguished monic irreducible right divisor f.

    Over finite fields f is found by enumerating monic degree-s polynomials
    in lexicographic coefficient order, at most budget of them; over
    function fields the catalogued (paper-certified) f must be supplied with
    irreducible_certified=True.
    """

    def __init__(
        self, ctx, F, f=None, irreducible_certified=False,
        budget=linalg.DEFAULT_BUDGET,
    ):
        if not isinstance(F, CentralPoly):
            raise TypeError("F must be a CentralPoly")
        if not F.is_monic() or F.s < 1:
            raise ValueError("F must be monic of degree >= 1")
        if not F.F0:
            raise ValueError("F must have nonzero constant coefficient (F != y)")
        self.ctx = ctx
        self.F = F
        self.s = F.s
        self.F_skew = F.to_skew()
        if isinstance(ctx, FiniteFieldCtx):
            if not central_is_irreducible(F):
                raise ValueError("F(y) is not irreducible over K")
            if f is None:
                f = self._find_divisor(budget)
        else:
            if f is None:
                raise ValueError("function-field contexts need the catalogued f")
            if not irreducible_certified:
                raise ValueError(
                    "function-field irreducibility is not decided here; pass "
                    "irreducible_certified=True for catalogued polynomials"
                )
        # bound refuses a non-monic f, and f divides rep.F(x^n), here F(x^n)
        rep = bound(f)
        if rep.F != F:
            raise ValueError("the bound of f is not F")
        if rep.ell is None:
            raise ValueError("f does not behave like an irreducible divisor")
        self.f = f
        self.ell = rep.ell
        self.m = rep.m
        if self.s * self.ell != f.degree or self.ell * self.m != ctx.n:
            raise RuntimeError("inconsistent (s, ell, m) for the divisor f")
        self._eigen = None
        self._coord_inv = None
        self._algebra = None
        self._special = None

    def _find_divisor(self, budget):
        """First monic degree-s right divisor of F(x^n), in lexicographic
        coefficient order with the constant coefficient most significant.
        The norm identity on the constant coefficient is a necessary
        condition, tested once per constant: one that fails it skips its
        whole block of order^(s-1) candidates, which still count against
        the budget.  Reaching the candidate of index budget raises
        BudgetExceeded, before the norm test of its block, so at most
        budget norms are computed."""
        ctx = self.ctx
        s = self.s
        sign = ctx.minus_one if s * (ctx.n - 1) % 2 else ctx.one
        target = sign * self.F.F0
        order = ctx.order
        block = order ** (s - 1)
        over = linalg.BudgetExceeded(
            f"no right divisor f within the budget {budget} of candidates"
        )
        for hi in range(1, order):
            if hi * block >= budget:
                raise over
            c0 = ctx.elem_from_index(hi)
            if ctx.norm(c0) != target:
                continue
            for lo in range(block):
                if hi * block + lo >= budget:
                    raise over
                coeffs = [ctx.elem_from_index(d) for d in digits(lo, order, s - 1)]
                f = SkewPoly(ctx, [c0] + coeffs + [ctx.one])
                if right_divides(f, self.F_skew):
                    return f
        if budget < order**s:
            raise over
        raise RuntimeError("no monic degree-s right divisor found")

    # ------------------------------------------------------------- basics --

    @property
    def algebra(self):
        """R_F as a FiniteAlgebra over F_p under the residue product
        (finite contexts): residue_algebra with g_a = a."""
        if self._algebra is None:
            self._algebra = residue_algebra(
                self, self.F_skew, QuotElem, lambda a: a.rep
            )
        return self._algebra


class QuotElem:
    """Residue class held by its canonical representative; products are
    reduced mod_r the modulus, F(x^n) here (the subclasses pick f)."""

    __slots__ = ("qctx", "rep")

    def __init__(self, qctx, rep):
        self.qctx = qctx
        self.rep = rep

    @property
    def modulus(self):
        return self.qctx.F_skew

    def __bool__(self):
        return bool(self.rep)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.qctx is other.qctx
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash(self.rep)

    def __add__(self, other):
        return type(self)(self.qctx, self.rep + other.rep)

    def __sub__(self, other):
        return type(self)(self.qctx, self.rep - other.rep)

    def __neg__(self):
        return type(self)(self.qctx, -self.rep)

    def __mul__(self, other):
        return type(self)(self.qctx, right_mod(self.rep * other.rep, self.modulus))

    def __repr__(self):
        return f"{type(self).__name__}({skew_to_literal(self.rep)!r})"


def rank(a):
    """rk(a) = m - deg(gcrd(a, F(x^n))) / (s*ell); rank(0) = 0 by convention.

    This is the definition; over function fields full_rank_certified proves
    rank(a) = m more cheaply for most words, and falls back to it."""
    if not a.rep:
        return 0
    q = a.qctx
    g = gcrd(a.rep, q.F_skew)
    d = g.degree
    if d % (q.s * q.ell):
        raise RuntimeError("gcrd degree is not a multiple of s*ell")
    return q.m - d // (q.s * q.ell)


# ------------------------------------- full rank by specialisation (F(t)) --

# points z of GF(2^(2r)) tried per word before falling back to the gcrd rank
CERTIFICATE_POINTS = 3

# a point z with, in E's logs, its n points y_i, the factors 2^k of
# Frob^k and the rows X^k mod M_z (None where F has a pole at z)
CertificatePoint = namedtuple("CertificatePoint", "z ylog frob xpow")


class Specialisation:
    """Evaluation at points z of E = GF(2^(2r)) in E's index tables
    (fields.GFCtx.index_tables; function fields with r <= 7, the ones with
    |E| <= fields.TABLE_LIMIT).

    embed[i] is the E-index of the image of element i of the coefficient
    field GF(2^r), which sends w to the first root of its modulus in E, in
    index order.  A ring map commutes with Frobenius, and sigma^i =
    theta^i tau^k with k = i mod r (FunctionFieldCtx.aut), so

        ev_z(sigma^i(c)) = Frob^k(c(y_i)),   y_i = Frob^(-k)(z^((-1)^i)),

    and c has a pole at y_i exactly when sigma^i(c) has one at z: no
    twisted fraction is built.  The points are the first
    CERTIFICATE_POINTS elements of E, in elem_from_index order, of degree
    2r over F_2: outside every proper subfield, GF(2^r) included, where
    words rarely certify.  Each holds the logs of its y_i (i < n), the
    factors 2^k that take a log through Frob^k, and xpow, the logs of the
    coefficients of X^k mod M_z for k < 2N - 1, where M_z is F(X^n) at z
    (None where a coefficient of F has a pole at z).  A word has at most N
    coefficients, so its rows read no X^k past k = 2N - 2.
    """

    def __init__(self, qctx):
        ctx = qctx.ctx
        cf = ctx.coeff_field
        E = self.field = GFCtx(2, 2 * ctx.r)
        log, exp, _ = E.index_tables()
        q1 = E.order - 1
        logs = log[1:]  # of the nonzero elements, in index order
        at = np.zeros(q1, dtype=np.int64)
        for i, c in enumerate(cf.modulus):
            if c:
                at ^= exp[i * logs % q1]
        root = log[1 + np.flatnonzero(at == 0)[0]]
        # element i of GF(2^r) has the bits of i as its coordinates over
        # 1, w, ..., w^(r-1), the constant one most significant
        idx = np.arange(cf.order)
        self.embed = np.zeros(cf.order, dtype=np.int64)
        for i in range(cf.dim):
            self.embed ^= (idx >> (cf.dim - 1 - i) & 1) * exp[i * root % q1]
        # z lies in GF(2^d) iff z^(2^d - 1) = 1
        maximal = [E.dim // q for q in prime_divisors(E.dim)]
        full = np.all([(2**d - 1) * logs % q1 != 0 for d in maximal], axis=0)
        self.points = [
            self._point(qctx, E.elem_from_index(1 + int(i)))
            for i in np.flatnonzero(full)[:CERTIFICATE_POINTS]
        ]

    def _point(self, qctx, z):
        ctx = qctx.ctx
        E = self.field
        log, exp, _ = E.index_tables()
        i = np.arange(ctx.n)
        k = i % ctx.r
        # log y_i = (-1)^i log z 2^(2r - k)
        ylog = np.where(i % 2, -1, 1) * log[z.i] * 2 ** (E.dim - k) % (E.order - 1)
        point = CertificatePoint(z, ylog, 2**k, None)
        at_z, pole = self.twisted_values(point, qctx.F_skew.coeffs)
        if pole[:, 0].any():
            return point
        N = qctx.F_skew.degree
        low = [E.elem_from_index(a) for a in exp[at_z[:N, 0]]]
        rows = [[E.one if a == b else E.zero for b in range(N)] for a in range(N)]
        for _ in range(N - 1):
            # X^(k+1) = X X^k, and X^N = X^N - M_z is low in characteristic 2
            prev = rows[-1]
            rows.append([a + prev[-1] * b for a, b in zip([E.zero] + prev[:-1], low)])
        return point._replace(xpow=log[[[a.i for a in row] for row in rows]])

    def twisted_values(self, point, fracs):
        """(V, pole) for fractions c over GF(2^r) and i < n: V[c, i] is the
        log of ev_z(sigma^i(c)), 2(|E| - 1) (the log of 0) where that is 0
        or a pole, and pole[c, i] is True where sigma^i(c) has a pole at z,
        which is where c has one at y_i."""
        log, exp, _ = self.field.index_tables()
        q1 = self.field.order - 1
        polys = [p.coeffs for c in fracs for p in (c.num, c.den)]
        width = max(map(len, polys))
        idx = np.array([[a.i for a in p] + [0] * (width - len(p)) for p in polys])
        coeffs = log[self.embed[idx]]
        powers = np.arange(width)[:, None] * point.ylog % q1
        at = np.zeros((len(polys), len(point.ylog)), dtype=np.int64)
        for d in range(width):
            at ^= exp[coeffs[:, d, None] + powers[d]]
        num, den = at[0::2], at[1::2]
        pole = den == 0
        V = (log[num] - log[den]) * point.frob % q1
        V[(num == 0) | pole] = 2 * q1
        return V, pole

    def rows(self, point, V):
        """E-indices of the rows x^i a mod F(x^n), i < N, at z, one N x N
        matrix per word a with values V[a] (n x J, twisted_values of its J
        coefficients): row i is sum_j V[a, i mod n, j] (X^(i+j) mod M_z)."""
        _, exp, _ = self.field.index_tables()
        count, n, width = V.shape
        N = point.xpow.shape[1]
        i = np.arange(N)
        twisted = V[:, i % n]
        out = np.zeros((count, N, N), dtype=np.int64)
        for j in range(width):
            out ^= exp[twisted[:, :, j, None] + point.xpow[i + j]]
        return out


def full_rank_certified(words):
    """For each word a of one quotient, True only if rank(a) = m, proven
    by specialisation (function fields with r <= 7; always False over
    finite contexts, for r >= 9, where E = GF(2^(2r)) has no tables, and
    for a = 0).

    The rows x^i a mod_r F(x^n), i < N = deg F(x^n), span the left L-space
    R_F a, of dimension s*ell*rank(a).  F(x^n) has its coefficients in the
    fixed field K, which commutes with x, so row i is the ordinary remainder
    of X^i sum_j sigma^i(a_j) X^j mod F(X^n) in L[X].  Evaluation at a
    point z is a ring map into E from the fractions regular at z; where
    every sigma^i(a_j) and every coefficient of F is regular, it commutes
    with that remainder and cannot raise a rank: an evaluated rank N means
    an N x N minor is nonzero at z, hence nonzero in L, and rank(a) = m.
    By the Frobenius identity of Specialisation the evaluated row i is
    sum_j Frob^k(a_j(y_i)) (X^(i+j) mod M_z), k = i mod r, so the words
    regular at a point form one stack of index matrices over E, ranked by
    linalg.batch_rank_over.  A word with a pole at a point skips it, and
    the words not yet certified go on to the next point.  A lower
    evaluated rank at every point proves nothing; the caller then falls
    back to rank(a), the definition.
    """
    certified = [False] * len(words)
    todo = [k for k, a in enumerate(words) if a.rep]
    if not todo:
        return certified
    qctx = words[todo[0]].qctx
    ctx = qctx.ctx
    if not isinstance(ctx, FunctionFieldCtx) or 2 ** (2 * ctx.r) > TABLE_LIMIT:
        return certified  # E = GF(2^(2r)) would have no tables
    if qctx._special is None:
        qctx._special = Specialisation(qctx)
    special = qctx._special
    N = qctx.F_skew.degree
    width = max(len(words[k].rep.coeffs) for k in todo)
    for point in special.points:
        if point.xpow is None or not todo:
            continue
        fracs = [words[k].rep[j] for k in todo for j in range(width)]
        V, pole = special.twisted_values(point, fracs)
        V = V.reshape(len(todo), width, -1).transpose(0, 2, 1)
        regular = ~pole.reshape(len(todo), -1).any(axis=1)
        mats = special.rows(point, V[regular])
        ranks = linalg.batch_rank_over(mats, special.field)
        for k, r in zip(np.array(todo)[regular], ranks):
            certified[k] = bool(r == N)
        todo = [k for k in todo if not certified[k]]
    return certified


def eigenring(qctx):
    """A K-basis, as a list of skew polynomials, of the eigenring
    E(f) = {g : deg g < deg f, f*g = 0 mod_r f} of the distinguished f: the
    kernel over K of g -> f*g mod_r f (K-linear, since K is central),
    written in the K-coordinates of the units b x^i, b in ctx.l_basis and
    i < deg f."""
    ctx = qctx.ctx
    f = qctx.f
    df = f.degree
    units = [SkewPoly.monomial(ctx, b, i) for i in range(df) for b in ctx.l_basis]
    cols = []
    for unit in units:
        img = right_mod(f * unit, f)
        cols.append([c for j in range(df) for c in ctx.coords_over_K(img[j])])
    members = []
    for kv in linalg.kernel_basis(list(zip(*cols)), len(cols), ctx.K0):
        g = SkewPoly.zero(ctx)
        for c, unit in zip(kv, units):
            if c:
                g = g + unit.scale_left(ctx.embed_K0(c))
        members.append(g)
    return members


# ------------------------------------------------- eigenring as a field ----


class EigenElem(QuotElem):
    """Element of E(f) (finite case), with the mod-f product; a field of
    order q^s, inverses via the q^s - 2 power."""

    __slots__ = ()

    @property
    def modulus(self):
        return self.qctx.f

    def inverse(self):
        if not self.rep:
            raise ZeroDivisionError("zero eigenring element")
        ctx = self.qctx.ctx
        one = EigenElem(self.qctx, SkewPoly.one(ctx))
        return power(self, ctx.q**self.qctx.s - 2, one)

    def __truediv__(self, other):
        return self * other.inverse()


def _residue_candidates(qctx):
    """Basis candidates for R/Rf over E(f): the x-powers first (preferred,
    and usually enough), then every residue in coefficient enumeration
    order; the x-powers alone can be dependent over E(f)."""
    ctx = qctx.ctx
    f = qctx.f
    df = f.degree
    for xp in power_reductions(f, qctx.m - 1):
        yield xp
    order = ctx.order
    for idx in range(1, order**df):
        yield SkewPoly(ctx, [ctx.elem_from_index(d) for d in digits(idx, order, df)])


def _coord_data(qctx):
    """A deterministic E(f)-basis of R/Rf together with the inverse of the
    F_p change-of-basis matrix (columns span v * e_j * k_b)."""
    if qctx._coord_inv is not None:
        return qctx._coord_inv
    ctx = qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("matrix images are only available over finite fields")
    if qctx._eigen is None:
        qctx._eigen = eigenring(qctx)
    ebasis = qctx._eigen
    f = qctx.f
    df = f.degree
    full = df * ctx.dim
    per = len(ebasis) * len(ctx.k_basis)
    chosen = []
    cols = []
    rank_so_far = 0
    for cand in _residue_candidates(qctx):
        new_cols = []
        for ej in ebasis:
            base = right_mod(cand * ej, f)
            for kb in ctx.k_basis:
                new_cols.append(vec(base.scale_left(kb), df))
        trial = np.array(cols + new_cols, dtype=np.int64)
        r = linalg.np_rank(trial, ctx.p)
        if r == rank_so_far + per:
            chosen.append(cand)
            cols = cols + new_cols
            rank_so_far = r
        if len(chosen) == qctx.m:
            break
    if len(chosen) < qctx.m or rank_so_far != full:
        raise RuntimeError("could not build an E(f)-basis of R/Rf")
    mat = np.array(cols, dtype=np.int64).T
    inv = linalg.np_inv(mat, ctx.p)
    qctx._coord_inv = (inv, chosen)
    return qctx._coord_inv


def matrix_image(a):
    """The m x m matrix over E(f) of left multiplication by a on R/Rf,
    with respect to the deterministic basis of _coord_data (the x-powers
    whenever they are independent).  Finite contexts only."""
    qctx = a.qctx
    ctx = qctx.ctx
    inv, basis = _coord_data(qctx)
    ebasis = qctx._eigen
    ne = len(ebasis)
    e = len(ctx.k_basis)
    f = qctx.f
    m = qctx.m
    entries = [[None] * m for _ in range(m)]
    for col in range(m):
        img = right_mod(a.rep * basis[col], f)
        coords = (inv @ np.array(vec(img, f.degree), dtype=np.int64)) % ctx.p
        for row in range(m):
            acc = SkewPoly.zero(ctx)
            for j in range(ne):
                at = (row * ne + j) * e
                scal = ctx.combine(coords[at : at + e], ctx.k_basis)
                acc = acc + ebasis[j].scale_left(scal)
            entries[row][col] = EigenElem(qctx, acc)
    return entries


def matrix_rank(entries):
    """Row rank of a matrix over E(f) by Gaussian elimination."""
    return len(linalg.rref(entries)[1])
