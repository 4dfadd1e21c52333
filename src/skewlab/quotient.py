"""The quotient R_F = R/RF(x^n): canonical reduction, rank, eigenrings,
and (finite case) explicit matrix images under the canonical isomorphism
R_F = M_m(E(f)) for a distinguished irreducible right divisor f of F(x^n).

This module also owns the F_p-coordinate layer every exact scan works in:
vec/unvec (residues as F_p vectors), the residue classes (QuotElem and its
mod-f subclasses), and FiniteAlgebra, an F_p-bilinear product given by its
structure constants.  R_F itself is a FiniteAlgebra (QuotCtx.algebra).
"""

import numpy as np

from . import linalg
from .fields import AutMap, FieldError, FiniteFieldCtx, norm_to_fixed
from .modpoly import digits
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
    and from vectors of length dim, mul is F_p-bilinear, and scalar_mats
    are the matrices of the base field scalars (for the nuclei systems).

    Every multiplication matrix is a contraction of the structure constants
    T, e_a e_b = sum_k T[a, b, k] e_k, which are built on first use.
    """

    def __init__(self, p, dim, to_vec, from_vec, mul, unit=None, scalar_mats=None):
        self.p = p
        self.dim = dim
        self.to_vec = to_vec
        self.from_vec = from_vec
        self.mul = mul
        self.unit = unit
        self.scalar_mats = scalar_mats or []
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
            basis = self.basis()
            table = [[self.to_vec(self.mul(x, y)) for y in basis] for x in basis]
            self._T = np.array(table, dtype=np.int64) % self.p
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


# --------------------------------------------------------------- R_F ------


class QuotCtx:
    """R_F with its distinguished monic irreducible right divisor f.

    Over finite fields f is found by enumerating monic degree-s polynomials
    in lexicographic coefficient order; over function fields the catalogued
    (paper-certified) f must be supplied with irreducible_certified=True.
    """

    def __init__(self, ctx, F, f=None, irreducible_certified=False):
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
                f = self._find_divisor()
        else:
            if f is None:
                raise ValueError("function-field contexts need the catalogued f")
            if not irreducible_certified:
                raise ValueError(
                    "function-field irreducibility is not decided here; pass "
                    "irreducible_certified=True for catalogued polynomials"
                )
        if not f.is_monic() or not right_divides(f, self.F_skew):
            raise ValueError("f must be a monic right divisor of F(x^n)")
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

    def _find_divisor(self):
        """First monic degree-s right divisor of F(x^n), in lexicographic
        coefficient order; the norm identity on the constant coefficient is
        a necessary condition and is used as a cheap filter."""
        ctx = self.ctx
        s = self.s
        sigma = AutMap.sigma_power(ctx, 1)
        exponent = s * (ctx.n - 1)
        sign = ctx.minus_one if exponent % 2 else ctx.one
        target = sign * self.F.F0
        order = ctx.order
        for idx in range(order**s):
            coeffs = [ctx.elem_from_index(d) for d in digits(idx, order, s)]
            if not coeffs[0]:
                continue
            if norm_to_fixed(coeffs[0], sigma) != target:
                continue
            f = SkewPoly(ctx, coeffs + [ctx.one])
            if right_divides(f, self.F_skew):
                return f
        raise RuntimeError("no monic degree-s right divisor found")

    # ------------------------------------------------------------- basics --

    def reduce(self, a):
        """Canonical coset representative mod_r F(x^n)."""
        if a.ctx is not self.ctx:
            raise FieldError("context mismatch")
        return QuotElem(self, right_mod(a, self.F_skew))

    @property
    def algebra(self):
        """R_F as a FiniteAlgebra over F_p under the residue product
        (finite contexts); its structure constants are built on first use."""
        if self._algebra is None:
            ctx = self.ctx
            if not isinstance(ctx, FiniteFieldCtx):
                raise FieldError("F_p coordinates need a finite context")
            slots = self.F_skew.degree
            self._algebra = FiniteAlgebra(
                ctx.p,
                slots * ctx.dim,
                lambda a: vec(a.rep, slots),
                lambda v: QuotElem(self, unvec(ctx, v, slots)),
                lambda a, b: a * b,
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
    """rk(a) = m - deg(gcrd(a, F(x^n))) / (s*ell); rank(0) = 0 by convention."""
    if not a.rep:
        return 0
    q = a.qctx
    g = gcrd(a.rep, q.F_skew)
    d = g.degree
    if d % (q.s * q.ell):
        raise RuntimeError("gcrd degree is not a multiple of s*ell")
    return q.m - d // (q.s * q.ell)


class EigenringBasis:
    """K-basis of E(f) = {g : deg g < deg f, f*g = 0 mod_r f}."""

    __slots__ = ("qctx", "basis", "dimension")

    def __init__(self, qctx, basis):
        self.qctx = qctx
        self.basis = basis
        self.dimension = len(basis)


def eigenring(qctx):
    """Compute a K-basis of the eigenring of the distinguished f."""
    if isinstance(qctx.ctx, FiniteFieldCtx):
        basis = _eigenring_finite(qctx)
    else:
        basis = _eigenring_funcfield(qctx)
    return EigenringBasis(qctx, basis)


def _eigenring_finite(qctx):
    ctx = qctx.ctx
    f = qctx.f
    df = f.degree
    p = ctx.p
    # column i*dim + b is the image of the unit b x^i, so a kernel row is
    # the coordinate vector of its eigenring member
    cols = [
        vec(right_mod(f * SkewPoly.monomial(ctx, b, i), f), df)
        for i in range(df)
        for b in ctx.basis
    ]
    kernel = linalg.np_kernel(np.array(cols, dtype=np.int64).T, p, ncols=len(cols))
    members = [unvec(ctx, row, df) for row in kernel]
    # extract a K-basis from the F_p-kernel: K acts by central left scaling
    e = len(ctx.k_basis)
    if e == 1:
        return members
    selected = []
    span = np.zeros((0, df * ctx.dim), dtype=np.int64)
    for g in members:
        gv = np.array(vec(g, df), dtype=np.int64)
        if linalg.np_rank(np.vstack([span, gv]), p) == linalg.np_rank(span, p):
            continue
        selected.append(g)
        scaled = [vec(g.scale_left(b), df) for b in ctx.k_basis]
        span = np.vstack([span, np.array(scaled, dtype=np.int64)])
    if len(selected) * e != len(members):
        raise RuntimeError("K-basis extraction failed for the eigenring")
    return selected


def _eigenring_funcfield(qctx):
    ctx = qctx.ctx
    f = qctx.f
    df = f.degree
    nb = ctx.n  # K-dimension of L
    K0 = ctx.K0

    basis_elems = []
    wpow = ctx.one
    for i in range(ctx.r):
        basis_elems.append(wpow)
        basis_elems.append(wpow * ctx.t)
        wpow = wpow * ctx.w

    cols = []
    units = []
    for i in range(df):
        for b in basis_elems:
            unit = SkewPoly.monomial(ctx, b, i)
            units.append(unit)
            img = right_mod(f * unit, f)
            cols.append([c for j in range(df) for c in ctx.coords_over_K(img[j])])
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(df * nb)]
    kernel = linalg.kernel_basis(rows, len(cols), K0)
    members = []
    for kv in kernel:
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
        q = self.qctx.ctx.q
        e = q**self.qctx.s - 2
        result = EigenElem(self.qctx, SkewPoly.one(self.qctx.ctx))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
    ebasis = qctx._eigen.basis
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
    ebasis = qctx._eigen.basis
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


def linearized_rank(a):
    """Rank of the linearised map beta -> sum a_i beta^(q^i) on L, for the
    classical F = y - 1, s = 1 identification; cross-check for rank()."""
    qctx = a.qctx
    ctx = qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx) or qctx.s != 1:
        raise FieldError("linearised rank needs a finite context with s = 1")
    cols = []
    for basis in ctx.basis:
        img = ctx.zero
        for i, c in enumerate(a.rep.coeffs):
            if c:
                img = img + c * ctx.sigma_pow(basis, i)
        cols.append(img.coeffs)
    mat = np.array(cols, dtype=np.int64).T
    fp_rank = linalg.np_rank(mat, ctx.p)
    if fp_rank % ctx.e:
        raise RuntimeError("linearised map rank is not a K-dimension")
    return fp_rank // ctx.e
