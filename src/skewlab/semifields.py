"""Division algebra multiplications on R/Rf and their verification.

star_S twists the constant term by eta*a_0^rho, star_S' is its unital
isotope (unit x), star_D splits the constant over the index-2 subfield;
the s = 1 case of star_D has the Hughes-Kleinfeld closed form.

Zero-divisor scans and nuclei work through the prime-field coordinate
picture: every product here is F_p-bilinear, so left multiplications are
matrices, a zero divisor is a singular left multiplication found by the
batched rank scan in linalg, and nuclei come from idealiser/centraliser
linear systems on the spread set (never from order^3 associativity loops).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import (
    AutMap,
    FieldError,
    FiniteFieldCtx,
    is_square_in_base,
    norm_to_fixed,
)
from .polyring import Poly, ext_gcd
from .skewpoly import CentralPoly, SkewPoly, right_mod


class AlgebraElem:
    """Residue in R/Rf, the carrier of the star products."""

    __slots__ = ("qctx", "rep")

    def __init__(self, qctx, rep):
        self.qctx = qctx
        self.rep = rep

    def __bool__(self):
        return bool(self.rep)

    def __eq__(self, other):
        return self.qctx is other.qctx and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __add__(self, other):
        return AlgebraElem(self.qctx, self.rep + other.rep)

    def __sub__(self, other):
        return AlgebraElem(self.qctx, self.rep - other.rep)

    def __neg__(self):
        return AlgebraElem(self.qctx, -self.rep)

    def __repr__(self):
        from .skewpoly import skew_to_literal

        return f"AlgebraElem({skew_to_literal(self.rep)!r})"


def algebra_elem(qctx, coeffs):
    return AlgebraElem(qctx, SkewPoly(qctx.ctx, coeffs))


# ------------------------------------------------------------- star_S ------


class StarSSpec:
    """star_S: decode a_0 through tau_eta, add eta a_0^rho f, multiply."""

    def __init__(self, qctx, eta, rho):
        ctx = qctx.ctx
        self.qctx = qctx
        self.eta = eta
        self.rho = rho
        self.f0 = qctx.f.constant_coeff
        if isinstance(ctx, FiniteFieldCtx):
            kprime_exp = math.gcd(rho.exp, ctx.e)
            nrm = norm_to_fixed(
                eta * self.f0, AutMap.frobenius_power(ctx, kprime_exp)
            )
        else:
            if rho.exp % ctx.n:
                raise FieldError(
                    "function-field star_S is only supported for rho = id"
                )
            nrm = norm_to_fixed(eta * self.f0, AutMap.sigma_power(ctx, 1))
        if nrm == ctx.one:
            raise ValueError("N(eta*f0) = 1: tau_eta is not invertible")
        if isinstance(ctx, FiniteFieldCtx):
            eye = np.eye(ctx.dim, dtype=np.int64)
            m_t = (
                eye
                - ctx.mult_matrix(eta * self.f0) @ ctx._aut_matrix(rho.exp)
            ) % ctx.p
            self._tau_inv = linalg.np_inv(m_t, ctx.p)
        else:
            self._tau_inv_scalar = (ctx.one - eta * self.f0).inverse()

    def decode_a0(self, c0):
        """tau_eta^{-1}: recover a_0 from the stored constant term."""
        ctx = self.qctx.ctx
        if isinstance(ctx, FiniteFieldCtx):
            vec = (self._tau_inv @ np.array(c0.coeffs, dtype=np.int64)) % ctx.p
            return ctx.elem(tuple(int(v) for v in vec))
        return c0 * self._tau_inv_scalar

    def lift(self, a):
        """phi_S(a) = a + eta a_0^rho f, an element of the k=1 S-code."""
        a0 = self.decode_a0(a.rep.constant_coeff)
        twist = self.eta * self.rho.apply(a0)
        return a.rep + self.qctx.f.scale_left(twist)

    def mul(self, a, b):
        return AlgebraElem(
            self.qctx, right_mod(self.lift(a) * b.rep, self.qctx.f)
        )


class StarSPrimeSpec(StarSSpec):
    """star_S': the unital isotope of star_S, with unit x and the extra
    factor Z(x) = z(x^n) x^(sn-1) where z(x^n) x^(ns) = 1 mod_r f."""

    def __init__(self, qctx, eta, rho):
        super().__init__(qctx, eta, rho)
        ctx = qctx.ctx
        # z(y) inverts y^s mod F in the field K[y]/(F) = E_f
        F = qctx.F.poly
        ys = (Poly.gen(ctx) ** qctx.s) % F
        g, u, _ = ext_gcd(ys, F)
        if g.degree != 0:
            raise RuntimeError("x^(ns) is not invertible in E_f")
        z = CentralPoly(ctx, u % F)
        # Z(x) is kept unreduced: right-reduction only commutes with left
        # factors, and Z sits in the middle of the star product
        self.z_skew = z.to_skew() * SkewPoly.monomial(
            ctx, ctx.one, ctx.n * qctx.s - 1
        )
        x = SkewPoly.x(ctx)
        one = SkewPoly.one(ctx)
        if right_mod(x * self.z_skew, qctx.f) != one or right_mod(
            self.z_skew * x, qctx.f
        ) != one:
            raise RuntimeError("Z(x) is not the inverse of x in R/Rf")
        self.unit = AlgebraElem(qctx, right_mod(x, qctx.f))

    def mul(self, a, b):
        prod = self.lift(a) * self.z_skew * b.rep
        return AlgebraElem(self.qctx, right_mod(prod, self.qctx.f))


# ------------------------------------------------------------- star_D ------


class StarDSpec:
    """star_D: split a_0 = a_0' + gamma a_0'' over L', subtract
    (gamma/f0) a_0'' f, multiply; unital with unit 1.

    enforce_norm=False admits gamma with square norm (the product is still
    well-defined as long as gamma stays outside L'); scans over such
    deliberately invalid instances report whatever they find.
    """

    def __init__(self, qctx, gamma, enforce_norm=True):
        ctx = qctx.ctx
        if ctx.n % 2:
            raise ValueError("star_D needs even n")
        self.qctx = qctx
        self.gamma = gamma
        self.t = ctx.n // 2
        self.f0 = qctx.f.constant_coeff
        ratio = gamma / self.f0
        if ctx.sigma_pow(ratio, self.t) == ratio:
            raise ValueError("gamma/f0 lies in L'")
        ngam = norm_to_fixed(gamma, AutMap.sigma_power(ctx, 1))
        if isinstance(ctx, FiniteFieldCtx):
            square = is_square_in_base(ngam)
        else:
            square = is_square_in_base(ngam, ctx)
        if square and enforce_norm:
            raise ValueError("N(gamma) is a square in K")
        if ctx.sigma_pow(gamma, self.t) == gamma:
            raise ValueError("gamma lies in L'")
        self._split_den = (gamma - ctx.sigma_pow(gamma, self.t)).inverse()
        self.unit = AlgebraElem(qctx, SkewPoly.one(ctx))

    def split(self, c):
        """c = a' + gamma a'' with a', a'' in L'."""
        ctx = self.qctx.ctx
        app = (c - ctx.sigma_pow(c, self.t)) * self._split_den
        ap = c - self.gamma * app
        return ap, app

    def lift(self, a):
        _, app = self.split(a.rep.constant_coeff)
        correction = self.qctx.f.scale_left(self.gamma / self.f0 * app)
        return a.rep - correction

    def mul(self, a, b):
        return AlgebraElem(
            self.qctx, right_mod(self.lift(a) * b.rep, self.qctx.f)
        )


# ------------------------------------------------------ Hughes-Kleinfeld ---


class HKParams:
    """q, t, sigma exponent j, and gamma with gamma^(q^j + 1) = u + v*gamma,
    u, v in F_{q^t}; multiplication on pairs over F_{q^t}."""

    def __init__(self, ctx, gamma):
        if not isinstance(ctx, FiniteFieldCtx) or ctx.n % 2:
            raise ValueError("Hughes-Kleinfeld needs a finite field with even n")
        self.ctx = ctx
        self.t = ctx.n // 2
        self.gamma = gamma
        if ctx.sigma_pow(gamma, self.t) == gamma:
            raise ValueError("gamma must lie outside F_{q^t}")
        self._split_den = (gamma - ctx.sigma_pow(gamma, self.t)).inverse()
        power = ctx.sigma_pow(gamma, 1) * gamma  # gamma^(q^j + 1)
        self.u, self.v = self.split(power)

    def split(self, c):
        ctx = self.ctx
        c1 = (c - ctx.sigma_pow(c, self.t)) * self._split_den
        c0 = c - self.gamma * c1
        return c0, c1

    def in_subfield(self, a):
        return self.ctx.sigma_pow(a, self.t) == a


def hk_mul(c, d, params):
    """(c0,c1) * (d0,d1) = (c0 d0 + c1 d1^Q u, c0 d1 + c1 d0^Q + c1 d1^Q v)
    with Q = q^j the sigma twist."""
    ctx = params.ctx
    c0, c1 = c
    d0, d1 = d
    d0q = ctx.sigma_pow(d0, 1)
    d1q = ctx.sigma_pow(d1, 1)
    return (
        c0 * d0 + c1 * d1q * params.u,
        c0 * d1 + c1 * d0q + c1 * d1q * params.v,
    )


# ------------------------------------------------- coordinate algebras -----


class FiniteAlgebra:
    """An F_p-coordinatised finite algebra: enough structure for the
    pairwise scan and the spread-set nuclei systems."""

    def __init__(self, p, dim, to_vec, from_vec, mul, unit=None, scalar_mats=None):
        self.p = p
        self.dim = dim
        self.to_vec = to_vec
        self.from_vec = from_vec
        self.mul = mul
        self.unit = unit
        self.scalar_mats = scalar_mats or []

    @property
    def order(self):
        return self.p**self.dim

    def elem_from_index(self, idx):
        digits = []
        for _ in range(self.dim):
            digits.append(idx % self.p)
            idx //= self.p
        digits.reverse()
        return self.from_vec(tuple(digits))

    def left_mult_matrices(self):
        """M_i = matrix of left multiplication by the i-th basis vector."""
        mats = []
        for i in range(self.dim):
            ei = self.from_vec(tuple(1 if k == i else 0 for k in range(self.dim)))
            cols = []
            for j in range(self.dim):
                ej = self.from_vec(
                    tuple(1 if k == j else 0 for k in range(self.dim))
                )
                cols.append(self.to_vec(self.mul(ei, ej)))
            mats.append(np.array(cols, dtype=np.int64).T % self.p)
        return mats


def algebra_for_star(spec):
    """R/Rf under spec.mul as a FiniteAlgebra (finite contexts)."""
    qctx = spec.qctx
    ctx = qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("coordinate scans need a finite context")
    df = qctx.f.degree
    dim = df * ctx.dim

    def to_vec(a):
        out = []
        for slot in range(df):
            out.extend(a.rep[slot].coeffs)
        return tuple(out)

    def from_vec(v):
        coeffs = [
            ctx.elem(tuple(v[s * ctx.dim : (s + 1) * ctx.dim])) for s in range(df)
        ]
        return AlgebraElem(qctx, SkewPoly(ctx, coeffs))

    unit = getattr(spec, "unit", None)
    # scalar multiplications by the base field of the algebra:
    # K' (= Fix(rho) cap K) for star_S/star_S', K for star_D
    if isinstance(spec, StarSSpec):
        kp = math.gcd(spec.rho.exp, ctx.e)
        scalars = [
            b
            for b in _subfield_basis(ctx, kp)
        ]
    else:
        scalars = list(ctx.k_basis)
    mats = []
    for sc in scalars:
        blocks = ctx.mult_matrix(sc)
        big = np.zeros((dim, dim), dtype=np.int64)
        for s in range(df):
            big[
                s * ctx.dim : (s + 1) * ctx.dim, s * ctx.dim : (s + 1) * ctx.dim
            ] = blocks
        mats.append(big % ctx.p)
    return FiniteAlgebra(ctx.p, dim, to_vec, from_vec, spec.mul, unit, mats)


def _subfield_basis(ctx, frob_exp):
    """F_p-basis of Fix(a -> a^(p^frob_exp))."""
    if frob_exp % ctx.dim == 0:
        return [
            ctx.elem(tuple(1 if k == i else 0 for k in range(ctx.dim)))
            for i in range(ctx.dim)
        ]
    mat = ctx._aut_matrix(frob_exp % ctx.dim)
    eye = np.eye(ctx.dim, dtype=np.int64)
    ker = linalg.np_kernel((mat - eye) % ctx.p, ctx.p)
    return [ctx.elem(tuple(int(c) for c in row)) for row in ker]


def algebra_for_hk(params):
    """F_{q^t} + F_{q^t} under hk_mul as a FiniteAlgebra."""
    ctx = params.ctx
    sub = _subfield_basis(ctx, (ctx._sig * params.t) % ctx.dim)
    half = len(sub)
    basis_mat = np.array([b.coeffs for b in sub], dtype=np.int64).T

    def sub_coords(a):
        sol = linalg.np_solve(basis_mat, list(a.coeffs), ctx.p)
        if sol is None:
            raise FieldError("element is not in F_{q^t}")
        return [int(c) for c in sol]

    def sub_elem(digits):
        acc = ctx.zero
        for d, b in zip(digits, sub):
            if d:
                acc = acc + ctx.from_int(int(d)) * b
        return acc

    def to_vec(pair):
        return tuple(sub_coords(pair[0]) + sub_coords(pair[1]))

    def from_vec(v):
        return (sub_elem(v[:half]), sub_elem(v[half:]))

    def mul(a, b):
        return hk_mul(a, b, params)

    unit = (ctx.one, ctx.zero)
    mats = []
    for sc in ctx.k_basis:
        # scalar action on each F_{q^t} component, in sub coordinates
        comp = np.zeros((half, half), dtype=np.int64)
        for j, b in enumerate(sub):
            comp[:, j] = sub_coords(sc * b)
        big = np.zeros((2 * half, 2 * half), dtype=np.int64)
        big[:half, :half] = comp
        big[half:, half:] = comp
        mats.append(big)
    return FiniteAlgebra(ctx.p, 2 * half, to_vec, from_vec, mul, unit, mats)


def algebra_for_field(ctx):
    """A finite field under its own multiplication (sanity fixture)."""

    def to_vec(a):
        return a.coeffs

    def from_vec(v):
        return ctx.elem(tuple(v))

    def mul(a, b):
        return a * b

    return FiniteAlgebra(
        ctx.p, ctx.dim, to_vec, from_vec, mul, ctx.one, [np.eye(ctx.dim, dtype=np.int64)]
    )


# ------------------------------------------------------------- scanning ----


@dataclass
class ZeroDivisorReport:
    found: bool
    witness: tuple | None
    pairs_checked: int

    def as_dict(self, render=repr):
        return {
            "found": self.found,
            "witness": (
                [render(self.witness[0]), render(self.witness[1])]
                if self.witness
                else None
            ),
            "pairs_checked": self.pairs_checked,
        }


def zero_divisor_scan(alg, budget=linalg.DEFAULT_BUDGET):
    """Exhaustive scan for a*b = 0 with a, b nonzero.

    a has a zero divisor b exactly when its left multiplication L_a is
    singular, and a -> L_a is F_p-linear, so linalg.rank_scan finds the
    first a in enumeration order with rank(L_a) < dim (one rank per F_p^*
    orbit; budget counts those ranks).  The witness b is the first nonzero
    vector of ker L_a in enumeration order, so (a, b) is the first zero
    pair of the pairwise enumeration, and pairs_checked is the number of
    pairs that enumeration tries up to and including it.  Every
    SPOT_CHECK_EVERY-th L_a is checked against the direct product a*a, and
    the witness product is checked to be zero.
    """
    p, dim, order = alg.p, alg.dim, alg.order
    # digit j of an index is coordinate dim-1-j (the first is most significant)
    basis = np.stack(alg.left_mult_matrices()[::-1])

    def check(idx, L_a, _rank):
        a = alg.elem_from_index(idx)
        vec = np.array(alg.to_vec(a), dtype=np.int64)
        direct = np.array(alg.to_vec(alg.mul(a, a)), dtype=np.int64) % p
        return np.array_equal(direct, (L_a @ vec) % p)

    a_idx, _ = linalg.rank_scan(basis, p, dim, budget=budget, check=check)
    if a_idx is None:
        return ZeroDivisorReport(False, None, (order - 1) ** 2)
    L_a = linalg.family_members(basis, [a_idx], p)[0]
    # the last echelon row of the kernel has the least significant leading
    # coordinate: scaled to leading 1 it is the smallest nonzero vector
    ker, _ = linalg.np_rref(linalg.np_kernel(L_a, p), p)
    b_vec = tuple(int(c) for c in ker[-1])
    a = alg.elem_from_index(a_idx)
    b = alg.from_vec(b_vec)
    if any(alg.to_vec(alg.mul(a, b))):
        raise RuntimeError("zero-divisor witness has a nonzero product")
    b_idx = sum(c * p ** (dim - 1 - i) for i, c in enumerate(b_vec))
    return ZeroDivisorReport(True, (a, b), (a_idx - 1) * (order - 1) + b_idx)


# ---------------------------------------------------------------- nuclei ---


@dataclass
class NucleiReport:
    nl: int
    nm: int
    nr: int
    z: int

    def as_dict(self):
        return {"Nl": self.nl, "Nm": self.nm, "Nr": self.nr, "Z": self.z}


def _vec_rows(mats):
    return np.array([m.reshape(-1) for m in mats], dtype=np.int64)


def _span_complement_rows(mats, p):
    """Rows q with q @ vec(M) = 0 exactly for M in the F_p-span of mats."""
    span = _vec_rows(mats)
    return linalg.np_kernel(span, p, ncols=span.shape[1])


def has_two_sided_unit(alg):
    """True iff alg.unit is set and satisfies both unit laws on the basis."""
    if alg.unit is None:
        return False
    for i in range(alg.dim):
        ei = alg.from_vec(tuple(1 if k == i else 0 for k in range(alg.dim)))
        want = tuple(alg.to_vec(ei))
        if tuple(alg.to_vec(alg.mul(alg.unit, ei))) != want:
            return False
        if tuple(alg.to_vec(alg.mul(ei, alg.unit))) != want:
            return False
    return True


def _normalise_spread(mats, p):
    """Left-multiply the spread span by the inverse of its first member so
    that it contains the identity (the nuclear-parameter normalisation for
    codes not containing the identity; sizes are equivalence invariants)."""
    for M in mats:
        if linalg.np_rank(M, p) == M.shape[0]:
            inv = linalg.np_inv(M, p)
            return [(inv @ X) % p for X in mats]
    raise ValueError("spread set contains no invertible element")


def nuclei(alg):
    """Left/middle/right nuclei and centre sizes via the spread set {L_a}.

    N_l and N_m are the left/right idealisers of the spread set, N_r is its
    centraliser ((ab)z = a(bz) for all a, b says R_z commutes with every
    L_a), and the centre is the intersection of N_l with the centraliser;
    all of them are kernels of linear systems in End over the algebra's base
    field.  A non-unital algebra is first normalised so that its spread set
    contains the identity.
    """
    p, dim = alg.p, alg.dim
    L = alg.left_mult_matrices()
    if not has_two_sided_unit(alg):
        L = _normalise_spread(L, p)
    eye = np.eye(dim, dtype=np.int64)
    Q = _span_complement_rows(L, p)
    # row-major flattening: vec(X M) = (I kron M^T) vec(X),
    #                       vec(M X) = (M kron I) vec(X)
    scalar_rows = [
        (np.kron(eye, S.T) - np.kron(S, eye)) % p for S in alg.scalar_mats
    ]

    def kernel_size(rows):
        stacked = np.vstack(rows) if rows else np.zeros((0, dim * dim), dtype=np.int64)
        ker = linalg.np_kernel(stacked % p, p, ncols=dim * dim)
        return p ** ker.shape[0]

    nl_rows = [(Q @ np.kron(eye, M.T)) % p for M in L]
    nm_rows = [(Q @ np.kron(M, eye)) % p for M in L]
    cen_rows = [(np.kron(eye, M.T) - np.kron(M, eye)) % p for M in L]
    nl = kernel_size(nl_rows)
    nm = kernel_size(nm_rows)
    nr = kernel_size(cen_rows + scalar_rows)
    z = kernel_size(nl_rows + cen_rows + scalar_rows)
    return NucleiReport(nl, nm, nr, z)
