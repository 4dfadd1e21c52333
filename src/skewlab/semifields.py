"""Division algebra multiplications on R/Rf and their verification.

star_S twists the constant term by eta*a_0^rho, star_S' is its unital
isotope (unit x), star_D splits the constant over the index-2 subfield;
the s = 1 case of star_D has the Hughes-Kleinfeld closed form.

Zero-divisor scans and nuclei work through the prime-field coordinate
picture: every product here is F_p-bilinear, so left multiplications are
matrices, a zero divisor is a singular left multiplication found by the
batched rank scan in linalg, and the nuclei are the idealisers, centraliser
and centre of the spread set {L_a} inside M_dim(F_p), which
quotient.subspace_nuclei solves as linear systems (never order^3
associativity loops).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import AutMap, FieldError, FiniteFieldCtx, norm_to_fixed
from .polyring import Poly, ext_gcd
from .quotient import (
    FiniteAlgebra,
    QuotElem,
    cached_nuclei,
    subspace_action,
    unvec,
    vec,
)
from .skewpoly import CentralPoly, SkewPoly, right_mod


class AlgebraElem(QuotElem):
    """Residue in R/Rf, the carrier of the star products."""

    __slots__ = ()

    @property
    def modulus(self):
        return self.qctx.f


# ------------------------------------------------------------- star_S ------


class StarSSpec:
    """star_S: decode a_0 through tau_eta, add eta a_0^rho f, multiply."""

    def __init__(self, qctx, eta, rho):
        ctx = qctx.ctx
        self.qctx = qctx
        self.eta = eta
        self.rho = rho
        self.f0 = qctx.f.constant_coeff
        if not isinstance(ctx, FiniteFieldCtx) and not rho.is_identity():
            raise FieldError("function-field star_S is only supported for rho = id")
        # K' = Fix(<sigma, rho>)
        self.kprime = rho.join(AutMap.sigma_power(ctx, 1))
        c = eta * self.f0
        if norm_to_fixed(c, self.kprime) == ctx.one:
            raise ValueError("N(eta*f0) = 1: tau_eta is not invertible")
        # tau_eta = 1 - c rho, and (c rho)^i(a) = c_i rho^i(a) with
        # c_i = c rho(c) ... rho^(i-1)(c), so (c rho)^r = N_rho(c) for
        # r = rho.order() and tau_eta^-1 = (1 - N_rho(c))^-1 sum_{i<r} (c rho)^i.
        # N_rho(c) != 1 because N_{L/K'}(c) = N_{Fix(rho)/K'}(N_rho(c)) != 1.
        terms, c_i = [], ctx.one
        for i in range(rho.order()):
            rho_i = AutMap(ctx, rho.exp * i)
            terms.append((c_i, rho_i))
            c_i = c_i * rho_i.apply(c)
        scale = (ctx.one - c_i).inverse()  # c_r = N_rho(c)
        self._tau_inv = [(scale * b, rho_i) for b, rho_i in terms]

    def decode_a0(self, c0):
        """tau_eta^{-1}: recover a_0 from the stored constant term."""
        acc = self.qctx.ctx.zero
        for c_i, rho_i in self._tau_inv:
            acc = acc + c_i * rho_i.apply(c0)
        return acc

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


class LprimeSplit:
    """c = c' + gamma c'' with c', c'' in L' = Fix(sigma^t), n = 2t, for a
    gamma outside L': the constant-term split of star_D and the pairs of
    Hughes-Kleinfeld."""

    def __init__(self, ctx, gamma):
        self.ctx = ctx
        self.gamma = gamma
        self.t = ctx.n // 2
        self._split_den = (gamma - ctx.sigma_pow(gamma, self.t)).inverse()

    def in_subfield(self, a):
        return self.ctx.sigma_pow(a, self.t) == a

    def split(self, c):
        c1 = (c - self.ctx.sigma_pow(c, self.t)) * self._split_den
        return c - self.gamma * c1, c1


class StarDSpec(LprimeSplit):
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
        t = ctx.n // 2
        self.f0 = qctx.f.constant_coeff
        ratio = gamma / self.f0
        if ctx.sigma_pow(ratio, t) == ratio:
            raise ValueError("gamma/f0 lies in L'")
        if ctx.is_square_in_K(ctx.norm(gamma)) and enforce_norm:
            raise ValueError("N(gamma) is a square in K")
        if ctx.sigma_pow(gamma, t) == gamma:
            raise ValueError("gamma lies in L'")
        super().__init__(ctx, gamma)
        self.unit = AlgebraElem(qctx, SkewPoly.one(ctx))

    def lift(self, a):
        _, app = self.split(a.rep.constant_coeff)
        correction = self.qctx.f.scale_left(self.gamma / self.f0 * app)
        return a.rep - correction

    def mul(self, a, b):
        return AlgebraElem(
            self.qctx, right_mod(self.lift(a) * b.rep, self.qctx.f)
        )


# ------------------------------------------------------ Hughes-Kleinfeld ---


class HKParams(LprimeSplit):
    """q, t, sigma exponent j, and gamma with gamma^(q^j + 1) = u + v*gamma,
    u, v in F_{q^t}; multiplication on pairs over F_{q^t}."""

    def __init__(self, ctx, gamma):
        if not isinstance(ctx, FiniteFieldCtx) or ctx.n % 2:
            raise ValueError("Hughes-Kleinfeld needs a finite field with even n")
        if ctx.sigma_pow(gamma, ctx.n // 2) == gamma:
            raise ValueError("gamma must lie outside F_{q^t}")
        super().__init__(ctx, gamma)
        power = ctx.sigma_pow(gamma, 1) * gamma  # gamma^(q^j + 1)
        self.u, self.v = self.split(power)


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


def algebra_for_star(spec):
    """R/Rf under spec.mul as a FiniteAlgebra (finite contexts)."""
    qctx = spec.qctx
    ctx = qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("coordinate scans need a finite context")
    df = qctx.f.degree
    unit = getattr(spec, "unit", None)
    # scalar multiplications by the base field of the algebra:
    # K' (= Fix(rho) cap K) for star_S/star_S', K for star_D; each acts on
    # every coefficient slot
    if isinstance(spec, StarSSpec):
        scalars = ctx.fixed_basis(spec.kprime.exp)
    else:
        scalars = ctx.k_basis
    eye = np.eye(df, dtype=np.int64)
    mats = [np.kron(eye, ctx.mult_matrix(sc)) % ctx.p for sc in scalars]
    return FiniteAlgebra(
        ctx.p,
        df * ctx.dim,
        lambda a: vec(a.rep, df),
        lambda v: AlgebraElem(qctx, unvec(ctx, v, df)),
        spec.mul,
        unit,
        mats,
    )


def algebra_for_hk(params):
    """F_{q^t} + F_{q^t} under hk_mul as a FiniteAlgebra."""
    ctx = params.ctx
    sub = ctx.fixed_basis(ctx.sig * params.t)
    half = len(sub)
    basis_mat = np.array([b.coeffs for b in sub], dtype=np.int64).T

    def sub_coords(a):
        sol = linalg.np_solve(basis_mat, list(a.coeffs), ctx.p)
        if sol is None:
            raise FieldError("element is not in F_{q^t}")
        return [int(c) for c in sol]

    def to_vec(pair):
        return tuple(sub_coords(pair[0]) + sub_coords(pair[1]))

    def from_vec(v):
        return (ctx.combine(v[:half], sub), ctx.combine(v[half:], sub))

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
    first a in enumeration order with rank(L_a) < dim.  L_(l a) = L_l L_a
    for l in the left nucleus N_l, so the scan ranks one L_a per N_l^*
    orbit when N_l passes rank_scan's field check, and one per F_p^* orbit
    otherwise or when the nuclei systems raise.  N_l comes from the
    computation nuclei reports, made once per algebra and budget.  A
    singular representative sends the scan back to F_p^* orbits in index
    order for the first a; budget counts the ranks computed (see
    rank_scan).  The witness b is the first nonzero vector of ker L_a in
    enumeration order, so (a, b) is the first zero pair of the pairwise
    enumeration, and pairs_checked is the number of pairs that enumeration
    tries up to and including it.  Every SPOT_CHECK_EVERY-th L_a ranked is
    checked against the direct product a*a, with a decoded from its index,
    and the witness product is checked to be zero.
    """
    p, dim, order = alg.p, alg.dim, alg.order
    # digit j of an index is coordinate dim-1-j (the first is most significant)
    basis = np.stack(alg.left_mult_matrices()[::-1])
    try:
        nl = _spread_nuclei(alg, budget).il
    except (ValueError, linalg.BudgetExceeded):
        field = []
    else:
        field = subspace_action(MatrixAlgebra(p, dim), basis.reshape(dim, -1), nl)

    def check(idx, L_a, _rank):
        a = alg.elem_from_index(idx)
        vec = np.array(alg.to_vec(a), dtype=np.int64)
        direct = np.array(alg.to_vec(alg.mul(a, a)), dtype=np.int64) % p
        return np.array_equal(direct, (L_a @ vec) % p)

    a_idx, _ = linalg.rank_scan(
        basis, p, dim, budget=budget, check=check, field=field
    )
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


def has_two_sided_unit(alg):
    """True iff alg.unit is set and satisfies both unit laws on the basis."""
    if alg.unit is None:
        return False
    for ei in alg.basis():
        want = tuple(alg.to_vec(ei))
        if tuple(alg.to_vec(alg.mul(alg.unit, ei))) != want:
            return False
        if tuple(alg.to_vec(alg.mul(ei, alg.unit))) != want:
            return False
    return True


class MatrixAlgebra:
    """M_d(F_p) in row-major coordinates: vec(X Y) = (X kron I) vec(Y) and
    vec(Y X) = (I kron X^T) vec(Y)."""

    def __init__(self, p, d):
        self.p, self.d, self.dim = p, d, d * d
        self._eye = np.eye(d, dtype=np.int64)

    def left_mult_matrix(self, v):
        return np.kron(np.reshape(v, (self.d, self.d)), self._eye)

    def right_mult_matrix(self, v):
        return np.kron(self._eye, np.reshape(v, (self.d, self.d)).T)


def nuclei(alg, budget=linalg.DEFAULT_BUDGET):
    """Left/middle/right nuclei and centre sizes via the spread set {L_a}.

    N_l and N_m are the left/right idealisers of the spread set inside
    M_dim(F_p), N_r is the centraliser of the normalised spread set and the
    base field scalars ((ab)z = a(bz) for all a, b says R_z commutes with
    every L_a), and the centre is its intersection with N_l, all from
    quotient.subspace_nuclei.  Normalising by the first invertible L_a of a
    scan of the spread set (within budget ranks) puts the identity in the
    spread set, unital or not.  The systems are solved once
    per algebra and budget, and zero_divisor_scan scans the orbits of N_l.
    """
    try:
        kernels = _spread_nuclei(alg, budget)
    except ValueError:
        raise ValueError("spread set contains no invertible element") from None
    return NucleiReport(*(alg.p ** len(basis) for basis in kernels))


def _spread_nuclei(alg, budget):
    """quotient.subspace_nuclei of the spread set {L_a} in M_dim(F_p),
    once per algebra and budget: nuclei reports its sizes and
    zero_divisor_scan scans the orbits of its N_l."""
    spread = [M.reshape(-1) for M in alg.left_mult_matrices()]
    scalars = [S.reshape(-1) for S in alg.scalar_mats]
    return cached_nuclei(
        alg, MatrixAlgebra(alg.p, alg.dim), spread, scalars, budget
    )
