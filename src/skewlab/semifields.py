"""Division algebra multiplications on R/Rf and their verification.

Every star product is a b = g_a b mod_r f for a skew polynomial g_a
(left_factor): g_a = phi(a) for star_S, which twists the constant term by
eta*a_0^rho, and for star_D, which splits the constant over the index-2
subfield; g_a = phi(a) Z(x) for star_S', the unital isotope of star_S
(unit x).

Zero-divisor scans and nuclei work through the prime-field coordinate
picture: every product here is F_p-bilinear, so left multiplications are
matrices, the left actions of the g_a on R/Rf (quotient.residue_algebra,
R_F's builder too), and a zero divisor is a singular left multiplication
found by the batched rank scan in linalg.  The nuclei come from their
definitions in a unital isotope (the algebra itself when it has a unit):
each is the kernel of a system linear in z, dim unknowns and dim^3 rows
contracted from the structure constants (never order^3 associativity
loops).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import AutMap, norm_to_fixed
from .polyring import Poly, ext_gcd
from .quotient import QuotElem, cached_nuclei, residue_algebra
from .skewpoly import CentralPoly, SkewPoly, right_mod


class AlgebraElem(QuotElem):
    """Residue in R/Rf, the carrier of the star products."""

    __slots__ = ()

    @property
    def modulus(self):
        return self.qctx.f


class StarProduct:
    """a star b = g_a b mod_r f, with g_a = left_factor(a) (lift(a) unless
    a subclass twists it further); unit is the two-sided unit, if known."""

    unit = None

    def left_factor(self, a):
        return self.lift(a)

    def mul(self, a, b):
        return AlgebraElem(
            self.qctx, right_mod(self.left_factor(a) * b.rep, self.qctx.f)
        )


# ------------------------------------------------------------- star_S ------


class StarSSpec(StarProduct):
    """star_S: decode a_0 through tau_eta, add eta a_0^rho f, multiply."""

    def __init__(self, qctx, eta, rho):
        ctx = qctx.ctx
        self.qctx = qctx
        self.eta = eta
        self.rho = rho
        self.f0 = qctx.f.constant_coeff
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

    def left_factor(self, a):
        return self.lift(a) * self.z_skew


# ------------------------------------------------------------- star_D ------


class LprimeSplit:
    """c = c' + gamma c'' with c', c'' in L' = Fix(sigma^t), n = 2t, for a
    gamma outside L': the constant-term split of star_D."""

    def __init__(self, ctx, gamma):
        self.ctx = ctx
        self.gamma = gamma
        self.t = ctx.n // 2
        self._split_den = (gamma - ctx.sigma_pow(gamma, self.t)).inverse()

    def split(self, c):
        c1 = (c - self.ctx.sigma_pow(c, self.t)) * self._split_den
        return c - self.gamma * c1, c1


class StarDSpec(StarProduct, LprimeSplit):
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
        self.f0 = qctx.f.constant_coeff
        if ctx.in_Lprime(gamma / self.f0):
            raise ValueError("gamma/f0 lies in L'")
        if ctx.is_square_in_K(ctx.norm(gamma)) and enforce_norm:
            raise ValueError("N(gamma) is a square in K")
        if ctx.in_Lprime(gamma):
            raise ValueError("gamma lies in L'")
        super().__init__(ctx, gamma)
        self.unit = AlgebraElem(qctx, SkewPoly.one(ctx))

    def lift(self, a):
        _, app = self.split(a.rep.constant_coeff)
        correction = self.qctx.f.scale_left(self.gamma / self.f0 * app)
        return a.rep - correction


# ------------------------------------------------- coordinate algebras -----


def algebra_for_star(spec):
    """R/Rf under spec.mul as a FiniteAlgebra (finite contexts), its
    structure constants the left actions of the spec.left_factor(a)."""
    qctx = spec.qctx
    return residue_algebra(qctx, qctx.f, AlgebraElem, spec.left_factor, spec.unit)


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
    otherwise or when the nuclei systems raise.  N_l and its action on the
    index digits come from the systems nuclei solves, once per algebra and
    budget.  A
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
        _, field = cached_nuclei(alg, budget, lambda b: _solve_nuclei(alg, b))
    except (ValueError, linalg.BudgetExceeded):
        field = []

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
    """True iff alg.unit is set and both of its multiplications are I."""
    if alg.unit is None:
        return False
    v = alg.to_vec(alg.unit)
    mults = (alg.left_mult_matrix(v), alg.right_mult_matrix(v))
    return all(np.array_equal(M, np.eye(alg.dim)) for M in mults)


def nuclei(alg, budget=linalg.DEFAULT_BUDGET):
    """Left/middle/right nuclei and centre sizes, from their definitions.

    N_l = {z : (za)b = z(ab)}, N_m = {z : (az)b = a(zb)},
    N_r = {z : (ab)z = a(bz)} and Z = {z in all three : za = az}, each the
    kernel of a system linear in z, solved in a unital isotope (alg itself
    when it has a two-sided unit; see _unital_isotope): nuclei orders are
    isotopy invariants of division algebras.  The systems are solved once
    per algebra and budget, and zero_divisor_scan scans the orbits of N_l.
    """
    kernels, _ = cached_nuclei(alg, budget, lambda b: _solve_nuclei(alg, b))
    return NucleiReport(*(alg.p ** len(basis) for basis in kernels))


def _unital_isotope(alg, budget):
    """(T, R_v, R_v^-1): T the structure constants of Kaplansky's isotope
    a o b = R_v^-1(a) L_u^-1(b), whose unit is uv, with u and v the first
    invertible left and right multiplications in linalg.first_invertible's
    order, each searched within budget ranks.  u = v = 1 when alg has a
    two-sided unit, so the isotope is alg itself."""
    p, d = alg.p, alg.dim
    eye = np.eye(d, dtype=np.int64)
    T = alg.structure_constants()
    if has_two_sided_unit(alg):
        return T, eye, eye
    found = []
    for mults in (alg.left_mult_matrices(), [alg.right_mult_matrix(e) for e in eye]):
        index = linalg.first_invertible(mults, p, budget)
        if index is None:
            raise ValueError("spread set contains no invertible element")
        found.append(linalg.family_members(mults, [index], p)[0] % p)
    L_u, R_v = found
    R_inv = linalg.np_inv(R_v, p)
    T = np.einsum("xa,yb,xyk->abk", R_inv, linalg.np_inv(L_u, p), T) % p
    return T, R_v, R_inv


def _solve_nuclei(alg, budget):
    """The kernel bases of the N_l, N_m, N_r and Z systems of the unital
    isotope, and N_l acting on index digits (digit j is coordinate dim-1-j):
    l acts by R_v^-1 L_l' R_v, L_l' its left multiplication in the isotope,
    as L_(R_v^-1 (l o R_v a)) = L_l' L_a."""
    p, d = alg.p, alg.dim
    T, R_v, R_inv = _unital_isotope(alg, budget)

    def system(lhs, rhs):
        return (np.einsum(lhs, T, T) - np.einsum(rhs, T, T)).reshape(d, -1).T

    def kernel(*systems):
        return linalg.np_kernel(np.vstack(systems) % p, p, ncols=d)

    nl = system("lim,mjk->lijk", "ijm,lmk->lijk")  # (z e_i) e_j - z (e_i e_j)
    nm = system("ilm,mjk->lijk", "ljm,imk->lijk")  # (e_i z) e_j - e_i (z e_j)
    nr = system("ijm,mlk->lijk", "jlm,imk->lijk")  # (e_i e_j) z - e_i (e_j z)
    comm = (T - T.transpose(1, 0, 2)).reshape(d, -1).T  # z e_i - e_i z
    il = kernel(nl)
    action = R_inv @ np.einsum("la,abk->lkb", il, T) @ R_v % p
    kernels = (il, kernel(nm), kernel(nr), kernel(nl, nm, nr, comm))
    return kernels, list(action[:, ::-1, ::-1])
