"""Shared samplers and context factories for the test suite."""

import numpy as np

from skewlab import linalg
from skewlab.fields import FieldError, FiniteFieldCtx, FunctionFieldCtx
from skewlab.polyring import Poly
from skewlab.quotient import FiniteAlgebra, QuotElem, Specialisation, vec
from skewlab.semifields import LprimeSplit
from skewlab.skewpoly import (
    CentralPoly,
    SkewPoly,
    bound,
    central_is_irreducible,
    left_mod,
    power_reductions,
    right_mod,
)


def finite_ctx(p, n, e=1, sigma_exp=1):
    return FiniteFieldCtx(p, e, n, sigma_exp)


def random_elem(ctx, rng):
    if isinstance(ctx, FunctionFieldCtx):
        return ctx.random_elem(rng, max_deg=1)
    return ctx.random_elem(rng)


def random_skew(ctx, max_deg, rng, monic=False, nonzero=False, nonzero_const=False):
    deg = rng.randrange(max_deg + 1)
    coeffs = [random_elem(ctx, rng) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = ctx.one
    f = SkewPoly(ctx, coeffs)
    if (nonzero and not f) or (nonzero_const and not f.constant_coeff):
        return random_skew(ctx, max_deg, rng, monic, nonzero, nonzero_const)
    if monic and f.degree != deg:
        return random_skew(ctx, max_deg, rng, monic, nonzero, nonzero_const)
    return f


def residue(q, a):
    """The class of the skew polynomial a in R_F = q, held by its canonical
    representative a mod_r F(x^n)."""
    return QuotElem(q, right_mod(a, q.F_skew))


def left_divides(g, f):
    """True iff f = g*q for some q."""
    return not left_mod(f, g)


def irreducible_by_bound(f):
    """Irreducibility of a monic f of degree >= 1 with nonzero constant
    coefficient over a finite context: deg F = deg f for its bound F, and F
    irreducible over K."""
    F = bound(f).F
    return F.s == f.degree and central_is_irreducible(F)


def random_irreducible(ctx, deg, rng):
    """A uniformly sampled monic irreducible of the exact degree with
    nonzero constant coefficient."""
    while True:
        coeffs = [ctx.random_elem(rng) for _ in range(deg)] + [ctx.one]
        if not coeffs[0]:
            continue
        f = SkewPoly(ctx, coeffs)
        if irreducible_by_bound(f):
            return f


def y_minus_one(ctx):
    return CentralPoly.from_coeffs(ctx, [ctx.minus_one, ctx.one])


def base_field_elems(ctx):
    """Every element of K, index i having base-p digits i over k_basis
    (k_basis[0] least significant); for e = 1 element i is i * 1."""
    from skewlab.modpoly import digits

    return [
        ctx.combine(digits(i, ctx.p, ctx.e)[::-1], ctx.k_basis) for i in range(ctx.q)
    ]


def irreducible_quadratic(ctx):
    """A fixed monic irreducible F(y) of degree 2 with F(0) != 0 over K:
    the first (F0, F1) in the order of base_field_elems."""
    K = base_field_elems(ctx)
    for c0 in K[1:]:
        for c1 in K:
            F = CentralPoly.from_coeffs(ctx, [c0, c1, ctx.one])
            if central_is_irreducible(F):
                return F
    raise RuntimeError("no irreducible quadratic found")


def record_chunks(monkeypatch):
    """Returns the list of the chunks both rank kernels are handed, in call
    order: (None, size) for batch_rank over F_p, (field, size) for
    batch_rank_over."""
    batch_rank, batch_rank_over = linalg.batch_rank, linalg.batch_rank_over
    chunks = []

    def counted(mats, p):
        chunks.append((None, len(mats)))
        return batch_rank(mats, p)

    def counted_over(mats, field):
        chunks.append((field, len(mats)))
        return batch_rank_over(mats, field)

    monkeypatch.setattr(linalg, "batch_rank", counted)
    monkeypatch.setattr(linalg, "batch_rank_over", counted_over)
    return chunks


def record_rank_scans(monkeypatch):
    """Repeat every linalg.rank_scan with no field acting, ranking over the
    same `over`.  Returns the list each scan appends (orbit, result, F_p^*
    result) to; orbit is True when the scan ranked a different number of
    members than the F_p^* scan (fewer for a scan of larger orbits; more
    with its rerun)."""
    rank_scan = linalg.rank_scan
    ranked = record_chunks(monkeypatch)
    scans = []

    def both(basis, p, threshold, unit=1, budget=linalg.DEFAULT_BUDGET,
             check=None, field=(), over=None):
        ranked.clear()
        got = rank_scan(basis, p, threshold, unit, budget, check, field, over)
        orbit_ranks = sum(n for _, n in ranked)
        plain = rank_scan(basis, p, threshold, unit, budget, check, over=over)
        scans.append((2 * orbit_ranks != sum(n for _, n in ranked), got, plain))
        return got

    monkeypatch.setattr(linalg, "rank_scan", both)
    return scans


def product_table_constants(alg):
    """The structure constants T of a FiniteAlgebra from the dim^2 products
    of its basis elements: the oracle for structure constants built any
    other way, and the constants of the algebras below."""
    basis = alg.basis()
    table = [[alg.to_vec(alg.mul(x, y)) for y in basis] for x in basis]
    return np.array(table, dtype=np.int64) % alg.p


def np_solve(M, b, p):
    """One solution of M x = b mod p (free variables zero), or None."""
    M = np.atleast_2d(np.array(M, dtype=np.int64))
    b = np.array(b, dtype=np.int64).reshape(-1, 1)
    R, pivots = linalg.np_rref(np.hstack([M, b]), p)
    ncols = M.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for row, pc in zip(R, pivots):
        x[pc] = row[-1]
    return x


class HKParams(LprimeSplit):
    """Hughes-Kleinfeld: q, t, sigma exponent j, and gamma with
    gamma^(q^j + 1) = u + v*gamma, u, v in F_{q^t}; multiplication on pairs
    over F_{q^t}.  The s = 1 case of star_D in closed form."""

    def __init__(self, ctx, gamma):
        if not isinstance(ctx, FiniteFieldCtx) or ctx.n % 2:
            raise ValueError("Hughes-Kleinfeld needs a finite field with even n")
        if ctx.in_Lprime(gamma):
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


def algebra_for_hk(params):
    """F_{q^t} + F_{q^t} under hk_mul as a FiniteAlgebra."""
    ctx = params.ctx
    sub = ctx.fixed_basis(ctx.sig * params.t)
    half = len(sub)
    basis_mat = np.array([b.coeffs for b in sub], dtype=np.int64).T

    def sub_coords(a):
        sol = np_solve(basis_mat, list(a.coeffs), ctx.p)
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
    return FiniteAlgebra(
        ctx.p, 2 * half, to_vec, from_vec, mul, product_table_constants, unit
    )


def algebra_for_field(ctx):
    """A finite field under its own multiplication (sanity fixture)."""
    return FiniteAlgebra(
        ctx.p, ctx.dim, lambda a: a.coeffs, lambda v: ctx.elem(tuple(v)),
        lambda a, b: a * b, product_table_constants, ctx.one,
    )


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


def companion_product(f):
    """A_f as the semilinear product C_f C_f^sigma ... C_f^(sigma^(n-1)) of
    the companion matrix C_f of a monic f (C_f[i][h-1] = -f_i, ones on the
    subdiagonal), sigma applied entrywise; the test-side guard for
    bound(f).a_matrix, which reads A_f off x^j mod_r f instead."""
    ctx = f.ctx
    h = f.degree
    C = [[ctx.zero] * h for _ in range(h)]
    for i in range(h):
        C[i][h - 1] = -f[i]
        if i + 1 < h:
            C[i + 1][i] = ctx.one
    A = cur = C
    for _ in range(1, ctx.n):
        cur = [[ctx.sigma_pow(c, 1) for c in row] for row in cur]
        A = linalg.mat_mul(A, cur)
    return A


def laplace_charpoly(A, field):
    """det(yI - A) as a monic Poly by Laplace expansion along row 0: the
    factorial-time test-side guard for linalg.charpoly."""
    y = Poly.gen(field)
    M = [
        [
            (y if i == j else Poly.zero(field)) - Poly.constant(field, a)
            for j, a in enumerate(row)
        ]
        for i, row in enumerate(A)
    ]
    return _laplace_det(M, field)


def _laplace_det(M, field):
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = Poly.zero(field)
    for j in range(n):
        if not M[0][j]:
            continue
        minor = [[M[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = M[0][j] * _laplace_det(minor, field)
        acc = acc - term if j % 2 else acc + term
    return acc


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
        sol = np_solve(mat, rhs, ctx.p)
        if sol is None:
            continue
        coeffs = [ctx.combine(sol[i * e : (i + 1) * e], ctx.k_basis) for i in range(d)]
        return CentralPoly.from_coeffs(ctx, coeffs + [ctx.one])
    raise RuntimeError("oracle found no bound up to deg f")


def evaluate_at(special, c, z):
    """c(z) for a fraction c = num/den over GF(2^r) and z in special.field,
    with special.embed mapping the coefficients; None where den vanishes."""
    E = special.field

    def image(poly):
        embed = special.embed
        return Poly(E, (E.elem_from_index(int(embed[a.i])) for a in poly.coeffs))

    den = image(c.den).evaluate(z)
    if not den:
        return None
    return image(c.num).evaluate(z) / den


def full_rank_certified_oracle(a, special=None):
    """The per-word certificate full_rank_certified batches, from its
    definition: sigma^i of each coefficient as a fraction (ctx.sigma_pow),
    evaluated at each point z of special (a quotient.Specialisation of a's
    quotient, built when None), the rows X^i sum_j sigma^i(a_j) X^j mod
    F(X^n) at z reduced in E[X], and their rank by linalg.rref.  True at
    the first point with no pole and rank N."""
    qctx = a.qctx
    ctx = qctx.ctx
    if not isinstance(ctx, FunctionFieldCtx) or not a.rep:
        return False
    special = special or Specialisation(qctx)
    E = special.field
    N = qctx.F_skew.degree
    # sigma has order n (and N = s*n), so rows i and i + n twist a alike
    twisted = [[ctx.sigma_pow(c, i) for c in a.rep.coeffs] for i in range(ctx.n)]
    for point in special.points:
        z = point.z
        modulus = [evaluate_at(special, c, z) for c in qctx.F_skew.coeffs]
        if None in modulus:
            continue
        modulus = Poly(E, modulus)
        values = [[evaluate_at(special, c, z) for c in row] for row in twisted]
        if any(None in row for row in values):
            continue
        rows = []
        for i in range(N):
            rem = Poly(E, [E.zero] * i + values[i % ctx.n]) % modulus
            rows.append([rem[j] for j in range(N)])
        if len(linalg.rref(rows)[1]) == N:
            return True
    return False
