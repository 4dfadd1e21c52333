"""Shared samplers and context factories for the test suite."""

from skewlab import linalg
from skewlab.fields import FiniteFieldCtx, FunctionFieldCtx
from skewlab.skewpoly import CentralPoly, SkewPoly, is_irreducible


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


def random_irreducible(ctx, deg, rng):
    """A uniformly sampled monic irreducible of the exact degree."""
    while True:
        coeffs = [ctx.random_elem(rng) for _ in range(deg)] + [ctx.one]
        if not coeffs[0]:
            continue
        f = SkewPoly(ctx, coeffs)
        if is_irreducible(f):
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
    from skewlab.skewpoly import central_is_irreducible

    K = base_field_elems(ctx)
    for c0 in K[1:]:
        for c1 in K:
            F = CentralPoly.from_coeffs(ctx, [c0, c1, ctx.one])
            if central_is_irreducible(F):
                return F
    raise RuntimeError("no irreducible quadratic found")


def record_rank_scans(monkeypatch):
    """Repeat every linalg.rank_scan with no field acting.  Returns the list
    each scan appends (orbit, result, F_p^* result) to; orbit is True when
    the scan ranked a different number of members than the F_p^* scan
    (fewer for a scan of larger orbits; more with its rerun)."""
    rank_scan, batch_rank = linalg.rank_scan, linalg.batch_rank
    ranked = []
    scans = []

    def counted(mats, p):
        ranked.append(len(mats))
        return batch_rank(mats, p)

    def both(basis, p, threshold, unit=1, budget=linalg.DEFAULT_BUDGET,
             check=None, field=()):
        ranked.clear()
        got = rank_scan(basis, p, threshold, unit, budget, check, field)
        orbit_ranks = sum(ranked)
        plain = rank_scan(basis, p, threshold, unit, budget, check)
        scans.append((2 * orbit_ranks != sum(ranked), got, plain))
        return got

    monkeypatch.setattr(linalg, "rank_scan", both)
    monkeypatch.setattr(linalg, "batch_rank", counted)
    return scans
