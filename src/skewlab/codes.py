"""The two code families and their verification machinery.

S-family: words a_0 + a_1 x + ... + a_{skl-1} x^(skl-1) + eta a_0^rho x^skl.
D-family: words a_0' + sum a_i x^i + gamma a_0'' x^skl with a_0', a_0'' in the
index-2 subfield L'.  Validation evaluates the exact norm conditions;
verify_mrd ranks codewords with the batched rank scan in linalg;
idealisers, centralisers and centres are computed by prime-field linear
systems on spanning sets; the newness report replays the known-family
parameter comparison.
"""

import math
# unused here; skewbench/tracing.py patches this name to time a worker pool
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import (
    AutMap,
    FieldError,
    FiniteFieldCtx,
    elem_from_literal,
    field_from_spec,
    is_square_in_base,
    norm_to_fixed,
)
from .linalg import DEFAULT_BUDGET, BudgetExceeded  # noqa: F401
from .modpoly import digits
from .quotient import QuotCtx, QuotElem, rank
from .skewpoly import CentralPoly, SkewPoly, gcrd_extended


# ---------------------------------------------------------------- specs ----


class SCodeSpec:
    """S_{n, s*ell, k}(eta, rho, F) inside R_F."""

    family = "S"

    def __init__(self, qctx, k, eta, rho):
        if not 1 <= k < qctx.m:
            raise ValueError("k must satisfy 1 <= k < m")
        self.qctx = qctx
        self.k = k
        self.eta = eta
        self.rho = rho
        self.skl = qctx.s * qctx.ell * k
        ctx = qctx.ctx
        if isinstance(ctx, FiniteFieldCtx):
            self._kprime_exp = math.gcd(rho.exp, ctx.e)
        else:
            self._kprime_exp = None  # K' = K: rho is a sigma power

    def norm_L_to_Kprime(self, a):
        ctx = self.qctx.ctx
        if isinstance(ctx, FiniteFieldCtx):
            return norm_to_fixed(a, AutMap.frobenius_power(ctx, self._kprime_exp))
        return norm_to_fixed(a, AutMap.sigma_power(ctx, 1))

    def norm_K_to_Kprime(self, c):
        ctx = self.qctx.ctx
        if isinstance(ctx, FiniteFieldCtx):
            eprime = self._kprime_exp
            acc = c
            cur = c
            for _ in range(ctx.e // eprime - 1):
                cur = ctx.frobenius(cur, eprime)
                acc = acc * cur
            return acc
        return c


class DCodeSpec:
    """D_{n, s*ell, k}(gamma, F) inside R_F; needs n = 2t even."""

    family = "D"

    def __init__(self, qctx, k, gamma):
        if qctx.ctx.n % 2:
            raise ValueError("the D-family needs even n")
        if not 1 <= k < qctx.m:
            raise ValueError("k must satisfy 1 <= k < m")
        self.qctx = qctx
        self.k = k
        self.gamma = gamma
        self.t = qctx.ctx.n // 2
        self.skl = qctx.s * qctx.ell * k
        ctx = qctx.ctx
        self._lp_basis = (
            ctx.fixed_basis(ctx._sig * self.t)
            if isinstance(ctx, FiniteFieldCtx)
            else None
        )

    def in_Lprime(self, a):
        ctx = self.qctx.ctx
        return ctx.sigma_pow(a, self.t) == a

    def lprime_basis(self):
        """F_p-basis of L' = Fix(sigma^t) (finite contexts)."""
        if self._lp_basis is None:
            raise FieldError("L' enumeration needs a finite context")
        return self._lp_basis


def validate_s(spec):
    """N_{L/K'}(eta) * N_{K/K'}((-1)^(s k l (n-1)) F_0^(k l)) != 1, exactly."""
    qctx = spec.qctx
    ctx = qctx.ctx
    exponent = spec.skl * (ctx.n - 1)
    sign = ctx.minus_one if exponent % 2 else ctx.one
    inner = sign * qctx.F.F0 ** (spec.k * qctx.ell)
    value = spec.norm_L_to_Kprime(spec.eta) * spec.norm_K_to_Kprime(inner)
    return value != ctx.one


def validate_d(spec):
    """gamma in L \\ L' and (-1)^(s k l) F_0^(k l) N_{L/K}(gamma) not a square."""
    qctx = spec.qctx
    ctx = qctx.ctx
    if spec.in_Lprime(spec.gamma):
        return False
    sign = ctx.minus_one if spec.skl % 2 else ctx.one
    ngam = norm_to_fixed(spec.gamma, AutMap.sigma_power(ctx, 1))
    value = sign * qctx.F.F0 ** (spec.k * qctx.ell) * ngam
    return not is_square_in_base(value, ctx)


def validate(spec):
    return validate_s(spec) if spec.family == "S" else validate_d(spec)


# ---------------------------------------------------------- enumeration ----


def codeword_count(spec):
    ctx = spec.qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("enumeration requested over an infinite field")
    if spec.family == "S":
        return ctx.order**spec.skl
    lp = ctx.p ** (ctx.dim // 2)
    return lp * lp * ctx.order ** (spec.skl - 1)


def codeword_from_index(spec, idx):
    """Mixed-radix decoding; index 0 is the zero word, tuples are ordered
    lexicographically with the first coefficient most significant."""
    ctx = spec.qctx.ctx
    if spec.family == "S":
        coeffs = [ctx.elem_from_index(d) for d in digits(idx, ctx.order, spec.skl)]
        return s_codeword(spec, coeffs)
    # D: a_0' and a_0'' (base p over the L'-basis, first basis vector least
    # significant) above the skl - 1 middle coefficients
    lp_basis = spec.lprime_basis()
    high, low = divmod(idx, ctx.order ** (spec.skl - 1))
    a0p_idx, a0pp_idx = divmod(high, ctx.p ** len(lp_basis))

    def lp_elem(i):
        return ctx.combine(digits(i, ctx.p, len(lp_basis))[::-1], lp_basis)

    a_mid = [ctx.elem_from_index(d) for d in digits(low, ctx.order, spec.skl - 1)]
    return d_codeword(spec, lp_elem(a0p_idx), lp_elem(a0pp_idx), a_mid)


def s_codeword(spec, coeffs):
    """Word from (a_0, ..., a_{skl-1})."""
    ctx = spec.qctx.ctx
    if len(coeffs) != spec.skl:
        raise ValueError("S codeword needs skl coefficients")
    out = list(coeffs)
    twist = spec.eta * spec.rho.apply(coeffs[0])
    out.append(twist)
    return QuotElem(spec.qctx, SkewPoly(ctx, out))


def d_codeword(spec, a0p, a0pp, mids):
    """Word from a_0', a_0'' in L' and the middle coefficients a_1.."""
    ctx = spec.qctx.ctx
    if len(mids) != spec.skl - 1:
        raise ValueError("D codeword needs skl-1 middle coefficients")
    if not spec.in_Lprime(a0p) or not spec.in_Lprime(a0pp):
        raise ValueError("a_0' and a_0'' must lie in L'")
    out = [a0p] + list(mids) + [spec.gamma * a0pp]
    return QuotElem(spec.qctx, SkewPoly(ctx, out))


def enumerate_codewords(spec):
    """All codewords exactly once, in index order (finite contexts)."""
    for idx in range(codeword_count(spec)):
        yield codeword_from_index(spec, idx)


def random_codeword(spec, rng):
    """One uniformly random codeword (finite); bounded-degree sample over
    function fields."""
    ctx = spec.qctx.ctx
    if isinstance(ctx, FiniteFieldCtx):
        return codeword_from_index(spec, rng.randrange(codeword_count(spec)))
    # low-degree fractions keep the gcrd chains tractable
    if spec.family == "S":
        coeffs = [ctx.random_elem(rng, max_deg=1) for _ in range(spec.skl)]
        return s_codeword(spec, coeffs)
    a0p = ctx.random_lprime_elem(rng, spec.t)
    a0pp = ctx.random_lprime_elem(rng, spec.t)
    mids = [ctx.random_elem(rng, max_deg=1) for _ in range(spec.skl - 1)]
    return d_codeword(spec, a0p, a0pp, mids)


# ------------------------------------------------------------ verify_mrd ---


@dataclass
class MrdReport:
    family: str
    mode: str
    witnessed: bool
    min_rank: int | None
    distance_target: int
    checked: int
    counterexample: object = None
    seed: int | None = None

    def as_dict(self):
        from .skewpoly import skew_to_literal

        return {
            "mode": self.mode,
            "witnessed": self.witnessed,
            "min_rank": self.min_rank,
            "distance_target": self.distance_target,
            "checked": self.checked,
            "counterexample": (
                skew_to_literal(self.counterexample.rep)
                if self.counterexample is not None
                else None
            ),
            "seed": self.seed,
        }


def verify_mrd(
    spec, mode="exhaustive", samples=None, seed=None, budget=DEFAULT_BUDGET
):
    """Check rank >= m - k + 1 for nonzero codewords.

    Exhaustive mode ranks the right multiplications g -> g*w on R_F with
    linalg.rank_scan (see rank_family).  It reports the first violation in
    enumeration order, and as checked the number of nonzero words up to it
    (every nonzero word if there is none).  budget counts ranks computed,
    one per F_p^* orbit of codewords; every SPOT_CHECK_EVERY-th rank is
    checked against the gcrd rank.  Sampled mode draws seeded random
    codewords, ranks them by gcrd, and is probabilistic evidence only.
    """
    qctx = spec.qctx
    d_target = qctx.m - spec.k + 1
    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        if not samples:
            raise ValueError("sampled mode requires a sample count")
        import random as _random

        rng = _random.Random(seed)
        min_rank = None
        counter = None
        checked = 0
        for _ in range(samples):
            word = random_codeword(spec, rng)
            if not word.rep:
                continue
            r = rank(word)
            checked += 1
            if min_rank is None or r < min_rank:
                min_rank = r
            if r < d_target and counter is None:
                counter = word
                break
        return MrdReport(
            spec.family, "sampled", False, min_rank, d_target, checked, counter, seed
        )
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    basis, unit = rank_family(spec)

    def check(idx, _matrix, r):
        return r == rank(codeword_from_index(spec, idx))

    first_bad, min_rank = linalg.rank_scan(
        basis, qctx.ctx.p, d_target, unit=unit, budget=budget, check=check
    )
    if first_bad is None:
        checked, counter = codeword_count(spec) - 1, None
    else:
        checked, counter = first_bad, codeword_from_index(spec, first_bad)
    return MrdReport(
        spec.family,
        "exhaustive",
        first_bad is None,
        min_rank,
        d_target,
        checked,
        counter,
        None,
    )


def rank_family(spec):
    """(basis, unit) for linalg.rank_scan: word i acts on R_F by g -> g*w_i,
    whose matrix is sum_j digit_j(i) basis[j] with basis[j] that of word p^j
    (decoding is F_p-linear in the index digits), and rank(w_i) is its
    F_p-rank divided by unit = s*ell*[L:F_p]."""
    qctx = spec.qctx
    ctx = qctx.ctx
    alg = qctx.algebra
    total = codeword_count(spec)
    n = 0
    while ctx.p**n < total:
        n += 1
    basis = [
        alg.right_mult_matrix(alg.to_vec(codeword_from_index(spec, ctx.p**j)))
        for j in range(n)
    ]
    return basis, qctx.s * qctx.ell * ctx.dim


# ------------------------------------------------ idealisers and centre ----


@dataclass
class IdealiserPart:
    size: int
    constant_field_order: int | None
    outside_theorem_range: bool


@dataclass
class NuclearParams:
    il: int
    ir: int
    c: int
    z: int
    outside_theorem_range: bool = False

    def as_dict(self):
        return {"Il": self.il, "Ir": self.ir, "C": self.c, "Z": self.z}


def _membership_matrix(spec):
    """Rows M with M @ vec(v) = 0 iff the residue v lies in the code."""
    qctx = spec.qctx
    ctx = qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise FieldError("idealiser and membership systems need a finite context")
    ns = ctx.n * qctx.s
    dim = ctx.dim
    width = ns * dim
    rows = []
    for i in range(spec.skl + 1, ns):
        for b in range(dim):
            row = np.zeros(width, dtype=np.int64)
            row[i * dim + b] = 1
            rows.append(row)
    if spec.family == "S":
        # v_skl = eta * rho(v_0)
        comp = (ctx.mult_matrix(spec.eta) @ ctx._aut_matrix(spec.rho.exp)) % ctx.p
        for b in range(dim):
            row = np.zeros(width, dtype=np.int64)
            row[spec.skl * dim + b] = 1
            row[0:dim] = (-comp[b]) % ctx.p
            rows.append(row)
    else:
        m_sig_t = ctx._aut_matrix((ctx._sig * spec.t) % ctx.dim)
        eye = np.eye(dim, dtype=np.int64)
        proj = (m_sig_t - eye) % ctx.p
        for b in range(dim):
            row = np.zeros(width, dtype=np.int64)
            row[0:dim] = proj[b]
            rows.append(row)
        m_gamma_inv = ctx.mult_matrix(spec.gamma.inverse())
        comp = (proj @ m_gamma_inv) % ctx.p
        for b in range(dim):
            row = np.zeros(width, dtype=np.int64)
            row[spec.skl * dim : (spec.skl + 1) * dim] = comp[b]
            rows.append(row)
    return np.array(rows, dtype=np.int64) % ctx.p


def _spanning_words(spec):
    """F_p-spanning set of the code (nsk*dim-ish many words)."""
    ctx = spec.qctx.ctx
    words = []
    if spec.family == "S":
        for b in ctx.basis:
            coeffs = [b] + [ctx.zero] * (spec.skl - 1)
            words.append(s_codeword(spec, coeffs))
        for i in range(1, spec.skl):
            for b in ctx.basis:
                coeffs = [ctx.zero] * spec.skl
                coeffs[i] = b
                words.append(s_codeword(spec, coeffs))
    else:
        lp = spec.lprime_basis()
        zero_mid = [ctx.zero] * (spec.skl - 1)
        for b in lp:
            words.append(d_codeword(spec, b, ctx.zero, zero_mid))
        for b in lp:
            words.append(d_codeword(spec, ctx.zero, b, zero_mid))
        for i in range(1, spec.skl):
            for b in ctx.basis:
                mids = [ctx.zero] * (spec.skl - 1)
                mids[i - 1] = b
                words.append(d_codeword(spec, ctx.zero, ctx.zero, mids))
    return words


def _theorem_range_flag(spec):
    m = spec.qctx.m
    if spec.family == "S":
        return not (1 <= spec.k <= m // 2 and spec.skl > 2)
    return not (1 <= spec.k <= m // 2 and spec.skl >= 2)


def _kernel_report(spec, rows):
    ctx = spec.qctx.ctx
    width = ctx.n * spec.qctx.s * ctx.dim
    if rows:
        mat = np.vstack(rows)
        kernel = linalg.np_kernel(mat, ctx.p, ncols=width)
    else:
        kernel = np.eye(width, dtype=np.int64)
    size = ctx.p ** kernel.shape[0]
    dim = ctx.dim
    constant = all(not row[dim:].any() for row in kernel)
    return IdealiserPart(
        size=size,
        constant_field_order=size if constant else None,
        outside_theorem_range=_theorem_range_flag(spec),
    )


def _idealiser(spec, words, mult_matrix):
    """The g with mult_matrix(w) g in the code for every word w (all of
    _spanning_words by default), by the linear membership system."""
    M = _membership_matrix(spec)
    alg = spec.qctx.algebra
    if words is None:
        words = _spanning_words(spec)
    rows = [(M @ mult_matrix(alg.to_vec(w))) % alg.p for w in words]
    return _kernel_report(spec, rows)


def left_idealiser(spec, words=None):
    """{g in R_F : g C <= C}, by the linear membership system."""
    return _idealiser(spec, words, spec.qctx.algebra.right_mult_matrix)


def right_idealiser(spec, words=None):
    """{g in R_F : C g <= C}."""
    return _idealiser(spec, words, spec.qctx.algebra.left_mult_matrix)


def _first_invertible(spec):
    m = spec.qctx.m
    total = codeword_count(spec)
    for idx in range(1, total):
        word = codeword_from_index(spec, idx)
        if word.rep and rank(word) == m:
            return word
    return None


def centraliser_and_centre(spec):
    """Centraliser and centre sizes of the code, after normalising (by a
    left unit-multiple) to contain the identity."""
    qctx = spec.qctx
    ctx = qctx.ctx
    alg = qctx.algebra
    p = ctx.p
    u = _first_invertible(spec)
    if u is None:
        raise ValueError("no invertible codeword found; cannot normalise")
    d, alpha, _ = gcrd_extended(u.rep, qctx.F_skew)
    if d.degree != 0:
        raise RuntimeError("invertible codeword has nontrivial gcrd with F(x^n)")
    u_inv = qctx.reduce(alpha.scale_left(d.constant_coeff.inverse()))
    one = SkewPoly.one(ctx)
    if (u_inv * u).rep != one or (u * u_inv).rep != one:
        raise RuntimeError("normaliser inverse failed")
    span = [alg.to_vec(u_inv * w) for w in _spanning_words(spec)]
    right = [alg.right_mult_matrix(v) for v in span]
    cen_rows = [(R - alg.left_mult_matrix(v)) % p for R, v in zip(right, span)]
    cen_kernel = linalg.np_kernel(np.vstack(cen_rows), p, ncols=alg.dim)
    c_size = p ** cen_kernel.shape[0]
    # centre = left idealiser of the normalised code intersect centraliser
    M_prime = (_membership_matrix(spec) @ alg.left_mult_matrix(alg.to_vec(u))) % p
    id_rows = [(M_prime @ R) % p for R in right]
    z_kernel = linalg.np_kernel(np.vstack(cen_rows + id_rows), p, ncols=alg.dim)
    z_size = p ** z_kernel.shape[0]
    return c_size, z_size


def nuclear_params(spec):
    """Left/right idealiser, centraliser and centre orders of the code."""
    il = left_idealiser(spec)
    ir = right_idealiser(spec)
    c, z = centraliser_and_centre(spec)
    return NuclearParams(
        il=il.size,
        ir=ir.size,
        c=c,
        z=z,
        outside_theorem_range=il.outside_theorem_range,
    )


# ---------------------------------------------------------------- newness --


@dataclass
class NewnessEntry:
    family: str
    verdict: str
    reason: str

    def as_dict(self):
        return {"family": self.family, "verdict": self.verdict, "reason": self.reason}


def _agtg_like_match(n_exp, target, e, k_times_se, z_mod):
    """Frobenius exponents j (mod n_exp) with gcd(n_exp, j) = target and
    gcd(n_exp, k_times_se - j) = target; any_full additionally requires the
    centre constraint gcd(z_mod, j) = e."""
    any_match = False
    any_full = False
    for j in range(n_exp):
        if math.gcd(n_exp, j) != target:
            continue
        if math.gcd(n_exp, (k_times_se - j) % n_exp) != target:
            continue
        any_match = True
        if math.gcd(z_mod, j) == e:
            any_full = True
    return any_match, any_full


def newness_mrd(p, e, n, s, k):
    """Replay of the known-family comparison for D_{n,s,k} parameters
    (q^{nsk}, q^t, q^t, q^s, q), q = p^e, n = 2t."""
    if n % 2:
        raise ValueError("the D-family needs even n")
    t = n // 2
    entries = []
    if s == 1:
        entries.append(
            NewnessEntry(
                "TZ", "known", "s=1: D_{n,1,k} is exactly a Trombetti-Zhou code"
            )
        )
        return entries
    hypotheses = 1 < k <= t and t >= 2 and s >= 3 and (s * k) % n != 0
    entries.append(
        NewnessEntry(
            "Gabidulin-like",
            "new",
            f"left idealiser order q^{t} != q^{n * s} forced by families I/IV/V "
            "(and their adjoints/duals)",
        )
    )
    any_match, any_full = _agtg_like_match(n * s * e, t * e, e, k * s * e, s * e)
    if not any_match:
        entries.append(
            NewnessEntry(
                "AGTG",
                "new",
                f"no twist exponent j has gcd({n*s*e}, j) = gcd({n*s*e}, "
                f"{k*s*e} - j) = {t*e}: both idealisers q^{t} would force "
                f"{n} | {s * k}",
            )
        )
    elif not any_full:
        entries.append(
            NewnessEntry(
                "AGTG",
                "new",
                f"every matching twist exponent j violates the centre "
                f"constraint gcd({e}, j) = {e}",
            )
        )
    else:
        entries.append(
            NewnessEntry(
                "AGTG", "undecided", "an AGTG parameter tuple matches; equivalence "
                "not decided at parameter level"
            )
        )
    entries.append(
        NewnessEntry(
            "TZ",
            "new",
            f"Trombetti-Zhou centre order q^{s} != q requires s = 1 (s = {s})",
        )
    )
    any_match_s, any_full_s = _agtg_like_match(n * e, t * e, e, k * s * e, e)
    if not any_match_s:
        entries.append(
            NewnessEntry(
                "S-family",
                "new",
                f"no rho exponent h has gcd({n*e}, h) = gcd({n*e}, {k*s*e} - h) "
                f"= {t*e}: both idealisers q^{t} would force {n} | {s * k}",
            )
        )
    elif not any_full_s:
        entries.append(
            NewnessEntry(
                "S-family",
                "new",
                f"every matching rho exponent h violates the centre constraint "
                f"gcd({e}, h) = {e}",
            )
        )
    else:
        entries.append(
            NewnessEntry(
                "S-family", "undecided",
                "an S-family parameter tuple matches; equivalence not decided "
                "at parameter level",
            )
        )
    if not hypotheses:
        entries.append(
            NewnessEntry(
                "overall",
                "undecided",
                f"outside theorem hypotheses (need 1 < k <= t, t >= 2, s >= 3, "
                f"n does not divide sk; got n={n}, t={t}, s={s}, k={k})",
            )
        )
    else:
        entries.append(
            NewnessEntry("overall", "new", "new against every listed MRD family")
        )
    return entries


def _v2(x):
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


def newness_semifield(p, e, n, s):
    """Replay of the semifield comparison for the order-q^{2ts} D-semifield
    with parameters (q^{2ts}, q^t, q^t, q^s, q)."""
    if n % 2:
        raise ValueError("the D-family needs even n")
    t = n // 2
    entries = []
    if s == 1:
        entries.append(
            NewnessEntry(
                "HK",
                "known",
                "s=1 coincides exactly with the dual Hughes-Kleinfeld semifield",
            )
        )
        return entries
    hypotheses = p != 2 and s >= 2 and s % 2 == 0 and n >= 4 and s % n != 0
    entries.append(
        NewnessEntry(
            "PZ",
            "new",
            f"all nuclei (q^{t}, q^{t}, q^{s}) strictly exceed the centre q; "
            "a Pott-Zhou semifield has a nucleus equal to its centre",
        )
    )
    entries.append(
        NewnessEntry(
            "rank-two",
            "new",
            f"order q^{2*t*s} is never twice a nucleus order "
            f"(q^{t}, q^{t}, q^{s}): would need s = 1 or t = 1",
        )
    )
    any_match_s, any_full_s = _agtg_like_match(n * e, t * e, e, s * e, e)
    if not any_match_s:
        entries.append(
            NewnessEntry(
                "S-family",
                "new",
                f"no rho exponent h has gcd({n*e}, h) = gcd({n*e}, {s*e} - h) = "
                f"{t*e}: both nuclei q^{t} would force {n} | {s}",
            )
        )
    elif not any_full_s:
        entries.append(
            NewnessEntry(
                "S-family",
                "new",
                "every matching rho exponent violates the centre constraint",
            )
        )
    else:
        entries.append(
            NewnessEntry("S-family", "undecided", "parameter tuple matches")
        )
    if s != n:
        entries.append(
            NewnessEntry(
                "biprojective-S",
                "new",
                f"matching the biprojective family forces s = n (got s={s}, n={n})",
            )
        )
    else:
        entries.append(
            NewnessEntry("biprojective-S", "undecided", "parameter tuple matches")
        )
    if s % t:
        entries.append(
            NewnessEntry(
                "GK-unified",
                "new",
                f"matching forces t | s via t | a and s = gcd(2a, st) "
                f"(got t={t}, s={s})",
            )
        )
    elif (s // t) % 2 == 0:
        entries.append(
            NewnessEntry(
                "GK-unified",
                "undecided",
                f"n = {n} divides s = {s}: outside the proposition's hypotheses",
            )
        )
    else:
        entries.append(
            NewnessEntry(
                "GK-unified",
                "new",
                f"2-adic valuation clash: v2(s) = v2(t) = {_v2(s)} but the gcd "
                f"constraints force v2(s) = v2(a) + 1 > v2(t)",
            )
        )
    if not hypotheses:
        entries.append(
            NewnessEntry(
                "overall",
                "undecided",
                f"outside proposition hypotheses (need q odd, s >= 2 even, "
                f"n = 2t >= 4, n does not divide s; got q={p**e}, n={n}, s={s})",
            )
        )
    else:
        entries.append(
            NewnessEntry(
                "overall", "new", "new against every listed semifield family"
            )
        )
    return entries


def newness_report(p, e, n, s, k):
    """Per-family newness verdicts: the MRD comparison for k > 1, the
    semifield comparison for k = 1."""
    if k == 1:
        return newness_semifield(p, e, n, s)
    return newness_mrd(p, e, n, s, k)


# ------------------------------------------------------------- spec files --


CODE_SPEC_KEYS = (
    "family", "field", "F", "k", "eta", "gamma", "rho_exp", "f", "semifield",
)


def code_spec_from_dict(d):
    """Build an S/D code spec from its file form:
    {family, field, F: [coeffs over K], k, eta|gamma: literal, rho_exp?: h,
    f?: literal, semifield?: bool}.  Any other key is an error."""
    if not isinstance(d, dict):
        raise ValueError("code spec must be a mapping")
    unknown = [key for key in d if key not in CODE_SPEC_KEYS]
    if unknown:
        raise ValueError(f"unknown code spec key(s): {', '.join(map(repr, unknown))}")
    family = d.get("family")
    if family not in ("S", "D"):
        raise ValueError("family must be 'S' or 'D'")
    ctx = field_from_spec(d["field"])
    coeffs = []
    for c in d["F"]:
        if isinstance(c, str):
            coeffs.append(elem_from_literal(ctx, c))
        else:
            if not isinstance(ctx, FiniteFieldCtx):
                raise ValueError("integer F-coefficients need a finite field")
            coeffs.append(ctx.from_int(int(c)))
    F = CentralPoly.from_coeffs(ctx, coeffs)
    if isinstance(ctx, FiniteFieldCtx):
        qctx = QuotCtx(ctx, F)
    else:
        f_lit = d.get("f")
        if not f_lit:
            raise ValueError("function-field code specs need the catalogued 'f'")
        from .skewpoly import skew_from_literal

        f = skew_from_literal(ctx, f_lit)
        qctx = QuotCtx(ctx, F, f=f, irreducible_certified=True)
    k = int(d["k"])
    if family == "S":
        eta = elem_from_literal(ctx, str(d["eta"]))
        rho_exp = int(d.get("rho_exp", 0))
        if isinstance(ctx, FiniteFieldCtx):
            rho = AutMap.frobenius_power(ctx, rho_exp)
        else:
            rho = AutMap.sigma_power(ctx, rho_exp)
        return SCodeSpec(qctx, k, eta, rho)
    gamma = elem_from_literal(ctx, str(d["gamma"]))
    return DCodeSpec(qctx, k, gamma)
