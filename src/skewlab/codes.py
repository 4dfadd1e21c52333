"""The two code families and their verification machinery.

S-family: words a_0 + a_1 x + ... + a_{skl-1} x^(skl-1) + eta a_0^rho x^skl.
D-family: words a_0' + sum a_i x^i + gamma a_0'' x^skl with a_0', a_0'' in the
index-2 subfield L'.  Validation evaluates the exact norm conditions;
verify_mrd ranks every codeword with the batched rank scan in linalg (as an
N x N matrix over L), or seeded samples of them (certified full rank or
gcrd rank, from quotient);
nuclear_params takes the idealisers, centraliser and centre of the code's
spanning words in R_F from quotient.subspace_nuclei; the newness report
replays the known-family parameter comparison.
"""

import math
# unused here; skewbench/tracing.py patches this name to time a worker pool
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

from . import linalg
from .fields import (
    AutMap,
    FieldError,
    FiniteFieldCtx,
    elem_from_literal,
    field_from_spec,
    norm_to_fixed,
    spec_int,
    spec_list,
    spec_literal,
)
from .linalg import DEFAULT_BUDGET, BudgetExceeded  # noqa: F401
from .modpoly import digits
from .quotient import (
    QuotCtx,
    QuotElem,
    cached_nuclei,
    full_rank_certified,
    rank,
    subspace_action,
    subspace_nuclei,
)
from .skewpoly import CentralPoly, SkewPoly


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
        # K' = Fix(<sigma, rho>)
        self.kprime = rho.join(AutMap.sigma_power(qctx.ctx, 1))

    def norm_L_to_Kprime(self, a):
        return norm_to_fixed(a, self.kprime)

    def norm_K_to_Kprime(self, c):
        """N_{K/K'}(c): the generator of <sigma, rho> restricted to K
        generates Gal(K/K'), of order |<sigma, rho>| / n."""
        return norm_to_fixed(c, self.kprime, self.kprime.order() // self.qctx.ctx.n)


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
        self._lp_basis = None

    def lprime_basis(self):
        """F_p-basis of L' = Fix(sigma^t) (finite contexts), built on first use."""
        if self._lp_basis is None:
            ctx = self.qctx.ctx
            if not isinstance(ctx, FiniteFieldCtx):
                raise FieldError("L' enumeration needs a finite context")
            self._lp_basis = ctx.fixed_basis(ctx.sig * self.t)
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
    if ctx.in_Lprime(spec.gamma):
        return False
    sign = ctx.minus_one if spec.skl % 2 else ctx.one
    value = sign * qctx.F.F0 ** (spec.k * qctx.ell) * ctx.norm(spec.gamma)
    return not ctx.is_square_in_K(value)


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
    if not ctx.in_Lprime(a0p) or not ctx.in_Lprime(a0pp):
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
    linalg.rank_scan (see rank_family): as N x N matrices over L, in units
    of s*ell, or over F_p when L has no tables.  It reports the first
    violation in enumeration order, and as checked the number of nonzero
    words up to it (every nonzero word if there is none).  rank(g w) =
    rank(w) for a unit g of the left idealiser Il, so the scan ranks one
    word per Il^* orbit when Il passes rank_scan's field check, and one per
    F_p^* orbit otherwise or when the nuclear systems raise.  Il comes from the
    computation nuclear_params reports, made once per spec and budget.  A
    deficient representative sends the scan back to F_p^* orbits in index
    order, so the counterexample, min_rank and checked are those of a scan
    of every word.  budget counts the ranks computed (see rank_scan);
    every SPOT_CHECK_EVERY-th rank is checked against the gcrd rank of the
    word decoded from its index.

    Sampled mode draws samples >= 1 seeded random codewords and is
    probabilistic evidence only; samples above budget raise
    BudgetExceeded before the first draw.  Words are drawn in chunks of
    16, then 32, ..., up to linalg.SCAN_CHUNK_ENTRIES // N^2 (N = deg F(x^n)),
    and each chunk goes to quotient.full_rank_certified in one call.  Over
    F_(2^r)(t) with r <= 7 that proves rank m for most words: the rows
    x^i w mod F(x^n) keep full rank after evaluation at a point of
    GF(2^(2r)), found through ev_z(sigma^i(c)) = Frob^k(c(y_i)), and
    specialising can only lower a rank.  The other words, every word over
    a finite field and every word for r >= 9, are ranked by gcrd
    (quotient.rank) in draw order.  Both give the same rank, and the seed
    fixes the draws, so the report does not depend on which one ran or
    on the chunks; the draws after a counterexample in its chunk are
    made but not reported.
    """
    qctx = spec.qctx
    d_target = qctx.m - spec.k + 1
    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        if samples is None:
            raise ValueError("sampled mode requires a sample count")
        if samples < 1:
            raise ValueError(f"sampled mode needs samples >= 1, got {samples}")
        if samples > budget:
            raise BudgetExceeded(f"{samples} samples exceed the scan budget {budget}")
        import random as _random

        rng = _random.Random(seed)
        min_rank = None
        counter = None
        checked = drawn = 0
        cap = max(1, linalg.SCAN_CHUNK_ENTRIES // qctx.F_skew.degree**2)
        size = min(16, cap)
        while drawn < samples and counter is None:
            count = min(size, samples - drawn)
            words = [random_codeword(spec, rng) for _ in range(count)]
            drawn += count
            size = min(2 * size, cap)
            for word, full in zip(words, full_rank_certified(words)):
                if not word.rep:
                    continue
                r = qctx.m if full else rank(word)
                checked += 1
                if min_rank is None or r < min_rank:
                    min_rank = r
                if r < d_target:
                    counter = word
                    break
        return MrdReport(
            spec.family, "sampled", False, min_rank, d_target, checked, counter, seed
        )
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    basis, unit, over = rank_family(spec)

    def check(idx, _matrix, r):
        return r == rank(codeword_from_index(spec, idx))

    first_bad, min_rank = linalg.rank_scan(
        basis,
        qctx.ctx.p,
        d_target,
        unit=unit,
        budget=budget,
        check=check,
        field=_idealiser_action(spec, basis, budget),
        over=over,
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
    """(basis, unit, over) for linalg.rank_scan: word i acts on R_F by
    g -> g*w_i, whose matrix is sum_j digit_j(i) basis[j] with basis[j]
    that of the spanning word p^j.

    The map is L-linear, (l g) w = l (g w), so its F_p-matrix R_w of size
    dN x dN (N = deg F(x^n), d = [L:F_p]) is the expansion of the N x N
    matrix over L whose column i holds the coefficients of x^i w: column
    i*d of R_w.  So basis[j] is those N columns, over = L, and rank(w_i) is
    the rank over L divided by unit = s*ell.  When L has no tables (order
    above fields.TABLE_LIMIT) basis[j] is all of R_w, over is None, and
    rank(w_i) is the F_p-rank divided by unit = s*ell*d.  Either way column
    0 is R_w 1 = w."""
    qctx = spec.qctx
    ctx = qctx.ctx
    alg = qctx.algebra
    mats = [alg.right_mult_matrix(alg.to_vec(w)) for w in _spanning_words(spec)]
    unit = qctx.s * qctx.ell
    if ctx.index_tables() is None:
        return mats, unit * ctx.dim, None
    return [R[:, :: ctx.dim] for R in mats], unit, ctx


# ------------------------------------------------ idealisers and centre ----


@dataclass
class NuclearParams:
    il: int
    ir: int
    c: int
    z: int
    outside_theorem_range: bool = False

    def as_dict(self):
        return {"Il": self.il, "Ir": self.ir, "C": self.c, "Z": self.z}


def _spanning_words(spec):
    """The codewords of index p^j, j < log_p |C|: an F_p-basis of the code,
    since decoding is F_p-linear in the base-p digits of the index."""
    p = spec.qctx.ctx.p
    total = codeword_count(spec)
    n = 0
    while p**n < total:
        n += 1
    return [codeword_from_index(spec, p**j) for j in range(n)]


def _theorem_range_flag(spec):
    m = spec.qctx.m
    if spec.family == "S":
        return not (1 <= spec.k <= m // 2 and spec.skl > 2)
    return not (1 <= spec.k <= m // 2 and spec.skl >= 2)


def _idealiser_action(spec, basis, budget):
    """The left idealiser Il acting on the index coordinates of the code
    (quotient.subspace_action), for rank_scan's orbit cut: rank(g w) =
    rank(w) for a unit g, and Il of an MRD code is a field (Lunardon,
    Trombetti and Zhou 2017; rank_scan checks it).  Empty when the nuclear
    systems raise, and rank_scan then scans F_p^* orbits.  basis holds
    the right multiplications R_w of the spanning words, or their columns
    x^i (rank_family)."""
    alg = spec.qctx.algebra
    # R_w 1 = w, and 1 is the first coordinate vector
    span = [R[:, 0] for R in basis]
    try:
        il = cached_nuclei(spec, budget, lambda b: subspace_nuclei(alg, span, b)).il
    except (ValueError, BudgetExceeded):
        return []
    return subspace_action(alg, span, il)


def nuclear_params(spec, budget=DEFAULT_BUDGET):
    """Left/right idealiser, centraliser and centre orders of the code: the
    kernels of quotient.subspace_nuclei on R_F and the spanning words (C
    and Z after normalising by a unit codeword, searched for within budget
    ranks when no spanning word is one), computed once per spec and budget
    and shared with verify_mrd."""
    alg = spec.qctx.algebra
    span = [alg.to_vec(w) for w in _spanning_words(spec)]
    try:
        kernels = cached_nuclei(spec, budget, lambda b: subspace_nuclei(alg, span, b))
    except ValueError:
        raise ValueError("no invertible codeword found; cannot normalise") from None
    il, ir, c, z = (alg.p ** len(basis) for basis in kernels)
    return NuclearParams(il, ir, c, z, _theorem_range_flag(spec))


# ---------------------------------------------------------------- newness --


@dataclass
class NewnessEntry:
    family: str
    verdict: str
    reason: str

    def as_dict(self):
        return {"family": self.family, "verdict": self.verdict, "reason": self.reason}


def _exponent_entry(family, name, var, n_exp, target, kse, z_mod, e, nuclei=False):
    """Verdict on an AGTG-like family (AGTG, S-family), whose members twist
    by a Frobenius exponent var mod n_exp.  A member with both idealisers
    (nuclei=True: both nuclei of a semifield) of order q^(target/e) needs
    gcd(n_exp, var) = gcd(n_exp, kse - var) = target, and one with centre q
    also gcd(z_mod, var) = e.  The family is new when no exponent meets
    both; each reason prints the numbers it tested.  The S-family rows pass
    z_mod = None and skip the centre test: their z_mod would be e, and with
    target t*e every matching h is a multiple of e, so gcd(e, h) = e always
    holds.

    The S-family rule, that the member with rho exponent h has idealisers
    of orders p^gcd(ne, h) and p^gcd(ne, kse - h), is stated for s >= 2,
    the only range the replay applies it to (s = 1 returns before it).  At
    s = 1 it fails: over F_81 at k = 1 and k = m - 1 some S-codes have both
    idealisers of order q^n."""
    t = target // e
    matching = [
        j
        for j in range(n_exp)
        if math.gcd(n_exp, j) == target == math.gcd(n_exp, kse - j)
    ]
    if not matching:
        reason = (
            f"no {name} {var} has gcd({n_exp}, {var}) = gcd({n_exp}, {kse} - {var}) "
            f"= {target}: both {'nuclei' if nuclei else 'idealisers'} q^{t} would "
            f"force {2 * t} | {kse // e}"
        )
        return NewnessEntry(family, "new", reason)
    if z_mod is not None and all(math.gcd(z_mod, j) != e for j in matching):
        reason = (
            f"every matching {name} {var} violates the centre constraint "
            f"gcd({z_mod}, {var}) = {e}"
        )
        return NewnessEntry(family, "new", reason)
    if nuclei:
        return NewnessEntry(family, "undecided", "parameter tuple matches")
    return NewnessEntry(
        family,
        "undecided",
        f"an {family} parameter tuple matches; equivalence not decided at "
        "parameter level",
    )


def _overall(hypotheses, listed, result, need, got):
    """The overall verdict: new exactly when the result's hypotheses hold."""
    if hypotheses:
        reason = f"new against every listed {listed} family"
        return NewnessEntry("overall", "new", reason)
    reason = f"outside {result} hypotheses (need {need}; got {got})"
    return NewnessEntry("overall", "undecided", reason)


def newness_mrd(p, e, n, s, k):
    """Replay of the known-family comparison for D_{n,s,k} parameters
    (q^{nsk}, q^t, q^t, q^s, q), q = p^e, n = 2t."""
    if n % 2:
        raise ValueError("the D-family needs even n")
    t = n // 2
    if s == 1:
        return [
            NewnessEntry(
                "TZ", "known", "s=1: D_{n,1,k} is exactly a Trombetti-Zhou code"
            )
        ]
    return [
        NewnessEntry(
            "Gabidulin-like",
            "new",
            f"left idealiser order q^{t} != q^{n * s} forced by families I/IV/V "
            "(and their adjoints/duals)",
        ),
        _exponent_entry(
            "AGTG", "twist exponent", "j", n * s * e, t * e, k * s * e, s * e, e
        ),
        NewnessEntry(
            "TZ",
            "new",
            f"Trombetti-Zhou centraliser order q^{s} != q requires s = 1 (s = {s})",
        ),
        _exponent_entry(
            "S-family", "rho exponent", "h", n * e, t * e, k * s * e, None, e
        ),
        _overall(
            1 < k <= t and t >= 2 and s >= 3 and (s * k) % n != 0,
            "MRD",
            "theorem",
            "1 < k <= t, t >= 2, s >= 3, n does not divide sk",
            f"n={n}, t={t}, s={s}, k={k}",
        ),
    ]


def newness_semifield(p, e, n, s):
    """Replay of the semifield comparison for the order-q^{2ts} D-semifield
    with parameters (q^{2ts}, q^t, q^t, q^s, q)."""
    if n % 2:
        raise ValueError("the D-family needs even n")
    t = n // 2
    if s == 1:
        return [
            NewnessEntry(
                "HK",
                "known",
                "s=1 coincides exactly with the dual Hughes-Kleinfeld semifield",
            )
        ]
    if s % t:
        gk = (
            "new",
            f"matching forces t | s via t | a and s = gcd(2a, st) (got t={t}, s={s})",
        )
    elif (s // t) % 2 == 0:
        gk = (
            "undecided",
            f"n = {n} divides s = {s}: outside the proposition's hypotheses",
        )
    else:
        gk = (
            "new",
            f"2-adic valuation clash: v2(s) = v2(t) = {(s & -s).bit_length() - 1} "
            "but the gcd constraints force v2(s) = v2(a) + 1 > v2(t)",
        )
    if s != n:
        bip = (
            "new",
            f"matching the biprojective family forces s = n (got s={s}, n={n})",
        )
    else:
        bip = ("undecided", "parameter tuple matches")
    return [
        NewnessEntry(
            "PZ",
            "new",
            f"all nuclei (q^{t}, q^{t}, q^{s}) strictly exceed the centre q; "
            "a Pott-Zhou semifield has a nucleus equal to its centre",
        ),
        NewnessEntry(
            "rank-two",
            "new",
            f"order q^{2 * t * s} is never twice a nucleus order "
            f"(q^{t}, q^{t}, q^{s}): would need s = 1 or t = 1",
        ),
        _exponent_entry(
            "S-family", "rho exponent", "h", n * e, t * e, s * e, None, e,
            nuclei=True,
        ),
        NewnessEntry("biprojective-S", *bip),
        NewnessEntry("GK-unified", *gk),
        _overall(
            p != 2 and s >= 2 and s % 2 == 0 and n >= 4 and s % n != 0,
            "semifield",
            "proposition",
            "q odd, s >= 2 even, n = 2t >= 4, n does not divide s",
            f"q={p**e}, n={n}, s={s}",
        ),
    ]


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


def code_spec_from_dict(d, budget=DEFAULT_BUDGET):
    """Build an S/D code spec from its file form:
    {family, field, F: [coeffs over K], k, eta|gamma: literal, rho_exp?: h,
    f?: literal, semifield?: bool}.  Any other key is an error, as is one
    the spec does not read (gamma in S, eta or rho_exp in D, a finite f).
    budget bounds the candidates the search for the divisor f may try."""
    if not isinstance(d, dict):
        raise ValueError("code spec must be a mapping")
    unknown = [key for key in d if key not in CODE_SPEC_KEYS]
    if unknown:
        raise ValueError(f"unknown code spec key(s): {', '.join(map(repr, unknown))}")
    family = d.get("family")
    if family not in ("S", "D"):
        raise ValueError("family must be 'S' or 'D'")
    ctx = field_from_spec(d["field"])
    for key in {"S": ["gamma"], "D": ["eta", "rho_exp"]}[family] + ["f"]:
        # f is found by search over a finite field
        if key in d and (key != "f" or isinstance(ctx, FiniteFieldCtx)):
            where = f"the {family} family over {ctx.describe()}"
            raise ValueError(f"spec key {key!r} is not read by {where}")
    coeffs = []
    for c in spec_list(d["F"], "F"):
        if isinstance(c, str):
            coeffs.append(elem_from_literal(ctx, c))
        else:
            if not isinstance(ctx, FiniteFieldCtx):
                raise ValueError("integer F-coefficients need a finite field")
            coeffs.append(ctx.from_int(spec_int(c, "F")))
    F = CentralPoly.from_coeffs(ctx, coeffs)
    if isinstance(ctx, FiniteFieldCtx):
        qctx = QuotCtx(ctx, F, budget=budget)
    else:
        f_lit = d.get("f")
        if not f_lit:
            raise ValueError("function-field code specs need the catalogued 'f'")
        from .skewpoly import skew_from_literal

        f = skew_from_literal(ctx, spec_literal(f_lit, "f"))
        qctx = QuotCtx(ctx, F, f=f, irreducible_certified=True)
    k = spec_int(d["k"], "k")
    if family == "S":
        eta = elem_from_literal(ctx, spec_literal(d["eta"], "eta"))
        rho_exp = spec_int(d.get("rho_exp", 0), "rho_exp")
        if isinstance(ctx, FiniteFieldCtx):
            rho = AutMap.frobenius_power(ctx, rho_exp)
        else:
            rho = AutMap.sigma_power(ctx, rho_exp)
        return SCodeSpec(qctx, k, eta, rho)
    gamma = elem_from_literal(ctx, spec_literal(d["gamma"], "gamma"))
    return DCodeSpec(qctx, k, gamma)
