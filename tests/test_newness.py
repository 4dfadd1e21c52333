"""The newness verdicts against the tables they replaced.

The reference below is the comparison code as it stood before the newness
section of skewlab.codes was rebuilt around one exponent-match rule, copied
verbatim (only the two public names carry a reference_ prefix).  Every
verdict and reason must agree with it on the whole parameter grid but one
sentence: the AGTG centre-constraint reason printed gcd(e, j) = e while the
test was gcd(s*e, j) = e, and now prints the constraint it tests.
"""

import math

import pytest

from skewlab.codes import (
    NewnessEntry,
    code_spec_from_dict,
    newness_report,
    nuclear_params,
)
from skewlab.semifields import StarSPrimeSpec, algebra_for_star, nuclei

# p, e, even n, s, k: 4 * 4 * 8 * 12 * 12 tuples
GRID = [
    (p, e, n, s, k)
    for p in (2, 3, 5, 7)
    for e in range(1, 5)
    for n in range(2, 17, 2)
    for s in range(1, 13)
    for k in range(1, 13)
]
CENTRE = "every matching twist exponent j violates the centre constraint"


# ------------------------------------------------------------ reference --


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


def reference_newness_mrd(p, e, n, s, k):
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
            f"Trombetti-Zhou centraliser order q^{s} != q requires s = 1 (s = {s})",
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


def reference_newness_semifield(p, e, n, s):
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


def reference_newness_report(p, e, n, s, k):
    if k == 1:
        return reference_newness_semifield(p, e, n, s)
    return reference_newness_mrd(p, e, n, s, k)


# ---------------------------------------------------------------- tests --


def test_newness_matches_the_reference_on_the_grid():
    # the grid reaches every reason the reference can print but the
    # S-family centre-constraint ones, which no input reaches: a matching
    # h is a multiple of t*e, so gcd(e, h) = e always holds
    centre = 0
    for p, e, n, s, k in GRID:
        got = [x.as_dict() for x in newness_report(p, e, n, s, k)]
        want = [x.as_dict() for x in reference_newness_report(p, e, n, s, k)]
        for entry in want:
            if entry["family"] == "AGTG" and CENTRE in entry["reason"]:
                # the sentence now names the constraint it tests
                assert entry["reason"] == f"{CENTRE} gcd({e}, j) = {e}"
                entry["reason"] = f"{CENTRE} gcd({s * e}, j) = {e}"
                centre += 1
        assert got == want, (p, e, n, s, k)
    assert len(GRID) == 18432
    assert centre == 3040


# ------------------------------------------- the rule on computed members --

# L = F_81 over K = F_3 (n = 4), F = y^2 + 1 (s = 2), eta = w
S2_SPEC = {
    "family": "S",
    "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
    "F": [1, 0, 1],
    "eta": "w",
}


@pytest.mark.parametrize("h", range(4))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_s_family_exponent_rule_holds_on_computed_codes(k, h):
    # the S-family rows of the replay take the S-code with rho exponent h to
    # have idealisers of orders q^gcd(n, h) and q^gcd(n, ks - h)
    spec = code_spec_from_dict({**S2_SPEC, "k": k, "rho_exp": h})
    params = nuclear_params(spec)
    assert (params.il, params.ir) == (3 ** math.gcd(4, h), 3 ** math.gcd(4, 2 * k - h))


@pytest.mark.parametrize("h", range(4))
def test_s_family_exponent_rule_holds_on_computed_semifields(h):
    # for the semifield star_S' (k = 1): nuclei q^gcd(n, h), q^gcd(n, s - h),
    # and Nr = E(f) of order q^s over the centre K
    spec = code_spec_from_dict({**S2_SPEC, "k": 1, "rho_exp": h})
    alg = algebra_for_star(StarSPrimeSpec(spec.qctx, spec.eta, spec.rho))
    rep = nuclei(alg)
    assert (rep.nl, rep.nm, rep.nr, rep.z) == (
        3 ** math.gcd(4, h), 3 ** math.gcd(4, 2 - h), 9, 3
    )



def test_s_family_exponent_rule_fails_at_s1():
    # why the rule is stated for s >= 2: with F = y - 1 (s = 1) and k = 1,
    # the h = 0 code has both idealisers L (order 81), not 81 and 3
    spec = code_spec_from_dict({**S2_SPEC, "F": [-1, 1], "k": 1, "rho_exp": 0})
    params = nuclear_params(spec)
    assert (params.il, params.ir) == (81, 81)
