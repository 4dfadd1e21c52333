"""Acceptance criteria 1-12.

Every check is exact (tolerance zero); the only bounds are the stated
runtime budgets.  One PASS line is printed per criterion (visible with
pytest -s and in captured output).
"""

import json
import random
import time

import pytest

from skewlab import cli
from skewlab.codes import (
    DCodeSpec,
    SCodeSpec,
    newness_mrd,
    newness_semifield,
    nuclear_params,
    validate_d,
    validate_s,
    verify_mrd,
)
from skewlab.fields import AutMap, FunctionFieldCtx
from skewlab.ffexamples import run_suite
from skewlab.quotient import (
    QuotCtx,
    matrix_image,
    matrix_rank,
    rank,
)
from skewlab.semifields import (
    AlgebraElem,
    StarDSpec,
    algebra_for_star,
    nuclei,
    zero_divisor_scan,
)
from skewlab.skewpoly import (
    SkewPoly,
    bound,
    central_is_irreducible,
    gcrd,
    left_divides,
    left_divmod,
    norm_identity_check,
    right_divides,
    right_divmod,
)

from helpers import (
    HKParams,
    bound_oracle,
    finite_ctx,
    hk_mul,
    irreducible_quadratic,
    linearized_rank,
    random_irreducible,
    random_skew,
    y_minus_one,
)


def report(n, text):
    print(f"ACCEPTANCE criterion {n:2d} PASS: {text}")


def test_criterion_01_euclidean_contracts():
    start = time.time()
    rng = random.Random(101)
    contexts = [
        finite_ctx(2, 2),
        finite_ctx(2, 3),
        finite_ctx(3, 2),
        finite_ctx(3, 4),
        FunctionFieldCtx(3),
    ]
    for ctx in contexts:
        for _ in range(1000):
            f = random_skew(ctx, 3, rng)
            g = random_skew(ctx, 3, rng, nonzero=True)
            q, r = right_divmod(f, g)
            assert q * g + r == f and r.degree < g.degree
            ql, rl = left_divmod(f, g)
            assert g * ql + rl == f and rl.degree < g.degree
            if f:
                d = gcrd(f, g)
                assert right_divides(d, f) and right_divides(d, g)
    elapsed = time.time() - start
    assert elapsed < 10
    report(1, f"5000 divmod/gcrd contracts exact in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def bound_samples():
    rng = random.Random(103)
    samples = []
    for p, n in ((2, 3), (3, 4)):
        ctx = finite_ctx(p, n)
        for _ in range(100):
            deg = rng.randrange(1, 4)
            samples.append(random_irreducible(ctx, deg, rng))
    return samples


def test_criterion_02_bound_matches_oracle(bound_samples):
    start = time.time()
    for f in bound_samples:
        rep = bound(f)
        assert rep.F == bound_oracle(f)
        assert rep.F.s == f.degree
        assert rep.ell == 1
        assert central_is_irreducible(rep.F)
        F_skew = rep.F.to_skew()
        assert right_divides(f, F_skew) and left_divides(f, F_skew)
    elapsed = time.time() - start
    assert elapsed < 30
    report(2, f"200 bounds equal the brute-force oracle in {elapsed:.1f}s")


def test_criterion_03_norm_identity(bound_samples):
    for f in bound_samples:
        res = norm_identity_check(f, bound(f))
        assert res.holds and res.irreducibility_checked
    report(3, "norm identity N(f0) = (-1)^(s(n-1)) F0 on all 200 samples")


def test_criterion_04_rank_oracle_equivalence():
    start = time.time()
    rng = random.Random(104)
    total = 0
    for p in (2, 3):
        for n in (2, 3, 4):
            ctx = finite_ctx(p, n)
            for s in (1, 2):
                F = y_minus_one(ctx) if s == 1 else irreducible_quadratic(ctx)
                q = QuotCtx(ctx, F)
                for _ in range(500):
                    a = q.reduce(random_skew(ctx, n * s - 1, rng))
                    r = rank(a)
                    assert r == matrix_rank(matrix_image(a))
                    if s == 1:
                        assert r == linearized_rank(a)
                    total += 1
    elapsed = time.time() - start
    assert elapsed < 30
    report(4, f"{total} gcrd-ranks equal matrix ranks in {elapsed:.1f}s")


def _validated_gamma(q):
    ctx = q.ctx
    for i in range(1, ctx.order):
        cand = ctx.elem_from_index(i)
        spec = DCodeSpec(q, 1, cand)
        if validate_d(spec):
            return cand
    raise RuntimeError("no validated gamma")


def test_criterion_05_mrd_exhaustive_d_family():
    start = time.time()
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, y_minus_one(ctx))
    gamma = _validated_gamma(q)
    rep1 = verify_mrd(DCodeSpec(q, 1, gamma))
    assert rep1.witnessed and rep1.min_rank == 4 and rep1.checked == 80
    rep2 = verify_mrd(DCodeSpec(q, 2, gamma))
    assert rep2.witnessed and rep2.min_rank == 3 and rep2.checked == 6560
    elapsed = time.time() - start
    assert elapsed < 60
    report(5, f"D_(4,1,1)/D_(4,1,2) min ranks 4/3 exhaustively in {elapsed:.1f}s")


def test_criterion_06_mrd_exhaustive_s_family():
    start = time.time()
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, y_minus_one(ctx))
    for rho in (AutMap.identity(ctx), AutMap.sigma_power(ctx, 1)):
        eta = next(
            ctx.elem_from_index(i)
            for i in range(1, ctx.order)
            if validate_s(SCodeSpec(q, 2, ctx.elem_from_index(i), rho))
        )
        rep = verify_mrd(SCodeSpec(q, 2, eta, rho))
        assert rep.witnessed and rep.min_rank == 3 and rep.checked == 6560
    elapsed = time.time() - start
    assert elapsed < 60
    report(6, f"S_(4,1,2) min rank 3 for rho=id and rho=sigma in {elapsed:.1f}s")


def test_criterion_07_nuclear_parameters_d_family():
    start = time.time()
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, y_minus_one(ctx))
    spec = DCodeSpec(q, 2, _validated_gamma(q))
    np_ = nuclear_params(spec)
    assert (np_.il, np_.ir, np_.c, np_.z) == (9, 9, 3, 3)
    elapsed = time.time() - start
    assert elapsed < 60
    report(7, f"D_(4,1,2) nuclear sizes (9, 9, 3, 3) in {elapsed:.1f}s")


def test_criterion_08_new_semifield_order_3_8():
    start = time.time()
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, irreducible_quadratic(ctx))
    gamma = None
    for i in range(1, ctx.order):
        cand = ctx.elem_from_index(i)
        try:
            spec = StarDSpec(q, cand)
            gamma = cand
            break
        except ValueError:
            continue
    assert gamma is not None
    alg = algebra_for_star(spec)
    scan = zero_divisor_scan(alg)
    assert not scan.found
    assert scan.pairs_checked == (3**8 - 1) ** 2
    nuc = nuclei(alg)
    assert (nuc.nl, nuc.nm, nuc.nr, nuc.z) == (9, 9, 9, 3)
    elapsed = time.time() - start
    assert elapsed < 600
    report(
        8,
        f"order-3^8 semifield: {scan.pairs_checked} pairs, no zero divisors, "
        f"nuclei (9, 9, 9, 3) in {elapsed:.1f}s",
    )


def test_criterion_09_hughes_kleinfeld_agreement():
    start = time.time()
    ctx = finite_ctx(3, 4)
    q = QuotCtx(ctx, y_minus_one(ctx), f=SkewPoly(ctx, (ctx.minus_one, ctx.one)))
    w = ctx.gen
    spec = StarDSpec(q, w)
    hk = HKParams(ctx, w)
    one = (ctx.one, ctx.zero)
    for i in range(81):
        for j in range(81):
            a_el = ctx.elem_from_index(i)
            b_el = ctx.elem_from_index(j)
            pair_a = hk.split(a_el)
            pair_b = hk.split(b_el)
            a = AlgebraElem(q, SkewPoly.constant(ctx, a_el))
            b = AlgebraElem(q, SkewPoly.constant(ctx, b_el))
            h0, h1 = hk_mul(pair_a, pair_b, hk)
            assert spec.mul(a, b).rep.constant_coeff == h0 + w * h1
        # unit laws
        pair_i = hk.split(ctx.elem_from_index(i))
        assert hk_mul(one, pair_i, hk) == pair_i
        assert hk_mul(pair_i, one, hk) == pair_i
        assert spec.mul(spec.unit, AlgebraElem(q, SkewPoly.constant(ctx, ctx.elem_from_index(i)))).rep.constant_coeff == ctx.elem_from_index(i)
    elapsed = time.time() - start
    assert elapsed < 5
    report(9, f"hk_mul = star_d on all 81x81 pairs, unit laws, in {elapsed:.1f}s")


def test_criterion_10_function_field_suite():
    start = time.time()
    results = run_suite([3, 5])
    assert all(ok for (_, _, ok) in results)
    elapsed = time.time() - start
    assert elapsed < 10
    report(10, f"function-field suite r in (3, 5): all checks exact in {elapsed:.1f}s")


def test_criterion_11_newness_arithmetic():
    start = time.time()
    mrd = {e.family: e for e in newness_mrd(3, 1, 4, 3, 2)}
    assert mrd["overall"].verdict == "new"
    for fam in ("Gabidulin-like", "AGTG", "TZ", "S-family"):
        assert mrd[fam].verdict == "new" and mrd[fam].reason
    sf = {e.family: e for e in newness_semifield(3, 1, 4, 2)}
    assert sf["overall"].verdict == "new"
    for fam in ("PZ", "rank-two", "S-family", "biprojective-S", "GK-unified"):
        assert sf[fam].verdict == "new" and sf[fam].reason
    elapsed = time.time() - start
    assert elapsed < 1
    report(11, "newness verdict tables reproduce the comparison arguments")


def test_criterion_12_determinism(tmp_path, capsys):
    spec = {
        "family": "D",
        "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
        "F": [-1, 1],
        "k": 1,
        "gamma": "w",
    }
    path = tmp_path / "d411.json"
    path.write_text(json.dumps(spec))
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert cli.main(
        ["verify", "--spec", str(path), "--seed", "7", "--out", str(out1)]
    ) == 0
    assert cli.main(
        ["verify", "--spec", str(path), "--seed", "7", "--out", str(out2)]
    ) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    report(12, "repeated runs emit byte-identical reports")
