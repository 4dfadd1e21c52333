"""Correctness oracles for skewlab reports.

Every check compares a report against something the program does not use to
produce it: the paper's closed formulas (code sizes, rank targets, nuclei
(q^t, q^t, q^s, q)), the matrix rank over the eigenring in place of the gcrd
rank, and a structure-constant computation of products and nuclei (mod-p
elimination written here) in place of the spread-set linear systems.
check() returns the names of the failed checks; an empty list is a pass.
"""

import json

import numpy as np

FFSUITE_CHECKS = ("sigma-order", "f-bound", "g-bound", "gamma-example", "sff-rewrite")


def rank_mod_p(rows, p):
    """Row rank of an integer matrix over F_p, by Gaussian elimination."""
    m = np.array(rows, dtype=np.int64) % p
    if m.size == 0:
        return 0
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        piv = np.nonzero(m[r:, c])[0]
        if piv.size == 0:
            continue
        i = r + int(piv[0])
        m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        r += 1
        if r == nrows:
            break
    return r


def nuclei_by_definition(C, p):
    """(N_l, N_m, N_r, Z) sizes from structure constants C[i, j] = e_i e_j.

    N_l = {z : (za)b = z(ab)}, N_m = {z : (az)b = a(zb)},
    N_r = {z : (ab)z = a(bz)}, Z = {z in all three : za = az}; each is the
    kernel of a linear system in the coordinates of z.
    """
    d = C.shape[0]

    def rows(lhs, rhs):
        diff = np.einsum(lhs, C, C) - np.einsum(rhs, C, C)
        return diff.reshape(d, d**3).T

    nl = rows("lim,mjk->lijk", "ijm,lmk->lijk")
    nm = rows("ilm,mjk->lijk", "ljm,imk->lijk")
    nr = rows("ijm,mlk->lijk", "jlm,imk->lijk")
    comm = (C - C.transpose(1, 0, 2)).reshape(d, d * d).T

    def size(*blocks):
        return p ** (d - rank_mod_p(np.vstack(blocks), p))

    return size(nl), size(nm), size(nr), size(nl, nm, nr, comm)


# ------------------------------------------------------------- semifields --


def star_algebra(spec):
    """The FiniteAlgebra the CLI builds for a semifield spec."""
    from skewlab.codes import code_spec_from_dict
    from skewlab.fields import AutMap, elem_from_literal
    from skewlab.semifields import StarDSpec, StarSPrimeSpec, algebra_for_star

    qctx = code_spec_from_dict({**spec, "k": 1}).qctx
    ctx = qctx.ctx
    if spec["family"] == "S":
        eta = elem_from_literal(ctx, str(spec["eta"]))
        rho = AutMap.frobenius_power(ctx, int(spec.get("rho_exp", 0)))
        star = StarSPrimeSpec(qctx, eta, rho)
    else:
        gamma = elem_from_literal(ctx, str(spec["gamma"]))
        star = StarDSpec(qctx, gamma, enforce_norm=False)
    return qctx, algebra_for_star(star)


def structure_constants(alg):
    d = alg.dim
    basis = [alg.from_vec(tuple(int(i == j) for j in range(d))) for i in range(d)]
    return np.array(
        [[alg.to_vec(alg.mul(a, b)) for b in basis] for a in basis], dtype=np.int64
    ) % alg.p


def _coords(qctx, alg, literal):
    from skewlab.semifields import AlgebraElem
    from skewlab.skewpoly import skew_from_literal

    return np.array(
        alg.to_vec(AlgebraElem(qctx, skew_from_literal(qctx.ctx, literal))),
        dtype=np.int64,
    )


def _index(coords, p):
    idx = 0
    for c in coords:
        idx = idx * p + int(c)
    return idx


def first_zero_divisor(C, p, max_rows):
    """First (a, b) in enumeration order, both nonzero, with ab = 0, among
    the first max_rows left operands; None if there is none."""
    d = C.shape[0]
    count = p**d - 1
    idx = np.arange(1, count + 1, dtype=np.int64)
    digits = np.stack([(idx // p ** (d - 1 - k)) % p for k in range(d)])
    for a_pos in range(min(max_rows, count)):
        left = np.einsum("i,ijk->jk", digits[:, a_pos], C) % p
        prods = (left.T @ digits) % p
        zero = np.nonzero(~prods.any(axis=0))[0]
        if zero.size:
            return a_pos + 1, int(zero[0]) + 1
    return None


def _check_semifield(spec, expect, rep, fail):
    fld = spec["field"]
    p, e, n = fld["p"], fld["e"], fld["n"]
    s = len(spec["F"]) - 1
    q = p**e
    order = q ** (n * s)
    fail("semifield.kind", rep.get("kind") == "semifield")
    fail("semifield.order", rep["order"] == order)
    fail("valid", rep["valid"] == expect["valid"])
    fail("unit", rep["unital"] is True and rep["unit"] == expect["unit"])
    qctx, alg = star_algebra(spec)
    C = structure_constants(alg)
    d = C.shape[0]
    u = _coords(qctx, alg, rep["unit"] or "0")
    eye = np.eye(d, dtype=np.int64)
    fail(
        "unit.laws",
        np.array_equal(np.einsum("i,ijk->jk", u, C) % p, eye)
        and np.array_equal(np.einsum("j,ijk->ik", u, C) % p, eye),
    )
    zd = rep["zero_divisors"]
    if expect["division"]:
        fail("zero_divisors.none", zd["found"] is False and zd["witness"] is None)
        fail("zero_divisors.pairs", zd["pairs_checked"] == (order - 1) ** 2)
    else:
        ok = zd["found"] is True and zd["witness"] is not None
        fail("zero_divisors.found", ok)
        if ok:
            a_idx, b_idx = (
                _index(_coords(qctx, alg, lit), p) for lit in zd["witness"]
            )
            first = first_zero_divisor(C, p, a_idx)
            fail("zero_divisors.first", first == (a_idx, b_idx))
            fail(
                "zero_divisors.pairs",
                zd["pairs_checked"] == (a_idx - 1) * (order - 1) + b_idx,
            )
    nuc = rep["nuclei"]
    got = (nuc["Nl"], nuc["Nm"], nuc["Nr"], nuc["Z"])
    fail("nuclei.definition", got == nuclei_by_definition(C, p))
    if expect.get("nuclei_formula"):
        t = n // 2
        fail("nuclei.formula", got == (q**t, q**t, q**s, q))


# ------------------------------------------------------------------- codes --


def code_size(spec, ell):
    """Number of codewords (zero word included), from the family's shape."""
    fld = spec["field"]
    p, e, n = fld["p"], fld["e"], fld["n"]
    order = (p**e) ** n
    skl = (len(spec["F"]) - 1) * spec["k"] * ell
    if spec["family"] == "S":
        return order**skl
    half = p ** (e * n // 2)
    return half * half * order ** (skl - 1)


def first_rank_deficient(spec, target, limit):
    """Index of the first codeword whose eigenring matrix rank is below
    target, scanning indices 1..limit-1; None if there is none."""
    from skewlab.codes import code_spec_from_dict, codeword_from_index
    from skewlab.quotient import matrix_image, matrix_rank

    code = code_spec_from_dict(spec)
    for idx in range(1, limit):
        word = codeword_from_index(code, idx)
        rk = matrix_rank(matrix_image(word))
        if rk < target:
            return idx, word, rk
    return None


def _check_code(spec, expect, rep, fail):
    from skewlab.skewpoly import skew_to_literal

    fld = spec["field"]
    finite = fld["kind"] == "finite"
    s = len(spec["F"]) - 1
    k = spec["k"]
    ell = expect["ell"]
    n = fld["n"] if finite else 2 * fld["r"]
    m = n // ell
    target = m - k + 1
    fail("params", rep["params"] == {"n": n, "s": s, "ell": ell, "m": m, "k": k})
    fail("valid", rep["valid"] == expect["valid"])
    mrd = rep["mrd"]
    fail("mrd.mode", mrd["mode"] == expect["mode"])
    fail("mrd.distance_target", mrd["distance_target"] == target)
    if expect["mode"] == "sampled":
        fail("mrd.seed", mrd["seed"] == expect["seed"] and rep["seed"] == expect["seed"])
        fail("mrd.counterexample", mrd["counterexample"] is None and not mrd["witnessed"])
        fail("mrd.min_rank", mrd["min_rank"] is not None and target <= mrd["min_rank"] <= m)
        fail("mrd.checked", 1 <= mrd["checked"] <= expect["samples"])
        return
    count = code_size(spec, ell)
    if expect["mrd"]:
        fail("mrd.witnessed", mrd["witnessed"] is True and mrd["counterexample"] is None)
        fail("mrd.min_rank", mrd["min_rank"] == target)
        fail("mrd.checked", mrd["checked"] == count - 1)
    else:
        found = first_rank_deficient(spec, target, count)
        ok = found is not None and mrd["counterexample"] is not None
        fail("counterexample.found", ok and not mrd["witnessed"])
        if ok:
            idx, word, rk = found
            fail("counterexample.word", mrd["counterexample"] == skew_to_literal(word.rep))
            fail("counterexample.rank", mrd["min_rank"] == rk)
            fail("counterexample.checked", mrd["checked"] == idx)
    if "nuclear" in expect:
        nuc = rep["nuclear"]
        fail("nuclear", [nuc["Il"], nuc["Ir"], nuc["C"], nuc["Z"]] == expect["nuclear"])


def _check_ffsuite(expect, rep, fail):
    want = [
        {"r": r, "check": c, "pass": True} for r in expect["r"] for c in FFSUITE_CHECKS
    ]
    fail("ffsuite.results", rep.get("results") == want)
    fail("ffsuite.all_pass", rep.get("all_pass") is True)


def check(op, exit_code, text):
    """Names of the checks op's report fails."""
    failed = []

    def fail(name, ok):
        if not ok:
            failed.append(name)

    fail("exit_code", exit_code == 0)
    try:
        rep = json.loads(text)
    except ValueError:
        return failed + ["report.json"]
    try:
        if op.spec is None:
            fail("command", rep.get("command") == "ffsuite")
            _check_ffsuite(op.expect, rep, fail)
        else:
            fail("command", rep.get("command") == "verify")
            fail("family", rep.get("family") == op.spec["family"])
            if op.spec.get("semifield"):
                _check_semifield(op.spec, op.expect, rep, fail)
            else:
                _check_code(op.spec, op.expect, rep, fail)
    except (KeyError, TypeError, ValueError) as exc:
        failed.append(f"report.shape: {type(exc).__name__}: {exc}")
    return failed
