"""Per-matrix cost of the MRD rank scan's two kernels, for BENCH_*.json files.

    PYTHONPATH=src python3 tools/rank_probe.py > probe.json

For each shape (the golden codes D_(4,1,2) and the s = 2 D-code over F_81,
and the S-code over F_256) it takes the members of the first CHUNKS full
chunks of the F_p^* scan, as verify_mrd forms them, in both forms of
codes.rank_family: the dN x dN matrices over F_p (linalg.batch_rank) and
the N x N matrices over L (linalg.member_ranks, which reads the entry
indices from the coordinates and calls linalg.batch_rank_over).  Each
figure is the best of REPEATS passes over those chunks, in microseconds per
matrix, with time.perf_counter; the ranks of the two kernels are checked to
agree.  structure_constants_ms times building T, for R_F of each shape
and for the star algebras of three semifield goldens (STARS, built as
skewlab verify builds them), from the left actions of x and L
(quotient.residue_algebra) and from the dim^2 products of basis elements
(the tests' product_table_constants), each the best of REPEATS fresh
algebras net of building the algebra; the two T are checked to agree.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from skewlab import linalg
from skewlab.codes import code_spec_from_dict, rank_family
from skewlab.semifields import StarDSpec, StarSPrimeSpec, algebra_for_star

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import product_table_constants  # noqa: E402

F81 = {"kind": "finite", "p": 3, "e": 1, "n": 4}
SHAPES = {
    "d412": {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "w"},
    "d_s2_k1": {"family": "D", "field": F81, "F": [1, 0, 1], "k": 1, "gamma": "w"},
    "s_f256": {
        "family": "S", "field": {"kind": "finite", "p": 2, "e": 4, "n": 2},
        "F": ["w^7+w^6+w^5", 1], "k": 1, "eta": "w^5+w^4", "rho_exp": 2,
    },
}
F_3_8 = {"kind": "finite", "p": 3, "e": 1, "n": 8}
STARS = {
    "star_d_3e8": {"family": "D", "field": F81, "F": [1, 0, 1], "gamma": "w"},
    "star_s_prime_3e8": {"family": "S", "field": F81, "F": [1, 0, 1], "eta": "w"},
    "star_d_3e16": {"family": "D", "field": F_3_8, "F": [1, 0, 1], "gamma": "w"},
}
CHUNKS = 8
REPEATS = 7


def _best(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernels(spec_dict):
    spec = code_spec_from_dict(spec_dict)
    ctx, alg = spec.qctx.ctx, spec.qctx.algebra
    basis, unit, over = rank_family(spec)
    p, d = ctx.p, ctx.dim
    full = np.array([alg.right_mult_matrix(R[:, 0]) for R in basis])
    chunks = list(linalg._orbit_chunks(np.array(basis), p, 1, d))
    size = max(len(idx) for idx, _ in chunks)
    on_l, on_fp = [], []
    for idx, mats in [c for c in chunks if len(c[0]) == size][:CHUNKS]:
        on_l.append(mats)
        on_fp.append(linalg.family_members(full, idx, p))
    count = sum(len(m) for m in on_l)
    ranks_l = [linalg.member_ranks(m, p, over) for m in on_l]
    ranks_fp = [linalg.batch_rank(m, p) for m in on_fp]
    if not all(np.array_equal(a * d, b) for a, b in zip(ranks_l, ranks_fp)):
        raise RuntimeError("the kernels disagree")
    fp_s = _best(lambda: [linalg.batch_rank(m, p) for m in on_fp])
    l_s = _best(lambda: [linalg.member_ranks(m, p, over) for m in on_l])
    return {
        "field": ctx.describe(),
        "fp_shape": list(on_fp[0].shape[1:]),
        "over_L_shape": [on_l[0].shape[2]] * 2,
        "matrices": count,
        "chunk": len(on_l[0]),
        "fp_us": round(fp_s / count * 1e6, 3),
        "over_L_us": round(l_s / count * 1e6, 3),
    }


def r_f(spec_dict):
    return code_spec_from_dict(spec_dict).qctx.algebra


def star(spec_dict):
    code = code_spec_from_dict({**spec_dict, "k": 1})
    if code.family == "S":
        return algebra_for_star(StarSPrimeSpec(code.qctx, code.eta, code.rho))
    return algebra_for_star(StarDSpec(code.qctx, code.gamma, enforce_norm=False))


def structure_constants_ms(build, spec_dict):
    alg = build(spec_dict)
    if not np.array_equal(alg.structure_constants(), product_table_constants(alg)):
        raise RuntimeError("left actions and products disagree")
    base = _best(lambda: build(spec_dict))
    x_and_L = _best(lambda: build(spec_dict).structure_constants())
    products = _best(lambda: product_table_constants(build(spec_dict)))
    return {
        "dim": alg.dim,
        "from_x_and_L": round((x_and_L - base) * 1e3, 3),
        "from_products": round((products - base) * 1e3, 3),
    }


def main():
    out = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "per_matrix": {name: kernels(d) for name, d in SHAPES.items()},
        "structure_constants_ms": {
            **{name: structure_constants_ms(r_f, d) for name, d in SHAPES.items()},
            **{name: structure_constants_ms(star, d) for name, d in STARS.items()},
        },
    }
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
