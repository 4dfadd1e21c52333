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
agree.  structure_constants_ms times building T of R_F from x and L
(QuotCtx.algebra) and from the dim^2 products of basis elements, each the
best of REPEATS fresh algebras.
"""

import json
import os
import sys
import time

import numpy as np

from skewlab import linalg
from skewlab.codes import code_spec_from_dict, rank_family
from skewlab.quotient import FiniteAlgebra

F81 = {"kind": "finite", "p": 3, "e": 1, "n": 4}
SHAPES = {
    "d412": {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "w"},
    "d_s2_k1": {"family": "D", "field": F81, "F": [1, 0, 1], "k": 1, "gamma": "w"},
    "s_f256": {
        "family": "S", "field": {"kind": "finite", "p": 2, "e": 4, "n": 2},
        "F": ["w^7+w^6+w^5", 1], "k": 1, "eta": "w^5+w^4", "rho_exp": 2,
    },
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


def structure_constants_ms(spec_dict):
    def from_x_and_L():
        code_spec_from_dict(spec_dict).qctx.algebra.structure_constants()

    def from_products():
        alg = code_spec_from_dict(spec_dict).qctx.algebra
        FiniteAlgebra(
            alg.p, alg.dim, alg.to_vec, alg.from_vec, alg.mul
        ).structure_constants()

    base = _best(lambda: code_spec_from_dict(spec_dict).qctx.algebra)
    return {
        "from_x_and_L": round((_best(from_x_and_L) - base) * 1e3, 3),
        "from_products": round((_best(from_products) - base) * 1e3, 3),
    }


def main():
    out = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "per_matrix": {name: kernels(d) for name, d in SHAPES.items()},
        "structure_constants_ms": {
            name: structure_constants_ms(d) for name, d in SHAPES.items()
        },
    }
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
