"""Per-word cost of the F_(2^r)(t) full-rank certificate, for BENCH_*.json
files.

    PYTHONPATH=src python3 tools/cert_probe.py > probe.json

For r = 3, 5 and 7 it draws WORDS[r] codewords of the S-code with k = 1
and eta = t in the quotient of the catalogued f = x^2 + (t^2+1)/(t^2+t+1),
as sampled verify draws them (codes.random_codeword, seed SEED), and
times the certificate on them two ways: the per-word oracle of
tests/helpers.py (sigma^i of every coefficient as a fraction, evaluation
in E = GF(2^(2r)), linalg.rref) and quotient.full_rank_certified on the
whole list (Frobenius at the point, linalg.batch_rank_over).  Each figure
is the best of REPEATS passes, in microseconds per word, with
time.perf_counter; both share one quotient.Specialisation, built before
timing (specialisation_ms, the best of REPEATS builds).  The two outcomes
must agree word for word, or the probe raises.
"""

import json
import os
import random
import sys
import time
from pathlib import Path

import numpy as np

from skewlab.codes import SCodeSpec, random_codeword
from skewlab.fields import AutMap, FunctionFieldCtx
from skewlab.quotient import QuotCtx, Specialisation, full_rank_certified
from skewlab.skewpoly import SkewPoly, bound

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import full_rank_certified_oracle  # noqa: E402

WORDS = {3: 64, 5: 32, 7: 16}
SEED = 2101
REPEATS = 5


def _best(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def probe(r):
    ctx = FunctionFieldCtx(r)
    x = SkewPoly.x(ctx)
    f = x * x + SkewPoly.constant(ctx, ctx.elem((1, 0, 1), (1, 1, 1)))
    qctx = QuotCtx(ctx, bound(f).F, f=f, irreducible_certified=True)
    spec = SCodeSpec(qctx, 1, ctx.t, AutMap.sigma_power(ctx, 0))
    rng = random.Random(SEED)
    words = [random_codeword(spec, rng) for _ in range(WORDS[r])]
    build_s = _best(lambda: Specialisation(qctx))
    special = qctx._special = Specialisation(qctx)
    oracle = [full_rank_certified_oracle(w, special) for w in words]
    batch = full_rank_certified(words)
    if batch != oracle:
        raise RuntimeError(f"the certificates disagree at r = {r}")
    oracle_s = _best(lambda: [full_rank_certified_oracle(w, special) for w in words])
    batch_s = _best(lambda: full_rank_certified(words))
    return {
        "N": qctx.F_skew.degree,
        "words": len(words),
        "certified": sum(batch),
        "specialisation_ms": round(build_s * 1e3, 3),
        "oracle_us": round(oracle_s / len(words) * 1e6, 1),
        "batch_us": round(batch_s / len(words) * 1e6, 1),
    }


def main():
    out = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "per_word": {f"r{r}": probe(r) for r in WORDS},
    }
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
