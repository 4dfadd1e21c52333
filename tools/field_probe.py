"""Per-operation cost of finite-field arithmetic, for BENCH_*.json files.

    PYTHONPATH=src python3 tools/field_probe.py > probe.json

Run it once per source tree (PYTHONPATH picks the tree) on the same
machine.  For each field it times mul, add, sub, inverse and Frobenius
(a -> a^p) over a fixed pool of seeded random pairs, after one warm-up pass
over the same pool, so memo tables and lazily built tables are full: the
steady state of a scan.  Each figure is the best of REPEATS passes, in ns
per operation, with time.perf_counter.  table_build_ms is the first
product of a fresh context minus a steady-state product (the median of
REPEATS fresh contexts), for trees whose fields build tables lazily;
construct_ms is the median time to construct the context.  Where fields
build their tables at construction, construct_ms includes them and
table_build_ms reads about 0.  Garbage is collected before each
construction, outside the timed region.
"""

import gc
import json
import os
import random
import statistics
import sys
import time

import numpy

from skewlab.fields import FiniteFieldCtx, GFCtx

FIELDS = {
    "F_81": lambda: FiniteFieldCtx(3, 1, 4),
    "GF(2^6)": lambda: GFCtx(2, 6),
    "GF(2^10)": lambda: GFCtx(2, 10),
    "F_3^8": lambda: FiniteFieldCtx(3, 1, 8),
}
# fields whose table build alone is timed (orders up to the table limit)
BUILD_ONLY = {
    "GF(2^14)": lambda: GFCtx(2, 14),
    "GF(2^16)": lambda: GFCtx(2, 16),
}
PAIRS = 2000
REPEATS = 7


def _best_ns(fn, args):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        best = min(best, time.perf_counter() - t0)
    return best / len(args) * 1e9


def ops_ns(make):
    ctx = make()
    rng = random.Random(14)
    pairs = [(ctx.random_elem(rng), ctx.random_elem(rng)) for _ in range(PAIRS)]
    units = [(a,) for a, _ in pairs if a]
    frob = [(a, 1) for a, _ in pairs]
    ops = {
        "mul": (lambda a, b: a * b, pairs),
        "add": (lambda a, b: a + b, pairs),
        "sub": (lambda a, b: a - b, pairs),
        "inverse": (lambda a: a.inverse(), units),
        "frobenius": (ctx.frobenius, frob),
    }
    for fn, args in ops.values():  # warm-up: memo and lazy tables filled
        for a in args:
            fn(*a)
    return {name: round(_best_ns(fn, args), 1) for name, (fn, args) in ops.items()}


def build_ms(make):
    """(construct_ms, table_build_ms) medians over REPEATS fresh contexts."""
    construct, first = [], []
    for _ in range(REPEATS):
        gc.collect()  # the last context's cycles, as the benchmark does per op
        t0 = time.perf_counter()
        ctx = make()
        t1 = time.perf_counter()
        ctx.gen * ctx.gen
        t2 = time.perf_counter()
        steady = _best_ns(lambda a, b: a * b, [(ctx.gen, ctx.gen)] * 100) * 1e-9
        construct.append(t1 - t0)
        first.append(t2 - t1 - steady)
    lazy = hasattr(make(), "_tabulate")
    return (
        round(statistics.median(construct) * 1e3, 3),
        round(statistics.median(first) * 1e3, 3) if lazy else None,
    )


def main():
    out = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ns_per_op": {name: ops_ns(make) for name, make in FIELDS.items()},
        "construct_ms": {},
        "table_build_ms": {},
    }
    for name, make in {**FIELDS, **BUILD_ONLY}.items():
        construct, build = build_ms(make)
        out["construct_ms"][name] = construct
        out["table_build_ms"][name] = build
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
