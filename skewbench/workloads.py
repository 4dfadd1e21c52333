"""Seeded inputs for the skewlab benchmark.

Each workload is a fixed list of CLI invocations.  The seed only picks
gamma/eta among elements that pass the paper's norm condition (so every
word and pair count stays fixed) and supplies the seeds of sampled mode.
The generator writes the spec files the CLI reads; the same seed gives the
same bytes.  Nothing here imports skewlab: the program sees only these files.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# The 40 elements of F_81 = F_3[w]/(canonical quartic) whose norm to F_3 is
# a non-square.  They are the valid gamma of D_(4,1,2) and of the s = 2
# D-code, the valid eta of S_(4,1,2) with rho = sigma, and the gamma/eta that
# make star_D and star_S' of order 3^8 division algebras.
NONSQUARE_NORM_81 = (
    "w^3", "2*w^3", "w^3+w^2", "2*w^3+2*w^2", "w", "w^3+w", "w^3+w^2+w",
    "2*w^3+w^2+w", "2*w^2+w", "w^3+2*w^2+w", "2*w", "2*w^3+2*w", "w^2+2*w",
    "2*w^3+w^2+2*w", "w^3+2*w^2+2*w", "2*w^3+2*w^2+2*w", "w^3+1", "2*w^2+1",
    "w^3+2*w^2+1", "w+1", "w^3+w+1", "2*w^3+w+1", "w^3+w^2+w+1",
    "2*w^3+w^2+w+1", "w^3+2*w^2+w+1", "2*w^3+2*w+1", "2*w^2+2*w+1",
    "w^3+2*w^2+2*w+1", "2*w^3+2", "w^2+2", "2*w^3+w^2+2", "w^3+w+2",
    "w^2+w+2", "2*w^3+w^2+w+2", "2*w+2", "w^3+2*w+2", "2*w^3+2*w+2",
    "2*w^3+w^2+2*w+2", "w^3+2*w^2+2*w+2", "2*w^3+2*w^2+2*w+2",
)
# gamma for star_D over q = 3 and q = 5 with n = 2, s = 2 (t = 1): outside
# L' = F_q, with non-square norm.
STAR_D_Q3N2 = ("w+1", "2*w+1", "w+2", "2*w+2")
STAR_D_Q5N2 = ("w+1", "4*w+1", "2*w+2", "3*w+2", "2*w+3", "3*w+3", "w+4", "4*w+4")

F81 = {"kind": "finite", "p": 3, "e": 1, "n": 4}
F9 = {"kind": "finite", "p": 3, "e": 1, "n": 2}
F25 = {"kind": "finite", "p": 5, "e": 1, "n": 2}
# F_8(t) with the catalogued f = x^2 + (t^2+1)/(t^2+t+1): ell_F = 2, m = 3
FF8 = {"kind": "funcfield", "r": 3}
FF8_F = ["(t^6+t^4+t^2+1)/(t^6+t^5+t^3+t+1)", "1"]
FF8_f = "x^2+(t^2+1)/(t^2+t+1)"

# sampled-mode word counts.  The cost of a word varies with the word drawn
# (coefficient of variation about 0.4-0.5 per word), so the pass time varies
# with the seed; the cheap S k = 1 words carry most of the samples because
# they add the least seed-to-seed spread per second of work.
FF_SAMPLES = {"ff_s_k1": 150, "ff_s_k2": 2, "ff_d_k1": 20}
FFSUITE_R = "3,5,7"

WORKLOADS = ("mrd_exhaustive", "semifield_scan", "funcfield_sampled")


@dataclass
class Op:
    """One CLI invocation and what the paper says its report must hold."""

    name: str
    argv: list
    spec: dict | None = None
    expect: dict = field(default_factory=dict)


def _mrd_specs(rng):
    return [
        (
            "d412",
            {"family": "D", "field": F81, "F": [-1, 1], "k": 2,
             "gamma": rng.choice(NONSQUARE_NORM_81)},
            {"valid": True, "ell": 1, "mrd": True, "nuclear": [9, 9, 3, 3]},
        ),
        (
            "s412_rho_sigma",
            {"family": "S", "field": F81, "F": [-1, 1], "k": 2,
             "eta": rng.choice(NONSQUARE_NORM_81), "rho_exp": 1},
            {"valid": True, "ell": 1, "mrd": True},
        ),
        (
            "d_s2_k1",
            {"family": "D", "field": F81, "F": [1, 0, 1], "k": 1,
             "gamma": rng.choice(NONSQUARE_NORM_81)},
            {"valid": True, "ell": 1, "mrd": True},
        ),
        (
            # N(1) = 1 is a square: not MRD, the scan stops at the first
            # rank-deficient word
            "d412_gamma1",
            {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "1"},
            {"valid": False, "ell": 1, "mrd": False},
        ),
    ]


def _semifield_specs(rng):
    sf = {"semifield": True, "k": 1}
    return [
        (
            "star_d_3e8",
            {**sf, "family": "D", "field": F81, "F": [1, 0, 1],
             "gamma": rng.choice(NONSQUARE_NORM_81)},
            {"valid": True, "division": True, "unit": "1", "nuclei_formula": True},
        ),
        (
            "star_s_prime_3e8",
            {**sf, "family": "S", "field": F81, "F": [1, 0, 1],
             "eta": rng.choice(NONSQUARE_NORM_81)},
            {"valid": True, "division": True, "unit": "x"},
        ),
        (
            # square norm: a zero divisor exists and the scan stops there
            "star_d_3e8_invalid",
            {**sf, "family": "D", "field": F81, "F": [1, 0, 1], "gamma": "2*w^3+w^2"},
            {"valid": False, "division": False, "unit": "1"},
        ),
        (
            "star_d_q3_n2_s2",
            {**sf, "family": "D", "field": F9, "F": [1, 0, 1],
             "gamma": rng.choice(STAR_D_Q3N2)},
            {"valid": True, "division": True, "unit": "1", "nuclei_formula": True},
        ),
        (
            "star_d_q5_n2_s2",
            {**sf, "family": "D", "field": F25, "F": [2, 0, 1],
             "gamma": rng.choice(STAR_D_Q5N2)},
            {"valid": True, "division": True, "unit": "1", "nuclei_formula": True},
        ),
    ]


def _funcfield_specs(rng):
    base = {"field": FF8, "F": FF8_F, "f": FF8_f}
    specs = [
        ("ff_s_k1", {**base, "family": "S", "k": 1, "eta": "t"}),
        ("ff_s_k2", {**base, "family": "S", "k": 2, "eta": "t"}),
        ("ff_d_k1", {**base, "family": "D", "k": 1, "gamma": "t+1"}),
    ]
    out = []
    for name, spec in specs:
        expect = {
            "valid": True, "ell": 2, "mrd": True,
            "samples": FF_SAMPLES[name], "seed": rng.randrange(2**31),
        }
        out.append((name, spec, expect))
    return out


def write_spec(path, spec):
    path.write_text(json.dumps(spec, sort_keys=True, indent=1) + "\n")


def build(workload, seed, workdir):
    """Write the workload's spec files under workdir; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    if workload == "mrd_exhaustive":
        specs = [(n, s, {**e, "mode": "exhaustive"}) for n, s, e in _mrd_specs(rng)]
    elif workload == "semifield_scan":
        specs = _semifield_specs(rng)
    else:
        specs = _funcfield_specs(rng)
    for name, spec, expect in specs:
        path = workdir / f"{name}.json"
        write_spec(path, spec)
        argv = ["verify", "--spec", str(path)]
        if "samples" in expect:
            expect["mode"] = "sampled"
            argv += ["--mode", "sampled", "--samples", str(expect["samples"]),
                     "--seed", str(expect["seed"])]
        ops.append(Op(name, argv, spec, expect))
    if workload == "mrd_exhaustive":
        # every scan again through the process pool (2 workers, nproc of the
        # 2-vCPU machine measured); its report must equal the --jobs 1 report
        ops += [
            Op(f"{op.name}_jobs2", op.argv + ["--jobs", "2"], op.spec,
               {**op.expect, "same_as": op.name})
            for op in list(ops)
        ]
    if workload == "funcfield_sampled":
        ops.append(Op("ffsuite", ["ffsuite", "--r", FFSUITE_R],
                      expect={"r": [int(r) for r in FFSUITE_R.split(",")]}))
    return ops
