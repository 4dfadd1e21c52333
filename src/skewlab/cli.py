"""Command-line frontend: construct, validate, verify, and report.

Subcommands: bound (the minimal central multiple of a skew polynomial),
verify (code-spec files: validity, MRD scan, nuclear parameters, newness),
ffsuite (the function-field example suite).  Reports are JSON with a stable
key order; identical inputs and seed give byte-identical reports.

Exit codes: 0 pass, 1 check failure, 2 usage/parse error, 3 budget exceeded.
"""

import argparse
import json
import os
import sys

from .codes import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    code_spec_from_dict,
    newness_report,
    nuclear_params,
    validate,
    verify_mrd,
)
from .fields import (
    FieldError,
    FiniteFieldCtx,
    LiteralError,
    field_from_inline,
    field_from_spec,
    spec_int,
)
from .skewpoly import (
    bound,
    central_to_literal,
    norm_identity_check,
    skew_from_literal,
    skew_to_literal,
)
from . import ffexamples

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load_field(text):
    if text.startswith("finite:") or text.startswith("funcfield:"):
        return field_from_inline(text)
    if text.lstrip().startswith("{"):
        return field_from_spec(json.loads(text))
    with open(text) as fh:
        return field_from_spec(json.load(fh))


def _emit(report, out_path):
    payload = json.dumps(report, indent=2) + "\n"
    # the file first: an out_path that cannot be written leaves stdout empty
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    sys.stdout.write(payload)


def _budget(args):
    """Ranks one scan may compute: --budget, else SKEWLAB_BUDGET, else the
    default; a budget below 1, or a SKEWLAB_BUDGET that is not an integer,
    is a usage error."""
    env = os.environ.get("SKEWLAB_BUDGET")
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    elif env:
        source = "SKEWLAB_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {env!r}") from None
    else:
        return DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"{source} must be >= 1")
    return budget


def cmd_bound(args):
    ctx = _load_field(args.field)
    f = skew_from_literal(ctx, args.poly)
    if not f or not f.is_monic():
        raise FieldError("polynomial must be monic of degree >= 1")
    if not f.constant_coeff:
        raise FieldError("constant coefficient must be nonzero")
    rep = bound(f)
    res = norm_identity_check(f, rep)
    norm = None if res is None else {
        "holds": res.holds,
        "irreducibility_checked": res.irreducibility_checked,
    }
    report = {
        "command": "bound",
        "field": args.field,
        "poly": skew_to_literal(f),
        "F": central_to_literal(rep.F),
        "ell": rep.ell,
        "m": rep.m,
        "norm_identity": norm,
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args):
    budget = _budget(args)
    with open(args.spec) as fh:
        spec_dict = json.load(fh)
    if not isinstance(spec_dict, dict):
        raise ValueError("a spec file must hold a JSON object")
    semifield = spec_dict.get("semifield", False)
    if not isinstance(semifield, bool):
        raise ValueError(f"spec key 'semifield' must be a boolean, got {semifield!r}")
    if semifield:
        return _verify_semifield(args, spec_dict, budget)
    spec = code_spec_from_dict(spec_dict, budget=budget)
    qctx = spec.qctx
    ctx = qctx.ctx
    finite = isinstance(ctx, FiniteFieldCtx)
    valid = validate(spec)
    mrd = verify_mrd(
        spec,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        budget=budget,
    )
    nuclear = None
    newness = []
    if finite:
        try:
            np_ = nuclear_params(spec, budget=budget)
            nuclear = np_.as_dict()
            nuclear["outside_theorem_range"] = np_.outside_theorem_range
        except ValueError as exc:
            nuclear = {"error": str(exc)}
        if spec.family == "D":
            newness = [
                e.as_dict()
                for e in newness_report(ctx.p, ctx.e, ctx.n, qctx.s, spec.k)
            ]
    report = {
        "command": "verify",
        "family": spec.family,
        "params": {
            "n": ctx.n,
            "s": qctx.s,
            "ell": qctx.ell,
            "m": qctx.m,
            "k": spec.k,
        },
        "seed": args.seed,
        "valid": valid,
        "mrd": mrd.as_dict(),
        "nuclear": nuclear,
        "newness": newness,
    }
    _emit(report, args.out)
    if valid and mrd.mode == "exhaustive" and not mrd.witnessed:
        return EXIT_CHECK_FAILED
    if valid and mrd.counterexample is not None:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _verify_semifield(args, spec_dict, budget):
    """Semifield-spec verification: zero-divisor scan, nuclei, newness."""
    from .semifields import (
        StarDSpec,
        StarSPrimeSpec,
        algebra_for_star,
        has_two_sided_unit,
        nuclei,
        zero_divisor_scan,
    )
    from .skewpoly import skew_to_literal

    if spec_int(spec_dict.get("k", 1), "k") != 1:
        raise ValueError("semifield specs need k = 1")
    code_spec = code_spec_from_dict({**spec_dict, "k": 1}, budget=budget)
    qctx = code_spec.qctx
    ctx = qctx.ctx
    if not isinstance(ctx, FiniteFieldCtx):
        raise ValueError("semifield verification needs a finite context")
    family = code_spec.family
    if family == "S":
        # an invalid eta leaves tau_eta non-invertible, so the product
        # itself is undefined and construction errors out
        star = StarSPrimeSpec(qctx, code_spec.eta, code_spec.rho)
        valid = True
    else:
        star = StarDSpec(qctx, code_spec.gamma, enforce_norm=False)
        valid = not ctx.is_square_in_K(ctx.norm(code_spec.gamma))
    alg = algebra_for_star(star)
    scan = zero_divisor_scan(alg, budget=budget)
    unital = has_two_sided_unit(alg)
    nuc = nuclei(alg, budget=budget)
    newness = []
    if family == "D":
        newness = [
            e.as_dict() for e in newness_report(ctx.p, ctx.e, ctx.n, qctx.s, 1)
        ]
    report = {
        "command": "verify",
        "kind": "semifield",
        "family": family,
        "order": alg.order,
        "seed": args.seed,
        "valid": valid,
        "unital": unital,
        "unit": skew_to_literal(star.unit.rep) if unital else None,
        "zero_divisors": scan.as_dict(
            render=lambda a: skew_to_literal(a.rep)
        ),
        "nuclei": nuc.as_dict(),
        "newness": newness,
    }
    _emit(report, args.out)
    if valid and scan.found:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_ffsuite(args):
    try:
        r_values = [int(x) for x in args.r.split(",") if x]
    except ValueError:
        raise ValueError(f"--r takes integers, got {args.r!r}") from None
    if not r_values:
        raise ValueError("--r needs at least one r value")
    checks = [args.check] if args.check else None
    results = ffexamples.run_suite(r_values, checks=checks, r_cap=args.r_cap)
    table = [
        {"r": r, "check": name, "pass": ok} for (r, name, ok) in results
    ]
    all_pass = all(row["pass"] for row in table)
    report = {"command": "ffsuite", "results": table, "all_pass": all_pass}
    _emit(report, args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="Exact skew polynomial bounds, MRD codes and semifields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="bound of a skew polynomial")
    p_bound.add_argument("--field", required=True, help="field spec (inline or file)")
    p_bound.add_argument("--poly", required=True, help="skew polynomial literal")
    p_bound.add_argument("--out", default=None, help="also write the report here")
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="verify a code-spec file")
    p_verify.add_argument("--spec", required=True, help="code spec JSON file")
    p_verify.add_argument(
        "--mode", choices=("exhaustive", "sampled"), default="exhaustive"
    )
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--budget", type=int, default=None)
    # scans run in one process; --jobs is kept so existing command lines work
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_ff = sub.add_parser("ffsuite", help="function-field example suite")
    p_ff.add_argument("--r", required=True, help="comma-separated odd r values")
    p_ff.add_argument("--check", default=None, help="run a single named check")
    p_ff.add_argument("--r-cap", type=int, default=ffexamples.DEFAULT_R_CAP)
    p_ff.add_argument("--out", default=None)
    p_ff.set_defaults(func=cmd_ffsuite)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "verify":
        if args.mode == "sampled" and args.seed is None:
            print("error: sampled mode requires --seed", file=sys.stderr)
            return EXIT_USAGE
        if args.mode == "sampled" and args.samples is None:
            print("error: sampled mode requires --samples", file=sys.stderr)
            return EXIT_USAGE
        if args.mode == "sampled" and args.samples < 1:
            print("error: --samples must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        if args.jobs < 1:
            print("error: --jobs must be >= 1", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LiteralError, FieldError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
