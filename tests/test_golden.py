"""Golden CLI reports: each case must reproduce its saved report byte for
byte, with the saved exit code.

The files in tests/golden/ hold the exact stdout of one `skewlab`
invocation each.  A refactor that changes any report (a literal, a key
order, a count, a witness) fails here.
"""

import json
from pathlib import Path

import pytest

from skewlab import cli

GOLDEN = Path(__file__).parent / "golden"

F81 = {"kind": "finite", "p": 3, "e": 1, "n": 4}
F9 = {"kind": "finite", "p": 3, "e": 1, "n": 2}
F25 = {"kind": "finite", "p": 5, "e": 1, "n": 2}
FF8 = {
    "field": {"kind": "funcfield", "r": 3},
    "F": ["(t^6+t^4+t^2+1)/(t^6+t^5+t^3+t+1)", "1"],
    "f": "x^2+(t^2+1)/(t^2+t+1)",
}
SF = {"semifield": True, "k": 1}

# name -> (argv after the spec path, spec or None, exit code)
CASES = {
    "bound_finite": (
        ["bound", "--field", "finite:p=3,e=1,n=4", "--poly", "x^2+w*x+w^3"],
        None,
        0,
    ),
    "bound_funcfield": (
        ["bound", "--field", "funcfield:r=3", "--poly", "x^2+(t^2+1)/(t^2+t+1)"],
        None,
        0,
    ),
    "verify_d412": (
        [],
        {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "w"},
        0,
    ),
    "verify_s412_rho_sigma": (
        [],
        {"family": "S", "field": F81, "F": [-1, 1], "k": 2, "eta": "w",
         "rho_exp": 1},
        0,
    ),
    "verify_d_s2_k1": (
        [],
        {"family": "D", "field": F81, "F": [1, 0, 1], "k": 1, "gamma": "w"},
        0,
    ),
    "verify_d412_gamma1": (
        [],
        {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "1"},
        0,
    ),
    "semifield_star_d_3e8": (
        [],
        {**SF, "family": "D", "field": F81, "F": [1, 0, 1], "gamma": "w"},
        0,
    ),
    "semifield_star_s_prime_3e8": (
        [],
        {**SF, "family": "S", "field": F81, "F": [1, 0, 1], "eta": "w"},
        0,
    ),
    "semifield_star_d_3e8_invalid": (
        [],
        {**SF, "family": "D", "field": F81, "F": [1, 0, 1], "gamma": "2*w^3+w^2"},
        0,
    ),
    "semifield_star_d_q3_n2_s2": (
        [],
        {**SF, "family": "D", "field": F9, "F": [1, 0, 1], "gamma": "w+1"},
        0,
    ),
    "semifield_star_d_q5_n2_s2": (
        [],
        {**SF, "family": "D", "field": F25, "F": [2, 0, 1], "gamma": "w+1"},
        0,
    ),
    "sampled_ff8_s_k1": (
        ["--mode", "sampled", "--samples", "4", "--seed", "7"],
        {**FF8, "family": "S", "k": 1, "eta": "t"},
        0,
    ),
    "sampled_ff8_d_k1": (
        ["--mode", "sampled", "--samples", "2", "--seed", "11"],
        {**FF8, "family": "D", "k": 1, "gamma": "t+1"},
        0,
    ),
    "ffsuite_r3": (["ffsuite", "--r", "3"], None, 0),
}


def run_case(name, workdir, capsys):
    """Run one case through cli.main; returns (exit code, stdout)."""
    argv, spec, _ = CASES[name]
    if spec is not None:
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(spec))
        argv = ["verify", "--spec", str(path)] + argv
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path, capsys):
    code, out = run_case(name, tmp_path, capsys)
    assert code == CASES[name][2]
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
