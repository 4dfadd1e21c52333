"""Golden CLI reports: each case must reproduce its saved report byte for
byte, with the saved exit code.

The files in tests/golden/ hold the exact stdout of one `skewlab`
invocation each.  A refactor that changes any report (a literal, a key
order, a count, a witness) fails here.
"""

import json
from pathlib import Path

import pytest

from helpers import record_chunks, record_rank_scans
from skewlab import cli, fields

GOLDEN = Path(__file__).parent / "golden"

F81 = {"kind": "finite", "p": 3, "e": 1, "n": 4}
F9 = {"kind": "finite", "p": 3, "e": 1, "n": 2}
F25 = {"kind": "finite", "p": 5, "e": 1, "n": 2}
# e = 2: K = F_9 inside L = F_81, with F(y) = y^2 + 2w^10 over K
E2 = {"field": {"kind": "finite", "p": 3, "e": 2, "n": 2}, "F": ["2*w^10", 0, 1]}
FF8 = {
    "field": {"kind": "funcfield", "r": 3},
    "F": ["(t^6+t^4+t^2+1)/(t^6+t^5+t^3+t+1)", "1"],
    "f": "x^2+(t^2+1)/(t^2+t+1)",
}
FF32 = {
    "field": {"kind": "funcfield", "r": 5},
    "F": ["(t^10+t^8+t^2+1)/(t^10+t^9+t^8+t^6+t^5+t^4+t^2+t+1)", "1"],
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
    # the two "ell": null paths of bound: the char poly (y^2+2)(y+1) is not
    # a power of F = y^2+2, and (y+1)^2 is a power of F = y+1 with 2 not
    # dividing n = 3
    "bound_char_not_power": (
        ["bound", "--field", "finite:p=3,e=1,n=2", "--poly", "x^3+w*x^2+x+w"],
        None,
        0,
    ),
    "bound_power_not_dividing_n": (
        ["bound", "--field", "finite:p=2,e=1,n=3", "--poly", "x^2+(w+1)*x+w"],
        None,
        0,
    ),
    # a dense f of degree 10: a char poly by Laplace expansion, factorial in
    # deg f, makes this bound take 40 s
    "bound_dense_deg10": (
        [
            "bound", "--field", "finite:p=2,n=11", "--poly",
            "x^10+w*x^9+w*x^8+w*x^7+w*x^6+w*x^5+w*x^4+w*x^3+w*x^2+w*x+w",
        ],
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
    # s = 2, k = 2: the only golden that prints newness_mrd's s >= 2 table
    "verify_d_s2_k2": (
        ["--mode", "sampled", "--samples", "20", "--seed", "1"],
        {"family": "D", "field": F81, "F": [1, 0, 1], "k": 2, "gamma": "w"},
        0,
    ),
    "verify_d_e2": ([], {**E2, "family": "D", "k": 1, "gamma": "w^2"}, 0),
    "verify_d412_gamma1": (
        [],
        {"family": "D", "field": F81, "F": [-1, 1], "k": 2, "gamma": "1"},
        0,
    ),
    # no codeword is a unit, so the nuclear parameters are an error entry
    "verify_s_no_unit": (
        [],
        {"family": "S", "field": F81, "F": [-1, 1], "k": 1,
         "eta": "w^3+w^2+1", "rho_exp": 3},
        0,
    ),
    # no spanning word is a unit, but 204 of the 255 nonzero codewords are
    "verify_s_unit_off_spanning_words": (
        [],
        {"family": "S", "field": {"kind": "finite", "p": 2, "e": 4, "n": 2},
         "F": ["w^7+w^6+w^5", 1], "k": 1, "eta": "w^5+w^4", "rho_exp": 2},
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
    # s = 1: no two-sided unit, so the nuclei come from a unital isotope
    "semifield_star_s_prime_s1": (
        [],
        {**SF, "family": "S", "field": F81, "F": [-1, 1], "eta": "w",
         "rho_exp": 1},
        0,
    ),
    "semifield_star_d_3e8_invalid": (
        [],
        {**SF, "family": "D", "field": F81, "F": [1, 0, 1], "gamma": "2*w^3+w^2"},
        0,
    ),
    # order 3^16, nuclei (81, 81, 9, 3): 538,084 ranks, one per N_l^* orbit
    "semifield_star_d_3e16": (
        [],
        {**SF, "family": "D", "field": {"kind": "finite", "p": 3, "e": 1, "n": 8},
         "F": [1, 0, 1], "gamma": "w"},
        0,
    ),
    "semifield_star_d_e2": ([], {**SF, **E2, "family": "D", "gamma": "w"}, 0),
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
    "sampled_ff8_s_k1_many": (
        ["--mode", "sampled", "--samples", "60", "--seed", "13"],
        {**FF8, "family": "S", "k": 1, "eta": "t"},
        0,
    ),
    "sampled_ff8_s_k2": (
        ["--mode", "sampled", "--samples", "4", "--seed", "5"],
        {**FF8, "family": "S", "k": 2, "eta": "t"},
        0,
    ),
    "sampled_ff32_s_k1": (
        ["--mode", "sampled", "--samples", "6", "--seed", "3"],
        {**FF32, "family": "S", "k": 1, "eta": "t"},
        0,
    ),
    "sampled_ff32_d_k1": (
        ["--mode", "sampled", "--samples", "4", "--seed", "3"],
        {**FF32, "family": "D", "k": 1, "gamma": "t+1"},
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


# the exhaustive scans of every golden code and semifield but the slow
# order-3^16 one: those that rank one member per orbit of a field larger
# than F_p (Il or N_l of order 4, 9 or 81), and those that rank one per
# F_p^* orbit (the field is F_p, or the nuclear systems raise)
ORBIT_SCANNED = [
    "semifield_star_d_3e8",
    "semifield_star_d_3e8_invalid",
    "semifield_star_d_e2",
    "semifield_star_s_prime_3e8",
    "verify_d412",
    "verify_d412_gamma1",
    "verify_d_e2",
    "verify_d_s2_k1",
    "verify_s_unit_off_spanning_words",
]
FP_SCANNED = [
    "semifield_star_d_q3_n2_s2",
    "semifield_star_d_q5_n2_s2",
    "semifield_star_s_prime_s1",
    "verify_s412_rho_sigma",
    "verify_s_no_unit",
]


@pytest.mark.parametrize("name", ORBIT_SCANNED + FP_SCANNED)
def test_orbit_scan_agrees_with_the_fp_scan(name, tmp_path, capsys, monkeypatch):
    # every scan the case runs is repeated with no field acting: the first
    # deficient index (the verdict) and the minimum rank must agree
    scans = record_rank_scans(monkeypatch)
    code, out = run_case(name, tmp_path, capsys)
    assert code == CASES[name][2]
    assert out == (GOLDEN / f"{name}.json").read_text()
    assert len(scans) == 1
    orbit, got, plain = scans[0]
    assert got == plain
    assert orbit == (name in ORBIT_SCANNED)


@pytest.mark.parametrize("name", ORBIT_SCANNED)
def test_jobs_do_not_change_orbit_scanned_reports(name, tmp_path, capsys):
    _, spec, code = CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    outs = []
    for jobs in ("1", "2"):
        assert cli.main(["verify", "--spec", str(path), "--jobs", jobs]) == code
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == (GOLDEN / f"{name}.json").read_text()


# the exhaustive MRD scans: they rank N x N matrices over L
EXHAUSTIVE_CODES = sorted(
    name for name, (argv, spec, _) in CASES.items()
    if name.startswith("verify_") and "sampled" not in argv
)


@pytest.mark.parametrize("name", EXHAUSTIVE_CODES)
def test_a_field_without_tables_gives_the_report_in_the_same_chunks(
    name, tmp_path, capsys, monkeypatch
):
    # with TABLE_LIMIT below |L|, L has no tables and the scan ranks the
    # dN x dN F_p-matrices instead: the same report, and every kernel call
    # (scans, field checks, unit searches) is handed a chunk of the same size
    chunks = record_chunks(monkeypatch)
    code, out = run_case(name, tmp_path, capsys)
    assert out == (GOLDEN / f"{name}.json").read_text()
    assert any(field is not None for field, _ in chunks)
    on_l = [n for _, n in chunks]
    chunks.clear()
    field = CASES[name][1]["field"]
    order = field["p"] ** (field["e"] * field["n"])
    monkeypatch.setattr(fields, "TABLE_LIMIT", order - 1)
    assert run_case(name, tmp_path, capsys) == (code, out)
    assert all(field is None for field, _ in chunks)
    assert [n for _, n in chunks] == on_l
