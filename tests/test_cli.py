"""CLI: subcommands, report shapes, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from skewlab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_finite(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--field", "finite:p=2,e=1,n=3", "--poly", "x+w"
    )
    assert code == 0
    report = json.loads(out)
    assert report["F"] == "y+1" and report["ell"] == 1 and report["m"] == 3
    assert report["norm_identity"]["holds"]


def test_bound_computes_the_bound_once(capsys, monkeypatch):
    # the norm identity reads irreducibility off the report cmd_bound has
    from skewlab import skewpoly

    calls = []
    bound = skewpoly.bound

    def counted(f):
        calls.append(f)
        return bound(f)

    monkeypatch.setattr(skewpoly, "bound", counted)
    monkeypatch.setattr(cli, "bound", counted)
    code, out, _ = run_cli(
        capsys, "bound", "--field", "finite:p=3,e=1,n=4", "--poly", "x^2+w*x+w^3"
    )
    assert code == 0 and json.loads(out)["norm_identity"]["irreducibility_checked"]
    assert len(calls) == 1


def test_bound_funcfield(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--field",
        "funcfield:r=3",
        "--poly",
        "x^2+(t^2+1)/(t^2+t+1)",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ell"] == 2 and report["m"] == 3
    assert not report["norm_identity"]["irreducibility_checked"]


def test_bound_zero_constant_rejected(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--field", "finite:p=2,e=1,n=3", "--poly", "x^2+x"
    )
    assert code == 2
    assert "constant coefficient must be nonzero" in err


def test_bound_parse_error(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--field", "finite:p=2,e=1,n=3", "--poly", "x^^2"
    )
    assert code == 2 and "position" in err


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


D412 = {
    "family": "D",
    "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
    "F": [-1, 1],
    "k": 2,
    "gamma": "w",
}


def test_verify_d412(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, D412))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["mrd"]["witnessed"] and report["mrd"]["min_rank"] == 3
    assert report["nuclear"]["Il"] == 9 and report["nuclear"]["C"] == 3
    assert report["params"] == {"n": 4, "s": 1, "ell": 1, "m": 4, "k": 2}


def test_verify_invalid_eta_reports_but_exits_zero(capsys, tmp_path):
    # eta = w^2 has trivial norm over q=3, n=4: the validity condition fails,
    # the scan still runs and its outcome is reported without judgment
    spec = {
        "family": "S",
        "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
        "F": [-1, 1],
        "k": 2,
        "eta": "w^2",
        "rho_exp": 0,
    }
    code, out, _ = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, spec))
    report = json.loads(out)
    assert report["valid"] is False
    assert report["mrd"]["checked"] > 0
    assert code == 0  # no claim violated


def test_verify_malformed_spec(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    code2, _, _ = run_cli(
        capsys, "verify", "--spec", write_spec(tmp_path, {"family": "Q"})
    )
    assert code2 == 2
    # valid JSON that is not an object: a usage error, never exit 1
    for payload in ([D412], "D", 3, None):
        code3, _, err3 = run_cli(
            capsys, "verify", "--spec", write_spec(tmp_path, payload)
        )
        assert code3 == 2 and err3.startswith("error:")


def test_unknown_spec_keys_are_usage_errors(capsys, tmp_path):
    # a mistyped key used to be ignored: rho = id, sigma_exp = 1
    s412 = {**D412, "family": "S", "eta": "w"}
    del s412["gamma"]
    bad_code = {**s412, "rho_expo": 1}
    bad_field = {**s412, "field": {**D412["field"], "sigma_exps": 3}}
    bad_semifield = {**D412, "F": [1, 0, 1], "k": 1, "semifield": True, "gama": "w"}
    for payload, key in (
        (bad_code, "rho_expo"),
        (bad_field, "sigma_exps"),
        (bad_semifield, "gama"),
    ):
        code, out, err = run_cli(
            capsys, "verify", "--spec", write_spec(tmp_path, payload)
        )
        assert code == 2 and not out
        assert err.startswith("error:") and repr(key) in err
    code, out, err = run_cli(
        capsys, "bound", "--field", "finite:p=2,e=1,n=3,sigma=1", "--poly", "x+w"
    )
    assert code == 2 and not out and "'sigma'" in err
    # every documented key is still accepted
    code, _, _ = run_cli(
        capsys, "verify", "--spec", write_spec(tmp_path, {**s412, "rho_exp": 1})
    )
    assert code == 0


S412 = {**{k: v for k, v in D412.items() if k != "gamma"}, "family": "S", "eta": "w"}


FF8_D = {
    "family": "D",
    "field": {"kind": "funcfield", "r": 3},
    "F": ["(t^6+t^4+t^2+1)/(t^6+t^5+t^3+t+1)", "1"],
    "k": 1,
    "gamma": "t+1",
    "f": "x^2+(t^2+1)/(t^2+t+1)",
}


@pytest.mark.parametrize(
    "payload, key",
    [
        ({**D412, "F": 5}, "F"),
        ({**D412, "F": [[1], 1]}, "F"),
        ({**D412, "k": [2]}, "k"),
        ({**D412, "k": None}, "k"),
        ({**S412, "rho_exp": None}, "rho_exp"),
        # a number used to be read as a literal and reduced mod p
        ({**S412, "eta": 5}, "eta"),
        ({**D412, "gamma": 1}, "gamma"),
        ({**D412, "gamma": None}, "gamma"),
        # numbers that are not JSON integers used to be truncated by int()
        ({**D412, "k": 2.7}, "k"),
        ({**D412, "k": True}, "k"),
        ({**D412, "k": "2"}, "k"),
        ({**D412, "F": [-1.0, 1]}, "F"),
        ({**S412, "rho_exp": 1.5}, "rho_exp"),
        ({**D412, "field": {"kind": "finite", "p": 3.5, "n": 4}}, "p"),
        ({**D412, "field": {"kind": "finite", "p": 3, "n": 4.9}}, "n"),
    ],
)
def test_wrong_value_types_are_usage_errors(capsys, tmp_path, payload, key):
    # these used to end in a TypeError traceback and exit 1
    code, out, err = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, payload))
    assert code == 2 and not out
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize(
    "payload, key",
    [
        # keys the spec does not read used to be ignored (the finite ones
        # exited 0); a finite spec finds its f
        ({**D412, "f": 5}, "f"),
        ({**D412, "f": "x^2+((("}, "f"),
        ({**D412, "eta": None}, "eta"),
        ({**D412, "rho_exp": "x"}, "rho_exp"),
        ({**S412, "gamma": "w"}, "gamma"),
        ({**D412, "F": [1, 0, 1], "k": 1, "semifield": True, "eta": "w"}, "eta"),
        ({**FF8_D, "family": "S", "eta": "t"}, "gamma"),
    ],
)
def test_keys_the_spec_does_not_read_are_usage_errors(capsys, tmp_path, payload, key):
    code, out, err = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, payload))
    assert code == 2 and not out
    assert err.startswith("error:") and repr(key) in err and "not read" in err


@pytest.mark.parametrize(
    "field, key",
    [
        ('{"kind": "finite", "p": 3, "n": [4]}', "n"),
        ('{"kind": "finite", "p": 3, "n": 4, "modulus": 5}', "modulus"),
        ('{"kind": "finite", "p": 3.5, "n": 4.9}', "p"),
        ('{"kind": "finite", "p": true, "n": 4}', "p"),
        ('{"kind": "funcfield", "r": 3.0}', "r"),
        ("finite:p=3.5,n=4", "p"),
        ("finite:p=3,n=true", "n"),
        ("funcfield:r=x", "r"),
    ],
)
def test_wrong_field_value_type_is_a_usage_error(capsys, field, key):
    code, out, err = run_cli(capsys, "bound", "--field", field, "--poly", "x+w")
    assert code == 2 and not out
    assert err.startswith("error:") and repr(key) in err


def test_a_prime_from_2_to_the_31_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--field", "finite:p=4294967311,e=1,n=2", "--poly", "x+w"
    )
    assert code == 2 and not out and err.startswith("error:")


def test_verify_budget_exit(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--spec",
        write_spec(tmp_path, D412),
        "--budget",
        "10",
    )
    assert code == 3 and "budget" in err


def test_verify_sampled_needs_seed_and_samples(capsys, tmp_path):
    path = write_spec(tmp_path, D412)
    code, _, err = run_cli(capsys, "verify", "--spec", path, "--mode", "sampled")
    assert code == 2
    code2, _, _ = run_cli(
        capsys, "verify", "--spec", path, "--mode", "sampled", "--seed", "5"
    )
    assert code2 == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_sampled_needs_a_positive_sample_count(capsys, tmp_path, samples):
    # a scan of no words would report checked 0 and min_rank null as a pass
    code, out, err = run_cli(
        capsys, "verify", "--spec", write_spec(tmp_path, D412),
        "--mode", "sampled", "--samples", samples, "--seed", "5",
    )
    assert code == 2 and not out and "--samples" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_budget_below_one_is_a_usage_error(capsys, tmp_path, monkeypatch, budget):
    path = write_spec(tmp_path, D412)
    code, out, err = run_cli(capsys, "verify", "--spec", path, "--budget", budget)
    assert code == 2 and not out and "--budget" in err
    monkeypatch.setenv("SKEWLAB_BUDGET", budget)
    code, out, err = run_cli(capsys, "verify", "--spec", path)
    assert code == 2 and not out and "SKEWLAB_BUDGET" in err


@pytest.mark.parametrize("budget", ["abc", "1e6"])
def test_a_budget_variable_that_is_not_an_integer_is_a_usage_error(
    capsys, tmp_path, monkeypatch, budget
):
    # int() used to raise "invalid literal for int() with base 10", which
    # does not name the variable
    monkeypatch.setenv("SKEWLAB_BUDGET", budget)
    code, out, err = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, D412))
    assert code == 2 and not out
    assert "SKEWLAB_BUDGET" in err and repr(budget) in err


def test_verify_sampled_runs(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--spec",
        write_spec(tmp_path, D412),
        "--mode",
        "sampled",
        "--samples",
        "25",
        "--seed",
        "12",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mrd"]["mode"] == "sampled" and report["mrd"]["seed"] == 12


def test_verify_funcfield_spec(capsys, tmp_path):
    spec = FF8_D
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--spec",
        write_spec(tmp_path, spec),
        "--mode",
        "sampled",
        "--samples",
        "10",
        "--seed",
        "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["nuclear"] is None
    assert report["mrd"]["min_rank"] >= report["mrd"]["distance_target"]
    # a number for the divisor literal is read as the literal "5": a usage
    # error, not a traceback
    code, out, err = run_cli(
        capsys, "verify", "--spec", write_spec(tmp_path, {**spec, "f": 5}),
        "--mode", "sampled", "--samples", "1", "--seed", "3",
    )
    assert code == 2 and not out and err.startswith("error:")


def test_an_f_that_does_not_divide_f_of_x_n_is_a_usage_error(capsys, tmp_path):
    # x^2 + t is monic with a nonzero constant, but its bound is not F
    spec = {**FF8_D, "f": "x^2+t"}
    code, out, err = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, spec))
    assert code == 2 and not out and "the bound of f is not F" in err


def test_sampled_verify_counts_its_samples_against_the_budget(capsys, tmp_path):
    path = write_spec(tmp_path, FF8_D)
    argv = ["verify", "--spec", path, "--mode", "sampled", "--seed", "3"]
    code, out, err = run_cli(capsys, *argv, "--samples", "11", "--budget", "10")
    assert code == 3 and not out and "11 samples exceed the scan budget 10" in err
    code, out, _ = run_cli(capsys, *argv, "--samples", "10", "--budget", "10")
    assert (code, out) == run_cli(capsys, *argv, "--samples", "10")[:2]
    assert json.loads(out)["mrd"]["checked"] == 10


def test_ffsuite(capsys):
    code, out, _ = run_cli(capsys, "ffsuite", "--r", "3")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] and len(report["results"]) == 5


def test_ffsuite_single_check_and_even_r(capsys):
    code, out, _ = run_cli(capsys, "ffsuite", "--r", "3", "--check", "f-bound")
    assert code == 0
    assert json.loads(out)["results"] == [{"r": 3, "check": "f-bound", "pass": True}]
    code2, _, err = run_cli(capsys, "ffsuite", "--r", "4")
    assert code2 == 2 and "odd" in err


@pytest.mark.parametrize("r", [",", ""])
def test_ffsuite_without_an_r_value_is_a_usage_error(capsys, r):
    # a suite that checks nothing must not report all_pass
    code, out, err = run_cli(capsys, "ffsuite", "--r", r)
    assert code == 2 and not out and "--r" in err


def test_ffsuite_r_value_that_is_not_an_integer_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "ffsuite", "--r", "3,x")
    assert code == 2 and not out and "--r" in err and "'3,x'" in err


def test_reports_are_byte_identical(capsys, tmp_path):
    path = write_spec(tmp_path, D412)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, _, _ = run_cli(
        capsys, "verify", "--spec", path, "--seed", "7", "--out", str(out1)
    )
    code2, _, _ = run_cli(
        capsys, "verify", "--spec", path, "--seed", "7", "--out", str(out2)
    )
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_jobs_do_not_change_the_report(capsys, tmp_path):
    # gamma = 1 is not MRD: the scan stops at its first counterexample, and
    # checked counts the words up to it whatever --jobs says
    for name, spec in (("d412", D412), ("gamma1", {**D412, "gamma": "1"})):
        path = write_spec(tmp_path, spec, f"{name}.json")
        out1 = tmp_path / f"{name}_j1.json"
        out2 = tmp_path / f"{name}_j2.json"
        code1 = cli.main(["verify", "--spec", path, "--out", str(out1)])
        code2 = cli.main(
            ["verify", "--spec", path, "--jobs", "2", "--out", str(out2)]
        )
        capsys.readouterr()
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
    mrd = json.loads((tmp_path / "gamma1_j1.json").read_text())["mrd"]
    assert not mrd["witnessed"] and mrd["checked"] == 810 and mrd["min_rank"] == 2


def test_budget_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SKEWLAB_BUDGET", "10")
    code, _, _ = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, D412))
    assert code == 3


def test_usage_error_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_verify_semifield_spec(capsys, tmp_path):
    spec = {
        "family": "D",
        "semifield": True,
        "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
        "F": [-1, 1],
        "k": 1,
        "gamma": "w",
    }
    code, out, _ = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, spec))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "semifield" and report["order"] == 81
    assert report["valid"] and not report["zero_divisors"]["found"]
    assert report["unital"] and report["unit"] == "1"
    assert set(report["nuclei"]) == {"Nl", "Nm", "Nr", "Z"}
    assert report["newness"][0]["family"] == "HK"


def test_verify_semifield_invalid_gamma_scans_anyway(capsys, tmp_path):
    # square norm but still outside L': the product is defined, validity
    # fails, the scan outcome is reported without judgment
    spec = {
        "family": "D",
        "semifield": True,
        "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
        "F": [-1, 1],
        "k": 1,
        "gamma": "w^6",
    }
    code, out, _ = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, spec))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is False
    assert report["zero_divisors"]["pairs_checked"] > 0


@pytest.mark.parametrize(
    "p, n, c0, nuclei",
    [(5, 4, 2, [25, 25, 25, 5]), (3, 6, 1, [27, 27, 9, 3])],
    ids=["order5e8", "order3e12"],
)
def test_verify_larger_semifields_under_default_budget(
    capsys, tmp_path, monkeypatch, p, n, c0, nuclei
):
    # star_D of order q^(2ts) with F = y^2 + c0: zero-divisor free, nuclei
    # (q^t, q^t, q^s, q)
    monkeypatch.delenv("SKEWLAB_BUDGET", raising=False)
    spec = {
        "family": "D",
        "semifield": True,
        "field": {"kind": "finite", "p": p, "e": 1, "n": n},
        "F": [c0, 0, 1],
        "k": 1,
        "gamma": "w",
    }
    code, out, _ = run_cli(capsys, "verify", "--spec", write_spec(tmp_path, spec))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["order"] == p ** (2 * n)
    assert not report["zero_divisors"]["found"]
    assert report["zero_divisors"]["pairs_checked"] == (p ** (2 * n) - 1) ** 2
    assert [report["nuclei"][k] for k in ("Nl", "Nm", "Nr", "Z")] == nuclei


def test_ffsuite_check_failure_exits_one(capsys, monkeypatch):
    from skewlab import ffexamples

    monkeypatch.setitem(ffexamples.CHECKS, "sigma-order", lambda inst: False)
    code, out, _ = run_cli(capsys, "ffsuite", "--r", "3", "--check", "sigma-order")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_verify_semifield_budget(capsys, tmp_path):
    spec = {
        "family": "D",
        "semifield": True,
        "field": {"kind": "finite", "p": 3, "e": 1, "n": 4},
        "F": [-1, 1],
        "k": 1,
        "gamma": "w",
    }
    code, _, err = run_cli(
        capsys, "verify", "--spec", write_spec(tmp_path, spec), "--budget", "10"
    )
    assert code == 3 and "budget" in err


# D_(4,1,2): 8 spanning words over F_3 and Il of order 9, so a scan ranks the
# 4 nonzero F_3^*-orbits of Il (the field check) and (3^8 - 1)/8 = 820
# representatives, where the F_3^* scan ranks (3^8 - 1)/2 = 3280
ORBIT_RANKS_D412 = 4 + 820


def test_budget_between_the_orbit_and_the_fp_scan_certifies_d412(capsys, tmp_path):
    path = write_spec(tmp_path, D412)
    golden = (Path(__file__).parent / "golden" / "verify_d412.json").read_text()
    code, out, _ = run_cli(
        capsys, "verify", "--spec", path, "--budget", str(ORBIT_RANKS_D412)
    )
    assert code == 0 and out == golden
    code, out, err = run_cli(
        capsys, "verify", "--spec", path, "--budget", str(ORBIT_RANKS_D412 - 1)
    )
    assert code == 3 and not out
    assert f"{ORBIT_RANKS_D412} ranks exceed the scan budget" in err


def test_an_invalid_spec_whose_rerun_passes_the_budget_exits_3(capsys, tmp_path):
    # gamma = 1: a representative is deficient, and finding the first
    # counterexample (index 810) in index order takes the F_3^* scan past
    # the ranks the representatives left
    path = write_spec(tmp_path, {**D412, "gamma": "1"})
    code, out, err = run_cli(
        capsys, "verify", "--spec", path, "--budget", str(ORBIT_RANKS_D412)
    )
    assert code == 3 and not out and "budget" in err
    code, out, _ = run_cli(capsys, "verify", "--spec", path)
    assert code == 0 and json.loads(out)["mrd"]["checked"] == 810


@pytest.mark.parametrize("poly", ["x^2+1", "x^7+w*x+1", "x^8+w*x+1"])
def test_bound_of_a_reducible_poly_reports_no_norm_identity(capsys, poly):
    # the norm identity needs an irreducible f; for a reducible one the
    # bound is still reported, with "norm_identity": null
    code, out, err = run_cli(
        capsys, "bound", "--field", "finite:p=2,e=1,n=3", "--poly", poly
    )
    assert code == 0 and not err
    report = json.loads(out)
    assert report["norm_identity"] is None
    if poly == "x^2+1":
        assert (report["F"], report["ell"], report["m"]) == ("y^2+1", 1, 3)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({**D412, "gamma": "w^^2"}, "bad term 'w^^2' (at position 0)"),
        ({**S412, "eta": "1++w"}, "empty term (at position 2)"),
        ({**D412, "F": ["w^", 1]}, "bad term 'w^' (at position 0)"),
        ({**FF8_D, "F": ["(t^6+t^4+t^2+1)/(t^6+)", "1"]},
         "trailing operator (at position 20)"),
        ({**FF8_D, "f": "x^2+(t^2+1)/(t^2+t+1"}, "unbalanced parenthesis"),
        ({**FF8_D, "gamma": "t+1/0"}, "zero denominator (at position 4)"),
    ],
)
def test_malformed_spec_literal_is_a_usage_error_naming_a_position(
    capsys, tmp_path, spec, message
):
    code, out, err = run_cli(
        capsys, "verify", "--spec", write_spec(tmp_path, spec),
        "--mode", "sampled", "--samples", "1", "--seed", "3",
    )
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err and "position" in err
    assert "Traceback" not in err


def test_gamma_in_enclosing_parentheses_gives_the_d412_report(capsys, tmp_path):
    golden = (Path(__file__).parent / "golden" / "verify_d412.json").read_text()
    spec = write_spec(tmp_path, {**D412, "gamma": "((w))"})
    code, out, _ = run_cli(capsys, "verify", "--spec", spec)
    assert code == 0 and out == golden
