"""CLI: subcommands, report shapes, exit codes, determinism."""

import json

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
    spec = {
        "family": "D",
        "field": {"kind": "funcfield", "r": 3},
        "F": ["(t^6+t^4+t^2+1)/(t^6+t^5+t^3+t+1)", "1"],
        "k": 1,
        "gamma": "t+1",
        "f": "x^2+(t^2+1)/(t^2+t+1)",
    }
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
