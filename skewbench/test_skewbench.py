"""Tests of the benchmark itself: python3 -m pytest skewbench -q"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from skewlab import cli  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_ops(tmp_path):
    """Cheap ops through every oracle family: D_(4,1,1) with 80 words, its
    non-MRD gamma = 1 twin, the order-9 star_D (t = s = 1) and one ffsuite
    check."""
    specs = [
        ("d411", {"family": "D", "field": workloads.F81, "F": [-1, 1], "k": 1,
                  "gamma": "w"},
         {"valid": True, "ell": 1, "mrd": True, "mode": "exhaustive"}),
        ("d411_gamma1", {"family": "D", "field": workloads.F81, "F": [-1, 1], "k": 1,
                         "gamma": "1"},
         {"valid": False, "ell": 1, "mrd": False, "mode": "exhaustive"}),
        ("star_d_3e2", {"semifield": True, "family": "D", "field": workloads.F9,
                        "F": [-1, 1], "k": 1, "gamma": "w+1"},
         {"valid": True, "division": True, "unit": "1"}),
    ]
    ops = []
    for name, spec, expect in specs:
        path = tmp_path / f"{name}.json"
        workloads.write_spec(path, spec)
        ops.append(workloads.Op(name, ["verify", "--spec", str(path)], spec, expect))
    ops.append(workloads.Op("ffsuite", ["ffsuite", "--r", "3"], expect={"r": [3]}))
    return ops


def test_oracles_accept_correct_reports(tmp_path):
    for op in small_ops(tmp_path):
        code, text, _ = run.run_op(cli, op)
        assert oracles.check(op, code, text) == [], op.name


@pytest.mark.parametrize(
    "name, path, delta, check",
    [
        ("d411", ("mrd", "min_rank"), -1, "mrd.min_rank"),
        ("d411", ("mrd", "checked"), 1, "mrd.checked"),
        ("d411_gamma1", ("mrd", "checked"), 1, "counterexample.checked"),
        ("star_d_3e2", ("nuclei", "Nr"), 6, "nuclei.definition"),
        ("star_d_3e2", ("zero_divisors", "pairs_checked"), -1, "zero_divisors.pairs"),
    ],
)
def test_oracle_rejects_a_mutated_report(tmp_path, name, path, delta, check):
    op = next(o for o in small_ops(tmp_path) if o.name == name)
    code, text, _ = run.run_op(cli, op)
    rep = json.loads(text)
    rep[path[0]][path[1]] += delta
    assert check in oracles.check(op, code, json.dumps(rep))


def test_oracle_rejects_a_wrong_counterexample_and_exit_code(tmp_path):
    op = next(o for o in small_ops(tmp_path) if o.name == "d411_gamma1")
    code, text, _ = run.run_op(cli, op)
    rep = json.loads(text)
    rep["mrd"]["counterexample"] = "x+w"
    failed = oracles.check(op, 1, json.dumps(rep))
    assert "counterexample.word" in failed and "exit_code" in failed
    assert oracles.check(op, code, "not json") == ["report.json"]


def test_definition_nuclei_of_a_field():
    # F_9 = F_3[w]/(w^2+1) is associative and commutative: every nucleus is F_9
    C = np.zeros((2, 2, 2), dtype=np.int64)
    C[0, 0] = (1, 0)
    C[0, 1] = C[1, 0] = (0, 1)
    C[1, 1] = (2, 0)
    assert oracles.nuclei_by_definition(C, 3) == (9, 9, 9, 9)


def test_generator_is_deterministic(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 7, tmp_path / "a" / workload)
        b = workloads.build(workload, 7, tmp_path / "b" / workload)
        assert [(o.name, o.spec, o.expect) for o in a] == [
            (o.name, o.spec, o.expect) for o in b
        ]
        for x, y in zip(a, b):
            if x.spec is not None:
                assert Path(x.argv[2]).read_bytes() == Path(y.argv[2]).read_bytes()
    seeds = {
        json.dumps([o.spec for o in workloads.build("semifield_scan", s, tmp_path / str(s))])
        for s in range(6)
    }
    assert len(seeds) > 1


def test_seeded_gammas_pass_the_validity_check(tmp_path):
    from skewlab.codes import code_spec_from_dict, validate

    for lit in workloads.NONSQUARE_NORM_81:
        spec = {"family": "D", "field": workloads.F81, "F": [-1, 1], "k": 2, "gamma": lit}
        assert validate(code_spec_from_dict(spec))


def run_main(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(workloads, "build", lambda w, s, d: small_ops(tmp_path))
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "mrd_exhaustive", "--seed", "1",
                         "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_emitted(monkeypatch, tmp_path, trace, key):
    lines = run_main(monkeypatch, tmp_path, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == listed
    for name in listed:
        assert any(line.split()[:1] == [name] for line in lines[:-1])
    stamp = json.loads(next((tmp_path / "out").glob("result-*.json")).read_text())
    assert {"nproc", "python", "numpy", "git_commit", "loadavg_at_start"} <= set(
        stamp["environment"]
    )


def test_tracing_leaves_reports_unchanged_and_counts_repeat(tmp_path):
    ops = small_ops(tmp_path)
    plain = [run.run_op(cli, op) for op in ops]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            times, traced = run.run_pass(cli, ops)
        finally:
            tracer.uninstall()
        assert traced == plain
        counts.append(dict(tracer.calls))
        wall = sum(times)
        unattributed = wall - sum(tracer.self_s.values())
        assert 0 <= unattributed < wall
        assert tracer.count("quotient.rank") > 0 and tracer.count("fields.FFElem.") > 0
    assert counts[0] == counts[1]
    # uninstall restores every patched name
    from skewlab import codes, quotient

    assert codes.rank is quotient.rank and not hasattr(quotient.rank, "__wrapped__")



def test_judge_counts_repeats_and_jobs_twins_that_differ(tmp_path):
    op = small_ops(tmp_path)[0]
    twin = workloads.Op("d411_jobs2", op.argv + ["--jobs", "2"], op.spec,
                        {**op.expect, "same_as": op.name})
    good = run.run_op(cli, op)
    bad = (good[0], good[1].replace('"checked": 80', '"checked": 81'), good[2])
    attempted, failures = run.judge("w", [op, twin], [[good, good], [good, bad]], {})
    assert attempted == 4 and failures == [("d411_jobs2", 1, ["bytes.repeat"], False)]
    known = {("w", "d411_jobs2"): ("mrd.checked", "bytes.jobs1")}
    _, failures = run.judge("w", [op, twin], [[good, bad]], known)
    assert failures == [("d411_jobs2", 0, ["mrd.checked", "bytes.jobs1"], True)]
