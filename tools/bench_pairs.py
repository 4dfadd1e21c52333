"""Alternating parent/change pairs of skewbench runs, for BENCH_*.json files.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workloads funcfield_sampled,semifield_scan --seeds 1401-1410 \
        --seconds 35 --log pairs.jsonl > summary.json

Both trees are source checkouts (each with its own skewbench/).  For every
workload and seed it runs skewbench/run.py --trace 0 once in each tree,
the parent first on even pair numbers and the change first on odd ones,
and appends one JSON line per run to --log (so an interrupted session keeps
its runs; an existing log is extended, and its runs are not repeated).
Before the first pair it recompiles src and skewbench in both trees
(compileall -f), so that neither tree starts with stale bytecode and
recompiles changed modules in every run.  The
summary printed at the end gives, per workload and end-to-end metric, each
side's median and quartiles and the number of pairs the change won (lower
is better for every metric), and per op the median over seeds of its
slowest repeat (op_s in the stamped result file).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, "skewbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    stamped = f"skewbench/out/result-{workload}-seed{seed}-trace0.json"
    op_s = json.loads((Path(tree) / stamped).read_text())["op_s"]
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "op_max_s": {op: max(times) for op, times in op_s.items()},
    }


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(records):
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = {side: {} for side in ("parent", "change")}
        for r in records:
            if r["workload"] == workload:
                runs[r["side"]][r["seed"]] = r
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        if len(seeds) < 2:
            continue
        entry = {"pairs": len(seeds), "seeds": seeds}
        for m in METRICS:
            par = [runs["parent"][s]["metrics"][m] for s in seeds]
            chg = [runs["change"][s]["metrics"][m] for s in seeds]
            entry[m] = {
                "parent": quartiles(par),
                "change": quartiles(chg),
                "change_wins": sum(c < p for p, c in zip(par, chg)),
                "ties": sum(c == p for p, c in zip(par, chg)),
            }
        ops = runs["parent"][seeds[0]]["op_max_s"]
        entry["op_max_s_median"] = {
            op: {
                side: statistics.median(runs[side][s]["op_max_s"][op] for s in seeds)
                for side in ("parent", "change")
            }
            for op in ops
        }
        entry["all_correct"] = all(
            runs[side][s]["correct"] and not runs[side][s]["failed"]
            for side in runs for s in seeds
        )
        out[workload] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--log", required=True)
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    log = Path(args.log)
    records = []
    if log.exists():
        records = [json.loads(line) for line in log.read_text().splitlines()]
    done = {(r["workload"], r["seed"], r["side"]) for r in records}
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src",
                        "skewbench"], cwd=tree, check=True)
    for workload in args.workloads.split(","):
        for n, seed in enumerate(range(first, last + 1)):
            order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            for side in order:
                if (workload, seed, side) in done:
                    continue
                rec = run_once(trees[side], workload, seed, args.seconds)
                rec.update(workload=workload, seed=seed, side=side, first=order[0])
                records.append(rec)
                with log.open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(workload, seed, side, rec["metrics"], file=sys.stderr, flush=True)
    json.dump(summarize(records), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
