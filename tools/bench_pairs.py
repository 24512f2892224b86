"""Alternating parent/change perfbench pairs, written as one BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label L \
        --describe TEXT --runs corners:10 pmf:5 oracle:5 cli:5 \
        --first-seed 2001 --parent-commit SHA [--claim corners:wall_s]
        [--note TEXT] [--out DIR]

DIR is the root of a source checkout (a clean copy of its committed files).
Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once from each checkout, one run at a time, on the same seed, with T the
run_seconds of the change's BENCHMARK.json; which side runs first alternates
from pair to pair.  Seeds count up from --first-seed across the workloads in
the order given.  The last stdout line of each run is its
result.  Statistics are each side's median and quartiles (linear
interpolation, as numpy's percentile) and the number of pairs in which the
change reads lower; every end-to-end metric is better lower.  Each metric
gets a verdict against its bound in BENCHMARK.json, a share of the parent's
median: "better" when every change run reads lower than every parent run,
"unresolved" when either side's interquartile range exceeds the bound times
its median, "worse" when the change's median exceeds the parent's by more
than the bound, and "within bound" otherwise.  The worse and unresolved
metrics are also listed at the top of the file.  --claim names the one
metric whose gain is claimed; it is met over at least ten pairs when the
change reads lower in nine tenths of them and its median is lower by more
than the parent's interquartile range.

Each run's results file, .perfbench/results/<workload>-seed<S>-trace0.json
in its checkout, also gives its ops: an op's time in one run is its median
over the run's passes, each pass scaled by NOMINAL_S (read from the
checkout's perfbench/speed.py) over the median speed probe of that pass, as
perfbench/run.py scales them.  Each workload's "ops" block holds each
side's median of those times over its runs, per op, and the relative change.

Only the standard library is used, and nothing under perfbench/ is touched.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

SIDES = ("parent", "change")


def nominal_speed(root: str) -> float:
    """NOMINAL_S of the checkout's perfbench/speed.py, read without importing
    it (that would import numpy)."""
    with open(os.path.join(root, "perfbench", "speed.py")) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["NOMINAL_S"])


def op_times(root: str, workload: str, seed: int, nominal: float) -> dict:
    """Each op's speed-scaled time in the run's results file: its median over
    the untraced passes, each scaled by nominal over its pass's median
    probe."""
    path = os.path.join(root, ".perfbench", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        ops = json.load(fh)["ops"]
    cals: dict = {}
    for r in ops:
        cals.setdefault(r["pass"], []).append(r["cal"])
    scale = {n: nominal / statistics.median(c) for n, c in cals.items()}
    per_op: dict = {}
    for r in ops:
        if not r["traced"]:
            per_op.setdefault(r["op"], []).append(r["dur"] * scale[r["pass"]])
    return {op: statistics.median(v) for op, v in per_op.items()}


def op_block(times: dict) -> dict:
    """Per op, each side's median over its runs and the relative change;
    times maps a side to one {op: time} per run."""
    out = {}
    for op in dict.fromkeys(op for side in SIDES for run in times[side]
                            for op in run):
        med = {}
        for side in SIDES:
            vals = [run[op] for run in times[side] if op in run]
            med[side] = statistics.median(vals) if vals else None
        p_med, c_med = med["parent"], med["change"]
        out[op] = {**med, "median_change": (c_med - p_med) / p_med
                   if p_med and c_med is not None else None}
    return out


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from the checkout at root; its last stdout line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(vals: dict, bound: float) -> str:
    """The no-regression verdict on one metric's runs, lower being better."""
    (p1, p_med, p3), (c1, c_med, c3) = (quartiles(vals[s]) for s in SIDES)
    if max(vals["change"]) < min(vals["parent"]):
        return "better"
    if p3 - p1 > bound * p_med or c3 - c1 > bound * c_med:
        return "unresolved"
    return "worse" if c_med - p_med > bound * p_med else "within bound"


def summarize(seeds: list[int], first: list[str], runs: dict, times: dict,
              bounds: dict) -> dict:
    """One workload's block: runs maps a side to its results in pair order,
    times a side to its runs' op times, bounds an end-to-end metric to its
    bound."""
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        p_med = statistics.median(vals["parent"])
        c_med = statistics.median(vals["change"])
        metrics[name] = {
            **vals,
            "parent_quartiles": quartiles(vals["parent"]),
            "change_quartiles": quartiles(vals["change"]),
            "median_change": (c_med - p_med) / p_med if p_med else None,
            "change_lower_in": sum(c < p for p, c in
                                   zip(vals["parent"], vals["change"])),
        }
        if name in bounds:
            metrics[name].update(bound=bounds[name],
                                 verdict=verdict(vals, bounds[name]))
    return {"seeds": seeds, "pairs": len(seeds), "first_side": first,
            "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
            "attempted_ops": {s: sum(r["attempted"] for r in runs[s])
                              for s in SIDES},
            "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
            "metrics": metrics, "ops": op_block(times)}


def claim_block(workloads: dict, claim: str) -> dict:
    workload, metric = claim.split(":")
    m = workloads[workload]["metrics"][metric]
    q1, p_med, q3 = m["parent_quartiles"]
    c_med = m["change_quartiles"][1]
    pairs = workloads[workload]["pairs"]
    won = m["change_lower_in"]
    return {"workload": workload, "metric": metric, "parent_median": p_med,
            "change_median": c_med, "parent_iqr": q3 - q1,
            "median_change": m["median_change"],
            "pairs_won": f"{won} of {pairs}",
            "target": "at least 10 pairs, lower in nine tenths of them, "
                      "medians apart by more than the parent's IQR",
            "met": pairs >= 10 and won * 10 >= 9 * pairs
                   and p_med - c_med > q3 - q1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--describe", required=True,
                    help="one line on what the change does")
    ap.add_argument("--runs", nargs="+", required=True,
                    help="WORKLOAD:PAIRS, in the order to run them")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    ap.add_argument("--parent-commit", required=True,
                    help="the commit the parent checkout was copied from")
    ap.add_argument("--note", default=None, help="a line on the machine")
    ap.add_argument("--out", default=".")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    nominal = {side: nominal_speed(roots[side]) for side in SIDES}
    os.makedirs(args.out, exist_ok=True)   # before the runs, not after

    seed, workloads = args.first_seed, {}
    for spec in args.runs:
        workload, pairs = spec.split(":")
        seeds, first = [], []
        runs = {side: [] for side in SIDES}
        times = {side: [] for side in SIDES}
        for i in range(int(pairs)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                res = run_once(roots[side], workload, seed, seconds)
                runs[side].append(res)
                times[side].append(op_times(roots[side], workload, seed,
                                            nominal[side]))
                print(f"{workload} seed={seed} {side}: "
                      f"wall_s={res['metrics']['wall_s']['value']:.4f} "
                      f"failed={res['failed']}", flush=True)
            seeds.append(seed)
            first.append(order[0])
            seed += 1
        workloads[workload] = summarize(seeds, first, runs, times, bounds)

    spread = ", ".join(f"{w} ({b['seeds'][0]}-{b['seeds'][-1]})"
                       for w, b in workloads.items())
    out = {
        "label": args.label,
        "change": args.describe,
        "harness": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": "parent and change each from a clean copy of its "
                    "source, PYTHONDONTWRITEBYTECODE=1, one run at a time, "
                    "alternating which side runs first from seed to seed; "
                    f"pairs per workload and seeds: {spread}; statistics are "
                    "the median and quartiles (linear interpolation) over "
                    "each side's runs, read from the last stdout line of "
                    "each run (tools/bench_pairs.py)",
        "commits": {"parent": args.parent_commit,
                    "change": "the commit that adds this file"},
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "note": args.note},
        "claim": claim_block(workloads, args.claim) if args.claim else None,
        "flagged": {v: [f"{w}:{name}" for w, block in workloads.items()
                        for name, m in block["metrics"].items()
                        if m.get("verdict") == v]
                    for v in ("worse", "unresolved")},
        "workloads": workloads,
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for v, names in out["flagged"].items():
        print(f"{v}: {', '.join(names) or 'none'}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
