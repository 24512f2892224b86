"""Benchmark of sixvertexlab: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload oracle|pmf|corners|cli --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.

Library workloads (oracle, pmf, corners) run in a fresh worker process per
run (perfbench/worker.py), single-threaded, with BLAS pinned to one thread.
The cli workload runs four subcommands at their defaults with
--seed N --threads $(nproc), each one in a fresh process.  A run makes at
least MIN_PASSES passes over the seed's inputs (CLI_MIN_PASSES for cli),
then more while one more is expected to end within S seconds (passes.py).
One op is one check group, such as one pmf at (k, M, point) or one
subcommand; an op's time is its median over the passes, scaled to the
nominal machine speed (speed.py).  A failed check, an exception, a
non-zero exit or the run-time ceiling counts the op as failed, and the
pass goes on.  The cli CSVs must be byte-identical across the passes of a
run and across runs of the same source code at the same seed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  In a traced library run untraced and traced passes alternate;
every cli pass is traced, because its spans only wrap each subprocess from
outside and cost it nothing.  The last line of stdout is one JSON object
{correct, attempted, failed, metrics}; the lines before it give each metric
with its unit and sample count, and the run's record (source digest, seed,
nproc, BLAS threads, versions).  Spans and results are written under
.perfbench/ in the checkout.

Exit 2, with no result, when the program cannot be imported and set up.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import inputs
from passes import another_pass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

WORKLOADS = ("oracle", "pmf", "corners", "cli")
# identities (about 10 s) and gue-compare (about 9 s) are left out: with
# them one pass takes 25 s, too long for the several passes per run that a
# steady median needs.  bm-converge still covers parallel_map.
CLI_SUBCOMMANDS = ("boundary", "constants", "bm-converge", "sample")
# bm-converge runs on both cores, where the single-threaded speed probe
# tracks it less well: its scaled time swings by up to 1.5x between passes.
# Over ten seeds, the IQR/median of cli's op_tail_s was 0.23 with three
# passes per run and 0.07 with six.
CLI_MIN_PASSES = 6
RUN_CEILING_S = 150.0     # a hang becomes counted failures, not a stall
SETUP_SAMPLES = 6         # extra set-up-only workers per untraced run
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "symfunc.time_s": "s", "symfunc.calls": "count",
    "symfunc.cauchy_L": "count",
    "paths.time_s": "s", "paths.collections": "count",
    "paths.collections_per_s": "1/s",
    "boundary.direct_time_s": "s", "boundary.contour_time_s": "s",
    "boundary.calls": "count",
    "measure.pmf_direct_time_s": "s",
    "measure.pmf_time_s": "s", "measure.pmf_calls": "count",
    "measure.pmf_atoms": "count", "measure.pmf_window": "count",
    "measure.atoms_per_s": "1/s",
    "asymptotics.bm_time_s": "s", "asymptotics.am_time_s": "s",
    "asymptotics.calls": "count",
    "measure.sample_time_s": "s", "measure.samples": "count",
    "measure.gibbs_time_s": "s", "measure.gibbs_tops": "count",
    "measure.gibbs_draws_per_top": "count",
    "gue.corners_time_s": "s", "gue.ks_time_s": "s", "gue.matrices": "count",
    **{f"cli.{sub}.wall_s": "s" for sub in CLI_SUBCOMMANDS},
    "cli.startup_s": "s", "cli.output_bytes": "B",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


# pinned here too, before speed imports numpy, so that the speed probe runs
# single-threaded in this process as in the workers
os.environ.update(BLAS_ENV)
import speed  # noqa: E402


class SetupFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)          # BLAS_ENV is already in os.environ
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    return env


def median(values):
    """Median, or 0 for a run cut short before any sample was taken."""
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten values beyond it, and its
    label.  With fewer than twenty values that percentile would not lie
    above the median, so the maximum is reported instead."""
    s = sorted(values)
    n = len(s)
    if n >= 20:
        return s[n - 11], f"p{math.floor(100 * (n - 10) / n)} (10 of {n} beyond)"
    return s[-1], f"max of {n} (too few for 10 beyond a percentile above p50)"


# ---------------------------------------------------------------------------
# library workloads


def run_setup_only(deadline: float) -> tuple[float, float]:
    """(set-up time, speed probe taken just before the spawn)."""
    cal = speed.probe()
    proc = subprocess.run([sys.executable, WORKER, "--setup-only"],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if "ready" in rec:
            return rec["ready"], cal
    raise SetupFailed(proc.stderr.strip()[-2000:] or "worker gave no ready line")


def run_library(workload: str, seed: int, seconds: float, trace: bool,
                deadline: float) -> dict:
    plan = inputs.plan(workload, seed)
    setups = []
    if not trace:
        setups = [run_setup_only(deadline) for _ in range(SETUP_SAMPLES)]
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans_path = os.path.join(OUT, "spans", f"{workload}-seed{seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    cmd = [sys.executable, WORKER, "--seconds", repr(seconds),
           "--trace", str(int(trace)), "--spans", spans_path]
    cal = speed.probe()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(json.dumps(plan),
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    ready = [r["ready"] for r in records if "ready" in r]
    if not ready:
        raise SetupFailed(err.strip()[-2000:] or "worker gave no ready line")
    setups.append((ready[0], cal))
    n_ops = next((r["ops"] for r in records if "ops" in r), 0)
    ops = [r for r in records if "op" in r]
    passes = [r for r in records if "pass_done" in r]
    finished = any("done" in r for r in records)
    # ops of a pass cut short by the ceiling or a crash count as failed
    lost = 0 if finished else max(n_ops * (len(passes) + 1) - len(ops), 1)
    spans = []
    if finished and trace:
        with open(spans_path) as fh:
            spans = [json.loads(line) for line in fh]
    return {"plan": plan, "ops": ops, "passes": passes, "setups": setups,
            "lost": lost, "spans": spans,
            "stderr": "" if finished else err.strip()[-2000:]}


# ---------------------------------------------------------------------------
# cli workload


def dir_files(path: str) -> list[str]:
    found = []
    for base, _dirs, files in os.walk(path):
        found += [os.path.join(base, f) for f in files]
    return sorted(found)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_op(sub: str, seed: int, nproc: int, out_root: str, digests: dict,
           code: str, deadline: float) -> dict:
    """One subcommand in a fresh process, with its checks.  Its CSVs must
    match the digests of earlier passes and runs of the same source code
    `code` at this seed."""
    out_dir = os.path.join(out_root, sub)
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "sixvertexlab.cli", sub, "--seed", str(seed),
           "--threads", str(nproc), "--out", out_root]
    cal = speed.probe()
    t0 = time.perf_counter()
    error = None
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"op": sub, "dur": time.perf_counter() - t0, "ok": False,
                "error": "run-time ceiling hit", "startup": None, "bytes": 0,
                "proc": (t0, time.perf_counter()), "cal": cal}
    t1 = time.perf_counter()
    wall = t1 - t0
    files = dir_files(out_dir)
    n_bytes = sum(os.path.getsize(f) for f in files)
    startup = None
    try:
        with open(os.path.join(out_dir, "sidecar.json")) as fh:
            sidecar = json.load(fh)
        startup = wall - sidecar["wall_clock_s"]
        status = json.loads(proc.stdout.strip().splitlines()[-1])["status"]
        failed_rows = []
        for f in files:
            if f.endswith("_checks.csv"):
                with open(f, newline="") as fh:
                    failed_rows += [row["check"] for row in csv.DictReader(fh)
                                    if row["passed"] != "True"]
        if proc.returncode != 0 or status != "ok":
            error = f"exit {proc.returncode}: {proc.stdout.strip()[-300:]}"
        elif failed_rows:
            error = f"failed check rows: {failed_rows[:3]}"
        for f in files:
            if f.endswith(".csv"):
                key = f"{code}/{seed}/{sub}/{os.path.basename(f)}"
                digest = sha256(f)
                if digests.setdefault(key, digest) != digest:
                    error = (f"{key} differs from an earlier run of this "
                             f"code at this seed")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        error = f"{type(exc).__name__}: {exc}; stderr: {proc.stderr[-300:]}"
    dur = time.perf_counter() - t0
    return {"op": sub, "dur": dur, "ok": error is None, "error": error,
            "startup": startup, "bytes": n_bytes, "proc": (t0, t1),
            "cal": (cal + speed.probe()) / 2}


def run_cli(seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    nproc = os.cpu_count() or 1
    out_root = os.path.join(OUT, "cli", f"seed{seed}")
    digest_path = os.path.join(OUT, "cli_digests.json")
    digests = {}
    if os.path.exists(digest_path):
        with open(digest_path) as fh:
            digests = json.load(fh)
    code = source_digest()
    ops, passes, spans, lost = [], [], [], 0
    start = time.monotonic()
    pass_no = 0
    while not lost and another_pass(pass_no, time.monotonic() - start,
                                    seconds, CLI_MIN_PASSES):
        t_pass = time.monotonic()
        for i, sub in enumerate(CLI_SUBCOMMANDS):
            if time.monotonic() >= deadline:
                lost += len(CLI_SUBCOMMANDS) - i
                break
            rec = cli_op(sub, seed, nproc, out_root, digests, code, deadline)
            rec.update({"pass": pass_no, "traced": trace})
            ops.append(rec)
            if trace:
                t0, t1 = rec["proc"]
                spans.append({"name": f"sixvertexlab {sub}", "layer": "cli",
                              "kind": sub, "start": t0, "end": t1,
                              "op_id": sub, "run_id": f"cli-{seed}",
                              "pass": pass_no, "startup": rec["startup"] or 0.0,
                              "bytes": rec["bytes"]})
        else:
            passes.append({"pass_done": pass_no, "traced": trace,
                           "wall": time.monotonic() - t_pass})
        pass_no += 1
    os.makedirs(OUT, exist_ok=True)
    with open(digest_path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    setups = [(r["startup"], r["cal"]) for r in ops
              if r["startup"] is not None]
    return {"plan": {"workload": "cli", "seed": seed, "threads": nproc,
                     "subcommands": list(CLI_SUBCOMMANDS)},
            "ops": ops, "passes": passes, "setups": setups, "lost": lost,
            "spans": spans, "stderr": ""}


# ---------------------------------------------------------------------------
# metrics


def speed_scale(cals: list) -> float:
    """The factor that turns times taken alongside these probes into
    seconds at the nominal probe speed (see speed.py)."""
    return speed.NOMINAL_S / median(cals) if cals else 1.0


def pass_scales(ops: list) -> dict:
    cals: dict = {}
    for r in ops:
        cals.setdefault(r["pass"], []).append(r["cal"])
    return {n: speed_scale(c) for n, c in cals.items()}


def op_medians(ops: list, traced: bool) -> dict:
    """Each op's speed-scaled time, median over the (un)traced passes."""
    scale = pass_scales(ops)
    per_op: dict = {}
    for r in ops:
        if r["traced"] == traced:
            per_op.setdefault(r["op"], []).append(r["dur"] * scale[r["pass"]])
    return {k: median(v) for k, v in per_op.items()}


def end_to_end(res: dict) -> tuple[dict, list[str]]:
    n_passes = sum(not p["traced"] for p in res["passes"])
    per_op = list(op_medians(res["ops"], False).values())
    tail_value, tail_label = tail(per_op) if per_op else (0.0, "no ops")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setups = [t for t, _ in res["setups"]]
    values = {"wall_s": sum(per_op), "op_p50_s": median(per_op),
              "op_tail_s": tail_value,
              "setup_s": median(setups)
              * speed_scale([c for _, c in res["setups"]]),
              "peak_rss_mb": rss_mb}
    notes = {"wall_s": f"one pass: the sum over {len(per_op)} ops of each "
                       f"op's median across {n_passes} passes",
             "op_p50_s": f"median over {len(per_op)} ops of each op's "
                         f"median across passes",
             "op_tail_s": tail_label,
             "setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": "max ru_maxrss over the run's child processes"}
    lines = [f"{k} {values[k]:.6g} {END_TO_END[k]} ({notes[k]})"
             for k in END_TO_END]
    raw = sum(median([r["dur"] for r in res["ops"] if r["op"] == op])
              for op in {r["op"] for r in res["ops"] if not r["traced"]})
    lines.append(f"times above are speed-scaled; the median speed probe took "
                 f"{1e3 * median([r['cal'] for r in res['ops']]):.3g} ms "
                 f"(nominal {1e3 * speed.NOMINAL_S:.3g} ms); unscaled wall_s "
                 f"{raw:.6g} s")
    return values, lines


# (layer, span count) -> per-layer metric; span times go to time_metric()
COUNT_METRICS = {
    ("symfunc", "calls"): "symfunc.calls",
    ("symfunc", "cauchy_L"): "symfunc.cauchy_L",
    ("paths", "collections"): "paths.collections",
    ("boundary", "calls"): "boundary.calls",
    ("measure", "calls"): "measure.pmf_calls",
    ("measure", "atoms"): "measure.pmf_atoms",
    ("measure", "window"): "measure.pmf_window",
    ("measure", "samples"): "measure.samples",
    ("measure", "tops"): "measure.gibbs_tops",
    ("measure", "draws"): "measure.gibbs_draws",
    ("asymptotics", "calls"): "asymptotics.calls",
    ("gue", "matrices"): "gue.matrices",
    ("cli", "startup"): "cli.startup_s",
    ("cli", "bytes"): "cli.output_bytes",
}


def time_metric(layer: str, kind: str) -> str:
    if layer == "cli":
        return f"cli.{kind}.wall_s"
    return f"{layer}.{kind}_time_s" if kind else f"{layer}.time_s"


def per_layer(res: dict) -> tuple[dict, list[str]]:
    """Per-pass sums of the traced passes' spans, median over those passes.
    Each span is charged to the one layer it wraps."""
    traced = sorted(p["pass_done"] for p in res["passes"] if p["traced"])
    scale = pass_scales(res["ops"])
    sums = {n: {"_op_time": 0.0, "_span_time": 0.0} for n in traced}
    for r in res["ops"]:
        if r["pass"] in sums:
            sums[r["pass"]]["_op_time"] += r["dur"] * scale[r["pass"]]
    for sp in res["spans"]:
        acc = sums.get(sp["pass"])
        if acc is None:
            continue
        dur = (sp["end"] - sp["start"]) * scale[sp["pass"]]
        counts = [(metric, sp[attr] * (scale[sp["pass"]]
                                       if metric.endswith("_s") else 1))
                  for (layer, attr), metric in COUNT_METRICS.items()
                  if layer == sp["layer"] and attr in sp]
        for key, value in [(time_metric(sp["layer"], sp["kind"]), dur),
                           ("_span_time", dur)] + counts:
            acc[key] = acc.get(key, 0.0) + value
    keys = set().union(*sums.values()) if sums else set()
    # a run cut short before a traced pass ended has no sums: zeros then
    v = {k: median([sums[n].get(k, 0.0) for n in traced])
         for k in keys | set(PER_LAYER) | {"_op_time", "_span_time"}}

    def ratio(a, b):
        return v[a] / v[b] if v[b] > 0 else 0.0

    v["paths.collections_per_s"] = ratio("paths.collections", "paths.time_s")
    v["measure.atoms_per_s"] = ratio("measure.pmf_atoms", "measure.pmf_time_s")
    v["measure.gibbs_draws_per_top"] = ratio("measure.gibbs_draws",
                                             "measure.gibbs_tops")
    # over the ops timed both ways; 0 for cli, which has no untraced pass
    on, off = op_medians(res["ops"], True), op_medians(res["ops"], False)
    v["trace.overhead_s"] = sum((on[k] - off[k] for k in on if k in off),
                                0.0)
    v["trace.unattributed_s"] = v["_op_time"] - v["_span_time"]
    v = {k: v[k] for k in PER_LAYER}
    lines = [f"{k} {v[k]:.6g} {PER_LAYER[k]} (median of {len(traced)} "
             f"traced passes)" for k in PER_LAYER]
    return v, lines


def source_digest() -> str:
    h = hashlib.sha256()
    for path in dir_files(os.path.join(SRC, "sixvertexlab")):
        if path.endswith(".py"):
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git
    repository of its own (the source digest identifies the code then)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def record(args, res: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "blas_threads": BLAS_ENV,
            "python": platform.python_version(), "numpy": numpy_version,
            "plan": res["plan"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    deadline = time.monotonic() + RUN_CEILING_S
    try:
        if not os.path.isfile(os.path.join(SRC, "sixvertexlab", "__init__.py")):
            raise SetupFailed(f"no sixvertexlab package under {SRC}")
        if args.workload == "cli":
            res = run_cli(args.seed, args.seconds, trace, deadline)
        else:
            res = run_library(args.workload, args.seed, args.seconds, trace,
                              deadline)
    except (SetupFailed, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    attempted = len(res["ops"]) + res["lost"]
    failures = [r for r in res["ops"] if not r["ok"]]
    failed = len(failures) + res["lost"]
    if trace:
        metrics, lines = per_layer(res)
        units = PER_LAYER
    else:
        metrics, lines = end_to_end(res)
        units = END_TO_END
    meta = record(args, res)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(res['passes'])} attempted={attempted} failed={failed} "
          f"failed_frac={failed / max(attempted, 1):.6g}"
          + (f" (run cut short: {res['lost']} ops lost)" if res["lost"] else ""))
    for line in lines:
        print(line)
    for r in failures[:10]:
        print(f"FAILED {r['op']} (pass {r['pass']}): {r['error']}")
    if res["stderr"]:
        print(f"worker stderr: {res['stderr']}")
    print("record " + json.dumps({k: meta[k] for k in meta if k != "plan"},
                                 sort_keys=True))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**meta, "attempted": attempted, "failed": failed,
                   "metrics": metrics, "failures": failures,
                   "ops": res["ops"], "passes": res["passes"]}, fh, indent=1)
    if trace and res["spans"] and args.workload == "cli":
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", f"cli-seed{args.seed}.jsonl"),
                  "w") as fh:
            fh.writelines(json.dumps(sp) + "\n" for sp in res["spans"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
