"""Worker process of the library workloads (oracle, pmf, corners).

Started by run.py, one at a time, with BLAS pinned to one thread:

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --seconds S --trace 0|1 --spans FILE
                                < plan.json

Set-up is the interpreter start, the imports and the first-call lazy
initialisation (the warm-up below, at the fixed display point).  It ends
with a {"ready": setup_s} line, measured from the spawn time that run.py
passes in PERFBENCH_SPAWN (time.monotonic(), which is system-wide on Linux).

Then it makes passes over the plan's ops: at least MIN_PASSES, then more
while one more is expected to end within S seconds (passes.py).  Each op
is one check group; a failed check or an exception fails the op, is
recorded, and the pass goes on.  Every op, with the speed probes taken
around it (speed.py), and every pass is reported as one JSON line on
stdout.  With --trace 1, untraced and traced passes alternate (at least
MIN_PASSES of each), and the spans of the traced passes are written to
FILE at the end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager

T_SPAWN = float(os.environ.get("PERFBENCH_SPAWN", time.monotonic()))

import numpy as np  # noqa: E402

from sixvertexlab import asymptotics as asy  # noqa: E402
from sixvertexlab import boundary as bnd  # noqa: E402
from sixvertexlab import gue, measure, paths, symfunc  # noqa: E402
from sixvertexlab.core import ModelParams  # noqa: E402

import speed  # noqa: E402
from passes import MIN_PASSES, another_pass  # noqa: E402

DISPLAY = ModelParams(q=0.5, u=2.0, v=0.25)
PMF_TOL = 1e-6


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Tracer:
    """In-memory spans {name, layer, kind, start, end, op_id, run_id, pass}
    plus the counts recorded at the same boundary.  A span wraps one batch
    of calls from the benchmark into one module, and its time is charged to
    that module even where the module calls into others."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.op_id = ""
        self.pass_no = 0
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, layer: str, kind: str = ""):
        rec = {"name": name, "layer": layer, "kind": kind, "op_id": self.op_id,
               "run_id": self.run_id, "pass": self.pass_no}
        if not self.enabled:
            yield rec
            return
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.spans.append(rec)


def warm_up() -> None:
    """First calls into every layer at the display point, so that lazy
    initialisation (numpy linalg, the first contour quadrature) is paid
    before timing starts."""
    p = DISPLAY
    symfunc.F_eval((2, 1), (), (p.u, p.u), p)
    paths.enumerate_F_collections((), (2, 1), 2)
    bnd.f_contour((2,), p.v, 2, p)
    bnd.f_direct((2,), p.v, 2, p)
    pmf = measure.top_row_pmf(1, 20, p)
    asy.B_M_contour((0.0,), 100, p)
    rng = np.random.default_rng(0)
    levels = gue.corners_batch(2, 16, rng)
    gue.ks_two_sample(levels[1][:, 0], pmf.sample(rng, 16))
    speed.probe()


# ---------------------------------------------------------------------------
# ops: each workload's function returns a list of (op_id, callable); one op
# is one check group, sized so that no op is only a few milliseconds long


def strict_signatures(k: int, max_part: int):
    return list(itertools.combinations(range(max_part, -1, -1), k))


def rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


F_ROUTE_PARTS = 5
COUNT_SLICE = {3: 7, 4: 5}      # k -> largest part of the counting slice
F_PAIRS = [((2,), 2), ((5,), 10), ((7,), 20), ((3, 1), 4), ((6, 2), 10),
           ((8, 5), 20)]
DIRECT_PMFS = [(1, 20), (2, 2), (2, 3)]


def oracle_ops(tr: Tracer, plan: dict) -> list:
    ops = []
    for i, pt in enumerate(plan["points"]):
        p = ModelParams(**pt)
        us = (p.u, 1.11 * p.u, 1.23 * p.u)

        def f_routes(p=p, us=us):
            """F by transfer DP, by enumeration and by symmetrization."""
            lams = [lam for k in (1, 2, 3)
                    for lam in strict_signatures(k, F_ROUTE_PARTS)]
            with tr.span("F_eval", "symfunc") as s:
                dps = [symfunc.F_eval(lam, (), us[:len(lam)], p)
                       for lam in lams]
                s["calls"] = len(lams)
            with tr.span("enumerate_F_collections+collection_weight",
                         "paths") as s:
                cols = [paths.enumerate_F_collections((), lam, len(lam))
                        for lam in lams]
                ens = [sum(paths.collection_weight(c, us[:len(lam)], p)
                           for c in cs) for lam, cs in zip(lams, cols)]
                s["collections"] = sum(len(cs) for cs in cols)
            with tr.span("F_symmetrization", "symfunc") as s:
                syms = [symfunc.F_symmetrization(lam, us[:len(lam)], p)
                        for lam in lams]
                s["calls"] = len(lams)
            worst = max(max(rel(dp, en), rel(dp, sy))
                        for dp, en, sy in zip(dps, ens, syms))
            check(worst < 1e-10, f"F route disagreement {worst:.3e}")

        def cauchy(p=p):
            with tr.span("verify_cauchy", "symfunc") as s:
                rep = symfunc.verify_cauchy(2, 1, (p.u, 1.1 * p.u), (p.v,), p,
                                            tol=1e-10)
                s["calls"] = 1
                s["cauchy_L"] = rep["truncation_L"]
            check(rep["rel_error"] < 1e-8,
                  f"Cauchy error {rep['rel_error']:.3e}")
            check(math.isfinite(rep["tail_bound"])
                  and rep["tail_bound"] < 1e-8 * abs(rep["rhs"]),
                  f"Cauchy tail not certified: {rep['tail_bound']!r}")

        def f_routes_bnd(p=p):
            with tr.span("f_contour", "boundary", "contour") as s:
                fc = [bnd.f_contour(lam, p.v, M, p, tol=1e-10)
                      for lam, M in F_PAIRS]
                s["calls"] = len(F_PAIRS)
            with tr.span("f_direct", "boundary", "direct") as s:
                fd = [bnd.f_direct(lam, p.v, M, p) for lam, M in F_PAIRS]
                s["calls"] = len(F_PAIRS)
            worst = max(rel(a, b) for a, b in zip(fc, fd))
            check(worst < 1e-7, f"f routes differ by {worst:.3e}")

        def pmf_direct(k, M, p=p):
            with tr.span("top_row_pmf(direct)", "measure", "pmf_direct"):
                pmf = measure.top_row_pmf(k, M, p, tol=PMF_TOL, route="direct")
            mass = pmf.total_mass
            check(abs(mass - 1.0) <= PMF_TOL, f"pmf mass {mass!r}")

        ops += [(f"p{i}.F-routes", f_routes), (f"p{i}.cauchy(2,1)", cauchy),
                (f"p{i}.f-routes", f_routes_bnd)]
        for k, M in DIRECT_PMFS:
            ops.append((f"p{i}.pmf-direct({k},{M})",
                        lambda k=k, M=M, f=pmf_direct: f(k, M)))

    def counting(k):
        lams = strict_signatures(k, COUNT_SLICE[k])
        with tr.span("enumerate_F_collections+count_collections_formula",
                     "paths") as s:
            counts = [len(paths.enumerate_F_collections((), lam, k))
                      for lam in lams]
            formula = [paths.count_collections_formula(lam) for lam in lams]
            s["collections"] = sum(counts)
        bad = [lam for lam, a, b in zip(lams, counts, formula) if a != b]
        check(not bad, f"counting formula fails at {bad[:3]}")

    for k in COUNT_SLICE:
        ops.append((f"count(k={k})", lambda k=k: counting(k)))
    return ops


CONTOUR_PMFS = [(1, 400), (2, 100), (2, 400)]
K3_PMF_M = 20           # the k = 3 law is built at inputs' k3_point
BM_GRID = (100, 400, 1600)
AM_GRID = (100, 400)
# B_M tends to its limit at rate M^(-1/2); 4/sqrt(M) is twice the largest
# relative error seen over 120 band points (k = 2, M = 100: 0.17)
BM_RATE = 4.0
BM_X = {1: (0.0,), 2: (-1.0, 1.0)}


def build_pmf(tr: Tracer, k: int, M: int, p: ModelParams):
    with tr.span("top_row_pmf", "measure", "pmf") as s:
        pmf = measure.top_row_pmf(k, M, p, tol=PMF_TOL)
        s["calls"] = 1
        s["atoms"] = len(pmf.atoms)
        s["window"] = pmf.window[1] - pmf.window[0] + 1
    mass = pmf.total_mass
    check(abs(mass - 1.0) <= PMF_TOL, f"pmf mass {mass!r}")
    return pmf


def pmf_ops(tr: Tracer, plan: dict) -> list:
    ops = []
    for i, pt in enumerate(plan["points"]):
        p = ModelParams(**pt)
        built: dict = {}

        def pmf(k, M, p=p, built=built):
            built[k, M] = build_pmf(tr, k, M, p)

        def bm(k, p=p):
            with tr.span("B_M_contour", "asymptotics", "bm") as s:
                vals = [asy.B_M_contour(BM_X[k], M, p) for M in BM_GRID]
                s["calls"] = len(BM_GRID)
            lim = asy.bm_limit(BM_X[k], k, p)
            for M, val in zip(BM_GRID, vals):
                check(math.isfinite(val)
                      and abs(val - lim) < BM_RATE / math.sqrt(M) * abs(lim),
                      f"B_M({M}) = {val!r} too far from its limit {lim!r}")

        def am(p=p):
            a = asy.constants(p).a
            with tr.span("A_M", "asymptotics", "am") as s:
                vals = [asy.A_M(asy.scaled_parts(BM_X[2], M, a, 1.0), M, p)
                        for M in AM_GRID]
                s["calls"] = len(AM_GRID)
            check(all(math.isfinite(x) for x in vals), f"A_M not finite {vals}")

        def ab(p=p, built=built):
            """A_M * B_M against the pmf at each law's modal atom."""
            laws = [(M, built[k, M]) for k, M in CONTOUR_PMFS]
            modes = [law.atoms[int(np.argmax(law.probs))] for _, law in laws]
            with tr.span("A_M", "asymptotics", "am") as s:
                a_vals = [asy.A_M(mode, M, p)
                          for mode, (M, _) in zip(modes, laws)]
                s["calls"] = len(laws)
            with tr.span("B_M", "asymptotics", "bm") as s:
                b_vals = [asy.B_M(mode, M, p)
                          for mode, (M, _) in zip(modes, laws)]
                s["calls"] = len(laws)
            for mode, (_, law), a_val, b_val in zip(modes, laws, a_vals,
                                                    b_vals):
                err = rel(a_val * b_val, law.prob(mode))
                check(err < 1e-8, f"A_M*B_M vs pmf at {mode}: {err:.3e}")

        for k, M in CONTOUR_PMFS:
            ops.append((f"p{i}.pmf({k},{M})",
                        lambda k=k, M=M, f=pmf: f(k, M)))
        ops += [(f"p{i}.B_M(k=1)", lambda f=bm: f(1)),
                (f"p{i}.B_M(k=2)", lambda f=bm: f(2)),
                (f"p{i}.A_M(k=2)", am), (f"p{i}.A_M*B_M=pmf", ab)]
    p3 = ModelParams(**plan["k3_point"])
    ops.append((f"pmf(3,{K3_PMF_M})", lambda: build_pmf(tr, 3, K3_PMF_M, p3)))
    return ops


K2_LAW_M = 100
K3_LAW_M = 10           # the k = 3 law is built at inputs' k3_point
N_K2 = 100_000          # top rows and middle entries drawn from the k = 2 law
N_TOP_ROW = 2000        # sample_top_row draws (Signature objects)
N_PER_SAMPLE = 300      # per-sample conditional_lower_rows draws
N_K3 = 300              # k = 3 tops whose lower rows are drawn by Gibbs
N_GUE_K3 = 20_000       # 3 x 3 GUE corners samples they are compared with


def interlace_violations(lower: np.ndarray, upper: np.ndarray) -> int:
    """Rows in ascending order: upper[i] <= lower[i] <= upper[i + 1]."""
    bad = np.zeros(len(lower), dtype=bool)
    for i in range(lower.shape[1]):
        bad |= (lower[:, i] < upper[:, i]) | (lower[:, i] > upper[:, i + 1])
    return int(bad.sum())


def gibbs_k3(tr: Tracer, p: ModelParams, st: dict) -> None:
    """Lower rows for N_K3 tops of the k = 3 law, one enumeration of
    GT_lambda per distinct top."""
    pmf3, rng = st["pmf3"], st["rng"]
    with tr.span("TopRowPMF.sample", "measure", "sample") as s:
        tops = np.asarray(pmf3.atoms, dtype=np.int64)[pmf3.sample(rng, N_K3)]
        s["samples"] = N_K3
    groups: dict = {}
    for j, top in enumerate(map(tuple, tops.tolist())):
        groups.setdefault(top, []).append(j)
    rows = [None] * N_K3
    with tr.span("conditional_lower_rows_batch", "measure", "gibbs") as s:
        for top in sorted(groups):
            idxs = groups[top]
            pats = measure.conditional_lower_rows_batch(top, p, len(idxs),
                                                        rng=rng)
            for j, pat in zip(idxs, pats):
                rows[j] = pat.rows
        s["tops"] = len(groups)
        s["draws"] = N_K3
    model = [np.array([r[j] for r in rows]) for j in range(3)]
    bad = (interlace_violations(model[0], model[1])
           + interlace_violations(model[1], model[2]))
    check(bad == 0, f"{bad} k = 3 interlacing violations")
    check(np.array_equal(model[2], tops[:, ::-1]), "k = 3 top row changed")
    st["model"] = model


def gue_compare(tr: Tracer, p: ModelParams, st: dict, k: int, n: int,
                M: int) -> None:
    """GUE corners (interlacing checked) and the KS distance of every
    rescaled model coordinate (st["model"], ascending rows) to its GUE
    counterpart."""
    with tr.span("corners_batch", "gue", "corners") as s:
        levels = gue.corners_batch(k, n, st["rng"])
        s["matrices"] = n
    bad = sum(interlace_violations(lo, up) for lo, up in zip(levels, levels[1:]))
    check(bad == 0, f"{bad} GUE corners interlacing violations")
    # rescale_parts takes descending parts
    ys = [gue.rescale_parts(row[:, ::-1], M, p) for row in st["model"]]
    with tr.span("ks_two_sample", "gue", "ks") as s:
        dist = [gue.ks_two_sample(y[:, c], lv[:, c])
                for y, lv in zip(ys, levels) for c in range(y.shape[1])]
        s["calls"] = len(dist)
    check(all(0.0 < x < 1.0 for x in dist), f"KS out of range {dist}")


def corners_ops(tr: Tracer, plan: dict) -> list:
    ops = []
    for i, (pt, seed) in enumerate(zip(plan["points"], plan["rng_seeds"])):
        p = ModelParams(**pt)
        st: dict = {}

        def law2(p=p, st=st, seed=seed):
            st["pmf2"] = build_pmf(tr, 2, K2_LAW_M, p)
            st["rng"] = np.random.default_rng(seed)

        def sample(p=p, st=st, seed=seed):
            pmf, rng = st["pmf2"], st["rng"]
            with tr.span("TopRowPMF.sample+sample_conditional_k2", "measure",
                         "sample") as s:
                tops = np.asarray(pmf.atoms, dtype=np.int64)[
                    pmf.sample(rng, N_K2)]
                mid = measure.sample_conditional_k2(tops, p, rng)
                s["samples"] = 2 * N_K2
            with tr.span("sample_top_row", "measure", "sample") as s:
                sigs = measure.sample_top_row(pmf, seed, N_TOP_ROW)
                s["samples"] = N_TOP_ROW
            st["model"] = [mid[:, None], tops[:, ::-1]]
            st["sigs"] = sigs
            bad = int(np.sum((mid > tops[:, 0]) | (mid < tops[:, 1])))
            check(bad == 0, f"{bad} k = 2 interlacing violations")
            support = set(pmf.atoms)
            check(all(sig.parts in support for sig in sigs),
                  "sample_top_row left the support")

        def per_sample(p=p, st=st):
            sigs, rng = st["sigs"][:N_PER_SAMPLE], st["rng"]
            with tr.span("conditional_lower_rows", "measure", "gibbs") as s:
                pats = [measure.conditional_lower_rows(sig, p, rng=rng)
                        for sig in sigs]
                s["tops"] = s["draws"] = len(sigs)
            bad = sum(pat.top != tuple(sorted(sig.parts))
                      for pat, sig in zip(pats, sigs))
            check(bad == 0, f"{bad} per-sample patterns lost their top row")

        ops += [(f"p{i}.pmf(2,{K2_LAW_M})", law2),
                (f"p{i}.sample(k=2)", sample),
                (f"p{i}.gibbs-per-sample(k=2)", per_sample),
                (f"p{i}.gue+ks(k=2)",
                 lambda p=p, st=st: gue_compare(tr, p, st, 2, N_K2, K2_LAW_M))]

    p3 = ModelParams(**plan["k3_point"])
    st3: dict = {}

    def law3():
        st3["pmf3"] = build_pmf(tr, 3, K3_LAW_M, p3)
        st3["rng"] = np.random.default_rng(plan["k3_seed"])

    ops += [(f"pmf(3,{K3_LAW_M})", law3),
            ("gibbs-batch(k=3)", lambda: gibbs_k3(tr, p3, st3)),
            ("gue+ks(k=3)",
             lambda: gue_compare(tr, p3, st3, 3, N_GUE_K3, K3_LAW_M))]
    return ops


OPS = {"oracle": oracle_ops, "pmf": pmf_ops, "corners": corners_ops}


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_pass(tr: Tracer, ops: list, pass_no: int, traced: bool) -> None:
    tr.enabled = traced
    tr.pass_no = pass_no
    t_pass = time.perf_counter()
    for op_id, fn in ops:
        tr.op_id = op_id
        cal = speed.probe()
        t0 = time.perf_counter()
        error = None
        try:
            fn()
        except Exception as exc:  # a failed op is recorded; the pass goes on
            error = f"{type(exc).__name__}: {exc}"[:300]
        dur = time.perf_counter() - t0
        emit({"op": op_id, "pass": pass_no, "traced": traced, "dur": dur,
              "cal": (cal + speed.probe()) / 2, "ok": error is None,
              "error": error})
    emit({"pass_done": pass_no, "traced": traced,
          "wall": time.perf_counter() - t_pass})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    warm_up()
    emit({"ready": time.monotonic() - T_SPAWN})
    if args.setup_only:
        return 0
    plan = json.load(sys.stdin)
    tr = Tracer(run_id=f"{plan['workload']}-{plan['seed']}-{os.getpid()}")
    ops = OPS[plan["workload"]](tr, plan)
    emit({"ops": len(ops)})
    start = time.perf_counter()
    minimum = 2 * MIN_PASSES if args.trace else MIN_PASSES
    pass_no = 0
    while another_pass(pass_no, time.perf_counter() - start, args.seconds,
                       minimum):
        run_pass(tr, ops, pass_no, bool(args.trace) and pass_no % 2 == 1)
        pass_no += 1
    if args.spans:
        with open(args.spans, "w") as fh:
            for rec in tr.spans:
                fh.write(json.dumps(rec) + "\n")
    emit({"done": pass_no})
    return 0


if __name__ == "__main__":
    sys.exit(main())
