"""One SHA-1 per top-row law (window, atoms, probs), per level of a few GUE
corners batches, per direct-route f and F table and per oracle value list,
so that two source trees can be diffed law by law and table by table:

    python3 tools/law_digests.py SRC_DIR > digests.txt

SRC_DIR is the directory that holds the `sixvertexlab` package (a
checkout's `src`).  The first lines are `gue.corners:(k,n) part sha1` for
`corners_batch(k, n, default_rng(1))` at perfbench's sizes (2, 100,000) and
(3, 20,000) and at (4, 1,000): part `level<r>` hashes level r as float64,
part `state` the repr of the generator's state after the call.  Then come
`boundary.f_direct_batch:(k,max_part,M) table sha1` and
`measure._F_transfer_window:(k,max_part) table sha1` at the display point
for (k, max_part, M) = (1, 60, 20), (2, 40, 10) and (3, 20, 3), each hash
over the shape as int64 values and the array as float64, so that a change
to the strict rows shows in the tables themselves and not only through the
laws' windows.  The oracle lines follow, each `label part sha1` over the
reprs of values at the display point, in order: `symfunc.F_eval` and
`symfunc.Gc_eval` over perfbench's F-routes signatures (strict, k <= 3
parts <= F_ROUTE_PARTS; u times (1, 1.11, 1.23) for F from the empty
signature, v times (1, 0.9, 0.8) for G^c from 0^k); the `_cauchy_sum`
reports (`lhs`, `truncation_L`, `tail_bound`, `caps`) of `verify_cauchy` at
(N, K) = (2, 1) as perfbench calls it and (2, 2) as the CLI does, and of
the CLI's skew case; `boundary.f_direct` at perfbench's F_PAIRS; and every
F-collection of the F-routes signatures, its cross-sections and
`collection_weight` in list order.  Each further line is `label window
sha1`, where the hash runs over the window as two int64 values, the atoms
as an int64 array and the probabilities as float64, in that order.  The
laws are:

* perfbench's laws at seed 1: the warm-up law, the oracle's direct laws,
  the pmf workload's contour laws and both k = 3 laws at the anchor point
  (`k3_point`), and the corners workload's laws; the law lists and points
  are read from perfbench/worker.py and perfbench/inputs.py of the
  checkout this script sits in;
* the laws of the CLI's `sample` and `gue-compare` at their defaults;
* the tests' k = 3 contour laws at the display point ((3, 3) to (3, 20)),
  with (3, 7), and (3, 3) at q = 0.7 (u = 1.3 and u = 2), each (3, 3) also
  on the direct route, against which the contour laws are checked;
* the display point's (3, 100);
* k = 1 laws whose first window starts above part 1, so that a change to
  the window policy shows law by law: (1, 1600) at the display point and
  at (q, u/s, uv) = (0.5, 1.5, 0.9) and (0.5, 4, 0.5).

Only the standard library and numpy are used.  Set one BLAS thread (e.g.
OPENBLAS_NUM_THREADS=1) for bits comparable across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def digest(pmf) -> str:
    h = hashlib.sha1(np.asarray(pmf.window, np.int64).tobytes())
    h.update(np.ascontiguousarray(np.asarray(pmf.atoms), np.int64).tobytes())
    h.update(np.ascontiguousarray(pmf.probs, np.float64).tobytes())
    return h.hexdigest()


def corners_digests():
    """(label, part, sha1) for every level and the final generator state of
    each corners batch on the list."""
    from sixvertexlab import gue
    for k, n in ((2, 100_000), (3, 20_000), (4, 1_000)):
        rng = np.random.default_rng(1)
        levels = gue.corners_batch(k, n, rng)
        parts = [(f"level{r}", np.ascontiguousarray(level, np.float64))
                 for r, level in enumerate(levels, start=1)]
        parts.append(("state", repr(rng.bit_generator.state).encode()))
        for part, data in parts:
            yield (f"gue.corners:({k},{n})", part,
                   hashlib.sha1(data).hexdigest())


def table_digests():
    """(label, part, sha1) for the f and F tables of the direct route."""
    from sixvertexlab import boundary, measure
    from sixvertexlab.core import ModelParams
    display = ModelParams(q=0.5, u=2.0, v=0.25)
    for k, max_part, M in ((1, 60, 20), (2, 40, 10), (3, 20, 3)):
        for label, table in (
                (f"boundary.f_direct_batch:({k},{max_part},{M})",
                 boundary.f_direct_batch(k, max_part, M, display)),
                (f"measure._F_transfer_window:({k},{max_part})",
                 measure._F_transfer_window(k, max_part, display))):
            h = hashlib.sha1(np.asarray(table.shape, np.int64).tobytes())
            h.update(np.ascontiguousarray(table, np.float64).tobytes())
            yield label, "table", h.hexdigest()


def oracle_digests():
    """(label, part, sha1) for the pure-Python oracles at the display point:
    the transfer's F and G^c, the Cauchy sums, f_direct and the path
    collections with their weights."""
    from sixvertexlab import boundary, paths, symfunc
    from sixvertexlab.core import ModelParams
    import worker
    p = ModelParams(q=0.5, u=2.0, v=0.25)
    us = (p.u, 1.11 * p.u, 1.23 * p.u)
    vs = (p.v, 0.9 * p.v, 0.8 * p.v)
    lams = [lam for k in (1, 2, 3)
            for lam in worker.strict_signatures(k, worker.F_ROUTE_PARTS)]

    def sha1(values) -> str:
        return hashlib.sha1(repr(list(values)).encode()).hexdigest()

    yield "symfunc.F_eval:F-routes", "values", sha1(
        symfunc.F_eval(lam, (), us[:len(lam)], p) for lam in lams)
    yield "symfunc.Gc_eval:F-routes", "values", sha1(
        symfunc.Gc_eval(lam, (0,) * len(lam), vs[:len(lam)], p)
        for lam in lams)
    for label, rep in (
            ("verify_cauchy:(2,1)", symfunc.verify_cauchy(
                2, 1, (p.u, 1.1 * p.u), (p.v,), p, tol=1e-10)),
            ("verify_cauchy:(2,2)", symfunc.verify_cauchy(
                2, 2, (p.u, 1.1 * p.u), (p.v, 0.85 * p.v), p, tol=1e-10)),
            ("verify_skew_cauchy:(3,1,0)/(2,)", symfunc.verify_skew_cauchy(
                (3, 1, 0), (2,), (p.u, 1.1 * p.u), (p.v,), p))):
        yield f"symfunc.{label}", "report", sha1(
            rep[key] for key in ("lhs", "truncation_L", "tail_bound", "caps"))
    yield "boundary.f_direct:F_PAIRS", "values", sha1(
        boundary.f_direct(lam, p.v, M, p) for lam, M in worker.F_PAIRS)
    yield "paths.collection_weight:F-routes", "collections", sha1(
        (c.sections, paths.collection_weight(c, us[:len(lam)], p))
        for lam in lams for c in paths.enumerate_F_collections((), lam,
                                                               len(lam)))


def laws(src: Path):
    """(label, thunk) for every law on the list."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    from sixvertexlab import cli, measure
    from sixvertexlab.core import ModelParams
    import inputs
    import worker

    def law(label, k, M, p, tol=1e-6, route="contour"):
        return (f"{label}:({k},{M}){'' if route == 'contour' else route}",
                lambda: measure.top_row_pmf(k, M, p, tol=tol, route=route))

    out = [law("perfbench.warm-up", 1, 20, worker.DISPLAY)]
    for name in ("oracle", "pmf", "corners"):
        plan = inputs.plan(name, 1)
        points = [ModelParams(**pt) for pt in plan["points"]]
        k3 = ModelParams(**plan["k3_point"])
        for i, p in enumerate(points):
            if name == "oracle":
                out += [law(f"oracle.p{i}", k, M, p, worker.PMF_TOL, "direct")
                        for k, M in worker.DIRECT_PMFS]
            elif name == "pmf":
                out += [law(f"pmf.p{i}", k, M, p, worker.PMF_TOL)
                        for k, M in worker.CONTOUR_PMFS]
            else:
                out.append(law(f"corners.p{i}", 2, worker.K2_LAW_M, p,
                               worker.PMF_TOL))
        if name == "pmf":
            out.append(law("pmf.k3", 3, worker.K3_PMF_M, k3, worker.PMF_TOL))
        elif name == "corners":
            out.append(law("corners.k3", 3, worker.K3_LAW_M, k3,
                           worker.PMF_TOL))
    for sub in ("sample", "gue-compare"):
        cfg = cli.ExperimentConfig(**cli.SUBCOMMANDS[sub][1])
        p = cfg.params()
        if sub == "sample":
            out.append(law("cli.sample", cfg.k, cfg.m_grid[0], p, cfg.pmf_tol))
        else:
            out += [law("cli.gue-compare", k, M, p, cfg.pmf_tol)
                    for k in (1, 2) for M in cfg.m_grid]
    display = ModelParams(q=0.5, u=2.0, v=0.25)
    high_q = [ModelParams(q=0.7, u=1.3, v=0.6), ModelParams(q=0.7, u=2.0,
                                                            v=0.25)]
    out += [law("k3.display", 3, M, display) for M in (3, 5, 7, 10, 12, 20)]
    out += [law("k3.display", 3, 3, display, route="direct")]
    for p in high_q:
        out += [law(f"k3.q0.7-u{p.u}", 3, 3, p, route=route)
                for route in ("contour", "direct")]
    out.append(law("display", 3, 100, display))
    s = 0.5 ** -0.5
    out += [law(label, 1, 1600, p) for label, p in [
        ("display", display),
        ("uv0.9", ModelParams(q=0.5, u=1.5 * s, v=0.9 / (1.5 * s))),
        ("u4s", ModelParams(q=0.5, u=4 * s, v=0.5 / (4 * s)))]]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "sixvertexlab").is_dir():
        print(__doc__.strip().splitlines()[4], file=sys.stderr)
        return 2
    todo = laws(Path(argv[0]).resolve())  # puts SRC_DIR on sys.path
    for line in itertools.chain(corners_digests(), table_digests(),
                                oracle_digests()):
        print(*line, flush=True)
    for label, build in todo:
        pmf = build()
        print(f"{label} {pmf.window[0]},{pmf.window[1]} {digest(pmf)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
