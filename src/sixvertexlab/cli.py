"""Command-line surface: reproducible verification runs with file outputs.

Subcommands
    identities    symmetric-function identity suites (route agreement, Cauchy,
                  branching, conjugation, geometric forms, counting)
    boundary      direct-sum vs contour evaluation of the boundary function
    constants     (a, b, c, d) values, critical-point and descent checks
    bm-converge   convergence tables for the normalized boundary factor and
                  the row factor along an M-grid (the headline output)
    sample        top-row and Gelfand-Tsetlin pattern samples + JSON grids
    gue-compare   rescaled model rows against GUE corners (KS tables)

identities, boundary and constants run the acceptance suite's check functions
(sixvertexlab.checks) at the CLI's own seeds, sizes and tolerances.  Only
asymptotics, which the grid checks use, is imported with this module; each
subcommand imports its other engines itself, so a run loads only its own.
Every subcommand runs in the calling thread: its work holds the interpreter
lock, so a thread pool would add only start-up and switching.  --threads is
accepted, validated and echoed in the sidecar, and changes nothing.

Every run writes CSV tables (deterministic byte-for-byte for a fixed config
and seed, per BLAS build and thread count, independent of --threads) plus a
JSON sidecar echoing the fully resolved configuration, library versions, BLAS
build, thread variables and wall-clock time.  Exit status 0 means every
asserted tolerance passed; failures exit 1 and print a JSON object naming the
violated invariants; invalid configuration exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import asymptotics as asy
from .core import ModelParams
from .util import environment_versions, write_csv, write_json

# The canonical display point (the phase-diagram figures) and the acceptance
# point for the corners comparison, which sits deeper in the admissible
# region so that desk-scale M is already close to the limit.
CANONICAL = {"q": 0.5, "u": 2.0, "v": 0.25}
ACCEPTANCE_GUE = {"q": 0.5, "u": 1.5 * 2 ** 0.5, "v": 0.7 / (1.5 * 2 ** 0.5)}


def _require(name: str, value, kind, what: str) -> None:
    # bool is an int subclass; a float would be truncated or crash downstream
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    q: float = CANONICAL["q"]
    u: float = CANONICAL["u"]
    v: float = CANONICAL["v"]
    seed: int = 12345
    tol: float = 1e-8
    threads: int = 0               # echoed only: every run uses one thread
    out: str = "runs"
    k: int = 2
    m_grid: tuple[int, ...] = (100, 400, 1600)
    n_samples: int = 100_000
    pmf_tol: float = 1e-6

    def __post_init__(self):
        for name in ("seed", "threads", "k", "n_samples"):
            _require(name, getattr(self, name), int, "an integer")
        for m in self.m_grid:
            _require("m_grid entry", m, int, "an integer")
        for name in ("tol", "pmf_tol"):
            _require(name, getattr(self, name), (int, float), "a real")
        if not 1 <= self.k <= 3:
            raise ValueError(f"k must be 1, 2 or 3 (the pmf engines' range), "
                             f"got {self.k}")
        if not self.m_grid or min(self.m_grid) < 1:
            raise ValueError(f"m_grid must be a non-empty list of M >= 1, "
                             f"got {list(self.m_grid)}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0, got {self.threads}")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if not 0 < self.pmf_tol < 1:
            raise ValueError(f"pmf_tol must be in (0, 1), got {self.pmf_tol}")

    def params(self) -> ModelParams:
        return ModelParams(q=self.q, u=self.u, v=self.v)


def _load_config(path: str | None, overrides: dict, defaults: dict) -> ExperimentConfig:
    data = dict(defaults)
    if path is not None:
        with open(path) as fh:
            data.update(json.load(fh))
    data.update({k: v for k, v in overrides.items() if v is not None})
    if "m_grid" in data:
        data["m_grid"] = tuple(data["m_grid"])
    return ExperimentConfig(**data)


class CheckTable:
    """Collects (name, value, reference, error, tol, passed) rows."""

    COLUMNS = ("check", "value", "reference", "error", "tol", "passed", "note")

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, name: str, value, reference, error: float, tol: float,
            note: str = "") -> None:
        self.rows.append({"check": name, "value": value, "reference": reference,
                          "error": error, "tol": tol,
                          "passed": bool(error <= tol), "note": note})

    def add_result(self, name: str, result: tuple, tol: float) -> None:
        """A row from a check's (value, reference, error, diagnostics)."""
        self.add(name, *result[:3], tol)

    def add_flag(self, name: str, passed: bool, note: str = "") -> None:
        self.add(name, int(passed), 1, 0.0 if passed else 1.0, 0.0, note)

    def failures(self) -> list[dict]:
        return [r for r in self.rows if not r["passed"]]

    def write(self, path: str) -> None:
        write_csv(path, self.COLUMNS,
                  [[r[c] for c in self.COLUMNS] for r in self.rows])


# ---------------------------------------------------------------------------
# subcommands


def cmd_identities(cfg: ExperimentConfig, out_dir: str) -> CheckTable:
    from . import checks, symfunc
    p = cfg.params()
    table = CheckTable()
    table.add_result(
        "route-agreement(F: transfer vs enumeration vs symmetrization)",
        checks.route_agreement(checks.random_points(cfg.seed, 10),
                               (1.0, 1.11, 1.23), 4),
        1e-10)

    reports = {}
    for N, K in [(1, 1), (2, 1), (2, 2)]:
        us = tuple(p.u * (1 + 0.1 * i) for i in range(N))
        vs = tuple(p.v * (1 - 0.15 * j) for j in range(K))
        reports[f"N={N},K={K}"] = symfunc.verify_cauchy(N, K, us, vs, p,
                                                        tol=1e-10)
    write_json(os.path.join(out_dir, "cauchy_reports.json"), reports)
    rows = {f"cauchy-identity({key})": rep for key, rep in reports.items()}
    rows["skew-cauchy-identity"] = symfunc.verify_skew_cauchy(
        (3, 1, 0), (2,), (p.u, 1.1 * p.u), (p.v,), p)
    for name, rep in rows.items():
        table.add(name, rep["lhs"], rep["rhs"], rep["rel_error"], cfg.tol,
                  note=f"truncation_L={rep['truncation_L']} "
                       f"tail_bound={rep['tail_bound']:.3e}")
    table.add_result("skew-cauchy-reduces-to-cauchy",
                     checks.skew_reduces_to_cauchy(p, (p.u, 1.15 * p.u),
                                                   (p.v,)), cfg.tol)
    table.add_result("branching-middle-sum",
                     checks.branching_middle_sum(
                         p, (4, 2, 1), (p.u, 1.1 * p.u, 1.2 * p.u)), cfg.tol)
    table.add_result("conjugation-relation(Gc = (c(lam)/c(mu)) G)",
                     checks.conjugation_relation(p), cfg.tol)

    geo = checks.geometric_specialization([p], 4)[3]
    table.add("geometric-specialization(F)", geo["F"], 0.0, geo["F"], 1e-10)
    table.add("geometric-specialization(Gc)", geo["Gc"], 0.0, geo["Gc"],
              1e-10)

    census = checks.counting((1, 2, 3, 4), 6)[3]
    table.add_flag("counting-formula-vs-enumeration",
                   not census["count_mismatches"])
    table.add_flag("typical-count-lower-bound", not census["bound_violations"])
    table.add_result("typical-collection-weight",
                     checks.typical_weight([p], [(3, 1), (5, 3, 1)]), 1e-12)

    # Finding: the raw boundary values alternate in sign as (-1)^{|lam|+k};
    # what is nonnegative is the total path weight F * f.
    bad = checks.total_weight_signs(p, [(1,), (2,), (3, 1), (4, 3, 1)], 3)[2]
    table.add_flag("total-weight-nonnegativity(F*f > 0)", bad == 0,
                   note="raw f alternates in sign as (-1)^(|lam|+k); "
                        "positivity holds for the assembled path weight")
    return table


def cmd_boundary(cfg: ExperimentConfig, out_dir: str) -> CheckTable:
    from . import checks
    p = cfg.params()
    table = CheckTable()
    for lam, M, fc, fd, err in checks.f_contour_vs_direct(p)[3]["rows"]:
        table.add(f"f-contour-vs-direct(lam={list(lam)},M={M})", fc, fd, err,
                  1e-7)
    for lam, M, a, b, err in checks.f_radius_independence(p)[3]["rows"]:
        table.add(f"f-radius-independence(lam={list(lam)},M={M})", a, b, err,
                  1e-7)
    gc = checks.Gc_contour_vs_transfer(
        p, [((3,), (p.v,)), ((2, 1), (p.v, 0.8 * p.v))])[3]
    for lam, ct, dp, err in gc["rows"]:
        table.add(f"Gc-contour-vs-transfer(lam={list(lam)})",
                  complex(ct).real, complex(dp).real, err, 1e-7)
    return table


def cmd_constants(cfg: ExperimentConfig, out_dir: str) -> CheckTable:
    from . import checks
    p = cfg.params()
    table = CheckTable()
    cst = asy.constants(p)
    table.add_flag("constants-values",
                   all(math.isfinite(x) for x in (cst.a, cst.b, cst.c, cst.d)),
                   note=f"a={cst.a!r} b={cst.b!r} c={cst.c!r} d={cst.d!r}")
    bad = checks.sign_pattern(checks.random_points(cfg.seed + 1, 50))[2]
    table.add_flag("sign-pattern(+,-,+,+) on 50-point grid", bad == 0,
                   note=f"{bad} raised" if bad else "")

    for name, result in checks.critical_points(p).items():
        # G'' is checked relative to 2c, the rest absolutely
        tol = 1e-4 * abs(result[1]) if name == "G''(u)-2c" else 1e-6
        table.add_result(f"critical|{name}|", result, tol)

    prof = asy.descent_profile(p)
    table.add("descent-max-ReG", prof["max_re_G"], 0.0, prof["max_re_G"],
              1e-12, note=f"attained at u: {prof['argmax_is_u']}")
    table.add_flag("descent-argmax-at-u", prof["argmax_is_u"])
    table.add_flag("descent-negative-outside-eps",
                   prof["delta_bound_outside"] < 0.0,
                   note=f"delta={prof['delta_bound_outside']!r}")
    return table


# (kind, k, x) of the bm-converge rows, each taken at every M of the grid
BM_ROWS = (("B", 1, (0.0,)), ("B", 1, (1.0,)), ("B", 2, (-1.0, 1.0)),
           ("A", 2, (-1.0, 1.0)))


def _check_grid(subcommand: str, cfg: ExperimentConfig) -> None:
    """sample takes one M; gue-compare and bm-converge compare consecutive
    M, so they need two distinct ones.  At every M, bm-converge needs B row
    parts >= 1 (the guard of B_M_contour) and A row parts >= 0."""
    if subcommand == "sample" and len(cfg.m_grid) > 1:
        raise ValueError(f"sample takes one M, got {list(cfg.m_grid)}")
    p = cfg.params()
    if subcommand == "bm-converge":
        for M, (kind, _, xs) in itertools.product(cfg.m_grid, BM_ROWS):
            if kind == "B":
                asy.bm_parts(xs, M, p)
            elif asy.scaled_parts(xs, M, asy.constants(p).a, 1.0)[-1] < 0:
                raise ValueError(f"M = {M} too small: A row parts must be >= 0")
    if subcommand in ("gue-compare", "bm-converge") and len(cfg.m_grid) < 2:
        raise ValueError(f"{subcommand} needs at least two M, "
                         f"got {list(cfg.m_grid)}")
    repeated = [M for M in cfg.m_grid if cfg.m_grid.count(M) > 1]
    if subcommand in ("gue-compare", "bm-converge") and repeated:
        raise ValueError(f"m_grid repeats M = {repeated[0]}")


def cmd_bm_converge(cfg: ExperimentConfig, out_dir: str) -> CheckTable:
    p = cfg.params()
    a = asy.constants(p).a
    rows = []
    errors = {row: [] for row in BM_ROWS}   # (M, abs_error) per BM_ROWS entry
    limits = {}                             # per entry: the same at every M
    for M, row in itertools.product(cfg.m_grid, BM_ROWS):
        kind, k, xs = row
        if kind == "B":
            val = asy.B_M_contour(xs, M, p)
            lim = asy.bm_limit(xs, k, p)
        else:
            val = asy.A_M(asy.scaled_parts(xs, M, a, 1.0), M, p)
            lim = asy.am_limit(xs)
        rows.append([M, k, list(xs), kind, val, lim, abs(val - lim)])
        errors[row].append((M, abs(val - lim)))
        limits[row] = lim
    write_csv(os.path.join(out_dir, "bm_convergence.csv"),
              ["M", "k", "x", "kind", "computed", "limit", "abs_error"], rows)

    def errs(kind, k, xs):
        """The entry's errors in increasing M, and its limit."""
        return ([err for _, err in sorted(errors[kind, k, xs])],
                limits[kind, k, xs])

    def decreasing(e):
        return all(e1 > e2 for e1, e2 in zip(e, e[1:]))

    table = CheckTable()
    e_b1, lim_b1 = errs("B", 1, (0.0,))
    table.add_flag("B-convergence-decreasing(k=1,x=0)", decreasing(e_b1))
    table.add("B-final-error(k=1,x=0)", e_b1[-1], 0.0,
              e_b1[-1] / abs(lim_b1), 0.05)
    e_b2, lim_b2 = errs("B", 2, (-1.0, 1.0))
    table.add_flag("B-convergence-decreasing(k=2)", decreasing(e_b2))
    table.add("B-final-error(k=2)", e_b2[-1], 0.0, e_b2[-1] / abs(lim_b2),
              0.10)
    e_a2, _ = errs("A", 2, (-1.0, 1.0))
    table.add_flag("A-convergence-decreasing(k=2)", decreasing(e_a2))
    bound = max(abs(r[4]) for r in rows if r[3] == "A")
    table.add("A-uniform-bound", bound, 0.0, bound, 50.0)
    return table


def cmd_sample(cfg: ExperimentConfig, out_dir: str) -> CheckTable:
    from . import measure
    from .paths import PathCollection
    p = cfg.params()
    table = CheckTable()
    k = cfg.k
    pmf = measure.top_row_pmf(k, cfg.m_grid[0], p, tol=cfg.pmf_tol)
    table.add("pmf-total-mass", pmf.total_mass, 1.0,
              abs(pmf.total_mass - 1.0), cfg.pmf_tol)
    write_csv(os.path.join(out_dir, "top_row_pmf.csv"),
              [f"mu_{i + 1}" for i in range(k)] + ["probability"],
              [atom + [prob] for atom, prob in
               zip(np.asarray(pmf.atoms).tolist(), pmf.probs.tolist())])

    draws = pmf.sample(np.random.default_rng(cfg.seed), cfg.n_samples)
    top_arr = np.asarray(pmf.atoms, dtype=np.int64)[draws]
    rows = measure.sample_lower_rows(top_arr, p,
                                     np.random.default_rng(cfg.seed + 1))
    rows.append(top_arr)
    bad = np.zeros(len(top_arr), dtype=bool)
    for lower, upper in zip(rows, rows[1:]):
        bad |= measure.interlace_violations(lower, upper)
    patterns = list(zip(*(map(tuple, row[:, ::-1].tolist()) for row in rows)))
    sample_rows = [[i, j, list(row)] for i, pat_rows in enumerate(patterns)
                   for j, row in enumerate(pat_rows, start=1)]
    grids = [PathCollection(family="F", mu=(), lam=pat_rows[-1][::-1],
                            n_rows=k, n_cols=pat_rows[-1][-1] + 2,
                            sections=tuple(row[::-1] for row in pat_rows)
                            ).to_json_grid()
             for pat_rows, flagged in zip(patterns[:3], bad) if not flagged]
    write_csv(os.path.join(out_dir, "samples.csv"),
              ["sample_id", "row_j", "entries"], sample_rows)
    write_json(os.path.join(out_dir, "configuration_grids.json"), grids)
    table.add_flag("sampled-patterns-interlace", not bad.any(),
                   note="interlacing enforced by construction and validated "
                        "on every pattern")
    return table


def cmd_gue_compare(cfg: ExperimentConfig, out_dir: str) -> CheckTable:
    from . import gue
    p = cfg.params()
    table = CheckTable()
    rep1 = gue.compare_corners_limit(1, cfg.m_grid, p, 0, seed=cfg.seed,
                                    pmf_tol=cfg.pmf_tol)
    rep2 = gue.compare_corners_limit(2, cfg.m_grid, p, cfg.n_samples,
                                    seed=cfg.seed + 1, pmf_tol=cfg.pmf_tol)
    rows = []
    for rep in (rep1, rep2):
        for r in rep["rows"]:
            rows.append([rep["k"], r["M"], r["coordinate"], r["ks"],
                         r["n_samples"], rep["seed"]])
    write_csv(os.path.join(out_dir, "gue_compare.csv"),
              ["k", "M", "coordinate", "KS", "n_samples", "seed"], rows)
    write_json(os.path.join(out_dir, "gue_compare_summary.json"),
               {"k1": rep1, "k2": rep2})

    ks1 = {r["M"]: r["ks"] for r in rep1["rows"]}
    final_m = max(cfg.m_grid)
    table.add_flag("k1-KS-decreasing", rep1["monotone_in_M"])
    table.add("k1-KS-final", ks1[final_m], 0.0, ks1[final_m], 0.05,
              note="threshold is an artifact choice (no finite-M rate)")
    final2 = {r["coordinate"]: r["ks"] for r in rep2["rows"]
              if r["M"] == final_m}
    for coord in ("Y[2,1]", "Y[2,2]", "Y[1,1]"):
        table.add(f"k2-KS-final({coord})", final2[coord], 0.0, final2[coord],
                  0.08, note="threshold is an artifact choice")
    table.add_flag("k2-KS-monotone-within-noise", rep2["monotone_in_M"])
    table.add_flag("interlacing-zero-violations",
                   rep2["interlace_violations"] == 0)
    return table


# ---------------------------------------------------------------------------
# driver


SUBCOMMANDS = {
    "identities": (cmd_identities, {}),
    "boundary": (cmd_boundary, {}),
    "constants": (cmd_constants, {}),
    "bm-converge": (cmd_bm_converge, {}),
    "sample": (cmd_sample, {"m_grid": (30,), "k": 2, "n_samples": 2000}),
    "gue-compare": (cmd_gue_compare,
                    {**ACCEPTANCE_GUE, "m_grid": (50, 100, 200, 400)}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sixvertexlab",
        description="verification and sampling runs for the six-vertex "
                    "boundary-reweighted measures")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    fn, defaults = SUBCOMMANDS[args.subcommand]
    overrides = {"seed": args.seed, "tol": args.tol, "threads": args.threads,
                 "out": args.out}
    try:
        cfg = _load_config(args.config, overrides, defaults)
        _check_grid(args.subcommand, cfg)  # also checks the parameter chain
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"subcommand": args.subcommand,
                          "validation_error": str(exc)}))
        return 2

    out_dir = os.path.join(cfg.out, args.subcommand)
    t0 = time.perf_counter()
    table = fn(cfg, out_dir)
    table.write(os.path.join(out_dir, f"{args.subcommand}_checks.csv"))
    sidecar = {"subcommand": args.subcommand, "config": asdict(cfg),
               "versions": environment_versions(),
               "wall_clock_s": time.perf_counter() - t0,
               "n_checks": len(table.rows),
               "n_failures": len(table.failures())}
    write_json(os.path.join(out_dir, "sidecar.json"), sidecar)

    failures = table.failures()
    if failures:
        print(json.dumps({"subcommand": args.subcommand, "status": "failed",
                          "failures": [{"invariant": f["check"],
                                        "value": repr(f["value"]),
                                        "tol": f["tol"]} for f in failures]},
                         sort_keys=True))
        return 1
    print(json.dumps({"subcommand": args.subcommand, "status": "ok",
                      "n_checks": len(table.rows),
                      "out": out_dir}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
