import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import pytest

from sixvertexlab import asymptotics, checks, cli, measure
from sixvertexlab.cli import main

REAL_LOWER_ROWS = measure.sample_lower_rows


def read(path):
    with open(path) as fh:
        return fh.read()


def test_constants_run(tmp_path, capsys):
    rc = main(["constants", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"
    csv_text = read(tmp_path / "constants" / "constants_checks.csv")
    assert csv_text.splitlines()[0].startswith("check,value,reference")
    sidecar = json.loads(read(tmp_path / "constants" / "sidecar.json"))
    assert sidecar["config"]["q"] == 0.5
    assert "wall_clock_s" in sidecar and "versions" in sidecar
    assert sidecar["n_failures"] == 0


def test_boundary_run(tmp_path, capsys):
    rc = main(["boundary", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    with open(tmp_path / "boundary" / "boundary_checks.csv") as fh:
        names = [row["check"] for row in csv.DictReader(fh)]
    assert names == [
        "f-contour-vs-direct(lam=[2],M=2)",
        "f-contour-vs-direct(lam=[5],M=10)",
        "f-contour-vs-direct(lam=[7],M=20)",
        "f-contour-vs-direct(lam=[3, 1],M=4)",
        "f-contour-vs-direct(lam=[6, 2],M=10)",
        "f-contour-vs-direct(lam=[8, 5],M=20)",
        "f-radius-independence(lam=[4, 2],M=6)",
        "f-radius-independence(lam=[5, 1],M=12)",
        "Gc-contour-vs-transfer(lam=[3])",
        "Gc-contour-vs-transfer(lam=[2, 1])"]


def test_invalid_params_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"u": 1.2}))
    rc = main(["constants", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    out = json.loads(capsys.readouterr().out)
    assert "q^(-1/2)" in out["validation_error"]


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "out": "ignored"}))
    rc = main(["constants", "--config", str(cfg), "--seed", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    sidecar = json.loads(read(tmp_path / "constants" / "sidecar.json"))
    assert sidecar["config"]["seed"] == 7
    assert sidecar["config"]["out"] == str(tmp_path)


def test_failure_exit_1(tmp_path, capsys):
    # an unattainable tolerance must fail loudly with a machine-readable
    # report naming the violated invariant
    rc = main(["identities", "--tol", "0", "--out", str(tmp_path)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "failed"
    assert any("cauchy" in f["invariant"] for f in out["failures"])


def test_sample_reproducibility(tmp_path, capsys):
    rc = main(["sample", "--seed", "5", "--threads", "1",
               "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(["sample", "--seed", "5", "--threads", "4",
               "--out", str(tmp_path / "b")])
    assert rc == 0
    for name in ("samples.csv", "top_row_pmf.csv"):
        assert read(tmp_path / "a" / "sample" / name) == \
            read(tmp_path / "b" / "sample" / name)
    grids = json.loads(read(tmp_path / "a" / "sample" /
                            "configuration_grids.json"))
    assert grids and grids[0]["vertices"]
    # each grid is a configuration: horizontal edges in {0, 1}, every row
    # ending empty
    for grid in grids:
        assert all(v[3] in (0, 1) for row in grid["vertices"] for v in row)
        assert all(row[-1][3] == 0 for row in grid["vertices"])
    # each row is an atom's parts and the shortest repr of its probability,
    # which parses back to the same float64
    cfg = json.loads(read(tmp_path / "a" / "sample" / "sidecar.json"))
    cfg = cli.ExperimentConfig(**{**cfg["config"],
                                  "m_grid": tuple(cfg["config"]["m_grid"])})
    pmf = measure.top_row_pmf(cfg.k, cfg.m_grid[0], cfg.params(),
                              tol=cfg.pmf_tol)
    assert (cfg.k, cfg.m_grid) == (2, (30,))
    with open(tmp_path / "a" / "sample" / "top_row_pmf.csv") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["mu_1", "mu_2", "probability"]
    assert len(table) == len(pmf.atoms) + 1
    for i, row in enumerate(table[1:]):
        assert row[:-1] == [str(part) for part in pmf.atoms[i]]
        assert row[-1] == repr(float(pmf.probs[i]))
        assert float(row[-1]).hex() == float(pmf.probs[i]).hex()


def test_k_above_engine_range_exit_2(tmp_path, capsys):
    cfg = tmp_path / "k4.json"
    cfg.write_text(json.dumps({"k": 4}))
    rc = main(["sample", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    out = json.loads(capsys.readouterr().out)
    assert "k must be" in out["validation_error"]


@pytest.mark.parametrize("bad", [{"k": 2.5}, {"m_grid": [30.7]}, {"k": True}])
def test_non_integer_config_exit_2(tmp_path, capsys, bad):
    # a float or bool count is refused, not truncated or read as 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    rc = main(["sample", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    out = json.loads(capsys.readouterr().out)
    assert "must be an integer" in out["validation_error"]
    assert not (tmp_path / "sample").exists()


@pytest.mark.parametrize("subcommand, bad, message", [
    ("sample", {"m_grid": []}, "m_grid must be"),
    ("sample", {"m_grid": [30, 0]}, "m_grid must be"),
    ("sample", {"n_samples": -5}, "n_samples must be"),
    ("sample", {"threads": -1}, "threads must be"),
    ("sample", {"pmf_tol": 0}, "pmf_tol must be"),
    ("identities", {"tol": "x"}, "tol must be a real"),
    ("gue-compare", {"m_grid": [30]}, "needs at least two M"),
    ("bm-converge", {"m_grid": [5]}, "too small"),
    ("bm-converge", {"m_grid": [1600]}, "needs at least two M"),
    ("sample", {"m_grid": [30, 40]}, "sample takes one M"),
    ("bm-converge", {"m_grid": [400, 400]}, "repeats M = 400"),
    ("gue-compare", {"m_grid": [60, 120, 60]}, "repeats M = 60"),
    ("sample", {"seed": -1}, "seed must be >= 0"),
    ("gue-compare", {"seed": -1}, "seed must be >= 0")],
    ids=["empty-m_grid", "m_grid-0", "negative-n_samples", "negative-threads",
         "sample-pmf_tol-0", "identities-tol-string", "gue-compare-max-M-30",
         "bm-converge-M-5", "bm-converge-one-M", "sample-two-M",
         "bm-converge-repeated-M", "gue-compare-repeated-M",
         "sample-negative-seed", "gue-compare-negative-seed"])
def test_out_of_range_config_exit_2(tmp_path, capsys, subcommand, bad,
                                    message):
    # an out-of-range value is refused before any engine runs
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    rc = main([subcommand, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    out = json.loads(capsys.readouterr().out)
    assert message in out["validation_error"]
    assert not (tmp_path / subcommand).exists()


def test_sample_honours_n_samples(tmp_path, capsys):
    # every configured draw is written, and the sidecar echoes the count
    cfg = tmp_path / "n.json"
    cfg.write_text(json.dumps({"n_samples": 2500}))
    rc = main(["sample", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "sample" / "samples.csv") as fh:
        ids = {int(row["sample_id"]) for row in csv.DictReader(fh)}
    assert ids == set(range(2500))
    sidecar = json.loads(read(tmp_path / "sample" / "sidecar.json"))
    assert sidecar["config"]["n_samples"] == 2500


def test_gue_compare_runs_its_grid(tmp_path, capsys):
    # the configured M, not a fixed grid cut at max(m_grid)
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"m_grid": [60, 120], "n_samples": 2000}))
    main(["gue-compare", "--config", str(cfg), "--out", str(tmp_path)])
    with open(tmp_path / "gue-compare" / "gue_compare.csv") as fh:
        grid = {int(row["M"]) for row in csv.DictReader(fh)}
    assert grid == {60, 120}


def test_constants_values_must_be_finite(tmp_path, capsys, monkeypatch):
    real = cli.asy.constants
    fake = types.SimpleNamespace(**vars(cli.asy))
    fake.constants = lambda p: dataclasses.replace(real(p), a=math.inf)
    monkeypatch.setattr(cli, "asy", fake)
    rc = main(["constants", "--out", str(tmp_path)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert [f["invariant"] for f in out["failures"]] == ["constants-values"]


def test_sign_pattern_refusal_is_a_failed_row(tmp_path, capsys, monkeypatch):
    # a point whose constants() raises must fail the sign-pattern row, not
    # crash the run
    refused = checks.random_points(cli.ExperimentConfig().seed + 1, 50)[7]
    real = asymptotics.constants

    def constants(p):
        if p == refused:
            raise ValueError("sign pattern (+,-,+,+) violated")
        return real(p)

    monkeypatch.setattr(asymptotics, "constants", constants)
    rc = main(["constants", "--out", str(tmp_path)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert [f["invariant"] for f in out["failures"]] == \
        ["sign-pattern(+,-,+,+) on 50-point grid"]


def _shifted_top(tops, p, rng):
    # valid lower rows, but for top rows other than the sampled ones
    return REAL_LOWER_ROWS(tops + 1, p, rng)


def _not_interlacing(tops, p, rng):
    # a k = 2 middle entry below the top's smallest part, in every sample
    return [tops[:, 1:] - 1]


def _last_corrupted(tops, p, rng):
    # only the last sample's middle entry leaves its interval
    rows = REAL_LOWER_ROWS(tops, p, rng)
    rows[0][-1] = tops[-1, 1] - 1
    return rows


@pytest.mark.parametrize("fake", [_shifted_top, _not_interlacing,
                                  _last_corrupted])
def test_sample_checks_every_pattern(tmp_path, capsys, monkeypatch, fake):
    monkeypatch.setattr(measure, "sample_lower_rows", fake)
    rc = main(["sample", "--out", str(tmp_path)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert [f["invariant"] for f in out["failures"]] == \
        ["sampled-patterns-interlace"]


def run_fresh(code: str, *args: str):
    """The JSON last line that code prints in a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_imports_each_engine_only_where_it_runs(tmp_path):
    # importing the CLI loads no engine a subcommand may not need and no
    # thread pool; bm-converge on one thread loads no checks, constants
    # neither the sampler nor the GUE module
    seen = run_fresh("""
        import json, sys
        from sixvertexlab import cli
        LAZY = ["sixvertexlab." + m for m in ("checks", "gue", "measure",
                                              "paths")]
        def loaded():
            return [m for m in LAZY + ["concurrent.futures"]
                    if m in sys.modules]
        seen = {"import": loaded()}
        for argv in (["bm-converge", "--threads", "1"], ["constants"]):
            assert cli.main(argv + ["--out", sys.argv[1]]) == 0
            seen[argv[0]] = loaded()
        print(json.dumps(seen))
    """, str(tmp_path))
    assert seen["import"] == []
    assert seen["bm-converge"] == []
    assert "sixvertexlab.checks" in seen["constants"]
    assert not {"sixvertexlab.measure", "sixvertexlab.gue"} & set(
        seen["constants"])


def test_sidecar_starts_no_process():
    # platform.platform() runs `uname -p` in a child process, once per
    # interpreter; the sidecar's platform string is built without one
    versions, system, release, machine = run_fresh("""
        import json, platform, subprocess
        from sixvertexlab.util import environment_versions
        def refuse(*args, **kwargs):
            raise AssertionError(f"started a process: {args}")
        subprocess.Popen = refuse
        print(json.dumps([environment_versions(), platform.system(),
                          platform.release(), platform.machine()]))
    """)
    assert versions["platform"].startswith(f"{system}-{release}-{machine}")
