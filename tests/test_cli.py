import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import mixkit as mk
import mixkit.cli
from mixkit.cli import EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main

MIX_SPEC = {
    "schema_version": 1,
    "kind": "mixture",
    "family": "normal",
    "atoms": [
        {"weight": 0.3, "mu": 2.0, "sigma": 1.0},
        {"weight": 0.5, "mu": 3.0, "sigma": 0.5},
        {"weight": 0.2, "mu": 3.4, "sigma": 1.3},
    ],
}

POIS_SPEC = {
    "schema_version": 1,
    "kind": "mixture",
    "family": "poisson",
    "atoms": [{"weight": 0.7, "lam": 4.0}, {"weight": 0.3, "lam": 6.0}],
}

HMM_SPEC = {
    "schema_version": 1,
    "kind": "hmm",
    "family": "normal",
    "initial": [0.5, 0.5],
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "emissions": [{"mu": 0.0, "sigma": 1.0}, {"mu": 5.0, "sigma": 1.0}],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(MIX_SPEC), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_simulate_writes_csv_and_manifest(tmp_path, spec_file):
    out = str(tmp_path / "sim.csv")
    code = main(["simulate", "--spec", spec_file, "--n", "100", "--seed", "7", "--out", out])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 100
    assert set(rows[0]) == {"y", "z"}
    assert all(r["z"] in ("1", "2", "3") for r in rows)
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == [out]
    assert manifest["version"] == mk.__version__
    assert manifest["command"][0] == "mixkit"


def test_simulate_zero_rows_gives_header_only(tmp_path, spec_file):
    out = str(tmp_path / "sim.csv")
    assert main(["simulate", "--spec", spec_file, "--n", "0", "--out", out]) == EXIT_OK
    assert read_rows(out) == []


def test_csv_uses_crlf_line_endings(tmp_path, spec_file):
    out = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "3", "--out", out])
    raw = open(out, "rb").read()
    assert raw.count(b"\r\n") == 4


def test_simulate_rerun_is_byte_identical(tmp_path, spec_file):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    main(["simulate", "--spec", spec_file, "--n", "50", "--seed", "3", "--out", a])
    main(["simulate", "--spec", spec_file, "--n", "50", "--seed", "3", "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_simulate_hmm_spec(tmp_path):
    path = tmp_path / "hmm.json"
    path.write_text(json.dumps(HMM_SPEC), encoding="utf-8")
    out = str(tmp_path / "seq.csv")
    assert main(["simulate", "--spec", str(path), "--n", "40", "--seed", "1", "--out", out]) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 40
    assert set(rows[0]) == {"y", "z"}


def test_seed_resolution_order(tmp_path, spec_file, monkeypatch):
    flag = str(tmp_path / "flag.csv")
    env = str(tmp_path / "env.csv")
    none = str(tmp_path / "none.csv")
    monkeypatch.setenv("MIXKIT_SEED", "7")
    main(["simulate", "--spec", spec_file, "--n", "20", "--out", env])
    main(["simulate", "--spec", spec_file, "--n", "20", "--seed", "7", "--out", flag])
    monkeypatch.delenv("MIXKIT_SEED")
    main(["simulate", "--spec", spec_file, "--n", "20", "--seed", "7", "--out", none])
    assert open(env, "rb").read() == open(flag, "rb").read() == open(none, "rb").read()


def test_bad_env_seed_is_a_usage_error(tmp_path, spec_file, monkeypatch):
    monkeypatch.setenv("MIXKIT_SEED", "not-a-number")
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--spec", spec_file, "--n", "5", "--out", out]) == EXIT_USAGE


def test_density_table_integrates_to_one(tmp_path, spec_file):
    out = str(tmp_path / "dens.csv")
    assert main(["density", "--spec", spec_file, "--out", out]) == EXIT_OK
    manifest = json.loads((tmp_path / "dens.csv.manifest.json").read_text())
    assert manifest["extra"]["trapezoid_integral"] == pytest.approx(1.0, abs=1e-6)
    rows = read_rows(out)
    assert set(rows[0]) == {"y", "density"}


def test_density_grid_flag(tmp_path, spec_file):
    out = str(tmp_path / "dens.csv")
    assert main(["density", "--spec", spec_file, "--grid", "0:6:501", "--out", out]) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 501
    assert float(rows[0]["y"]) == 0.0
    assert float(rows[-1]["y"]) == 6.0


def test_density_poisson_pmf_table(tmp_path):
    path = tmp_path / "pois.json"
    path.write_text(json.dumps(POIS_SPEC), encoding="utf-8")
    out = str(tmp_path / "pmf.csv")
    assert main(["density", "--spec", str(path), "--out", out]) == EXIT_OK
    rows = read_rows(out)
    assert set(rows[0]) == {"y", "pmf"}
    manifest = json.loads((tmp_path / "pmf.csv.manifest.json").read_text())
    assert manifest["extra"]["pmf_sum"] == pytest.approx(1.0, abs=1e-9)
    at5 = [float(r["pmf"]) for r in rows if r["y"] == "5"]
    assert at5[0] == pytest.approx(0.15759235860976617803, rel=1e-13)


def test_fit_em_writes_report(tmp_path, spec_file):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "300", "--seed", "7", "--out", sim])
    out = str(tmp_path / "fit.json")
    code = main(["fit", "--method", "em", "--data", sim, "--G", "2", "--seed", "5", "--out", out])
    assert code == EXIT_OK
    report = json.loads(open(out).read())
    assert report["method"] == "em"
    assert report["converged"] is True
    assert report["measure"]["family"] == "normal"
    trace = report["loglik_trace"]
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_fit_hard_em(tmp_path, spec_file):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "300", "--seed", "7", "--out", sim])
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--method", "hard-em", "--data", sim, "--G", "2", "--seed", "5", "--out", out]) == EXIT_OK
    assert json.loads(open(out).read())["method"] == "hard-em"


def test_fit_gibbs_writes_chain_and_predictive(tmp_path, spec_file):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "200", "--seed", "7", "--out", sim])
    out = str(tmp_path / "fit.json")
    code = main(
        ["fit", "--method", "gibbs", "--data", sim, "--G", "2", "--seed", "5",
         "--burn-in", "50", "--samples", "80", "--out", out]
    )
    assert code == EXIT_OK
    report = json.loads(open(out).read())
    assert report["n_snapshots"] == 80
    chain = [json.loads(line) for line in open(out + ".chain.ndjson") if line.strip()]
    assert len(chain) == 80
    assert set(chain[0]) == {"iteration", "weights", "mu", "sigma"}
    assert len(chain[0]["weights"]) == 2
    assert math.fsum(chain[0]["weights"]) == pytest.approx(1.0, abs=1e-12)
    pred = read_rows(out + ".predictive.csv")
    assert set(pred[0]) == {"y", "predictive_mean", "predictive_q025", "predictive_q975"}
    for row in pred:
        assert float(row["predictive_q025"]) <= float(row["predictive_mean"]) * 1.5 + 1e-9


def test_fit_gibbs_rerun_is_byte_identical(tmp_path, spec_file):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "120", "--seed", "7", "--out", sim])
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        main(["fit", "--method", "gibbs", "--data", sim, "--G", "2", "--seed", "9",
              "--burn-in", "20", "--samples", "30", "--out", out])
        outs.append(out)
    assert open(outs[0] + ".chain.ndjson", "rb").read() == open(outs[1] + ".chain.ndjson", "rb").read()
    assert open(outs[0] + ".predictive.csv", "rb").read() == open(outs[1] + ".predictive.csv", "rb").read()


def test_select_g_table(tmp_path, spec_file):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "150", "--seed", "7", "--out", sim])
    out = str(tmp_path / "sel.csv")
    code = main(["select-g", "--data", sim, "--g-min", "1", "--g-max", "3",
                 "--prior-draws", "2000", "--seed", "1", "--out", out])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert [r["G"] for r in rows] == ["1", "2", "3"]
    total = math.fsum(float(r["posterior"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)
    # the command is the library's posterior over G, seeds included
    data = np.array([float(r["y"]) for r in read_rows(sim)])
    want = mk.posterior_over_G(data, [1, 2, 3], lambda G: mk.default_prior(data, G),
                               np.full(3, 1.0 / 3.0), mk.EvidenceConfig(n_prior_draws=2000, seed=1))
    assert [float(r["posterior"]) for r in rows] == want.tolist()


def test_fit_em_reports_convergence_and_reseeds(tmp_path, spec_file, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "300", "--seed", "7", "--out", sim])
    capsys.readouterr()
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--method", "em", "--data", sim, "--G", "2", "--seed", "5", "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    extra = json.loads(open(out + ".manifest.json").read())["extra"]
    assert extra["converged"] is True and extra["reseeds"] == []
    assert main(["fit", "--method", "em", "--data", sim, "--G", "2", "--seed", "5", "--max-iter", "3",
                 "--out", out]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err == ["mixkit: warning: em did not converge in 3 iterations"]
    report = json.loads(open(out).read())
    extra = json.loads(open(out + ".manifest.json").read())["extra"]
    assert extra["converged"] is False and report["converged"] is False
    assert set(report) == {"measure", "loglik_trace", "iterations", "converged", "config", "seed",
                           "method", "n_observations"}


def test_fit_hard_em_warns_when_it_does_not_converge(tmp_path, spec_file, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "300", "--seed", "7", "--out", sim])
    capsys.readouterr()
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--method", "hard-em", "--data", sim, "--G", "2", "--seed", "5", "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert json.loads(open(out).read())["converged"] is True
    assert main(["fit", "--method", "hard-em", "--data", sim, "--G", "2", "--seed", "5", "--max-iter", "1",
                 "--out", out]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == ["mixkit: warning: hard-em did not converge in 1 iterations"]
    assert json.loads(open(out).read())["converged"] is False


def test_select_g_reports_effective_sample_size(tmp_path, spec_file, capsys):
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "150", "--seed", "7", "--out", sim])
    capsys.readouterr()
    out = str(tmp_path / "sel.csv")
    assert main(["select-g", "--data", sim, "--g-min", "1", "--g-max", "2",
                 "--prior-draws", "1000", "--seed", "1", "--out", out]) == EXIT_OK
    extra = json.loads(open(out + ".manifest.json").read())["extra"]
    data = np.array([float(r["y"]) for r in read_rows(sim)])
    want = mk.evidence_over_G(data, [1, 2], lambda G: mk.default_prior(data, G),
                              mk.EvidenceConfig(n_prior_draws=1000, seed=1))
    assert extra["effective_sample_sizes"] == [e.ess for e in want]
    assert extra["max_weight_shares"] == [e.max_weight_share for e in want]
    # at n=150 a few prior draws carry the whole estimate
    assert all(e.ess < 10.0 for e in want)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "G=1 (" in err and "G=2 (" in err
    assert "effective sample size below 10 of 1000 prior draws" in err
    # three observations leave the prior draws' weights nearly even: no warning
    few = tmp_path / "few.csv"
    few.write_text("y\n2.5\n3.0\n3.5\n", encoding="utf-8")
    assert main(["select-g", "--data", str(few), "--g-min", "1", "--g-max", "2",
                 "--prior-draws", "1000", "--seed", "1", "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    extra = json.loads(open(out + ".manifest.json").read())["extra"]
    assert min(extra["effective_sample_sizes"]) >= 10.0


def test_compound_tables(tmp_path):
    bb = tmp_path / "bb.json"
    bb.write_text(json.dumps({"schema_version": 1, "kind": "beta_binomial",
                              "trials": 10, "alpha": 1.0, "beta": 1.0}))
    out = str(tmp_path / "bb.csv")
    assert main(["compound", "--spec", str(bb), "--out", out]) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 11
    assert float(rows[4]["pmf"]) == pytest.approx(1.0 / 11.0, rel=5e-15)

    nb = tmp_path / "nb.json"
    nb.write_text(json.dumps({"schema_version": 1, "kind": "negative_binomial",
                              "alpha": 3.0, "beta": 2.0}))
    out = str(tmp_path / "nb.csv")
    assert main(["compound", "--spec", str(nb), "--y-max", "8", "--out", out]) == EXIT_OK
    assert len(read_rows(out)) == 9

    dm = tmp_path / "dm.json"
    dm.write_text(json.dumps({"schema_version": 1, "kind": "dirichlet_multinomial",
                              "trials": 4, "concentration": [2.0, 3.0, 5.0]}))
    out = str(tmp_path / "dm.csv")
    assert main(["compound", "--spec", str(dm), "--out", out]) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 15  # compositions of 4 into 3 parts
    manifest = json.loads((tmp_path / "dm.csv.manifest.json").read_text())
    assert manifest["extra"]["pmf_sum"] == pytest.approx(1.0, abs=1e-12)


def test_modes_prints_count(tmp_path, spec_file, capsys):
    out = str(tmp_path / "modes.csv")
    assert main(["modes", "--spec", spec_file, "--out", out]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["location"]) == pytest.approx(2.9638586836, abs=1e-6)


def test_crp_prints_expectation(tmp_path, capsys):
    out = str(tmp_path / "crp.csv")
    code = main(["crp", "--alpha", "1.0", "--n", "4", "--runs", "5000", "--seed", "2", "--out", out])
    assert code == EXIT_OK
    line = capsys.readouterr().out.strip()
    assert line.startswith("expected_clusters ")
    assert float(line.split()[1]) == 25.0 / 12.0
    rows = read_rows(out)
    total = math.fsum(float(r["frequency"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_crp_mean_matches_expectation_beyond_127_blocks(tmp_path, capsys):
    # more blocks than an int8 label can count
    out = str(tmp_path / "crp.csv")
    assert main(["crp", "--alpha", "200", "--n", "400", "--runs", "50", "--out", out]) == EXIT_OK
    expected = float(capsys.readouterr().out.split()[1])
    counts = {int(r["clusters"]): int(r["runs"]) for r in read_rows(out)}
    mean = math.fsum(k * c for k, c in counts.items()) / 50
    # the block count is a sum of independent Bernoulli(alpha / (alpha + i)) indicators
    variance = math.fsum(200.0 / (200.0 + i) * i / (200.0 + i) for i in range(400))
    assert abs(mean - expected) <= 5.0 * math.sqrt(variance / 50)



@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_crp_rejects_a_non_finite_concentration(tmp_path, capsys, alpha):
    out = tmp_path / "crp.csv"
    assert main(["crp", f"--alpha={alpha}", "--n", "5", "--runs", "10", "--out", str(out)]) == EXIT_USAGE
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_crp_memory_does_not_grow_with_runs_times_n(tmp_path):
    # the (runs, n) int64 label matrix would take 8 * 20000 * 400 bytes = 64 MB;
    # the block counts take 8 * 20000 bytes
    argv = ["crp", "--alpha", "1", "--n", "400", "--runs", "20000", "--seed", "4",
            "--out", str(tmp_path / "crp.csv")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 4 * 2**20


def _parent_csv_text(header, rows):
    """The csv.writer table writer the column writer replaced (the oracle)."""
    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308 / 3,
                  1.0000000000000002, 0.1, 1e300, -1e-300, 2.0**60, 123456789012345678.0]


@pytest.mark.parametrize("columns", [
    [[1, 2, 3], [0.5, -0.0, 2.5]],
    [np.array([1, -2, 2**60], dtype=np.int64), np.array(SPECIAL_FLOATS[:3])],
    [np.array([7, 8], dtype=np.int32), np.array([3, 4], dtype=np.uint8), np.array([True, False])],
    [[True, False, True], [2**60, 0, -(2**60)], np.array([1.5, 2.5, 3.5], dtype=np.float32)],
    [range(1, len(SPECIAL_FLOATS) + 1), SPECIAL_FLOATS, np.array(SPECIAL_FLOATS)[::-1]],
    [np.array([np.int64(3)]), [np.float64(-0.0)], [np.bool_(True)]],
    [np.array([], dtype=np.int64), np.array([])],
    [[], []],
    [range(0), np.array([], dtype=bool), []],
])
def test_column_writer_equals_the_row_writer(columns):
    header = [f"c{k}" for k in range(len(columns))]
    rows = list(zip(*columns))
    assert mixkit.cli._csv_text(header, columns) == _parent_csv_text(header, rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-(2**62), 2**62), st.floats(), st.booleans()), max_size=50))
def test_column_writer_equals_the_row_writer_on_any_values(rows):
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], []]
    header = ["i", "x", "b"]
    assert mixkit.cli._csv_text(header, columns) == _parent_csv_text(header, rows)
    arrays = [np.array(c, dtype=dt) for c, dt in zip(columns, (np.int64, float, bool))]
    assert mixkit.cli._csv_text(header, arrays) == _parent_csv_text(header, zip(*arrays))

# subcommand: (arguments of a good call, its outputs in write order,
#              arguments of a failing call, that call's exit code)
SINGLE_WRITER_CASES = {
    "simulate": (["--spec", "{mix}", "--n", "20", "--seed", "1", "--out", "o.csv"], ["o.csv"],
                 ["--spec", "{mix}", "--n", "-1", "--out", "o.csv"], EXIT_USAGE),
    "density": (["--spec", "{pois}", "--out", "o.csv"], ["o.csv"],
                ["--spec", "{mix}", "--grid", "5:1:100", "--out", "o.csv"], EXIT_USAGE),
    "fit": (["--method", "gibbs", "--data", "{data}", "--G", "2", "--burn-in", "5", "--samples", "10",
             "--out", "o.json"], ["o.json", "o.json.chain.ndjson", "o.json.predictive.csv"],
            ["--method", "gibbs", "--data", "{data}", "--G", "2", "--burn-in", "5", "--samples", "10",
             "--grid", "5:1:10", "--out", "o.json"], EXIT_USAGE),
    "select-g": (["--data", "{data}", "--g-min", "1", "--g-max", "2", "--prior-draws", "1000",
                  "--out", "o.csv"], ["o.csv"],
                 ["--data", "{junk}", "--g-min", "1", "--g-max", "2", "--out", "o.csv"], EXIT_PARSE),
    "compound": (["--spec", "{nb}", "--y-max", "5", "--out", "o.csv"], ["o.csv"],
                 ["--spec", "{junk}", "--out", "o.csv"], EXIT_PARSE),
    "modes": (["--spec", "{mix}", "--out", "o.csv"], ["o.csv"],
              ["--spec", "{mix}", "--grid", "2.9:3.1:1500", "--out", "o.csv"], EXIT_NUMERIC),
    "crp": (["--alpha", "1", "--n", "5", "--runs", "10", "--out", "o.csv"], ["o.csv"],
            ["--alpha", "1", "--n", "5", "--runs", "0", "--out", "o.csv"], EXIT_USAGE),
}


@pytest.mark.parametrize("subcommand", sorted(SINGLE_WRITER_CASES))
def test_outputs_then_one_manifest_and_nothing_on_failure(subcommand, tmp_path, monkeypatch, capsys):
    files = {"mix": MIX_SPEC, "pois": POIS_SPEC,
             "nb": {"schema_version": 1, "kind": "negative_binomial", "alpha": 3.0, "beta": 2.0}}
    fill = {key: str(tmp_path / f"{key}.json") for key in files}
    for key, doc in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc), encoding="utf-8")
    fill["data"] = str(tmp_path / "data.csv")
    ys = np.random.default_rng(0).normal(size=40) + np.repeat([0.0, 4.0], 20)
    (tmp_path / "data.csv").write_text("y\n" + "".join(f"{v:.17g}\n" for v in ys), encoding="utf-8")
    fill["junk"] = str(tmp_path / "junk.csv")
    (tmp_path / "junk.csv").write_text("{nope\nbanana\n", encoding="utf-8")
    good, outputs, bad, code = SINGLE_WRITER_CASES[subcommand]
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    written = []
    write = mixkit.cli._atomic_write_text
    monkeypatch.setattr(mixkit.cli, "_atomic_write_text",
                        lambda path, text: (written.append(path), write(path, text)))

    assert main([subcommand] + [a.format(**fill) for a in bad]) == code
    assert os.listdir(run) == [] and written == []
    capsys.readouterr()

    argv = [subcommand] + [a.format(**fill) for a in good]
    assert main(argv) == EXIT_OK
    manifest_path = outputs[0] + ".manifest.json"
    assert written == outputs + [manifest_path]
    assert sorted(os.listdir(run)) == sorted(written)
    manifest = json.loads((run / manifest_path).read_text())
    assert manifest["command"] == ["mixkit"] + argv
    assert manifest["outputs"] == outputs
    wall = manifest["wall_clock_seconds"]
    assert wall >= 0.0
    assert 0.0 <= manifest["compute_seconds"] <= wall and 0.0 <= manifest["write_seconds"] <= wall
    assert manifest["runtime"] == {"python": platform.python_version(), "numpy": np.__version__,
                                   "scipy": scipy.__version__}


def test_usage_errors_exit_2(tmp_path, spec_file):
    out = str(tmp_path / "x.csv")
    assert main(["density", "--spec", spec_file, "--grid", "5:1:100", "--out", out]) == EXIT_USAGE
    assert main(["crp", "--alpha", "-1", "--n", "4", "--runs", "10", "--out", out]) == EXIT_USAGE
    sim = str(tmp_path / "sim.csv")
    main(["simulate", "--spec", spec_file, "--n", "10", "--seed", "1", "--out", sim])
    assert main(["fit", "--method", "em", "--data", sim, "--G", "50", "--out", out]) == EXIT_USAGE


def test_parse_errors_exit_3(tmp_path, spec_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = str(tmp_path / "x.csv")
    assert main(["density", "--spec", str(bad), "--out", out]) == EXIT_PARSE
    assert main(["fit", "--method", "em", "--data", str(tmp_path / "absent.csv"),
                 "--G", "2", "--out", out]) == EXIT_PARSE
    wrong_kind = tmp_path / "prior.json"
    wrong_kind.write_text(json.dumps({"schema_version": 1, "kind": "negative_binomial",
                                      "alpha": 1.0, "beta": 1.0}))
    assert main(["modes", "--spec", str(wrong_kind), "--out", out]) == EXIT_USAGE


def test_numeric_errors_exit_4(tmp_path, spec_file):
    out = str(tmp_path / "x.csv")
    code = main(["modes", "--spec", spec_file, "--grid", "2.9:3.1:1500", "--out", out])
    assert code == EXIT_NUMERIC


def test_data_reader_accepts_header_and_headerless(tmp_path, spec_file):
    with_header = tmp_path / "a.csv"
    with_header.write_text("y\r\n1.0\r\n2.0\r\n-0.5\r\n")
    bare = tmp_path / "b.csv"
    bare.write_text("1.0\n2.0\n-0.5\n")
    from mixkit.cli import _read_data

    a = _read_data(str(with_header))
    b = _read_data(str(bare))
    assert np.array_equal(a, b)
    two_col = tmp_path / "c.csv"
    two_col.write_text("y1,y2\n1.0,2.0\n3.0,4.0\n")
    c = _read_data(str(two_col))
    assert c.shape == (2, 2)
    with pytest.raises(mk.DataFileError):
        _read_data(str(tmp_path / "missing.csv"))
    junk = tmp_path / "d.csv"
    junk.write_text("y\n1.0\nbanana\n")
    with pytest.raises(mk.DataFileError):
        _read_data(str(junk))


def test_console_entry_point_runs(tmp_path, spec_file):
    out = str(tmp_path / "sim.csv")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "mixkit.cli", "simulate", "--spec", spec_file,
         "--n", "10", "--seed", "1", "--out", out],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert len(read_rows(out)) == 10


PRIOR_DOC = {"schema_version": 1, "kind": "prior", "dirichlet_weights": [1.0, 1.0], "normal_mean_loc": 0.0,
             "normal_mean_scale": 10.0, "ig_shape": 2.0, "ig_scale": 1.0}


@pytest.mark.parametrize("field, value", [("normal_mean_scale", math.inf), ("normal_mean_loc", math.nan),
                                          ("normal_mean_scale", 1e200), ("normal_mean_scale", 1e-200),
                                          ("dirichlet_weights", [1.0, math.inf])])
def test_a_prior_document_with_a_bad_field_is_a_parse_error(tmp_path, capsys, field, value):
    data = tmp_path / "data.csv"
    ys = np.random.default_rng(0).normal(size=40) + np.repeat([0.0, 4.0], 20)
    data.write_text("y\n" + "".join(f"{v:.17g}\n" for v in ys), encoding="utf-8")
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({**PRIOR_DOC, field: value}), encoding="utf-8")
    out = tmp_path / "run" / "g.json"
    out.parent.mkdir()
    argv = ["fit", "--method", "gibbs", "--data", str(data), "--G", "2", "--burn-in", "5", "--samples", "10",
            "--prior", str(prior), "--out", str(out)]
    assert main(argv) == EXIT_PARSE
    assert field in capsys.readouterr().err
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("doc", [{"weight": "abc"}, {"weight": True}, {"sigma": "1"}])
def test_a_mixture_field_that_is_no_number_is_a_parse_error(tmp_path, capsys, doc):
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps({"schema_version": 1, "kind": "mixture", "family": "normal",
                                "atoms": [{"weight": 1.0, "mu": 0.0, "sigma": 1.0, **doc}]}), encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--spec", str(spec), "--n", "5", "--out", str(out)]) == EXIT_PARSE
    assert "mixture" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_seed_is_a_usage_error(tmp_path, spec_file, monkeypatch, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--spec", spec_file, "--n", "5", "--seed", "-1", "--out", str(out)]) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    monkeypatch.setenv("MIXKIT_SEED", "-1")
    assert main(["simulate", "--spec", spec_file, "--n", "5", "--out", str(out)]) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_y_max_names_the_flag(tmp_path, capsys):
    spec = tmp_path / "nb.json"
    spec.write_text(json.dumps({"schema_version": 1, "kind": "negative_binomial", "alpha": 3.0, "beta": 2.0}))
    out = tmp_path / "nb.csv"
    assert main(["compound", "--spec", str(spec), "--y-max", "-1", "--out", str(out)]) == EXIT_USAGE
    assert "--y-max" in capsys.readouterr().err
    assert not out.exists()


def two_column_data(tmp_path):
    data = tmp_path / "y1y2.csv"
    ys = np.random.default_rng(1).normal(size=(30, 2)).round() + 3.0
    data.write_text("y1,y2\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in ys), encoding="utf-8")
    return data


def test_fit_without_a_family_fits_two_column_data_as_bivariate(tmp_path):
    out = tmp_path / "fit.json"
    argv = ["fit", "--method", "em", "--data", str(two_column_data(tmp_path)), "--G", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads(out.read_text())["measure"]["family"] == "bivariate_normal"


@pytest.mark.parametrize("method", ["em", "hard-em"])
@pytest.mark.parametrize("family", ["normal", "poisson"])
def test_fit_rejects_a_named_univariate_family_on_two_column_data(tmp_path, capsys, method, family):
    data = two_column_data(tmp_path)
    out = tmp_path / "run" / "fit.json"
    out.parent.mkdir()
    argv = ["fit", "--method", method, "--family", family, "--data", str(data), "--G", "1", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert "must be one-dimensional" in capsys.readouterr().err
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("grid, lam, named", [
    ("-inf:5:10", 4.0, "grid lo"),
    ("0:1e400:10", 4.0, "grid hi"),
    ("0:nan:10", 4.0, "grid hi"),
    ("0:1e300:10", 4.0, "too many to tabulate"),
    (None, 1e300, "too many to tabulate"),
])
def test_a_density_grid_has_finite_ends_and_a_pmf_table_stays_bounded(tmp_path, capsys, grid, lam, named):
    spec = tmp_path / "pois.json"
    spec.write_text(json.dumps({**POIS_SPEC, "atoms": [{"weight": 1.0, "lam": lam}]}), encoding="utf-8")
    out = tmp_path / "run" / "pmf.csv"
    out.parent.mkdir()
    argv = ["density", "--spec", str(spec), "--out", str(out)] + ([f"--grid={grid}"] if grid else [])
    assert main(argv) == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("trials, parts", [(700, 3), (10**12, 2000)])
def test_a_dirichlet_multinomial_table_stays_bounded(tmp_path, capsys, trials, parts):
    spec = tmp_path / "dm.json"
    spec.write_text(json.dumps({"schema_version": 1, "kind": "dirichlet_multinomial", "trials": trials,
                                "concentration": [1.0] * parts}), encoding="utf-8")
    out = tmp_path / "run" / "dm.csv"
    out.parent.mkdir()
    assert main(["compound", "--spec", str(spec), "--out", str(out)]) == EXIT_USAGE
    assert "more than 200000 count vectors" in capsys.readouterr().err
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("lam", [1e19, 1e300])
def test_simulate_a_poisson_rate_numpy_cannot_sample_is_a_usage_error(tmp_path, capsys, lam):
    spec = tmp_path / "pois.json"
    spec.write_text(json.dumps({**POIS_SPEC, "atoms": [{"weight": 1.0, "lam": lam}]}), encoding="utf-8")
    out = tmp_path / "run" / "sim.csv"
    out.parent.mkdir()
    assert main(["simulate", "--spec", str(spec), "--n", "5", "--out", str(out)]) == EXIT_USAGE
    assert "lam" in capsys.readouterr().err
    assert os.listdir(out.parent) == []
    # the same rate still has a pmf table
    assert main(["density", "--spec", str(spec), "--grid=0:4:5", "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("argv", [["select-g", "--g-min", "1", "--g-max", "2", "--prior-draws", "1000"],
                                  ["fit", "--method", "gibbs", "--G", "2", "--burn-in", "2", "--samples", "2"]])
def test_data_whose_spread_overflows_is_named_without_a_warning(tmp_path, capsys, argv):
    data = tmp_path / "wide.csv"
    data.write_text("y\r\n-1e308\r\n0.0\r\n1e308\r\n", encoding="utf-8")
    out = tmp_path / "run" / "out"
    out.parent.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main(argv + ["--data", str(data), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines() and all(line.startswith("mixkit: ") for line in err.splitlines())
    assert "data" in err and "normal_mean_scale" not in err
    assert os.listdir(out.parent) == []
