"""Tests of the benchmark itself: metric names, input seeding, output checks
and span accounting.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
from mixkit.cli import main as cli_main  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "tables", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed_without_mixkit(tmp_path):
    probe = ("import sys, inputs; inputs.write_inputs(sys.argv[1], 5); "
             "assert not [m for m in sys.modules if m.startswith('mixkit')]")
    subprocess.run([sys.executable, "-c", probe, str(tmp_path / "a")], cwd=HERE, check=True)
    again = inputs.file_hashes(inputs.write_inputs(tmp_path / "b", 5))
    other = inputs.file_hashes(inputs.write_inputs(tmp_path / "c", 6))
    assert inputs.file_hashes({p.name: p for p in (tmp_path / "a").iterdir()}) == again
    for name in inputs.DATA_FILES:
        assert again[name] != other[name]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 31))) == (20, 100.0 * 20 / 30, 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       931 |     371918 |       scipy.special\n"
              "import time:     11283 |     724815 | mixkit.cli\n")
    assert run.parse_importtime(stderr) == (724.815, 371.918)


# ---------------------------------------------------------------------------
# Each check accepts a real op's outputs and rejects a corrupted copy.


@pytest.fixture(scope="module")
def good_ops(tmp_path_factory):
    base = tmp_path_factory.mktemp("ops")
    paths = inputs.write_inputs(base / "inputs", 7)
    ops = {}
    for name in workloads.WORKLOADS:
        op = run.run_op(cli_main, workloads.commands(name, paths, 7), base / name)
        assert op.error is None, op.error
        ops[name] = (op, workloads.references(name, paths))
    return ops


def _edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _edit_csv(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    path.write_text(buf.getvalue(), newline="")


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _scale_column(col, factor, row=None):
    def change(rows):
        for i, r in enumerate(rows[1:], start=1):
            if row is None or i == row:
                r[col] = repr(float(r[col]) * factor)
    return change


def _move_runs_to_the_top_bin(rows, moved=10):
    """Keep the histogram's total but shift its mean far from the expectation."""
    fullest = max(range(1, len(rows)), key=lambda i: int(rows[i][1]))
    rows[fullest][1] = str(int(rows[fullest][1]) - moved)
    rows[-1][1] = str(int(rows[-1][1]) + moved)


def _truncate_em(doc, keep):
    doc["loglik_trace"] = doc["loglik_trace"][:keep + 1]
    doc["iterations"] = keep


CORRUPTIONS = {
    "em_fit": [
        ("em_normal.json", lambda p: _edit_json(p, lambda d: d["loglik_trace"].__setitem__(
            -1, d["loglik_trace"][-2] - 1.0))),
        ("em_normal.json", lambda p: _edit_json(p, lambda d: d.__setitem__(
            "loglik_trace", [v - 1000.0 for v in d["loglik_trace"]]))),
        ("em_normal.json", lambda p: _edit_json(p, lambda d: _truncate_em(d, 150))),
        ("em_normal.json", lambda p: _edit_json(p, lambda d: d.__setitem__("iterations", 3))),
        ("hard_em_normal.json", lambda p: _edit_json(p, lambda d: d.__setitem__("converged", False))),
        ("em_poisson.json", lambda p: _edit_json(p, lambda d: d["loglik_trace"].__setitem__(
            -1, d["loglik_trace"][-2] - 1.0))),
        ("em_poisson.json", lambda p: p.write_text("{")),
    ],
    "gibbs_fit": [
        ("gibbs.json.chain.ndjson", _drop_last_line),
        ("gibbs.json", lambda p: _edit_json(p, lambda d: d.__setitem__("n_snapshots", 399))),
        ("gibbs.json.predictive.csv", lambda p: _edit_csv(p, _scale_column(1, 1.5, row=50))),
        ("gibbs.json.predictive.csv", _drop_last_line),
    ],
    "select_g": [
        ("select_g.csv", _drop_last_line),
        ("select_g.csv", lambda p: _edit_csv(p, lambda rows: rows[1].__setitem__(1, "inf"))),
        ("select_g.csv", lambda p: _edit_csv(p, _scale_column(2, 1.0 + 1e-9))),
    ],
    "tables": [
        ("sim_mixture.csv", _drop_last_line),
        ("sim_hmm.csv", lambda p: _edit_csv(p, lambda rows: rows[5].__setitem__(1, "4"))),
        ("density_normal.csv", lambda p: _edit_csv(p, _scale_column(1, 1.001))),
        ("density_poisson.csv", lambda p: _edit_csv(p, _scale_column(1, 1.001, row=4))),
        ("beta_binomial.csv", lambda p: _edit_csv(p, _scale_column(1, 1.01, row=3))),
        ("dirichlet_multinomial.csv", lambda p: _edit_csv(p, _scale_column(4, 0.5, row=9))),
        ("negative_binomial.csv", lambda p: _edit_csv(p, _scale_column(1, 1.0 + 1e-6, row=2))),
        ("modes_comb.csv", _drop_last_line),
        ("crp_n8.csv", lambda p: _edit_csv(p, lambda rows: rows[2].__setitem__(1, "1"))),
        ("crp_n500.csv", lambda p: _edit_csv(p, _move_runs_to_the_top_bin)),
    ],
}

STDOUT_CORRUPTIONS = [
    (4, "1\n"),  # README two-component shape has 2 modes
    (-1, "expected_clusters 6.5\n"),
    (-2, "expected_clusters\n"),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_real_outputs(good_ops, workload):
    op, ref = good_ops[workload]
    problems, _ = workloads.check(workload, op.opdir, op.stdouts, ref)
    assert problems == []


@pytest.mark.parametrize("workload, index", [(w, i) for w, cases in CORRUPTIONS.items()
                                             for i in range(len(cases))])
def test_checks_reject_a_corrupted_artifact(good_ops, workload, index, tmp_path):
    op, ref = good_ops[workload]
    copy = tmp_path / "op"
    shutil.copytree(op.opdir, copy)
    name, corrupt = CORRUPTIONS[workload][index]
    corrupt(copy / name)
    problems, _ = workloads.check(workload, copy, op.stdouts, ref)
    assert problems, f"{workload}: corrupted {name} passed the check"


@pytest.mark.parametrize("index, text", STDOUT_CORRUPTIONS)
def test_checks_reject_corrupted_printed_output(good_ops, index, text):
    op, ref = good_ops["tables"]
    stdouts = list(op.stdouts)
    stdouts[index] = text
    problems, _ = workloads.check("tables", op.opdir, stdouts, ref)
    assert problems


def test_rerun_comparison_ignores_manifests_only(good_ops, tmp_path):
    op, _ = good_ops["gibbs_fit"]
    copy = tmp_path / "op"
    shutil.copytree(op.opdir, copy)
    (copy / "gibbs.json.manifest.json").write_text("{}")
    assert workloads.compare_artifacts(workloads.artifacts(op.opdir), workloads.artifacts(copy)) == []
    chain = copy / "gibbs.json.chain.ndjson"
    data = bytearray(chain.read_bytes())
    data[10] ^= 1
    chain.write_bytes(bytes(data))
    assert workloads.compare_artifacts(workloads.artifacts(op.opdir), workloads.artifacts(copy))


# ---------------------------------------------------------------------------
# Span accounting.


def _traced_op(workload, tmp_path):
    paths = inputs.write_inputs(tmp_path / "inputs", 2)
    tracer = spans.Tracer()
    import mixkit.cli

    original = mixkit.cli.run_em
    with spans.Installed(tracer, spans.wrap_targets()):
        op = run.run_op(cli_main, workloads.commands(workload, paths, 2), tmp_path / "op")
    assert mixkit.cli.run_em is original
    assert op.error is None, op.error
    problems, facts = workloads.check(workload, op.opdir, op.stdouts,
                                      workloads.references(workload, paths))
    assert problems == []
    return op, list(tracer.spans), tracer.errors, facts


@pytest.mark.parametrize("workload", ["tables", "em_fit"])
def test_self_times_and_cli_self_add_up_to_the_op(workload, tmp_path):
    op, recorded, errors, facts = _traced_op(workload, tmp_path)
    assert errors == 0 and recorded
    metrics, _ = spans.op_layer_metrics(recorded, op.ns, 0, facts)
    _, own, _ = spans.self_times(recorded)
    assert (own >= 0).all()
    assert int(own.sum()) * 1e-6 + metrics["cli.self_ms"] == pytest.approx(op.ms, abs=1e-6)
    assert set(metrics) | {"setup.mixkit_import_ms", "setup.scipy_special_import_ms",
                           "trace.errors", "trace.overhead_ratio"} == {n for n, _ in spans.PER_LAYER}
    if workload == "em_fit":
        budget_calls = 3 * (workloads.EM_BUDGET + 1) + 3 * (workloads.POISSON_EM_BUDGET + 1)
        assert metrics["em.kernel_calls"] == budget_calls
        assert metrics["em.kept_iter_share"] == pytest.approx(1.0 / 3.0)
        assert metrics["special.logsumexp_calls"] >= budget_calls


def test_wrappers_sit_where_callers_look_functions_up():
    import scipy.special

    import mixkit.bayes
    import mixkit.cli
    import mixkit.em
    import mixkit.models

    targets = {(owner, attr): name for owner, attr, name in spans.wrap_targets()}
    assert targets[(mixkit.cli, "run_em")] == "em.run_em"
    assert targets[(mixkit.cli, "find_modes")] == "modes.find_modes"
    assert targets[(mixkit.em, "log_weighted_densities")] == "models.log_weighted_densities"
    assert targets[(mixkit.em, "logsumexp")] == "special.logsumexp"
    assert targets[(scipy.special, "logsumexp")] == "special.logsumexp"
    assert targets[(mixkit.bayes, "e_step")] == "em.e_step"
    assert targets[(mixkit.bayes, "gibbs_sweep")] == "bayes.gibbs_sweep"
    assert targets[(mixkit.models.MixingMeasure, "__post_init__")] == "models.MixingMeasure.__post_init__"
    assert not [name for name in targets.values() if name.split(".")[-1].startswith("_m_step")]
    assert not [name for name in targets.values() if name.startswith("cli.")]
