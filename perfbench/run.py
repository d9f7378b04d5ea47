#!/usr/bin/env python3
"""mixkit's benchmark: one closed-loop client driving ``mixkit.cli.main`` in-process.

    python3 perfbench/run.py --workload {em_fit,gibbs_fit,select_g,tables} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the repository root is the parent of this directory.  The
run writes its inputs and outputs under ``.perfbench/`` in the repository
and removes them at the end.  One process, one client thread, BLAS capped at
one thread.  A run:

1. times ``import mixkit.cli`` in fresh interpreters (setup);
2. writes the seeded inputs (numpy only, see ``inputs.py``);
3. runs the workload's op once (warm-up, kept for the rerun comparison);
4. with ``--trace 0``, times one fresh ``python -m mixkit.cli`` process on the
   op's first command (cold call), whose artifacts must equal the first op's;
5. repeats the op back to back for ``--seconds``;
6. reruns the op into a fresh directory and compares its artifacts, manifests
   excepted, byte for byte with the first op;
7. checks every op's outputs and prints a report, then one JSON line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced ops (see ``spans.py``), prints the per-layer metrics, and writes
the raw spans to ``.perfbench/spans-<workload>-<seed>.ndjson.gz``.  All
times are wall-clock.  The benchmark's own tests:
``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("cold_call_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Op:
    ns: int
    stdouts: list
    error: str | None
    opdir: Path
    spans: list | None = None
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def ms(self):
        return self.ns * 1e-6


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def parse_importtime(stderr):
    """Cumulative ms of the ``mixkit.cli`` import and of the first ``scipy.special``."""
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        name = parts[2].strip()
        if name in ("mixkit.cli", "scipy.special") and name not in found:
            found[name] = int(parts[1]) / 1000.0
    return found["mixkit.cli"], found["scipy.special"]


def time_imports(importtime):
    """Wall seconds (and -X importtime figures) of fresh ``import mixkit.cli`` runs."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import mixkit.cli"]
    walls, parsed = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"import mixkit.cli failed: {proc.stderr.strip()[-500:]}")
        if importtime:
            parsed.append(parse_importtime(proc.stderr))
    return walls, parsed


def run_op(cli_main, commands, opdir):
    """One op: every command of the workload, in ``opdir``, timed as a whole."""
    opdir.mkdir(parents=True)
    stdouts, error = [], None
    previous = os.getcwd()
    os.chdir(opdir)
    start = time.perf_counter_ns()
    try:
        for command in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli_main(list(command.argv))
            stdouts.append(out.getvalue())
            if code != 0:
                error = f"{command.argv[0]} exited {code}: {err.getvalue().strip()}"
                break
    except (Exception, SystemExit) as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter_ns()
        os.chdir(previous)
    return Op(ns=end - start, stdouts=stdouts, error=error, opdir=opdir)


def cold_call(command, opdir):
    """One fresh ``python -m mixkit.cli`` process on ``command``, timed from start to exit."""
    opdir.mkdir(parents=True)
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "mixkit.cli", *command.argv], env=child_env(),
                          cwd=opdir, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    end = time.perf_counter_ns()
    error = None if proc.returncode == 0 else f"cold call exited {proc.returncode}: {proc.stderr.strip()}"
    return Op(ns=end - start, stdouts=[proc.stdout], error=error, opdir=opdir)


def tail(latencies_ms):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  With too few samples for any
    such percentile the maximum is returned and labelled p100.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based; TAIL_BEYOND samples lie above it
    return ordered[rank - 1], 100.0 * rank / n, n


def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "mixkit").glob("*.py")))


def git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head[:12]
    except OSError:
        return "unknown"


def judge(workload, ops, ref):
    for op in ops:
        if op.error:
            op.problems.append(op.error)
        else:
            problems, facts = workloads.check(workload, op.opdir, op.stdouts, ref)
            op.problems += problems
            op.facts.update(facts)


def same_as_first(first, op, label, names=None):
    """Fail ``op`` unless its artifacts, manifests excepted, equal the first op's byte for byte."""
    if op.error:
        op.problems.append(op.error)
    elif not first.error:
        diffs = workloads.compare_artifacts(workloads.artifacts(first.opdir, names),
                                            workloads.artifacts(op.opdir, names))
        op.problems += [f"{label}: {d}" for d in diffs]


def run(workload, seed, seconds, traced):
    from mixkit.cli import main as cli_main

    lines = [f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(traced)}",
             f"commit {git_commit()} | python {platform.python_version()} numpy {numpy.__version__} "
             f"scipy {scipy.__version__} | nproc {os.cpu_count()} | BLAS threads {BLAS_THREADS} "
             f"| src/mixkit {src_line_count()} lines"]
    walls, importtimes = time_imports(importtime=traced)

    work = WORKDIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = inputs.write_inputs(work / "inputs", seed)
        lines.append("inputs sha256: " + " ".join(f"{k}={v}" for k, v in inputs.file_hashes(paths).items()))
        commands = workloads.commands(workload, paths, seed)
        ref = workloads.references(workload, paths)

        first = run_op(cli_main, commands, work / "first")
        cold = [] if traced else [cold_call(commands[0], work / "cold")]

        tracer = spans.Tracer()
        targets = spans.wrap_targets() if traced else None
        ops = []
        window_start = time.perf_counter()
        deadline = window_start + seconds
        while True:
            opdir = work / "ops" / f"{len(ops):05d}"
            if traced and len(ops) % 2 == 1:
                tracer.reset()
                with spans.Installed(tracer, targets):
                    op = run_op(cli_main, commands, opdir)
                op.spans = list(tracer.spans)
                op.facts["trace_errors"] = tracer.errors
            else:
                op = run_op(cli_main, commands, opdir)
            ops.append(op)
            # a traced run needs at least one plain and one traced op
            if time.perf_counter() >= deadline and len(ops) >= (2 if traced else 1):
                break
        window_s = time.perf_counter() - window_start

        rerun = run_op(cli_main, commands, work / "rerun")
        judge(workload, [first] + ops + [rerun], ref)
        same_as_first(first, rerun, "rerun")
        for op in cold:
            same_as_first(first, op, "cold call", commands[0].outputs)
        for op in ops:
            if op.spans is not None:
                op.facts["bytes_written"] = sum(p.stat().st_size for p in op.opdir.iterdir())

        judged = [first] + cold + ops + [rerun]
        attempted = len(judged)
        failed = sum(1 for op in judged if op.problems)
        lines.append(f"ops: attempted {attempted} (warm-up, {'cold call, ' if cold else ''}"
                     f"{len(ops)} timed, rerun), failed {failed}, fail_ratio {failed / attempted:.6g}")
        lines += [f"  FAIL {p}" for op in judged for p in op.problems][:10]
        if workload == "select_g":
            lines.append("note: select_g checks shape and normalisation only; the winning G is not "
                         "judged because the prior-sampling evidence is unreliable at n=1000 "
                         "(ROADMAP item 3)")

        if traced:
            metrics = layer_report(ops, importtimes, lines, workload, seed)
        else:
            metrics = end_to_end_report(walls, cold[0], ops, window_s, failed, attempted, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def end_to_end_report(walls, cold, ops, window_s, failed, attempted, lines):
    latencies = [op.ms for op in ops]
    tail_ms, tail_pct, n = tail(latencies)
    completed = sum(1 for op in ops if not op.problems)
    values = {
        "setup_s": statistics.median(walls),
        "cold_call_s": cold.ns * 1e-9,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "ops_per_s": completed / window_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(walls)} fresh `import mixkit.cli`",
        "cold_call_s": "one fresh `python -m mixkit.cli` on the op's first command",
        "op_p50_ms": f"median of {n} ops",
        "op_tail_ms": f"p{tail_pct:.0f} of {n} ops, {min(TAIL_BEYOND, n - 1)} beyond it",
        "ops_per_s": f"{completed} ops in {window_s:.3f} s, 1 closed-loop client",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name:<14} {values[name]:>12.6g} {unit:<4} {notes[name]}")
    lines.append(f"{'fail_ratio':<14} {failed / attempted:>12.6g} {'-':<4} {failed} of {attempted} ops "
                 "(also the JSON's failed/attempted)")
    return metrics


def layer_report(ops, importtimes, lines, workload, seed):
    traced = [op for op in ops if op.spans is not None]
    plain = [op for op in ops if op.spans is None]
    per_op = [spans.op_layer_metrics(op.spans, op.ns, op.facts["bytes_written"], op.facts)
              for op in traced]
    values = {name: statistics.median(m[name] for m, _ in per_op) for name in per_op[0][0]}
    values["setup.mixkit_import_ms"] = statistics.median(t[0] for t in importtimes)
    values["setup.scipy_special_import_ms"] = statistics.median(t[1] for t in importtimes)
    values["trace.errors"] = sum(op.facts["trace_errors"] for op in traced)
    values["trace.overhead_ratio"] = (statistics.median(op.ms for op in traced)
                                      / statistics.median(op.ms for op in plain) - 1.0)
    metrics = {}
    for name, unit in spans.PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name:<44} {values[name]:>14.6g} {unit}")
    lines.append(f"tracing overhead {values['trace.overhead_ratio']:+.2%} "
                 f"({len(traced)} traced vs {len(plain)} plain ops, medians)")

    lines.append("per span name, mean per traced op: calls, inclusive ms, self ms")
    totals = {}
    for _, detail in per_op:
        for name, count in detail["calls"].items():
            row = totals.setdefault(name, [0, 0, 0])
            row[0] += count
            row[1] += detail["incl_ns"][name]
            row[2] += detail["self_ns"][name]
    for name, (calls, incl, own) in sorted(totals.items(), key=lambda kv: -kv[1][2])[:20]:
        k = len(per_op)
        lines.append(f"  {name:<46} {calls / k:>10.1f} {incl / k * 1e-6:>10.3f} {own / k * 1e-6:>10.3f}")

    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"spans-{workload}-{seed}.ndjson.gz"
    with gzip.open(out, "wt", encoding="utf-8") as fh:
        for k, op in enumerate(traced):
            fh.write(json.dumps({"op": k, "op_ns": op.ns, "spans": [s[:4] for s in op.spans]}) + "\n")
    lines.append(f"spans written to {out.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mixkit" / "cli.py").is_file():
        print(f"perfbench: no mixkit sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
