"""The four benchmark workloads: one op each, and the checks on its outputs.

An op is a fixed list of ``mixkit`` command lines, run in one directory with
relative output paths so that reruns elsewhere produce the same bytes.
Checks judge properties of the outputs, never their exact bits, so a kernel
change that legally moves the last digits still passes.

The soft-EM fits run a fixed iteration budget (``--tol 1e-300``) instead of
stopping at the default tolerance.  On this overlapping shape the default
stopping rule made the Normal fit cost from 1,700 to 3,000 kernel calls over
ten drawn samples, and three of the ten did not converge within 1,000
iterations, so op latency would measure the sample rather than the program.
A fixed budget keeps the work per op the same for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

EM_BUDGET = 200
POISSON_EM_BUDGET = 100
GIBBS_SAMPLES = 400
# Criterion 6 bounds the sup-norm error by 0.02 for a shape peaking at 0.2;
# this shape peaks near 0.53, and 48 probe seeds stayed below 0.05.
GIBBS_SUP_BOUND = 0.08
MONOTONE_SLACK = 1e-9  # the acceptance suite's allowance for EM trace rounding
CRP_MEAN_SE_BOUND = 5.0
KNOWN_MODE_COUNTS = {"two_separated.json": 2, "overlapping.json": 1, "comb.json": 3}
CRP_CASES = ((1.0, 8, 100_000), (1.0, 500, 200))
WORKLOADS = ("em_fit", "gibbs_fit", "select_g", "tables")


@dataclass(frozen=True)
class Command:
    argv: tuple
    outputs: tuple  # relative paths this command writes, manifests excluded


def commands(workload, paths, seed):
    """The op of ``workload`` as a tuple of Commands."""
    s = str(int(seed))
    normal = str(paths["normal_2000.csv"])
    if workload == "em_fit":
        return (
            Command(("fit", "--method", "em", "--data", normal, "--G", "3", "--restarts", "3",
                     "--max-iter", str(EM_BUDGET), "--tol", "1e-300", "--seed", s,
                     "--out", "em_normal.json"), ("em_normal.json",)),
            Command(("fit", "--method", "hard-em", "--data", normal, "--G", "3", "--restarts", "3",
                     "--seed", s, "--out", "hard_em_normal.json"), ("hard_em_normal.json",)),
            Command(("fit", "--method", "em", "--family", "poisson", "--data",
                     str(paths["poisson_2000.csv"]), "--G", "2", "--restarts", "3",
                     "--max-iter", str(POISSON_EM_BUDGET), "--tol", "1e-300", "--seed", s,
                     "--out", "em_poisson.json"), ("em_poisson.json",)),
        )
    if workload == "gibbs_fit":
        return (
            Command(("fit", "--method", "gibbs", "--data", normal, "--G", "3", "--burn-in", "200",
                     "--samples", str(GIBBS_SAMPLES), "--seed", s, "--out", "gibbs.json"),
                    ("gibbs.json", "gibbs.json.chain.ndjson", "gibbs.json.predictive.csv")),
        )
    if workload == "select_g":
        return (
            Command(("select-g", "--data", str(paths["normal_1000.csv"]), "--g-min", "1",
                     "--g-max", "3", "--prior-draws", "2000", "--seed", s, "--out", "select_g.csv"),
                    ("select_g.csv",)),
        )
    if workload == "tables":
        spec = lambda name: str(paths[name])  # noqa: E731
        cmds = [
            Command(("simulate", "--spec", spec("overlapping.json"), "--n", "2000", "--seed", s,
                     "--out", "sim_mixture.csv"), ("sim_mixture.csv",)),
            Command(("simulate", "--spec", spec("hmm.json"), "--n", "2000", "--seed", s,
                     "--out", "sim_hmm.csv"), ("sim_hmm.csv",)),
            Command(("density", "--spec", spec("overlapping.json"), "--grid=-8:10:401",
                     "--out", "density_normal.csv"), ("density_normal.csv",)),
            Command(("density", "--spec", spec("poisson.json"), "--out", "density_poisson.csv"),
                    ("density_poisson.csv",)),
        ]
        for name in KNOWN_MODE_COUNTS:
            out = "modes_" + name.replace(".json", ".csv")
            cmds.append(Command(("modes", "--spec", spec(name), "--out", out), (out,)))
        cmds += [
            Command(("compound", "--spec", spec("beta_binomial.json"), "--out", "beta_binomial.csv"),
                    ("beta_binomial.csv",)),
            Command(("compound", "--spec", spec("negative_binomial.json"), "--y-max", "20",
                     "--out", "negative_binomial.csv"), ("negative_binomial.csv",)),
            Command(("compound", "--spec", spec("dirichlet_multinomial.json"),
                     "--out", "dirichlet_multinomial.csv"), ("dirichlet_multinomial.csv",)),
        ]
        for alpha, n, runs in CRP_CASES:
            out = f"crp_n{n}.csv"
            cmds.append(Command(("crp", "--alpha", format(alpha, "g"), "--n", str(n), "--runs",
                                 str(runs), "--seed", s, "--out", out), (out,)))
        return tuple(cmds)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# References computed by the benchmark itself, once per run.


def references(workload, paths):
    """Reference values for the checks, from the input files as the program reads them."""
    column = lambda name: np.loadtxt(paths[name], skiprows=1, ndmin=1)  # noqa: E731
    ref = {}
    if workload == "em_fit":
        ref["normal_loglik"] = inputs.normal_loglik(column("normal_2000.csv"))
        ref["poisson_loglik"] = inputs.poisson_loglik(column("poisson_2000.csv"))
    if workload == "select_g":
        ref["g1_log_evidence"] = g1_log_evidence(column("normal_1000.csv"))
    return ref


def g1_log_evidence(y):
    """Closed-form Normal-inverse-Gamma evidence under the G=1 default prior.

    The prior is the one ``mixkit.bayes.default_prior`` documents: mean at
    the midrange, mean-scale equal to the range, shape 2, scale the sample
    variance.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    lo, hi = float(y.min()), float(y.max())
    m0, k0 = 0.5 * (lo + hi), (hi - lo) ** -2.0
    a0, b0 = 2.0, float(y.var())
    ybar = float(y.mean())
    kn, an = k0 + n, a0 + 0.5 * n
    bn = b0 + 0.5 * float(np.sum((y - ybar) ** 2)) + 0.5 * k0 * n * (ybar - m0) ** 2 / kn
    return (-0.5 * n * math.log(2.0 * math.pi) + 0.5 * math.log(k0 / kn)
            + a0 * math.log(b0) - an * math.log(bn) + math.lgamma(an) - math.lgamma(a0))


# ---------------------------------------------------------------------------
# Checks.  Each returns (problems, facts): a list of what is wrong, and
# figures the trace needs from the outputs.


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _check_em_report(path, soft, budget, reference, problems):
    rep = json.loads(Path(path).read_text(encoding="utf-8"))
    trace = np.asarray(rep["loglik_trace"], dtype=float)
    name = Path(path).name
    if not np.all(np.isfinite(trace)) or np.any(np.diff(trace) < -MONOTONE_SLACK):
        problems.append(f"{name}: log-likelihood trace decreases")
    if len(trace) != rep["iterations"] + 1:
        problems.append(f"{name}: trace length does not match iterations")
    if soft:
        if not (rep["converged"] or rep["iterations"] == budget):
            problems.append(f"{name}: stopped early without converging")
        if not trace[-1] >= reference:
            problems.append(f"{name}: final log-likelihood {trace[-1]} below the generating model's {reference}")
    elif not rep["converged"]:
        problems.append(f"{name}: hard EM did not converge")
    return rep["iterations"]


def check_em_fit(opdir, stdouts, ref):
    problems = []
    kept = _check_em_report(opdir / "em_normal.json", True, EM_BUDGET, ref["normal_loglik"], problems)
    _check_em_report(opdir / "hard_em_normal.json", False, None, None, problems)
    kept += _check_em_report(opdir / "em_poisson.json", True, POISSON_EM_BUDGET,
                             ref["poisson_loglik"], problems)
    # each soft fit's returned restart made (iterations + 1) kernel calls
    return problems, {"kept_kernel_calls": kept + 2}


def check_gibbs_fit(opdir, stdouts, ref):
    problems = []
    rep = json.loads((opdir / "gibbs.json").read_text(encoding="utf-8"))
    chain = (opdir / "gibbs.json.chain.ndjson").read_text(encoding="utf-8").splitlines()
    if not rep["n_snapshots"] == len(chain) == GIBBS_SAMPLES:
        problems.append(f"snapshots {rep['n_snapshots']}, chain lines {len(chain)}, expected {GIBBS_SAMPLES}")
    _, rows = _rows(opdir / "gibbs.json.predictive.csv")
    grid = np.array([r[0] for r in rows])
    mean = np.array([r[1] for r in rows])
    if len(rows) != 101:
        problems.append(f"predictive grid has {len(rows)} points, expected 101")
    sup = float(np.max(np.abs(mean - inputs.normal_density(grid))))
    if not sup < GIBBS_SUP_BOUND:
        problems.append(f"predictive sup-norm error {sup} not below {GIBBS_SUP_BOUND}")
    return problems, {}


def check_select_g(opdir, stdouts, ref):
    """Shape and normalisation only.  The winning G is not judged: the
    prior-sampling evidence is unreliable at this n (ROADMAP item 3)."""
    problems = []
    header, rows = _rows(opdir / "select_g.csv")
    if header != ["G", "log_marginal", "posterior"] or [r[0] for r in rows] != [1.0, 2.0, 3.0]:
        problems.append("expected rows for G = 1, 2, 3")
        return problems, {}
    if not all(math.isfinite(r[1]) for r in rows):
        problems.append("a log-marginal is not finite")
    if abs(math.fsum(r[2] for r in rows) - 1.0) > 1e-12:
        problems.append("posterior over G does not sum to 1 within 1e-12")
    return problems, {"g1_evidence_err_nats": rows[0][1] - ref["g1_log_evidence"]}


def _expected_clusters(alpha, n):
    mean = math.fsum(alpha / (alpha + i) for i in range(n))
    var = math.fsum(alpha * i / (alpha + i) ** 2 for i in range(n))
    return mean, var


def _negbinom_pmf(alpha, beta, y):
    return math.exp(math.lgamma(alpha + y) - math.lgamma(y + 1.0) - math.lgamma(alpha)
                    - y * math.log1p(beta) + alpha * (math.log(beta) - math.log1p(beta)))


def check_tables(opdir, stdouts, ref):
    problems = []
    for name, n, states in (("sim_mixture.csv", 2000, 3), ("sim_hmm.csv", 2000, 2)):
        header, rows = _rows(opdir / name)
        if header != ["y", "z"] or len(rows) != n:
            problems.append(f"{name}: expected {n} rows of y,z")
        elif not all(math.isfinite(r[0]) and r[1] in range(1, states + 1) for r in rows):
            problems.append(f"{name}: bad value or label")

    _, rows = _rows(opdir / "density_normal.csv")
    xs, ds = np.array(rows).T
    if abs(float(np.trapezoid(ds, xs)) - 1.0) > 1e-6:
        problems.append("density_normal.csv: trapezoid integral not within 1e-6 of 1")
    for name in ("density_poisson.csv", "beta_binomial.csv", "dirichlet_multinomial.csv"):
        _, rows = _rows(opdir / name)
        if abs(math.fsum(r[-1] for r in rows) - 1.0) > 1e-9:
            problems.append(f"{name}: pmf does not sum to 1")
    _, rows = _rows(opdir / "negative_binomial.csv")
    exact = [_negbinom_pmf(3.0, 2.0, y) for y in range(21)]
    if [r[0] for r in rows] != list(range(21)) or any(
            abs(r[1] - p) > 1e-10 * p for r, p in zip(rows, exact)):
        problems.append("negative_binomial.csv: pmf differs from the closed form")

    outs = iter(stdouts[4:])
    for name, known in KNOWN_MODE_COUNTS.items():
        printed = next(outs).strip()
        _, rows = _rows(opdir / ("modes_" + name.replace(".json", ".csv")))
        if printed != str(known) or len(rows) != known:
            problems.append(f"modes {name}: found {printed!r}, expected {known}")
    outs = iter(stdouts[-len(CRP_CASES):])
    for alpha, n, runs in CRP_CASES:
        _, rows = _rows(opdir / f"crp_n{n}.csv")
        counts = np.array([r[1] for r in rows])
        mean, var = _expected_clusters(alpha, n)
        printed = next(outs).split()
        if counts.sum() != runs:
            problems.append(f"crp n={n}: histogram sums to {counts.sum()}, not {runs}")
            continue
        if printed[:1] != ["expected_clusters"] or abs(float(printed[1]) - mean) > 1e-12 * mean:
            problems.append(f"crp n={n}: printed expectation {printed} is not {mean}")
        empirical = float(np.dot([r[0] for r in rows], counts)) / runs
        if abs(empirical - mean) > CRP_MEAN_SE_BOUND * math.sqrt(var / runs):
            problems.append(f"crp n={n}: empirical mean {empirical} is more than "
                            f"{CRP_MEAN_SE_BOUND} standard errors from {mean}")
    return problems, {}


CHECKS = {
    "em_fit": check_em_fit,
    "gibbs_fit": check_gibbs_fit,
    "select_g": check_select_g,
    "tables": check_tables,
}


def check(workload, opdir, stdouts, ref):
    """Judge one op's outputs; a check that cannot even parse them fails the op."""
    try:
        return CHECKS[workload](Path(opdir), stdouts, ref)
    except (OSError, ValueError, KeyError, IndexError, StopIteration, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def artifacts(opdir, names=None):
    """The files an op left (all, or those in ``names``), manifests excluded, as {name: bytes}."""
    return {p.name: p.read_bytes() for p in sorted(Path(opdir).iterdir())
            if p.is_file() and not p.name.endswith(".manifest.json")
            and (names is None or p.name in names)}


def compare_artifacts(first, second):
    """Byte-for-byte differences between two ops' artifact maps."""
    if first.keys() != second.keys():
        return [f"artifact sets differ: {sorted(first.keys() ^ second.keys())}"]
    return [f"{name} differs" for name in first if first[name] != second[name]]
