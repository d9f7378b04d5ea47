"""Batch command-line front end.

Each subcommand is deterministic given its seed and returns what it produced:
RFC-4180 CSV (or a JSON report) with numbers at 17 significant digits, keyed
by output path, plus the fields of its manifest.  ``main`` alone writes: each
output atomically (temp file, then rename) in order, then one JSON manifest
beside the first output recording the command line, seed, effective
configuration, input and output paths, toolkit and library versions and
wall-clock time.  A command that fails writes nothing.

Exit codes: 0 success, 2 bad arguments, 3 input parse failure, 4 numerical
failure.  The default seed is 0, overridable by the MIXKIT_SEED environment
variable and then by --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import tempfile
import time
from itertools import combinations
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .bayes import (
    ConjugatePrior,
    EvidenceConfig,
    GibbsConfig,
    PredictiveDensityAt,
    WeightOfLargestVarianceComponent,
    combine_log_marginals,
    default_prior,
    evidence_over_G,
    run_gibbs,
    summarize_H,
)
from .compound import (
    BetaBinomialParams,
    DirichletMultinomialParams,
    NegativeBinomialParams,
    betabinom_pmf,
    dirmult_pmf,
    negbinom_pmf,
    negbinom_support_bound,
)
from .dp import crp_block_counts, expected_cluster_count
from .em import EMConfig, fit_report, run_em, run_hard_em
from .errors import (
    DataFileError,
    DegeneratePointError,
    DomainError,
    EmptyComponentError,
    IntervalTooSmallError,
    InvalidMeasureError,
    SpecDocumentError,
    _require_count,
)
from .models import MixtureModel, _logsumexp, log_weighted_densities
from .modelspec import document_for, load_document
from .modes import default_search_interval, find_modes
from .sampling import HMMSpec, sample_hmm, sample_mixture

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

ENV_SEED = "MIXKIT_SEED"
# select-g warns when an evidence estimate rests on fewer effective prior draws
EVIDENCE_ESS_FLOOR = 10.0


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mixkit-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_column(values):
    """CSV fields of one column: integers exactly, the rest (bools too, as 1
    and 0) at 17 significant digits.  The column's numpy dtype decides."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return list(map(str, arr.tolist()))
    return [format(v, ".17g") for v in arr.tolist()]


def _csv_text(header, columns):
    """RFC-4180 text (CRLF line ends) of a header and equal-length columns.

    No field needs quoting: headers are plain names and numbers hold no
    comma, quote or line break.
    """
    lines = [",".join(header), *map(",".join, zip(*map(_csv_column, columns)))]
    return "\r\n".join(lines) + "\r\n"


def _json_text(doc):
    return json.dumps(doc, indent=2) + "\n"


class Produced(NamedTuple):
    """What a subcommand made: output texts by path, in write order (the first
    path names the manifest), and the manifest's seed, config, inputs and extra."""

    outputs: dict
    seed: object
    config: dict
    inputs: list
    extra: dict


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"{ENV_SEED} must be an integer, got {env!r}")
    return 0


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be written lo:hi:points")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"cannot parse grid {text!r}")
    if not hi > lo:
        raise DomainError("grid needs hi > lo")
    return lo, hi, _require_count("grid points", points, 2)


def _read_data(path):
    """Read a data CSV: column y, columns y1,y2, or headerless numerics."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataFileError(f"cannot read {path}: {exc}")
    rows = [r for r in rows if r and any(f.strip() for f in r)]
    if not rows:
        raise DataFileError(f"{path} holds no data rows")

    def numeric(row):
        try:
            [float(f) for f in row]
            return True
        except ValueError:
            return False

    start = 0
    if not numeric(rows[0]):
        header = [f.strip() for f in rows[0]]
        start = 1
        if "y" in header:
            cols = [header.index("y")]
        elif "y1" in header and "y2" in header:
            cols = [header.index("y1"), header.index("y2")]
        else:
            raise DataFileError(f"{path}: header must name a column y (or y1 and y2)")
    else:
        width = len(rows[0])
        if width not in (1, 2):
            raise DataFileError(f"{path}: headerless data must have 1 or 2 columns")
        cols = list(range(width))
    out = []
    for k, row in enumerate(rows[start:], start=start + 1):
        try:
            out.append([float(row[c]) for c in cols])
        except (ValueError, IndexError):
            raise DataFileError(f"{path}: cannot parse line {k}")
    arr = np.asarray(out)
    return arr[:, 0] if arr.shape[1] == 1 else arr


def _load_spec(path, expected_kinds, what):
    obj = load_document(path)
    kind_map = {
        MixtureModel: "mixture",
        HMMSpec: "hmm",
        ConjugatePrior: "prior",
        BetaBinomialParams: "beta_binomial",
        NegativeBinomialParams: "negative_binomial",
        DirichletMultinomialParams: "dirichlet_multinomial",
    }
    kind = kind_map.get(type(obj))
    if kind not in expected_kinds:
        raise DomainError(f"{what} expects a spec of kind {expected_kinds}, got {kind!r}")
    return obj


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args):
    seed = _resolve_seed(args)
    n = args.n
    obj = _load_spec(args.spec, ("mixture", "hmm"), "simulate")
    if isinstance(obj, HMMSpec):
        z, data = sample_hmm(obj, n, seed)
    else:
        sample = sample_mixture(obj, n, seed)
        data, z = sample.data, sample.z
    if obj.family == "bivariate_normal":
        header, columns = ["y1", "y2", "z"], [data[:, 0], data[:, 1], z]
    else:
        header, columns = ["y", "z"], [data, z]
    return Produced({args.out: _csv_text(header, columns)}, seed, {"n": n, "spec": args.spec},
                    [args.spec], {"rows": n})


def _density_table(model, grid):
    if model.family == "bivariate_normal":
        raise DomainError("density tables support univariate families only")
    if model.family == "poisson":
        lams = [c.lam for c in model.measure.components]
        top = max(lams)
        if grid is None:
            y_max = int(math.ceil(top + 20.0 * math.sqrt(top)))
            ys = np.arange(0, y_max + 1)
        else:
            lo, hi, _ = grid
            ys = np.arange(max(0, int(math.ceil(lo))), int(math.floor(hi)) + 1)
            if ys.size == 0:
                raise DomainError("grid covers no non-negative integers")
    else:
        lo, hi, points = grid if grid is not None else (*default_search_interval(model), 2001)
        ys = np.linspace(lo, hi, points)
    vals = np.exp(_logsumexp(log_weighted_densities(model, ys)))
    if model.family == "poisson":
        return ys, vals, {"pmf_sum": math.fsum(vals.tolist())}
    return ys, vals, {"trapezoid_integral": float(np.trapezoid(vals, ys))}


def _cmd_density(args):
    model = _load_spec(args.spec, ("mixture",), "density")
    grid = _parse_grid(args.grid) if args.grid else None
    xs, vals, extra = _density_table(model, grid)
    name = "pmf" if model.family == "poisson" else "density"
    return Produced({args.out: _csv_text(["y", name], [xs, vals])}, None,
                    {"spec": args.spec, "grid": args.grid}, [args.spec], extra)


def _gibbs_outputs(sample, grid):
    lo, hi, points = grid
    xs = np.linspace(lo, hi, points)
    predictive = summarize_H(sample, PredictiveDensityAt(tuple(xs)))
    top_weight = summarize_H(sample, WeightOfLargestVarianceComponent())
    chain_lines = []
    for snap in sample.snapshots:
        rec = {
            "iteration": snap.iteration,
            "weights": [w for w, _ in snap.measure.atoms],
            "mu": [c.mu for c in snap.measure.components],
            "sigma": [c.sigma for c in snap.measure.components],
        }
        chain_lines.append(json.dumps(rec))
    pred_columns = [xs, predictive.mean, predictive.quantiles["2.5%"], predictive.quantiles["97.5%"]]
    report = {
        "method": "gibbs",
        "n_snapshots": len(sample),
        "summaries": {
            "weight_of_largest_variance_component": {
                "mean": float(top_weight.mean),
                "quantiles": {k: float(v) for k, v in top_weight.quantiles.items()},
            }
        },
        "predictive_grid": {"lo": lo, "hi": hi, "points": points},
    }
    return report, "\n".join(chain_lines) + "\n", pred_columns


def _warn_em(state):
    """One stderr line for a soft-EM fit that did not converge or re-seeded components."""
    notes = []
    if not state.converged:
        notes.append(f"did not converge in {state.iteration} iterations")
    if state.reseeds:
        events = ", ".join(f"component {g} at iteration {it}" for it, g in state.reseeds)
        notes.append(f"re-seeded {events}")
    print(f"mixkit: warning: em {'; '.join(notes)}", file=sys.stderr)


def _cmd_fit(args):
    seed = _resolve_seed(args)
    data = _read_data(args.data)
    G = args.G
    if data.ndim == 2:
        family = "bivariate_normal"
    elif args.family == "poisson":
        family = "poisson"
    else:
        family = "normal"

    if args.method in ("em", "hard-em"):
        config = EMConfig(
            max_iter=args.max_iter,
            tol=args.tol,
            variance_floor=args.variance_floor,
            restarts=args.restarts,
            seed=seed,
        )
        runner = run_em if args.method == "em" else run_hard_em
        state = runner(data, G, family, config)
        if args.method == "em" and (not state.converged or state.reseeds):
            _warn_em(state)
        report = fit_report(state, config)
        report["method"] = args.method
        report["n_observations"] = len(data)
        extra = {
            "final_loglik": state.loglik,
            "iterations": state.iteration,
            "converged": state.converged,
            "reseeds": [list(event) for event in state.reseeds],
        }
        return Produced({args.out: _json_text(report)}, seed, report["config"], [args.data], extra)

    # gibbs
    if family != "normal":
        raise DomainError("gibbs fitting supports univariate Normal data only")
    if len(data) < G:
        raise DomainError("need 1 <= G <= number of observations")
    prior = (
        _load_spec(args.prior, ("prior",), "fit --prior")
        if args.prior
        else default_prior(data, G)
    )
    config = GibbsConfig(burn_in=args.burn_in, n_samples=args.samples, thin=args.thin, seed=seed)
    sample = run_gibbs(data, G, prior, config)
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        span = float(data.max() - data.min()) or 1.0
        grid = (float(data.min()) - 0.1 * span, float(data.max()) + 0.1 * span, 101)
    report, chain_text, pred_columns = _gibbs_outputs(sample, grid)
    chain_path = args.out + ".chain.ndjson"
    pred_path = args.out + ".predictive.csv"
    report.update(
        {
            "G": G,
            "seed": seed,
            "config": {"burn_in": config.burn_in, "n_samples": config.n_samples, "thin": config.thin},
            "prior": document_for(prior),
            "chain_path": chain_path,
            "predictive_path": pred_path,
        }
    )
    outputs = {
        args.out: _json_text(report),
        chain_path: chain_text,
        pred_path: _csv_text(["y", "predictive_mean", "predictive_q025", "predictive_q975"],
                             pred_columns),
    }
    inputs = [args.data] + ([args.prior] if args.prior else [])
    return Produced(outputs, seed, report["config"], inputs, {"n_snapshots": len(sample)})


def _cmd_select_g(args):
    seed = _resolve_seed(args)
    data = _read_data(args.data)
    if data.ndim != 1:
        raise DomainError("select-g expects univariate data")
    sizes = list(range(args.g_min, args.g_max + 1))
    config = EvidenceConfig(n_prior_draws=args.prior_draws, seed=seed)
    estimates = evidence_over_G(data, sizes, lambda G: default_prior(data, G), config)
    prior_on_G = np.full(len(sizes), 1.0 / len(sizes))
    posterior = combine_log_marginals([e.log_value for e in estimates], prior_on_G)
    columns = [sizes, [e.log_value for e in estimates], posterior]
    thin = [f"G={G} ({e.ess:.3g})" for G, e in zip(sizes, estimates) if not e.ess >= EVIDENCE_ESS_FLOOR]
    if thin:
        print(
            f"mixkit: warning: evidence for {', '.join(thin)} rests on an effective sample size "
            f"below {EVIDENCE_ESS_FLOOR:g} of {args.prior_draws} prior draws; "
            "its log_marginal is unreliable",
            file=sys.stderr,
        )
    extra = {
        "standard_errors": [e.log_se for e in estimates],
        "underflowed": [e.underflowed for e in estimates],
        "effective_sample_sizes": [e.ess for e in estimates],
        "max_weight_shares": [e.max_weight_share for e in estimates],
        "posterior_sum": math.fsum(posterior.tolist()),
    }
    return Produced({args.out: _csv_text(["G", "log_marginal", "posterior"], columns)}, seed,
                    {"g_min": args.g_min, "g_max": args.g_max, "prior_draws": args.prior_draws},
                    [args.data], extra)


def _compositions(n, k):
    for dividers in combinations(range(n + k - 1), k - 1):
        counts = []
        prev = -1
        for d in dividers:
            counts.append(d - prev - 1)
            prev = d
        counts.append(n + k - 1 - prev - 1)
        yield tuple(counts)


def _cmd_compound(args):
    params = _load_spec(
        args.spec, ("beta_binomial", "negative_binomial", "dirichlet_multinomial"), "compound"
    )
    if isinstance(params, BetaBinomialParams):
        ys = range(params.trials + 1)
        pmf = [betabinom_pmf(params, y) for y in ys]
        header, columns = ["y", "pmf"], [ys, pmf]
    elif isinstance(params, NegativeBinomialParams):
        if args.y_max is None:
            y_max = negbinom_support_bound(params)
        else:
            y_max = _require_count("--y-max", args.y_max)
        ys = range(y_max + 1)
        pmf = [negbinom_pmf(params, y) for y in ys]
        header, columns = ["y", "pmf"], [ys, pmf]
    else:
        k = len(params.concentration)
        n_cells = math.comb(params.trials + k - 1, k - 1)
        if n_cells > 200_000:
            raise DomainError(f"{n_cells} count vectors is too many to tabulate")
        cells = list(_compositions(params.trials, k))
        pmf = [dirmult_pmf(params, c) for c in cells]
        header = [f"y{j + 1}" for j in range(k)] + ["pmf"]
        columns = [*zip(*cells), pmf]
    return Produced({args.out: _csv_text(header, columns)}, None, {"spec": args.spec}, [args.spec],
                    {"pmf_sum": math.fsum(pmf)})


def _cmd_modes(args):
    model = _load_spec(args.spec, ("mixture",), "modes")
    if model.family != "normal":
        raise DomainError("mode counting supports univariate Normal mixtures only")
    if args.grid:
        lo, hi, points = _parse_grid(args.grid)
        locations = find_modes(model, (lo, hi), points)
    else:
        locations = find_modes(model)
    print(len(locations))
    table = _csv_text(["mode", "location"], [range(1, len(locations) + 1), locations])
    return Produced({args.out: table}, None, {"spec": args.spec, "grid": args.grid}, [args.spec],
                    {"count": len(locations), "locations": [float(x) for x in locations]})


def _cmd_crp(args):
    seed = _resolve_seed(args)
    alpha, n, runs = args.alpha, args.n, args.runs
    clusters = crp_block_counts(alpha, n, runs, seed)
    histogram = np.bincount(clusters, minlength=n + 1)[1:]
    expected = expected_cluster_count(alpha, n)
    columns = [range(1, n + 1), histogram, histogram / runs]
    print(f"expected_clusters {format(expected, '.17g')}")
    return Produced({args.out: _csv_text(["clusters", "runs", "frequency"], columns)}, seed,
                    {"alpha": alpha, "n": n, "runs": runs}, [],
                    {"empirical_mean": float(clusters.mean()), "expected_clusters": expected})


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixkit",
        description="Finite-mixture toolkit: simulation, fitting, model selection, tables.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${ENV_SEED} or 0)")

    p = sub.add_parser("simulate", help="draw labeled observations from a mixture or hmm spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("density", help="tabulate a mixture density or pmf on a grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", default=None, help="lo:hi:points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("fit", help="fit a mixture by em, hard-em or gibbs")
    p.add_argument("--method", choices=("em", "hard-em", "gibbs"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--G", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=("normal", "poisson"), default="normal")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--variance-floor", type=float, default=None)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--prior", default=None, help="prior spec document (gibbs only)")
    p.add_argument("--grid", default=None, help="predictive grid lo:hi:points (gibbs only)")
    add_seed(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("select-g", help="estimate the posterior over the number of components")
    p.add_argument("--data", required=True)
    p.add_argument("--g-min", type=int, required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--prior-draws", type=int, default=5000)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_select_g)

    p = sub.add_parser("compound", help="tabulate a compound distribution pmf")
    p.add_argument("--spec", required=True)
    p.add_argument("--y-max", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compound)

    p = sub.add_parser("modes", help="count and locate the modes of a Normal mixture")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", default=None, help="lo:hi:points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_modes)

    p = sub.add_parser("crp", help="histogram of cluster counts under sequential seating")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_crp)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        produced = args.func(args)
    except (SpecDocumentError, DataFileError) as exc:
        print(f"mixkit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegeneratePointError, EmptyComponentError, IntervalTooSmallError) as exc:
        print(f"mixkit: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainError, InvalidMeasureError) as exc:
        print(f"mixkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    computed = time.monotonic()
    for path, text in produced.outputs.items():
        _atomic_write_text(path, text)
    written = time.monotonic()
    manifest = {
        "command": ["mixkit"] + list(argv),
        "seed": produced.seed,
        "config": produced.config,
        "inputs": produced.inputs,
        "outputs": list(produced.outputs),
        "version": __version__,
        "runtime": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_clock_seconds": written - started,
        "compute_seconds": computed - started,
        "write_seconds": written - computed,
        "extra": produced.extra,
    }
    _atomic_write_text(next(iter(produced.outputs)) + ".manifest.json", _json_text(manifest))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
