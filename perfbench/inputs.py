"""Seeded benchmark inputs, drawn with numpy alone.

Nothing here imports mixkit: a change to mixkit's samplers must not change
the data another workload's timings depend on.  Every data file comes from
its own generator keyed by (seed, file tag), so adding a file later leaves
the existing files' bytes alone.  The shapes are the README and acceptance
suite reference shapes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# (weight, mu, sigma): the acceptance suite's overlapping, unimodal shape.
OVERLAPPING = ((0.3, 2.0, 1.0), (0.5, 3.0, 0.5), (0.2, 3.4, 1.3))
# (weight, lam)
POISSON = ((0.7, 4.0), (0.3, 9.0))
# README two-component example (two modes) and the acceptance "comb" (three modes).
TWO_SEPARATED = ((0.5, -3.0, 1.0), (0.5, 3.0, 1.0))
COMB = ((0.1, 0.0, 0.6), (0.2, 1.5, 0.6), (0.3, 3.0, 0.6), (0.3, 4.5, 0.6), (0.1, 6.0, 0.6))


def _normal_doc(shape):
    return {
        "schema_version": 1,
        "kind": "mixture",
        "family": "normal",
        "atoms": [{"weight": w, "mu": m, "sigma": s} for w, m, s in shape],
    }


SPECS = {
    "overlapping.json": _normal_doc(OVERLAPPING),
    "two_separated.json": _normal_doc(TWO_SEPARATED),
    "comb.json": _normal_doc(COMB),
    "poisson.json": {
        "schema_version": 1,
        "kind": "mixture",
        "family": "poisson",
        "atoms": [{"weight": w, "lam": lam} for w, lam in POISSON],
    },
    "hmm.json": {
        "schema_version": 1,
        "kind": "hmm",
        "family": "normal",
        "initial": [0.5, 0.5],
        "transition": [[0.9, 0.1], [0.2, 0.8]],
        "emissions": [{"mu": 0.0, "sigma": 1.0}, {"mu": 5.0, "sigma": 1.0}],
    },
    "beta_binomial.json": {
        "schema_version": 1, "kind": "beta_binomial", "trials": 10, "alpha": 6.0, "beta": 14.0,
    },
    "negative_binomial.json": {
        "schema_version": 1, "kind": "negative_binomial", "alpha": 3.0, "beta": 2.0,
    },
    "dirichlet_multinomial.json": {
        "schema_version": 1, "kind": "dirichlet_multinomial", "trials": 12,
        "concentration": [2.0, 3.0, 5.0, 1.5],
    },
}

# file name -> (tag, n, family); the tag keys the file's own generator.
DATA_FILES = {
    "normal_2000.csv": (1, 2000, "normal"),
    "normal_1000.csv": (2, 1000, "normal"),
    "poisson_2000.csv": (3, 2000, "poisson"),
}


def _columns(shape):
    return (np.array(col, dtype=float) for col in zip(*shape))


def _labels(rng, weights, n):
    return np.searchsorted(np.cumsum(weights), rng.random(n), side="right").clip(max=len(weights) - 1)


def draw_normal(rng, n):
    w, mu, sd = _columns(OVERLAPPING)
    z = _labels(rng, w, n)
    return rng.normal(mu[z], sd[z])


def draw_poisson(rng, n):
    w, lam = _columns(POISSON)
    z = _labels(rng, w, n)
    return rng.poisson(lam[z])


def normal_density(x):
    """Density of the generating Normal mixture at each point of ``x``."""
    w, mu, sd = _columns(OVERLAPPING)
    x = np.asarray(x, dtype=float)[:, None]
    return (w * np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))).sum(axis=1)


def _logsumexp_rows(a):
    top = a.max(axis=1)
    return top + np.log(np.exp(a - top[:, None]).sum(axis=1))


def normal_loglik(y):
    """Log-likelihood of the generating Normal mixture, independent of mixkit."""
    w, mu, sd = _columns(OVERLAPPING)
    z = (np.asarray(y, dtype=float)[:, None] - mu) / sd
    comp = np.log(w) - 0.5 * z * z - np.log(sd) - 0.5 * math.log(2.0 * math.pi)
    return math.fsum(_logsumexp_rows(comp).tolist())


def poisson_loglik(y):
    w, lam = _columns(POISSON)
    y = np.asarray(y, dtype=float)
    log_fact = np.array([math.lgamma(v + 1.0) for v in y])
    comp = np.log(w) + y[:, None] * np.log(lam) - lam - log_fact[:, None]
    return math.fsum(_logsumexp_rows(comp).tolist())


def write_inputs(directory, seed):
    """Write every data file and spec document; returns {name: path}."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (tag, n, family) in DATA_FILES.items():
        rng = np.random.default_rng([int(seed), tag])
        if family == "normal":
            text = "".join(format(float(v), ".17g") + "\n" for v in draw_normal(rng, n))
        else:
            text = "".join(f"{int(v)}\n" for v in draw_poisson(rng, n))
        paths[name] = directory / name
        paths[name].write_text("y\n" + text, encoding="utf-8")
    for name, doc in SPECS.items():
        paths[name] = directory / name
        paths[name].write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return paths


def file_hashes(paths):
    return {name: hashlib.sha256(Path(p).read_bytes()).hexdigest()[:16] for name, p in sorted(paths.items())}
