"""Outside-in tracing of mixkit: timing wrappers installed from the benchmark.

Every public function defined in a mixkit module is replaced, at each module
attribute where a caller looks it up, by a wrapper that records a span
(name, start, end, parent span) plus call and exception counts.  The same
goes for ``scipy.special.logsumexp`` as seen from mixkit (layer ``special``)
and for the per-object methods the kernels call: component ``log_density``
and the ``__post_init__`` validators of components and mixing measures.
Private helpers are not wrapped, so their cost lands in their public
caller's self time.  Nothing under ``src/`` is edited.

Spans stay in memory; ``op_layer_metrics`` turns one op's spans into the
per-layer figures, and the caller writes the raw spans out when it ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "modelspec", "components", "models", "em", "bayes", "sampling",
          "compound", "dp", "modes")
COMPONENT_CLASSES = ("UnivariateNormal", "BivariateNormal", "Poisson")


def _kernel_work(model, data, *args, **kwargs):
    return len(data) * model.G


def _evidence_work(data, G, prior, config=None, *args, **kwargs):
    from mixkit.bayes import EvidenceConfig

    return len(data) * int(G) * (config or EvidenceConfig()).n_prior_draws


def _crp_work(alpha, n, runs, seed, *args, **kwargs):
    return int(n) * int(runs)


# span name -> work units of one call, for the per-unit cost figures
WORK = {
    "models.log_weighted_densities": _kernel_work,
    "bayes.log_marginal_likelihood": _evidence_work,
    "dp.sample_crp_labels": _crp_work,
}


@dataclass
class Tracer:
    """Span store for one op; ``spans`` rows are (name, start_ns, end_ns, parent, work)."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    errors: int = 0

    def wrap(self, fn, name):
        work_of = WORK.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                self.errors += 1
                spans[sid] = (name, start, end, parent, 0)
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent, work_of(*args, **kwargs) if work_of else 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.errors = 0


def _mixkit_modules():
    return {name: importlib.import_module(f"mixkit.{name}") for name in LAYERS}


def wrap_targets():
    """(owner, attribute, span name) for every lookup site to patch."""
    import scipy.special

    modules = _mixkit_modules()
    owners = list(modules.values()) + [importlib.import_module("mixkit")]
    public = {}
    for layer, mod in modules.items():
        if layer == "cli":
            continue  # the op itself is cli.main; its self time is cli.self_ms
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                public[id(obj)] = (obj, f"{layer}.{attr}")
    public[id(scipy.special.logsumexp)] = (scipy.special.logsumexp, "special.logsumexp")
    targets = []
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if id(obj) in public and public[id(obj)][0] is obj:
                targets.append((owner, attr, public[id(obj)][1]))
    # cli imports logsumexp locally, from scipy.special, at call time
    targets.append((scipy.special, "logsumexp", "special.logsumexp"))
    for cls_name in COMPONENT_CLASSES:
        cls = getattr(modules["components"], cls_name)
        targets.append((cls, "log_density", f"components.{cls_name}.log_density"))
        targets.append((cls, "__post_init__", f"components.{cls_name}.__post_init__"))
    targets.append((modules["models"].MixingMeasure, "__post_init__",
                    "models.MixingMeasure.__post_init__"))
    return targets


class Installed:
    """Context manager: wrappers in place on enter, originals back on exit."""

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self.saved = []

    def __enter__(self):
        for owner, attr, name in self.targets:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(original, name))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# ---------------------------------------------------------------------------
# From one op's spans to per-layer figures.


def self_times(spans):
    """Duration and self time (ns) of every span; self = duration - children."""
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    nested = parent >= 0
    child_sum = np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))
    return dur, dur - child_sum.astype(np.int64), parent


def _has_ancestor(i, parent, names, target):
    p = parent[i]
    while p >= 0:
        if names[p] == target:
            return True
        p = parent[p]
    return False


PER_LAYER = (
    ("setup.mixkit_import_ms", "ms"),
    ("setup.scipy_special_import_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.bytes_written", "count"),
    ("modelspec.load_document_ms", "ms"),
    ("components.log_density_calls", "count"),
    ("components.log_density_ms", "ms"),
    ("components.objects_built", "count"),
    ("components.validate_calls", "count"),
    ("models.log_weighted_densities_calls", "count"),
    ("models.log_weighted_densities_self_ms", "ms"),
    ("models.ns_per_point_component", "ns"),
    ("models.measures_built", "count"),
    ("special.logsumexp_calls", "count"),
    ("special.logsumexp_ms", "ms"),
    ("em.run_em_self_ms", "ms"),
    ("em.kernel_calls", "count"),
    ("em.kept_iter_share", "ratio"),
    ("em.run_hard_em_self_ms", "ms"),
    ("em.hard_allocations_ms", "ms"),
    ("bayes.gibbs_sweep_calls", "count"),
    ("bayes.gibbs_sweep_self_ms", "ms"),
    ("bayes.gibbs_allocations_self_ms", "ms"),
    ("bayes.ms_per_sweep", "ms"),
    ("bayes.summarize_H_ms", "ms"),
    ("bayes.log_marginal_likelihood_self_ms", "ms"),
    ("bayes.evidence_ns_per_draw_point_component", "ns"),
    ("bayes.g1_evidence_err_nats", "nats"),
    ("sampling.sample_ms", "ms"),
    ("compound.pmf_calls", "count"),
    ("compound.pmf_ms", "ms"),
    ("dp.sample_crp_labels_ms", "ms"),
    ("dp.ns_per_run_customer", "ns"),
    ("modes.find_modes_ms", "ms"),
    ("trace.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def op_layer_metrics(spans, op_ns, bytes_written, facts):
    """Per-layer figures of one traced op (setup and trace.* are run-level).

    A layer the op never reaches reports 0 for its counts and times.
    """
    names = [s[0] for s in spans]
    dur, own, parent = self_times(spans)
    calls, incl, self_ns, work = {}, {}, {}, {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + int(dur[i])
        self_ns[name] = self_ns.get(name, 0) + int(own[i])
        work[name] = work.get(name, 0) + spans[i][4]

    def total(table, *wanted):
        return sum(table.get(n, 0) for n in wanted)

    def components(table, suffix):
        return sum(v for n, v in table.items() if n.startswith("components.") and n.endswith(suffix))

    def per_unit(name):
        return incl[name] / work[name] if work.get(name) else 0.0

    ms = 1e-6
    top_ns = int(dur[parent < 0].sum())
    kernel_in_em = sum(1 for i, n in enumerate(names)
                       if n == "models.log_weighted_densities"
                       and _has_ancestor(i, parent, names, "em.run_em"))
    sweeps = calls.get("bayes.gibbs_sweep", 0)
    out = {
        "cli.self_ms": (op_ns - top_ns) * ms,
        "cli.bytes_written": bytes_written,
        "modelspec.load_document_ms": total(incl, "modelspec.load_document") * ms,
        "components.log_density_calls": components(calls, ".log_density"),
        "components.log_density_ms": components(incl, ".log_density") * ms,
        "components.objects_built": components(calls, ".__post_init__"),
        "components.validate_calls": total(calls, "components.validate_observations"),
        "models.log_weighted_densities_calls": total(calls, "models.log_weighted_densities"),
        "models.log_weighted_densities_self_ms": total(self_ns, "models.log_weighted_densities") * ms,
        "models.ns_per_point_component": per_unit("models.log_weighted_densities"),
        "models.measures_built": total(calls, "models.MixingMeasure.__post_init__"),
        "special.logsumexp_calls": total(calls, "special.logsumexp"),
        "special.logsumexp_ms": total(incl, "special.logsumexp") * ms,
        "em.run_em_self_ms": total(self_ns, "em.run_em") * ms,
        "em.kernel_calls": kernel_in_em,
        "em.kept_iter_share": facts.get("kept_kernel_calls", 0) / kernel_in_em if kernel_in_em else 0.0,
        "em.run_hard_em_self_ms": total(self_ns, "em.run_hard_em") * ms,
        "em.hard_allocations_ms": total(incl, "em.hard_allocations") * ms,
        "bayes.gibbs_sweep_calls": sweeps,
        "bayes.gibbs_sweep_self_ms": total(self_ns, "bayes.gibbs_sweep") * ms,
        "bayes.gibbs_allocations_self_ms": total(self_ns, "bayes.gibbs_allocations") * ms,
        "bayes.ms_per_sweep": total(incl, "bayes.gibbs_sweep") * ms / sweeps if sweeps else 0.0,
        "bayes.summarize_H_ms": total(incl, "bayes.summarize_H") * ms,
        "bayes.log_marginal_likelihood_self_ms": total(self_ns, "bayes.log_marginal_likelihood") * ms,
        "bayes.evidence_ns_per_draw_point_component": per_unit("bayes.log_marginal_likelihood"),
        "bayes.g1_evidence_err_nats": facts.get("g1_evidence_err_nats", 0.0),
        "sampling.sample_ms": total(incl, "sampling.sample_mixture", "sampling.sample_hmm") * ms,
        "compound.pmf_calls": total(calls, "compound.betabinom_pmf", "compound.negbinom_pmf",
                                    "compound.dirmult_pmf"),
        "compound.pmf_ms": total(incl, "compound.betabinom_pmf", "compound.negbinom_pmf",
                                 "compound.dirmult_pmf") * ms,
        "dp.sample_crp_labels_ms": total(incl, "dp.sample_crp_labels") * ms,
        "dp.ns_per_run_customer": per_unit("dp.sample_crp_labels"),
        "modes.find_modes_ms": total(incl, "modes.find_modes") * ms,
    }
    return out, {"calls": calls, "incl_ns": incl, "self_ns": self_ns}
