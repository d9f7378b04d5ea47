"""The benchmark's traced runs depend on two things in mixkit that tier-1
would not otherwise notice: the attributes ``perfbench/spans.py`` patches,
and an ``import mixkit.cli`` that loads ``scipy.special``, whose time
``perfbench/run.py::parse_importtime`` reads from the ``-X importtime`` log.
``run.py`` itself is not imported here: importing it sets BLAS environment
variables for the whole process.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.append(str(ROOT / "perfbench"))

import spans  # noqa: E402


def test_the_tracer_wraps_every_target_and_restores_it():
    targets = spans.wrap_targets()
    before = [owner.__dict__[attr] for owner, attr, _ in targets]
    with spans.Installed(spans.Tracer(), targets):
        inside = [owner.__dict__[attr] for owner, attr, _ in targets]
        assert all(getattr(w, "__wrapped__", None) is o for w, o in zip(inside, before))
    assert all(owner.__dict__[attr] is o for (owner, attr, _), o in zip(targets, before))


def test_the_import_log_names_the_cli_and_scipy_special():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mixkit.cli"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    names = {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"mixkit.cli", "scipy.special"} <= names


def test_a_traced_evidence_keeps_its_further_threads_off_the_span_stack(monkeypatch):
    # the tracer keeps one span stack for every thread: a wrapped function
    # called from a further thread of the evidence's block split would push
    # onto the calling thread's stack (the kind of traced run that exits 1)
    import numpy as np

    import mixkit as mk

    monkeypatch.setattr(mk.models, "WORKERS", 2)
    data = mk.validate_observations("normal", np.random.default_rng(3).normal(0.0, 2.0, 1000))
    prior = mk.default_prior(data, 1)
    config = mk.EvidenceConfig(n_prior_draws=2000, seed=4)
    want = mk.log_marginal_likelihood(data, 1, prior, config)
    targets = spans.wrap_targets()
    wrapped = {owner.__dict__[attr].__code__ for owner, attr, _ in targets
               if hasattr(owner.__dict__[attr], "__code__")}
    main = threading.get_ident()
    called = set()

    def profile(frame, event, arg):
        if event == "call" and threading.get_ident() != main:
            called.add(frame.f_code)

    tracer = spans.Tracer()
    threading.setprofile(profile)
    try:
        with spans.Installed(tracer, targets):
            wrapped.add(mk.log_marginal_likelihood.__code__)  # the tracer's wrapper
            got = mk.log_marginal_likelihood(data, 1, prior, config)
    finally:
        threading.setprofile(None)
    assert got == want
    assert tracer.errors == 0 and tracer.stack == []
    assert [s[0] for s in tracer.spans].count("bayes.log_marginal_likelihood") == 1
    assert mk.models._logsumexp_into.__code__ in called  # a further thread took blocks
    assert not called & wrapped
