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
