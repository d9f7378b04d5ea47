"""Digests of everything the benchmark workloads' commands produce, at fixed seeds.

Each workload's command list (``perfbench/workloads.py::commands``, on the
inputs of ``perfbench/inputs.py``) runs in-process through ``mixkit.cli.main``
in a fresh directory, with relative paths.  Every command contributes its exit
code, its stdout and stderr, each output file and its manifest less the three
time fields, each as a SHA-256 prefix.  ``test_output_digests.py`` compares
them with the committed table ``output_digests.json``, which also records the
Python, numpy and scipy versions it was made under.

A change that moves output bits on purpose rewrites the table, in the same
commit, with

    PYTHONPATH=src python tests/output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("output_digests.json")
SEEDS = (7, 8)
TIME_FIELDS = ("wall_clock_seconds", "compute_seconds", "write_seconds")


def runtime():
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _benchmark_modules():
    """perfbench's ``inputs`` and ``workloads``, which import each other as top-level modules."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    import inputs
    import workloads

    return inputs, workloads


def _digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _command_digests(main, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(command.argv))
    entry = {"argv": " ".join(command.argv), "exit": code,
             "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}
    if code == 0:
        for name in command.outputs:
            entry[name] = _digest(Path(name).read_bytes())
        manifest = json.loads(Path(command.outputs[0] + ".manifest.json").read_text(encoding="utf-8"))
        for field in TIME_FIELDS:
            del manifest[field]
        entry["manifest"] = _digest(json.dumps(manifest, sort_keys=True))
    return entry


def digests():
    """{"<workload>/<seed>/<command index>": {what: digest}} for every command."""
    from mixkit.cli import main

    inputs, workloads = _benchmark_modules()
    table = {}
    previous = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="mixkit-digests-") as tmp:
        try:
            for seed in SEEDS:
                for workload in workloads.WORKLOADS:
                    opdir = Path(tmp, f"{workload}-{seed}")
                    opdir.mkdir()
                    os.chdir(opdir)
                    paths = inputs.write_inputs(Path("."), seed)
                    for k, command in enumerate(workloads.commands(workload, paths, seed)):
                        table[f"{workload}/{seed}/{k}"] = _command_digests(main, command)
        finally:
            os.chdir(previous)
    return table


def main():
    doc = {"runtime": runtime(), "seeds": list(SEEDS), "digests": digests()}
    TABLE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['digests'])} command digests to {TABLE}")


if __name__ == "__main__":
    main()
