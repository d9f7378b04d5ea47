"""Every output bit of the benchmark workloads, against the committed digest table.

A change that moves a bit fails here, naming the command and the output that
moved; one that does so on purpose regenerates the table (see
``output_digests.py``) and says why.  The table holds only for the library
versions it was made under: under others the test skips and names them.
"""

import json

import pytest

import output_digests


def test_outputs_match_the_committed_digests():
    table = json.loads(output_digests.TABLE.read_text(encoding="utf-8"))
    if table["runtime"] != output_digests.runtime():
        pytest.skip(f"digests were made under {table['runtime']}, this is {output_digests.runtime()}")
    assert table["seeds"] == list(output_digests.SEEDS)
    got = output_digests.digests()
    want = table["digests"]
    assert sorted(got) == sorted(want)
    moved = [f"{key} ({want[key]['argv']}): {what}" for key in sorted(want)
             for what in sorted(want[key].keys() | got[key].keys())
             if want[key].get(what) != got[key].get(what)]
    assert moved == []
