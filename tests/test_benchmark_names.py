"""Every traced per-layer metric of BENCHMARK.json names a traced function.

A traced benchmark run (``perfbench/run.py --trace 1``) reads each
``<name>.calls`` and ``<name>.self_s`` of the per-layer list from the
stats of the functions ``perfbench/spans.py`` wraps, and stops with a
KeyError at a name that no longer resolves.  Renaming or deleting such a
function fails here instead.  The ``layer.``, ``trace.`` and
``fractions.`` names are sums and loop timings, not functions.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_per_layer_names_resolve():
    spans = load_spans()
    for layer in spans.LAYERS:
        importlib.import_module(f"soficdim.{layer}")
    traced = {name for *_, name, _fn in spans._targets("soficdim")}
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [metric["name"].rsplit(".", 1)[0] for metric in per_layer
             if metric["name"].endswith((".calls", ".self_s"))
             and not metric["name"].startswith(("layer.", "trace.", "fractions."))]
    assert "sofic.candidate_pool" in names and "pperm.PartialPermutation.init" in names
    assert [name for name in names if name not in traced] == []
