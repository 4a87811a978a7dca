"""The benchmark's tracer still finds every binding it wraps on the `enhance` path.

`perfbench/tracer.py` replaces names that kgmend's modules look up at call
time. When a refactor drops or renames one of them, the traced run silently
records nothing for that layer, so run the traced probe on a tiny stream and
require one span of every name the tracer installs.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from kgmend import BenchmarkSpec, benchmark_generate, inject_errors, save_graph
from kgmend.repair import write_predictions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_probe_emits_every_span_the_tracer_installs(tmp_path):
    g, records, _ = benchmark_generate(
        BenchmarkSpec(records=200, labels=5, occurrences_per_label=10, seed=0))
    graph, preds = tmp_path / "graph.tsv", tmp_path / "preds.jsonl"
    save_graph(g, graph)
    write_predictions(inject_errors(records, 0.3, seed=0), preds)
    report, spans = tmp_path / "report.json", tmp_path / "spans.jsonl"
    subprocess.run([
        sys.executable, str(PERFBENCH / "probe.py"), "--mode", "traced",
        "--report", str(report), "--spans", str(spans), "--",
        "enhance", "--graph", str(graph), "--predictions", str(preds),
        "--out-decisions", str(tmp_path / "decisions.jsonl"),
        "--out-graph", str(tmp_path / "enhanced.tsv"),
    ], check=True, capture_output=True, timeout=300)
    assert json.loads(report.read_text())["exit"] == 0

    tracer = _tracer()
    expected = {name for _, _, name, _ in tracer.TARGETS}
    expected |= {tracer.READER[2], *tracer.OVERLAY, tracer.ENHANCE}
    seen = {span[0] for span in tracer.load_spans(spans)}
    assert expected - seen == set()
