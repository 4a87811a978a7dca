"""Self-checks of the benchmark: tracer counts, their reconciliation, and its definition.

    python3 -m pytest perfbench/tests -q

The tracer check runs `kgmend enhance` traced on the criterion-6 inputs and
must reproduce, exactly, the counts measured on the same inputs with
hand-placed caller-side wrappers: 10,908 label checks, 5,948 escalations,
711,386 `sim` calls of which 642,724 are in the escalation scan, and 22,904
`traverse_r` calls.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import gen  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from kgmend import BenchmarkSpec, benchmark_generate, inject_errors, save_graph  # noqa: E402
from kgmend.repair import write_predictions  # noqa: E402


@pytest.fixture(scope="module")
def criterion6(tmp_path_factory):
    d = tmp_path_factory.mktemp("criterion6")
    spec = BenchmarkSpec(records=5000, labels=20, occurrences_per_label=20, seed=0)
    g, records, _ = benchmark_generate(spec)
    save_graph(g, d / "graph.tsv")
    write_predictions(inject_errors(records, rate=0.3, seed=7), d / "predictions.jsonl")
    subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), "--mode", "traced",
         "--report", str(d / "report.json"), "--spans", str(d / "spans.jsonl"), "--",
         "enhance", "--graph", str(d / "graph.tsv"), "--predictions", str(d / "predictions.jsonl"),
         "--out-decisions", str(d / "decisions.jsonl"), "--out-graph", str(d / "out.tsv"),
         "--metrics", str(d / "metrics.jsonl")],
        check=True, timeout=600, stderr=subprocess.DEVNULL)
    spans = tracer.load_spans(d / "spans.jsonl")
    slices = [json.loads(line) for line in (d / "metrics.jsonl").read_text().splitlines()]
    return spans, len(records), slices


def test_traced_counts_match_the_measured_baseline(criterion6):
    spans, records, _ = criterion6
    m = tracer.layer_metrics(spans, records)
    assert m["validation.gather_evidence.calls"][0] == 10_908
    assert m["validation.support_from_evidence.escalations"][0] == 5_948
    assert m["embedding.sim.calls"][0] == 711_386
    assert m["embedding.sim.calls_scan"][0] == 642_724
    assert m["embedding.traverse_r.calls"][0] == 22_904


def test_traced_counts_reconcile(criterion6):
    spans, records, slices = criterion6
    m = tracer.layer_metrics(spans, records)
    layers = tracer.Layers(spans)
    assert m["embedding.sim.calls_sampled"][0] + m["embedding.sim.calls_scan"][0] \
        == m["embedding.sim.calls"][0]
    # label checks are RepairDecision.checks summed over every repair_tuple call
    assert m["validation.gather_evidence.calls"][0] == sum(layers.infos("repair.repair_tuple"))
    # the program's own per-slice counts give records plus retries
    retries = sum(sum(s["counts"].values()) for s in slices) - records
    assert m["repair.repair_tuple.calls"][0] == records + retries
    assert m["stream.commit.calls"][0] == len(slices)


def test_every_traced_binding_is_reached(criterion6):
    spans, _, _ = criterion6
    names = {span[0] for span in spans}
    expected = {name for _, _, name, _ in tracer.TARGETS}
    expected |= {tracer.READER[2], tracer.ENHANCE, *tracer.OVERLAY}
    assert expected <= names


def test_spans_nest_and_carry_record_ids(criterion6):
    spans, _, _ = criterion6
    for name, t0, t1, parent, record, _ in spans[:50_000]:
        assert t0 <= t1
        if parent >= 0:
            assert spans[parent][1] <= t0 and t1 <= spans[parent][2]
        if name == "embedding.sim":
            assert record is not None


def test_generator_is_seeded_and_standalone():
    w = gen.WORKLOADS["noisy_stream"]
    assert gen.build(w, 3) == gen.build(w, 3)
    assert gen.build(w, 3) != gen.build(w, 4)
    probe = "import sys, gen; sys.exit('kgmend' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], cwd=BENCH).returncode == 0


def test_reference_kernel_does_fixed_work():
    # speed.REFERENCE_S was measured on this exact work; change both together
    assert speed._kernel() == 350
    assert speed.kernel_s() > 0


def test_every_metric_and_workload_is_described():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((BENCH / "metrics.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {name: w.why for name, w in gen.WORKLOADS.items()}
    for section in ("end_to_end", "per_layer"):
        assert [m["name"] for m in bench[section]] == list(catalogue[section])
