"""Caller-side spans around kgmend's public functions, and their per-layer sums.

The program is not modified: `Tracer.install` replaces the binding each
caller looks up with a timing wrapper. The callers bind names at import time
(`validation` imports `sim`, `traverse_r` and `extract_pattern`; `repair`
imports `gather_evidence` and `support_from_evidence`; `cli` imports
`load_graph`, `save_graph` and `run_stream`), so the wrapper must replace,
for example, `kgmend.validation.sim`. Replacing only the defining module
would silently count zero.

A span is `(name, start, end, parent, record, info)`: `parent` is the index
of the enclosing span or -1, `record` the prediction record id being
repaired (or None), and `info` a small per-call value such as a `sim` score
or a pattern's vertex count. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import json
import math
from time import perf_counter

# (module whose binding is replaced, attribute, span name, info(args, result))
TARGETS = (
    ("kgmend.cli", "load_graph", "graph_store.load_graph", lambda a, r: len(r)),
    ("kgmend.cli", "save_graph", "graph_store.save_graph", lambda a, r: len(a[0])),
    ("kgmend.cli", "run_stream", "stream.run", None),
    ("kgmend.stream", "repair_instance", "repair.repair_instance", None),
    ("kgmend.stream", "commit", "stream.commit", None),
    ("kgmend.repair", "repair_tuple", "repair.repair_tuple", lambda a, r: r.checks),
    ("kgmend.repair", "gather_evidence", "validation.gather_evidence", None),
    ("kgmend.repair", "support_from_evidence", "validation.support_from_evidence",
     lambda a, r: r.escalated),
    ("kgmend.validation", "candidate_embedding", "validation.candidate_embedding", None),
    ("kgmend.validation", "sample_centers", "validation.sample_centers", None),
    ("kgmend.validation", "witness_embedding", "validation.witness_embedding", None),
    ("kgmend.validation", "extract_pattern", "patterns.extract_pattern",
     lambda a, r: len(r.vertices)),
    ("kgmend.validation", "traverse_r", "embedding.traverse_r", None),
    ("kgmend.validation", "sim", "embedding.sim", lambda a, r: r),
)
# the prediction reader is a generator: one span per record read
READER = ("kgmend.cli", "iter_prediction_lines", "repair.iter_prediction_lines")
OVERLAY = ("graph_store.overlay.enter", "graph_store.overlay.exit")
ENHANCE = "cli.enhance"
RECORD_SPAN = "repair.repair_tuple"     # spans inside it carry the record id
DUMP_CHUNK = 10_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.record = None

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float, t1: float, info) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, t0, t1, parent, self.record, info)

    def wrap(self, fn, name: str, info=None):
        sets_record = name == RECORD_SPAN

        def traced(*args, **kwargs):
            idx = self._open()
            outer = self.record
            if sets_record:
                self.record = args[1].id
            t0 = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter()
                self._close(idx, name, t0, t1, info(args, result) if info and done else None)
                self.record = outer
        return traced

    def wrap_generator(self, fn, name: str):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open()
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(idx, name, t0, perf_counter(), None)
                    return
                self._close(idx, name, t0, perf_counter(), None)
                yield item
        return traced

    def wrap_context(self, fn, names: tuple[str, str]):
        tracer = self

        class Timed:
            def __init__(self, cm):
                self.cm = cm

            def __enter__(self):
                idx = tracer._open()
                t0 = perf_counter()
                try:
                    return self.cm.__enter__()
                finally:
                    tracer._close(idx, names[0], t0, perf_counter(), None)

            def __exit__(self, *exc):
                idx = tracer._open()
                t0 = perf_counter()
                try:
                    return self.cm.__exit__(*exc)
                finally:
                    tracer._close(idx, names[1], t0, perf_counter(), None)

        return lambda *args, **kwargs: Timed(fn(*args, **kwargs))

    def install(self) -> None:
        """Replace every caller-side binding on the `enhance` path."""
        for module, attr, name, info in TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, info))
        mod = importlib.import_module(READER[0])
        setattr(mod, READER[1], self.wrap_generator(getattr(mod, READER[1]), READER[2]))
        store = importlib.import_module("kgmend.graph_store").GraphStore
        store.overlay = self.wrap_context(store.overlay, OVERLAY)
        command = importlib.import_module("kgmend.cli").enhance
        command.callback = self.wrap(command.callback, ENHANCE)

    def dump(self, path) -> None:
        """Write the spans as JSON arrays of up to DUMP_CHUNK spans, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(0, len(self.spans), DUMP_CHUNK):
                fh.write(json.dumps(self.spans[i:i + DUMP_CHUNK]) + "\n")


def load_spans(path) -> list:
    spans: list = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            spans.extend(json.loads(line))
    return spans


def nearest_rank(sorted_values: list, q: float):
    """The q-quantile by nearest rank; None on no samples."""
    if not sorted_values:
        return None
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Layers:
    """Per-name call counts, total and self seconds, and parent links."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        for i, (name, t0, t1, _, _, _) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + (t1 - t0)
            self.self_s[name] = self.self_s.get(name, 0.0) + (t1 - t0 - child_s[i])

    def under(self, name: str, parent_name: str) -> list:
        """Spans called `name` whose direct parent is called `parent_name`."""
        return [s for s in self.spans
                if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name]

    def infos(self, name: str) -> list:
        return [s[5] for s in self.spans if s[0] == name]


def enhance_theta() -> float:
    """The similarity threshold `kgmend enhance` uses when `--theta` is not given."""
    cli = importlib.import_module("kgmend.cli")
    return next(p.default for p in cli.enhance.params if p.name == "theta")


def layer_metrics(spans: list, records: int) -> dict:
    """Per-layer metrics of one traced `enhance` run with the default `--theta`.

    Each value is `(value, base)`; `base` is None or, for a ratio or
    percentile, the numerator and denominator or the sample count it rests on.
    `records` is the number of prediction records submitted.
    """
    L = Layers(spans)
    theta = enhance_theta()
    calls, self_s, total_s = L.calls.get, L.self_s.get, L.total_s.get
    out: dict = {}

    def put(name, value, base=None):
        out[name] = (value, base)

    sampled = L.under("embedding.sim", "validation.gather_evidence")
    scan = L.under("embedding.sim", "validation.support_from_evidence")
    hits = sum(1 for s in scan if s[5] is not None and s[5] > theta)
    put("embedding.sim.calls", calls("embedding.sim", 0))
    put("embedding.sim.calls_sampled", len(sampled))
    put("embedding.sim.calls_scan", len(scan))
    put("embedding.sim.self_s", self_s("embedding.sim", 0.0))
    put("embedding.sim.scan_self_s", sum(s[2] - s[1] for s in scan))
    put("embedding.sim.scan_hit_ratio", hits / len(scan) if scan else 0.0, (hits, len(scan)))
    escalations = sum(1 for v in L.infos("validation.support_from_evidence") if v)
    put("validation.support_from_evidence.escalations", escalations)
    put("validation.support_from_evidence.self_s",
        self_s("validation.support_from_evidence", 0.0))
    put("validation.gather_evidence.calls", calls("validation.gather_evidence", 0))

    vertices = sorted(v for v in L.infos("patterns.extract_pattern") if v is not None)
    put("patterns.extract_pattern.calls", calls("patterns.extract_pattern", 0))
    put("patterns.extract_pattern.self_s", self_s("patterns.extract_pattern", 0.0))
    put("patterns.extract_pattern.vertices_p99", nearest_rank(vertices, 0.99) or 0,
        (len(vertices),))
    put("embedding.traverse_r.calls", calls("embedding.traverse_r", 0))
    put("embedding.traverse_r.self_s", self_s("embedding.traverse_r", 0.0))
    lookups = calls("validation.witness_embedding", 0)
    misses = len(L.under("patterns.extract_pattern", "validation.witness_embedding"))
    put("validation.witness_embedding.calls", lookups)
    put("validation.witness_cache.hit_ratio", 1 - misses / lookups if lookups else 0.0,
        (lookups - misses, lookups))
    put("validation.sample_centers.self_s", self_s("validation.sample_centers", 0.0))

    put("graph_store.overlay.s", total_s(OVERLAY[0], 0.0) + total_s(OVERLAY[1], 0.0))
    put("stream.commit.calls", calls("stream.commit", 0))
    put("stream.commit.s", total_s("stream.commit", 0.0))

    put("graph_store.load_graph.s", total_s("graph_store.load_graph", 0.0))
    put("graph_store.save_graph.s", total_s("graph_store.save_graph", 0.0))
    put("graph_store.edges_final", sum(v or 0 for v in L.infos("graph_store.save_graph")))
    put("repair.iter_prediction_lines.s", total_s("repair.iter_prediction_lines", 0.0))
    put("cli.enhance.self_s", self_s(ENHANCE, 0.0))

    checks = [v for v in L.infos("repair.repair_tuple") if v is not None]
    tuple_calls = calls("repair.repair_tuple", 0)
    put("repair.repair_tuple.calls", tuple_calls)
    put("repair.repair_tuple.self_s", self_s("repair.repair_tuple", 0.0))
    put("repair.checks_per_record", sum(checks) / len(checks) if checks else 0.0,
        (sum(checks), len(checks)))
    put("stream.retry_ratio", tuple_calls / records if records else 0.0,
        (tuple_calls, records))
    return out
