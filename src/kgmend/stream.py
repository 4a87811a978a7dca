"""Slice-driven enhancement loop: validate/repair, commit, retry held records.

The runner is the single writer. Within a slice every record is repaired
against a frozen snapshot of graph plus provisional instance; the commit
between slices is the only mutation point. Records held for entity cold
start are retried at each later slice boundary until their counter expires.
Constraint discovery is deliberately a no-op: support sets are recomputed
from the enhanced graph, there are no mined rules to maintain.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import islice

from .graph_store import (GraphFormatError, GraphStore, NA, Tuple, collector_paused, data_lines,
                          open_input, read_tuples, split_cells)
from .repair import (
    ACCEPTED,
    HELD,
    REJECTED,
    REPAIRED,
    PredictionRecord,
    RepairConfig,
    RepairDecision,
    repair_instance,
)


@dataclass
class SliceResult:
    index: int
    counts: dict
    committed: int
    per_tuple_seconds: float
    version: int
    malformed: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "slice": self.index,
            "counts": self.counts,
            "committed": self.committed,
            "per_tuple_seconds": self.per_tuple_seconds,
            "version": self.version,
            "malformed": self.malformed,
        })


def load_label_map(path) -> dict[str, str]:
    """TSV `aux_label<TAB>target_label`, one line per aux label; NA is absent."""
    mapping: dict[str, str] = {}
    with open_input(path) as fh:
        for lineno, line in data_lines(fh):
            aux, target = split_cells(line, lineno, ("aux_label", "target_label"))
            if aux in mapping:
                raise GraphFormatError(f"line {lineno}: aux label {aux!r} is mapped twice")
            mapping[aux] = target
    return {aux: target for aux, target in mapping.items() if target != NA}


def integrate_aux(g: GraphStore, aux_graph_path, label_map: dict[str, str]) -> GraphStore:
    """Register a relabeled auxiliary graph as a sampling top-up source.

    Unmapped labels are dropped, and aux labels mapped to one target give one
    tuple; auxiliary entities stay in their own store, never merged into g.
    It is built with the collector paused, as `load_graph` builds one.
    """
    with collector_paused():
        aux = GraphStore()
        aux.fill(Tuple(s.head, target, s.tail) for s in read_tuples(aux_graph_path)
                 if (target := label_map.get(s.relation)) is not None)
    g.aux_source = aux
    return aux


def commit(g: GraphStore, decisions: list[RepairDecision]) -> int:
    """Insert every Accepted/Repaired final and advance the snapshot version."""
    for dec in decisions:
        if dec.status in (ACCEPTED, REPAIRED):
            g.add_tuple(Tuple(dec.head, dec.final, dec.tail))
    return g.bump_version()


def run(
    g: GraphStore,
    prediction_stream,
    cfg: RepairConfig,
    slice_size: int = 1000,
) -> tuple[list[RepairDecision], list[SliceResult]]:
    """Drive the acquisition / validate-repair / enhance loop over slices.

    `prediction_stream` yields PredictionRecord values; anything else, such
    as a PredictionFormatError, and a record whose id repeats an earlier
    record's id are counted as malformed and skipped. Returns the resolved
    decision log (one entry per record, in resolution order) and one
    SliceResult per slice. The graph is enhanced in place. Each slice is
    repaired with the collector paused (`collector_paused`); between slices
    the collector is as the caller left it.
    """
    if slice_size < 1:
        raise ValueError("slice_size must be >= 1")
    held: list[tuple[PredictionRecord, int, RepairDecision]] = []   # record, attempts, last decision
    log: list[RepairDecision] = []
    results: list[SliceResult] = []
    ids: set[str] = set()
    stream = iter(prediction_stream)
    slices = iter(lambda: list(islice(stream, slice_size)), [])     # read as each is due; [] ends

    for index, raw_slice in enumerate(slices):
        fresh = []
        for item in raw_slice:
            if isinstance(item, PredictionRecord) and item.id not in ids:
                ids.add(item.id)
                fresh.append(item)
        malformed = len(raw_slice) - len(fresh)
        batch = [(rec, attempts) for rec, attempts, _ in held] + [(rec, 0) for rec in fresh]
        held = []
        records = [rec for rec, _ in batch]

        start = time.perf_counter()
        with collector_paused():
            decisions = repair_instance(g, records, cfg)
        elapsed = time.perf_counter() - start

        counts = {ACCEPTED: 0, REPAIRED: 0, REJECTED: 0, HELD: 0}
        for (rec, attempts), dec in zip(batch, decisions):
            counts[dec.status] += 1
            if dec.status == HELD:
                if attempts < cfg.max_hold_iterations:
                    held.append((rec, attempts + 1, dec))
                    continue
                dec.terminal = True         # the retry budget is spent
            log.append(dec)
        committed_before = len(g)
        version = commit(g, decisions)
        results.append(SliceResult(
            index=index,
            counts=counts,
            committed=len(g) - committed_before,
            per_tuple_seconds=elapsed / len(records) if records else 0.0,
            version=version,
            malformed=malformed,
        ))

    for _, _, dec in held:
        dec.terminal = True                 # the stream ended before more context arrived
        log.append(dec)
    return log, results
