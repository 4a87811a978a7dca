"""Slice-driven enhancement: hold retries, commits, auxiliary integration."""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from kgmend import (
    BenchmarkSpec,
    GraphStore,
    NA,
    PredictionRecord,
    RepairConfig,
    Tuple,
    ValidationConfig,
    benchmark_generate,
    classify,
    commit,
    inject_errors,
    integrate_aux,
    load_label_map,
    run,
)
from kgmend import repair, stream, validation
from kgmend.embedding import MODES
from kgmend.graph_store import GraphFormatError
from kgmend.repair import PredictionFormatError, RepairDecision

from conftest import count_postings
from oracle import pairwise_support_from_evidence

VCFG = ValidationConfig(l=1, sample_size=4)


def rec(rid, head, tail, *candidates) -> PredictionRecord:
    return PredictionRecord(rid, head, tail, tuple(candidates))


def rcfg(**kw) -> RepairConfig:
    kw.setdefault("validation", VCFG)
    return RepairConfig(**kw)


def tail_context_graph(occurrences: int = 3) -> GraphStore:
    g = GraphStore()
    for i in range(occurrences):
        g.add_tuple(Tuple(f"a{i}", "r", f"b{i}"))
        g.add_tuple(Tuple(f"b{i}", "q", f"c{i}"))
    return g


def head_context_graph(occurrences: int = 3) -> GraphStore:
    g = GraphStore()
    for i in range(occurrences):
        g.add_tuple(Tuple(f"a{i}", "r", f"b{i}"))
        g.add_tuple(Tuple(f"a{i}", "q", f"x{i}"))
    return g


def test_empty_stream_changes_nothing():
    g = tail_context_graph()
    before = set(g.all_tuples())
    log, results = run(g, [], rcfg())
    assert log == [] and results == []
    assert set(g.all_tuples()) == before


def test_valid_slice_commits_instance():
    g = head_context_graph()
    records = []
    for i in range(4):
        g.add_tuple(Tuple(f"h{i}", "q", f"hx{i}"))
        records.append(rec(f"n{i}", f"h{i}", f"t{i}", ("r", 0.9)))
    before = len(g)
    log, results = run(g, records, rcfg(), slice_size=10)
    assert len(g) == before + 4
    assert [d.status for d in log] == ["Accepted"] * 4
    assert len(results) == 1
    assert results[0].counts == {"Accepted": 4, "Repaired": 0, "Rejected": 0, "Held": 0}
    assert results[0].committed == 4
    assert results[0].malformed == 0
    for i in range(4):
        assert Tuple(f"h{i}", "r", f"t{i}") in g


def test_malformed_items_are_counted_and_skipped():
    g = head_context_graph()
    g.add_tuple(Tuple("h0", "q", "hx0"))
    stream = [
        PredictionFormatError("line 1: nonsense"),
        rec("n1", "h0", "t0", ("r", 0.9)),
        PredictionFormatError("line 3: worse"),
    ]
    log, results = run(g, stream, rcfg(), slice_size=10)
    assert len(log) == 1 and log[0].status == "Accepted"
    assert results[0].malformed == 2


def test_run_rejects_a_slice_size_below_one():
    with pytest.raises(ValueError, match="slice_size must be >= 1"):
        run(head_context_graph(), [rec("x", "h0", "t1", ("r", 0.9))], rcfg(), slice_size=0)


@pytest.mark.parametrize("slice_size", [1, 10])
def test_repeated_record_id_is_malformed(slice_size):
    g = head_context_graph()
    stream = [rec("x", "h0", "t1", ("r", 0.9)), rec("x", "h0", "t2", ("r", 0.9))]
    log, results = run(g, stream, rcfg(unknown_policy="accept"), slice_size=slice_size)
    assert [(d.id, d.tail) for d in log] == [("x", "t1")]
    assert sum(r.malformed for r in results) == 1


def test_held_record_accepted_once_context_arrives():
    g = tail_context_graph()
    stream = [
        rec("cold", "h", "t", ("r", 0.9)),
        rec("warm", "t", "u", ("q", 0.9)),
    ]
    log, results = run(g, stream, rcfg(), slice_size=1)
    assert len(results) == 2
    assert results[0].counts["Held"] == 1
    assert results[0].committed == 0
    # the retry shares slice 2's snapshot with the record that supplies context
    assert results[1].counts["Accepted"] == 2
    assert {d.id: d.status for d in log} == {"cold": "Accepted", "warm": "Accepted"}
    assert Tuple("h", "r", "t") in g and Tuple("t", "q", "u") in g


def test_stream_end_flushes_held_as_terminal():
    g = tail_context_graph()
    log, results = run(g, [rec("cold", "h", "t", ("r", 0.9))], rcfg(), slice_size=5)
    assert len(log) == 1
    decision = log[0]
    assert decision.status == "Held" and decision.terminal
    payload = json.loads(decision.to_json())
    assert payload["terminal"] is True
    assert payload["final"] == NA


def test_hold_counter_expires():
    g = tail_context_graph()
    stream = [
        rec("cold", "h", "t", ("r", 0.9)),
        rec("f1", "a0", "b0", ("other", 0.9)),   # fillers keep slices coming
        rec("f2", "a1", "b1", ("other", 0.9)),
        rec("f3", "a2", "b2", ("other", 0.9)),
    ]
    log, results = run(g, stream, rcfg(max_hold_iterations=1), slice_size=1)
    statuses = {d.id: d for d in log}
    assert statuses["cold"].status == "Held" and statuses["cold"].terminal
    # held in slice 1, retried once in slice 2, never seen again
    retried = [r.counts["Held"] for r in results]
    assert retried[0] == 1 and retried[1] == 1
    assert all(h == 0 for h in retried[2:])


def test_no_record_pays_for_its_top1_labels_sort(monkeypatch):
    """Each label's occurrences stay sorted through overlays and commits: no
    `repair_tuple` call, a held record's retry in the next slice included,
    sorts a label's list in place or swaps it for a sorted copy."""
    g = GraphStore()
    for label in ("r", "s", "alt"):
        for i in range(6):
            g.add_tuple(Tuple(f"{label}h{i}", label, f"{label}t{i}"))
            g.add_tuple(Tuple(f"{label}h{i}", "q", f"{label}x{i}"))
    g.add_tuple(Tuple("u", "q", "w"))
    stream = [
        rec("pass-r", "u", "v", ("r", 0.9), ("alt", 0.1)),
        rec("cold", "h", "t", ("r", 0.9)),      # fresh entities: held, retried in slice 2
        rec("pass-s", "u", "v2", ("s", 0.8), ("alt", 0.2)),
    ]
    seen = []
    repair_tuple = repair.repair_tuple

    def checked(g, record, cfg):
        labels = {r: (occurrences, list(occurrences)) for r, occurrences in g._by_relation.items()}
        sorts = []

        def profile(frame, event, arg):
            if event == "c_call" and arg.__name__ == "sort" \
                    and any(getattr(arg, "__self__", None) is held for held, _ in labels.values()):
                sorts.append(arg.__self__[0].relation)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            return repair_tuple(g, record, cfg)
        finally:
            sys.setprofile(outer)
            kept = all(g._by_relation.get(r) is held and held == copy for r, (held, copy) in labels.items())
            seen.append((record.id, sorts, kept and g._by_relation.keys() == labels.keys()))

    monkeypatch.setattr(repair, "repair_tuple", checked)
    log, results = run(g, stream, rcfg(), slice_size=2)
    assert [r.counts["Held"] for r in results] == [1, 1]
    assert {d.id: d.status for d in log} == {"pass-r": "Accepted", "cold": "Held",
                                             "pass-s": "Accepted"}
    assert seen == [("pass-r", [], True), ("cold", [], True), ("cold", [], True), ("pass-s", [], True)]


def test_commit_absorbs_duplicates_and_bumps_version():
    g = tail_context_graph()
    v0 = g.version
    assert commit(g, []) > v0
    assert len(g) == 6
    dup = RepairDecision(id="d", head="a0", tail="b0", initial="r", final="r",
                         status="Accepted", joint=1.0, support=1)
    commit(g, [dup])
    assert len(g) == 6


def test_run_emits_no_log_record(caplog):
    # constraint discovery is a no-op and says so in the module docstring,
    # not in a log line per slice
    g = head_context_graph()
    g.add_tuple(Tuple("h0", "q", "hx0"))
    with caplog.at_level(logging.DEBUG):
        run(g, [rec("n1", "h0", "t0", ("r", 0.9)), rec("n2", "h1", "t1", ("r", 0.9))], rcfg(),
            slice_size=1)
    assert caplog.records == []


def _counted(records, pulled):
    for record in records:
        pulled.append(record.id)
        yield record


def _stream_records(n):
    return [rec(f"n{i}", f"h{i}", f"t{i}", ("r", 0.9)) for i in range(n)]


def test_run_pulls_each_slice_from_the_stream_lazily(monkeypatch):
    # a slice is repaired before the next one is read: a stream can be unbounded
    pulled, seen = [], []
    real = stream.repair_instance

    def recorded(g, records, cfg):
        seen.append(len(pulled))
        return real(g, records, cfg)

    monkeypatch.setattr(stream, "repair_instance", recorded)
    log, results = run(head_context_graph(), _counted(_stream_records(9), pulled), rcfg(),
                       slice_size=3)
    assert seen == [3, 6, 9]
    assert len(log) == 9 and len(results) == 3


@pytest.mark.parametrize("n, slices", [(6, 2), (7, 3)])
def test_run_makes_no_empty_slice(monkeypatch, n, slices):
    sizes = []
    real = stream.repair_instance

    def recorded(g, records, cfg):
        sizes.append(len(records))
        return real(g, records, cfg)

    monkeypatch.setattr(stream, "repair_instance", recorded)
    _, results = run(head_context_graph(), _counted(_stream_records(n), []),
                     rcfg(unknown_policy="reject"), slice_size=3)
    assert len(results) == slices and len(sizes) == slices
    assert all(sizes) and sum(sizes) == n


def test_load_label_map(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("# aux -> target\nx\tr\n\nqa\tq\ndead\tNA\n")
    mapping = load_label_map(path)
    assert mapping == {"x": "r", "qa": "q"}


@pytest.mark.parametrize("text, where", [
    ("x\tr\ty\n", "line 1"),
    ("q\tr\nq\ts\n", "line 2"),             # one aux label, two targets
    ("q\tNA\n# note\nq\tr\n", "line 3"),
    ("a\tb\nx\t#y\n", "line 2"),          # a target that breaks the identifier rule
], ids=["three-fields", "repeated", "repeated-after-na", "bad-identifier"])
def test_load_label_map_rejects_bad_lines(tmp_path, text, where):
    path = tmp_path / "map.tsv"
    path.write_text(text)
    with pytest.raises(GraphFormatError, match=where):
        load_label_map(path)


def test_integrate_aux_supplies_witnesses(tmp_path):
    aux_path = tmp_path / "aux.tsv"
    lines = []
    for i in range(12):
        lines.append(f"A{i}\tx\tB{i}\n")
        lines.append(f"A{i}\tqa\tX{i}\n")
        lines.append(f"A{i}\tignored\tZ{i}\n")
    aux_path.write_text("".join(lines))

    g = GraphStore()
    g.add_tuple(Tuple("h", "q", "xh"))
    before = len(g)
    aux = integrate_aux(g, aux_path, {"x": "r", "qa": "q"})
    assert len(g) == before                     # auxiliary entities stay separate
    assert g.aux_source is aux
    assert len(aux) == 24                       # unmapped labels dropped
    assert aux.tuples_with_relation("r")
    report = classify(g, Tuple("h", "r", "t"), VCFG)
    assert report.status == "Valid"
    assert all(from_aux for _, from_aux in report.witnesses)


def test_run_is_deterministic():
    def build():
        g = head_context_graph()
        records = []
        for i in range(6):
            g.add_tuple(Tuple(f"h{i}", "q", f"hx{i}"))
            records.append(rec(f"n{i}", f"h{i}", f"t{i}", ("wrong", 0.8), ("r", 0.5)))
        return g, records

    g1, r1 = build()
    g2, r2 = build()
    log1, _ = run(g1, r1, rcfg(), slice_size=2)
    log2, _ = run(g2, r2, rcfg(), slice_size=2)
    assert [d.to_json() for d in log1] == [d.to_json() for d in log2]
    assert sorted(g1.all_tuples()) == sorted(g2.all_tuples())


def test_indexed_scan_matches_pairwise_on_a_seeded_stream(monkeypatch):
    # the label checks of a benchmark-shaped stream, each held to the pairwise scan
    g, records, _ = benchmark_generate(
        BenchmarkSpec(records=1000, labels=10, occurrences_per_label=10, seed=0))
    seen = {"escalated": 0, "scan_hits": 0}
    indexed = repair.support_from_evidence

    def compared(g, s, cfg, ev, ignore=frozenset()):
        report = indexed(g, s, cfg, ev, ignore)
        assert report == pairwise_support_from_evidence(g, s, cfg, ev, ignore)
        seen["escalated"] += report.escalated
        seen["scan_hits"] += len(report.witnesses) - sum(v > cfg.theta for v in ev.sims)
        return report

    monkeypatch.setattr(repair, "support_from_evidence", compared)
    log, _ = run(g, iter(inject_errors(records, rate=0.3, seed=0)), RepairConfig(), slice_size=500)
    assert len(log) == len(records)
    assert seen["escalated"] and seen["scan_hits"]      # neither side may pass vacuously


@pytest.mark.parametrize("vcfg", [ValidationConfig(), ValidationConfig(l=1, mode="positional", sample_size=3)])
def test_the_posting_index_lists_each_occurrence_once_across_slices(monkeypatch, vcfg):
    # an index outlives the commits between slices, so an occurrence is listed
    # again only after a write beside it struck it off
    g, records, _ = benchmark_generate(
        BenchmarkSpec(records=600, labels=6, occurrences_per_label=10, density=0.8, seed=0))
    listed, struck = count_postings(monkeypatch)
    _, results = run(g, iter(inject_errors(records, rate=0.3, seed=0)), RepairConfig(validation=vcfg),
                     slice_size=50)
    assert len(results) >= 12 and listed
    assert all(n <= 1 + struck[center] for center, n in listed.items()), listed.most_common(3)


def _shared_entity_stream(seed: int) -> tuple[GraphStore, list[PredictionRecord]]:
    """A benchmark graph and its records, about half of them given the head or
    tail of an earlier record or of a stored occurrence: commits then write
    beside listed witnesses. Records planted with no context are held."""
    g, records, _ = benchmark_generate(BenchmarkSpec(
        records=240, labels=4, occurrences_per_label=8, density=0.6, seed=seed))
    rng = random.Random(seed)
    stored = sorted(g.all_tuples())
    mixed: list[PredictionRecord] = []
    for r in inject_errors(records, rate=0.3, seed=seed):
        if mixed and rng.random() < 0.5:
            other = rng.choice(mixed) if rng.random() < 0.6 else rng.choice(stored)
            r = replace(r, head=other.head) if rng.random() < 0.5 else replace(r, tail=other.tail)
        mixed.append(r)
    return g, mixed


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_a_kept_posting_index_decides_as_one_rebuilt_for_every_scan(monkeypatch, mode, l, seed):
    cfg = RepairConfig(validation=ValidationConfig(l=l, mode=mode, sample_size=3))
    outcomes = []
    for rebuilt in (False, True):
        with monkeypatch.context() as m:
            _, struck = count_postings(m)
            if rebuilt:
                shared = validation._shared_occurrences

                def fresh(g, *args):
                    g.postings.clear()
                    return shared(g, *args)

                m.setattr(validation, "_shared_occurrences", fresh)
            g, records = _shared_entity_stream(seed)
            log, results = run(g, iter(records), cfg, slice_size=20)
        held = sum(result.counts["Held"] for result in results)
        outcomes.append(([dec.to_json() for dec in log], sorted(g.all_tuples())))
        if not rebuilt:
            assert sum(struck.values()) and held     # commits struck listed witnesses; records were held
    assert outcomes[0] == outcomes[1]


def _stream_digest(cfg: RepairConfig) -> tuple[str, Counter, int]:
    g, records, _ = benchmark_generate(BenchmarkSpec(
        records=1000, labels=10, occurrences_per_label=10, density=0.8, seed=0))
    log, _ = run(g, iter(inject_errors(records, rate=0.3, seed=0)), cfg, slice_size=250)
    digest = hashlib.sha256()
    for dec in log:
        digest.update((dec.to_json() + "\n").encode())
    for s in sorted(g.all_tuples()):
        digest.update(f"{s.head}\t{s.relation}\t{s.tail}\n".encode())
    return (digest.hexdigest(), Counter(dec.status + " terminal" * dec.terminal for dec in log),
            sum(dec.checks for dec in log))


def test_seeded_stream_decisions_match_the_pinned_digest():
    # every decision and the enhanced graph, pinned: a change that moves one
    # decision must say so by updating these digests. The label checks are
    # pinned beside them, a count of work and not a time: deciding every
    # Top-k label of a failing record, not only those that could outrank
    # the winner, gives 2,756 in both runs with the same digests
    runs = [_stream_digest(RepairConfig(validation=vcfg)) for vcfg in (
        ValidationConfig(), ValidationConfig(l=1, mode="positional", delta=2, sample_size=3))]
    assert runs == [
        ("285d83127444e0a46aa88ef61668af985292e0fac71b6fa56a924522bef51916",
         {"Accepted": 561, "Repaired": 237, "Held terminal": 202}, 2051),
        ("60b6859cd308c64a19e8270f8996c351750b2267353019cc0fa6f8234ad14937",
         {"Accepted": 561, "Repaired": 237, "Held terminal": 202}, 2138),
    ]


def test_each_snapshot_lists_what_the_commits_queued_before_its_first_record(monkeypatch):
    # a commit queues the occurrences it inserts or strikes off a posting index;
    # repair_instance lists them as its overlay opens, so no record's scan does
    cfg = RepairConfig(validation=ValidationConfig(l=1, sample_size=3))
    queued, seen = [], []
    real_commit, real_repair = stream.commit, repair.repair_tuple

    def pending(g: GraphStore) -> int:
        return sum(len(index[2]) for indexes in g.postings.values() for index in indexes.values())

    def committed(g, decisions):
        version = real_commit(g, decisions)
        queued.append(pending(g))
        return version

    def repaired(g, rec, cfg):
        seen.append(pending(g))
        return real_repair(g, rec, cfg)

    monkeypatch.setattr(stream, "commit", committed)
    monkeypatch.setattr(repair, "repair_tuple", repaired)
    g, records = _shared_entity_stream(0)
    run(g, iter(records), cfg, slice_size=20)
    assert sum(queued) and len(seen) >= len(records)
    assert not any(seen)


# -- the collector during a run ------------------------------------------------

def test_run_repairs_each_slice_with_the_collector_paused(monkeypatch, collector):
    g, records, _ = benchmark_generate(
        BenchmarkSpec(records=600, labels=10, occurrences_per_label=10, seed=0))
    calls = []
    real = stream.repair_instance

    def recorded(*args):
        paused, started = not gc.isenabled(), len(collector)
        decisions = real(*args)
        calls.append((paused, len(collector) - started))
        return decisions

    monkeypatch.setattr(stream, "repair_instance", recorded)
    gc.enable()
    log, _ = run(g, iter(inject_errors(records, rate=0.3, seed=0)), RepairConfig(), slice_size=200)
    assert len(log) == len(records)
    assert calls == [(True, 0)] * 3      # paused, and no collection set off inside
    assert gc.isenabled()


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_run_leaves_the_collector_as_it_found_it(monkeypatch, collector, raises):
    paused = []

    def repair_instance(g, records, cfg):
        paused.append(not gc.isenabled())
        if raises:
            raise RuntimeError("repair failed")
        return repair.repair_instance(g, records, cfg)

    monkeypatch.setattr(stream, "repair_instance", repair_instance)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        if raises:
            with pytest.raises(RuntimeError, match="repair failed"):
                run(head_context_graph(), [rec("a", "h", "t", ("r", 0.9))], rcfg())
        else:
            records = [rec("a", "h", "t", ("r", 0.9)), rec("b", "h", "u", ("r", 0.9))]
            log, _ = run(head_context_graph(), records, rcfg(), slice_size=1)
            assert len(log) == 2
        assert gc.isenabled() == enabled
    assert paused and all(paused)
