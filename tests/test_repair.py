"""Instance building, linkage prediction, joint ranking, per-tuple repair."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgmend import (
    BenchmarkSpec,
    GraphStore,
    NA,
    PredictionFormatError,
    PredictionRecord,
    RepairConfig,
    Tuple,
    ValidationConfig,
    benchmark_generate,
    classify,
    embedding,
    initial_instance,
    inject_errors,
    joint_scores,
    predict_link,
    repair,
    repair_instance,
    repair_tuple,
    sim,
    validation,
)
from kgmend.repair import UNKNOWN_POLICIES, parse_record
from kgmend.stream import run

from conftest import HUB_THRESHOLDS, LABELS, hub_edges, random_graph
from oracle import joint_order, reference_repair_tuple

VCFG = ValidationConfig(l=1, sample_size=4)


def rec(rid, head, tail, *candidates) -> PredictionRecord:
    return PredictionRecord(rid, head, tail, tuple(candidates))


def rcfg(**kw) -> RepairConfig:
    kw.setdefault("validation", VCFG)
    return RepairConfig(**kw)


@pytest.mark.parametrize("kw", [
    {"k": 0}, {"p_th": -0.1}, {"p_th": 1.5}, {"unknown_policy": "maybe"},
    {"max_hold_iterations": -1},
])
def test_repair_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        RepairConfig(**kw)


# -- record parsing -----------------------------------------------------------

def test_parse_record_roundtrip():
    obj = {"id": "r1", "head": "h", "tail": "t",
           "candidates": [{"relation": "a", "p": 0.8}, {"relation": "NA", "p": 0.2}]}
    parsed = parse_record(obj)
    assert parsed == rec("r1", "h", "t", ("a", 0.8), ("NA", 0.2))


def test_parse_record_rejects_bad_input():
    base = {"id": "r1", "head": "h", "tail": "t"}
    bad = [
        {**base},
        {**base, "candidates": []},
        {**base, "candidates": [{"relation": "a", "p": 1.2}]},
        {**base, "candidates": [{"relation": "a", "p": -0.1}]},
        {**base, "candidates": [{"relation": "a", "p": 0.3}, {"relation": "b", "p": 0.6}]},
        {**base, "candidates": [{"relation": "a"}]},
        {**base, "candidates": [{"relation": "a", "p": "0.5"}]},
        {**base, "candidates": [{"relation": "a", "p": " 0.25 "}]},
        {**base, "candidates": [{"relation": "a", "p": True}]},
        {**base, "candidates": [{"relation": "a", "p": None}]},
        {**base, "candidates": [{"relation": "a", "p": 10 ** 400}]},
    ]
    for obj in bad:
        with pytest.raises(PredictionFormatError):
            parse_record(obj)


def test_parse_record_tolerates_float_noise_in_ordering():
    obj = {"id": "r1", "head": "h", "tail": "t",
           "candidates": [{"relation": "a", "p": 0.5}, {"relation": "b", "p": 0.5 + 5e-13}]}
    assert parse_record(obj).candidates[1][0] == "b"


# -- initial instance ---------------------------------------------------------

def test_initial_instance_filters():
    records = [
        rec("r1", "a", "b", ("C", 0.9)),
        rec("r2", "c", "d", (NA, 0.9), ("C", 0.1)),
        rec("r3", "e", "f", ("C", 0.3)),
    ]
    assert initial_instance(records, 0.5) == [Tuple("a", "C", "b")]
    assert initial_instance(records, 0.0) == [Tuple("a", "C", "b"), Tuple("e", "C", "f")]


# -- linkage prediction -------------------------------------------------------

def twin_graph() -> GraphStore:
    g = GraphStore()
    g.add_tuple(Tuple("a1", "r", "b1"))
    g.add_tuple(Tuple("a1", "q", "x1"))
    return g


def test_predict_link_cold_start_is_zero():
    g = twin_graph()
    assert predict_link(g, "h", "t", "never_seen", VCFG) == 0.0


def test_predict_link_twin_context_is_one():
    g = twin_graph()
    g.add_tuple(Tuple("h", "q", "xh"))
    assert predict_link(g, "h", "t", "r", VCFG) == 1.0


def test_predict_link_mixed_contexts_average():
    g = twin_graph()
    g.add_tuple(Tuple("a2", "r", "b2"))
    g.add_tuple(Tuple("a2", "z", "y2"))
    g.add_tuple(Tuple("h", "q", "xh"))
    assert predict_link(g, "h", "t", "r", VCFG) == pytest.approx(0.5)


def test_predict_link_rejects_na():
    with pytest.raises(ValueError):
        predict_link(twin_graph(), "h", "t", NA, VCFG)


# -- joint ranking ------------------------------------------------------------

def stub_link(table):
    def link(g, h, t, r, vcfg):
        return table.get(r, 0.0)
    return link


def test_joint_scores_rank_the_acquisition_example():
    record = rec("e1", "Sushil_Kumar", "Olympic_Games",
                 ("contains", 0.42), ("medals_won", 0.33))
    link = stub_link({"contains": 0.31, "medals_won": 0.72})
    scored = joint_scores(GraphStore(), record, rcfg(), link_fn=link)
    assert [label for label, _ in scored] == ["medals_won", "contains"]
    assert dict(scored)["medals_won"] == pytest.approx(0.2376)
    assert dict(scored)["contains"] == pytest.approx(0.1302)


def test_joint_scores_fall_back_to_acquisition_order():
    record = rec("e1", "h", "t", ("a", 0.6), ("b", 0.4), ("c", 0.2))
    scored = joint_scores(GraphStore(), record, rcfg(), link_fn=stub_link({}))
    assert [label for label, _ in scored] == ["a", "b", "c"]
    assert all(joint == 0.0 for _, joint in scored)


def test_joint_scores_skip_na_and_truncate_to_k():
    record = rec("e1", "h", "t", ("a", 0.5), (NA, 0.3), ("b", 0.2), ("c", 0.1))
    scored = joint_scores(GraphStore(), record, rcfg(k=2), link_fn=stub_link({}))
    assert [label for label, _ in scored] == ["a", "b"]


def test_joint_scores_keep_a_repeated_labels_first_p_and_truncate_after_dedup():
    record = rec("e1", "h", "t", ("a", 0.5), (NA, 0.4), ("a", 0.3), ("b", 0.2), ("c", 0.1))
    scored = joint_scores(GraphStore(), record, rcfg(k=2),
                          link_fn=stub_link({"a": 1.0, "b": 1.0, "c": 1.0}))
    assert scored == [("a", 0.5), ("b", 0.2)]


def test_joint_ranking_invariant_under_probability_scaling():
    link = stub_link({"a": 0.2, "b": 0.9, "c": 0.4})
    base = rec("e1", "h", "t", ("a", 0.8), ("b", 0.5), ("c", 0.3))
    scaled = rec("e1", "h", "t", ("a", 0.4), ("b", 0.25), ("c", 0.15))
    order = lambda r: [label for label, _ in joint_scores(GraphStore(), r, rcfg(), link_fn=link)]
    assert order(base) == order(scaled)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(candidates=st.lists(st.tuples(st.sampled_from(LABELS + (NA,)),
                                     st.sampled_from((-0.4, -0.2, 0.0, 0.3, 0.3 + 1e-12, 0.6, 1.0))),
                           min_size=1, max_size=5),
       links=st.fixed_dictionaries({label: st.sampled_from((0.0, 0.5, 0.75, 1.0)) for label in LABELS}),
       k=st.integers(1, 5))
def test_joint_scores_match_a_full_sort_in_any_candidate_order(candidates, links, k):
    # the labels are scored lazily, in descending p, so the candidates' own order,
    # ascending or by 1e-12 out of order, must not change the ranking; the first
    # label comes out once every label that could beat it, and no other, is scored
    first = {}
    for label, p in candidates:
        if label != NA:
            first.setdefault(label, p)
    rows = [(label, p, p * links[label]) for label, p in list(first.items())[:k]]
    assume(rows)
    record, asked = rec("e1", "h", "t", *candidates), []

    def link(g, h, t, r, vcfg):
        asked.append(r)
        return links[r]

    expected = [(label, joint) for label, _, joint in joint_order(rows)]
    ranked = repair._ranked(GraphStore(), record, rcfg(k=k), link)
    best = next(ranked)
    assert sorted(asked) == sorted(label for label, p, _ in rows if max(p, 0.0) >= best[1])
    assert [best, *ranked] == expected
    assert sorted(asked) == sorted(label for label, _, _ in rows)      # each label once
    assert joint_scores(GraphStore(), record, rcfg(k=k), link_fn=link) == expected


@pytest.mark.parametrize("score", [1.5, -0.1, float("nan")])
def test_joint_scores_reject_a_link_score_outside_the_unit_interval(score):
    # a joint above its p would break the bound that lets labels go unscored
    record = rec("e1", "h", "t", ("a", 0.6), ("b", 0.4))
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        joint_scores(GraphStore(), record, rcfg(), link_fn=stub_link({"a": 1.0, "b": score}))


# -- per-tuple repair ---------------------------------------------------------

def support_graph(label="r", context="q", occurrences=3) -> GraphStore:
    g = GraphStore()
    for i in range(occurrences):
        g.add_tuple(Tuple(f"a{i}", label, f"b{i}"))
        g.add_tuple(Tuple(f"a{i}", context, f"x{i}"))
    return g


def test_valid_initial_is_accepted():
    g = support_graph()
    g.add_tuple(Tuple("h", "q", "xh"))
    decision = repair_tuple(g, rec("r1", "h", "t", ("r", 0.9)), rcfg())
    assert decision.status == "Accepted"
    assert decision.final == decision.initial == "r"
    assert decision.support >= 1
    assert decision.joint == pytest.approx(0.9)


def test_invalid_initial_repaired_to_supported_label():
    g = support_graph()
    g.add_tuple(Tuple("h", "q", "xh"))
    record = rec("r1", "h", "t", ("wrong", 0.8), ("r", 0.6))
    decision = repair_tuple(g, record, rcfg())
    assert decision.status == "Repaired"
    assert decision.initial == "wrong"
    assert decision.final == "r"
    assert decision.final != NA
    assert decision.checks == 2
    assert decision.checks <= rcfg().k


def test_each_label_is_sampled_and_decided_once(monkeypatch):
    # "r" alone has a link score, so it leads the joint ranking behind the failed Top-1;
    # a label is checked only while its p reaches the best joint not yet tried
    record = rec("r1", "h", "t", ("wrong", 0.8), ("r", 0.6), ("x", 0.5), ("y", 0.4), ("z", 0.3))
    calls = []
    gather, check = repair.gather_evidence, repair.support_from_evidence

    def sampled(g, s, *args):
        calls.append(("sample", s.relation))
        return gather(g, s, *args)

    def decided(g, s, *args):
        calls.append(("decide", s.relation))
        return check(g, s, *args)

    monkeypatch.setattr(repair, "gather_evidence", sampled)
    monkeypatch.setattr(repair, "support_from_evidence", decided)
    # r's joint is 0.6 (link 1), above x's p; then 0.45 (link 0.75), below it, so x is checked
    for mixed, checked in ((False, ("wrong", "r")), (True, ("wrong", "r", "x"))):
        g = support_graph()
        g.add_tuple(Tuple("h", "q", "xh"))
        if mixed:
            g.add_tuple(Tuple("a9", "r", "b9"))
            g.add_tuple(Tuple("a9", "other", "z9"))
        calls.clear()
        decision = repair_tuple(g, record, rcfg(k=5))
        assert (decision.status, decision.final, decision.checks) == ("Repaired", "r", len(checked))
        assert decision.joint == pytest.approx(0.45 if mixed else 0.6)
        # Top-1's evidence is reused when the ranking asks for its link score
        assert calls == [(step, label) for label in checked for step in ("sample", "decide")]


def test_a_record_builds_one_candidate_pattern(monkeypatch):
    """The later labels relabel Top-1's candidate pattern: one BFS around
    the record's endpoints, however many labels are checked. No label
    passes here, so all four are."""
    g = support_graph()
    g.add_tuple(Tuple("h", "p", "xh"))      # not r's context: r's witnesses share no path
    record = rec("r1", "h", "t", ("wrong", 0.8), ("r", 0.6), ("x", 0.5), ("y", 0.4))
    built = []
    extract = validation.extract_pattern

    def counted(g, center, l):
        built.append(center)
        return extract(g, center, l)

    monkeypatch.setattr(validation, "extract_pattern", counted)
    decision = repair_tuple(g, record, rcfg(k=4))
    assert (decision.status, decision.final, decision.checks) == ("Rejected", NA, 4)
    assert [c for c in built if (c.head, c.tail) == ("h", "t")] == [Tuple("h", "wrong", "t")]


def test_top1_na_is_rejected_outright():
    g = support_graph()
    decision = repair_tuple(g, rec("r1", "h", "t", (NA, 0.9), ("r", 0.1)), rcfg())
    assert decision.status == "Rejected"
    assert decision.initial == NA and decision.final == NA
    assert decision.checks == 0


def test_below_threshold_is_rejected_outright():
    g = support_graph()
    decision = repair_tuple(g, rec("r1", "h", "t", ("r", 0.3)), rcfg(p_th=0.5))
    assert decision.status == "Rejected"
    assert decision.final == NA


def test_unknown_policy_dispatch():
    g = support_graph()
    record = rec("r1", "ghost", "nowhere", ("w", 0.8), ("z", 0.6))
    held = repair_tuple(g, record, rcfg(unknown_policy="hold"))
    assert held.status == "Held" and held.final == NA
    accepted = repair_tuple(g, record, rcfg(unknown_policy="accept"))
    assert accepted.status == "Accepted" and accepted.final == "w"
    rejected = repair_tuple(g, record, rcfg(unknown_policy="reject"))
    assert rejected.status == "Rejected" and rejected.final == NA


def test_an_unknown_alternative_holds_the_record():
    g = support_graph()
    g.add_tuple(Tuple("h", "s", "t"))       # contradicts "w"; as "s" it is the record's own fact
    decision = repair_tuple(g, rec("r1", "h", "t", ("w", 0.8), ("s", 0.6)), rcfg())
    assert (decision.status, decision.final, decision.checks) == ("Held", NA, 2)


def test_invalid_everywhere_rejects_even_under_hold():
    g = support_graph()
    g.add_tuple(Tuple("h", "other", "t"))      # endpoints already linked differently
    record = rec("r1", "h", "t", ("w", 0.8), ("z", 0.6))
    decision = repair_tuple(g, record, rcfg(unknown_policy="hold"))
    assert decision.status == "Rejected"
    # the same record as an instance member, its Top-1 tuple in the snapshot
    assert repair_instance(g, [record], rcfg(unknown_policy="hold")) == [decision]


def test_decision_json_keys():
    import json

    g = support_graph()
    g.add_tuple(Tuple("h", "q", "xh"))
    decision = repair_tuple(g, rec("r1", "h", "t", ("r", 0.9)), rcfg())
    payload = json.loads(decision.to_json())
    assert set(payload) == {"id", "head", "tail", "initial", "final",
                            "status", "joint", "support"}


# -- instance-level repair ----------------------------------------------------

def test_repair_instance_empty():
    assert repair_instance(support_graph(), [], rcfg()) == []


def test_repair_instance_preserves_order_and_graph():
    g = support_graph()
    g.add_tuple(Tuple("h1", "q", "x1h"))
    g.add_tuple(Tuple("h2", "q", "x2h"))
    before = set(g.all_tuples())
    records = [rec("r1", "h1", "t1", ("r", 0.9)), rec("r2", "h2", "t2", ("r", 0.8))]
    decisions = repair_instance(g, records, rcfg())
    assert [d.id for d in decisions] == ["r1", "r2"]
    assert all(d.status == "Accepted" for d in decisions)
    assert set(g.all_tuples()) == before


def test_records_support_each_other_through_the_snapshot():
    # tail-side context: occurrences of r are followed by a q edge at the tail
    g = GraphStore()
    for i in range(3):
        g.add_tuple(Tuple(f"a{i}", "r", f"b{i}"))
        g.add_tuple(Tuple(f"b{i}", "q", f"c{i}"))
    records = [
        rec("r1", "h", "t", ("r", 0.9)),
        rec("r2", "t", "u", ("q", 0.9)),
    ]
    alone = [repair_tuple(g, record, rcfg()) for record in records]
    assert {d.status for d in alone} == {"Held"}
    together = repair_instance(g, records, rcfg())
    assert [d.status for d in together] == ["Accepted", "Accepted"]


def test_instance_decisions_are_per_record_repairs_in_input_order():
    def build():
        g = support_graph(occurrences=6)
        records = []
        for i in range(12):
            g.add_tuple(Tuple(f"h{i}", "q", f"xh{i}"))
            records.append(rec(f"r{i}", f"h{i}", f"t{i}", ("wrong", 0.8), ("r", 0.6)))
        records.insert(6, rec("again", "a0", "b0", ("r", 0.9)))     # re-predicts a committed fact
        return g, records

    g, records = build()
    decisions = repair_instance(g, records, rcfg())
    # the same records repaired one by one against an identical snapshot
    g, records = build()
    instance = initial_instance(records, rcfg().p_th)
    with g.overlay(instance):
        one_by_one = [repair_tuple(g, r, rcfg()) for r in records]
    assert decisions == one_by_one
    assert decisions[6].status == "Accepted"
    assert [d.id for d in decisions] == [r.id for r in records]


def test_a_re_predicted_committed_fact_still_testifies():
    # record A re-predicts the stored (x, r, y), B's only witness: the
    # overlay inserts nothing for A, so (x, r, y) stays committed evidence
    g = GraphStore()
    for s in [("x", "ctx", "x_c"), ("u", "ctx", "u_c"), ("x", "r", "y")]:
        g.add_tuple(Tuple(*s))
    a = rec("A", "x", "y", ("r", 0.9))
    b = rec("B", "u", "v", ("r", 0.9))
    alone = repair_instance(g, [b], rcfg())
    assert [(d.status, d.support) for d in alone] == [("Accepted", 1)]
    assert repair_instance(g, [a, b], rcfg())[1] == alone[0]


# -- the ranking path against the reference walk ------------------------------

_VERTICES = [f"v{i}" for i in range(6)]
_EDGE = st.tuples(st.sampled_from(_VERTICES), st.sampled_from(LABELS), st.sampled_from(_VERTICES))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(graph_seed=st.integers(0, 2**16),
       endpoints=st.tuples(st.sampled_from(_VERTICES + ["fresh"]), st.sampled_from(_VERTICES)),
       candidates=st.lists(st.tuples(st.sampled_from(LABELS + ("cold", NA)),
                                     st.sampled_from((0.9, 0.6, 0.3, 0.1))), min_size=1, max_size=4),
       policy=st.sampled_from(UNKNOWN_POLICIES), k=st.integers(1, 4),
       vcfg=st.builds(ValidationConfig, l=st.integers(1, 2), delta=st.integers(1, 2),
                      sample_size=st.integers(1, 3), seed=st.integers(0, 3)),
       context=st.lists(_EDGE, max_size=4), own=st.booleans())
def test_repair_tuple_matches_the_reference_walk(graph_seed, endpoints, candidates, policy, k, vcfg,
                                                 context, own):
    head, tail = endpoints
    record = rec("x", head, tail, *sorted(candidates, key=lambda c: -c[1]))
    cfg = RepairConfig(k=k, unknown_policy=policy, validation=vcfg)
    instance = [Tuple(*edge) for edge in context]
    if own and record.candidates[0][0] != NA:
        instance.append(Tuple(head, record.candidates[0][0], tail))

    def decide(repair_fn):
        # a fresh copy of the graph each, so that neither reads the other's caches;
        # the reference is given what the overlay inserts, repair_tuple reads g.provisional
        g = random_graph(random.Random(graph_seed), max_vertices=6)
        provisional = frozenset(s for s in instance if s not in g)
        with g.overlay(instance):
            return repair_fn(g, record, cfg, provisional)

    got = decide(lambda g, record, cfg, _: repair_tuple(g, record, cfg))
    want = decide(reference_repair_tuple)
    assert (got.to_json(), got.checks, got.support) == (want.to_json(), want.checks, want.support)


def test_repair_tuple_scores_in_descending_p_not_candidate_order():
    # parse_record lets a later p exceed an earlier one by 1e-12: "a", last, ties
    # "b"'s joint and wins on its label, though "c" before it has a p below that joint
    record = parse_record({"id": "x", "head": "h", "tail": "t", "candidates": [
        {"relation": "top", "p": 0.9}, {"relation": "b", "p": 0.3 + 1e-12},
        {"relation": "c", "p": 0.3}, {"relation": "a", "p": 0.3 + 1e-12}]})

    def graph() -> GraphStore:
        g = GraphStore()
        for label in ("a", "b"):
            for i in range(3):
                g.add_tuple(Tuple(f"{label}{i}", label, f"{label}{i}_t"))
                g.add_tuple(Tuple(f"{label}{i}", "q", f"{label}{i}_x"))
        g.add_tuple(Tuple("h", "q", "xh"))
        return g

    got = repair_tuple(graph(), record, rcfg())
    want = reference_repair_tuple(graph(), record, rcfg())
    assert (got.to_json(), got.checks, got.support) == (want.to_json(), want.checks, want.support)
    assert (got.status, got.final, got.checks) == ("Repaired", "a", 3)     # "b" in candidate order


def test_decisions_do_not_depend_on_cache_state(monkeypatch):
    # a cold store and one whose witness cache and posting indexes are full
    # decide the same records alike; records that join stored vertices make
    # the snapshot's writes evict cached witnesses, and with walk tables kept
    # for every vertex, the tables they read
    for edges in HUB_THRESHOLDS:
        with hub_edges(edges), monkeypatch.context() as patch:
            _decide_cold_and_warm_alike(patch)


def _decide_cold_and_warm_alike(monkeypatch) -> None:
    spec = BenchmarkSpec(records=300, labels=6, occurrences_per_label=15, seed=3)
    cold, records, _ = benchmark_generate(spec)
    warm, _, _ = benchmark_generate(spec)
    vcfg = ValidationConfig()
    for s in warm.all_tuples():
        validation.witness_embedding(warm, s, vcfg)
    rng = random.Random(0)
    labels = sorted({r for record in records for r, _ in record.candidates} - {NA})
    stored = [s for r in labels for s in warm.tuples_with_relation(r)]
    for s in rng.sample(stored, 40):
        wrong = Tuple(s.head, rng.choice([r for r in labels if r != s.relation]), s.tail)
        ignore = frozenset(rng.sample(warm.tuples_with_relation(wrong.relation), 3))
        classify(warm, wrong, vcfg, ignore)
    assert warm.postings
    witnesses = [key for key in warm.embedding_cache if len(key) == 3]     # not (vertex, steps) tables
    assert len(witnesses) == len(warm) and not cold.embedding_cache
    assert len(warm.embedding_cache) > len(witnesses) or embedding.HUB_EDGES > 1
    records = inject_errors(records, rate=0.3, seed=0) + [
        rec(f"x{i}", a.head, b.tail, *zip(rng.sample(labels, 3), (0.8, 0.5, 0.3)))
        for i, (a, b) in enumerate(rng.sample(stored, 2) for _ in range(100))]

    reports = {id(cold): [], id(warm): []}
    decide = repair.support_from_evidence

    def recorded(g, *args):
        report = decide(g, *args)
        reports[id(g)].append(report)
        return report

    monkeypatch.setattr(repair, "support_from_evidence", recorded)
    cfg = RepairConfig(validation=vcfg)
    assert repair_instance(warm, records, cfg) == repair_instance(cold, records, cfg)
    assert reports[id(warm)] == reports[id(cold)]
    assert any(report.escalated and report.witnesses for report in reports[id(cold)])


def test_a_record_walks_once_however_many_labels_it_checks(monkeypatch):
    """Every label of a record reads Top-1's label-free paths, so a record's
    candidate is walked once when its Top-1 clears p_th and never otherwise,
    and `sim` still refuses to compare two of its labels' embeddings."""
    g, records, _ = benchmark_generate(
        BenchmarkSpec(records=200, labels=5, occurrences_per_label=10, seed=0))
    runs = []       # per repair_tuple call: [record, its candidate walks, its decision]
    walk, decide, gather = validation.traverse_r, repair.repair_tuple, repair.gather_evidence
    candidates = []

    def counted_walk(p, l, mode):
        if runs and (p.center.head, p.center.tail) == (runs[-1][0].head, runs[-1][0].tail):
            runs[-1][1] += 1
        return walk(p, l, mode)

    def counted_decide(g, rec, cfg, *args):
        runs.append([rec, 0, None])
        runs[-1][2] = decide(g, rec, cfg, *args)
        return runs[-1][2]

    def kept_gather(*args):
        ev = gather(*args)
        candidates.append(ev.candidate)
        return ev

    monkeypatch.setattr(validation, "traverse_r", counted_walk)
    monkeypatch.setattr(repair, "repair_tuple", counted_decide)
    monkeypatch.setattr(repair, "gather_evidence", kept_gather)
    cfg = RepairConfig(p_th=0.7)
    run(g, iter(inject_errors(records, rate=0.3, seed=0)), cfg, slice_size=50)
    top1 = [rec.candidates[0] for rec, _, _ in runs]
    clears = [label != NA and p >= cfg.p_th for label, p in top1]
    assert [walks for _, walks, _ in runs] == [int(c) for c in clears]
    assert 0 < sum(clears) < len(runs)
    assert sum(dec.checks for _, _, dec in runs) > sum(clears)     # more labels than walks
    shared = [(a, b) for a, b in zip(candidates, candidates[1:])
              if a.paths is b.paths and a.center_label != b.center_label]
    assert shared
    for a, b in shared:
        with pytest.raises(ValueError, match="center labels differ"):
            sim(a, b)
