"""Error injection, scoring, detection, and the planted benchmark."""

from __future__ import annotations

import pytest

from kgmend import (
    BenchmarkSpec,
    GoldLabel,
    GraphStore,
    NA,
    PredictionRecord,
    Tuple,
    ValidationConfig,
    benchmark_facts,
    benchmark_generate,
    detect_errors,
    inject_errors,
    score,
)
from kgmend.evalkit import read_labeled_facts
from kgmend.graph_store import GraphFormatError
from kgmend.repair import RepairDecision

VCFG = ValidationConfig(l=1, sample_size=4)


def make_records(n=50):
    return [
        PredictionRecord(f"r{i}", f"h{i}", f"t{i}",
                         (("a", 0.8), ("b", 0.6), ("c", 0.1)))
        for i in range(n)
    ]


def decision(rid, final, status="Accepted", initial="a") -> RepairDecision:
    return RepairDecision(id=rid, head="h", tail="t", initial=initial, final=final,
                          status=status, joint=0.5, support=1)


# -- injection ----------------------------------------------------------------

def test_inject_rate_zero_is_identity():
    records = make_records()
    assert inject_errors(records, 0.0, seed=1) == records


def test_inject_rate_one_swaps_every_record():
    records = make_records()
    swapped = inject_errors(records, 1.0, seed=1)
    for before, after in zip(records, swapped):
        assert after.candidates[0] == ("b", 0.8)    # labels swap, slots stay
        assert after.candidates[1] == ("a", 0.6)
        assert after.candidates[2:] == before.candidates[2:]


def test_inject_is_an_involution():
    records = make_records()
    twice = inject_errors(inject_errors(records, 0.4, seed=9), 0.4, seed=9)
    assert twice == records


def test_inject_selection_is_stable_and_proportionate():
    records = make_records(1000)
    first = inject_errors(records, 0.3, seed=5)
    second = inject_errors(records, 0.3, seed=5)
    assert first == second
    flipped = sum(1 for a, b in zip(records, first) if a != b)
    assert 230 <= flipped <= 370


def test_inject_leaves_single_candidate_records_alone():
    lone = PredictionRecord("r0", "h", "t", (("a", 0.9),))
    assert inject_errors([lone], 1.0, seed=1) == [lone]


def test_inject_rejects_bad_rate():
    with pytest.raises(ValueError):
        inject_errors([], 1.5, seed=0)


# -- scoring ------------------------------------------------------------------

def test_score_perfect_predictions():
    decisions = [decision("r1", "a"), decision("r2", "b")]
    gold = [GoldLabel("r1", "a"), GoldLabel("r2", "b")]
    report = score(decisions, gold)
    assert (report.precision, report.recall, report.f_score) == (1.0, 1.0, 1.0)


def test_score_all_na_has_zero_recall():
    decisions = [decision("r1", NA, status="Rejected"), decision("r2", NA, status="Held")]
    gold = [GoldLabel("r1", "a"), GoldLabel("r2", "b")]
    report = score(decisions, gold)
    assert report.tp == 0 and report.fn == 2
    assert report.recall == 0.0 and report.f_score == 0.0


def test_score_hand_counted_mixture():
    decisions = [
        decision("r1", "a"),
        decision("r2", "b"),
        decision("r3", "x"),                       # wrong label
        decision("r4", NA, status="Rejected"),     # missed a real relation
    ]
    gold = [GoldLabel("r1", "a"), GoldLabel("r2", "b"),
            GoldLabel("r3", "c"), GoldLabel("r4", "d")]
    report = score(decisions, gold)
    assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 1, 0)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f_score == pytest.approx(2 / 3)


def test_score_counts_na_gold_as_true_negative():
    decisions = [decision("r1", NA, status="Rejected")]
    report = score(decisions, [GoldLabel("r1", NA)])
    assert report.tn == 1 and report.fn == 0


def test_score_is_order_invariant():
    decisions = [decision("r1", "a"), decision("r2", "x"), decision("r3", NA, status="Held")]
    gold = [GoldLabel("r1", "a"), GoldLabel("r2", "b"), GoldLabel("r3", "c")]
    forward = score(decisions, gold)
    backward = score(list(reversed(decisions)), gold)
    assert forward == backward


def test_score_requires_gold_for_every_decision():
    with pytest.raises(ValueError, match="r9"):
        score([decision("r9", "a")], [GoldLabel("r1", "a")])


# -- detection ----------------------------------------------------------------

def test_detect_errors_on_empty_graph_predicts_all_false():
    facts = [(Tuple("a", "r", "b"), True), (Tuple("c", "r", "d"), False)]
    report = detect_errors(GraphStore(), facts, VCFG)
    assert report.tp == 0 and report.fp == 0
    assert report.fn == 1 and report.tn == 1
    flipped = detect_errors(GraphStore(), facts, VCFG, unknown_is_true=True)
    assert flipped.tp == 1 and flipped.fp == 1


def test_detect_errors_recognizes_twin_contexts():
    g = GraphStore()
    for i in range(3):
        g.add_tuple(Tuple(f"a{i}", "r", f"b{i}"))
        g.add_tuple(Tuple(f"a{i}", "q", f"x{i}"))
    g.add_tuple(Tuple("h", "q", "xh"))
    g.add_tuple(Tuple("u", "w", "z"))
    facts = [
        (Tuple("h", "r", "t"), True),       # context matches the stored pattern
        (Tuple("u", "r", "v"), False),      # endpoints known, wrong neighborhood
    ]
    report = detect_errors(g, facts, VCFG)
    assert report.tp == 1 and report.tn == 1
    assert report.f_score == 1.0


def test_detect_errors_refuses_training_facts():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    with pytest.raises(ValueError):
        detect_errors(g, [(Tuple("a", "r", "b"), True)], VCFG)


# -- planted benchmark --------------------------------------------------------

def test_benchmark_is_deterministic():
    spec = BenchmarkSpec(records=40, labels=5, seed=7)
    g1, records1, gold1 = benchmark_generate(spec)
    g2, records2, gold2 = benchmark_generate(spec)
    assert sorted(g1.all_tuples()) == sorted(g2.all_tuples())
    assert records1 == records2
    assert gold1 == gold2


def test_benchmark_records_are_well_formed():
    _, records, gold = benchmark_generate(BenchmarkSpec(records=60, labels=6, seed=1))
    truth = {gl.id: gl.relation for gl in gold}
    for rec in records:
        probs = [p for _, p in rec.candidates]
        assert probs == sorted(probs, reverse=True)
        assert all(0 <= p <= 1 for p in probs)
        assert rec.candidates[0][0] == truth[rec.id]
        labels = [label for label, _ in rec.candidates if label != NA]
        assert len(labels) == len(set(labels))


def test_benchmark_density_zero_plants_no_record_context():
    g, records, _ = benchmark_generate(BenchmarkSpec(records=30, labels=5, density=0.0, seed=2))
    for rec in records:
        assert not g.degree(rec.head)
        assert not g.degree(rec.tail)


def test_benchmark_facts_hold_the_prior_and_stay_out_of_g():
    spec = BenchmarkSpec(records=0, labels=6, seed=3)
    g, _, _ = benchmark_generate(spec)
    facts = benchmark_facts(g, spec, count=200, true_fraction=0.2, seed=4)
    true_count = sum(1 for _, flag in facts if flag)
    assert 25 <= true_count <= 55
    for fact, _ in facts:
        assert fact not in g
        assert g.degree(fact.head)          # the context motif went in


# -- files --------------------------------------------------------------------

def test_read_labeled_facts(tmp_path):
    path = tmp_path / "facts.tsv"
    path.write_text("# comment\na\tr\tb\t1\nc\ts\td\t0\n")
    assert read_labeled_facts(path) == [
        (Tuple("a", "r", "b"), True),
        (Tuple("c", "s", "d"), False),
    ]
    path.write_text("a\tr\tb\t2\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        read_labeled_facts(path)
