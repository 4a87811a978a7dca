"""Acceptance gate: ten end-to-end criteria with explicit time budgets.

Each test prints one summary line; run with -v for the per-criterion
pass/fail listing.
"""

from __future__ import annotations

import random
import time
from collections import deque

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgmend import (
    BenchmarkSpec,
    GraphStore,
    PathEmbedding,
    PredictionRecord,
    RepairConfig,
    RepairDecision,
    Tuple,
    ValidationConfig,
    benchmark_facts,
    benchmark_generate,
    detect_errors,
    extract_pattern,
    inject_errors,
    joint_scores,
    save_graph,
    score,
    sim,
    traverse_r,
)
from kgmend.cli import main
from kgmend.embedding import MODES
from kgmend.repair import write_predictions
from kgmend.stream import run

from conftest import DATA, GOLDEN, LABELS, random_center, random_graph
from oracle import enumerate_central_walks, exact_support


def _finish(criterion: int, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {criterion}: PASS in {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_01_fixture_embedding_golden():
    """The worked six-path embedding is reproduced byte for byte."""
    t0 = time.perf_counter()
    result = CliRunner().invoke(main, [
        "embed", "--graph", str(DATA / "fixture_b.tsv"),
        "--head", "India", "--relation", "C", "--tail", "Gorakhpur", "--l", "1",
    ])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / "fixture_b_l1.txt").read_bytes()
    _finish(1, t0, 1.0)


def test_criterion_02_walk_oracle_equivalence():
    """traverse_r agrees with the literal walk enumeration, both modes."""
    t0 = time.perf_counter()
    compared = 0
    for seed in range(120):
        rng = random.Random(seed)
        g = random_graph(rng, max_vertices=8, max_edges=14)
        center = random_center(rng, g)
        for l in (1, 2, 3):
            p = extract_pattern(g, center, l)
            assert len(p.vertices) <= 10
            for mode in MODES:
                emb = traverse_r(p, l, mode)
                assert emb.counts == enumerate_central_walks(p, l, mode)
            compared += 1
    assert compared >= 200
    _finish(2, t0, 60.0)


def _ball_edges_oracle(g: GraphStore, center: Tuple, l: int):
    """Plain BFS reference: union ball vertices, induced edges plus center."""
    edges = set(g.all_tuples()) | {center}
    adjacency: dict[str, set[str]] = {}
    for e in edges:
        adjacency.setdefault(e.head, set()).add(e.tail)
        adjacency.setdefault(e.tail, set()).add(e.head)
    reach: set[str] = set()
    for start in (center.head, center.tail):
        frontier = deque([(start, 0)])
        seen = {start}
        while frontier:
            v, d = frontier.popleft()
            reach.add(v)
            if d == l:
                continue
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append((w, d + 1))
    kept = frozenset(e for e in edges
                     if e.head in reach and e.tail in reach) | {center}
    return frozenset(reach), kept


def test_criterion_03_pattern_extraction_correctness():
    """Patterns match the BFS oracle, grow with radius, obey the size bound."""
    t0 = time.perf_counter()
    for seed in range(200):
        rng = random.Random(1000 + seed)
        g = random_graph(rng, max_vertices=50, max_edges=80)
        center = random_center(rng, g)
        stored = center in g
        if stored:
            d_max = g.degree_stats()[0]
        else:
            with g.overlay([center]):
                d_max = g.degree_stats()[0]
        previous = None
        for l in (1, 2):
            p = extract_pattern(g, center, l)
            want_vertices, want_edges = _ball_edges_oracle(g, center, l)
            assert p.vertices == want_vertices
            assert p.edges == want_edges
            assert len(p.vertices) <= 2 * d_max ** l + 2
            if previous is not None:
                assert previous.vertices <= p.vertices
                assert previous.edges <= p.edges
            previous = p
    _finish(3, t0, 60.0)


def test_criterion_04_support_anti_monotonicity():
    """Exact support families never shrink when the radius grows."""
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        rng = random.Random(seed)
        g = random_graph(rng, max_vertices=12, max_edges=16)
        edges = sorted(g.all_tuples())
        center = rng.choice(edges)
        small = exact_support(g, extract_pattern(g, center, 1), size_cap=3)
        large = exact_support(g, extract_pattern(g, center, 2), size_cap=3)
        assert len(small) <= len(large)
        assert set(small) <= set(large)
        checked += 1
    _finish(4, t0, 120.0)


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

label_seqs = st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS))
multisets = st.dictionaries(label_seqs, st.integers(min_value=1, max_value=4),
                            max_size=6)
embeddings = multisets.map(lambda m: PathEmbedding("r", 1, "sorted", m))


@PROPERTY_SETTINGS
@given(embeddings, embeddings)
def _sim_axiom_pair(m1: PathEmbedding, m2: PathEmbedding) -> None:
    value = sim(m1, m2)
    assert value == sim(m2, m1)
    assert 0.0 <= value <= 1.0
    if not m1.paths or not m2.paths:
        assert value == 0.0


@PROPERTY_SETTINGS
@given(embeddings)
def _sim_axiom_self(m: PathEmbedding) -> None:
    assert sim(m, m) == (0.0 if not m.paths else 1.0)


def test_criterion_05_similarity_axioms():
    """Similarity is symmetric, bounded, reflexive and zero on empties."""
    t0 = time.perf_counter()
    _sim_axiom_pair()
    _sim_axiom_self()
    _finish(5, t0, 10.0)


def _top1_decisions(records: list[PredictionRecord]) -> list[RepairDecision]:
    return [RepairDecision(r.id, r.head, r.tail, r.candidates[0][0],
                           r.candidates[0][0], "Accepted", 0.0, 0)
            for r in records]


def test_criterion_06_repair_efficacy_across_error_rates():
    """Repair never hurts precision and stays stable up to 50% injected errors."""
    t0 = time.perf_counter()
    spec = BenchmarkSpec(records=5000, labels=20, occurrences_per_label=20, seed=0)
    cfg = RepairConfig(validation=ValidationConfig())
    repaired_precision = {}
    for rate in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        g, records, gold = benchmark_generate(spec)
        perturbed = inject_errors(records, rate, seed=7)
        unrepaired = score(_top1_decisions(perturbed), gold).precision
        log, _ = run(g, perturbed, cfg)
        repaired = score(log, gold).precision
        assert repaired >= unrepaired, f"rate {rate}: {repaired} < {unrepaired}"
        repaired_precision[rate] = repaired
    assert abs(repaired_precision[0.5] - repaired_precision[0.0]) <= 0.15
    _finish(6, t0, 300.0)


def test_criterion_07_per_tuple_cost_stays_flat_with_graph_size():
    """Mean per-tuple repair time grows by at most 3x for 10x more edges."""
    t0 = time.perf_counter()

    def mean_per_tuple(occurrences: int, target_edges: int) -> float:
        best = float("inf")
        for _ in range(2):
            spec = BenchmarkSpec(records=400, labels=20,
                                 occurrences_per_label=occurrences, seed=2)
            g, records, _ = benchmark_generate(spec)
            edges = g.degree_stats()[2]
            assert abs(edges - target_edges) / target_edges < 0.1
            cfg = RepairConfig(validation=ValidationConfig(l=2, sample_size=10))
            _, slices = run(g, records, cfg, slice_size=len(records))
            best = min(best, slices[0].per_tuple_seconds)
        return best

    small = mean_per_tuple(167, 10_000)
    large = mean_per_tuple(1667, 100_000)
    assert small > 0
    assert large / small <= 3.0, f"per-tuple ratio {large / small:.2f}"
    _finish(7, t0, 600.0)


def test_criterion_08_enhance_is_deterministic_across_workers(tmp_path):
    """Worker count never changes the decision log or the enhanced graph."""
    t0 = time.perf_counter()
    spec = BenchmarkSpec(records=300, labels=10, occurrences_per_label=10, seed=4)
    g, records, _ = benchmark_generate(spec)
    graph_path = tmp_path / "graph.tsv"
    save_graph(g, graph_path)
    preds = tmp_path / "preds.jsonl"
    write_predictions(inject_errors(records, 0.3, seed=9), preds)

    outputs = {}
    for workers in (1, 4):
        decisions = tmp_path / f"decisions_w{workers}.jsonl"
        out_graph = tmp_path / f"graph_w{workers}.tsv"
        result = CliRunner().invoke(main, [
            "enhance", "--graph", str(graph_path), "--predictions", str(preds),
            "--seed", "0", "--workers", str(workers), "--slice-size", "100",
            "--out-decisions", str(decisions), "--out-graph", str(out_graph),
        ])
        assert result.exit_code == 0
        outputs[workers] = (decisions.read_bytes(), out_graph.read_bytes())
    assert outputs[1] == outputs[4]
    _finish(8, t0, 120.0)


def test_criterion_09_error_detection_beats_baselines():
    """Truth detection outscores all-false and coin-flip baselines at 20/80."""
    t0 = time.perf_counter()
    spec = BenchmarkSpec(records=0, labels=20, occurrences_per_label=20, seed=0)
    g, _, _ = benchmark_generate(spec)
    facts = benchmark_facts(g, spec, count=400, true_fraction=0.2, seed=1)

    report = detect_errors(g, facts, ValidationConfig())

    def f_score(flags: list[bool]) -> float:
        tp = sum(1 for guess, (_, truth) in zip(flags, facts) if guess and truth)
        fp = sum(1 for guess, (_, truth) in zip(flags, facts) if guess and not truth)
        fn = sum(1 for guess, (_, truth) in zip(flags, facts) if not guess and truth)
        if tp == 0:
            return 0.0
        precision, recall = tp / (tp + fp), tp / (tp + fn)
        return 2 * precision * recall / (precision + recall)

    all_false = f_score([False] * len(facts))
    rng = random.Random(5)
    coin_flip = f_score([rng.random() < 0.5 for _ in facts])
    assert report.f_score > all_false
    assert report.f_score > coin_flip
    _finish(9, t0, 120.0)


def test_criterion_10_joint_ranking_on_worked_probabilities():
    """The lower-acquisition candidate wins once linkage is factored in."""
    t0 = time.perf_counter()
    record = PredictionRecord("ex", "Great_Britain", "Summer_Olympics_1908",
                              (("contains", 0.42), ("medals_won", 0.33)))
    links = {"contains": 0.31, "medals_won": 0.72}

    def stub_link(g, head, tail, relation, cfg):
        return links[relation]

    cfg = RepairConfig(validation=ValidationConfig())
    ranked = joint_scores(GraphStore(), record, cfg, link_fn=stub_link)
    assert [label for label, _ in ranked] == ["medals_won", "contains"]
    assert ranked[0][1] == pytest.approx(0.2376, abs=1e-12)
    assert ranked[1][1] == pytest.approx(0.1302, abs=1e-12)
    _finish(10, t0, 1.0)
