"""Path embeddings: central walk counting, canonicalization, similarity."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgmend.embedding as embedding_module
from kgmend import GraphStore, Tuple, extract_pattern, sim, traverse_r
from kgmend.embedding import MODES, PathEmbedding, format_embedding

from conftest import center_with_parallels, hub_graph
from oracle import enumerate_central_walks, reference_sim

CENTER_B = Tuple("India", "C", "Gorakhpur")

FIXTURE_B_SORTED = {
    ("AC", "C"): 1,
    ("AP", "C"): 1,
    ("C", "C"): 1,
    ("C", "CB"): 1,
    ("C", "CU"): 1,
    ("C", "PB"): 1,
}


def embed(g, center, l, mode="sorted"):
    return traverse_r(extract_pattern(g, center, l), l, mode=mode)


def test_fixture_b_sorted_paths(fixture_b):
    e = embed(fixture_b, CENTER_B, 1)
    assert dict(e.counts) == FIXTURE_B_SORTED
    assert e.size == 6


def test_fixture_b_positional_paths(fixture_b):
    e = embed(fixture_b, CENTER_B, 1, mode="positional")
    assert dict(e.counts) == {
        ("C", "C"): 1, ("CU", "C"): 1, ("CB", "C"): 1,
        ("C", "AC"): 1, ("C", "AP"): 1, ("C", "PB"): 1,
    }


def test_fixture_b_radius_two_walk_count(fixture_b):
    # 3 head 2-walks + 3x3 split pairs + 5 tail 2-walks, revisits allowed
    e = embed(fixture_b, CENTER_B, 2)
    assert e.size == 17


def test_edges_between_endpoints_never_walked(fixture_b):
    fixture_b.add_tuple(Tuple("India", "X", "Gorakhpur"))
    fixture_b.add_tuple(Tuple("Gorakhpur", "Y", "India"))
    e = embed(fixture_b, CENTER_B, 1)
    assert dict(e.counts) == FIXTURE_B_SORTED


def test_single_edge_pattern_has_empty_embedding():
    g = GraphStore()
    g.add_tuple(Tuple("u", "q", "v"))
    e = embed(g, Tuple("u", "q", "v"), 1)
    assert e.is_empty() and e.size == 0


def test_self_loop_walked_once():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("a", "q", "a"))
    e = embed(g, Tuple("a", "r", "b"), 1)
    assert dict(e.counts) == {("q", "r"): 1}


def test_antiparallel_edges_are_distinct_steps():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("a", "p", "x"))
    g.add_tuple(Tuple("x", "q", "a"))
    e = embed(g, Tuple("a", "r", "b"), 1)
    assert dict(e.counts) == {("p", "r"): 1, ("q", "r"): 1}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), leaves=st.integers(1, 40), l=st.integers(1, 3))
def test_hub_patterns_agree_with_the_walk_oracle(seed, leaves, l):
    rng = random.Random(seed)
    g = hub_graph(rng, leaves, extra=rng.randint(0, leaves // 4))
    center = center_with_parallels(rng, g)
    p = extract_pattern(g, center, l)
    for mode in MODES:
        assert dict(traverse_r(p, l, mode).counts) == \
            enumerate_central_walks(p, l, mode, max_vertices=len(p.vertices))


def _count_walks_calls(monkeypatch) -> list:
    calls = []
    walks = embedding_module._walks

    def counted(g, ends, memo, v, steps):
        calls.append((v, steps))
        return walks(g, ends, memo, v, steps)

    monkeypatch.setattr(embedding_module, "_walks", counted)
    return calls


def test_one_step_tables_cost_the_same_at_any_hub_degree(monkeypatch):
    """At l = 1 a hub's one-step table counts its labels; it makes no call
    per leaf."""
    calls = _count_walks_calls(monkeypatch)
    made = {}
    for d in (10, 1_000):
        g = GraphStore()
        for i in range(d):
            g.add_tuple(Tuple("hub", "r", f"leaf{i}"))
        calls.clear()
        e = traverse_r(extract_pattern(g, Tuple("hub", "r", "leaf0"), 1), 1)
        assert dict(e.counts) == {("r", "r"): d - 1}
        made[d] = len(calls)
    assert made[10] == made[1_000]


def test_a_hub_next_to_an_endpoint_costs_the_same_at_any_degree(monkeypatch):
    """At l = 2 a hub one step from the head is reached with one step left:
    its table counts its labels, and makes no call per leaf."""
    calls = _count_walks_calls(monkeypatch)
    made = {}
    for d in (10, 1_000):
        g = GraphStore()
        g.add_tuple(Tuple("a", "s", "hub"))
        for i in range(d):
            g.add_tuple(Tuple("hub", "r", f"leaf{i}"))
        calls.clear()
        e = traverse_r(extract_pattern(g, Tuple("a", "r", "b"), 2), 2)
        assert dict(e.counts) == {("r", "s", "s"): 1, ("r", "r", "s"): d}
        assert ("hub", 1) in calls
        made[d] = len(calls)
    assert made[10] == made[1_000]


def test_radius_must_fit_pattern(fixture_b):
    p = extract_pattern(fixture_b, CENTER_B, 1)
    with pytest.raises(ValueError):
        traverse_r(p, 2)
    with pytest.raises(ValueError):
        traverse_r(p, 0)


def test_format_embedding_bytes(fixture_b):
    e = embed(fixture_b, CENTER_B, 1)
    assert format_embedding(e) == "AC,C\t1\nAP,C\t1\nC,C\t1\nC,CB\t1\nC,CU\t1\nC,PB\t1\n"


def _emb(counts, center="r", radius=1, mode="sorted"):
    return PathEmbedding(center_label=center, radius=radius, mode=mode, counts=dict(counts))


def test_intersection_takes_minimum_per_path():
    m1 = _emb({("r", "a"): 3, ("r", "b"): 1})
    m2 = _emb({("r", "a"): 2, ("r", "c"): 5})
    assert sim(m1, m2) == sim(m2, m1) == pytest.approx(2 / 4)


def test_sim_normalizes_by_smaller_size():
    m1 = _emb({("r", "a"): 3, ("r", "b"): 1})   # size 4
    m2 = _emb({("r", "a"): 2, ("r", "c"): 5})   # size 7
    assert sim(m1, m2) == pytest.approx(2 / 4)


def test_sim_empty_is_zero_and_identity_is_one():
    m = _emb({("r", "a"): 2})
    empty = _emb({})
    assert sim(m, m) == 1.0
    assert sim(m, empty) == 0.0
    assert sim(empty, empty) == 0.0


def test_sim_rejects_incomparable_embeddings():
    m = _emb({("r", "a"): 1})
    with pytest.raises(ValueError):
        sim(m, _emb({("s", "a"): 1}, center="s"))
    with pytest.raises(ValueError):
        sim(m, _emb({("r", "a"): 1}, radius=2))
    with pytest.raises(ValueError):
        sim(m, _emb({("r", "a"): 1}, mode="positional"))


_COUNTS = st.dictionaries(st.tuples(st.sampled_from("rabc"), st.sampled_from("abc")),
                          st.integers(1, 6), max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c1=_COUNTS, c2=_COUNTS)
def test_sim_equals_its_plain_formula(c1, c2):
    """The one-pass `sim` gives the reference's float exactly, is symmetric,
    and is 0.0 when either side is empty."""
    m1, m2 = _emb(c1), _emb(c2)
    value = sim(m1, m2)
    assert value == reference_sim(m1, m2) == sim(m2, m1)
    if not c1 or not c2:
        assert value == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c1=_COUNTS, c2=_COUNTS, center=st.sampled_from("rs"), radius=st.integers(1, 2),
       mode=st.sampled_from(MODES))
def test_sim_names_the_first_mismatch_as_the_reference_does(c1, c2, center, radius, mode):
    m1, m2 = _emb(c1), _emb(c2, center=center, radius=radius, mode=mode)
    if (center, radius, mode) == ("r", 1, "sorted"):
        assert sim(m1, m2) == reference_sim(m1, m2)
        return
    with pytest.raises(ValueError) as want:
        reference_sim(m1, m2)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        sim(m1, m2)


def test_hand_built_pair_similarity():
    g1 = GraphStore()
    for s in [Tuple("A", "r", "B"), Tuple("B", "x", "C"),
              Tuple("B", "y", "D"), Tuple("A", "z", "E")]:
        g1.add_tuple(s)
    g2 = GraphStore()
    for s in [Tuple("A2", "r", "B2"), Tuple("B2", "x", "C2"),
              Tuple("B2", "w", "D2"), Tuple("E2", "z", "A2")]:
        g2.add_tuple(s)
    e1 = embed(g1, Tuple("A", "r", "B"), 1)
    e2 = embed(g2, Tuple("A2", "r", "B2"), 1)
    # two of three paths agree: (r,x) and (r,z); direction is ignored
    assert sim(e1, e2) == pytest.approx(2 / 3)
