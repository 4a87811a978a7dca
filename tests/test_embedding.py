"""Path embeddings: central walk counting, canonicalization, similarity."""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgmend.embedding as embedding_module
from kgmend import GraphStore, Tuple, extract_pattern, sim, traverse_r
from kgmend.embedding import MODES, PathEmbedding, format_embedding
from kgmend.validation import ValidationConfig, witness_embedding

from conftest import (HUB_THRESHOLDS, LABELS, center_with_parallels, count_walks_calls, hub_edges,
                      hub_graph)
from oracle import enumerate_central_walks, multiset_sim, reference_sim

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
    assert e.paths == {} and e.size == 0


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
    """Also with walk tables kept for every vertex, each pattern sharing them."""
    rng = random.Random(seed)
    g = hub_graph(rng, leaves, extra=rng.randint(0, leaves // 4))
    center = center_with_parallels(rng, g)
    for edges in HUB_THRESHOLDS:
        with hub_edges(edges):
            p = extract_pattern(g, center, l)
            for mode in MODES:
                assert dict(traverse_r(p, l, mode).counts) == \
                    enumerate_central_walks(p, l, mode, max_vertices=len(p.vertices))


_SIDE_VERTEX = st.sampled_from([f"v{i}" for i in range(5)])
_SIDE_EDGES = st.lists(st.tuples(_SIDE_VERTEX, st.sampled_from("cst"), _SIDE_VERTEX), max_size=8)
_ENDPOINT_EXTRAS = st.sets(st.sampled_from(("side", "loop", "parallel")))


def _center_on_side_edges(g: GraphStore, head: str, tail: str, extras: set) -> Tuple:
    """The center (head, c, tail), with c also on side edges at both endpoints,
    loops at both endpoints and edges parallel to the center, as `extras` asks."""
    if "side" in extras:    # a head walk (c) and a tail walk (c) meet at (c, c) in positional keys
        g.add_tuple(Tuple(head, "c", f"{head}_x"))
        g.add_tuple(Tuple(f"{tail}_y", "c", tail))
    if "loop" in extras:
        g.add_tuple(Tuple(head, "c", head))
        g.add_tuple(Tuple(tail, "s", tail))
    if "parallel" in extras:
        g.add_tuple(Tuple(head, "s", tail))
        g.add_tuple(Tuple(tail, "c", head))
    return Tuple(head, "c", tail)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edges=_SIDE_EDGES, ends=st.tuples(_SIDE_VERTEX, _SIDE_VERTEX, _SIDE_VERTEX, _SIDE_VERTEX),
       extras=st.tuples(_ENDPOINT_EXTRAS, _ENDPOINT_EXTRAS))
def test_sim_and_counts_agree_with_the_labeled_walk_formula(edges, ends, extras):
    """With the center label on side edges, loops and parallels at the
    endpoints, each pattern's labeled counts are the walk oracle's, and
    `sim` of two patterns is the labeled formula over those walks, in both
    modes at l = 1, 2 and 3, with walk tables kept for hubs or for every
    vertex, the patterns sharing them."""
    g = GraphStore()
    for head, label, tail in edges:
        g.add_tuple(Tuple(head, label, tail))
    centers = [_center_on_side_edges(g, *ends[:2], extras[0]),
               _center_on_side_edges(g, *ends[2:], extras[1])]
    for hub, l in itertools.product(HUB_THRESHOLDS, (1, 2, 3)):
        with hub_edges(hub):
            patterns = [extract_pattern(g, center, l) for center in centers]
            for mode in MODES:
                built = [traverse_r(p, l, mode) for p in patterns]
                walks = [enumerate_central_walks(p, l, mode, max_vertices=len(p.vertices))
                         for p in patterns]
                assert [dict(e.counts) for e in built] == walks
                assert sim(*built) == multiset_sim(*walks)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), leaves=st.integers(1, 8), l=st.integers(1, 3))
def test_a_hub_endpoint_keeps_the_table_path(seed, leaves, l):
    """`traverse_r` walks an endpoint's listed steps in place of its l-step
    table, except at a hub endpoint, whose tables at l <= 2 come from the
    hub's own (`_at_hub_end`), listing none: with 3 edges making a hub, a
    pattern with a hub at one end, and at times both, is the walk oracle's
    at l = 1, 2 and 3 in both modes."""
    rng = random.Random(seed)
    g = hub_graph(rng, leaves, extra=rng.randint(0, leaves))
    ends = ("hub", f"leaf{rng.randrange(leaves)}")[::rng.choice((1, -1))]
    center = Tuple(ends[0], rng.choice(LABELS), ends[1])
    with hub_edges(3):
        p = extract_pattern(g, center, l)
        for mode in MODES:
            assert dict(traverse_r(p, l, mode).counts) == \
                enumerate_central_walks(p, l, mode, max_vertices=len(p.vertices))
        if l <= 2:
            assert (("hub", None) in p.walks) == (g.degree("hub") < 3)


def test_one_step_tables_cost_the_same_at_any_hub_degree(monkeypatch):
    """At l = 1 a hub's one-step table counts its labels; it makes no call
    per leaf: as many at d = 100 as at d = 1,000, and at most one more, the
    table's own build, than at a vertex with 10 edges."""
    calls = count_walks_calls(monkeypatch)
    made = {}
    for d in (10, 100, 1_000):
        g = GraphStore()
        for i in range(d):
            g.add_tuple(Tuple("hub", "r", f"leaf{i}"))
        calls.clear()
        e = traverse_r(extract_pattern(g, Tuple("hub", "r", "leaf0"), 1), 1)
        assert dict(e.counts) == {("r", "r"): d - 1}
        made[d] = len(calls)
    assert made[100] == made[1_000] <= made[10] + 1


def test_a_hub_next_to_an_endpoint_costs_the_same_at_any_degree(monkeypatch):
    """At l = 2 a hub one step from the head is reached with one step left:
    its table counts its labels, and makes no call per leaf: as many at
    d = 100 as at d = 1,000, and at most one more, the table's own build,
    than at a vertex with 10 edges."""
    calls = count_walks_calls(monkeypatch)
    made = {}
    for d in (10, 100, 1_000):
        g = GraphStore()
        g.add_tuple(Tuple("a", "s", "hub"))
        for i in range(d):
            g.add_tuple(Tuple("hub", "r", f"leaf{i}"))
        calls.clear()
        e = traverse_r(extract_pattern(g, Tuple("a", "r", "b"), 2), 2)
        assert dict(e.counts) == {("r", "s", "s"): 1, ("r", "r", "s"): d}
        assert ("hub", 1) in calls
        made[d] = len(calls)
    assert made[100] == made[1_000] <= made[10] + 1


def _hub_case(d: int) -> GraphStore:
    """A hub H with d out-edges (H, r{i mod 5}, x_i), one more edge at each
    leaf, and 30 other r0 facts."""
    g = GraphStore()
    for i in range(d):
        g.add_tuple(Tuple("H", f"r{i % 5}", f"x{i}"))
        g.add_tuple(Tuple(f"x{i}", f"q{i % 3}", f"y{i}"))
    for i in range(30):
        g.add_tuple(Tuple(f"a{i}", "r0", f"b{i}"))
    return g


def test_witnesses_at_a_hub_cost_the_same_at_any_degree(monkeypatch):
    """At l = 2 the hub's full two-step table is built once, by the first
    witness at it; each later witness (H, r0, x_i) derives its own from that
    table less the steps toward x_i, with as many `_walks` calls at
    d = 400 as at d = 25,600, and the embedding a store without shared
    tables builds (checked at d = 400, where that build is cheap)."""
    calls = count_walks_calls(monkeypatch)
    cfg = ValidationConfig()
    witnesses = [Tuple("H", "r0", f"x{i}") for i in range(0, 50, 5)]
    made, built = {}, {}
    for d in (400, 25_600):
        g = _hub_case(d)
        witness_embedding(g, witnesses[0], cfg)
        assert ("H", 2) in g.embedding_cache
        calls.clear()
        built[d] = [witness_embedding(g, s, cfg) for s in witnesses[1:]]
        made[d] = len(calls)
    assert made[400] == made[25_600]
    monkeypatch.setattr(embedding_module, "HUB_EDGES", 401)
    g = _hub_case(400)
    assert built[400] == [embed(g, s, 2) for s in witnesses[1:]]


def test_radius_must_fit_pattern(fixture_b):
    p = extract_pattern(fixture_b, CENTER_B, 1)
    with pytest.raises(ValueError):
        traverse_r(p, 2)
    with pytest.raises(ValueError):
        traverse_r(p, 0)


def test_format_embedding_bytes(fixture_b):
    e = embed(fixture_b, CENTER_B, 1)
    assert format_embedding(e) == "AC,C\t1\nAP,C\t1\nC,C\t1\nC,CB\t1\nC,CU\t1\nC,PB\t1\n"


def _emb(paths, center="r", radius=1, mode="sorted"):
    """An embedding from label-free paths: the sorted side labels, or in
    positional mode the head walk reversed, "" for the center, then the tail walk."""
    return PathEmbedding(center_label=center, radius=radius, mode=mode, paths=dict(paths))


def _labeled(paths, center="r", mode="sorted") -> dict:
    """The labeled multiset by its definition: the center label put into each
    path, and the counts of paths that then meet summed."""
    counts = Counter()
    for seq, n in paths.items():
        if mode == "sorted":
            counts[tuple(sorted((center,) + seq))] += n
        else:
            counts[tuple(center if label == "" else label for label in seq)] += n
    return dict(counts)


def test_intersection_takes_minimum_per_path():
    m1 = _emb({("a",): 3, ("b",): 1})
    m2 = _emb({("a",): 2, ("c",): 5})
    assert sim(m1, m2) == sim(m2, m1) == pytest.approx(2 / 4)


def test_sim_normalizes_by_smaller_size():
    m1 = _emb({("a",): 3, ("b",): 1})   # size 4
    m2 = _emb({("a",): 2, ("c",): 5})   # size 7
    assert sim(m1, m2) == pytest.approx(2 / 4)


def test_sim_empty_is_zero_and_identity_is_one():
    m = _emb({("a",): 2})
    empty = _emb({})
    assert sim(m, m) == 1.0
    assert sim(m, empty) == 0.0
    assert sim(empty, empty) == 0.0


def test_sim_rejects_incomparable_embeddings():
    m = _emb({("a",): 1})
    with pytest.raises(ValueError):
        sim(m, _emb({("a",): 1}, center="s"))
    with pytest.raises(ValueError):
        sim(m, _emb({("a",): 1}, radius=2))
    with pytest.raises(ValueError):
        sim(m, _emb({("", "a"): 1}, mode="positional"))


_SIDE = st.sampled_from("rabc")
_PATHS = {      # l = 1; under center "r", positional ("", "r") and ("r", "") meet at ("r", "r")
    "sorted": st.dictionaries(st.tuples(_SIDE), st.integers(1, 6), max_size=8),
    "positional": st.dictionaries(st.one_of(st.tuples(st.just(""), _SIDE),
                                            st.tuples(_SIDE, st.just(""))),
                                  st.integers(1, 6), max_size=8),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mode=st.sampled_from(MODES), data=st.data())
def test_sim_equals_its_plain_formula(mode, data):
    """The one-pass `sim` gives the labeled formula's float exactly, is
    symmetric, and is 0.0 when either side is empty; `counts` is the labeled
    multiset."""
    c1, c2 = data.draw(_PATHS[mode]), data.draw(_PATHS[mode])
    m1, m2 = _emb(c1, mode=mode), _emb(c2, mode=mode)
    assert (m1.counts, m2.counts) == (_labeled(c1, mode=mode), _labeled(c2, mode=mode))
    value = sim(m1, m2)
    assert value == multiset_sim(_labeled(c1, mode=mode), _labeled(c2, mode=mode))
    assert value == reference_sim(m1, m2) == sim(m2, m1)
    if not c1 or not c2:
        assert value == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c1=_PATHS["sorted"], center=st.sampled_from("rs"), radius=st.integers(1, 2),
       mode=st.sampled_from(MODES), data=st.data())
def test_sim_names_the_first_mismatch_as_the_reference_does(c1, center, radius, mode, data):
    m1, m2 = _emb(c1), _emb(data.draw(_PATHS[mode]), center=center, radius=radius, mode=mode)
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
