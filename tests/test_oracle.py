"""The brute-force reference implementations, checked against themselves
and against hand-worked values. Wider random sweeps live in the acceptance
suite; these are the anchor cases."""

from __future__ import annotations

import random

import pytest

from kgmend import GraphStore, Tuple, extract_pattern, sim, traverse_r

from conftest import random_center, random_graph
from oracle import (
    best_common_match,
    enumerate_central_walks,
    exact_sim,
    exact_support,
)


def pattern_of(g: GraphStore, center: Tuple, l: int = 1):
    return extract_pattern(g, center, l)


def test_single_edge_pattern_yields_no_walks():
    g = GraphStore()
    g.add_tuple(Tuple("u", "q", "v"))
    p = pattern_of(g, Tuple("u", "q", "v"))
    assert enumerate_central_walks(p, 1) == {}


def test_fixture_b_walks_match_the_worked_paths(fixture_b):
    p = pattern_of(fixture_b, Tuple("India", "C", "Gorakhpur"))
    walks = enumerate_central_walks(p, 1)
    assert walks == {
        ("AC", "C"): 1, ("AP", "C"): 1, ("C", "C"): 1,
        ("C", "CB"): 1, ("C", "CU"): 1, ("C", "PB"): 1,
    }


def test_walk_enumeration_caps():
    g = GraphStore()
    for i in range(14):
        g.add_tuple(Tuple("hub", "r", f"v{i}"))
    p = extract_pattern(g, Tuple("hub", "r", "v0"), 1)
    with pytest.raises(ValueError):
        enumerate_central_walks(p, 1)
    small = GraphStore()
    small.add_tuple(Tuple("a", "r", "b"))
    with pytest.raises(ValueError):
        enumerate_central_walks(pattern_of(small, Tuple("a", "r", "b")), 4)


def test_random_patterns_agree_with_traverse_r():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, max_vertices=7, max_edges=12)
        center = random_center(rng, g)
        for l in (1, 2):
            p = extract_pattern(g, center, l)
            for mode in ("sorted", "positional"):
                fast = traverse_r(p, l, mode=mode)
                assert dict(fast.counts) == enumerate_central_walks(p, l, mode=mode)


# -- exact support ------------------------------------------------------------

def twin_support_graph():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "b"))
    g.add_tuple(Tuple("a", "c", "x"))
    g.add_tuple(Tuple("h", "c", "y"))
    return g


def test_twin_context_support_subgraphs():
    g = twin_support_graph()
    p = pattern_of(g, Tuple("h", "r", "t"))
    supports = exact_support(g, p, size_cap=3)
    occ, ctx = Tuple("a", "r", "b"), Tuple("a", "c", "x")
    assert supports == sorted(
        [frozenset({occ}), frozenset({occ, ctx})], key=lambda fs: sorted(fs)
    )


def test_no_occurrence_means_no_support():
    g = twin_support_graph()
    p = pattern_of(g, Tuple("h", "never", "t"))
    assert exact_support(g, p, size_cap=3) == []


def test_relabeled_copy_supports_itself():
    g = GraphStore()
    for s in [Tuple("a", "r", "b"), Tuple("b", "q", "c"), Tuple("d", "w", "a")]:
        g.add_tuple(s)
    for s in [Tuple("a2", "r", "b2"), Tuple("b2", "q", "c2"), Tuple("d2", "w", "a2")]:
        g.add_tuple(s)
    p = extract_pattern(g, Tuple("a", "r", "b"), 1)
    supports = exact_support(g, p, size_cap=4, exclude=None)
    full_copy = frozenset({Tuple("a2", "r", "b2"), Tuple("b2", "q", "c2"),
                           Tuple("d2", "w", "a2")})
    assert full_copy in supports


def test_support_exclude_skips_an_occurrence():
    g = twin_support_graph()
    p = pattern_of(g, Tuple("h", "r", "t"))
    assert exact_support(g, p, size_cap=3, exclude=Tuple("a", "r", "b")) == []


def test_loop_and_non_loop_centers_never_match():
    g = GraphStore()
    g.add_tuple(Tuple("a", "r", "a"))
    p = pattern_of(g, Tuple("h", "r", "t"))
    assert exact_support(g, p, size_cap=2) == []


def test_support_invariant_under_vertex_renaming():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        center = random_center(rng, g)
        p = extract_pattern(g, center, 1)
        renamed = GraphStore()
        name = {v: f"renamed_{v}" for v in g.vertices()}
        for s in g.all_tuples():
            renamed.add_tuple(Tuple(name[s.head], s.relation, name[s.tail]))
        center2 = Tuple(name.get(center.head, center.head),
                        center.relation,
                        name.get(center.tail, center.tail))
        p2 = extract_pattern(renamed, center2, 1)
        assert len(exact_support(g, p, 3, exclude=center)) == \
            len(exact_support(renamed, p2, 3, exclude=center2))


def test_support_grows_with_radius():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, max_vertices=7, max_edges=10, loops=False)
        center = random_center(rng, g)
        p1 = extract_pattern(g, center, 1)
        p2 = extract_pattern(g, center, 2)
        n1 = len(exact_support(g, p1, 3, exclude=center))
        n2 = len(exact_support(g, p2, 3, exclude=center))
        assert n1 <= n2


# -- exact similarity ---------------------------------------------------------

def test_exact_sim_of_pattern_with_itself():
    g = twin_support_graph()
    p = pattern_of(g, Tuple("a", "r", "b"))
    assert exact_sim(p, p) == 1.0


def test_patterns_sharing_only_the_center_edge():
    g1 = GraphStore()
    g1.add_tuple(Tuple("a", "r", "b"))
    g1.add_tuple(Tuple("a", "x", "c"))
    g2 = GraphStore()
    g2.add_tuple(Tuple("d", "r", "e"))
    g2.add_tuple(Tuple("e", "y", "f"))
    p1 = pattern_of(g1, Tuple("a", "r", "b"))
    p2 = pattern_of(g2, Tuple("d", "r", "e"))
    assert exact_sim(p1, p2) == pytest.approx(2 / 3)


def test_hand_built_five_vertex_pair():
    g1 = GraphStore()
    for s in [Tuple("A", "r", "B"), Tuple("B", "x", "C"),
              Tuple("B", "y", "D"), Tuple("A", "z", "E")]:
        g1.add_tuple(s)
    g2 = GraphStore()
    for s in [Tuple("A2", "r", "B2"), Tuple("B2", "x", "C2"),
              Tuple("B2", "w", "D2"), Tuple("E2", "z", "A2")]:
        g2.add_tuple(s)
    p1 = pattern_of(g1, Tuple("A", "r", "B"))
    p2 = pattern_of(g2, Tuple("A2", "r", "B2"))
    # best match keeps A, B, C: the y/w labels differ and the z edge flips
    witness = best_common_match(p1, p2)
    assert witness.pairs == 3
    assert exact_sim(p1, p2) == pytest.approx(0.6)
    assert exact_sim(p2, p1) == pytest.approx(0.6)


def test_exact_sim_caps_pattern_size():
    g = GraphStore()
    for i in range(12):
        g.add_tuple(Tuple("hub", "r", f"v{i}"))
    p = extract_pattern(g, Tuple("hub", "r", "v0"), 1)
    with pytest.raises(ValueError):
        exact_sim(p, p)


def test_positive_embedding_sim_implies_a_shared_walk():
    rng = random.Random(41)
    seen_positive = 0
    for _ in range(60):
        g1 = random_graph(rng, max_vertices=6, max_edges=9, labels=("r", "s"))
        g2 = random_graph(rng, max_vertices=6, max_edges=9, labels=("r", "s"))
        c1, c2 = random_center(rng, g1, ("r",)), random_center(rng, g2, ("r",))
        c2 = Tuple(c2.head, c1.relation, c2.tail)
        p1 = extract_pattern(g1, c1, 1)
        p2 = extract_pattern(g2, c2, 1)
        e1 = traverse_r(p1, 1, mode="positional")
        e2 = traverse_r(p2, 1, mode="positional")
        if sim(e1, e2) > 0:
            seen_positive += 1
            shared = set(enumerate_central_walks(p1, 1, mode="positional")) & \
                set(enumerate_central_walks(p2, 1, mode="positional"))
            assert shared
    assert seen_positive > 0       # the sweep must actually exercise the claim
