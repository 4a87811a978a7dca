from __future__ import annotations

import random
from pathlib import Path

import pytest

from kgmend import GraphStore, Tuple, load_graph

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

LABELS = ("r", "s", "t", "u")


def random_graph(rng: random.Random, max_vertices: int = 10, max_edges: int = 18,
                 labels: tuple[str, ...] = LABELS, loops: bool = True) -> GraphStore:
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    g = GraphStore()
    for _ in range(rng.randint(1, max_edges)):
        head, tail = rng.choice(vertices), rng.choice(vertices)
        if not loops and head == tail:
            continue
        g.add_tuple(Tuple(head, rng.choice(labels), tail))
    return g


def random_center(rng: random.Random, g: GraphStore,
                  labels: tuple[str, ...] = LABELS) -> Tuple:
    """An existing edge, or sometimes a hypothetical one over known vertices."""
    edges = sorted(g.all_tuples())
    if edges and rng.random() < 0.7:
        return rng.choice(edges)
    vertices = sorted(v for v in (s.head for s in edges)) or ["w0"]
    head = rng.choice(vertices)
    tail = rng.choice(vertices + ["w_fresh"])
    return Tuple(head, rng.choice(labels), tail)


def cache_registrations(g: GraphStore) -> set:
    """(vertex, cache key) pairs in the store's reverse index of cached witnesses."""
    return {(v, key) for v, held in g._cache_keys.items()
            for key in (held if isinstance(held, set) else (held,))}


@pytest.fixture
def fixture_a() -> GraphStore:
    return load_graph(DATA / "fixture_a.tsv")


@pytest.fixture
def fixture_b() -> GraphStore:
    return load_graph(DATA / "fixture_b.tsv")
