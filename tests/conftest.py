from __future__ import annotations

import gc
import random
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from kgmend import GraphStore, Tuple, embedding, load_graph, validation

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


def hub_graph(rng: random.Random, leaves: int, extra: int = 0,
              labels: tuple[str, ...] = LABELS) -> GraphStore:
    """A vertex "hub" with one edge to each of `leaves` leaves, most pointing
    out, and sometimes a loop; then `extra` random edges among the leaves,
    loops and parallels included."""
    g = GraphStore()
    for i in range(leaves):
        ends = ("hub", f"leaf{i}") if rng.random() < 0.7 else (f"leaf{i}", "hub")
        g.add_tuple(Tuple(ends[0], rng.choice(labels), ends[1]))
    if rng.random() < 0.5:
        g.add_tuple(Tuple("hub", rng.choice(labels), "hub"))
    for _ in range(extra):
        g.add_tuple(Tuple(f"leaf{rng.randrange(leaves)}", rng.choice(labels),
                          f"leaf{rng.randrange(leaves)}"))
    return g


def center_with_parallels(rng: random.Random, g: GraphStore,
                          labels: tuple[str, ...] = LABELS) -> Tuple:
    """An existing, hypothetical or head == tail center, each endpoint the
    highest-degree vertex half the time; half the time g also gains edges
    parallel to it, in both directions."""
    vertices = sorted(g.vertices())
    top = max(vertices, key=g.degree)

    def pick(fresh: bool = False) -> str:
        return top if rng.random() < 0.5 else rng.choice(vertices + ["w_fresh"] * fresh)

    kind = rng.choice(("existing", "hypothetical", "loop"))
    if kind == "existing":
        touching = sorted(s for s in g.all_tuples() if top in (s.head, s.tail))
        center = rng.choice(touching if touching and rng.random() < 0.5 else sorted(g.all_tuples()))
    elif kind == "loop":
        v = pick()
        center = Tuple(v, rng.choice(labels), v)
    else:
        center = Tuple(pick(), rng.choice(labels), pick(fresh=True))
    if rng.random() < 0.5:
        for label in rng.sample(labels, rng.randint(1, len(labels))):
            g.add_tuple(Tuple(center.head, label, center.tail))
            g.add_tuple(Tuple(center.tail, label, center.head))
    return center


def cache_registrations(g: GraphStore) -> set:
    """(vertex or table key, cache key) pairs in the store's reverse index."""
    return {(v, key) for v, held in g._cache_keys.items()
            for key in (held if isinstance(held, set) else (held,))}


def registered_under(g: GraphStore, key) -> set:
    """The vertices and walk table keys whose entry in the reverse index lists `key`."""
    return {v for v, listed in cache_registrations(g) if listed == key}


def read_through(g: GraphStore, registered) -> set:
    """The vertices among `registered`, and those registered under every walk
    table key there, the vertices whose edits drop that table and all that read it."""
    found = set()
    for v in registered:
        found.update(registered_under(g, v) if isinstance(v, tuple) else (v,))
    return found


def count_postings(monkeypatch) -> tuple[Counter, Counter]:
    """Count, per occurrence, its listings in a posting index and the writes
    that struck it off one. A listing reads the witness embedding that
    `validation._shared_occurrences` or `validation._list_pending` (a
    snapshot's opening) asks for, which they read for nothing else; a strike
    queues a listed occurrence as pending again."""
    listed, struck, listing = Counter(), Counter(), []
    build, unlist = validation.witness_embedding, GraphStore._unlist

    def listing_in(fn):
        def counted(*args):
            listing.append(True)
            try:
                return fn(*args)
            finally:
                listing.pop()
        return counted

    def counted_build(source, center, cfg):
        if listing:
            listed[center] += 1
        return build(source, center, cfg)

    def counted_unlist(g, key, entry):
        center, l, mode = key
        pending = g.postings.get(center.relation, {}).get((l, mode), (None, None, ()))[2]
        queued = center in pending
        unlist(g, key, entry)
        struck[center] += not queued and center in pending

    for name in ("_shared_occurrences", "_list_pending"):
        monkeypatch.setattr(validation, name, listing_in(getattr(validation, name)))
    monkeypatch.setattr(validation, "witness_embedding", counted_build)
    monkeypatch.setattr(GraphStore, "_unlist", counted_unlist)
    return listed, struck


# the store's threshold, and one at which every vertex with an edge shares its walk tables
HUB_THRESHOLDS = (embedding.HUB_EDGES, 1)


@contextmanager
def hub_edges(edges: int):
    """Run the block with walk tables kept for vertices with `edges` edges or more."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "HUB_EDGES", edges)
        yield


def count_walks_calls(monkeypatch) -> list:
    """The (vertex, steps) of every `embedding._walks` call from here on,
    its own recursive calls included."""
    calls = []
    walks = embedding._walks

    def counted(g, ends, memo, v, steps):
        calls.append((v, steps))
        return walks(g, ends, memo, v, steps)

    monkeypatch.setattr(embedding, "_walks", counted)
    return calls


@pytest.fixture
def collector():
    """Collections started while the test runs; the collector state is restored."""
    enabled = gc.isenabled()
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield started
    finally:
        gc.callbacks.remove(count)
        (gc.enable if enabled else gc.disable)()


@pytest.fixture
def fixture_a() -> GraphStore:
    return load_graph(DATA / "fixture_a.tsv")


@pytest.fixture
def fixture_b() -> GraphStore:
    return load_graph(DATA / "fixture_b.tsv")
