"""Localized patterns: the l-ball subgraph around a center tuple.

The pattern keeps every vertex within l undirected steps of the head OR of
the tail, the only reading consistent with walk enumeration expanding
independently from each endpoint, and every edge among those vertices. The
center may be hypothetical (a candidate not yet in the graph): its edge is
always part of the pattern, so a fresh entity pair still yields the minimal
two-vertex pattern.

One BFS seeded at both endpoints records what `traverse_r` reads, and builds
nothing else. A walk of at most l steps from an endpoint steps only from the
vertices within l - 1 of one. The BFS lists the steps out of each vertex
within l - 2, the endpoints included. A walk reaches the ring, the vertices
at depth l - 1 (l >= 2), with at most one step left, so for each ring vertex
the BFS counts the labels of its edges, its one-step walk table. The ball is
the listed vertices, the ends of their steps and the ring's neighbours, and
it and its edges are read off the store when first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph_store import GraphStore, NA, Tuple


@dataclass(frozen=True, eq=False)
class LocalizedPattern:
    """The l-ball around `center`, held as its walk adjacency and ring.

    `adjacency[v]` lists a `(label, other end)` step for every edge at v,
    once for a loop, for each v within l - 2 of an endpoint (the endpoints
    always included). `ring` holds the vertices at depth l - 1 when l >= 2:
    none has an `adjacency` entry, and `walks[(x, 1)]` holds each one's label
    counts. Edges joining the two center endpoints are never steps (when
    head == tail, the loops there), so parallels of the center are not
    counted from both sides, and adjacency, ring and walks are the same for
    every center label over the same endpoints. `walks` memoises
    `traverse_r`'s walk tables, so `dataclasses.replace(p, center=...)` keeps
    all three.

    `vertices` and `edges` are derived when first read, for criterion 3,
    `embed` and `dump_pattern`. Both read the store, the ring's neighbours
    and the induced edges, so read them before the store's next write.
    Patterns compare by identity.
    """
    center: Tuple
    radius: int
    adjacency: dict[str, list[tuple[str, str]]] = field(repr=False)
    store: GraphStore = field(repr=False)
    ring: tuple[str, ...] = field(repr=False)
    walks: dict = field(default_factory=dict, repr=False)

    @cached_property
    def vertices(self) -> frozenset[str]:
        """The l-ball: the listed vertices, the ends of their steps and the
        ring's neighbours."""
        adj = self.adjacency
        found = set(adj).union(y for steps in adj.values() for _, y in steps)
        for x in self.ring:
            out, into = self.store.sides(x)
            found.update(s.tail for s in out)
            found.update(s.head for s in into)
        return frozenset(found)

    @cached_property
    def edges(self) -> frozenset[Tuple]:
        """The store's edges among `vertices`, plus the center."""
        vertices = self.vertices
        return frozenset(self.store.edges_from(vertices, vertices)).union((self.center,))


def extract_pattern(g: GraphStore, center: Tuple, l: int) -> LocalizedPattern:
    """Build the localized pattern of radius l around center, over g plus center."""
    if l < 1:
        raise ValueError("pattern radius must be >= 1")
    if center.relation == NA:
        raise ValueError("cannot build a pattern around an NA-labeled center")
    h, t = center.head, center.tail
    adjacency: dict[str, list[tuple[str, str]]] = {}
    # the center edge joins two depth-0 vertices, so it shortens no distance
    frontier = dict.fromkeys((h, t))
    for depth in range(l - 1 or 1):     # depths 0 .. l - 2; at l = 1 the endpoints
        for x in frontier:
            # the far endpoint, when x is one: edges to it are never steps
            banned = t if x == h else h if x == t else None
            out, into = g.sides(x)
            steps = adjacency[x] = [(s.relation, s.tail) for s in out if s.tail != banned]
            # a loop at x came out of `out` already
            steps += [(s.relation, s.head) for s in into if s.head != x and s.head != banned]
        if depth + 1 < l:
            frontier = dict.fromkeys(y for x in frontier for _, y in adjacency[x]
                                     if y not in adjacency)
    walks: dict = {}
    ring = tuple(frontier) if l > 1 else ()
    for x in ring:
        # a walk reaches x with at most one step left, and x is no endpoint,
        # so x's walk table is the labels of all its edges, a loop counted once
        counts: dict = {}
        out, into = g.sides(x)
        for s in out:
            counts[s.relation] = counts.get(s.relation, 0) + 1
        for s in into:
            if s.head != x:
                counts[s.relation] = counts.get(s.relation, 0) + 1
        table = walks[x, 1] = {}
        for label, n in counts.items():     # a loop costs less than a comprehension here
            table[label,] = n
    return LocalizedPattern(center=center, radius=l, adjacency=adjacency, store=g,
                            ring=ring, walks=walks)


def dump_pattern(p: LocalizedPattern) -> str:
    """Debug dump: TSV tuple lines under a header comment."""
    lines = [f"# center: {p.center.head} {p.center.relation} {p.center.tail}, l={p.radius}"]
    for s in sorted(p.edges):
        lines.append(f"{s.head}\t{s.relation}\t{s.tail}")
    return "\n".join(lines) + "\n"
