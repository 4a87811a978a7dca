"""Localized patterns: the l-ball subgraph around a center tuple.

The pattern keeps every vertex within l undirected steps of the head OR of
the tail, the only reading consistent with walk enumeration expanding
independently from each endpoint, and every edge among those vertices. The
center may be hypothetical (a candidate not yet in the graph): its edge is
always part of the pattern, so a fresh entity pair still yields the minimal
two-vertex pattern.

One BFS seeded at both endpoints expands the vertices within l - 1 of an
endpoint and records their walk adjacency, the steps out of each. A walk of
at most l steps from an endpoint leaves no other vertex, so that is all
`traverse_r` reads, and the BFS builds nothing else. The ball is the
expanded vertices and their step targets, and its edges are read off the
store when first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph_store import GraphStore, NA, Tuple


@dataclass(frozen=True, eq=False)
class LocalizedPattern:
    """The l-ball around `center`, held as its walk adjacency.

    `adjacency[v]` lists a `(label, other end)` step for every edge at v,
    once for a loop, for each v within l - 1 of an endpoint (the endpoints
    included), and nothing for the rim. Edges joining the two center
    endpoints are never steps (when head == tail, the loops there), so
    parallels of the center are not counted from both sides, and the
    adjacency is the same for every center label over the same endpoints.
    `walks` memoises `traverse_r`'s walk tables, which depend on the
    adjacency alone, so `dataclasses.replace(p, center=...)` keeps both.

    `vertices` and `edges` are derived when first read; `edges` reads the
    induced edges off `store`, so read it before the store's next write.
    Patterns compare by identity.
    """
    center: Tuple
    radius: int
    adjacency: dict[str, list[tuple[str, str]]] = field(repr=False)
    store: GraphStore = field(repr=False)
    walks: dict = field(default_factory=dict, repr=False)

    @cached_property
    def vertices(self) -> frozenset[str]:
        """The l-ball: the expanded vertices and the ends of their steps."""
        adj = self.adjacency
        return frozenset(adj).union(y for steps in adj.values() for _, y in steps)

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
    for depth in range(l):
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
    return LocalizedPattern(center=center, radius=l, adjacency=adjacency, store=g)


def dump_pattern(p: LocalizedPattern) -> str:
    """Debug dump: TSV tuple lines under a header comment."""
    lines = [f"# center: {p.center.head} {p.center.relation} {p.center.tail}, l={p.radius}"]
    for s in sorted(p.edges):
        lines.append(f"{s.head}\t{s.relation}\t{s.tail}")
    return "\n".join(lines) + "\n"
