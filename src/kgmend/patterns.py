"""Localized patterns: the l-ball subgraph around a center tuple.

The pattern keeps every vertex within l undirected steps of the head OR of
the tail, the only reading consistent with walk enumeration expanding
independently from each endpoint, and every edge among those vertices. The
center may be hypothetical (a candidate not yet in the graph): its edge is
always part of the pattern, so a fresh entity pair still yields the minimal
two-vertex pattern.

A pattern is a handle on the store, not a copy of it: `extract_pattern`
checks its arguments and reads nothing, and `traverse_r` walks the store's
own edges, memoising its walk tables on the handle. The ball and its edges
are read off the store only when first asked for, never by an embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph_store import GraphStore, NA, Tuple


@dataclass(eq=False)
class LocalizedPattern:
    """The l-ball around `center`, over `store` plus the center edge.

    `walks` memoises `traverse_r`'s walk tables, which read no center
    label, so the one embedding they give serves every label over the same
    endpoints. `vertices` and `edges` are derived when first read, for
    criterion 3, `dump_pattern` and the benchmark's tracer; read them
    before the store's next write. Patterns compare by identity.
    """
    center: Tuple
    radius: int
    store: GraphStore = field(repr=False)
    walks: dict = field(default_factory=dict, repr=False)

    @cached_property
    def vertices(self) -> frozenset[str]:
        """The l-ball: a BFS to depth `radius` from both endpoints. The
        center edge joins two depth-0 vertices, so it shortens no distance."""
        sides = self.store.sides
        found = frontier = {self.center.head, self.center.tail}
        for _ in range(self.radius):
            reached = set()
            for x in frontier:
                out, into = sides(x)
                reached.update(s.tail for s in out)
                reached.update(s.head for s in into)
            frontier = reached - found
            found = found | frontier
        return frozenset(found)

    @cached_property
    def edges(self) -> frozenset[Tuple]:
        """The store's edges among `vertices`, plus the center."""
        vertices, sides = self.vertices, self.store.sides
        return frozenset(s for v in vertices for s in sides(v)[0]
                         if s.tail in vertices).union((self.center,))


def extract_pattern(g: GraphStore, center: Tuple, l: int) -> LocalizedPattern:
    """The localized pattern of radius l around center, over g plus center."""
    if l < 1:
        raise ValueError("pattern radius must be >= 1")
    if center.relation == NA:
        raise ValueError("cannot build a pattern around an NA-labeled center")
    return LocalizedPattern(center=center, radius=l, store=g)


def dump_pattern(p: LocalizedPattern) -> str:
    """Debug dump: TSV tuple lines under a header comment."""
    lines = [f"# center: {p.center.head} {p.center.relation} {p.center.tail}, l={p.radius}"]
    for s in sorted(p.edges):
        lines.append(f"{s.head}\t{s.relation}\t{s.tail}")
    return "\n".join(lines) + "\n"
