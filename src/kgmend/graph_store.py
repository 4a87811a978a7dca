"""Indexed directed multigraph of RDF tuples.

The store keeps out/in adjacency and a relation-occurrence index, nothing
else, and all three hold the same stored Tuple objects: every query returns
those objects and builds none. Degrees, vertices and the edge count are
derived from the indexes when asked for. Beside them sit two read caches: the
path embeddings of stored witness patterns and hubs' walk tables, with, for
every vertex, the cached entries whose walks read its edges, and the
scan's posting indexes (built by `validation`, kept across writes). Set
semantics, which the relation index's sorted lists keep: the same tuple is
never stored twice, but parallel edges with different labels between the
same endpoints are fine. The reserved label NA ("no relation") is never
stored; deletion of a fact is physical removal.
A graph file is read about 64 KiB of whole lines at a time: a chunk of plain
lines in one regex pass, any other chunk line by line under the same rule.
"""

from __future__ import annotations

import gc
import os
import re
from bisect import bisect_left
from contextlib import contextmanager
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

NA = "NA"


class Tuple(NamedTuple):
    head: str
    relation: str
    tail: str


class NALabelError(ValueError):
    """Raised when a caller tries to store a tuple labeled NA."""


class GraphFormatError(ValueError):
    """Raised when a graph/candidate file does not parse."""


class GraphStore:
    """Directed labeled multigraph with the indexes validation needs.

    `_out[head]`, `_in[tail]` and `_by_relation[relation]` hold the Tuple
    `add_tuple` stored, and every edge query yields that object as is. A
    vertex side with one edge holds that Tuple bare, one with more a list in
    insertion order: most hold one, and a list for it would cost as much as
    the Tuple. `_edges` reads either. `_by_relation[r]` lists r's Tuples in
    Tuple order, and only it is searched, by bisection.

    Single writer, many readers: mutation is only legal between read phases
    (the stream runner enforces the barrier). Reads never mutate state except
    the caches, which are deterministic.

    A cached witness embedding stays valid until an edge is added or removed
    at a vertex within l - 1 of a center endpoint, the vertices its walks step
    from. Every walk step leaves such a vertex, so an edge with neither
    endpoint there is never walked, and it cannot bring a vertex within
    l - 1 either: a path that short through it would reach one of its
    endpoints sooner. A mutation of (u, r, v) therefore evicts every entry
    registered under u or v, through `cache_embedding`, and strikes their
    keys off u and v alone. A key rebuilt may stay listed where it no longer
    reads, and a write there evicts it once more at most: no entry is ever
    stale, and the extra evictions are bounded by the registrations made.

    A hub's walk tables (`embedding._full`), keyed (vertex, steps) apart from
    witnesses (center, l, mode), follow the same rule; a witness that read a
    hub's two-step table is registered under its key instead of the hub's
    neighbours, and dropping a table drops every entry registered under it.

    A label's posting index under (l, mode) lists, in Tuple order, each
    occurrence up to its last indexed one under the sequences of its cached
    witness embedding, but none in `provisional` (those the open overlay
    inserted, or none) or pending. A listing is valid as long as that
    embedding: evicting it strikes the occurrence off and queues it as
    pending, as does a committed insert up to the last; a removal drops it
    from pending. What is pending is listed when the next snapshot opens
    (`validation.list_pending`), or else by the label's next scan.
    """

    def __init__(self) -> None:
        self._out: dict[str, Tuple | list[Tuple]] = {}    # head -> its out-edges
        self._in: dict[str, Tuple | list[Tuple]] = {}     # tail -> its in-edges
        self._by_relation: dict[str, list[Tuple]] = {}   # relation -> its Tuples, sorted
        self.version = 0
        # (center, l, mode) -> PathEmbedding of stored witnesses
        self.embedding_cache: dict = {}
        # relation -> (l, mode) -> validation's posting index: (sequence ->
        # occurrences, the last indexed, pending), kept across writes
        self.postings: dict = {}
        self.provisional: frozenset = frozenset()     # what the open overlay inserted
        # vertex or table key -> the cache key, or set of keys, registered under
        # it; most hold one, and a bare key spares them a set (216 bytes each)
        self._cache_keys: dict = {}
        self.aux_source: "GraphStore | None" = None

    # -- mutation ----------------------------------------------------------

    def add_tuple(self, s: Tuple) -> bool:
        """Insert s; return True if inserted, False if already present."""
        if s.relation == NA:
            raise NALabelError(f"refusing to store NA-labeled tuple {s.head} -> {s.tail}")
        bucket = self._by_relation.setdefault(s.relation, [])
        i = bisect_left(bucket, s)
        if i < len(bucket) and bucket[i] == s:
            return False
        bucket.insert(i, s)
        self._link(s)
        self._touch(s, True)
        return True

    def fill(self, tuples: Iterable[Tuple]) -> None:
        """Store `tuples` in this empty store as `add_tuple` on each would, with
        no search: each unique one is appended, then each label sorted once on
        Tuples, quickest on a file already in or near that order (README)."""
        index = self._by_relation
        for s in dict.fromkeys(tuples):
            index.setdefault(s.relation, []).append(s)
            self._link(s)
        if NA in index:
            raise NALabelError("refusing to store NA-labeled tuples")
        for bucket in index.values():
            bucket.sort()

    def _link(self, s: Tuple) -> None:
        """Append s to its head's out-edges and its tail's in-edges."""
        held = self._out.setdefault(s.head, s)   # s itself if head had no out-edge
        if type(held) is list:
            held.append(s)
        elif held is not s:
            self._out[s.head] = [held, s]
        held = self._in.setdefault(s.tail, s)
        if type(held) is list:
            held.append(s)
        elif held is not s:
            self._in[s.tail] = [held, s]

    def remove_tuple(self, s: Tuple) -> bool:
        """Remove s; return True if it was present (absence is not an error).

        A bisect into its label, then O(1) at an endpoint where s is the last
        edge added, as on an overlay's exit (it removes in reverse order), else
        O(degree). A side left with one edge holds it bare again."""
        bucket = self._by_relation.get(s.relation, ())
        i = bisect_left(bucket, s)
        if i == len(bucket) or bucket[i] != s:
            return False
        del bucket[i]
        if not bucket:
            del self._by_relation[s.relation]
        for index, v in ((self._out, s.head), (self._in, s.tail)):
            held = index[v]
            if type(held) is not list:
                del index[v]
                continue
            del held[-1 if held[-1] == s else held.index(s)]
            if len(held) == 1:
                index[v] = held[0]
        self._touch(s, False)
        return True

    def _touch(self, s: Tuple, added: bool) -> None:
        if self.embedding_cache:
            self._evict(s.head)
            self._evict(s.tail)
        indexes = self.postings.get(s.relation)     # one miss for a label with no index
        if indexes:
            for _, last, pending in indexes.values():
                if not added:
                    pending.discard(s)
                elif s <= last:
                    pending.add(s)

    def _evict(self, v) -> None:
        """Drop what is registered under v, a vertex or a dropped table's key."""
        held = self._cache_keys.pop(v, None)
        if held is None:
            return
        for key in held if type(held) is set else (held,):
            entry = self.embedding_cache.pop(key, None)
            if entry is not None:
                if len(key) == 3:       # a witness (center, l, mode), maybe listed
                    self._unlist(key, entry)
                self._evict(key)

    def _unlist(self, key, embedding) -> None:
        """Strike an evicted witness off its label's posting index, where it is
        listed under `embedding`'s sequences, and queue it to be listed again."""
        center, l, mode = key
        index = self.postings.get(center.relation, {}).get((l, mode))
        if index is None or center > index[1] or center in index[2] or center in self.provisional:
            return
        lists, _, pending = index
        for seq in embedding.compared:
            found = lists[seq]
            del found[bisect_left(found, center)]
        pending.add(center)

    def cache_embedding(self, key, embedding, vertices: Iterable) -> None:
        """Cache a witness embedding or a hub's walk table under `vertices`, those
        whose edges it read and the tables it read, repeated or not."""
        self.embedding_cache[key] = embedding
        index = self._cache_keys
        for v in vertices:
            held = index.setdefault(v, key)
            if type(held) is set:
                held.add(key)
            elif held != key:
                index[v] = {held, key}

    def bump_version(self) -> int:
        self.version += 1
        return self.version

    @contextmanager
    def overlay(self, tuples: Iterable[Tuple]):
        """Temporarily add tuples (a g-union-instance snapshot), then restore.

        Yields, and keeps as `provisional` until the block ends, the frozenset
        of the tuples it inserted. The caller must not mutate the store inside.
        """
        inserted = []
        try:
            for s in tuples:
                if self.add_tuple(s):
                    inserted.append(s)
            self.bump_version()
            self.provisional = frozenset(inserted)
            yield self.provisional
        finally:
            for s in reversed(inserted):
                self.remove_tuple(s)
            self.provisional = frozenset()
            self.bump_version()

    # -- queries -----------------------------------------------------------

    def __contains__(self, s: Tuple) -> bool:
        bucket = self._by_relation.get(s.relation, ())
        i = bisect_left(bucket, s)
        return i < len(bucket) and bucket[i] == s

    def __len__(self) -> int:
        return sum(map(len, self._by_relation.values()))

    def tuples_with_relation(self, r: str) -> Sequence[Tuple]:
        """All tuples labeled r in Tuple order, by head then tail: the store's
        own list, which the caller never mutates, or `()` for a label it lacks."""
        return self._by_relation.get(r, ())

    def relations(self) -> list[str]:
        return sorted(self._by_relation)

    def all_tuples(self) -> Iterator[Tuple]:
        """Every tuple: the labels in sorted order, each in Tuple order."""
        for r in self.relations():
            yield from self._by_relation[r]

    def sides(self, v: str) -> tuple[Sequence[Tuple], Sequence[Tuple]]:
        """(out-edges, in-edges) of v in insertion order: the store's own list,
        not a copy, or a fresh 1-tuple for a lone edge. The caller reads them
        and never mutates them. A loop at v is in both.
        """
        return _edges(self._out, v), _edges(self._in, v)

    def incident(self, v: str) -> Iterator[Tuple]:
        yield from _edges(self._out, v)
        for s in _edges(self._in, v):
            if s.head != v:             # self loops already came out of _out
                yield s

    def edges_between(self, u: str, v: str) -> set[Tuple]:
        """Edges with endpoint set {u, v} (loops if u == v), read at the endpoint with fewer edges."""
        if self.degree(u) < self.degree(v):
            u, v = v, u
        out, into = self.sides(v)
        return {s for s in out if s.tail == u}.union(s for s in into if s.head == u)

    def vertices(self) -> Iterator[str]:
        """Heads in insertion order, then tails that are never heads."""
        yield from self._out
        yield from (v for v in self._in if v not in self._out)

    def degree(self, v: str) -> int:
        """In-degree plus out-degree, so a self-loop counts 2."""
        return len(_edges(self._out, v)) + len(_edges(self._in, v))

    def degree_stats(self) -> tuple[int, int, int]:
        """(max total degree, vertex count, edge count)."""
        degrees = [self.degree(v) for v in self.vertices()]
        return max(degrees, default=0), len(degrees), len(self)


def _edges(index: dict, v: str) -> Sequence[Tuple]:
    """v's entry in an adjacency index as a sequence of edges: a list as
    itself, a lone edge as `(s,)` and no entry as `()`. Test for the list: a
    bare Tuple is a sequence too, of its three fields."""
    held = index.get(v)
    if type(held) is list:
        return held
    return () if held is None else (held,)


# -- flat-file format --------------------------------------------------------

def identifier(value: str) -> str:
    """`value` stripped; ValueError if that is empty, starts with `#`, holds a
    TAB, CR or LF, or does not encode as UTF-8.

    The one rule for entity and label strings in every input format, so that
    whatever is accepted can be saved to a graph file and read back unchanged.
    Readers decode with `surrogateescape`, so a byte that is not UTF-8 reaches
    this rule as a lone surrogate, as does a `\\ud800` escape in JSON.
    """
    v = value.strip()
    if not v or v[0] == "#" or "\t" in v or "\r" in v or "\n" in v:
        raise ValueError(f"{value!r} is empty, starts with # or holds a TAB, CR or LF")
    if not v.isascii():
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{value!r} is not UTF-8") from None
    return v


# A cell `identifier` returns unchanged: printable ASCII, not led by `#` or a
# space, and not ending in one. The CR of a CRLF ending, which `identifier`
# strips, may follow the line's last cell.
_PLAIN_CELL = r'([!"$-~][ -~]*(?<! ))'
_plain_lines = re.compile("^" + "\t".join([_PLAIN_CELL] * 3) + "\r?$", re.M).findall
_CHUNK_HINT = 1 << 16           # characters of whole lines per chunk: `readlines`' hint


def data_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """`(lineno, line)`, its LF stripped, for each of `lines` that is neither
    blank nor led by `#`, numbered from `start`: every TSV input's line rule."""
    for lineno, raw in enumerate(lines, start):
        line = raw.rstrip("\n")
        if line.lstrip()[:1] not in ("", "#"):
            yield lineno, line


def split_cells(line: str, lineno: int, fields: Sequence[str]) -> list[str]:
    """The line's TAB-separated cells, one per name in `fields`, each through
    `identifier`, or `GraphFormatError("line N: ...")`: every TSV input's cell rule."""
    cells = line.split("\t")
    if len(cells) != len(fields):
        raise GraphFormatError(f"line {lineno}: expected {'<TAB>'.join(fields)}, got {len(cells)} fields")
    try:
        return [identifier(cell) for cell in cells]
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None


def parse_tuple_line(line: str, lineno: int, strings: dict | None = None) -> Tuple:
    """`head<TAB>relation<TAB>tail` as a Tuple, by `storable_tuple`."""
    return storable_tuple(split_cells(line, lineno, ("head", "relation", "tail")), lineno, strings)


def storable_tuple(cells: Sequence[str], lineno: int, strings: dict | None = None) -> Tuple:
    """Checked head, relation and tail cells as a Tuple, unless the label is NA.
    A read passes one `strings` dict for all its lines: equal cells become one object."""
    head, relation, tail = cells if strings is None else map(strings.setdefault, cells, cells)
    if relation == NA:
        raise GraphFormatError(f"line {lineno}: relation label NA is not storable")
    return Tuple(head, relation, tail)


def open_input(path):
    """Open an input file for reading: UTF-8, a leading byte-order mark
    skipped, and a byte that does not decode kept as a lone surrogate for
    `identifier` to reject. Lines end at LF only, so a CR stays in its line,
    where `identifier` strips it from a CRLF ending and rejects it elsewhere."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape", newline="\n")


def read_tuples(path) -> list[Tuple]:
    """A graph file's tuples in file order, blank and `#` lines skipped; the
    first bad line raises with its number. A chunk of plain lines and no NA
    label is split in one regex pass, any other chunk read line by line under
    the same rule, `parse_tuple_line`'s. Equal strings are one object, shared
    through one dict that lives as long as the read, not the process."""
    out, before, strings = [], 0, {}    # before: lines in the chunks already read
    with open_input(path) as fh:
        while lines := fh.readlines(_CHUNK_HINT):
            chunk = "".join(lines)
            rows = _plain_lines(chunk)
            # one match at most per line; a plain line's label is NA iff it holds TAB NA TAB
            if len(rows) == len(lines) and "\tNA\t" not in chunk:
                cells = map(strings.setdefault, chain.from_iterable(rows), chain.from_iterable(rows))
                out.extend(map(tuple.__new__, repeat(Tuple), zip(cells, cells, cells)))
            else:
                out.extend(parse_tuple_line(line, lineno, strings)
                           for lineno, line in data_lines(lines, before + 1))
            before += len(lines)
    return out


class collector_paused:
    """`with collector_paused():` runs its block with the cyclic garbage
    collector off and restores the caller's state on exit, normal or not.

    Bulk work allocates a few objects per tuple or label check, which would
    set off hundreds of collections, some walking the whole store, and none
    could free anything: the store holds Tuples of strings in lists and dicts,
    with no reference cycle. A class, not a generator, so that its exit
    allocates nothing after the collector is back on.
    """

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


def load_graph(path) -> GraphStore:
    """Read a graph file into a new store, built with the collector paused.

    `read_tuples` splits each chunk of plain lines in one regex pass and reads
    any other chunk line by line under the same rule; `GraphStore.fill` stores them.

    The new store's objects all sit in the collector's youngest generation, so
    the first collections after this returns walk the whole store (the first
    took 34-47 ms on a 104k-edge graph, 2-CPU host). A caller that goes on to
    bulk work, such as `stream.run`, saves those passes by running the load
    and the work under one `with collector_paused():`.
    """
    with collector_paused():
        g = GraphStore()
        g.fill(read_tuples(path))
    return g


def save_graph(g: GraphStore, path) -> None:
    """Write the canonical sorted order (head, relation, tail): Tuple order,
    by one stable sort by head of `all_tuples`' sorted run per label. The
    lines go to a file beside the one `path` names through any symlink, with
    its permissions, moved onto it once written: a save that fails midway
    leaves it as it was. A device or pipe is written in place."""
    order = sorted(g.all_tuples(), key=itemgetter(0))
    in_place = os.path.exists(path) and not os.path.isfile(path)
    path = path if in_place else os.path.realpath(path)    # /dev/stdout must not resolve to pipe:[N]
    part = path if in_place else f"{path}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            if os.path.isfile(path):
                os.chmod(part, os.stat(path).st_mode & 0o7777)
            for s in order:
                fh.write(f"{s.head}\t{s.relation}\t{s.tail}\n")
        if not in_place:
            os.replace(part, path)
    finally:
        if not in_place and os.path.exists(part):
            os.remove(part)
