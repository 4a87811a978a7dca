"""Tri-state classification of candidate tuples via sampled pattern support.

A candidate is Valid when enough sampled same-label patterns look similar to
its own localized pattern (the support set is the implicit constraint: no
mined rules, just structural precedent). A short sample escalates to a scan
of further occurrences; the scan reads a posting index label -> (l, mode) ->
sequence -> occurrences, since a witness must share a sequence with the
candidate. The index lives on the GraphStore across writes, which queue only
what they change, and skips the provisional tuples every check in an overlay
ignores. What a write queued is listed when `repair_instance` opens its
snapshot (`list_pending`), or else by the label's next scan. With no
support, committed edges around the candidate's endpoints decide Invalid or
Unknown.

A check walks the store around the candidate's endpoints and copies none of
it. Embeddings keep label-free paths, so a record's labels share one
candidate embedding, walked once for Top-1 and read under each other label.
A cached witness embedding is registered only under the vertices whose edges
its walks read, those within l - 1 of an endpoint, or under a hub table's key.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

try:
    from _blake2 import blake2b     # hashlib's own blake2b, without hashlib loading OpenSSL
except ImportError:                 # a build without the builtin module
    from hashlib import blake2b

from .embedding import MODES, PathEmbedding, sim, traverse_r
from .graph_store import GraphStore, NA, Tuple
from .patterns import extract_pattern

VALID = "Valid"
INVALID = "Invalid"
UNKNOWN = "Unknown"
MAX_L = 10                      # walk enumeration recurses l deep and grows exponentially in l


@dataclass
class ValidationConfig:
    l: int = 2
    theta: float = 0.0          # strict: a witness needs sim > theta
    delta: int = 1              # witnesses required for Valid
    sample_size: int = 10
    seed: int = 0
    scan_cap: int = 200         # escalation scan length; 0 turns the scan off
    mode: str = "sorted"

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.l > MAX_L:
            raise ValueError(f"l must be <= {MAX_L}")
        if not 0 <= self.theta < 1:
            raise ValueError("theta must be in [0, 1)")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.scan_cap < 0:
            raise ValueError("scan_cap must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"unknown canonicalization mode {self.mode!r}")


@dataclass
class SupportReport:
    tuple: Tuple
    support_count: int
    status: str
    witnesses: list = field(default_factory=list)   # (center tuple, from_aux)
    escalated: bool = False
    heuristic: bool = False


def _draw_rng(cfg: ValidationConfig, r: str, exclude: Tuple | None, version: int, realm: str) -> random.Random:
    # sampling must depend only on these inputs, never on which records came before
    material = repr((cfg.seed, r, exclude, version, realm)).encode()
    digest = blake2b(material, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sample_centers(
    g: GraphStore, r: str, cfg: ValidationConfig, exclude: Tuple | None = None
) -> list[tuple[Tuple, bool]]:
    """Deterministic uniform sample of occurrence centers, without replacement.

    Everything available is returned when the index holds fewer than
    sample_size occurrences; a registered auxiliary source then tops the
    sample up with relabeled occurrences (tagged True).
    """
    order = g.tuples_with_relation(r)
    # the excluded tuple is skipped by position, without copying the list
    skip = bisect_left(order, exclude) if exclude is not None else len(order)
    if skip < len(order) and order[skip] != exclude:
        skip = len(order)           # exclude is not an occurrence of r
    available = len(order) - (skip < len(order))
    if available >= cfg.sample_size:
        rng = _draw_rng(cfg, r, exclude, g.version, "native")
        picks = rng.sample(range(available), cfg.sample_size)
        return [(order[i + (i >= skip)], False) for i in picks]
    chosen = [(order[i + (i >= skip)], False) for i in range(available)]
    aux = g.aux_source
    if aux is not None:
        aux_order = aux.tuples_with_relation(r)
        need = min(cfg.sample_size - len(chosen), len(aux_order))
        if need > 0:
            rng = _draw_rng(cfg, r, exclude, aux.version, "aux")
            picks = rng.sample(range(len(aux_order)), need)
            chosen.extend((aux_order[i], True) for i in picks)
    return chosen


def candidate_embedding(g: GraphStore, s: Tuple, cfg: ValidationConfig) -> PathEmbedding:
    """The embedding of the candidate's own pattern, over g plus the candidate."""
    return traverse_r(extract_pattern(g, s, cfg.l), cfg.l, cfg.mode)


def witness_embedding(source: GraphStore, center: Tuple, cfg: ValidationConfig) -> PathEmbedding:
    """Embedding of a stored occurrence, cached on its store until an edge is
    added or removed at a vertex whose edges its walks read: those with a
    walk table of one step or more, the vertices within l - 1 of an
    endpoint. No other edge is walked, nor can it bring a vertex that close.
    A hub endpoint's neighbours are read, and registered, via its table's key."""
    key = (center, cfg.l, cfg.mode)
    cached = source.embedding_cache.get(key)
    if cached is None:
        pattern = extract_pattern(source, center, cfg.l)
        cached = traverse_r(pattern, cfg.l, cfg.mode)
        source.cache_embedding(key, cached, (v for v, steps in pattern.walks if steps))
    return cached


@dataclass
class Evidence:
    """Sampled similarity scores for one (candidate tuple, label) pair."""
    candidate: PathEmbedding
    centers: list            # (center tuple, from_aux), sample order
    sims: list

    @property
    def link(self) -> float:
        """The linkage prediction: mean sampled similarity, 0.0 on an empty
        sample (each is 0.0 when the candidate's pattern has no side paths)."""
        return sum(self.sims) / len(self.sims) if self.sims else 0.0


def gather_evidence(g: GraphStore, s: Tuple, cfg: ValidationConfig,
                    ignore: frozenset = frozenset(), paths: dict | None = None) -> Evidence:
    """Score s's pattern against sampled same-label patterns. `paths`, another
    label's candidate paths over s's endpoints in this snapshot, are s's own:
    no walk is made then."""
    # provisional instance tuples shape patterns but may not testify as witnesses
    cand = (candidate_embedding(g, s, cfg) if paths is None
            else PathEmbedding(s.relation, cfg.l, cfg.mode, paths))
    centers = [pair for pair in sample_centers(g, s.relation, cfg, exclude=s)
               if pair[0] not in ignore]
    sims = []
    for center, from_aux in centers:
        source = g.aux_source if from_aux else g
        sims.append(sim(cand, witness_embedding(source, center, cfg)))
    return Evidence(candidate=cand, centers=centers, sims=sims)


def _scan_window(order: list, cap: int, ignore, skip: set) -> tuple[int, bool]:
    """The scan reads order[:end], the first `cap` occurrences in neither
    `ignore` nor `skip` (disjoint sets); also whether it holds any."""
    if len(order) <= cap:        # the whole label fits: no window count
        return len(order), any(c not in skip and c not in ignore for c in order)
    end = skipped = 0
    while end < min(len(order), cap + skipped):
        chunk = order[end:cap + skipped]
        skipped += len(ignore.intersection(chunk)) + len(skip.intersection(chunk))
        end += len(chunk)
    return end, end > skipped


def _list_pending(g: GraphStore, cfg: ValidationConfig, index: tuple) -> None:
    """List a posting index's pending occurrences under their witnesses'
    sequences, but for any the open overlay inserted, which it never lists."""
    lists, _, pending = index
    for c in pending:
        if c not in g.provisional:
            for seq in witness_embedding(g, c, cfg).compared:
                insort(lists.setdefault(seq, []), c)
    pending.clear()


def list_pending(g: GraphStore, cfg: ValidationConfig) -> None:
    """List what every label's (l, mode) posting index holds pending, as a
    snapshot opens: the listings a write queued are then built before its
    first record, not by whichever record first scans the label."""
    for indexes in g.postings.values():
        index = indexes.get((cfg.l, cfg.mode))
        if index is not None:
            _list_pending(g, cfg, index)


def _shared_occurrences(g: GraphStore, cfg: ValidationConfig, order: list, end: int,
                        cand: PathEmbedding) -> list[Tuple]:
    """The occurrences in order[:end] whose witness embedding shares a sequence
    with cand, in Tuple order, from the label's posting index (`GraphStore`).
    A scan lists what is pending, then indexes up to order[end - 1]."""
    indexes = g.postings.setdefault(cand.center_label, {})
    lists, last, pending = index = indexes.get((cfg.l, cfg.mode)) or ({}, None, set())
    _list_pending(g, cfg, index)
    start = 0 if last is None else bisect_right(order, last)
    if start < end:
        for c in order[start:end]:
            if c not in g.provisional:
                for seq in witness_embedding(g, c, cfg).compared:
                    lists.setdefault(seq, []).append(c)
        indexes[cfg.l, cfg.mode] = lists, order[end - 1], pending
    hits = set()
    for seq in cand.compared:
        found = lists.get(seq)
        if found:
            hits.update(found if end == len(order) else found[:bisect_left(found, order[end])])
    return sorted(hits)


def support_from_evidence(g: GraphStore, s: Tuple, cfg: ValidationConfig, ev: Evidence,
                          ignore: frozenset = frozenset()) -> SupportReport:
    """Decide s from its evidence: the one place a label check is decided.

    Witnesses are sampled centers with sim above theta. When fewer than
    delta, a scan looks for more among the first scan_cap occurrences that
    are not s, sampled or ignored, in sorted order. A witness shares a
    sequence with the candidate, so the scan reads only the positions the
    posting index lists.
    Short of delta, the committed edges at s's endpoints decide between
    Invalid and Unknown; s itself and the `ignore` tuples count for neither.
    Inside an overlay `ignore` must hold `g.provisional`, or ValueError.
    """
    if ignore is not g.provisional and not ignore >= g.provisional:
        raise ValueError("ignore must hold the tuples the open overlay inserted")
    witnesses = [ev.centers[i] for i, v in enumerate(ev.sims) if v > cfg.theta]
    count = len(witnesses)
    escalated = False
    if count < cfg.delta and cfg.scan_cap:
        order = g.tuples_with_relation(s.relation)
        skip = {c for c, _ in [(s, False), *ev.centers] if c not in ignore}
        end, escalated = _scan_window(order, cfg.scan_cap, ignore, skip)
        for center in _shared_occurrences(g, cfg, order, end, ev.candidate):
            if center in skip or center in ignore:
                continue
            if sim(ev.candidate, witness_embedding(g, center, cfg)) > cfg.theta:
                witnesses.append((center, False))
                count += 1
                if count >= cfg.delta:
                    break
    if count >= cfg.delta:
        status = VALID
    else:
        between = [e for e in g.edges_between(s.head, s.tail) if e != s and e not in ignore]
        if any(e.relation != s.relation for e in between):
            status = INVALID       # a differently labeled fact already links the endpoints
        elif not between and any(e != s and e not in ignore
                                 for v in (s.head, s.tail) for e in g.incident(v)):
            status = INVALID       # the endpoints are known but nothing supports this link
        else:
            status = UNKNOWN
    # the invalidity argument is only proven at l = 1
    return SupportReport(tuple=s, support_count=count, status=status, witnesses=witnesses,
                         escalated=escalated, heuristic=status == INVALID and cfg.l > 1)


def classify(g: GraphStore, s: Tuple, cfg: ValidationConfig,
             ignore: frozenset = frozenset()) -> SupportReport:
    """Classify s as Valid, Invalid or Unknown against the current snapshot.

    `ignore` lists candidate tuples that may sit in the snapshot as context
    but must not count as committed evidence, neither as support witnesses
    nor for the Invalid conditions (a record's own provisional fact never
    testifies for or against its alternatives); in an overlay, `g.provisional`.
    """
    if s.relation == NA:
        raise ValueError("NA tuples are never validated")
    return support_from_evidence(g, s, cfg, gather_evidence(g, s, cfg, ignore), ignore)
