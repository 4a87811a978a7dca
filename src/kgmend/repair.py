"""Optimize-validate repair of knowledge-acquisition candidates.

Each prediction record carries Top-k relation labels with probabilities. The
initial guess is the Top-1 label; when it fails validation, the alternatives
are retried in descending joint score, the product of the acquisition
probability and a structural linkage prediction. Nothing passing means NA.
A linkage prediction lies in [0, 1], so no joint score exceeds its
probability: an alternative is checked only while its probability reaches
the best joint score not yet tried, and those behind the winner never are.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field

from .graph_store import GraphStore, NA, Tuple, identifier, open_input
from .validation import (UNKNOWN, VALID, ValidationConfig, gather_evidence, list_pending,
                         support_from_evidence)

ACCEPTED = "Accepted"
REPAIRED = "Repaired"
REJECTED = "Rejected"
HELD = "Held"

UNKNOWN_POLICIES = ("accept", "hold", "reject")


class PredictionFormatError(ValueError):
    """Raised when a prediction record does not parse."""


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    head: str
    tail: str
    candidates: tuple    # ((relation, probability), ...) descending by probability

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id,
            "head": self.head,
            "tail": self.tail,
            "candidates": [{"relation": r, "p": p} for r, p in self.candidates],
        })


@dataclass
class RepairConfig:
    k: int = 5
    p_th: float = 0.0
    unknown_policy: str = "hold"
    max_hold_iterations: int = 3
    validation: ValidationConfig = field(default_factory=ValidationConfig)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= self.p_th <= 1:
            raise ValueError("p_th must be in [0, 1]")
        if self.unknown_policy not in UNKNOWN_POLICIES:
            raise ValueError(f"unknown_policy must be one of {UNKNOWN_POLICIES}")
        if self.max_hold_iterations < 0:
            raise ValueError("max_hold_iterations must be >= 0")


@dataclass
class RepairDecision:
    id: str
    head: str
    tail: str
    initial: str
    final: str
    status: str
    joint: float
    support: int
    terminal: bool = False
    # labels sampled and decided, at most k: Top-1, then each alternative whose p
    # reaches the winner's joint, or every one when none passes
    checks: int = 0

    def to_json(self) -> str:
        payload = {
            "id": self.id,
            "head": self.head,
            "tail": self.tail,
            "initial": self.initial,
            "final": self.final,
            "status": self.status,
            "joint": self.joint,
            "support": self.support,
        }
        if self.status == HELD and self.terminal:
            payload["terminal"] = True
        return json.dumps(payload)


def _field(value, what: str, rid) -> str:
    # a JSON string has explicit ends, so one that is not already stripped is
    # rejected, not stripped: a graph file could not give it back as given
    try:
        if isinstance(value, str) and identifier(value) == value:
            return value
    except ValueError:
        pass
    raise PredictionFormatError(f"record {rid!r}: bad {what} {value!r}")


def parse_record(obj: dict) -> PredictionRecord:
    try:
        rid, head, tail = obj["id"], obj["head"], obj["tail"]
        raw = obj["candidates"]
    except (KeyError, TypeError) as exc:
        raise PredictionFormatError(f"record missing field: {exc}") from exc
    if not isinstance(rid, str):
        raise PredictionFormatError(f"record {rid!r}: id must be a string")
    if not isinstance(raw, list) or not raw:
        raise PredictionFormatError(f"record {rid!r}: candidates must be a nonempty list")
    candidates = []
    previous = None
    for entry in raw:
        try:
            relation, p = entry["relation"], entry["p"]
        except (KeyError, TypeError) as exc:
            raise PredictionFormatError(f"record {rid!r}: bad candidate {entry!r}") from exc
        if type(p) is bool or not isinstance(p, (int, float)):
            raise PredictionFormatError(f"record {rid!r}: probability {p!r} is not a number")
        if not 0 <= p <= 1:
            raise PredictionFormatError(f"record {rid!r}: probability {p} outside [0, 1]")
        p = float(p)
        if previous is not None and p > previous + 1e-12:
            raise PredictionFormatError(f"record {rid!r}: candidates not sorted by descending p")
        previous = p
        candidates.append((_field(relation, "relation", rid), p))
    return PredictionRecord(id=rid, head=_field(head, "head", rid),
                            tail=_field(tail, "tail", rid), candidates=tuple(candidates))


def initial_instance(records: list[PredictionRecord], p_th: float) -> list[Tuple]:
    """Top-1 tuples of the qualifying records, in record order."""
    instance = []
    for rec in records:
        label, p = rec.candidates[0]
        if label != NA and p >= p_th:
            instance.append(Tuple(rec.head, label, rec.tail))
    return instance


def predict_link(g: GraphStore, h: str, t: str, r: str, cfg: ValidationConfig) -> float:
    """Mean embedding similarity against the sampled same-label patterns.

    Zero on an empty sample (relation-label cold start) and for candidates
    whose own pattern has no side paths.
    """
    if r == NA:
        raise ValueError("NA is not a predictable relation")
    return gather_evidence(g, Tuple(h, r, t), cfg).link


def _top_k_labels(rec: PredictionRecord, k: int) -> list[tuple[str, float]]:
    first: dict[str, float] = {}        # a repeated label keeps its first p
    for label, p in rec.candidates:
        if label != NA:
            first.setdefault(label, p)
    return list(first.items())[:k]


def _ranked(g: GraphStore, rec: PredictionRecord, cfg: RepairConfig, link):
    """Yield the Top-k labels as `(label, joint)`, descending joint, then p,
    then label, asking for a label's link only while it could still come next.

    A link lies in [0, 1], so a joint is at most max(p, 0): the labels are
    scored in descending p, and the best scored one is yielded once no
    unscored p reaches its joint (Fagin, Lotem & Naor's threshold algorithm).
    """
    # parse_record lets a later p exceed an earlier one by 1e-12, so candidate order will not do
    unscored = sorted(_top_k_labels(rec, cfg.k), key=lambda row: -row[1])
    scored = []             # (-joint, -p, label, joint), sorted: the best first
    i = 0
    while i < len(unscored) or scored:
        while i < len(unscored) and (not scored or max(unscored[i][1], 0.0) >= scored[0][3]):
            label, p = unscored[i]
            i += 1
            score = link(g, rec.head, rec.tail, label, cfg.validation)
            if not 0 <= score <= 1:     # NaN too: the bound and the sort would both break
                raise ValueError(f"link score {score!r} of {label!r} is outside [0, 1]")
            joint = p * score
            insort(scored, (-joint, -p, label, joint))
        _, _, label, joint = scored.pop(0)
        yield label, joint


def joint_scores(g: GraphStore, rec: PredictionRecord, cfg: RepairConfig,
                 link_fn=None) -> list[tuple[str, float]]:
    """Acquisition probability times linkage prediction for the Top-k labels.

    Sorted descending, ties broken by acquisition probability then label
    string. `link_fn(g, h, t, r, cfg.validation)` may replace the built-in
    predictor, e.g. to study a different linkage model; a score outside
    [0, 1] raises ValueError.
    """
    return list(_ranked(g, rec, cfg, link_fn or predict_link))


def repair_tuple(g: GraphStore, rec: PredictionRecord, cfg: RepairConfig) -> RepairDecision:
    """Validate the Top-1 label, then walk the joint-ranked alternatives.

    Unknown classifications follow cfg.unknown_policy: accept passes them,
    hold defers the whole record, reject treats them as failures. When Top-1
    fails, the alternatives are walked in `joint_scores`' order, and the
    first that passes wins. A label is sampled and decided once, when its
    link score is first asked for, and only while its p reaches the best
    joint scored and not yet tried: those behind the winner are never
    checked, unless nothing passes. The record's own Top-1 tuple and, in an overlay,
    the tuples it inserted (`g.provisional`) never count as committed evidence.
    """
    top_label, top_p = rec.candidates[0]
    if top_label == NA or top_p < cfg.p_th:
        return RepairDecision(rec.id, rec.head, rec.tail, initial=NA, final=NA,
                              status=REJECTED, joint=0.0, support=0)
    vcfg = cfg.validation
    initial = Tuple(rec.head, top_label, rec.tail)
    # the overlay inserted initial unless g held it already; only then is the set copied
    ignore = g.provisional if initial in g.provisional else g.provisional | {initial}
    evidence, reports = {}, {}      # label -> its sampled evidence, and its decided report

    # Top-1's candidate paths serve the other labels: one walk per record.
    def link(g, h, t, r, vcfg) -> float:
        if r not in evidence:
            s = Tuple(h, r, t)
            top = evidence.get(top_label)
            evidence[r] = gather_evidence(g, s, vcfg, ignore, top and top.candidate.paths)
            reports[r] = support_from_evidence(g, s, vcfg, evidence[r], ignore)
        return evidence[r].link

    def passes(report) -> bool:
        return report.status == VALID or (report.status == UNKNOWN and cfg.unknown_policy == "accept")

    ranked = [(top_label, top_p * link(g, rec.head, rec.tail, top_label, vcfg))]
    if not passes(reports[top_label]):
        ranked = (row for row in _ranked(g, rec, cfg, link) if row[0] != top_label)
    for label, joint in ranked:
        if passes(reports[label]):
            return RepairDecision(rec.id, rec.head, rec.tail, initial=top_label, final=label,
                                  status=ACCEPTED if label == top_label else REPAIRED,
                                  joint=joint, support=reports[label].support_count,
                                  checks=len(evidence))
    held = cfg.unknown_policy == "hold" and any(r.status == UNKNOWN for r in reports.values())
    return RepairDecision(rec.id, rec.head, rec.tail, initial=top_label, final=NA,
                          status=HELD if held else REJECTED, joint=0.0,
                          support=reports[top_label].support_count, checks=len(evidence))


def repair_instance(g: GraphStore, records: list[PredictionRecord],
                    cfg: RepairConfig) -> list[RepairDecision]:
    """Repair every record against the frozen g-union-instance snapshot.

    The provisional context is the instance tuples g does not already hold: a
    committed fact that a record re-predicts still testifies for the others.
    Decisions come back in input order; there is no cross-record
    combinatorial search. The overlay inserts each instance tuple into its
    label's sorted list in place, so no record sorts a label, and the posting
    indexes list what the last writes queued before the first record.
    """
    instance = initial_instance(records, cfg.p_th)
    with g.overlay(instance):
        list_pending(g, cfg.validation)
        return [repair_tuple(g, rec, cfg) for rec in records]


# -- prediction and decision files -------------------------------------------

def iter_prediction_lines(path):
    """Yield parsed records, or PredictionFormatError for lines that fail.

    A record whose id repeats an earlier record's id fails.
    """
    seen = set()
    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")    # a byte that did not decode fails here
                rec = parse_record(json.loads(line))
                if rec.id in seen:
                    raise PredictionFormatError(f"duplicate id {rec.id!r}")
                seen.add(rec.id)
            except UnicodeEncodeError:
                yield PredictionFormatError(f"line {lineno}: not UTF-8")
            except (ValueError, RecursionError) as exc:    # also nesting too deep, an integer too long
                yield PredictionFormatError(f"line {lineno}: {exc}")
            else:
                yield rec


def read_predictions(path) -> list[PredictionRecord]:
    records = []
    for item in iter_prediction_lines(path):
        if isinstance(item, PredictionFormatError):
            raise item
        records.append(item)
    return records


def write_json_lines(items, path) -> None:
    """Write each item's `to_json()`, a record, decision or slice result, on a line of its own."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(item.to_json() + "\n")


write_predictions = write_json_lines     # the name callers outside the package import
