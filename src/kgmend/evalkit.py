"""Desk-scale experiment harness: error injection, scoring, planted benchmarks.

The planted benchmark gives every relation label a small characteristic
context motif, so structural validation has real signal to find: a correct
candidate's pattern looks like the stored occurrences of its label, a
mislabeled one does not.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass

from .graph_store import (GraphFormatError, GraphStore, NA, Tuple, data_lines, open_input, split_cells,
                          storable_tuple)
from .repair import PredictionRecord, RepairDecision
from .validation import UNKNOWN, VALID, ValidationConfig, blake2b, classify


@dataclass(frozen=True)
class GoldLabel:
    id: str
    relation: str


@dataclass
class ScoreReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f_score: float

    @classmethod
    def from_pairs(cls, pairs) -> "ScoreReport":
        """Confusion counts and scores over (predicted positive, actually positive) pairs."""
        counts = Counter(pairs)
        tp, fp, fn, tn = counts[True, True], counts[True, False], counts[False, True], counts[False, False]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(tp, fp, fn, tn, precision, recall, f_score)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _selected(seed: int, record_id: str, rate: float) -> bool:
    digest = blake2b(f"{seed}:{record_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64 < rate


def inject_errors(records: list[PredictionRecord], rate: float, seed: int) -> list[PredictionRecord]:
    """Swap the Top-1 and Top-2 labels for a seeded fraction of the records.

    Selection hashes the record id, so it is stable across runs and the
    transformation is an involution: applying it twice restores the input.
    Records with fewer than two candidates are never touched.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must be in [0, 1]")
    out = []
    for rec in records:
        if len(rec.candidates) >= 2 and _selected(seed, rec.id, rate):
            (l0, p0), (l1, p1) = rec.candidates[0], rec.candidates[1]
            swapped = ((l1, p0), (l0, p1)) + rec.candidates[2:]
            out.append(PredictionRecord(rec.id, rec.head, rec.tail, swapped))
        else:
            out.append(rec)
    return out


def score(decisions: list[RepairDecision], gold: list[GoldLabel]) -> ScoreReport:
    """Precision/recall/F against gold labels, keyed by record id.

    A non-NA final equal to gold is a true positive; a non-NA final that
    differs is a false positive; an NA final (including terminal holds)
    against a non-NA gold is a false negative.
    """
    truth = {gl.id: gl.relation for gl in gold}
    missing = [dec.id for dec in decisions if dec.id not in truth]
    if missing:
        raise ValueError(f"no gold label for record ids: {', '.join(sorted(missing))}")
    # a kept label is positive when it is the gold one; a dropped one when gold is not NA
    return ScoreReport.from_pairs(
        (dec.final != NA, dec.final == truth[dec.id] if dec.final != NA else truth[dec.id] != NA)
        for dec in decisions)


def detect_errors(
    g_train: GraphStore,
    labeled_facts: list[tuple[Tuple, bool]],
    cfg: ValidationConfig,
    unknown_is_true: bool = False,
) -> ScoreReport:
    """Classify held-out facts and score truth detection.

    Valid predicts true; Unknown predicts false unless unknown_is_true is
    set. The facts must not already sit in the training graph.
    """
    pairs = []
    for fact, actually_true in labeled_facts:
        if fact in g_train:
            raise ValueError(f"labeled fact {fact} already present in the training graph")
        report = classify(g_train, fact, cfg)
        pairs.append((report.status == VALID or (unknown_is_true and report.status == UNKNOWN),
                      bool(actually_true)))
    return ScoreReport.from_pairs(pairs)


# -- planted benchmark --------------------------------------------------------

@dataclass
class BenchmarkSpec:
    records: int
    labels: int
    density: float = 1.0            # fraction of records given a context motif
    occurrences_per_label: int = 20
    distractors: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.records < 0 or self.labels < 1 or self.occurrences_per_label < 0:
            raise ValueError("counts must be positive")
        if not 0 <= self.density <= 1:
            raise ValueError("density must be in [0, 1]")


def _label_names(n: int) -> list[str]:
    return [f"rel{i:02d}" for i in range(n)]


def _plant_context(g: GraphStore, head: str, tail: str, label_index: int, suffix: str) -> None:
    # one incoming-side and one outgoing-side marker edge, unique per label
    g.add_tuple(Tuple(head, f"ctxh{label_index:02d}", f"xh_{suffix}"))
    g.add_tuple(Tuple(tail, f"ctxt{label_index:02d}", f"xt_{suffix}"))


def benchmark_generate(spec: BenchmarkSpec) -> tuple[GraphStore, list[PredictionRecord], list[GoldLabel]]:
    """Deterministic synthetic graph, prediction records and gold labels.

    Every relation label co-occurs with its own two context labels. Records
    predict the correct Top-1 plus lower-probability distractor labels over
    fresh entity pairs; with probability `density` the pair also gets the
    label's context motif planted into the graph.
    """
    rng = random.Random(spec.seed)
    labels = _label_names(spec.labels)
    g = GraphStore()
    for i in range(spec.labels):
        for j in range(spec.occurrences_per_label):
            head, tail = f"e{i:02d}_{j}a", f"e{i:02d}_{j}b"
            g.add_tuple(Tuple(head, labels[i], tail))
            _plant_context(g, head, tail, i, f"{i:02d}_{j}")

    records, gold = [], []
    for n in range(spec.records):
        i = rng.randrange(spec.labels)
        head, tail = f"h{n:05d}", f"t{n:05d}"
        if rng.random() < spec.density:
            _plant_context(g, head, tail, i, f"r{n:05d}")
        top_p = 0.55 + 0.3 * rng.random()
        others = [lab for lab in labels if lab != labels[i]]
        rng.shuffle(others)
        probs = sorted((rng.uniform(0.01, top_p / 2) for _ in range(min(spec.distractors, len(others)))),
                       reverse=True)
        candidates = [(labels[i], round(top_p, 6))]
        candidates += [(others[j], round(p, 6)) for j, p in enumerate(probs)]
        if rng.random() < 0.2:
            candidates.append((NA, round(min(p for _, p in candidates) / 2, 6)))
        rid = f"r{n:05d}"
        records.append(PredictionRecord(rid, head, tail, tuple(candidates)))
        gold.append(GoldLabel(rid, labels[i]))
    return g, records, gold


def benchmark_facts(
    g: GraphStore,
    spec: BenchmarkSpec,
    count: int,
    true_fraction: float = 0.2,
    seed: int = 1,
) -> list[tuple[Tuple, bool]]:
    """Held-out labeled facts over the benchmark graph at a chosen class prior.

    True facts get their label's context motif planted into g (the fact edge
    itself stays out); false facts reuse a context motif but carry a shuffled
    wrong label.
    """
    if not 0 <= true_fraction <= 1:
        raise ValueError("true_fraction must be in [0, 1]")
    rng = random.Random(seed)
    labels = _label_names(spec.labels)
    facts = []
    for n in range(count):
        i = rng.randrange(spec.labels)
        head, tail = f"fh{n:05d}", f"ft{n:05d}"
        _plant_context(g, head, tail, i, f"f{n:05d}")
        if rng.random() < true_fraction:
            facts.append((Tuple(head, labels[i], tail), True))
        else:
            wrong = labels[(i + 1 + rng.randrange(spec.labels - 1)) % spec.labels] \
                if spec.labels > 1 else labels[i]
            facts.append((Tuple(head, wrong, tail), False))
    return facts


# -- file formats --------------------------------------------------------------

def read_labeled_facts(path) -> list[tuple[Tuple, bool]]:
    """TSV `head<TAB>relation<TAB>tail<TAB>flag` with flag 1 (true) or 0 (false)."""
    facts, strings = [], {}
    with open_input(path) as fh:
        for lineno, line in data_lines(fh):
            *cells, flag = split_cells(line, lineno, ("head", "relation", "tail", "flag"))
            fact = storable_tuple(cells, lineno, strings)
            if flag not in ("0", "1"):
                raise GraphFormatError(f"line {lineno}: flag must be 1 or 0, got {flag!r}")
            facts.append((fact, flag == "1"))
    return facts
