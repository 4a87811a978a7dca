"""
Validating and repairing one predicted tuple
============================================

A link predictor proposes relation labels with probabilities; the graph
itself decides which label survives. Here the top-ranked label is wrong
and the repair loop promotes a lower-ranked one that the stored
occurrences actually support.
"""

from kgmend import GraphStore, PredictionRecord, RepairConfig, Tuple, ValidationConfig, classify, repair_tuple

# plant four occurrences of works_for, each with the same local shape:
# the employee also lives somewhere, the employer is based somewhere
g = GraphStore()
for i in range(4):
    g.add_tuple(Tuple(f"person_{i}", "works_for", f"firm_{i}"))
    g.add_tuple(Tuple(f"person_{i}", "lives_in", f"city_{i}"))
    g.add_tuple(Tuple(f"firm_{i}", "based_in", f"hq_{i}"))

# the new pair looks exactly like an employment pair
g.add_tuple(Tuple("alice", "lives_in", "lisbon"))
g.add_tuple(Tuple("acme", "based_in", "utrecht"))

cfg = ValidationConfig(l=1, sample_size=4)

# the predictor is most confident about the wrong label
record = PredictionRecord("demo-1", "alice", "acme", (
    ("born_in", 0.58),
    ("works_for", 0.31),
    ("sells_to", 0.11),
))

# classification of each candidate label against the stored graph
for label, p in record.candidates:
    report = classify(g, Tuple("alice", label, "acme"), cfg)
    print(f"{label:10s} p={p:.2f} -> {report.status} (support {report.support_count})")

# the repair loop spends at most k such checks and rewrites the label
decision = repair_tuple(g, record, RepairConfig(validation=cfg))
print(decision.to_json())
