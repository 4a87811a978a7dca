"""
Detecting erroneous facts with pattern support
==============================================

The same support test that guards insertion also works as a truth
classifier for facts that are not in the graph yet: supported means
probably true, unsupported in a known neighborhood means probably wrong.
"""

import random

from kgmend import (BenchmarkSpec, ScoreReport, ValidationConfig, benchmark_facts,
                    benchmark_generate, detect_errors)

# training graph only, no prediction records
spec = BenchmarkSpec(records=0, labels=20, occurrences_per_label=20, seed=0)
g, _, _ = benchmark_generate(spec)

# held-out facts at a 20/80 true/false prior; false facts sit in a
# plausible neighborhood but carry the wrong label
facts = benchmark_facts(g, spec, count=400, true_fraction=0.2, seed=1)
print("held-out facts:", len(facts), "true:", sum(1 for _, t in facts if t))

report = detect_errors(g, facts, ValidationConfig())
print(report.to_json())

# a coin flip at the same prior for comparison
rng = random.Random(5)
guesses = [rng.random() < 0.5 for _ in facts]
coin = ScoreReport.from_pairs((guess, truth) for guess, (_, truth) in zip(guesses, facts))
print("coin flip F1:", round(coin.f_score, 4))
