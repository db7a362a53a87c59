"""
Certifying the distortion bound numerically
===========================================

Monte Carlo sampling from the unit ball plus a seeded hill climb, both
compared against the closed-form worst case. The run is reproducible from
(seed, workers) and the report serializes to JSON and CSV with provenance.
"""

import json

from widim import csv_lines, from_json, to_json
from widim.certify import (
    CertificationReport,
    adversarial_certify,
    check_lemma_swap,
    key_lemma_oracle_max,
    monte_carlo_certify,
)
from widim.core import make_exponents

e = make_exponents(p=1, q=2)

mc = monte_carlo_certify(n=16, m=3, e=e, samples=50_000, seed=0x5EED)
print("monte carlo   max", mc.max_observed_distortion, "bound", mc.bound)
print("monte carlo margin", mc.margin, "passed", mc.passed)

adv = adversarial_certify(n=16, m=3, e=e, restarts=16, seed=0x5EED)
print("hill climb    max", adv.max_observed_distortion, "margin", adv.margin)

# worker count never changes the answer, only the wall clock
again = monte_carlo_certify(n=16, m=3, e=e, samples=50_000, seed=0x5EED, workers=4)
assert to_json(again) == to_json(mc)
print("workers=4 run is byte-identical")

# report serialization round trips; the header gives the column order
for line in csv_lines(mc):
    print(line)
print(json.dumps(json.loads(to_json(mc))["exponents"]))
assert from_json(CertificationReport, to_json(mc)) == mc

# the scalar inequalities backing the proof hold on a dense grid
violations = 0
for s in (1.0, 1.5, 2.0):
    for i in range(41):
        for j in range(i + 1):
            for k in range(41):
                x, y, z = 0.05 * i, 0.05 * j, 0.05 * k
                violations += not check_lemma_swap(s, x, y, z)
print("swap inequality violations on the grid:", violations)
assert violations == 0

# the budget-capped maximum never beats c * t^(s-1)
worst = 0.0
for n in (1, 2, 4, 8):
    got = key_lemma_oracle_max(s=2.0, c=1.0, t=0.5, n=n, samples=2048)
    worst = max(worst, got - 1.0 * 0.5)
print("largest excess over the cap bound:", worst)
assert worst <= 1e-12
