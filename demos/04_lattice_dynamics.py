"""
Finitely supported points on the integer lattice
================================================

A geometric weight turns translation on Z^d into a compact metric dynamical
system. The script prints the per-box count table whose size/volume ratios
sink below any fixed level, then spot checks the epsilon embedding.
"""

from widim import from_json, table_csv_lines, to_json
from widim.group_dynamics import (
    EmbeddingReport,
    LatticeBox,
    MeanDimensionTable,
    embedding_check,
    geometric_weight_metric,
    mean_dimension_table,
    tail_set,
    widim_constant,
)

M = geometric_weight_metric(dim_d=1, base=2.0, total=0.75)
print("weight description:", M.description)
print("tail mass outside radius 2:", M.tail_bound(2))

# coordinates outside the tail set move points by less than eps/2
print("tail set at eps=0.5:", tuple(tail_set(M, (0,), 0.5)))

# the per-site constant: how many l1 points an eps-separated set needs
print("widim constant (p=1, eps=0.5):", widim_constant(1.0, 0.5))

# counts grow with a fixed constant, volume grows with 2*radius+1
table = mean_dimension_table(M, p=1.0, eps=0.5, box_radii=list(range(1, 8)))
for radius, size, ratio in table.rows:
    print(f"radius {radius}: box size {size}, count {table.constant}, ratio {ratio:.4f}")
assert table.rows[-1][2] < 0.5  # sinks below one half by radius 7

for line in table_csv_lines(table):
    print(line)
assert from_json(MeanDimensionTable, to_json(table)) == table

# embedding spot check: windows project to within eps/2 of the originals
report = embedding_check(M, LatticeBox((0,), 2), p=1.0, eps=0.5, samples=5000, seed=3)
print("pairs checked:", report.checked_count, "failures:", report.failure_count)
print("worst margin:", report.worst_margin)
assert report.failure_count == 0
assert from_json(EmbeddingReport, to_json(report)) == report
