"""Sweep a parameter grid and cross-check formula, construction and solver.

A sweep yields each row once it is evaluated, so its rows can be read only
once; a VerdictTally counts their verdicts on the way through.
"""

from token_alpha.harness import SweepConfig, VerdictTally, run_sweep
from token_alpha.report import render_tsv

# The wheel grid includes both exceptional instances (m, n) = (3, 1), (3, 2).
config = SweepConfig(family="wheel", n_range=(1, 4), m_range=(3, 7))
rows = VerdictTally(run_sweep(config))
print(render_tsv(rows))
print("exit code:", rows.exit_code)

# Path-union sweeps walk every composition of each total.
config = SweepConfig(family="path_union", m_range=(2, 6))
rows = VerdictTally(run_sweep(config))
for _ in rows:
    pass
counts = rows.counts
print(f"path unions of 2..6: {sum(counts.values())} compositions, "
      f"{counts['AGREE']} agree, {counts['DISAGREE']} disagree")
