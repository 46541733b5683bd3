"""Sweep a parameter grid and cross-check formula, construction and solver.

A sweep yields each row once it is evaluated, so its rows can be read only
once; a VerdictTally counts their verdicts on the way through.
"""

from token_alpha.harness import VerdictTally, run_sweep
from token_alpha.report import render_tsv

# The wheel grid includes both exceptional instances (m, n) = (3, 1), (3, 2).
rows = VerdictTally(run_sweep("wheel", (1, 4), (3, 7)))
print(render_tsv(rows))
print("exit code:", rows.exit_code)

# Path-union sweeps walk every composition of each total.
rows = VerdictTally(run_sweep("path_union", m_range=(2, 6)))
for _ in rows:
    pass
counts = rows.counts
print(f"path unions of 2..6: {sum(counts.values())} compositions, "
      f"{counts['AGREE']} agree, {counts['DISAGREE']} disagree")
