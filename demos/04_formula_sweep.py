"""Sweep a parameter grid and cross-check formula, construction and solver."""

from token_alpha.harness import SweepConfig, exit_code, run_sweep, verdict_counts
from token_alpha.report import render_tsv

# The wheel grid includes both exceptional instances (m, n) = (3, 1), (3, 2).
config = SweepConfig(family="wheel", n_range=(1, 4), m_range=(3, 7))
rows = run_sweep(config)
print(render_tsv(rows))
print("exit code:", exit_code(rows))

# Path-union sweeps walk every composition of each total.
config = SweepConfig(family="path_union", m_range=(2, 6))
rows = run_sweep(config)
counts = verdict_counts(rows)
print(f"path unions of 2..6: {len(rows)} compositions, "
      f"{counts['AGREE']} agree, {counts['DISAGREE']} disagree")
