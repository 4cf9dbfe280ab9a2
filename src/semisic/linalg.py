"""The package's two numerical thresholds; README's threshold table argues each value.

TOL_COND is the one classification gate: verify() judges the defining
conditions, the rank and IC cutoffs and a state's Hermitian, PSD and trace
checks at it, and run_search's hits share it. TOL_ROUND is the rounding of an
O(1) float computation: results within it of a boundary are on it.
"""

TOL_COND = 1e-10  # classification gate on the defining-condition violations
TOL_ROUND = 1e-12  # rounding of an O(1) float computation
