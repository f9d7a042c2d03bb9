"""SAT/BMC verification backend (ROADMAP item 3).

A second, solver-based verification engine beside the explicit-state
explorer: :mod:`repro.smt.sat` is a zero-dependency CDCL SAT solver
(with optional DIMACS emission for external solvers), :mod:`repro.smt.
encode` compiles the eligible straight-line fragment of the kernel IR —
together with the repo's validated axiomatic memory model — into CNF,
and :mod:`repro.smt.backend` answers the same questions the explorer
answers (litmus behavior sets, wDRF condition verdicts) by bounded
model checking over that encoding.  ``REPRO_BACKEND={explore,bmc}``
picks the engine for every query; the ``backend`` conformance oracle
keeps the two engines' answers identical.
"""

from repro.smt.backend import (
    BmcStats,
    bmc_behaviors,
    bmc_condition_results,
    bmc_explore,
    bmc_supported,
    bmc_witness_trace,
)
from repro.smt.encode import ProgramEncoding, Unsupported
from repro.smt.sat import SatStats, Solver

__all__ = [
    "BmcStats",
    "ProgramEncoding",
    "SatStats",
    "Solver",
    "Unsupported",
    "bmc_behaviors",
    "bmc_condition_results",
    "bmc_explore",
    "bmc_supported",
    "bmc_witness_trace",
]
