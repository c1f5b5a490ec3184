"""Census of fully packed loop states by boundary link pattern, with an
independent spectral cross-check.

The package has two computational pillars that never share code paths:

* grid side: enumerate the fully packed loop states of the n-by-n grid
  (equivalently, alternating-sign matrices) and tally how many states
  realize each boundary link pattern;
* spectral side: build the integer operator-sum matrix acting on
  noncrossing link patterns and extract its exact positive eigenvector
  at eigenvalue 2n.

The headline check, run by ``loopmodel verify`` or
:func:`loopmodel.spectra.verify_conjecture`, is that both pillars
produce the same integer vector, component by component.
"""
from __future__ import annotations

from .errors import CapacityError, ConjectureViolation
from .fpl import (
    AsmMatrix,
    FplState,
    PatternHistogram,
    asm_count,
    asm_to_state,
    enumerate_states,
    histogram,
    link_pattern_of,
    state_at,
    state_to_asm,
)
from .patterns import (
    LinkPattern,
    apply_h,
    catalan,
    enumerate_patterns,
    rank,
    reflect,
    rotate,
    unrank,
)
from .spectra import (
    BigIntVector,
    SparseIntMatrix,
    VerificationReport,
    build_hamiltonian,
    perron_vector,
    preimage_sum,
    spectral_radius_check,
    verify_conjecture,
)
from .stochastic import (
    PatternDistribution,
    SamplerReport,
    SplitMix64,
    chain_step,
    player_a_probability,
    player_b_probability,
    sample_stationary,
    stationary_law,
)

__version__ = "0.1.0"

__all__ = [
    "AsmMatrix",
    "BigIntVector",
    "CapacityError",
    "ConjectureViolation",
    "FplState",
    "LinkPattern",
    "PatternDistribution",
    "PatternHistogram",
    "SamplerReport",
    "SparseIntMatrix",
    "SplitMix64",
    "VerificationReport",
    "apply_h",
    "asm_count",
    "asm_to_state",
    "build_hamiltonian",
    "catalan",
    "chain_step",
    "enumerate_patterns",
    "enumerate_states",
    "histogram",
    "link_pattern_of",
    "perron_vector",
    "player_a_probability",
    "player_b_probability",
    "preimage_sum",
    "rank",
    "reflect",
    "rotate",
    "sample_stationary",
    "spectral_radius_check",
    "state_at",
    "state_to_asm",
    "stationary_law",
    "unrank",
    "verify_conjecture",
    "__version__",
]
