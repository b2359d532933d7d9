"""Global caps, tolerances, and calibrated constants.

Everything here is desk-scale: dimensions are capped so that enumeration
checks over all of F_2^n (and dense statevectors over 2^n amplitudes)
stay feasible on one machine.
"""

from __future__ import annotations

import os

# Ambient dimension cap for GF(2) linear algebra. Enumeration-based tests
# walk all 2^n vectors, so this stays small.
F2_DIM_CAP = 24

# Hard cap on dense statevector width (qubits). Overridable via environment
# for machines with more memory.
_QUBIT_CAP_ENV = "HSMONEY_QUBIT_CAP"


def qubit_cap() -> int:
    raw = os.environ.get(_QUBIT_CAP_ENV)
    if raw is None:
        return 20
    return int(raw)


# Qubit cap of a Wiesner note. Its qubits are unentangled, so no 2^n object
# is built, but each note records one basis per qubit and verification walks
# them one at a time; the largest catalog and golden value is 16.
WIESNER_QUBIT_CAP = 64

# Numerical tolerance for the unit-norm and amplitude checks of states.
ATOL = 1e-9

# Monotone fixed-point search: expected goal fidelity after T rounds is
# >= 1 - exp(-FIXED_POINT_RATE * T * eps^2). Calibrated by sweep
# (experiment "fixed-point-monotone"); 0.8 leaves margin below the
# measured per-round success rate.
FIXED_POINT_RATE = 0.8

# Hybrid search schedule constants: L = ceil(100/xi) draws above, and
# R = (25/delta^2)(2 + ln(1/delta)) / FIXED_POINT_RATE clean-up rounds
# (search.SearchParams). Conservative constants; nothing here claims they
# are tight.
HYBRID_L_NUMERATOR = 100.0
HYBRID_R_FACTOR = 25.0

# Calibrated budget constant for the hybrid search: measured mean query
# counts satisfy queries <= HYBRID_QUERY_K * ln(1/delta) / (eps * delta^2)
# across the benchmark grid (experiment "hybrid-search-budget").
HYBRID_QUERY_K = 250.0

# Calibrated budget constant for counterfeiter amplification: queries
# <= AMPLIFY_QUERY_K * ln(1/delta) / (sqrt(eps) * (sqrt(eps) + delta^2)).
AMPLIFY_QUERY_K = 12.0
