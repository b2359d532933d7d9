"""Dense reference for the search loops: every Grover step and every
measurement acts on all 2^n amplitudes.

`hsmoney.search` runs the same loops on two plane coefficients. These are
the full-statevector loops it replaced, kept only so that tests can run
both from identical seeds and compare states, counters and RNG streams.
"""

from typing import Tuple

import numpy as np

from hsmoney.qsim import Projector, StateVector, measure_projector
from hsmoney.search import SearchProblem


def amplitude_amplify(p: SearchProblem, T: int) -> StateVector:
    """T Grover iterations: the goal reflection, the init reflection, and a
    global sign flip, each applied to the full state."""
    if T < 0:
        raise ValueError("iteration count must be nonnegative")
    s = p.init_state
    for _ in range(T):
        s = p.goal_reflection.apply(s)
        s = p.init_reflection.apply(s)
        s = StateVector._wrap(s.n_qubits, -s.amps)
    return s


def measure_restore(
    goal: Projector,
    s: StateVector,
    budget: int,
    rng: np.random.Generator,
    charge_to=None,
) -> Tuple[StateVector, int, bool]:
    """Up to `budget` rounds of a dense goal measurement, each failure
    followed by a dense measurement of the projector onto the start state."""
    restore = Projector.onto_state(s, charge_to=charge_to)
    for rounds in range(1, budget + 1):
        ok, s, _ = measure_projector(goal, s, rng)
        if ok:
            return s, rounds, True
        _, s, _ = measure_projector(restore, s, rng)
    return s, budget, False
