"""Reference implementations that the library replaced with faster ones,
kept only so that tests can run both from identical seeds and compare
results, counters and RNG streams.

The search loops here act on all 2^n amplitudes at every Grover step and
measurement; `hsmoney.search` runs them on two plane coefficients. The basis
completion here row-reduces every candidate from scratch;
`hsmoney.f2lin.complete_to_invertible` keeps an incremental reduced basis.
The Walsh-Hadamard transform here is one radix-2 butterfly per qubit;
`hsmoney.qsim.walsh_hadamard_raw` takes four qubits per `matmul` pass.
Threshold repetition here measures each rank-1 sub-note on its own;
`hsmoney.money.ArtificiallyNoisyScheme.verify_all` takes every acceptance
probability of a composite note from one stacked contraction and draws its
uniforms in blocks. The binomial tail here is a sum of `Fraction` terms;
`hsmoney.money.CompositeScheme.exact_completeness_error` sums integers over
one power-of-two denominator.
"""

import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from hsmoney.f2lin import LinMap, Subspace, rref
from hsmoney.qsim import Projector, StateVector, measure_projector
from hsmoney.search import SearchProblem


def complete_to_invertible(a: Subspace, rng: np.random.Generator) -> LinMap:
    """An invertible map whose first dim(A) columns are a basis of A, from
    uniform candidates accepted when a full `rref` shows the rank grew."""
    rows: List[int] = list(a.basis)
    while len(rows) < a.n:
        cand = int(rng.integers(0, 1 << a.n))
        if len(rref(rows + [cand], a.n)) > len(rows):
            rows.append(cand)
    # rows[j] becomes column j
    cols = rows
    mat_rows = []
    for i in range(a.n):
        r = 0
        for j, c in enumerate(cols):
            r |= ((c >> i) & 1) << j
        mat_rows.append(r)
    return LinMap(a.n, tuple(mat_rows))


def amplitude_amplify(p: SearchProblem, T: int) -> StateVector:
    """T Grover iterations: I - 2 P for the goal projector P, then
    I - 2 |init><init|, and a global sign flip, each applied to the full
    state and charged to the goal projector's and the init oracle's counters."""
    if T < 0:
        raise ValueError("iteration count must be nonnegative")
    init = p.init_state.amps
    amps = init
    for _ in range(T):
        p.goal_projector.charge_to.charge()
        amps = amps - 2.0 * p.goal_projector.project(amps)
        p.init_oracle.charge()
        amps = amps - 2.0 * np.vdot(init, amps) * init
        amps = -amps
    return StateVector._wrap(p.init_state.n_qubits, amps)


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


def walsh_hadamard_butterfly(amps: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform, one radix-2 butterfly per qubit."""
    n = len(amps).bit_length() - 1
    h = amps.astype(np.complex128, copy=True)
    for i in range(n):
        h = h.reshape(-1, 2, 1 << i)
        top = h[:, 0, :].copy()
        h[:, 0, :] = top + h[:, 1, :]
        h[:, 1, :] = top - h[:, 1, :]
        h = h.reshape(-1)
    h *= 2 ** (-n / 2)
    return h


def count_rank1_accepts(scheme, serials, states, rng: np.random.Generator) -> int:
    """Sub-notes accepted by a rank-1 scheme, one after another in index
    order: a Born-rule measurement of the projector onto the serial's target
    state, post state included, then the scheme's classical coins on
    acceptance. An unissued serial rejects without a draw."""
    total = 0
    for serial, state in zip(serials, states):
        target = scheme.target_state(serial)
        if target is None:
            continue
        ok, _, _ = measure_projector(Projector.onto_state(target), state, rng)
        if ok and scheme.classical_accept(rng):
            total += 1
    return total


def binomial_tail(k: int, threshold: int, eps: float) -> float:
    """P[Bin(k, 1 - eps) < threshold], summed in exact rationals and then
    rounded once to a float."""
    p = 1 - Fraction(eps)
    return float(sum(math.comb(k, j) * p ** j * (1 - p) ** (k - j) for j in range(threshold)))
