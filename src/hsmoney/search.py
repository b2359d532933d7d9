"""Amplitude amplification, monotone fixed-point search, and their hybrid.

All algorithms run against abstract reflection oracles with query counters.
Fixed-point search is a measurement-alternation scheme: measure the goal
projector; on failure measure the rank-1 projector onto the start state to
restore it (the complementary branch re-enters the loop and is re-amplified
by the next goal measurement). Expected goal fidelity after T rounds is
>= 1 - exp(-c T eps^2) with the calibrated rate c from config, and is
monotone in T because a goal acceptance ends the loop inside the goal space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from . import config
from .qsim import (
    PhaseOracle,
    Projector,
    ReflectAboutState,
    StateVector,
    measure_projector,
)

Reflection = Union[PhaseOracle, ReflectAboutState]


@dataclass
class SearchProblem:
    """Initial state plus counted reflections about it and about the goal."""

    init_state: StateVector
    init_reflection: ReflectAboutState
    goal_reflection: Reflection
    goal_projector: Projector

    @classmethod
    def with_oracle_goal(cls, init_state: StateVector, goal: PhaseOracle) -> "SearchProblem":
        return cls(
            init_state=init_state,
            init_reflection=ReflectAboutState(init_state, label="U_init"),
            goal_reflection=goal,
            goal_projector=Projector.from_oracle(goal),
        )

    @classmethod
    def with_state_goal(cls, init_state: StateVector, goal_state: StateVector) -> "SearchProblem":
        refl = ReflectAboutState(goal_state, label="U_goal")
        return cls(
            init_state=init_state,
            init_reflection=ReflectAboutState(init_state, label="U_init"),
            goal_reflection=refl,
            goal_projector=Projector.onto_state(goal_state, charge_to=refl),
        )

    def queries(self) -> int:
        return self.init_reflection.query_count + self.goal_reflection.query_count


@dataclass
class SearchParams:
    """Schedule for the hybrid search.

    eps is the promised lower bound on the initial goal fidelity; the
    schedule uses xi = arcsin(eps), never the true overlap. The derived
    values are L = ceil(HYBRID_L_NUMERATOR / xi) and
    R = ceil(HYBRID_R_FACTOR / delta^2 * (2 + ln(1/delta)) / FIXED_POINT_RATE),
    with the constants from config.
    """

    eps: float
    delta: float
    xi: float = field(init=False)
    L: int = field(init=False)
    R: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        self.xi = math.asin(self.eps)
        self.L = math.ceil(config.HYBRID_L_NUMERATOR / self.xi)
        self.R = math.ceil(
            config.HYBRID_R_FACTOR / self.delta ** 2 * (2 + math.log(1 / self.delta))
            / config.FIXED_POINT_RATE
        )


def amplitude_amplify(p: SearchProblem, T: int) -> StateVector:
    """T Grover iterations; goal fidelity becomes |sin((2T+1) theta)|.

    Each iteration applies the goal reflection then the init reflection
    (2 queries); the global sign flip keeps the rotation formula exact.
    """
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
    restore: Projector,
    s: StateVector,
    budget: int,
    rng: np.random.Generator,
) -> Tuple[StateVector, int, bool]:
    """Up to `budget` rounds of measuring the goal, each failure followed by a
    measurement of the restore projector. Returns the final state, the rounds
    used and whether the goal accepted; the restores made are rounds - hit."""
    for rounds in range(1, budget + 1):
        ok, s, _ = measure_projector(goal, s, rng)
        if ok:
            return s, rounds, True
        _, s, _ = measure_projector(restore, s, rng)
    return s, budget, False


def fixed_point_search(p: SearchProblem, T: int, rng: np.random.Generator) -> StateVector:
    """Monotone search: T rounds of goal measurement with init restoration."""
    if T < 0:
        raise ValueError("round count must be nonnegative")
    restore = Projector.onto_state(p.init_state, charge_to=p.init_reflection)
    s, _, _ = measure_restore(p.goal_projector, restore, p.init_state, T, rng)
    return s


def hybrid_search(
    p: SearchProblem,
    params: SearchParams,
    rng: np.random.Generator,
    trace: Optional[dict] = None,
) -> Tuple[StateVector, int]:
    """Randomized amplification then fixed-point clean-up.

    Draws T uniformly from {0..L}, runs T amplification iterations, then R
    fixed-point rounds starting from the amplified state. Restoring the
    amplified start state is charged T+1 init-oracle calls per round, since
    reflecting about it means rerunning the amplification stage. A trace
    dict, when given, receives the drawn T and the rounds used.
    """
    before = p.queries()
    if params.eps >= 1.0:
        # degenerate promise: the start state already lies in the goal space
        ok, s, _ = measure_projector(p.goal_projector, s=p.init_state, rng=rng)
        if trace is not None:
            trace.update(T=0, rounds=0)
        return s, p.queries() - before
    if params.delta < 2 * params.eps:
        raise ValueError("hybrid schedule requires delta >= 2 * eps")
    T = int(rng.integers(0, params.L + 1))
    phi = amplitude_amplify(p, T)
    s, rounds, hit = measure_restore(p.goal_projector, Projector.onto_state(phi), phi, params.R, rng)
    p.init_reflection.charge((T + 1) * (rounds - hit))
    if trace is not None:
        trace.update(T=T, rounds=rounds)
    return s, p.queries() - before


def count_near_lattice(L: int, beta: float, eta: float, gamma: float) -> int:
    """Number of integers T in {0..L} within eta of the lattice {beta*n + gamma}.

    The strict inequality |T - (beta n + gamma)| < eta follows the counting
    bound (L/beta + 1)(2 eta + 1); eta = 0 therefore never counts anything.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if L < 0:
        raise ValueError("L must be nonnegative")
    count = 0
    for T in range(L + 1):
        base = (T - gamma) / beta
        hit = False
        for n in (math.floor(base) - 1, math.floor(base), math.floor(base) + 1, math.ceil(base)):
            if abs(T - (beta * n + gamma)) < eta:
                hit = True
                break
        count += hit
    return count


def planted_problem(
    n: int,
    overlap: float,
    rng: np.random.Generator,
    goal_count: Optional[int] = None,
) -> SearchProblem:
    """Search instance with exactly known initial goal fidelity.

    The goal is a random set of basis states; the start state is built as
    overlap * |goal part> + sqrt(1 - overlap^2) * |rest part>.
    """
    if not 0 < overlap <= 1:
        raise ValueError("overlap must lie in (0, 1]")
    dim = 1 << n
    if goal_count is None:
        goal_count = dim // 4
    goal_count = max(1, min(goal_count, dim - 1))
    perm = rng.permutation(dim)
    goal_idx = perm[:goal_count]
    rest_idx = perm[goal_count:]
    amps = np.zeros(dim, dtype=np.complex128)
    amps[goal_idx] = overlap / math.sqrt(goal_count)
    amps[rest_idx] = math.sqrt(max(0.0, 1 - overlap ** 2)) / math.sqrt(dim - goal_count)
    init = StateVector(n, amps)
    goal = PhaseOracle.from_indices(n, goal_idx, label="U_goal")
    return SearchProblem.with_oracle_goal(init, goal)
