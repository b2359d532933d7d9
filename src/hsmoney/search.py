"""Amplitude amplification, monotone fixed-point search, and their hybrid.

A search problem is a start state, a goal projector and query counters: the
goal projector's own `charge_to` counts goal reflections and measurements,
and `init_oracle` counts reflections about, or restorations of, the start
state. Fixed-point search is a measurement-alternation scheme: measure the
goal projector; on failure measure the rank-1 projector onto the start state
to restore it (the complementary branch re-enters the loop and is
re-amplified by the next goal measurement). Expected goal fidelity after T
rounds is >= 1 - exp(-c T eps^2) with the calibrated rate c from config, and
is monotone in T because a goal acceptance ends the loop inside the goal
space.

Every loop runs in the two-dimensional picture of the analysis. The goal is
a projector P and every restoration is rank-1 onto the start state psi, so
the state never leaves span{P psi, (I - P) psi}. `_Plane` splits psi once
(one dense pass) into the orthonormal directions g = P psi / |P psi| and
r = (I - P) psi / |(I - P) psi|; Grover steps and measure/restore rounds
then act on the two real coefficients of g and r, and the output
`StateVector` is built once at the end. The counters are charged, and
`rng.random()` is drawn, exactly as a dense simulation would do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import config
from .qsim import CountedOracle, Projector, StateVector, measure_projector, sqnorm


@dataclass
class SearchProblem:
    """Initial state, goal projector P and the init-oracle counter.

    A Grover iteration is I - 2 P charged to `goal_projector.charge_to`,
    then I - 2 |init><init| charged to `init_oracle`.
    """

    init_state: StateVector
    goal_projector: Projector
    init_oracle: CountedOracle = field(default_factory=lambda: CountedOracle("U_init"))

    def queries(self) -> int:
        return self.init_oracle.query_count + self.goal_projector.charge_to.query_count


def fixed_point_rounds(fidelity_sq: float, delta: float) -> float:
    """ln(1/delta) / (c f^2) with c = FIXED_POINT_RATE: the rounds that reach goal
    fidelity 1 - delta from fidelity f^2, before rounding up; inf where c f^2 underflows."""
    rate = config.FIXED_POINT_RATE * fidelity_sq
    return math.log(1 / delta) / rate if rate else math.inf


def hybrid_draws(eps: float) -> float:
    """L = HYBRID_L_NUMERATOR / arcsin(eps) before rounding up; inf where it overflows."""
    return config.HYBRID_L_NUMERATOR / math.asin(eps)


def cleanup_rounds(delta: float) -> float:
    """R = HYBRID_R_FACTOR / delta^2 * (2 + ln(1/delta)) / FIXED_POINT_RATE
    before rounding up; inf where delta^2 underflows."""
    square = delta ** 2
    return (config.HYBRID_R_FACTOR / square * (2 + math.log(1 / delta)) / config.FIXED_POINT_RATE
            if square else math.inf)


@dataclass
class SearchParams:
    """Schedule for the hybrid search.

    eps is the promised lower bound on the initial goal fidelity; the
    schedule reads eps, never the true overlap. The derived values are
    L = ceil(hybrid_draws(eps)) and R = ceil(cleanup_rounds(delta)).
    """

    eps: float
    delta: float
    L: int = field(init=False)
    R: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        draws, rounds = hybrid_draws(self.eps), cleanup_rounds(self.delta)
        if not max(draws, rounds) < math.inf:
            raise ValueError(f"eps={self.eps} and delta={self.delta} set an endless schedule")
        self.L, self.R = math.ceil(draws), math.ceil(rounds)


class _Plane:
    """A start state psi split once against a goal projector P:
    psi = a g + b r with g = P psi / a, r = (I - P) psi / b and a, b >= 0.
    A state alpha g + beta r of the plane is held as its coefficients."""

    def __init__(self, goal: Projector, start: StateVector):
        self.start = start
        self.kept = goal.project(start.amps)
        self.a = math.sqrt(sqnorm(self.kept))
        self.b = math.sqrt(sqnorm(start.amps - self.kept))

    def state(self, alpha: float, beta: float) -> StateVector:
        """alpha g + beta r; a part of zero norm is all zeros and adds nothing.
        (I - P) psi is rebuilt here, so a plane holds one array beside its
        start state, not two."""
        amps = self.start.amps - self.kept
        np.multiply(amps, beta / self.b if self.b > 0 else 0.0, out=amps)
        amps += (alpha / self.a if self.a > 0 else 0.0) * self.kept
        return StateVector._wrap(self.start.n_qubits, amps)


def _measure_in_plane(
    charge_to, alpha: float, beta: float, k_alpha: float, k_beta: float, rng: np.random.Generator
) -> Tuple[bool, float, float]:
    """`measure_projector` on plane coefficients: (k_alpha, k_beta) is the
    projected part of (alpha, beta). Same charge, draw, comparison and
    zero-probability error as the dense measurement."""
    if charge_to is not None:
        charge_to.charge()
    prob = min(max(k_alpha * k_alpha + k_beta * k_beta, 0.0), 1.0)
    if rng.random() < prob:
        norm = math.sqrt(prob)
        return True, k_alpha / norm, k_beta / norm
    r_alpha, r_beta = alpha - k_alpha, beta - k_beta
    rnorm = math.hypot(r_alpha, r_beta)
    if rnorm < 1e-15:
        raise ValueError("zero-probability branch requested deterministically")
    return False, r_alpha / rnorm, r_beta / rnorm


def amplitude_amplify(p: SearchProblem, T: int) -> StateVector:
    """T Grover iterations; goal fidelity becomes |sin((2T+1) theta)|.

    Each iteration applies the goal reflection then the init reflection
    (2 queries) and flips the global sign, a rotation by 2 theta in the
    plane of the start state, where sin(theta) = |P init|. The T rotations
    are taken as one, in closed form.
    """
    if T < 0:
        raise ValueError("iteration count must be nonnegative")
    p.goal_projector.charge_to.charge(T)
    p.init_oracle.charge(T)
    if T == 0:
        return p.init_state
    plane = _Plane(p.goal_projector, p.init_state)
    angle = (2 * T + 1) * math.atan2(plane.a, plane.b)
    return plane.state(math.sin(angle), math.cos(angle))


def measure_restore(
    goal: Projector,
    s: StateVector,
    budget: int,
    rng: np.random.Generator,
    charge_to=None,
) -> Tuple[StateVector, int, bool]:
    """Up to `budget` rounds of measuring the goal, each failure followed by a
    measurement of the rank-1 projector onto the start state `s`, charged to
    `charge_to` when given. Returns the final state, the rounds used and
    whether the goal accepted; the restores made are rounds - hit."""
    if budget < 1:
        return s, budget, False
    plane = _Plane(goal, s)
    a, b = plane.a, plane.b
    alpha, beta = a, b
    for rounds in range(1, budget + 1):
        ok, alpha, beta = _measure_in_plane(goal.charge_to, alpha, beta, alpha, 0.0, rng)
        if ok:
            return plane.state(alpha, beta), rounds, True
        c = a * alpha + b * beta
        _, alpha, beta = _measure_in_plane(charge_to, alpha, beta, c * a, c * b, rng)
    return plane.state(alpha, beta), budget, False


def fixed_point_search(p: SearchProblem, T: int, rng: np.random.Generator) -> StateVector:
    """Monotone search: T rounds of goal measurement with init restoration."""
    if T < 0:
        raise ValueError("round count must be nonnegative")
    s, _, _ = measure_restore(p.goal_projector, p.init_state, T, rng, charge_to=p.init_oracle)
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
    s, rounds, hit = measure_restore(p.goal_projector, phi, params.R, rng)
    p.init_oracle.charge((T + 1) * (rounds - hit))
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


def planted_problem(n: int, overlap: float, rng: np.random.Generator) -> SearchProblem:
    """Search instance with exactly known initial goal fidelity.

    The goal is a random set of basis states; the start state is built as
    overlap * |goal part> + sqrt(1 - overlap^2) * |rest part>.
    """
    if not 0 < overlap <= 1:
        raise ValueError("overlap must lie in (0, 1]")
    dim = 1 << n
    goal_count = max(1, min(dim // 4, dim - 1))
    perm = rng.permutation(dim)
    goal_idx = perm[:goal_count]
    rest_idx = perm[goal_count:]
    amps = np.zeros(dim, dtype=np.complex128)
    amps[goal_idx] = overlap / math.sqrt(goal_count)
    amps[rest_idx] = math.sqrt(max(0.0, 1 - overlap ** 2)) / math.sqrt(dim - goal_count)
    mask = np.zeros(dim, dtype=np.bool_)
    mask[goal_idx] = True
    return SearchProblem(StateVector(n, amps), Projector.from_mask(n, mask, charge_to=CountedOracle("U_goal")))
