"""Empirical adversary laboratory.

Tracks the cross-oracle inner-product progress measure of oracle-parametric
probe algorithms, amplifies weak counterfeiters into strong ones with the
monotone fixed-point or the hybrid search, and measures the query cost of cloning by
search (single-target and k-copy variants).

Lower bounds are not "tested" here: the per-query progress bound is checked
because it is universally quantified (a violation would be a bug), and the
cloning costs are checked from the upper-bound side only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from . import config
from .f2lin import Subspace, random_subspace
from .money import Banknote, MiniScheme
from .qsim import (
    CountedOracle,
    Projector,
    ReflectAboutState,
    StateVector,
    haar_random_state,
    hadamard_all,
    measure_projector,
    oracle_for_dual_pair,
    sqnorm,
    subspace_state,
    vdot,
    walsh_hadamard_raw,
)
from .search import (
    SearchParams, SearchProblem, amplitude_amplify, cleanup_rounds, fixed_point_rounds, hybrid_draws,
    hybrid_search, measure_restore,
)


# ---------------------------------------------------------------------------
# pair relations and the progress tracker


@dataclass
class PairSample:
    oracle_u: object
    oracle_v: object
    init_u: StateVector
    init_v: StateVector
    meta: dict


class SubspaceNeighborRelation:
    """Pairs (U, V) of combined subspace oracles over n+1 bits whose hidden
    subspaces intersect in dimension n/2 - 1; initial states are the two
    money states. The cross-fidelity bound for this relation is 2^{-n/2}."""

    def __init__(self, n: int):
        if n % 2:
            raise ValueError("ambient dimension must be even")
        self.n = n
        self.eps_bound = 2.0 ** (-n // 2)

    def sample(self, rng: np.random.Generator) -> PairSample:
        n = self.n
        a = random_subspace(n, n // 2, rng)
        b = self._neighbor(a, rng)
        # the money states, with the extra top qubit of the combined oracles in |0>
        ancilla = StateVector.basis(1, 0)
        return PairSample(
            oracle_u=oracle_for_dual_pair(a, "U_A*"),
            oracle_v=oracle_for_dual_pair(b, "U_B*"),
            init_u=subspace_state(a).tensor(ancilla),
            init_v=subspace_state(b).tensor(ancilla),
            meta={"subspace_u": a, "subspace_v": b},
        )

    def _neighbor(self, a: Subspace, rng: np.random.Generator) -> Subspace:
        # random hyperplane of A, then adjoin a vector from outside A
        members = a.member_array()
        while True:
            rows = [int(members[rng.integers(0, len(members))]) for _ in range(a.dim - 1)]
            core = Subspace.from_rows(rows, a.n)
            if core.dim == a.dim - 1:
                break
        while True:
            x = int(rng.integers(0, 1 << a.n))
            if not a.contains(x):
                return Subspace.from_rows(list(core.basis) + [x], a.n)


class HaarPairRelation:
    """Pairs of rank-1 reflection oracles about Haar states at fixed overlap c."""

    def __init__(self, n: int, c: float = 0.5):
        if not 0 < c < 1:
            raise ValueError("overlap must lie in (0, 1)")
        self.n = n
        self.c = c
        self.eps_bound = (1 - c ** 2) / ((1 << n) - 1)

    def sample(self, rng: np.random.Generator) -> PairSample:
        psi = haar_random_state(self.n, rng)
        chi = haar_random_state(self.n, rng)
        ortho = chi.amps - psi.inner(chi) * psi.amps
        ortho /= np.linalg.norm(ortho)
        phi = StateVector(self.n, self.c * psi.amps + math.sqrt(1 - self.c ** 2) * ortho)
        return PairSample(
            oracle_u=ReflectAboutState(psi, "U_psi"),
            oracle_v=ReflectAboutState(phi, "U_phi"),
            init_u=psi,
            init_v=phi,
            meta={"overlap": self.c},
        )


@dataclass
class ProgressTrace:
    """Per-query averages p_t = E |<Psi_t^U | Psi_t^V>|; p_values[0] is p_0."""

    p_values: List[float]
    eps_bound: float
    stderr: List[float] = field(default_factory=list)

    @property
    def drops(self) -> List[float]:
        return [
            self.p_values[t] - self.p_values[t + 1] for t in range(len(self.p_values) - 1)
        ]

    @property
    def max_drop(self) -> float:
        return max(self.drops, default=0.0)

    @property
    def drop_bound(self) -> float:
        return 4 * math.sqrt(self.eps_bound)


class Probe:
    """Oracle-parametric circuit: same gates, different oracle.

    run_pair returns |<Psi_t^U|Psi_t^V>| for t = 0..queries. Both runs start
    from `setup`'s two states and apply its unitary after each query; the
    unitary is shared by both runs, so snapshots taken right after each query
    capture the full inner-product evolution. Each overlap is scaled by
    `setup`'s constant factor, the overlap of registers the probe never
    touches.
    """

    name = "probe"

    def __init__(self, queries: int = 0):
        self.queries = queries

    def setup(
        self, sample: PairSample, rng: np.random.Generator
    ) -> Tuple[StateVector, StateVector, float, Callable[[StateVector], StateVector]]:
        """The two start states, the constant overlap factor and the unitary
        applied after each query: here the sample's states, 1 and the identity."""
        return sample.init_u, sample.init_v, 1.0, lambda s: s

    def run_pair(self, sample: PairSample, rng: np.random.Generator) -> List[float]:
        su, sv, held, after = self.setup(sample, rng)
        out = [held * su.overlap(sv)]
        for _ in range(self.queries):
            su = after(sample.oracle_u.apply(su))
            sv = after(sample.oracle_v.apply(sv))
            out.append(held * su.overlap(sv))
        return out


class IdleProbe(Probe):
    """The zero-query probe: the start states' overlap alone."""

    name = "idle"


class OracleEchoProbe(Probe):
    """Alternates the oracle with the full Hadamard transform."""

    name = "oracle-echo"

    def setup(self, sample, rng):
        return sample.init_u, sample.init_v, 1.0, hadamard_all


class ScrambleProbe(Probe):
    """Oracle followed by a fixed random phase-mix unitary (diagonal, Hadamard,
    diagonal); the unitary is drawn once per pair and shared by both runs."""

    name = "scramble"

    def setup(self, sample, rng):
        dim = len(sample.init_u.amps)
        d1 = np.exp(2j * np.pi * rng.random(dim))
        d2 = np.exp(2j * np.pi * rng.random(dim))
        return sample.init_u, sample.init_v, 1.0, lambda s: StateVector._wrap(
            s.n_qubits, d2 * walsh_hadamard_raw(d1 * s.amps))


class CloneSearchProbe(Probe):
    """Grover-style search for a fresh money state in a second register.

    The held note is untouched, so the joint inner product factorizes into
    the constant note overlap times the active-register overlap.
    """

    name = "clone-search"

    def setup(self, sample, rng):
        held = sample.init_u.overlap(sample.init_v)
        uniform = StateVector.uniform(sample.init_u.n_qubits)

        def diffuse(s: StateVector) -> StateVector:
            c = np.vdot(uniform.amps, s.amps)
            return StateVector._wrap(s.n_qubits, 2.0 * c * uniform.amps - s.amps)

        return uniform, uniform, held, diffuse


def default_probes() -> List[Probe]:
    return [IdleProbe(), OracleEchoProbe(6), ScrambleProbe(6), CloneSearchProbe(8)]


def track_progress(
    probe: Probe, relation, trials: int, rng: np.random.Generator
) -> ProgressTrace:
    """Average the cross-oracle inner product after every query over sampled
    oracle pairs; reports standard errors alongside."""
    rows = np.array([probe.run_pair(relation.sample(rng), rng) for _ in range(trials)])
    means = rows.mean(axis=0)
    sems = rows.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(means)
    return ProgressTrace(list(map(float, means)), relation.eps_bound, list(map(float, sems)))


# ---------------------------------------------------------------------------
# counterfeiter amplification


def _orthogonal_partner(target: StateVector) -> StateVector:
    """A unit vector orthogonal to the target (basis state when possible)."""
    amps = target.amps
    j = int(np.argmin(np.abs(amps)))
    if abs(amps[j]) < 1e-12:
        return StateVector.basis(target.n_qubits, j)
    e = np.zeros_like(amps)
    e[j] = 1.0
    w = e - np.conj(amps[j]) * amps
    return StateVector(target.n_qubits, w / math.sqrt(sqnorm(w)))


class Counterfeiter(CountedOracle):
    """Unitary on the doubled register sending |target>|0> exactly to `dst`.

    Acts as a 2x2 rotation on the span of u1 = |target>|0> and the part u2
    of `dst` orthogonal to u1, and as the identity on their orthogonal
    complement, so applications cost O(dim). `apply` takes an n-qubit note
    and charges one query. |note>|0> and u1 are zero above the note's 2^n
    amplitudes, so their inner products are sums over those 2^n entries and
    the output is the rotated u2 part plus the note's rotated remainder in
    the first 2^n entries.
    """

    def __init__(self, target: StateVector, dst: StateVector):
        super().__init__()
        self.n_qubits = target.n_qubits
        self._t = target.amps
        k = len(self._t)
        t = vdot(self._t, dst.amps[:k])
        w = dst.amps.copy()
        w[:k] -= t * self._t
        s = math.sqrt(sqnorm(w))
        if s < 1e-12:
            # destination is a phase multiple of the source
            self._u2 = None
            self._v = np.array([[t, 0.0], [0.0, np.conj(t)]], dtype=np.complex128)
        else:
            w /= s
            self._u2 = w
            self._v = np.array([[t, -s], [s, np.conj(t)]], dtype=np.complex128)

    def apply(self, note: StateVector) -> StateVector:
        self.charge()
        if note.n_qubits != self.n_qubits:
            raise ValueError("note and counterfeiter sizes differ")
        x = note.amps
        k = len(x)
        c1 = vdot(self._t, x)
        c2 = vdot(self._u2[:k], x) if self._u2 is not None else 0.0
        d1 = self._v[0, 0] * c1 + self._v[0, 1] * c2
        d2 = self._v[1, 0] * c1 + self._v[1, 1] * c2
        if self._u2 is None:
            out = np.zeros(k * k, dtype=np.complex128)
        else:
            out = (d2 - c2) * self._u2
        out[:k] += x + (d1 - c1) * self._t
        return StateVector._wrap(2 * self.n_qubits, out)


class PlantedCloner(Counterfeiter):
    """Test fixture built from the scheme's secret: maps |psi>|0> to
    |psi> (cos(gamma) |psi> + sin(gamma) |junk>)."""

    def __init__(self, target: StateVector, pass2: float):
        if not 0 <= pass2 <= 1:
            raise ValueError("double-verification pass rate must lie in [0, 1]")
        cos_g = math.sqrt(pass2)  # amplitude of the clean copy in the second register
        junk = _orthogonal_partner(target)
        second = cos_g * target.amps + math.sqrt(1 - cos_g ** 2) * junk.amps
        dst = target.tensor(StateVector(target.n_qubits, second / math.sqrt(sqnorm(second))))
        super().__init__(target, dst)


class JunkEmitter(Counterfeiter):
    """Outputs a fixed state orthogonal to the doubled target."""

    def __init__(self, target: StateVector):
        junk = _orthogonal_partner(target)
        super().__init__(target, junk.tensor(junk))


@dataclass
class AmplifyResult:
    state: StateVector
    queries: int
    rounds: int
    converged: bool


def amplify_backend(eps: float, delta: float) -> Tuple[bool, float]:
    """Whether `amplify_counterfeiter` runs the hybrid schedule, which it does
    where delta >= 2 sqrt(eps) makes it cheaper than the fixed-point search,
    and the longest loop of the backend it runs, before rounding up: the
    hybrid's draws L or clean-up rounds R, or the fixed-point rounds."""
    eps_fid = math.sqrt(eps)
    if delta >= 2 * eps_fid:
        return True, max(hybrid_draws(eps_fid), cleanup_rounds(delta))
    return False, fixed_point_rounds(eps_fid ** 2, delta)


def amplify_counterfeiter(
    c: Counterfeiter,
    scheme: MiniScheme,
    note: Banknote,
    eps: float,
    delta: float,
    rng: np.random.Generator,
) -> AmplifyResult:
    """Boost a counterfeiter with double-verification pass rate >= eps to one
    passing with probability >= 1 - delta.

    C(|note>|0>) is the start state and the doubled verification target the
    goal; `amplify_backend` picks the monotone fixed-point search or the
    randomized hybrid schedule. Each goal call is a double verification (two
    verifier queries); each init call, a reflection about or a restoration
    of the start state, costs one C, one C inverse, and one verifier query.
    """
    target = scheme.target_state(note.serial)
    if target is None:
        raise ValueError("amplification needs an issued serial")
    init = c.apply(note.state)
    goal_state = target.tensor(target)
    problem = SearchProblem(init, Projector.onto_state(goal_state, charge_to=CountedOracle("U_goal")))
    start_fidelity = goal_state.overlap(init)
    if start_fidelity ** 2 < eps * 0.5:
        warnings.warn(
            f"claimed pass rate {eps} looks violated (measured fidelity^2 "
            f"{start_fidelity ** 2:.4f})",
            RuntimeWarning,
        )
    hybrid, steps = amplify_backend(eps, delta)
    if hybrid:
        trace: dict = {}
        state, _ = hybrid_search(problem, SearchParams(eps=math.sqrt(eps), delta=delta), rng, trace=trace)
        rounds, converged = trace["rounds"], goal_state.overlap(state) >= 1 - delta
    else:
        state, rounds, converged = measure_restore(
            problem.goal_projector, init, max(1, math.ceil(steps)), rng, charge_to=problem.init_oracle)
    init_calls = problem.init_oracle.query_count
    c.charge(2 * init_calls)
    queries = 2 * problem.goal_projector.charge_to.query_count + init_calls + c.query_count
    return AmplifyResult(state=state, queries=queries, rounds=rounds, converged=converged)


def amplification_budget(eps: float, delta: float) -> float:
    """Reference query budget: K log(1/delta) / (sqrt(eps) (sqrt(eps) + delta^2))."""
    return config.AMPLIFY_QUERY_K * math.log(1 / delta) / (
        math.sqrt(eps) * (math.sqrt(eps) + delta ** 2)
    )


# ---------------------------------------------------------------------------
# cloning experiments


def clone_by_search(target: StateVector, rng: np.random.Generator, overlap_guess: float) -> Tuple[StateVector, int]:
    """Prepare `target` by amplitude amplification from the uniform
    superposition, with up to 64 fresh starts, and return the state and the
    queries made to a reflection oracle about the target. `overlap_guess`,
    the assumed |<uniform|target>|, sets the iteration count.

    The diffusion about the uniform state is query-free (the problem's init
    counter is never read); each iteration charges one target-oracle call,
    and each final check charges one more.
    """
    n = target.n_qubits
    oracle = CountedOracle("U_target")
    uniform = StateVector.uniform(n)
    theta = math.asin(min(1.0, overlap_guess))
    t_star = max(0, round(math.pi / (4 * theta) - 0.5))
    goal = Projector.onto_state(target, charge_to=oracle)
    problem = SearchProblem(uniform, goal)
    for _ in range(64):
        ok, s, _ = measure_projector(goal, amplitude_amplify(problem, t_star), rng)
        if ok:
            break
    return s, oracle.query_count


def kcopy_run(n: int, k: int, rng: np.random.Generator) -> int:
    """Query cost of producing copy k+1 from k held copies of a Haar state,
    over up to 256 fresh attempts.

    Symmetrizing the k copies with a fresh uniform register boosts the
    initial goal overlap by sqrt(k+1); the amplification then runs exactly
    in the two-dimensional span of the start and goal states, with one
    target-oracle query charged per iteration and per final check.
    The symmetrization itself is query-free.
    """
    queries = 0
    for _ in range(256):
        psi = haar_random_state(n, rng)
        alpha = abs(StateVector.uniform(n).inner(psi))
        beta = math.sqrt(max(0.0, 1 - alpha ** 2))
        boosted = alpha * math.sqrt(k + 1) / math.sqrt((k + 1) * alpha ** 2 + beta ** 2)
        theta = math.asin(min(1.0, boosted))
        guess = math.asin(min(1.0, 2.0 ** (-n / 2) * math.sqrt(k + 1)))
        t_star = max(0, round(math.pi / (4 * guess) - 0.5))
        queries += t_star + 1
        if rng.random() < math.sin((2 * t_star + 1) * theta) ** 2:
            return queries
    return queries

