"""Reference implementations that the library replaced with faster ones,
kept only so that tests can run both from identical seeds and compare
results, counters and RNG streams.

The search loops here act on all 2^n amplitudes at every Grover step and
measurement; `hsmoney.search` runs them on two plane coefficients. The
subspace sampler and the basis completion here draw one scalar at a time and
the completion row-reduces every candidate from scratch;
`hsmoney.f2lin.random_subspace` and `complete_basis` draw in blocks and
`complete_basis` keeps an incremental reduced basis. The noisy-system sampler
here moves each row on its own by inverting its basis map by Gauss-Jordan and
gathering the truth table through the inverse's point table;
`hsmoney.polyhide` scatters the truth tables through the point tables of the
maps themselves, built for all decoys of a system in one pass.
The Walsh-Hadamard transform here is one radix-2 butterfly per qubit;
`hsmoney.qsim.walsh_hadamard_raw` takes four qubits per `matmul` pass.
Threshold repetition here measures each rank-1 sub-note on its own;
`hsmoney.money.ArtificiallyNoisyScheme.verify_all` takes every acceptance
probability of a composite note first, from each money-state target's
members, and draws its uniforms in blocks. The binomial tail here is a sum
of `Fraction` terms; `hsmoney.money.CompositeScheme.exact_completeness_error`
sums integers over one power-of-two denominator.
The two-basis verifier here is the full four-step circuit, project,
transform, project, transform, and returns its post state;
`hsmoney.qsim.verify_two_basis` and `hsmoney.polyhide.verify_explicit` skip
the last transform and the dual post state, and
`hsmoney.hsmini.verify_circuit` runs both tests in a frame of n/2 + 1
qubits, A's members plus one remainder amplitude, with its dual query on A's
span as a rank-1 measurement and no transform. All return only the verdict.
The counterfeiter here pads the note with a blank second register and
rotates all 2^(2n) amplitudes; `hsmoney.advlab.Counterfeiter` takes its
inner products over the note's 2^n amplitudes and adds the rotated note into
the first 2^n entries of its output.
The evaluators at the end work one point, one polynomial or one subspace
member at a time: a polynomial as a set of monomials, its value at a point,
the zero count of a system at a point and the Z-set rules on it, the F_2
inner product, subspace members in span order and intersection dimensions.
`hsmoney.polyhide` evaluates whole coefficient tables by Moebius
butterflies, and `hsmoney.f2lin` enumerates members as one sorted array.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from hsmoney.f2lin import LinMap, Subspace, rank, rref
from hsmoney.polyhide import PolySystem, _systems_well_formed, _vanishing_coeff_batch, xor_mobius_inplace, zset_mask
from hsmoney.qsim import CountedOracle, Projector, StateVector, hadamard_all, measure_projector, subspace_mask
from hsmoney.search import SearchProblem


def random_subspace(n: int, dim: int, rng: np.random.Generator) -> Subspace:
    """A uniform dim-dimensional subspace of F_2^n: dim scalar draws per try
    until the rows are independent."""
    if dim == 0:
        return Subspace.zero(n)
    while True:
        rows = [int(rng.integers(0, 1 << n)) for _ in range(dim)]
        reduced = rref(rows, n)
        if len(reduced) == dim:
            return Subspace(n, reduced)


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


def vanishing_coeff_rows(a: Subspace, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count ANF rows vanishing on A: each monomial of degree <= d that
    touches a coordinate from dim(A) up gets a coin, then, unless A is the
    coordinate frame, each truth table is gathered through the point table of
    the inverse of a completed basis map."""
    allowed = [m for m in range(1 << a.n) if bin(m).count("1") <= d and m >> a.dim]
    coeffs = np.zeros((count, 1 << a.n), dtype=np.uint8)
    if allowed:
        coeffs[:, allowed] = rng.integers(0, 2, size=(count, len(allowed)), dtype=np.uint8)
    if a.basis == tuple(1 << i for i in range(a.dim)):
        return coeffs
    to_frame = complete_to_invertible(a, rng).inverse()
    truth = xor_mobius_inplace(coeffs)
    return xor_mobius_inplace(np.take(truth, to_frame.permutation_table(), axis=1))


def decoy_coeff_rows(n: int, dim: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count rows, each vanishing on its own fresh subspace, drawn and moved
    one decoy after another."""
    coeffs = np.zeros((count, 1 << n), dtype=np.uint8)
    for i in range(count):
        coeffs[i] = vanishing_coeff_rows(random_subspace(n, dim, rng), d, 1, rng)[0]
    return coeffs


def sample_noisy_system(
    a: Subspace, d: int, m: int, eps: float, rng: np.random.Generator
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """The coefficient rows and noise positions of a noisy system: a shuffle,
    the honest rows in one batch, then the floor(eps m) decoys."""
    n_noisy = math.floor(eps * m + 1e-9)
    order = rng.permutation(m)
    coeffs = np.zeros((m, 1 << a.n), dtype=np.uint8)
    if m > n_noisy:
        coeffs[order[n_noisy:]] = vanishing_coeff_rows(a, d, m - n_noisy, rng)
    if n_noisy:
        coeffs[order[:n_noisy]] = decoy_coeff_rows(a.n, a.dim, d, n_noisy, rng)
    return coeffs, tuple(int(i) for i in order[:n_noisy])


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


def verify_two_basis(
    primal: Projector, dual: Projector, state: StateVector, rng: np.random.Generator
) -> Tuple[bool, StateVector]:
    """The four-step circuit: measure the primal projector, Hadamard every
    qubit, measure the dual projector, transform back. Returns the verdict,
    true when both accept, and the post state."""
    ok1, s, _ = measure_projector(primal, state, rng)
    ok2, s, _ = measure_projector(dual, hadamard_all(s), rng)
    return ok1 and ok2, hadamard_all(s)


def verify_circuit(bundle, serial: bytes, state: StateVector, rng: np.random.Generator) -> Tuple[bool, StateVector]:
    """The serial check of an oracle bundle, then the four-step circuit with
    projectors onto the serial's subspace and its dual, charged to the
    bundle's two tester counters; an invalid serial rejects the state
    unmeasured."""
    if not bundle.check_serial(serial):
        return False, state
    a = bundle.lookup(serial).subspace
    primal = Projector.from_mask(bundle.n, subspace_mask(a), charge_to=bundle.primal_tester)
    dual = Projector.from_mask(bundle.n, subspace_mask(a.dual()), charge_to=bundle.dual_tester)
    return verify_two_basis(primal, dual, state, rng)


def verify_explicit(note, rng: np.random.Generator) -> Tuple[bool, StateVector]:
    """The format check of an explicit note, then the four-step circuit with
    Z-set projectors; a malformed note rejects the state unmeasured."""
    primal, dual = note.primal_system, note.dual_system
    if not _systems_well_formed(primal, dual) or note.state.n_qubits != primal.n_vars:
        return False, note.state
    n = primal.n_vars
    p_z = Projector.from_mask(n, zset_mask(primal))
    return verify_two_basis(p_z, Projector.from_mask(n, zset_mask(dual)), note.state, rng)


class Counterfeiter(CountedOracle):
    """The two-point unitary sending |target>|0> to `dst`, on padded
    2^(2n)-amplitude vectors: a 2x2 rotation on the span of u1 = |target>|0>
    and the part of `dst` orthogonal to it, one query per `apply`."""

    def __init__(self, target: StateVector, dst: StateVector):
        super().__init__()
        self.n_qubits = target.n_qubits
        a = self._pad(target)
        t = complex(np.vdot(a, dst.amps))
        w = dst.amps - t * a
        s = float(np.linalg.norm(w))
        self._u1 = a
        if s < 1e-12:
            self._u2 = None
            self._v = np.array([[t, 0.0], [0.0, np.conj(t)]], dtype=np.complex128)
        else:
            self._u2 = w / s
            self._v = np.array([[t, -s], [s, np.conj(t)]], dtype=np.complex128)

    def _pad(self, note: StateVector) -> np.ndarray:
        if note.n_qubits != self.n_qubits:
            raise ValueError("note and counterfeiter sizes differ")
        amps = np.zeros(1 << (2 * self.n_qubits), dtype=np.complex128)
        amps[: len(note.amps)] = note.amps
        return amps

    def apply(self, note: StateVector) -> StateVector:
        self.charge()
        amps = self._pad(note)
        c1 = np.vdot(self._u1, amps)
        c2 = np.vdot(self._u2, amps) if self._u2 is not None else 0.0
        d1 = self._v[0, 0] * c1 + self._v[0, 1] * c2
        d2 = self._v[1, 0] * c1 + self._v[1, 1] * c2
        out = amps - c1 * self._u1 + d1 * self._u1
        if self._u2 is not None:
            out = out - c2 * self._u2 + d2 * self._u2
        return StateVector._wrap(2 * self.n_qubits, out)


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial over F_2: a set of monomial variable-masks."""

    n_vars: int
    degree_bound: int
    monomials: frozenset

    @classmethod
    def from_masks(cls, n_vars: int, d: int, masks) -> "MultilinearPoly":
        return cls(n_vars, d, frozenset(int(m) for m in masks))

    def eval(self, v: int) -> int:
        """The value at point v: the parity of the monomials whose variables v all sets."""
        acc = 0
        for m in self.monomials:
            acc ^= (v & m) == m
        return acc & 1

    def coeff_row(self) -> np.ndarray:
        row = np.zeros(1 << self.n_vars, dtype=np.uint8)
        for m in self.monomials:
            row[m] = 1
        return row

    def truth_table(self) -> np.ndarray:
        return xor_mobius_inplace(self.coeff_row())


def sample_vanishing(a: Subspace, d: int, rng: np.random.Generator) -> MultilinearPoly:
    """One uniform degree-<=d polynomial vanishing on A, drawn by the library's batch sampler."""
    return MultilinearPoly.from_masks(a.n, d, np.flatnonzero(_vanishing_coeff_batch(a, d, 1, rng)[0]))


def weight(system: PolySystem, v: int) -> int:
    """How many polynomials of the system are 1 at v: those with an odd
    number of monomials among the subsets of v."""
    idx = np.arange(1 << system.n_vars)
    return int((system.coeffs[:, (idx & v) == idx].sum(axis=1) & 1).sum())


def zset_membership(system: PolySystem, v: int) -> bool:
    """Standard rule: v is in Z when at most floor(eps m) polynomials hit it."""
    return weight(system, v) <= system.standard_threshold()


def zset_membership_variant(system: PolySystem, v: int) -> bool:
    """High-noise rule: v is in Z when at most (1 + eps) m / 4 polynomials hit it."""
    return weight(system, v) <= system.variant_threshold()


def dot(x: int, y: int) -> int:
    """F_2 dot product (parity of the AND)."""
    return bin(x & y).count("1") & 1


def identity(n: int) -> LinMap:
    return LinMap(n, tuple(1 << i for i in range(n)))


def members(a: Subspace) -> List[int]:
    """All 2^dim elements, in span order (not sorted)."""
    span = [0]
    for row in a.basis:
        span += [v ^ row for v in span]
    return span


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(A intersect B) via dim A + dim B - dim(A + B)."""
    if a.n != b.n:
        raise ValueError(f"ambient dims differ: {a.n} vs {b.n}")
    return a.dim + b.dim - rank(a.basis + b.basis, a.n)


def subspace_queries(bundle) -> int:
    """The T-query count in which the paper states the cost: both testers' queries."""
    return bundle.primal_tester.query_count + bundle.dual_tester.query_count
