"""Private-key money: Wiesner notes and the naive-and-trusting bank, the
adaptive swap-out attack, measure-and-resend / optimized cloning baselines,
and the keyed hidden-subspace variant that resists the adaptive attack.

Wiesner qubits stay inside the four-state family {|0>, |1>, |+>, |->} under
every operation used here (bank measurements collapse onto recorded bases,
attackers insert fresh family states), so notes are held as int codes with
exact transition probabilities.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config
from .f2lin import Subspace, random_subspace
from .qsim import StateVector, measure_register, subspace_state

# BB84 codes: 0 -> |0>, 1 -> |1>, 2 -> |+>, 3 -> |->
BB84_VECTORS = (
    np.array([1.0, 0.0], dtype=np.complex128),
    np.array([0.0, 1.0], dtype=np.complex128),
    np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2),
    np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2),
)

_ORTH = {0: 1, 1: 0, 2: 3, 3: 2}


def overlap2(a: int, b: int) -> Fraction:
    """|<a|b>|^2 on the four-state family, exactly."""
    if a == b:
        return Fraction(1)
    if _ORTH[a] == b:
        return Fraction(0)
    return Fraction(1, 2)


@dataclass
class WiesnerNote:
    serial: bytes
    qubits: List[int]


class NaiveBank:
    """Wiesner bank that verifies in the recorded bases and hands the
    post-measurement qubits back, accepted or not."""

    def __init__(self, n: int):
        if not 1 <= n <= config.WIESNER_QUBIT_CAP:
            raise ValueError(f"a Wiesner note needs 1 to {config.WIESNER_QUBIT_CAP} qubits, got {n}")
        self.n = n
        self._records: Dict[bytes, Tuple[int, ...]] = {}
        self.verify_queries = 0

    def mint(self, rng: np.random.Generator) -> WiesnerNote:
        serial = rng.bytes(8)
        while serial in self._records:
            serial = rng.bytes(8)
        record = tuple(int(q) for q in rng.integers(0, 4, size=self.n))
        self._records[serial] = record
        return WiesnerNote(serial, list(record))

    def record_for(self, serial: bytes) -> Tuple[int, ...]:
        return self._records[serial]

    def verify(
        self, serial: bytes, qubits: Sequence[int], rng: np.random.Generator
    ) -> Tuple[bool, List[int]]:
        """Measure every qubit in its recorded basis; accept iff all outcomes
        match; always return the post-measurement qubits. A submission with
        another qubit count than the record, or a code outside 0-3, counts as
        a query and is rejected unmeasured, its qubits returned as given."""
        if serial not in self._records:
            raise KeyError("unknown serial")
        self.verify_queries += 1
        record = self._records[serial]
        if len(qubits) != len(record) or not all(c in range(4) for c in qubits):
            return False, list(qubits)
        ok = True
        post: List[int] = []
        for r, c in zip(record, qubits):
            if rng.random() < float(overlap2(r, c)):
                post.append(r)
            else:
                post.append(_ORTH[r])
                ok = False
        return ok, post


def wiesner_bank(n: int, rng: np.random.Generator) -> Tuple[NaiveBank, WiesnerNote]:
    bank = NaiveBank(n)
    return bank, bank.mint(rng)


# ---------------------------------------------------------------------------
# cloning baselines


def measure_resend_clone(
    note: WiesnerNote, rng: np.random.Generator
) -> Tuple[WiesnerNote, WiesnerNote]:
    """Measure every qubit in the computational basis and resend two copies."""
    copies: List[int] = []
    for c in note.qubits:
        if c in (0, 1):
            copies.append(c)
        else:
            copies.append(int(rng.integers(0, 2)))
    return WiesnerNote(note.serial, list(copies)), WiesnerNote(note.serial, list(copies))


def measure_resend_per_qubit_exact() -> Fraction:
    """Both-copies-pass probability per qubit, enumerated over the 4 states."""
    total = Fraction(0)
    for r in range(4):
        for outcome in (0, 1):
            p_outcome = overlap2(r, outcome)
            total += p_outcome * overlap2(r, outcome) * overlap2(r, outcome)
    return total / 4


def random_guess_per_qubit_exact() -> Fraction:
    """Accept probability per qubit for a uniformly random four-state guess."""
    total = Fraction(0)
    for r in range(4):
        for g in range(4):
            total += overlap2(r, g)
    return total / 16


def _isometry_from_params(x: np.ndarray, out_dim: int) -> np.ndarray:
    m = (x[: out_dim * 2] + 1j * x[out_dim * 2 :]).reshape(out_dim, 2)
    q, _ = np.linalg.qr(m)
    return q[:, :2]


def _cloner_score(v: np.ndarray, ancilla: int) -> float:
    total = 0.0
    for theta in BB84_VECTORS:
        out = (v @ theta).reshape(2, 2, ancilla)
        kept = np.einsum("i,j,ija->a", theta.conj(), theta.conj(), out)
        total += float(np.vdot(kept, kept).real)
    return total / 4


@dataclass
class ClonerSearchResult:
    value: float
    isometry: np.ndarray


def optimize_cloning_channel(rng: np.random.Generator) -> ClonerSearchResult:
    """Search over isometries V: C^2 -> C^2 x C^2 x C^2 (two copies and a
    qubit ancilla) maximizing the average both-copies-pass probability
    f(V) = 1/4 sum_theta <theta|V^dag A_theta V|theta> on the four states,
    with A_theta = |theta theta><theta theta| x I_anc.

    f is a convex quadratic, so polar ascent V <- U W^dag, where
    U S W^dag = svd(sum_theta A_theta V |theta><theta|), never lowers it.
    One random start (32 normals) and a fixed 400 steps; from 2,000 seeded
    starts the slowest came within 1e-12 of 3/4 in 127 steps.
    """
    ancilla_dim = 2
    v = _isometry_from_params(rng.normal(size=4 * 4 * ancilla_dim), 4 * ancilla_dim)
    thetas = np.array(BB84_VECTORS)
    projectors = np.einsum("ti,tj->tij", thetas, thetas.conj())
    a = np.stack([np.kron(np.kron(p, p), np.eye(ancilla_dim)) for p in projectors])
    for _ in range(400):
        u, _, wh = np.linalg.svd(np.einsum("tik,tkl->il", a @ v, projectors), full_matrices=False)
        v = u @ wh
    return ClonerSearchResult(_cloner_score(v, ancilla_dim), v)


def cloning_objective_choi() -> List[List[Fraction]]:
    """Q = 1/4 sum_theta |theta-bar><theta-bar| x |theta theta><theta theta|,
    exactly: the both-copies-pass probability of a channel with Choi matrix
    J (input factor first) is Tr(Q J). The four projectors are rational."""
    h = Fraction(1, 2)
    projectors = ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[h, h], [h, h]], [[h, -h], [-h, h]])
    idx = list(itertools.product(range(2), repeat=3))
    return [
        [sum((p[r[0]][c[0]] * p[r[1]][c[1]] * p[r[2]][c[2]] for p in projectors), Fraction(0)) / 4
         for c in idx]
        for r in idx
    ]


def _is_psd_exact(m: Sequence[Sequence[Fraction]]) -> bool:
    """Positive semidefiniteness of a symmetric rational matrix by symmetric
    elimination: every pivot must be >= 0, and a zero pivot's row zero."""
    m = [list(row) for row in m]
    size = len(m)
    for k in range(size):
        pivot = m[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(m[k][j] for j in range(k + 1, size)):
                return False
            continue
        for i in range(k + 1, size):
            f = m[i][k] / pivot
            if f:
                for j in range(k + 1, size):
                    m[i][j] -= f * m[k][j]
    return True


def certify_cloning_ceiling(y: Fraction = Fraction(3, 8)) -> Fraction:
    """Prove that no channel clones a BB84 qubit with both-copies-pass
    probability above Tr(y I_2) = 2y, and return 2y.

    This is the dual of the semidefinite programme of Molina, Vidick and
    Watrous (2012): if y I_8 - Q is PSD then Tr(Q J) <= y Tr(J) = 2y for every
    Choi matrix J, since J is PSD with Tr_out J = I_2. The check is exact;
    the default y = 3/8 is the largest eigenvalue of Q, so it proves 3/4.
    Raises ValueError when y I - Q is not PSD.
    """
    q = cloning_objective_choi()
    gap = [[(y if r == c else 0) - q[r][c] for c in range(len(q))] for r in range(len(q))]
    if not _is_psd_exact(gap):
        raise ValueError(f"{y} I - Q is not PSD: y = {y} certifies no ceiling")
    return 2 * y


# ---------------------------------------------------------------------------
# adaptive swap-out attack


def default_samples_per_candidate(n: int) -> int:
    return math.ceil(8 * math.log2(4 * n))


@dataclass
class AdaptiveAttackResult:
    recovered: List[int]
    rates: np.ndarray  # (n, 4) estimated pass rates
    queries: int


def _swap_out(bank, samples_per_candidate: int, submit) -> AdaptiveAttackResult:
    """The swap-out attack: for qubit i and candidate b, estimate the pass
    rate of `submit(i, b) -> bool` from samples_per_candidate submissions,
    and recover each qubit as its best-passing candidate. The queries are
    those the bank counted."""
    n, samples = bank.n, samples_per_candidate
    before = bank.verify_queries
    rates = np.zeros((n, 4))
    for i in range(n):
        for b in range(4):
            rates[i, b] = sum(submit(i, b) for _ in range(samples)) / samples
    recovered = [int(np.argmax(rates[i])) for i in range(n)]
    return AdaptiveAttackResult(recovered, rates, bank.verify_queries - before)


def adaptive_attack(
    bank: NaiveBank,
    note: WiesnerNote,
    samples_per_candidate: int,
    rng: np.random.Generator,
) -> AdaptiveAttackResult:
    """Recover the note qubit by qubit by swapping in candidate states.

    For qubit i and candidate b, the attacker submits the note with its own
    fresh |b> in slot i (keeping the original qubit aside) and estimates the
    acceptance rate; the bank measures the other qubits in their correct
    bases, so they come back undamaged and the same note serves every query.
    """

    def submit(i: int, b: int) -> bool:
        ok, post = bank.verify(note.serial, note.qubits[:i] + [b] + note.qubits[i + 1 :], rng)
        # reclaim everything except the sacrificed candidate slot
        note.qubits = post[:i] + [note.qubits[i]] + post[i + 1 :]
        return ok

    return _swap_out(bank, samples_per_candidate, submit)


# ---------------------------------------------------------------------------
# keyed-subspace variant


class KeyedSubspaceBank:
    """Private-key scheme whose notes are hidden-subspace states derived from
    a keyed function of the serial; verification is the rank-1 projector and
    returns the post-measurement state.

    Backends: "prf" expands a keyed hash into basis rows (rejection-resampled
    to full rank); "random" lazily samples and memoizes a true random
    function. Swapping backends changes no observable statistics at test
    sample sizes.
    """

    def __init__(self, n: int, key: bytes, backend: str = "prf",
                 rng: Optional[np.random.Generator] = None):
        if n % 2:
            raise ValueError("ambient dimension must be even")
        if backend not in ("prf", "random"):
            raise ValueError("backend must be 'prf' or 'random'")
        self.n = n
        self.key = key
        self.backend = backend
        self._memo: Dict[bytes, Subspace] = {}
        self._lazy_rng = rng
        self.verify_queries = 0

    def subspace_for(self, serial: bytes) -> Subspace:
        sub = self._memo.get(serial)
        if sub is None:
            if self.backend == "prf":
                digest = hashlib.sha256(self.key + b"|" + serial).digest()
                local = np.random.default_rng(int.from_bytes(digest, "big"))
                sub = random_subspace(self.n, self.n // 2, local)
            else:
                if self._lazy_rng is None:
                    raise ValueError("random backend needs a generator")
                sub = random_subspace(self.n, self.n // 2, self._lazy_rng)
            self._memo[serial] = sub
        return sub

    def mint(self, rng: np.random.Generator) -> Tuple[bytes, StateVector]:
        serial = rng.bytes((self.n + 7) // 8)
        return serial, subspace_state(self.subspace_for(serial))

    def verify(
        self, serial: bytes, state: StateVector, rng: np.random.Generator
    ) -> Tuple[bool, StateVector]:
        """Measure the rank-1 projector on qubits 0..n-1 of a state of at
        least n qubits, leaving the rest alone."""
        self.verify_queries += 1
        target = subspace_state(self.subspace_for(serial))
        ok, post = measure_register(state.amps, target, rng)
        return ok, StateVector._wrap(state.n_qubits, post)


def _swap_qubits(amps: np.ndarray, n_qubits: int, q1: int, q2: int) -> np.ndarray:
    if q1 == q2:
        return amps
    idx = np.arange(len(amps))
    b1 = (idx >> q1) & 1
    b2 = (idx >> q2) & 1
    swapped = idx ^ ((b1 ^ b2) << q1) ^ ((b1 ^ b2) << q2)
    return amps[swapped]


def _insert_candidate(state: StateVector, i: int, code: int) -> StateVector:
    """Move qubit i to a fresh top ancilla and put the candidate state at i."""
    n = state.n_qubits
    anc = StateVector(1, BB84_VECTORS[code].copy())
    joint = state.tensor(anc)  # ancilla is qubit n
    return StateVector._wrap(joint.n_qubits, _swap_qubits(joint.amps, n + 1, i, n))


def _discard_top_qubit(state: StateVector, rng: np.random.Generator) -> StateVector:
    """Trace out the top qubit by measuring it in the computational basis."""
    zero, post = measure_register(state.amps, StateVector.basis(1, 0), rng, top=True)
    half = len(post) // 2
    return StateVector._wrap(state.n_qubits - 1, post[:half] if zero else post[half:])


def transplanted_adaptive_attack(
    bank: KeyedSubspaceBank,
    serial: bytes,
    state: StateVector,
    samples_per_candidate: int,
    rng: np.random.Generator,
) -> AdaptiveAttackResult:
    """The swap-out attack run verbatim against the keyed-subspace scheme.

    The attacker pockets qubit i, inserts a fresh candidate, submits, and
    puts the pocketed qubit back (discarding the returned candidate slot).
    Projective verification collapses the whole register on every rejection,
    so candidate pass rates carry no per-qubit signal.
    """
    n = bank.n
    current = state

    def submit(i: int, b: int) -> bool:
        nonlocal current
        ok, post = bank.verify(serial, _insert_candidate(current, i, b), rng)
        restored = _swap_qubits(post.amps, n + 1, i, n)
        current = _discard_top_qubit(StateVector._wrap(n + 1, restored), rng)
        return ok

    return _swap_out(bank, samples_per_candidate, submit)
