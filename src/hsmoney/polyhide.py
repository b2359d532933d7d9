"""Subspace hiding with multilinear F_2 polynomials.

A polynomial is a set of multilinear monomials (variable bitmasks); systems
are stored as stacked algebraic-normal-form coefficient tables of shape
(m, 2^n) so that truth tables, zero-count tables, and basis changes run as
vectorized XOR butterflies over all 2^n points at once. The butterfly (the
binary Moebius transform) is an involution: it maps coefficient tables to
truth tables and back. It runs on bits: each row is packed 64 points to a
uint64 word for the transform, while the tables themselves stay one byte per
(row, monomial), the layout that note files, tests and the benchmark's
checks index by monomial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import config
from .f2lin import Subspace, complete_basis, point_tables, random_subspace, rref
from .qsim import (
    Projector,
    StateVector,
    measure_projector,
    subspace_mask,
    subspace_state,
    verify_two_basis,
)
from .search import fixed_point_rounds, measure_restore


class DegreeOneAttackError(RuntimeError):
    """The linear-system attack could not assemble a spanning set."""


# In-word butterflies on little-endian uint64 words: point j of a packed row
# is bit j % 64 of word j // 64. For shift s, the mask selects the points
# whose bit s is clear, and the shift XORs each into its partner with bit s set.
_WORD = np.dtype("<u8")
_WORD_BUTTERFLIES = tuple(
    (np.uint64(s), np.uint64(mask))
    for s, mask in (
        (1, 0x5555555555555555),
        (2, 0x3333333333333333),
        (4, 0x0F0F0F0F0F0F0F0F),
        (8, 0x00FF00FF00FF00FF),
        (16, 0x0000FFFF0000FFFF),
        (32, 0x00000000FFFFFFFF),
    )
)


def xor_mobius_inplace(mat: np.ndarray) -> np.ndarray:
    """Binary Moebius transform along the last axis (involution).

    Maps ANF coefficients to truth tables and back: out[v] = XOR of in[m]
    over all m that are subsets of v. `mat` is a C-contiguous uint8 array of
    0/1 entries. Each row is packed 64 points to a word, transformed by six
    in-word butterflies and then word-level passes, and unpacked into `mat`.
    A row of fewer than 64 points sits in the low bits of one zero-padded
    word; the butterflies only move bits upward, so the padding never reaches
    it.
    """
    size = mat.shape[-1]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("last axis must have power-of-two length")
    if mat.dtype != np.uint8 or not mat.flags.c_contiguous:
        raise ValueError("the table must be a C-contiguous uint8 array")
    rows = mat.reshape(-1, size)  # a view, as mat is C-contiguous
    words = np.zeros((len(rows), max(size >> 6, 1)), dtype=_WORD)
    words.view(np.uint8)[:, : (size + 7) >> 3] = np.packbits(rows, axis=1, bitorder="little")
    for s, mask in _WORD_BUTTERFLIES[:n]:
        words ^= (words & mask) << s
    flat = words.reshape(-1)
    for i in range(6, n):
        view = flat.reshape(-1, 2, 1 << (i - 6))
        view[:, 1, :] ^= view[:, 0, :]
    rows[...] = np.unpackbits(words.view(np.uint8), axis=1, count=size, bitorder="little")
    return mat


@lru_cache(maxsize=64)
def _popcounts(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        counts += ((idx >> i) & 1).astype(np.int8)
    return counts


@lru_cache(maxsize=256)
def _allowed_masks(n: int, frame_dim: int, d: int) -> np.ndarray:
    """Monomial masks of size <= d that touch coordinates frame_dim..n-1.

    These are exactly the monomials of polynomials vanishing on the
    coordinate subspace spanned by the first frame_dim coordinates.
    """
    pc = _popcounts(n)
    idx = np.arange(1 << n, dtype=np.int64)
    high = ~((1 << frame_dim) - 1)
    return idx[(pc <= d) & ((idx & high) != 0)]


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial over F_2: a set of monomial variable-masks."""

    n_vars: int
    degree_bound: int
    monomials: frozenset

    def __post_init__(self) -> None:
        for m in self.monomials:
            if m < 0 or m >> self.n_vars:
                raise ValueError("monomial uses variables outside the range")
            if bin(m).count("1") > self.degree_bound:
                raise ValueError("monomial exceeds the degree bound")

    @classmethod
    def from_masks(cls, n_vars: int, d: int, masks) -> "MultilinearPoly":
        return cls(n_vars, d, frozenset(int(m) for m in masks))

    @classmethod
    def zero(cls, n_vars: int, d: int) -> "MultilinearPoly":
        return cls(n_vars, d, frozenset())

    def eval(self, v: int) -> int:
        if v < 0 or v >> self.n_vars:
            raise ValueError("point does not fit the variable count")
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


def _frame_coeff_batch(
    a: Subspace, d: int, count: int, rng: np.random.Generator
) -> Tuple[np.ndarray, Optional[List[int]]]:
    """count uniform samples from the vanishing ideal of the coordinate frame
    of dimension dim(A), as ANF coefficient rows (each admissible monomial
    independently with probability 1/2), and a completed basis whose first
    dim(A) vectors span A, or None when A is that frame (as the zero and the
    full space are)."""
    if d < 1:
        raise ValueError("degree bound must be at least 1")
    allowed = _allowed_masks(a.n, a.dim, d)
    coeffs = np.zeros((count, 1 << a.n), dtype=np.uint8)
    if len(allowed):
        coeffs[:, allowed] = rng.integers(0, 2, size=(count, len(allowed)), dtype=np.uint8)
    if a.basis == tuple(1 << i for i in range(a.dim)):
        return coeffs, None
    return coeffs, complete_basis(a, rng)


def _move_points(coeffs: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Row i becomes q with q(M u) = p(u), where tables[i] (or the one table)
    is M's point table: truth tables are scattered through it, so M^-1 is
    never formed. One table is inverted by one index scatter and gathered,
    which beats a 2-D scatter; own tables are scattered row by row, which
    beats `np.put_along_axis`."""
    truth = xor_mobius_inplace(coeffs)
    if len(tables) == 1:
        source = np.empty_like(tables[0])
        source[tables[0]] = np.arange(len(source))
        return xor_mobius_inplace(np.take(truth, source, axis=1))
    moved = np.empty_like(truth)
    for out, table, row in zip(moved, tables, truth):
        out[table] = row
    return xor_mobius_inplace(moved)


def _vanishing_coeff_batch(
    a: Subspace, d: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count uniform samples from the vanishing ideal, as ANF coefficient rows.

    Samples in the coordinate frame, then moves truth tables through a basis
    map sending the coordinate frame onto the subspace.
    """
    coeffs, basis = _frame_coeff_batch(a, d, count, rng)
    return coeffs if basis is None else _move_points(coeffs, point_tables(np.array([basis])))


def _decoy_coeff_rows(
    n: int, dim: int, d: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count rows, each vanishing on its own fresh uniform dim-dimensional
    subspace. All draws come first, in the order of one subspace, its row
    and its completion after another; then the rows to move get their point
    tables in one pass and move together."""
    coeffs = np.zeros((count, 1 << n), dtype=np.uint8)
    moved: List[int] = []
    bases: List[List[int]] = []
    for i in range(count):
        decoy = random_subspace(n, dim, rng)
        # one coefficient draw per decoy: a uint8 block is another stream than per-row calls
        row, basis = _frame_coeff_batch(decoy, d, 1, rng)
        coeffs[i] = row[0]
        if basis is not None:
            moved.append(i)
            bases.append(basis)
    if moved:
        coeffs[moved] = _move_points(coeffs[moved], point_tables(np.array(bases)))
    return coeffs


def sample_vanishing(a: Subspace, d: int, rng: np.random.Generator) -> MultilinearPoly:
    """One uniform degree-<=d polynomial vanishing on the subspace."""
    row = _vanishing_coeff_batch(a, d, 1, rng)[0]
    return MultilinearPoly.from_masks(a.n, d, np.flatnonzero(row))


@dataclass
class PolySystem:
    """m multilinear polynomials, (1-eps)m of which vanish on a hidden subspace."""

    n_vars: int
    degree_bound: int
    eps: float
    coeffs: np.ndarray  # (m, 2^n) uint8 ANF rows
    noise_positions: Optional[Tuple[int, ...]] = None  # sampler diagnostic

    def __post_init__(self) -> None:
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != 1 << self.n_vars:
            raise ValueError("coefficient table shape mismatch")

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    def standard_threshold(self) -> int:
        return math.floor(self.eps * self.m + 1e-9)

    def variant_threshold(self) -> int:
        return math.floor((1 + self.eps) * self.m / 4 + 1e-9)

    def zero_count_table(self) -> np.ndarray:
        """w(v) for every point v, as an int array of length 2^n."""
        truth = self.coeffs.copy()
        xor_mobius_inplace(truth)
        return truth.sum(axis=0, dtype=np.int32)

    def weight(self, v: int) -> int:
        if v < 0 or v >> self.n_vars:
            raise ValueError("point does not fit the variable count")
        # the monomials that evaluate to 1 at v are the subsets of v
        idx = np.arange(1 << self.n_vars)
        return int((self.coeffs[:, (idx & v) == idx].sum(axis=1) & 1).sum())

    def is_degenerate(self) -> bool:
        return not self.coeffs.any()

    def serialize(self) -> str:
        lines = [f"n={self.n_vars} d={self.degree_bound} m={self.m} eps={self.eps!r}"]
        for row in self.coeffs:
            masks = np.flatnonzero(row)
            if len(masks) == 0:
                lines.append("-")
                continue
            terms = []
            for mask in masks:
                if mask == 0:
                    terms.append("1")
                else:
                    terms.append(".".join(f"x{i}" for i in range(self.n_vars) if (mask >> i) & 1))
            lines.append(",".join(terms))
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "PolySystem":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = dict(part.split("=", 1) for part in lines[0].split()) if lines else {}
        if not {"n", "d", "m", "eps"} <= head.keys():
            raise ValueError("polynomial system header needs n, d, m and eps")
        n = int(head["n"])
        d = int(head["d"])
        m = int(head["m"])
        eps = float(head["eps"])
        if not 0 < n <= config.qubit_cap():
            raise ValueError(f"{n} variables outside (0, {config.qubit_cap()}]")
        # the ranges a minted system has; NaN fails the comparison too
        if not 0 <= eps < 1:
            raise ValueError(f"noise rate eps={eps} outside [0, 1)")
        if not 1 <= d <= config.F2_DIM_CAP:
            raise ValueError(f"degree bound d={d} outside [1, {config.F2_DIM_CAP}]")
        if m < 1:  # a minted system has m = ceil(beta n) >= 1 rows
            raise ValueError(f"row count m={m} below 1")
        check_table(m, n)
        if len(lines) - 1 != m:
            raise ValueError(f"header claims {m} polynomials, found {len(lines) - 1}")
        coeffs = np.zeros((m, 1 << n), dtype=np.uint8)
        for i, ln in enumerate(lines[1:]):
            if ln.strip() == "-":
                continue
            for term in ln.strip().split(","):
                if term == "1":
                    coeffs[i, 0] ^= 1
                else:
                    mask = 0
                    for tok in term.split("."):
                        if not tok.startswith("x") or not 0 <= int(tok[1:]) < n:
                            raise ValueError(f"bad monomial token {tok!r}")
                        mask |= 1 << int(tok[1:])
                    coeffs[i, mask] ^= 1
        system = cls(n, d, eps, coeffs)
        if system.is_degenerate():  # its zero set is all of F_2^n, so every state would verify
            raise ValueError(f"all m={m} polynomials are zero")
        return system


def table_fits(m: int, n: int) -> bool:
    """Whether m coefficient rows over the 2^n points of F_2^n, one byte per
    (row, point), fit the table cap of 2^F2_DIM_CAP bytes."""
    return m << n <= 1 << config.F2_DIM_CAP


def check_table(m: int, n: int) -> None:
    if not table_fits(m, n):
        raise ValueError(f"{m} rows over 2^{n} points exceed the table cap 2^{config.F2_DIM_CAP}")


def sample_noisy_system(
    a: Subspace, d: int, m: int, eps: float, rng: np.random.Generator
) -> PolySystem:
    """floor(eps m) noisy rows (each from a fresh uniform subspace of the same
    dimension) at uniformly shuffled positions; the rest vanish on the input."""
    if not 0 <= eps < 1:
        raise ValueError("noise rate must lie in [0, 1)")
    if a.n > config.qubit_cap():
        raise ValueError(f"{a.n} variables exceed the cap {config.qubit_cap()}")
    check_table(m, a.n)
    n_noisy = math.floor(eps * m + 1e-9)
    order = rng.permutation(m)
    noisy_positions = tuple(int(i) for i in order[:n_noisy])
    coeffs = np.zeros((m, 1 << a.n), dtype=np.uint8)
    honest_positions = order[n_noisy:]
    if len(honest_positions):
        coeffs[honest_positions] = _vanishing_coeff_batch(a, d, len(honest_positions), rng)
    if n_noisy:
        coeffs[order[:n_noisy]] = _decoy_coeff_rows(a.n, a.dim, d, n_noisy, rng)
    return PolySystem(a.n, d, eps, coeffs, noise_positions=noisy_positions)


def _warn_if_degenerate(sys: PolySystem) -> None:
    if sys.is_degenerate():
        warnings.warn("all-zero polynomial system accepts every point", RuntimeWarning)


def zset_membership(sys: PolySystem, v: int) -> bool:
    """Standard rule: v is in Z when at most floor(eps m) polynomials hit it."""
    _warn_if_degenerate(sys)
    return sys.weight(v) <= sys.standard_threshold()


def zset_membership_variant(sys: PolySystem, v: int) -> bool:
    """High-noise rule: threshold (1 + eps) m / 4; works for any eps < 1 at the
    cost of an exponentially small completeness error."""
    _warn_if_degenerate(sys)
    return sys.weight(v) <= sys.variant_threshold()


def zset_mask(sys: PolySystem) -> np.ndarray:
    """Boolean Z-set membership over all 2^n points.

    The standard rule keeps the hidden subspace in Z with certainty while
    eps < 1/3; beyond that the variant threshold is used.
    """
    _warn_if_degenerate(sys)
    thr = sys.variant_threshold() if sys.eps >= 1 / 3 else sys.standard_threshold()
    return sys.zero_count_table() <= thr


def zset_subspace(sys: PolySystem) -> Optional[Subspace]:
    """The Z-set as a subspace, or None when it is not one."""
    mask = zset_mask(sys)
    members = np.flatnonzero(mask)
    size = len(members)
    if size == 0 or size & (size - 1):
        return None
    dim = size.bit_length() - 1
    sub = Subspace.from_rows([int(x) for x in members], sys.n_vars)
    if sub.dim != dim:
        return None
    if not np.array_equal(subspace_mask(sub), mask):
        return None
    return sub


@dataclass
class ExplicitNote:
    primal_system: PolySystem
    dual_system: PolySystem
    state: StateVector


def system_rows(beta: float, n: int) -> int:
    """m = ceil(beta n) polynomials per system; beta must be finite and > 0."""
    if not (0 < beta < math.inf):  # NaN fails this comparison too
        raise ValueError(f"beta must be a finite number above 0, got {beta}")
    return math.ceil(beta * n)


def bank_explicit_with_secret(
    n: int, d: int, eps: float, beta: float, rng: np.random.Generator
) -> Tuple[ExplicitNote, Subspace]:
    if n % 2:
        raise ValueError("ambient dimension must be even")
    m = system_rows(beta, n)
    a = random_subspace(n, n // 2, rng)
    primal = sample_noisy_system(a, d, m, eps, rng)
    dual = sample_noisy_system(a.dual(), d, m, eps, rng)
    return ExplicitNote(primal, dual, subspace_state(a)), a


def _systems_well_formed(primal: PolySystem, dual: PolySystem) -> bool:
    return (
        primal.n_vars == dual.n_vars
        and primal.degree_bound == dual.degree_bound
        and primal.m == dual.m
        and primal.eps == dual.eps
    )


def verify_explicit(note: ExplicitNote, rng: np.random.Generator) -> bool:
    """Format check, then the two-basis test with Z-set projectors."""
    primal, dual = note.primal_system, note.dual_system
    if not _systems_well_formed(primal, dual) or note.state.n_qubits != primal.n_vars:
        return False
    n = primal.n_vars
    p_z = Projector.from_mask(n, zset_mask(primal))
    p_zperp = Projector.from_mask(n, zset_mask(dual))
    return verify_two_basis(p_z, p_zperp, note.state, rng)


def degree1_attack(primal: PolySystem, dual: PolySystem) -> Subspace:
    """Recover the hidden subspace from homogeneous linear systems.

    A linear form vanishing on A is a dot product against a dual vector, so
    each dual-system row proposes a candidate member of A, screened through
    the primal system's zero-count rule. Raises when the accepted candidates
    do not span a dim-n/2 subspace.
    """
    n = primal.n_vars
    for sys in (primal, dual):
        if sys.degree_bound != 1:
            raise ValueError("attack applies to degree-1 systems only")
        pc = _popcounts(n)
        masks = np.flatnonzero(sys.coeffs.any(axis=0))
        if len(masks) and pc[masks].max() > 1:
            raise ValueError("attack applies to degree-1 systems only")
        if sys.coeffs[:, 0].any():
            raise ValueError("attack expects homogeneous systems")

    primal_weights = primal.zero_count_table()
    thr = primal.standard_threshold()
    accepted = []
    for row in dual.coeffs:
        w_vec = 0
        for mask in np.flatnonzero(row):
            w_vec |= int(mask)  # each mask is a single variable bit
        if w_vec and primal_weights[w_vec] <= thr:
            accepted.append(w_vec)
    span = rref(accepted, n)
    if len(span) < n // 2:
        raise DegreeOneAttackError(
            f"accepted vectors span only dimension {len(span)} of {n // 2}"
        )
    return Subspace(n, span)


@dataclass
class SoundnessReport:
    recovered: bool
    projection_attempts: int
    pipeline_runs: int
    collected: int


def harvest_subspace_elements(
    note: ExplicitNote,
    counterfeiter: Callable[[ExplicitNote, np.random.Generator], StateVector],
    rng: np.random.Generator,
) -> Tuple[List[int], int]:
    """One reduction pass: counterfeit, amplify toward the doubled note by
    measure/restore rounds (the fixed-point budget for claimed pass rate 1/2
    and delta 0.05), verify twice, measure both registers in the standard basis.
    Returns measured vectors (empty when verification failed) and the number
    of amplification rounds used."""
    n = note.primal_system.n_vars
    z_sub = zset_subspace(note.primal_system)
    if z_sub is None:
        return [], 0
    target = subspace_state(z_sub)
    goal = Projector.onto_state(target.tensor(target))
    doubled = counterfeiter(note, rng)
    amped, rounds, _ = measure_restore(goal, doubled, math.ceil(fixed_point_rounds(0.5, 0.05)), rng)
    ok, post, _ = measure_projector(goal, amped, rng)
    if not ok:
        return [], rounds
    probs = np.abs(post.amps) ** 2
    idx = int(rng.choice(len(probs), p=probs / probs.sum()))
    return [idx & ((1 << n) - 1), idx >> n], rounds


def soundness_experiment(
    counterfeiter: Callable[[ExplicitNote, np.random.Generator], StateVector],
    n: int,
    rng: np.random.Generator,
    d: int = 4,
    eps: float = 0.25,
    beta: float = 12.0,
    max_pipeline_runs: int = 24,
) -> SoundnessReport:
    """Drive the recovery pipeline against a pluggable counterfeiter.

    Repeatedly: mint an instance, prepare the money state by projecting the
    uniform superposition onto the Z-set (success probability 2^{-n/2},
    retried), counterfeit, amplify, verify, and measure. Succeeds when the
    measured vectors span the hidden subspace.
    """
    note, secret = bank_explicit_with_secret(n, d, eps, beta, rng)
    mask = zset_mask(note.primal_system)
    p_z = Projector.from_mask(n, mask)
    uniform = StateVector.uniform(n)
    collected: List[int] = []
    attempts = 0
    runs = 0
    recovered = False
    for _ in range(max_pipeline_runs):
        runs += 1
        while True:
            attempts += 1
            ok, prepared, _ = measure_projector(p_z, uniform, rng)
            if ok:
                break
        run_note = ExplicitNote(note.primal_system, note.dual_system, prepared)
        vectors, _ = harvest_subspace_elements(run_note, counterfeiter, rng)
        collected.extend(vectors)
        span = rref(collected, n)
        if len(span) == secret.dim and all(secret.contains(v) for v in span):
            recovered = True
            break
    return SoundnessReport(
        recovered=recovered,
        projection_attempts=attempts,
        pipeline_runs=runs,
        collected=len(collected),
    )
