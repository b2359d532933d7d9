"""Dense statevector simulation with query-counted oracles.

Index convention: bit i of a basis-state index is qubit i (little endian),
matching the F_2^n vector convention in `f2lin`, so a subspace element is
directly an amplitude index. All operations return new states; amplitudes
are frozen after construction.

The qubit cap (`config.qubit_cap()`) is checked where a qubit count enters:
the public constructor, `basis`, `uniform`, `tensor`, `subspace_state`,
`haar_random_state` and `load`, each before allocating. States derived from
an existing state (`_wrap`) keep its count and skip the check.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import config
from .f2lin import Subspace


def check_qubits(n: int) -> None:
    """Raise ValueError unless 0 < n <= the qubit cap; call before allocating."""
    cap = config.qubit_cap()
    if not 0 < n <= cap:
        raise ValueError(f"{n} qubits outside (0, {cap}]")


class StateVector:
    """Immutable n-qubit pure state; 2^n complex amplitudes."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray, _checked: bool = False):
        if not _checked:
            check_qubits(n_qubits)
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (1 << n_qubits,):
            raise ValueError(f"expected {1 << n_qubits} amplitudes, got {amps.shape}")
        if not _checked:
            amps = amps.copy()
            norm = math.sqrt(sqnorm(amps))
            if abs(norm - 1.0) > config.ATOL:
                raise ValueError(f"state norm {norm} deviates from 1 beyond {config.ATOL}")
        amps.setflags(write=False)
        self.n_qubits = n_qubits
        self.amps = amps

    @classmethod
    def _wrap(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """Internal: adopt an array that is already normalized and owned, for
        a qubit count already checked against the cap."""
        return cls(n_qubits, amps, _checked=True)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        check_qubits(n_qubits)
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls._wrap(n_qubits, amps)

    @classmethod
    def uniform(cls, n_qubits: int) -> "StateVector":
        check_qubits(n_qubits)
        dim = 1 << n_qubits
        return cls._wrap(n_qubits, np.full(dim, dim ** -0.5, dtype=np.complex128))

    def inner(self, other: "StateVector") -> complex:
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        return vdot(self.amps, other.amps)

    def overlap(self, other: "StateVector") -> float:
        return abs(self.inner(other))

    def tensor(self, other: "StateVector") -> "StateVector":
        # other's index bits go above self's: index = x_self + 2^n * y_other
        check_qubits(self.n_qubits + other.n_qubits)
        joint = np.kron(other.amps, self.amps)
        return StateVector._wrap(self.n_qubits + other.n_qubits, joint)

    def dump(self) -> str:
        """Header `n=<qubits>`, then `index real imag` per amplitude above 1e-12."""
        lines = [f"n={self.n_qubits}"]
        for idx in np.flatnonzero(np.abs(self.amps) > 1e-12):
            a = self.amps[idx]
            lines.append(f"{idx} {float(a.real)!r} {float(a.imag)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str) -> "StateVector":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n="):
            raise ValueError("bad state dump header")
        n = int(lines[0][2:])
        check_qubits(n)
        amps = np.zeros(1 << n, dtype=np.complex128)
        seen = set()
        for ln in lines[1:]:
            fields = ln.split()
            if len(fields) != 3:
                raise ValueError(f"state dump line {ln!r} needs index, real and imaginary part")
            idx, re, im = int(fields[0]), float(fields[1]), float(fields[2])
            if not 0 <= idx < len(amps) or idx in seen:
                raise ValueError(f"state dump index {idx} repeated or outside [0, {len(amps)})")
            # NaN fails every comparison, so it is rejected here too
            if not (abs(re) <= 1 + config.ATOL and abs(im) <= 1 + config.ATOL):
                raise ValueError(f"state dump amplitude {ln!r} is not a number in [-1, 1]")
            seen.add(idx)
            amps[idx] = re + 1j * im
        return cls(n, amps)


def subspace_mask(a: Subspace) -> np.ndarray:
    """Boolean membership table of the subspace over all 2^n basis states."""
    mask = np.zeros(1 << a.n, dtype=np.bool_)
    mask[a.member_array()] = True
    return mask


def subspace_state(a: Subspace) -> StateVector:
    """Uniform superposition over the 2^dim elements of the subspace."""
    check_qubits(a.n)
    return uniform_on(a.n, a.member_array())


def uniform_on(n_qubits: int, members: np.ndarray) -> StateVector:
    """Uniform superposition over the given distinct basis indices; the
    caller has checked n_qubits against the cap."""
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[members] = len(members) ** -0.5
    return StateVector._wrap(n_qubits, amps)


# Sylvester Hadamard matrix H_2^{(x)4}: entry (x, y) is (-1)^{popcount(x & y)}.
# Its leading 2^r x 2^r block is H_2^{(x)r}.
_SYLVESTER16 = np.array(
    [[(-1.0) ** bin(x & y).count("1") for y in range(16)] for x in range(16)]
)
_SYLVESTER16.setflags(write=False)


def walsh_hadamard_raw(amps: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform of a raw amplitude array; returns
    a new complex array and leaves `amps` untouched.

    Radix 16: each pass transforms four qubits at once as one real `matmul`
    with `_SYLVESTER16` on the float64 view, where qubit i has a float stride
    of 2^(i+1) and the real and imaginary parts ride along as the lowest
    axis. The last pass takes the remaining n mod 4 qubits with the leading
    block. Passes alternate between two buffers; the normalization is
    applied while copying the input into the first.
    """
    n = len(amps).bit_length() - 1
    src = np.empty(1 << n, dtype=np.complex128)
    np.multiply(amps, 2 ** (-n / 2), out=src)
    dst = np.empty_like(src)
    lo = 0
    while lo < n:
        r = min(4, n - lo)
        shape = (-1, 1 << r, 2 << lo)
        np.matmul(
            _SYLVESTER16[: 1 << r, : 1 << r],
            src.view(np.float64).reshape(shape),
            out=dst.view(np.float64).reshape(shape),
        )
        src, dst = dst, src
        lo += r
    return src


def hadamard_all(s: StateVector) -> StateVector:
    """Walsh-Hadamard transform on every qubit; exchanges |A> and |A_perp>."""
    return StateVector._wrap(s.n_qubits, walsh_hadamard_raw(s.amps))


# Reductions over amplitudes in numpy's own loops: BLAS's dot on a 2^16-long
# vector wakes a second OpenBLAS thread, which then busy-waits. The callers:
# here `StateVector`'s constructor check and `inner`,
# `Projector.project`, `ReflectAboutState.apply`, `measure_projector`,
# `measure_register` (whose register contraction is an einsum too),
# `postselect_projector`, `fidelity_to_goal` and `haar_random_state`;
# `search._Plane`; `hsmini.verify_circuit`'s frame; and advlab's `_orthogonal_partner`, `Counterfeiter` and
# `PlantedCloner`.


def sqnorm(amps: np.ndarray) -> float:
    """Squared 2-norm of a contiguous complex array."""
    v = amps.view(np.float64)
    return float(np.einsum("i,i->", v, v))


def vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, conjugating a, as `np.vdot` does."""
    return complex(np.einsum("i,i->", a.conj(), b))


def _scaled(amps: np.ndarray, factor: float) -> np.ndarray:
    """amps times a real factor, in place on an array the caller owns. With
    factor = 1 / c this is bit for bit the complex quotient amps / c, which
    numpy also takes as a product with the reciprocal, at a fraction of its
    cost."""
    v = amps.view(np.float64)
    np.multiply(v, factor, out=v)
    return amps


class CountedOracle:
    """Monotone query counter shared by every oracle."""

    def __init__(self, label: str = ""):
        self.label = label
        self.query_count = 0

    def charge(self, k: int = 1) -> None:
        self.query_count += k


class PhaseOracle(CountedOracle):
    """Classical oracle |x> -> (-1)^{f(x)} |x>, with a monotone query counter."""

    def __init__(self, n_qubits: int, mask: np.ndarray, label: str = ""):
        if mask.shape != (1 << n_qubits,) or mask.dtype != np.bool_:
            raise ValueError("mask must be a boolean array over all basis states")
        super().__init__(label)
        self.n_qubits = n_qubits
        self.mask = mask

    def apply(self, s: StateVector) -> StateVector:
        """Phase-flip accepted basis states; one query per call."""
        self.charge()
        if s.n_qubits != self.n_qubits:
            raise ValueError("state and oracle sizes differ")
        amps = s.amps.copy()
        amps[self.mask] = -amps[self.mask]
        return StateVector._wrap(s.n_qubits, amps)


def oracle_for_dual_pair(a: Subspace, label: str = "") -> PhaseOracle:
    """Oracle over n+1 bits flipping (0, A) union (1, A_perp)."""
    mask = np.concatenate([subspace_mask(a), subspace_mask(a.dual())])
    return PhaseOracle(a.n + 1, mask, label or "U_pair")


class ReflectAboutState(CountedOracle):
    """Query-counted reflection I - 2|psi><psi| about a fixed state."""

    def __init__(self, target: StateVector, label: str = ""):
        super().__init__(label)
        self.target = target
        self.n_qubits = target.n_qubits

    def apply(self, s: StateVector) -> StateVector:
        self.charge()
        c = vdot(self.target.amps, s.amps)
        return StateVector._wrap(s.n_qubits, s.amps - 2.0 * c * self.target.amps)


class Projector:
    """Diagonal (basis-subset) or rank-1 (target-state) projector.

    Measuring charges one query to `charge_to`, when given (the control-qubit
    implementation uses a single controlled call).
    """

    def __init__(
        self,
        n_qubits: int,
        mask: Optional[np.ndarray] = None,
        target: Optional[StateVector] = None,
        charge_to=None,
    ):
        if (mask is None) == (target is None):
            raise ValueError("exactly one of mask / target must be given")
        self.n_qubits = n_qubits
        self.mask = mask
        self.target = target
        self.charge_to = charge_to

    @classmethod
    def from_mask(cls, n_qubits: int, mask: np.ndarray, charge_to=None) -> "Projector":
        return cls(n_qubits, mask=mask.astype(np.bool_), charge_to=charge_to)

    @classmethod
    def onto_state(cls, target: StateVector, charge_to=None) -> "Projector":
        return cls(target.n_qubits, target=target, charge_to=charge_to)

    def project(self, amps: np.ndarray) -> np.ndarray:
        """P @ amps, unnormalized."""
        if self.mask is not None:
            return np.where(self.mask, amps, 0.0)
        t = self.target.amps
        return vdot(t, amps) * t


def measure_projector(
    p: Projector, s: StateVector, rng: np.random.Generator, keep_post: bool = True
) -> Tuple[bool, Optional[StateVector], float]:
    """Born-rule measurement of {P, I-P}; returns (outcome, post state, P-prob).
    With `keep_post=False` the post state is not built and None stands in for
    it, after the same charge and draw."""
    if p.charge_to is not None:
        p.charge_to.charge()
    kept = p.project(s.amps)
    prob = min(max(sqnorm(kept), 0.0), 1.0)
    accepted = rng.random() < prob
    if not keep_post:
        return accepted, None, prob
    if accepted:
        return True, StateVector._wrap(s.n_qubits, _scaled(kept, 1.0 / np.sqrt(prob))), prob
    rest = s.amps - kept
    rnorm = np.sqrt(sqnorm(rest))
    if rnorm < 1e-15:
        raise ValueError("zero-probability branch requested deterministically")
    return False, StateVector._wrap(s.n_qubits, _scaled(rest, 1.0 / rnorm)), prob


def verify_two_basis(primal: Projector, dual: Projector, state: StateVector, rng: np.random.Generator) -> bool:
    """Two-basis verifier: measure the primal projector, Hadamard every qubit,
    measure the dual projector. Accepts when both accept; the dual
    measurement builds no post state."""
    ok1, s, _ = measure_projector(primal, state, rng)
    ok2, _, _ = measure_projector(dual, hadamard_all(s), rng, keep_post=False)
    return ok1 and ok2


def measure_register(
    joint: np.ndarray,
    target: StateVector,
    rng: np.random.Generator,
    top: bool = False,
    keep_post: bool = True,
) -> Tuple[bool, Optional[np.ndarray]]:
    """Born-rule measurement of |t><t| on one n-qubit register of a larger
    pure state: the low n qubits, or with `top` the top n qubits. Returns the
    outcome and the normalized post-measurement amplitudes; with
    `keep_post=False` the post state is not built and None stands in for it,
    after the same draw."""
    t = target.amps
    if top:
        c = np.einsum("i,ij->j", t.conj(), joint.reshape(len(t), -1))
    else:
        c = np.einsum("ij,j->i", joint.reshape(-1, len(t)), t.conj())
    prob = min(max(sqnorm(c), 0.0), 1.0)
    accepted = rng.random() < prob
    if not keep_post:
        return accepted, None
    if accepted:
        cn = c / np.sqrt(prob)
        return True, (np.outer(t, cn) if top else np.outer(cn, t)).reshape(-1)
    rest = joint - (np.outer(t, c) if top else np.outer(c, t)).reshape(-1)
    rnorm = math.sqrt(sqnorm(rest))
    if rnorm < 1e-15:
        raise ValueError("zero-probability branch requested deterministically")
    return False, rest / rnorm


def postselect_projector(p: Projector, s: StateVector, outcome: bool) -> Tuple[StateVector, float]:
    """Deterministically take one branch; raises on a zero-probability branch."""
    if p.charge_to is not None:
        p.charge_to.charge()
    kept = p.project(s.amps)
    prob = sqnorm(kept)
    branch = kept if outcome else s.amps - kept
    bnorm = math.sqrt(sqnorm(branch))
    if bnorm < 1e-12:
        raise ValueError("zero-probability branch requested deterministically")
    return StateVector._wrap(s.n_qubits, branch / bnorm), prob if outcome else 1.0 - prob


def fidelity_to_goal(s: StateVector, goal: Projector) -> float:
    """F(|s>, G) = ||P_G s|| for a goal subspace given as a projector."""
    kept = goal.project(s.amps)
    return math.sqrt(sqnorm(kept))


def haar_random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Normalized complex-Gaussian vector (Haar-distributed direction)."""
    check_qubits(n)
    dim = 1 << n
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector._wrap(n, v / math.sqrt(sqnorm(v)))

