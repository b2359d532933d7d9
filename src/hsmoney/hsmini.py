"""Hidden-subspace mini-scheme backed by a four-part classical oracle.

The oracle bundle holds a banknote generator G (r -> serial, subspace), a
serial checker H, and serial-indexed primal/dual subspace testers. G is
materialized lazily and memoized per r; serial collisions are resampled so
serials stay pairwise distinct. The bundle counts queries to each of the four
parts: `g_queries` and `h_queries` for G and H, and one `CountedOracle` per
tester, labelled `T_primal` and `T_dual`, shared by all serials; the
paper's T-query cost is the sum of the two tester counts.

Verification returns the verdict of the four-step circuit project /
transform / project / transform, charging exactly one primal and one dual
tester query. Both tests act only on the span of A's 2^(n/2) members and on
what lies outside it, so the verifier runs them in a frame of n/2 + 1
qubits: the state's amplitudes on A's members, then one amplitude holding
the norm of the rest. The primal test keeps the first half of the frame;
the dual test, which on A's span is the rank-1 projector onto the money
state, is the projector onto the uniform state of that half. The two frame
tests are built once per bundle, on the first verification; no 2^n array
is made (an 8 KiB frame at n=16).

Each bundle entry memoises its subspace's member indices: 2^(n/2) read-only
int64 values (128 B at n=8, 2 KiB at n=16), filled by the first `bank`,
`verify_circuit` or `HsMiniScheme.target_state` call for the serial.
Re-minting a serial and repeated verifications of it, as in threshold
repetition over a composite note, then read the memo without enumerating the
subspace again. Dense money states are not memoised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import config
from .f2lin import LinMap, Subspace, image, random_invertible, random_subspace, str_to_vec, vec_to_str
from .money import Banknote, MiniScheme
from .qsim import (
    CountedOracle,
    PhaseOracle,
    Projector,
    StateVector,
    measure_projector,
    sqnorm,
    subspace_mask,
    uniform_on,
    walsh_hadamard_raw,
)


def _serial_nbytes(n: int) -> int:
    return (3 * n + 7) // 8


def _sample_serial(n: int, rng: np.random.Generator) -> bytes:
    nbits = 3 * n
    raw = bytearray(rng.bytes(_serial_nbytes(n)))
    extra = 8 * len(raw) - nbits
    if extra:
        raw[0] &= 0xFF >> extra
    return bytes(raw)


@dataclass
class BundleEntry:
    """One issued note: G's input r, its serial and its subspace.

    `members` is None until `member_indices` is first called; it then holds
    the subspace's 2^(n/2) sorted member indices as a read-only int64 array
    (128 B at n=8, 2 KiB at n=16)."""

    r: int
    serial: bytes
    subspace: Subspace
    members: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def member_indices(self) -> np.ndarray:
        """A's members, from the memo, which the first call fills."""
        if self.members is None:
            self.members = self.subspace.member_array()
            self.members.setflags(write=False)
        return self.members

    def money_state(self) -> StateVector:
        """|A>, built from the member memo. The bundle checked n against the
        qubit cap when it was built."""
        return uniform_on(self.subspace.n, self.member_indices())


class OracleBundle:
    """Lazily populated random banknote world over F_2^n, n even."""

    def __init__(self, n: int, rng: np.random.Generator):
        if n % 2 or not 2 <= n <= config.qubit_cap():
            raise ValueError(f"ambient dimension {n} must be even and in [2, {config.qubit_cap()}]")
        self.n = n
        self._rng = rng
        self._by_r: Dict[int, BundleEntry] = {}
        self._by_serial: Dict[bytes, BundleEntry] = {}
        self.g_queries = 0
        self.h_queries = 0
        self.primal_tester = CountedOracle("T_primal")
        self.dual_tester = CountedOracle("T_dual")
        self._frame_tests: Optional[Tuple[Projector, Projector]] = None

    def generator(self, r: int) -> Tuple[bytes, Subspace]:
        """G(r): independent uniform (serial, dim-n/2 subspace) per fresh r."""
        self.g_queries += 1
        entry = self._entry(r)
        return entry.serial, entry.subspace

    def _entry(self, r: int) -> BundleEntry:
        if not 0 <= r < (1 << self.n):
            raise ValueError("r outside {0,1}^n")
        entry = self._by_r.get(r)
        if entry is None:
            serial = _sample_serial(self.n, self._rng)
            while serial in self._by_serial:
                serial = _sample_serial(self.n, self._rng)
            entry = BundleEntry(r, serial, random_subspace(self.n, self.n // 2, self._rng))
            self._by_r[r] = entry
            self._by_serial[serial] = entry
        return entry

    def frame_tests(self) -> Tuple[Projector, Projector]:
        """The verifier's primal and dual tests on its n/2 + 1 qubit frame,
        built on the first call: the mask of the frame's first half, charged
        to `primal_tester`, and the projector onto the uniform state of that
        half, charged to `dual_tester`."""
        if self._frame_tests is None:
            half = 1 << (self.n // 2)
            qubits = self.n // 2 + 1
            mask = np.arange(2 * half) < half
            mask.setflags(write=False)
            self._frame_tests = (
                Projector(qubits, mask=mask, charge_to=self.primal_tester),
                Projector.onto_state(uniform_on(qubits, np.arange(half)), charge_to=self.dual_tester),
            )
        return self._frame_tests

    def check_serial(self, serial: bytes) -> bool:
        """H(s): 1 exactly on issued serial numbers."""
        self.h_queries += 1
        return serial in self._by_serial

    def lookup(self, serial: bytes) -> Optional[BundleEntry]:
        return self._by_serial.get(serial)

    def snapshot(self) -> dict:
        return {
            "n": self.n,
            "entries": {
                str(r): {
                    "serial": e.serial.hex(),
                    "basis": [vec_to_str(row, self.n) for row in e.subspace.basis],
                }
                for r, e in self._by_r.items()
            },
        }

    def export_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    @classmethod
    def import_json(cls, text: str, rng: np.random.Generator) -> "OracleBundle":
        """Rebuild a bundle from `export_json` text, checking every field;
        a malformed snapshot raises ValueError."""
        try:
            data = json.loads(text)
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError("bundle snapshot nests too deeply") from None
        if not (isinstance(data, dict) and type(data.get("n")) is int
                and isinstance(data.get("entries"), dict)):
            raise ValueError("bundle snapshot must be an object with an integer n and an entries object")
        bundle = cls(data["n"], rng)
        n = bundle.n
        for key, entry in data["entries"].items():
            r = int(key) if key.isascii() and key.isdigit() else None
            if r is None or str(r) != key or r >= 1 << n:
                raise ValueError(f"bundle entry key {key!r} is not an integer in [0, 2^{n})")
            entry = entry if isinstance(entry, dict) else {}
            hex_serial, rows = entry.get("serial"), entry.get("basis")
            serial = bytes.fromhex(hex_serial) if isinstance(hex_serial, str) else b""
            if len(serial) != _serial_nbytes(n):
                raise ValueError(f"bundle entry {r}: serial must be {_serial_nbytes(n)} bytes of hex")
            if serial in bundle._by_serial:
                raise ValueError(f"bundle entry {r}: serial {serial.hex()} is shared with another entry")
            if not isinstance(rows, list) or not all(
                isinstance(row, str) and len(row) == n and set(row) <= {"0", "1"} for row in rows
            ):
                raise ValueError(f"bundle entry {r}: basis rows must be {n} characters 0 or 1")
            sub = Subspace.from_rows([str_to_vec(row) for row in rows], n)
            if sub.dim != n // 2:
                raise ValueError(f"bundle entry {r}: basis spans dimension {sub.dim}, not {n // 2}")
            bundle._by_r[r] = bundle._by_serial[serial] = BundleEntry(r, serial, sub)
        return bundle


def bank(bundle: OracleBundle, rng: np.random.Generator) -> Banknote:
    """Draw r uniformly and mint (s_r, |A_r>)."""
    r = int(rng.integers(0, 1 << bundle.n))
    serial, _ = bundle.generator(r)
    return Banknote(serial, bundle.lookup(serial).money_state())


def verify_circuit(bundle: OracleBundle, serial: bytes, state: StateVector, rng: np.random.Generator) -> bool:
    """The accept bit of the four-step circuit: project onto the subspace,
    transform, project onto the dual, transform.

    Rejects invalid serials outright; otherwise charges exactly one primal
    and one dual query, and accepts a pure state with probability equal to
    its squared overlap with the money state. Both measurements run in the
    bundle's frame of n/2 + 1 qubits: the state's amplitudes on A's members,
    in member order, then the amplitude sqrt(1 - p) of the part outside A's
    span, where p is their squared norm. The primal test keeps the members;
    after it the state lies in A's span, where H P_{A_perp} H acts as
    |A><A|, so the dual test is the projector onto the uniform state of the
    members and needs no transform. After a primal rejection the verdict is
    already false; the dual test still charges its query and draws its
    uniform, as the circuit does.
    """
    if not bundle.check_serial(serial):
        return False
    if state.n_qubits != bundle.n:
        raise ValueError("state and bundle sizes differ")
    primal, on_a = bundle.frame_tests()
    members = bundle.lookup(serial).member_indices()
    amps = np.zeros(2 * len(members), dtype=np.complex128)
    amps[: len(members)] = state.amps[members]
    # the same sum the primal measurement takes, so p < 1 leaves a remainder
    # of at least 2^-26.5 for the rejected branch to normalize
    amps[len(members)] = np.sqrt(max(0.0, 1.0 - sqnorm(amps)))
    ok1, post, _ = measure_projector(primal, StateVector._wrap(primal.n_qubits, amps), rng)
    ok2, _, _ = measure_projector(on_a, post, rng, keep_post=False)
    return ok1 and ok2


def verifier_operator_distance(bundle: OracleBundle, serial: bytes) -> float:
    """Max entrywise |circuit - rank-1 projector| over the full operator.

    Columns indexed outside the subspace vanish identically for both
    operators (the first projection kills them and the target state has no
    amplitude there), so only member columns need computing; each one is two
    transforms and a mask away.
    """
    entry = bundle.lookup(serial)
    if entry is None:
        raise ValueError("invalid serial")
    n = bundle.n
    target = entry.money_state()
    dual_mask = subspace_mask(entry.subspace.dual())
    worst = 0.0
    basis_col = np.zeros(1 << n, dtype=np.complex128)
    for x in entry.member_indices():
        basis_col[:] = 0.0
        basis_col[x] = 1.0
        col = walsh_hadamard_raw(basis_col)
        col[~dual_mask] = 0.0
        col = walsh_hadamard_raw(col)
        rank1_col = target.amps * np.conj(target.amps[x])
        worst = max(worst, float(np.abs(col - rank1_col).max()))
    return worst


class HsMiniScheme(MiniScheme):
    """Mini-scheme interface over an oracle bundle; projective with perfect
    completeness (the four-step circuit equals the rank-1 projector)."""

    def __init__(self, bundle: OracleBundle):
        self.bundle = bundle
        self.n = bundle.n
        self.completeness_error = 0.0

    def bank(self, rng: np.random.Generator) -> Banknote:
        return bank(self.bundle, rng)

    def target_state(self, serial: bytes) -> Optional[StateVector]:
        """The serial's money state |A>, or None for an unissued serial."""
        entry = self.bundle.lookup(serial)
        return None if entry is None else entry.money_state()

    def verify(self, serial, state, rng):
        return verify_circuit(self.bundle, serial, state, rng)


class ConjugatedOracle(PhaseOracle):
    """Base subspace oracle composed with a basis permutation.

    Applying it charges the base oracle: the composed map is implemented by
    relabeling inputs and calling the base oracle once.
    """

    def __init__(self, base: PhaseOracle, relabel: np.ndarray, label: str = ""):
        super().__init__(base.n_qubits, base.mask[relabel], label)
        self.base = base

    def charge(self, k: int = 1) -> None:
        super().charge(k)
        self.base.charge(k)


@dataclass
class RandomizedInstance:
    map: LinMap
    subspace: Subspace
    state: StateVector
    primal: ConjugatedOracle
    dual: ConjugatedOracle
    undo: LinMap

    def undo_state(self, s: StateVector) -> StateVector:
        # forward map sent amps[x] to slot f(x); reading back through f undoes it
        perm = self.map.permutation_table()
        return StateVector._wrap(s.n_qubits, s.amps[perm])


def randomize_instance(
    a: Subspace,
    state: StateVector,
    oracle_pair: Tuple[PhaseOracle, PhaseOracle],
    rng: np.random.Generator,
) -> RandomizedInstance:
    """Rerandomize a worst-case instance to a uniformly random one.

    Returns f(A), the state with amplitudes relabeled by f, membership
    oracles for f(A) and f(A)^perp built from the originals (x in f(A) iff
    f^{-1}(x) in A; x in f(A)^perp iff f^T x in A^perp), and the inverse map.
    """
    if a.dim * 2 != a.n:
        raise ValueError("instance randomization expects a dim-n/2 subspace")
    primal_base, dual_base = oracle_pair
    f = random_invertible(a.n, rng)
    f_inv = f.inverse()
    inv_table = f_inv.permutation_table()
    ft_table = f.transpose().permutation_table()
    new_amps = state.amps[inv_table]
    return RandomizedInstance(
        map=f,
        subspace=image(f, a),
        state=StateVector._wrap(state.n_qubits, new_amps),
        primal=ConjugatedOracle(primal_base, inv_table, "U_fA"),
        dual=ConjugatedOracle(dual_base, ft_table, "U_fA_perp"),
        undo=f_inv,
    )
