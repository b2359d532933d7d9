"""Money-scheme framework: the mini-scheme interface, the double verifier and
money counter, Lamport-Merkle signatures, the serial-signing composition into
a full public-key scheme, and threshold-repetition completeness amplification.

Serial numbers are opaque bytes; nothing here parses them. Verification of
multiple (possibly entangled) registers is sequential in index order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .qsim import Projector, StateVector, check_qubits, measure_projector, measure_register


class KeyExhaustionError(RuntimeError):
    """All one-time signing keys have been used."""


class MalformedSignatureError(ValueError):
    """Signature blob is structurally invalid."""


@dataclass
class Banknote:
    serial: bytes
    state: StateVector


class MiniScheme:
    """Bank/Ver pair issuing (serial, money state) banknotes.

    A mini-scheme is its rank-1 target plus its coins. Subclasses set `n`
    (qubits per money state) and `completeness_error`, and implement `bank`
    and `target_state`. `verify` measures {|t><t|, I - |t><t|} for the
    serial's target t, building no post state; after a quantum acceptance,
    `classical_accept` tosses one uniform per rate of `reject_rates`, in
    order, while each passes (a coin below its rate rejects). A scheme may
    verify by another circuit with the same statistics, as the two-basis
    test does.
    """

    n: int
    completeness_error: float = 0.0
    reject_rates: Tuple[float, ...] = ()

    def bank(self, rng: np.random.Generator) -> Banknote:
        raise NotImplementedError

    def target_state(self, serial: bytes) -> Optional[StateVector]:
        """Rank-1 verification target, or None when the verifier rejects the
        serial without measuring it."""
        raise NotImplementedError

    def classical_accept(self, rng: np.random.Generator) -> bool:
        return all(rng.random() >= rate for rate in self.reject_rates)

    def verify(self, serial: bytes, state: StateVector, rng: np.random.Generator) -> bool:
        target = self.target_state(serial)
        if target is None:
            return False
        ok, _, _ = measure_projector(Projector.onto_state(target), state, rng, keep_post=False)
        return ok and self.classical_accept(rng)

    def verify_all(
        self, serials: Sequence[bytes], states: Sequence[StateVector], rng: np.random.Generator
    ) -> int:
        """How many of the (serial, state) pairs `verify` accepts, verified
        one after another in index order."""
        return sum(self.verify(serial, state, rng) for serial, state in zip(serials, states))


JointInput = Union[StateVector, Tuple[StateVector, StateVector]]


def verify2(
    m: MiniScheme, serial: bytes, states: JointInput, rng: np.random.Generator
) -> bool:
    # the accept bit only: the second measurement builds no post state
    ok, _ = verify2_post(m, serial, states, rng, keep_post=False)
    return ok


def verify2_post(
    m: MiniScheme,
    serial: bytes,
    states: JointInput,
    rng: np.random.Generator,
    keep_post: bool = True,
) -> Tuple[bool, Optional[JointInput]]:
    """Double verifier: two single verifications of `m.verify`'s contract,
    each a rank-1 measurement and then the coins, the first on the low
    register and the second on the top one. A pair (sigma, xi) is the
    product state sigma (low) tensor xi (top), so each register is measured
    on its own 2^n amplitudes and the joint post state is built only when
    asked for; a joint `StateVector`, which may be entangled, is measured as
    a whole. A serial without a target rejects the input unmeasured, as it
    is given. With `keep_post=False` the post state
    after the second measurement, which only the caller could read, is not
    built and None stands in for it; the draws are the same."""
    joint = isinstance(states, StateVector)
    if joint and states.n_qubits != 2 * m.n:
        raise ValueError("joint register must hold exactly two money states")
    if not joint and any(s.n_qubits != m.n for s in states):
        raise ValueError("each register of the pair must hold one money state")
    target = m.target_state(serial)
    if target is None:
        return False, states
    if joint:
        ok1, amps = measure_register(states.amps, target, rng)
        ok1 = ok1 and m.classical_accept(rng)
        ok2, amps = measure_register(amps, target, rng, top=True, keep_post=keep_post)
        ok2 = ok2 and m.classical_accept(rng)
        return ok1 and ok2, StateVector._wrap(states.n_qubits, amps) if keep_post else None
    if keep_post:
        check_qubits(2 * m.n)
    ok1, low = measure_register(states[0].amps, target, rng, keep_post=keep_post)
    ok1 = ok1 and m.classical_accept(rng)
    ok2, top = measure_register(states[1].amps, target, rng, keep_post=keep_post)
    ok2 = ok2 and m.classical_accept(rng)
    # the top register's index bits go above the low one's, as in `tensor`
    return ok1 and ok2, StateVector._wrap(2 * m.n, np.kron(top, low)) if keep_post else None


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


_DIGEST = 32
_MSG_BITS = 256
# what follows a leaf's prefix in each of its secrets: bit index j, then value
_SECRET_SUFFIXES = tuple(
    tuple(j.to_bytes(2, "big") + bytes([value]) for j in range(_MSG_BITS)) for value in (0, 1)
)
MAX_MESSAGE_BYTES = 1 << 20


@dataclass
class _LamportPrivateKey:
    master: bytes
    height: int
    levels: List[List[bytes]]  # Merkle levels, leaves first
    next_leaf: int = 0

    def leaf_count(self) -> int:
        return 1 << self.height


class LamportMerkleSigner:
    """Hash-based one-time signatures under a Merkle index tree.

    Messages are hashed to 256 bits and signed with a fresh Lamport leaf;
    the public key is the tree root, so many messages can be signed until
    the leaves run out.
    """

    def __init__(self, tree_height: int = 6):
        if not 1 <= tree_height <= 16:
            raise ValueError("tree height out of range")
        self.height = tree_height

    def _leaf_secrets(self, master: bytes, leaf: int) -> Tuple[List[bytes], List[bytes]]:
        """The leaf's 2 x 256 one-time secrets, for bit value 0 and 1: secret
        (j, value) is SHA-256(master | leaf | j | value). The master and leaf
        prefix is hashed once and each secret finishes a copy of it."""
        prefix = hashlib.sha256(master + leaf.to_bytes(4, "big"))
        halves = ([], [])
        for half, suffixes in zip(halves, _SECRET_SUFFIXES):
            for suffix in suffixes:
                h = prefix.copy()
                h.update(suffix)
                half.append(h.digest())
        return halves

    def _leaf_pk_halves(self, master: bytes, leaf: int) -> Tuple[List[bytes], List[bytes]]:
        sha256 = hashlib.sha256
        return tuple([sha256(s).digest() for s in half] for half in self._leaf_secrets(master, leaf))

    def _leaf_hash(self, zeros: Sequence[bytes], ones: Sequence[bytes]) -> bytes:
        return _h(b"".join(zeros) + b"".join(ones))

    def _tree_levels(self, master: bytes) -> List[List[bytes]]:
        leaves = []
        for leaf in range(1 << self.height):
            zeros, ones = self._leaf_pk_halves(master, leaf)
            leaves.append(self._leaf_hash(zeros, ones))
        levels = [leaves]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            levels.append([_h(prev[i] + prev[i + 1]) for i in range(0, len(prev), 2)])
        return levels

    def keygen(self, rng: np.random.Generator) -> Tuple[_LamportPrivateKey, bytes]:
        master = rng.bytes(32)
        levels = self._tree_levels(master)
        sk = _LamportPrivateKey(master=master, height=self.height, levels=levels)
        return sk, levels[-1][0]

    def sign(self, sk: _LamportPrivateKey, message: bytes) -> bytes:
        if len(message) > MAX_MESSAGE_BYTES:
            raise ValueError("message exceeds the configured length bound")
        if sk.next_leaf >= sk.leaf_count():
            raise KeyExhaustionError("no unused one-time keys remain")
        leaf = sk.next_leaf
        sk.next_leaf += 1
        digest = _h(message)
        bits = [(digest[j // 8] >> (7 - j % 8)) & 1 for j in range(_MSG_BITS)]
        # reveal the secret for each message bit; the other public-key half
        # is the hash of the secret not revealed
        secrets = self._leaf_secrets(sk.master, leaf)
        reveals = [secrets[b][j] for j, b in enumerate(bits)]
        sha256 = hashlib.sha256
        complements = [sha256(secrets[1 - b][j]).digest() for j, b in enumerate(bits)]
        path = []
        idx = leaf
        for level in sk.levels[:-1]:
            path.append(level[idx ^ 1])
            idx >>= 1
        blob = leaf.to_bytes(4, "big") + b"".join(reveals) + b"".join(complements) + b"".join(path)
        return blob

    def sverify(self, pk: bytes, message: bytes, signature: bytes) -> bool:
        expected = 4 + 2 * _MSG_BITS * _DIGEST + self.height * _DIGEST
        if not isinstance(signature, (bytes, bytearray)) or len(signature) != expected:
            raise MalformedSignatureError(
                f"signature must be {expected} bytes, got {len(signature) if isinstance(signature, (bytes, bytearray)) else type(signature)}"
            )
        leaf = int.from_bytes(signature[:4], "big")
        if leaf >= (1 << self.height):
            raise MalformedSignatureError("leaf index out of range")
        off = 4
        reveals = [signature[off + j * _DIGEST : off + (j + 1) * _DIGEST] for j in range(_MSG_BITS)]
        off += _MSG_BITS * _DIGEST
        complements = [signature[off + j * _DIGEST : off + (j + 1) * _DIGEST] for j in range(_MSG_BITS)]
        off += _MSG_BITS * _DIGEST
        path = [signature[off + j * _DIGEST : off + (j + 1) * _DIGEST] for j in range(self.height)]

        digest = _h(message)
        bits = [(digest[j // 8] >> (7 - j % 8)) & 1 for j in range(_MSG_BITS)]
        sha256 = hashlib.sha256
        zeros = [b""] * _MSG_BITS
        ones = [b""] * _MSG_BITS
        for j in range(_MSG_BITS):
            if bits[j] == 0:
                zeros[j] = sha256(reveals[j]).digest()
                ones[j] = complements[j]
            else:
                zeros[j] = complements[j]
                ones[j] = sha256(reveals[j]).digest()
        node = self._leaf_hash(zeros, ones)
        idx = leaf
        for sibling in path:
            node = _h(node + sibling) if idx % 2 == 0 else _h(sibling + node)
            idx >>= 1
        return node == pk


@dataclass
class MoneyNote:
    serial: bytes
    signature: bytes
    state: StateVector


def note_to_wire(serial: bytes, state: StateVector, state_path: str,
                 signature: Optional[bytes] = None) -> str:
    """Banknote wire record: JSON with hex serial, optional hex signature,
    and a path reference to the state dump written alongside."""
    with open(state_path, "w") as fh:
        fh.write(state.dump())
    record = {"serial": serial.hex(), "state_ref": state_path}
    if signature is not None:
        record["sig"] = signature.hex()
    return json.dumps(record, sort_keys=True)


def note_from_wire(text: str) -> Tuple[bytes, Optional[bytes], StateVector]:
    record = json.loads(text)
    serial = bytes.fromhex(record["serial"])
    signature = bytes.fromhex(record["sig"]) if "sig" in record else None
    with open(record["state_ref"]) as fh:
        state = StateVector.load(fh.read())
    return serial, signature, state


class ComposedScheme:
    """The standard construction of a full public-key scheme: a mini-scheme
    plus a signature on the serial number. keygen / bank / verify."""

    def __init__(self, mini: MiniScheme, signer: LamportMerkleSigner):
        self.mini = mini
        self.signer = signer
        self.n = mini.n
        self.completeness_error = mini.completeness_error

    def keygen(self, rng: np.random.Generator):
        return self.signer.keygen(rng)

    def bank(self, sk, rng: np.random.Generator) -> MoneyNote:
        note = self.mini.bank(rng)
        return MoneyNote(note.serial, self.signer.sign(sk, note.serial), note.state)

    def signed(self, pk, serial: bytes, signature: bytes) -> bool:
        """Whether the signature on the serial verifies; a malformed one does not."""
        try:
            return self.signer.sverify(pk, serial, signature)
        except MalformedSignatureError:
            return False

    def verify(self, pk, note: MoneyNote, rng: np.random.Generator) -> bool:
        return self.signed(pk, note.serial, note.signature) and self.mini.verify(note.serial, note.state, rng)


def count_notes(
    scheme: ComposedScheme, pk, notes: Sequence[MoneyNote], rng: np.random.Generator
) -> int:
    """Money counter: sequential verification, one count per accept."""
    total = 0
    for note in notes:
        if scheme.verify(pk, note, rng):
            total += 1
    return total


class WrappedAsMini(MiniScheme):
    """A full money scheme repackaged as a mini-scheme (serial := pk || serial || sig).

    A fresh key pair backs every banknote, so the wrapper never needs a key
    of its own. Its rank-1 view is the inner mini-scheme's target and coins
    behind the signature check: a malformed serial or a failed signature has
    no target.
    """

    def __init__(self, scheme: ComposedScheme):
        self.scheme = scheme
        self.n = scheme.n
        self.completeness_error = scheme.completeness_error
        self.reject_rates = scheme.mini.reject_rates

    @staticmethod
    def _pack(parts: Sequence[bytes]) -> bytes:
        out = b""
        for p in parts:
            out += len(p).to_bytes(4, "big") + p
        return out

    @staticmethod
    def _unpack(blob: bytes) -> Optional[List[bytes]]:
        """The three packed parts, or None unless the blob is exactly three
        whole length-prefixed parts."""
        parts, off = [], 0
        while off + 4 <= len(blob):
            end = off + 4 + int.from_bytes(blob[off : off + 4], "big")
            parts.append(blob[off + 4 : end])
            off = end
        return parts if off == len(blob) and len(parts) == 3 else None

    def bank(self, rng: np.random.Generator) -> Banknote:
        sk, pk = self.scheme.keygen(rng)
        note = self.scheme.bank(sk, rng)
        return Banknote(self._pack([pk, note.serial, note.signature]), note.state)

    def target_state(self, serial: bytes) -> Optional[StateVector]:
        parts = self._unpack(serial)
        if parts is None or not self.scheme.signed(*parts):
            return None
        return self.scheme.mini.target_state(parts[1])

    def verify(self, serial, state, rng):
        parts = self._unpack(serial)
        return parts is not None and self.scheme.verify(parts[0], MoneyNote(parts[1], parts[2], state), rng)


def _count_accepts(probs: List[float], rates: Tuple[float, ...], rng: np.random.Generator) -> int:
    """How many sub-notes accept, when sub-note i accepts its measurement
    with probability probs[i] and then tosses one coin per entry of `rates`,
    in order, while each passes. The draws are those of one measurement
    after another: a uniform against probs[i], then the coins. They come in
    blocks of the draws still certain to be made, one per sub-note not yet
    measured plus a coin if one is pending, so none is drawn that the
    one-by-one draws would not make; `Generator.random(r)` yields the same
    doubles, and leaves the same state, as r scalar calls."""
    total = 0
    block, pos = [], 0
    for i, prob in enumerate(probs):
        if pos == len(block):
            block, pos = rng.random(len(probs) - i).tolist(), 0
        accepted = block[pos] < prob
        pos += 1
        for rate in rates:
            if not accepted:
                break
            if pos == len(block):
                block, pos = rng.random(len(probs) - i).tolist(), 0
            accepted = block[pos] >= rate
            pos += 1
        total += accepted
    return total


class ArtificiallyNoisyScheme(MiniScheme):
    """Wrap a projective scheme with an extra classical rejection coin.

    Verification measures {|t><t|, I - |t><t|} for the base scheme's target
    t and, on acceptance, tosses the coins of `reject_rates`, this wrapper's
    first and the base's after it; an unissued serial rejects without a draw.
    `verify_all` is the boolean verifier: it takes every p_i = |<t_i|psi_i>|^2
    of a batch from one contraction of the stacked amplitudes, then makes
    each sub-note's draws in index order, one uniform against p_i and the
    coins only on acceptance, as one measurement after another would.
    `verify` is its one-note case. Threshold repetition verifies one
    composite note many times, so two memos are kept: the conjugated targets
    of the last serial tuple, k 2^n complex values, the size of the note
    itself; and the probabilities of the last note, keyed on its serials and
    on the identity of its immutable states, which the memo holds.
    """

    def __init__(self, base: MiniScheme, extra_reject: float):
        if not 0 <= extra_reject < 1:
            raise ValueError("rejection rate must lie in [0, 1)")
        self.base = base
        self.reject_rates = (extra_reject,) + base.reject_rates
        self.n = base.n
        self.completeness_error = 1 - (1 - base.completeness_error) * (1 - extra_reject)
        # (serials, issued flags, conjugated targets one row each)
        self._stacked: Tuple[Tuple[bytes, ...], List[bool], np.ndarray] = ((), [], np.zeros((0, 1 << self.n)))
        # (serials, ids of the states, the states, the issued sub-notes' p_i)
        self._probs: Tuple[Tuple[bytes, ...], Tuple[int, ...], Tuple[StateVector, ...], List[float]] = (
            (), (), (), [])

    def _stacked_targets(self, serials: Tuple[bytes, ...]) -> Tuple[List[bool], np.ndarray]:
        if self._stacked[0] != serials:
            targets = [self.target_state(serial) for serial in serials]
            conj = np.zeros((len(serials), 1 << self.n), dtype=np.complex128)
            for row, target in zip(conj, targets):
                if target is not None:
                    np.conjugate(target.amps, out=row)
            self._stacked = (serials, [t is not None for t in targets], conj)
        return self._stacked[1:]

    def _probabilities(self, serials: Tuple[bytes, ...], states: Tuple[StateVector, ...]) -> List[float]:
        ids = tuple(map(id, states))
        if self._probs[:2] != (serials, ids):
            issued, conj = self._stacked_targets(serials)
            overlaps = np.einsum("ij,ij->i", conj, np.stack([s.amps for s in states]))
            probs = [p for ok, p in zip(issued, (np.abs(overlaps) ** 2).tolist()) if ok]
            self._probs = (serials, ids, states, probs)
        return self._probs[3]

    def verify_all(
        self, serials: Sequence[bytes], states: Sequence[StateVector], rng: np.random.Generator
    ) -> int:
        # pairs as zip makes them: a note with more serials than states, or
        # the reverse, is verified on its paired sub-notes only
        m = min(len(serials), len(states))
        if m == 0:
            return 0
        probs = self._probabilities(tuple(serials[:m]), tuple(states[:m]))
        return _count_accepts(probs, self.reject_rates, rng)

    def verify(self, serial: bytes, state: StateVector, rng: np.random.Generator) -> bool:
        return self.verify_all((serial,), (state,), rng) == 1

    def bank(self, rng: np.random.Generator) -> Banknote:
        return self.base.bank(rng)

    def target_state(self, serial: bytes) -> Optional[StateVector]:
        return self.base.target_state(serial)


@dataclass
class CompositeNote:
    serials: Tuple[bytes, ...]
    states: Tuple[StateVector, ...]


class CompositeScheme:
    """Threshold repetition of a mini-scheme: k sub-notes, accept when at
    least ceil((1 - eps - eta) k) sub-verifications accept."""

    def __init__(self, base: MiniScheme, k: int, eta: float):
        if k < 1:
            raise ValueError("repetition count must be at least 1")
        eps = base.completeness_error
        if eps >= 0.5:
            raise ValueError("base completeness error must be below 1/2")
        if not 0 < eta < 0.5 - eps:
            raise ValueError("eta must lie in (0, 1/2 - eps)")
        self.base = base
        self.k = k
        self.eta = eta
        # ceil with a nudge so exact-integer thresholds are not pushed up
        # by float representation error
        self.threshold = math.ceil(k * (1 - eps - eta) - 1e-9)
        self.completeness_error_bound = math.exp(-2 * k * eta ** 2)

    def exact_completeness_error(self) -> float:
        """P[Bin(k, 1 - eps) < threshold]: the honest rejection rate when each
        sub-verification rejects independently with probability exactly
        eps = base.completeness_error. With eps = q / d as an exact binary
        fraction, the tail is sum_{j < threshold} C(k, j) (d - q)^j q^(k - j)
        over d^k: one integer sum, then one correctly rounded division."""
        q, d = float(self.base.completeness_error).as_integer_ratio()
        # Horner in q over the running term C(k, j) (d - q)^j, then the
        # q^(k - threshold + 1) that every term shares
        num, term = 0, 1
        for j in range(self.threshold):
            num = num * q + term
            term = term * (self.k - j) * (d - q) // (j + 1)
        return num * q ** (self.k - self.threshold + 1) / d ** self.k

    def bank(self, rng: np.random.Generator) -> CompositeNote:
        notes = [self.base.bank(rng) for _ in range(self.k)]
        return CompositeNote(tuple(n.serial for n in notes), tuple(n.state for n in notes))

    def verify(self, note: CompositeNote, rng: np.random.Generator) -> bool:
        return self.count_accepts(note, rng) >= self.threshold

    def count_accepts(self, note: CompositeNote, rng: np.random.Generator) -> int:
        """How many sub-notes the base scheme accepts, in index order."""
        return self.base.verify_all(note.serials, note.states, rng)

    def verify2(
        self,
        serials: Sequence[bytes],
        sigma: Sequence[StateVector],
        xi: Sequence[StateVector],
        rng: np.random.Generator,
    ) -> bool:
        a = CompositeNote(tuple(serials), tuple(sigma))
        b = CompositeNote(tuple(serials), tuple(xi))
        return self.verify(a, rng) and self.verify(b, rng)


CompositeCounterfeiter = Callable[
    [CompositeNote, np.random.Generator],
    Tuple[Sequence[StateVector], Sequence[StateVector]],
]


def composite_reduction_attempt(
    composite: CompositeScheme,
    counterfeiter: CompositeCounterfeiter,
    note: Banknote,
    rng: np.random.Generator,
) -> Tuple[bytes, StateVector, StateVector]:
    """One run of the single-note counterfeiter built from a composite one.

    Generates a fresh composite note, swaps the target banknote into a
    uniformly random slot, runs the composite counterfeiter, and returns the
    swapped slot's output pair.
    """
    fresh = composite.bank(rng)
    i = int(rng.integers(0, composite.k))
    serials = list(fresh.serials)
    states = list(fresh.states)
    serials[i] = note.serial
    states[i] = note.state
    swapped = CompositeNote(tuple(serials), tuple(states))
    sigma, xi = counterfeiter(swapped, rng)
    return serials[i], sigma[i], xi[i]
