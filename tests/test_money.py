"""Scheme framework: double verifier, counter, signatures, composition,
completeness amplification."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import dense_reference
from hsmoney import experiments, f2lin, hsmini, money, polyhide, qsim
from hsmoney.money import (
    ArtificiallyNoisyScheme,
    ComposedScheme,
    CompositeNote,
    CompositeScheme,
    KeyExhaustionError,
    LamportMerkleSigner,
    MalformedSignatureError,
    MoneyNote,
    WrappedAsMini,
    composite_reduction_attempt,
    count_notes,
    verify2,
    verify2_post,
)
from hsmoney.qsim import StateVector, subspace_state


@pytest.fixture
def scheme():
    rng = np.random.default_rng(60)
    bundle = hsmini.OracleBundle(8, rng)
    return hsmini.HsMiniScheme(bundle), rng


def test_verify2_honest_product(scheme):
    m, rng = scheme
    note = m.bank(rng)
    for _ in range(20):
        assert verify2(m, note.serial, (note.state, note.state), rng)


def test_verify2_orthogonal_junk(scheme):
    m, rng = scheme
    note = m.bank(rng)
    entry = m.bundle.lookup(note.serial)
    junk_vec = next(x for x in range(1 << m.n) if not entry.subspace.contains(x))
    junk = StateVector.basis(m.n, junk_vec)
    for _ in range(20):
        assert not verify2(m, note.serial, (note.state, junk), rng)


def test_verify2_product_probability_quarter(scheme):
    # |A> tensor |B> with |<A|B>| = 1/2: both tests pass with prob 1/4
    m, rng = scheme
    note = m.bank(rng)
    entry = m.bundle.lookup(note.serial)
    a = entry.subspace
    keep = list(a.basis[:3])
    while True:
        x = int(rng.integers(0, 1 << m.n))
        if not a.contains(x):
            break
    b = f2lin.Subspace.from_rows(keep + [x], m.n)
    assert subspace_state(a).overlap(subspace_state(b)) == pytest.approx(0.5)
    joint = note.state.tensor(subspace_state(b))
    trials = 2000
    hits = sum(verify2(m, note.serial, joint, rng) for _ in range(trials))
    share = hits / trials
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(share - 0.25) < 4 * sigma


def test_verify2_product_probability_exact_identity(scheme):
    # the joint double-projection norm equals the product of the single
    # acceptance probabilities, to machine precision
    m, rng = scheme
    note = m.bank(rng)
    target = m.target_state(note.serial)
    for _ in range(10):
        s1 = qsim.haar_random_state(m.n, rng)
        s2 = qsim.haar_random_state(m.n, rng)
        joint = s1.tensor(s2)
        # both registers projected onto |t>: (<t| x <t|) joint times |t> x |t>,
        # with the high register on the rows of the (2^n, 2^n) view
        t = target.amps.conj()
        got = abs(t @ joint.amps.reshape(1 << m.n, 1 << m.n) @ t) ** 2
        want = (target.overlap(s1) * target.overlap(s2)) ** 2
        assert got == pytest.approx(want, abs=1e-9)


def test_verify2_joint_register_equivalent(scheme):
    m, rng = scheme
    note = m.bank(rng)
    joint = note.state.tensor(note.state)
    ok, post = verify2_post(m, note.serial, joint, rng)
    assert ok
    assert post.overlap(joint) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("second", ["honest", "half-overlap", "orthogonal"])
def test_verify2_is_verify2_post_without_the_post_state(scheme, second):
    m, rng = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=0.2)
    note = m.bank(rng)
    junk = _orthogonal_junk(m, note)
    other = {"honest": note.state, "orthogonal": junk,
             "half-overlap": StateVector(m.n, (note.state.amps + junk.amps) / math.sqrt(2))}[second]
    for scheme_ in (m, noisy):
        for pair in ((note.state, other), (other, note.state)):
            for seed in range(20):
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                ok, post = verify2_post(scheme_, note.serial, pair, rng_a)
                assert verify2(scheme_, note.serial, pair, rng_b) == ok
                assert rng_a.bit_generator.state == rng_b.bit_generator.state
                assert post.n_qubits == 2 * m.n


@pytest.mark.parametrize("pair", ["honest", "junk-member", "p-zero", "haar"])
def test_verify2_pair_is_its_joint_register(scheme, pair):
    # a pair is measured one register at a time; as the product state it is,
    # it must give the joint register's outcome, draws and post state
    m, rng = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=0.2)
    note = m.bank(rng)
    sub = m.bundle.lookup(note.serial).subspace
    member = StateVector.basis(m.n, next(x for x in range(1, 1 << m.n) if sub.contains(x)))
    first, second = {
        "honest": (note.state, note.state),
        "junk-member": (note.state, member),
        "p-zero": (note.state, _orthogonal_junk(m, note)),
        "haar": (qsim.haar_random_state(m.n, rng), qsim.haar_random_state(m.n, rng)),
    }[pair]
    for scheme_ in (m, noisy):
        for sigma, xi in ((first, second), (second, first)):
            for seed in range(20):
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                ok, post = verify2_post(scheme_, note.serial, (sigma, xi), rng_a)
                want, want_post = verify2_post(scheme_, note.serial, sigma.tensor(xi), rng_b)
                assert ok == want
                assert rng_a.bit_generator.state == rng_b.bit_generator.state
                assert post.n_qubits == want_post.n_qubits
                np.testing.assert_allclose(post.amps, want_post.amps, rtol=0, atol=1e-12)


def test_verify2_pair_builds_the_joint_register_only_for_its_post_state(scheme, monkeypatch):
    m, rng = scheme
    note = m.bank(rng)
    built = []
    init = StateVector.__init__

    def spy(self, n_qubits, amps, _checked=False):
        built.append(n_qubits)
        init(self, n_qubits, amps, _checked)

    monkeypatch.setattr(StateVector, "__init__", spy)
    assert verify2(m, note.serial, (note.state, note.state), rng)
    assert 2 * m.n not in built
    ok, post = verify2_post(m, note.serial, (note.state, note.state), rng)
    assert ok and built.count(2 * m.n) == 1
    with pytest.raises(ValueError, match="each register"):
        verify2(m, note.serial, (note.state, note.state.tensor(note.state)), rng)


def test_lamport_roundtrip_and_rejection():
    rng = np.random.default_rng(61)
    signer = LamportMerkleSigner(tree_height=3)
    sk, pk = signer.keygen(rng)
    msg = b"serial-0042"
    sig = signer.sign(sk, msg)
    assert signer.sverify(pk, msg, sig)
    # flip one message bit -> reject
    bad = bytes([msg[0] ^ 1]) + msg[1:]
    assert not signer.sverify(pk, bad, sig)
    # truncated signature -> malformed error
    with pytest.raises(MalformedSignatureError):
        signer.sverify(pk, msg, sig[:-1])


def test_lamport_many_messages_independent():
    rng = np.random.default_rng(62)
    signer = LamportMerkleSigner(tree_height=3)
    sk, pk = signer.keygen(rng)
    sigs = {}
    for i in range(8):
        msg = f"note-{i}".encode()
        sigs[msg] = signer.sign(sk, msg)
    for msg, sig in sigs.items():
        assert signer.sverify(pk, msg, sig)
    with pytest.raises(KeyExhaustionError):
        signer.sign(sk, b"one too many")


def test_lamport_signature_bytes_are_pinned(monkeypatch):
    # digests taken from the signer that derived every secret twice
    signer = LamportMerkleSigner(tree_height=3)
    master = bytes(range(32))
    sk = money._LamportPrivateKey(master, 3, signer._tree_levels(master), next_leaf=5)
    assert sk.levels[-1][0].hex() == "99875435d424d000d759c6eb859c5b1242dde4286b720c6101984152a999fa17"
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(money.hashlib, "sha256", lambda *data: calls.append(1) or sha256(*data))
    sig = signer.sign(sk, b"serial-42")
    monkeypatch.undo()
    assert hashlib.sha256(sig).hexdigest() == "c74f9f99680fdad91c095841d848f4c7462de0ecb0e70dd31d42e39d95464366"
    # one leaf prefix, whose copies finish the 512 secrets, 256 hashes of the
    # unrevealed ones, one message digest
    assert len(calls) == 1 + 256 + 1
    assert signer.sverify(sk.levels[-1][0], b"serial-42", sig)


def test_lamport_keygen_and_sign_are_pinned():
    # digests taken from the signer that hashed every secret's whole input
    signer = LamportMerkleSigner(tree_height=3)
    sk, pk = signer.keygen(np.random.default_rng(2024))
    assert hashlib.sha256(pk).hexdigest() == "de1f8dbb651e6b020248708a2086442ba14dbbaf04f54db5d973e613025b2753"
    sig = signer.sign(sk, b"pin")
    assert hashlib.sha256(sig).hexdigest() == "0de0609e58d2c6621ace8362f85783f0405625453fb712b14d0a9b8e6e486ef4"
    assert signer.sverify(pk, b"pin", sig)


def test_lamport_signature_not_valid_for_other_message():
    rng = np.random.default_rng(63)
    signer = LamportMerkleSigner(tree_height=2)
    sk, pk = signer.keygen(rng)
    sig = signer.sign(sk, b"alpha")
    assert not signer.sverify(pk, b"beta", sig)


def test_standard_construction_end_to_end(scheme):
    m, rng = scheme
    signer = LamportMerkleSigner(tree_height=4)
    s = ComposedScheme(m, signer)
    sk, pk = s.keygen(rng)
    note = s.bank(sk, rng)
    assert s.verify(pk, note, rng)
    # altered serial: signature check fails
    other = bytes([note.serial[0] ^ 1]) + note.serial[1:]
    assert not s.verify(pk, MoneyNote(other, note.signature, note.state), rng)
    # junk state with valid serial+signature: rejected with prob 1 - |<junk|A>|^2
    junk = StateVector.basis(m.n, 0)  # zero vector is in every subspace
    entry = m.bundle.lookup(note.serial)
    overlap2 = subspace_state(entry.subspace).overlap(junk) ** 2
    trials = 2000
    rejects = sum(
        not s.verify(pk, MoneyNote(note.serial, note.signature, junk), rng)
        for _ in range(trials)
    )
    want = 1 - overlap2
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(rejects / trials - want) < 4 * sigma


def test_count_notes(scheme):
    m, rng = scheme
    signer = LamportMerkleSigner(tree_height=4)
    s = ComposedScheme(m, signer)
    sk, pk = s.keygen(rng)
    notes = [s.bank(sk, rng) for _ in range(5)]
    assert count_notes(s, pk, notes, rng) == 5
    junk_note = MoneyNote(notes[0].serial, notes[0].signature, _orthogonal_junk(m, notes[0]))
    assert count_notes(s, pk, notes + [junk_note], rng) == 5
    assert count_notes(s, pk, [], rng) == 0


def _orthogonal_junk(m, note):
    entry = m.bundle.lookup(note.serial)
    vec = next(x for x in range(1 << m.n) if not entry.subspace.contains(x))
    return StateVector.basis(m.n, vec)


def test_wrapped_money_scheme_as_mini(scheme):
    m, rng = scheme
    s = ComposedScheme(m, LamportMerkleSigner(tree_height=2))
    wrapper = WrappedAsMini(s)
    note = wrapper.bank(rng)
    for _ in range(10):
        assert wrapper.verify(note.serial, note.state, rng)
    assert verify2(wrapper, note.serial, (note.state, note.state), rng)


def test_wrapped_verify_runs_the_inner_boolean_verifier(scheme, monkeypatch):
    # no transform, as ComposedScheme.verify makes none: the boolean verifier
    # makes its dual query on A's span, and builds no post state
    m, rng = scheme
    wrapper, note = _wrapped(m, rng)
    pk, inner, sig = WrappedAsMini._unpack(note.serial)
    calls = []
    wht = qsim.walsh_hadamard_raw
    monkeypatch.setattr(qsim, "walsh_hadamard_raw", lambda a: calls.append(1) or wht(a))
    for state in (note.state, _orthogonal_junk(m, MoneyNote(inner, sig, note.state))):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        calls.clear()
        ok = wrapper.verify(note.serial, state, rng_a)
        assert len(calls) == 0
        assert ok == wrapper.scheme.verify(pk, MoneyNote(inner, sig, state), rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _unmeasured_reject(m, verify, states, rng):
    # rejects with no draw and no oracle query; a verifier that returns a
    # post state returns `states` as given
    queries = m.bundle.subspace_queries
    draws = rng.bit_generator.state
    out = verify(states)
    if type(out) is bool:
        assert out is False
    else:
        ok, post = out
        assert ok is False and post is states
    assert m.bundle.subspace_queries == queries
    assert rng.bit_generator.state == draws


def _wrapped(m, rng, extra_reject=None):
    mini = m if extra_reject is None else ArtificiallyNoisyScheme(m, extra_reject=extra_reject)
    wrapper = WrappedAsMini(ComposedScheme(mini, LamportMerkleSigner(tree_height=2)))
    return wrapper, wrapper.bank(rng)


def test_wrapped_verify_leaves_a_note_with_a_bad_signature_unmeasured(scheme):
    # such a note has no target, so the double verifier rejects it unmeasured too
    m, rng = scheme
    wrapper, note = _wrapped(m, rng)
    pk, inner, sig = WrappedAsMini._unpack(note.serial)
    wrong = WrappedAsMini._pack([pk, inner, sig[:-1] + bytes([sig[-1] ^ 1])])  # well-formed, wrong
    malformed = WrappedAsMini._pack([pk, inner, sig[:-1]])
    assert verify2(wrapper, note.serial, (note.state, note.state), rng)
    for serial in (wrong, malformed):
        _unmeasured_reject(m, lambda s: wrapper.verify(serial, s, rng), note.state, rng)
        for states in ((note.state, note.state), note.state.tensor(note.state)):
            _unmeasured_reject(m, lambda s: verify2_post(wrapper, serial, s, rng), states, rng)
        assert wrapper.target_state(serial) is None


def test_verify2_rejects_an_unissued_serial_unmeasured(scheme):
    m, rng = scheme
    note = m.bank(rng)
    unissued = bytes(len(note.serial))
    assert m.bundle.lookup(unissued) is None
    for scheme_ in (m, ArtificiallyNoisyScheme(m, extra_reject=0.2)):
        for states in ((note.state, note.state), note.state.tensor(note.state)):
            for keep_post in (True, False):
                _unmeasured_reject(m, lambda s: verify2_post(scheme_, unissued, s, rng, keep_post), states, rng)
            assert not verify2(scheme_, unissued, states, rng)


def test_verify2_on_a_wrapped_noisy_scheme_tosses_its_coins(scheme):
    m, rng = scheme
    wrapper, note = _wrapped(m, rng, extra_reject=0.5)
    assert wrapper.reject_rates == (0.5,)
    _, inner, _ = WrappedAsMini._unpack(note.serial)
    pair = (note.state, note.state)
    for seed in range(20):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert verify2(wrapper, note.serial, pair, rng_a) == verify2(wrapper.scheme.mini, inner, pair, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
    # an honest pair passes both coins: (1 - p)^2
    trials = 1000
    share = sum(verify2(wrapper, note.serial, pair, rng) for _ in range(trials)) / trials
    assert abs(share - 0.25) < 4 * math.sqrt(0.25 * 0.75 / trials)


def test_a_malformed_wrapped_serial_is_rejected_not_raised(scheme):
    m, rng = scheme
    wrapper, note = _wrapped(m, rng)
    for serial in (b"", bytes(6), note.serial + bytes(4), note.serial[:-1]):
        _unmeasured_reject(m, lambda s: wrapper.verify(serial, s, rng), note.state, rng)
        _unmeasured_reject(m, lambda s: verify2_post(wrapper, serial, s, rng), (note.state, note.state), rng)
        assert wrapper.target_state(serial) is None
        assert WrappedAsMini._unpack(serial) is None


def test_noisy_wrapper_completeness_rate(scheme):
    m, rng = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=0.2)
    assert noisy.completeness_error == pytest.approx(0.2)
    note = noisy.bank(rng)
    trials = 3000
    hits = sum(noisy.verify(note.serial, note.state, rng) for _ in range(trials))
    sigma = math.sqrt(0.8 * 0.2 / trials)
    assert abs(hits / trials - 0.8) < 4 * sigma


def test_composite_scheme_parameters(scheme):
    m, _ = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=0.2)
    comp = CompositeScheme(noisy, k=60, eta=0.1)
    assert comp.threshold == 42
    with pytest.raises(ValueError):
        CompositeScheme(noisy, k=10, eta=0.31)
    with pytest.raises(ValueError):
        CompositeScheme(noisy, k=0, eta=0.1)


def test_composite_k1_small_eta_behaves_as_base(scheme):
    m, rng = scheme
    comp = CompositeScheme(m, k=1, eta=1e-6)
    assert comp.threshold == 1
    note = comp.bank(rng)
    assert comp.verify(note, rng)


def test_composite_completeness_beats_chernoff(scheme):
    m, rng = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=0.2)
    comp = CompositeScheme(noisy, k=40, eta=0.1)
    bound = math.exp(-2 * 40 * 0.01)  # 0.449
    trials = 400
    note = comp.bank(rng)
    rejects = sum(not comp.verify(note, rng) for _ in range(trials))
    assert rejects / trials <= bound


def test_composite_exact_completeness_error(scheme):
    m, _ = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=0.2)
    eps = noisy.completeness_error
    # brute force over every accept/reject pattern of the k sub-verifications
    for k, eta in [(3, 0.1), (4, 0.1), (3, 0.25), (4, 0.25)]:
        comp = CompositeScheme(noisy, k=k, eta=eta)
        brute = 0.0
        for pattern in itertools.product((True, False), repeat=k):
            if sum(pattern) < comp.threshold:
                brute += math.prod((1 - eps) if a else eps for a in pattern)
        assert comp.exact_completeness_error() == pytest.approx(brute, rel=1e-12)
    assert CompositeScheme(noisy, k=60, eta=0.1).exact_completeness_error() == (
        pytest.approx(0.022068, abs=1e-6)
    )
    for k in (1, 5, 20, 60, 100):
        for eta in (0.05, 0.1, 0.2, 0.29):
            comp = CompositeScheme(noisy, k=k, eta=eta)
            assert comp.exact_completeness_error() <= comp.completeness_error_bound


@pytest.mark.parametrize("extra_reject", [0.0, 0.2, 1 / 3, 0.123456789, 0.44])
def test_exact_completeness_error_is_the_fraction_sum_bit_for_bit(scheme, extra_reject):
    m, _ = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=extra_reject)
    for k in (1, 2, 5, 60, 87, 250):
        for eta in (0.01, 0.03, 0.1, 0.25):
            if not eta < 0.5 - noisy.completeness_error:
                continue
            comp = CompositeScheme(noisy, k=k, eta=eta)
            want = dense_reference.binomial_tail(k, comp.threshold, noisy.completeness_error)
            got = comp.exact_completeness_error()
            assert got == want and math.copysign(1, got) == math.copysign(1, want)
    # eps = 0: no honest sub-note rejects, so neither does the composite
    if extra_reject == 0:
        assert CompositeScheme(noisy, k=9, eta=0.1).exact_completeness_error() == 0.0


def test_note_wire_format_roundtrip(tmp_path, scheme):
    m, rng = scheme
    signer = LamportMerkleSigner(tree_height=2)
    s = ComposedScheme(m, signer)
    sk, pk = s.keygen(rng)
    note = s.bank(sk, rng)
    state_path = str(tmp_path / "note.state")
    wire = money.note_to_wire(note.serial, note.state, state_path, note.signature)
    parsed = __import__("json").loads(wire)
    assert set(parsed) == {"serial", "sig", "state_ref"}
    serial, sig, state = money.note_from_wire(wire)
    assert serial == note.serial and sig == note.signature
    assert state.overlap(note.state) == pytest.approx(1.0, abs=1e-9)
    assert s.verify(pk, MoneyNote(serial, sig, state), rng)
    # signature field is optional on the wire
    wire2 = money.note_to_wire(note.serial, note.state, state_path)
    _, sig2, _ = money.note_from_wire(wire2)
    assert sig2 is None


def test_composite_reduction_attempt_shapes(scheme):
    m, rng = scheme
    noisy = ArtificiallyNoisyScheme(m, extra_reject=0.2)
    comp = CompositeScheme(noisy, k=8, eta=0.1)

    def cheat_counterfeiter(note: CompositeNote, rng):
        # clones every slot using the bundle's secret (test fixture)
        states = [m.target_state(s) for s in note.serials]
        return states, [StateVector(m.n, st.amps) for st in states]

    target = m.bank(rng)
    serial, s1, s2 = composite_reduction_attempt(comp, cheat_counterfeiter, target, rng)
    assert serial == target.serial
    assert verify2(m, serial, (s1, s2), rng)


def _noisy_composite(k, extra_reject=0.2, seed=64):
    rng = np.random.default_rng(seed)
    base = hsmini.HsMiniScheme(hsmini.OracleBundle(8, rng))
    noisy = ArtificiallyNoisyScheme(base, extra_reject=extra_reject)
    return base, noisy, CompositeScheme(noisy, k=k, eta=0.1), rng


def _junk(base, serial, member):
    # a basis state in the serial's subspace (p = 2^(-n/2)) or outside it (p = 0)
    sub = base.bundle.lookup(serial).subspace
    return StateVector.basis(base.n, next(x for x in range(1, 1 << base.n) if sub.contains(x) == member))


def _rank1_notes():
    base, noisy, comp, rng = _noisy_composite(k=12)
    honest = comp.bank(rng)
    serials, states = honest.serials, honest.states
    mixed = [states[0], _junk(base, serials[1], True), qsim.haar_random_state(8, rng),
             _junk(base, serials[3], False)] * 3
    unissued = bytes(len(serials[0]))
    assert base.bundle.lookup(unissued) is None
    return noisy, comp, {
        "honest": honest,
        "mixed": CompositeNote(serials, tuple(mixed)),
        "junk-members": CompositeNote(serials, tuple(_junk(base, s, True) for s in serials)),
        "p-zero": CompositeNote(serials, states[:5] + (_junk(base, serials[5], False),) + states[6:]),
        "unissued": CompositeNote((unissued,) + serials[1:], states),
        "empty": CompositeNote((), ()),
        "fewer-states": CompositeNote(serials, states[:5]),
        "fewer-serials": CompositeNote(serials[:5], states),
        "one-state-repeated-serial": CompositeNote((serials[0],) * len(serials), states[:1]),
        "lists": CompositeNote(list(serials), list(mixed)),
    }


def _coin_scheme(noisy, case):
    # a rank-1 scheme whose coins differ from the one 0.2 rejection
    return {
        "nested-two-coins": ArtificiallyNoisyScheme(noisy, extra_reject=0.3),
        "no-extra-reject": ArtificiallyNoisyScheme(noisy.base, extra_reject=0.0),
    }[case]


@pytest.mark.parametrize("case", ["honest", "mixed", "junk-members", "p-zero", "unissued", "empty",
                                  "fewer-states", "fewer-serials", "one-state-repeated-serial", "lists",
                                  "nested-two-coins", "no-extra-reject"])
def test_stacked_rank1_pass_matches_the_per_note_measurements(case):
    noisy, comp, notes = _rank1_notes()
    if case in notes:
        checked = [notes[case]]
    else:
        noisy = _coin_scheme(noisy, case)
        comp = CompositeScheme(noisy, k=12, eta=0.01)
        checked = [notes["honest"], notes["mixed"]]
    for note in checked:
        for seed in range(25):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = comp.count_accepts(note, rng_a)
            assert got == dense_reference.count_rank1_accepts(noisy, note.serials, note.states, rng_b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
    note = checked[0]
    if case in ("empty", "one-state-repeated-serial"):
        # only paired sub-notes are measured: one genuine state cannot stand
        # for every slot of a note that repeats its serial
        assert all(comp.count_accepts(note, np.random.default_rng(seed)) <= 1 for seed in range(25))
        assert not comp.verify(note, np.random.default_rng(0))
    if case == "unissued":
        # an unissued serial rejects without a draw
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert noisy.verify(note.serials[0], note.states[0], rng) is False
        assert rng.bit_generator.state == before


def test_single_rank1_verify_is_the_one_note_stacked_pass():
    noisy, _, notes = _rank1_notes()
    note = notes["mixed"]
    for seed in range(10):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [noisy.verify(s, st, rng_a) for s, st in zip(note.serials, note.states)]
        want = [dense_reference.count_rank1_accepts(noisy, [s], [st], rng_b) == 1
                for s, st in zip(note.serials, note.states)]
        assert got == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_classical_coins_are_tossed_in_order_while_each_passes():
    noisy, _, _ = _rank1_notes()
    nested = _coin_scheme(noisy, "nested-two-coins")
    assert nested.reject_rates == (0.3, 0.2)
    assert _coin_scheme(noisy, "no-extra-reject").reject_rates == (0.0,)
    for seed in range(50):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = rng_b.random() >= 0.3 and rng_b.random() >= 0.2
        assert nested.classical_accept(rng_a) == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("r", [1, 2, 7, 60])
def test_a_block_of_uniforms_is_the_scalar_draws(r):
    # the stacked pass draws its uniforms in blocks; numpy must give the
    # same doubles, and leave the same state, as one scalar call per draw
    for seed in range(5):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert rng_a.random(r).tolist() == [rng_b.random() for _ in range(r)]
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("k", [1, 4])
def test_composite_over_the_circuit_verifier_keeps_its_draws(k):
    rng = np.random.default_rng(65)
    base = hsmini.HsMiniScheme(hsmini.OracleBundle(8, rng))
    comp = CompositeScheme(base, k=k, eta=1e-6)
    honest = comp.bank(rng)
    notes = [honest, CompositeNote(honest.serials, tuple(_junk(base, s, True) for s in honest.serials))]
    for note in notes:
        for seed in range(10):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            queries = base.bundle.subspace_queries
            got = comp.count_accepts(note, rng_a)
            assert base.bundle.subspace_queries - queries == 2 * k
            assert got == sum(base.verify(s, st, rng_b) for s, st in zip(note.serials, note.states))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_composite_over_a_wrapped_scheme_checks_signatures_first(scheme):
    m, rng = scheme
    wrapper = WrappedAsMini(ComposedScheme(m, LamportMerkleSigner(tree_height=2)))
    comp = CompositeScheme(wrapper, k=3, eta=1e-6)
    honest = comp.bank(rng)
    pk, inner, sig = WrappedAsMini._unpack(honest.serials[1])
    forged = WrappedAsMini._pack([pk, inner, bytes([sig[0] ^ 1]) + sig[1:]])
    notes = [
        honest,
        CompositeNote((honest.serials[0], forged, honest.serials[2]), honest.states),
        CompositeNote(honest.serials, (honest.states[0], StateVector.basis(m.n, 0), honest.states[2])),
    ]
    for note, accepts in zip(notes, (3, 2, None)):
        for seed in range(10):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = comp.count_accepts(note, rng_a)
            assert got == sum(wrapper.verify(s, st, rng_b) for s, st in zip(note.serials, note.states))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert accepts is None or got == accepts


def test_stacked_targets_memo_holds_the_last_serial_tuple():
    base, noisy, comp, rng = _noisy_composite(k=6, extra_reject=0.0)
    a, b = comp.bank(rng), comp.bank(rng)
    comp.count_accepts(a, rng)
    assert noisy._stacked[0] == a.serials
    comp.count_accepts(b, rng)
    assert noisy._stacked[0] == b.serials
    assert noisy._stacked[2].nbytes == 6 * (1 << 8) * 16
    # equal serials, other states: the probabilities are taken afresh
    junk = CompositeNote(b.serials, tuple(_junk(base, s, False) for s in b.serials))
    assert comp.count_accepts(b, rng) == 6
    assert comp.count_accepts(junk, rng) == 0
    assert comp.count_accepts(b, rng) == 6


def test_probability_memo_is_keyed_on_serials_and_state_identity(monkeypatch):
    base, noisy, comp, rng = _noisy_composite(k=6, extra_reject=0.0)
    note = comp.bank(rng)
    contractions = []
    stacked_targets = ArtificiallyNoisyScheme._stacked_targets

    def spy(self, serials):
        contractions.append(serials)
        return stacked_targets(self, serials)

    monkeypatch.setattr(ArtificiallyNoisyScheme, "_stacked_targets", spy)
    for _ in range(5):
        assert comp.count_accepts(note, rng) == 6
    assert len(contractions) == 1
    # the same serials and state objects, held in lists: still memoised
    assert comp.count_accepts(CompositeNote(list(note.serials), list(note.states)), rng) == 6
    assert len(contractions) == 1
    # the same serials with another state tuple take fresh probabilities
    junk = CompositeNote(note.serials, tuple(_junk(base, s, False) for s in note.serials))
    assert comp.count_accepts(junk, rng) == 0
    copies = CompositeNote(note.serials, tuple(StateVector(base.n, s.amps) for s in note.states))
    assert comp.count_accepts(copies, rng) == 6
    assert comp.count_accepts(note, rng) == 6
    assert len(contractions) == 4
    # the memo holds the last note's states, so their ids are not reused
    assert noisy._probs[2] == note.states


def test_reduction_notes_build_their_stacked_targets_once(monkeypatch):
    # the completeness note, then 200 reduction notes each verified twice
    builds = []
    stacked_targets = ArtificiallyNoisyScheme._stacked_targets

    def spy(self, serials):
        memo = self._stacked
        out = stacked_targets(self, serials)
        if self._stacked is not memo:
            builds.append((serials, self._stacked[2].nbytes))
        return out

    monkeypatch.setattr(ArtificiallyNoisyScheme, "_stacked_targets", spy)
    cfg = experiments.ExperimentConfig(
        experiment="completeness-amplification", n=8, eps=0.2, k=60, eta=0.1, trials=3, seed=113,
    )
    experiments.run_experiment(cfg)
    assert len(builds) == 1 + 200
    assert len({serials for serials, _ in builds}) == 201
    assert all(nbytes == 60 * (1 << 8) * 16 for _, nbytes in builds)


def _on_an_hs_note(verify):
    """The verdicts of verify(m, serial, state, rng) on an honest note of the
    bundle scheme m and on a basis state off the note's subspace."""
    def verdicts(m, rng):
        note = m.bank(rng)
        return [verify(m, note.serial, s, rng) for s in (note.state, _orthogonal_junk(m, note))]
    return verdicts


def _two_basis(m, serial, state, rng):
    sub = m.bundle.lookup(serial).subspace
    primal, dual = (qsim.Projector.from_mask(m.n, qsim.subspace_mask(a)) for a in (sub, sub.dual()))
    return qsim.verify_two_basis(primal, dual, state, rng)


def _composed(m, serial, state, rng):
    s = ComposedScheme(m, LamportMerkleSigner(tree_height=2))
    sk, pk = s.keygen(rng)
    return s.verify(pk, MoneyNote(serial, s.signer.sign(sk, serial), state), rng)


def _wrapped_as_mini(m, serial, state, rng):
    s = ComposedScheme(m, LamportMerkleSigner(tree_height=2))
    sk, pk = s.keygen(rng)
    return WrappedAsMini(s).verify(WrappedAsMini._pack([pk, serial, s.signer.sign(sk, serial)]), state, rng)


def _explicit_verdicts(m, rng):
    note, secret = polyhide.bank_explicit_with_secret(8, 4, 0.25, 12.0, rng)
    junk = StateVector.basis(8, next(x for x in range(1, 256) if not secret.contains(x)))
    return [polyhide.verify_explicit(polyhide.ExplicitNote(note.primal_system, note.dual_system, st), rng)
            for st in (note.state, junk)]


@pytest.mark.parametrize(
    "verdicts",
    [
        _on_an_hs_note(_two_basis),
        _on_an_hs_note(lambda m, *args: hsmini.verify_circuit(m.bundle, *args)),
        _on_an_hs_note(hsmini.HsMiniScheme.verify),
        _on_an_hs_note(money.MiniScheme.verify),
        _on_an_hs_note(lambda m, *args: ArtificiallyNoisyScheme(m, extra_reject=0.0).verify(*args)),
        _on_an_hs_note(_composed),
        _on_an_hs_note(_wrapped_as_mini),
        _explicit_verdicts,
    ],
    ids=["verify_two_basis", "verify_circuit", "HsMiniScheme.verify", "MiniScheme.verify",
         "ArtificiallyNoisyScheme.verify", "ComposedScheme.verify", "WrappedAsMini.verify", "verify_explicit"],
)
def test_each_verifier_returns_a_bool(scheme, verdicts):
    # a leftover (ok, post) tuple is truthy whatever the verdict
    m, rng = scheme
    honest, junk = verdicts(m, rng)
    assert type(honest) is bool and type(junk) is bool
    assert (honest, junk) == (True, False)
