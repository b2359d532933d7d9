"""Wiesner scheme, adaptive attack, cloning baselines, keyed variant."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hsmoney import privkey
from hsmoney.privkey import (
    KeyedSubspaceBank,
    adaptive_attack,
    default_samples_per_candidate,
    measure_resend_clone,
    measure_resend_per_qubit_exact,
    random_guess_per_qubit_exact,
    transplanted_adaptive_attack,
    wiesner_bank,
)
from hsmoney.qsim import StateVector, subspace_state


def test_honest_verification_non_demolition():
    rng = np.random.default_rng(110)
    bank, note = wiesner_bank(12, rng)
    for _ in range(50):
        ok, post = bank.verify(note.serial, note.qubits, rng)
        assert ok
        assert post == note.qubits


def test_unknown_serial_raises():
    rng = np.random.default_rng(111)
    bank, note = wiesner_bank(4, rng)
    with pytest.raises(KeyError):
        bank.verify(b"missing!", note.qubits, rng)


@pytest.mark.parametrize(
    "submit",
    [
        lambda q: [],
        lambda q: q[:3],
        lambda q: q + [q[0]],
        lambda q: q[:-1] + [4],
        lambda q: q[:-1] + [-1],
        lambda q: q[:-1] + [1.5],
    ],
    ids=["empty", "prefix", "extra-qubit", "code-4", "code-minus-1", "code-1.5"],
)
def test_malformed_submission_is_rejected_unmeasured(submit):
    # the bank measures every qubit of the note, so a note of another length
    # or with a code outside the four states never passes, and draws nothing
    rng = np.random.default_rng(117)
    bank, note = wiesner_bank(16, rng)
    qubits = submit(list(note.qubits))
    before = rng.bit_generator.state
    ok, post = bank.verify(note.serial, qubits, rng)
    assert not ok and post == qubits
    assert rng.bit_generator.state == before
    assert bank.verify_queries == 1


def test_single_wrong_basis_qubit_half_rate():
    rng = np.random.default_rng(112)
    bank, note = wiesner_bank(8, rng)
    record = bank.record_for(note.serial)
    probe = list(record)
    # replace qubit 0 with a wrong-basis state
    probe[0] = 2 if record[0] in (0, 1) else 0
    trials = 4000
    hits = sum(bank.verify(note.serial, probe, rng)[0] for _ in range(trials))
    sigma = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) < 4 * sigma


def test_random_product_note_rate():
    # uniformly random four-state guesses pass each qubit with probability 1/2
    rng = np.random.default_rng(113)
    assert random_guess_per_qubit_exact() == Fraction(1, 2)
    n = 8
    trials = 20_000
    hits = 0
    bank, note = wiesner_bank(n, rng)
    for _ in range(trials):
        guess = [int(q) for q in rng.integers(0, 4, size=n)]
        hits += bank.verify(note.serial, guess, rng)[0]
    want = 0.5 ** n
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(hits / trials - want) < 4 * sigma


def test_candidate_pass_rates_enumerated():
    # candidates against an honest bank: exactly {1, 1/2, 1/2, 0}
    for r in range(4):
        rates = sorted(float(privkey.overlap2(r, b)) for b in range(4))
        assert rates == [0.0, 0.5, 0.5, 1.0]


def test_measure_resend_per_qubit():
    assert measure_resend_per_qubit_exact() == Fraction(5, 8)


def test_measure_resend_empirical_product():
    rng = np.random.default_rng(114)
    n = 4
    trials = 8000
    hits = 0
    for _ in range(trials):
        bank, note = wiesner_bank(n, rng)
        c1, c2 = measure_resend_clone(note, rng)
        ok1, _ = bank.verify(note.serial, c1.qubits, rng)
        ok2, _ = bank.verify(note.serial, c2.qubits, rng)
        hits += ok1 and ok2
    want = (5 / 8) ** n
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(hits / trials - want) < 4 * sigma


def test_adaptive_attack_n16():
    rng = np.random.default_rng(115)
    wins = 0
    trials = 40
    for _ in range(trials):
        bank, note = wiesner_bank(16, rng)
        res = adaptive_attack(bank, note, 24, rng)
        record = list(bank.record_for(note.serial))
        wins += res.recovered == record
        assert res.queries == 16 * 4 * 24
    assert wins / trials >= 0.9
    # forged note passes
    ok, _ = bank.verify(note.serial, res.recovered, rng)
    assert ok or wins < trials  # forged passes whenever recovery was exact


def test_adaptive_attack_n1_rates():
    rng = np.random.default_rng(116)
    bank, note = wiesner_bank(1, rng)
    res = adaptive_attack(bank, note, 400, rng)
    r = bank.record_for(note.serial)[0]
    assert res.rates[0, r] == 1.0
    assert res.rates[0, privkey._ORTH[r]] == 0.0
    others = [b for b in range(4) if b not in (r, privkey._ORTH[r])]
    for b in others:
        assert abs(res.rates[0, b] - 0.5) < 0.1


def test_default_samples_budget():
    n = 16
    assert default_samples_per_candidate(n) == math.ceil(8 * math.log2(64))


def test_optimized_cloner_reaches_three_quarters():
    rng = np.random.default_rng(117)
    res = privkey.optimize_cloning_channel(rng)
    assert abs(res.value - 0.75) <= 0.01
    # isometry columns orthonormal
    v = res.isometry
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-8)


def test_polar_ascent_reaches_three_quarters_from_every_start():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        res = privkey.optimize_cloning_channel(rng)
        assert abs(res.value - 0.75) <= 1e-9, seed
        assert res.value == privkey._cloner_score(res.isometry, 2)
        v = res.isometry
        assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-10, seed


def test_polar_ascent_draws_one_start_and_nothing_else():
    rng = np.random.default_rng(21)
    privkey.optimize_cloning_channel(rng)
    reference = np.random.default_rng(21)
    reference.normal(size=32)
    assert rng.bit_generator.state == reference.bit_generator.state


def _choi(v: np.ndarray, ancilla: int) -> np.ndarray:
    """Choi matrix sum_ij |i><j| x Tr_anc(V |i><j| V^dag) of the channel of V."""
    cols = v.reshape(4, ancilla, 2)  # (copies, ancilla, input)
    return np.einsum("pai,qaj->ipjq", cols, cols.conj()).reshape(8, 8)


def test_cloning_objective_choi_is_the_cloner_score():
    q = np.array(privkey.cloning_objective_choi(), dtype=float)
    assert all(x.denominator <= 16 for row in privkey.cloning_objective_choi() for x in row)
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = privkey._isometry_from_params(rng.normal(size=32), 8)
        assert abs(np.trace(q @ _choi(v, 2)).real - privkey._cloner_score(v, 2)) <= 1e-12
    v = privkey.optimize_cloning_channel(rng).isometry
    assert abs(np.trace(q @ _choi(v, 2)).real - 0.75) <= 1e-12


def test_cloning_ceiling_is_certified_exactly():
    assert privkey.certify_cloning_ceiling() == Fraction(3, 4)
    # 3/8 is the largest eigenvalue of Q: any smaller multiple of I fails
    for y in (Fraction(5, 16), Fraction(3, 8) - Fraction(1, 2 ** 40)):
        with pytest.raises(ValueError, match="not PSD"):
            privkey.certify_cloning_ceiling(y)
    assert privkey.certify_cloning_ceiling(Fraction(1, 2)) == 1


def test_exact_psd_check():
    f = Fraction
    assert privkey._is_psd_exact([[f(1), f(1)], [f(1), f(1)]])
    assert not privkey._is_psd_exact([[f(1), f(2)], [f(2), f(1)]])
    # a zero pivot with a nonzero row is indefinite
    assert not privkey._is_psd_exact([[f(0), f(1)], [f(1), f(1)]])
    assert privkey._is_psd_exact([[f(0), f(0)], [f(0), f(0)]])
    assert not privkey._is_psd_exact([[f(-1, 3)]])


def test_keyed_bank_determinism_and_completeness():
    rng = np.random.default_rng(118)
    bank = KeyedSubspaceBank(8, b"secret-key")
    serial, state = bank.mint(rng)
    assert bank.subspace_for(serial) == bank.subspace_for(serial)
    other = KeyedSubspaceBank(8, b"secret-key")
    assert other.subspace_for(serial) == bank.subspace_for(serial)
    ok, post = bank.verify(serial, state, rng)
    assert ok
    # projective: repeated verification accepts forever
    for _ in range(30):
        ok, post = bank.verify(serial, post, rng)
        assert ok


def test_keyed_verify_measures_the_low_register_of_a_larger_state():
    rng = np.random.default_rng(123)
    bank = KeyedSubspaceBank(6, b"register")
    serial, state = bank.mint(rng)
    ancilla = StateVector(2, np.array([0.6, 0.0, 0.0, 0.8j]))
    ok, post = bank.verify(serial, state.tensor(ancilla), rng)
    assert ok and post.n_qubits == 8
    assert post.overlap(state.tensor(ancilla)) == pytest.approx(1.0, abs=1e-12)
    # a junk low register is rejected and the top qubits are left alone
    junk = StateVector.basis(6, next(x for x in range(1 << 6) if not bank.subspace_for(serial).contains(x)))
    ok, post = bank.verify(serial, junk.tensor(ancilla), rng)
    assert not ok
    assert post.overlap(junk.tensor(ancilla)) == pytest.approx(1.0, abs=1e-12)
    assert bank.verify_queries == 2


def test_keyed_neighbor_quarter():
    rng = np.random.default_rng(119)
    bank = KeyedSubspaceBank(8, b"k2")
    serial, state = bank.mint(rng)
    a = bank.subspace_for(serial)
    from hsmoney.f2lin import Subspace

    keep = list(a.basis[:3])
    while True:
        x = int(rng.integers(0, 1 << 8))
        if not a.contains(x):
            break
    b_state = subspace_state(Subspace.from_rows(keep + [x], 8))
    trials = 2000
    hits = sum(bank.verify(serial, b_state, rng)[0] for _ in range(trials))
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(hits / trials - 0.25) < 4 * sigma


def test_keyed_backends_agree_statistically():
    rng = np.random.default_rng(120)
    prf = KeyedSubspaceBank(8, b"kk", backend="prf")
    rand = KeyedSubspaceBank(8, b"kk", backend="random", rng=np.random.default_rng(7))
    # dims and completeness identical; dual-dim identity holds in both
    for i in range(20):
        serial = bytes([i])
        for bank in (prf, rand):
            sub = bank.subspace_for(serial)
            assert sub.dim == 4
            assert sub.dual().dual() == sub
    # honest verification accepts in both backends
    for bank in (prf, rand):
        serial, state = bank.mint(rng)
        assert bank.verify(serial, state, rng)[0]


def test_transplanted_attack_no_signal():
    rng = np.random.default_rng(121)
    bank = KeyedSubspaceBank(8, b"contrast")
    serial, state = bank.mint(rng)
    res = transplanted_adaptive_attack(bank, serial, state, 24, rng)
    assert res.queries == 8 * 4 * 24
    spreads = res.rates.max(axis=1) - res.rates.min(axis=1)
    # nothing close to the Wiesner signature spread of 1.0
    assert spreads.max() < 0.5
    # forging from the recovered candidates fails at chance scale
    forged = state_from_codes(res.recovered)
    passes = sum(bank.verify(serial, forged, rng)[0] for _ in range(300))
    assert passes / 300 <= 0.2


def state_from_codes(codes):
    out = StateVector(1, privkey.BB84_VECTORS[codes[0]].copy())
    for c in codes[1:]:
        out = out.tensor(StateVector(1, privkey.BB84_VECTORS[c].copy()))
    return out


def test_swap_and_discard_helpers():
    rng = np.random.default_rng(122)
    from hsmoney.qsim import haar_random_state

    psi = haar_random_state(3, rng)
    ext = privkey._insert_candidate(psi, 1, 2)
    assert ext.n_qubits == 4
    back = privkey._swap_qubits(ext.amps, 4, 1, 3)
    # dropping the ancilla after swapping back recovers the original state
    restored = privkey._discard_top_qubit(StateVector._wrap(4, back), rng)
    assert restored.overlap(psi) == pytest.approx(1.0, abs=1e-9)
