"""Oracle bundle, four-step verifier, and instance randomization."""

import math
import tracemalloc

import numpy as np
import pytest

import dense_reference
from hsmoney import f2lin, hsmini, qsim
from hsmoney.f2lin import Subspace
from hsmoney.qsim import PhaseOracle, StateVector, subspace_mask, subspace_state


@pytest.fixture
def bundle():
    rng = np.random.default_rng(70)
    return hsmini.OracleBundle(8, rng), rng


def test_generator_memoized(bundle):
    b, rng = bundle
    s1, a1 = b.generator(42)
    s2, a2 = b.generator(42)
    assert s1 == s2 and a1 == a2
    assert a1.dim == 4
    assert len(s1) == (3 * 8 + 7) // 8


def test_serials_distinct(bundle):
    b, rng = bundle
    serials = {b.generator(r)[0] for r in range(64)}
    assert len(serials) == 64


def test_serial_checker(bundle):
    b, rng = bundle
    s, _ = b.generator(7)
    assert b.check_serial(s)
    fresh_invalid = 0
    trials = 2000
    for _ in range(trials):
        cand = hsmini._sample_serial(8, rng)
        if not b.check_serial(cand):
            fresh_invalid += 1
    assert fresh_invalid / trials >= 1 - 2 ** -8


def _tester_pair(b, serial):
    """Phase oracles for the serial's subspace and its dual."""
    a = b.lookup(serial).subspace
    return PhaseOracle(b.n, subspace_mask(a), "T_primal"), PhaseOracle(b.n, subspace_mask(a.dual()), "T_dual")


def test_primal_oracle_flips_exactly_members(bundle):
    b, rng = bundle
    s, a = b.generator(3)
    oracle, dual_oracle = _tester_pair(b, s)
    members = set(dense_reference.members(a))
    assert set(np.flatnonzero(oracle.mask)) == members
    assert set(np.flatnonzero(dual_oracle.mask)) == set(dense_reference.members(a.dual()))


def test_bank_and_verify_honest(bundle):
    b, rng = bundle
    for _ in range(20):
        note = hsmini.bank(b, rng)
        assert hsmini.verify_circuit(b, note.serial, note.state, rng)
        ok, post = dense_reference.verify_circuit(b, note.serial, note.state, rng)
        assert ok
        assert post.overlap(note.state) == pytest.approx(1.0, abs=1e-9)


def test_bank_note_shape(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    nz = np.abs(note.state.amps) > 1e-12
    assert nz.sum() == 2 ** 4
    vals = note.state.amps[nz]
    assert np.allclose(vals, vals[0])


def test_verify_charges_two_subspace_queries(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    before = dense_reference.subspace_queries(b)
    hsmini.verify_circuit(b, note.serial, note.state, rng)
    assert dense_reference.subspace_queries(b) == before + 2


def test_verify_builds_no_dual_subspace(monkeypatch):
    # the dual query is a rank-1 measurement on A's span, charged to the dual
    # tester's counter; no A_perp is built. The benchmark tracer counts the
    # queries whose oracle label starts with T_
    def run(patched):
        rng = np.random.default_rng(76)
        scheme = hsmini.HsMiniScheme(hsmini.OracleBundle(8, rng))
        note = scheme.bank(rng)
        states = (note.state, _junk_state(scheme.bundle, note.serial))
        if patched:
            monkeypatch.setattr(Subspace, "dual", lambda self: pytest.fail("verify built a dual subspace"))
        steps = [(scheme.verify(note.serial, s, rng), rng.bit_generator.state,
                  dense_reference.subspace_queries(scheme.bundle)) for s in states]
        monkeypatch.undo()
        return steps, scheme.bundle

    steps, bundle = run(patched=True)
    assert steps == run(patched=False)[0]
    assert [(ok, queries) for ok, _, queries in steps] == [(True, 2), (False, 4)]
    assert bundle.primal_tester.label.startswith("T_") and bundle.dual_tester.label.startswith("T_")


def test_verify_invalid_serial_rejects(bundle):
    # H rejects the serial before any tester query or draw
    b, rng = bundle
    note = hsmini.bank(b, rng)
    state = rng.bit_generator.state
    assert not hsmini.verify_circuit(b, b"\xff" * 3, note.state, rng)
    assert dense_reference.subspace_queries(b) == 0 and rng.bit_generator.state == state


def test_verify_orthogonal_rejects(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    entry = b.lookup(note.serial)
    outside = next(x for x in range(1 << 8) if not entry.subspace.contains(x))
    for _ in range(20):
        assert not hsmini.verify_circuit(b, note.serial, StateVector.basis(8, outside), rng)


def test_verify_neighbor_quarter_rate(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    a = b.lookup(note.serial).subspace
    keep = list(a.basis[:3])
    while True:
        x = int(rng.integers(0, 1 << 8))
        if not a.contains(x):
            break
    nb = Subspace.from_rows(keep + [x], 8)
    state = subspace_state(nb)
    trials = 1500
    hits = sum(hsmini.verify_circuit(b, note.serial, state, rng) for _ in range(trials))
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(hits / trials - 0.25) < 4 * sigma


def test_verifier_operator_distance_small(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    assert hsmini.verifier_operator_distance(b, note.serial) < 1e-9


def test_projector_idempotent_and_dual_acceptance(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    p = qsim.Projector.onto_state(b.lookup(note.serial).money_state())
    once = p.project(note.state.amps)
    twice = p.project(once)
    assert np.allclose(once, twice)
    # Hadamard-transformed dual state is exactly the money state
    entry = b.lookup(note.serial)
    from hsmoney.qsim import hadamard_all

    dual_state = hadamard_all(subspace_state(entry.subspace.dual()))
    assert np.linalg.norm(p.project(dual_state.amps)) == pytest.approx(1.0, abs=1e-9)


def test_randomize_instance_identity_map(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    a = b.lookup(note.serial).subspace
    inst = hsmini.randomize_instance(a, note.state, _tester_pair(b, note.serial), rng)
    # conjugated primal flips exactly f(A)
    assert set(np.flatnonzero(inst.primal.mask)) == set(dense_reference.members(inst.subspace))
    assert set(np.flatnonzero(inst.dual.mask)) == set(dense_reference.members(inst.subspace.dual()))
    # relabeled state is the new subspace state
    assert inst.state.overlap(subspace_state(inst.subspace)) == pytest.approx(1.0, abs=1e-9)
    # round trip
    undone = inst.undo_state(inst.state)
    assert undone.overlap(note.state) == pytest.approx(1.0, abs=1e-9)


def test_randomize_instance_charges_base(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    a = b.lookup(note.serial).subspace
    pair = _tester_pair(b, note.serial)
    inst = hsmini.randomize_instance(a, note.state, pair, rng)
    inst.primal.apply(inst.state)
    assert pair[0].query_count == 1


def test_randomize_verification_statistics_roundtrip(bundle):
    # verifying the randomized instance with relabeled oracles behaves like
    # verifying the original
    b, rng = bundle
    note = hsmini.bank(b, rng)
    a = b.lookup(note.serial).subspace
    inst = hsmini.randomize_instance(a, note.state, _tester_pair(b, note.serial), rng)
    from hsmoney.qsim import Projector, hadamard_all, measure_projector

    hits = 0
    trials = 50
    for _ in range(trials):
        p1 = Projector.from_mask(8, inst.primal.mask)
        ok1, s, _ = measure_projector(p1, inst.state, rng)
        s = hadamard_all(s)
        p2 = Projector.from_mask(8, inst.dual.mask)
        ok2, s, _ = measure_projector(p2, s, rng)
        hits += ok1 and ok2
    assert hits == trials


def test_snapshot_roundtrip(bundle):
    b, rng = bundle
    b.generator(1)
    b.generator(2)
    text = b.export_json()
    back = hsmini.OracleBundle.import_json(text, np.random.default_rng(0))
    assert back.export_json() == text


def test_mini_scheme_interface(bundle):
    b, rng = bundle
    scheme = hsmini.HsMiniScheme(b)
    note = scheme.bank(rng)
    assert scheme.verify(note.serial, note.state, rng)
    target = scheme.target_state(note.serial)
    assert target.overlap(note.state) == pytest.approx(1.0)
    assert scheme.target_state(b"nope") is None


def _member_memo_cases(bundle):
    # serials issued through G alone, so that no money state is built yet;
    # `bank` fills the memo itself (see the test after these)
    b, rng = bundle
    scheme = hsmini.HsMiniScheme(b)
    serials = [b.generator(r)[0] for r in (3, 17, 40, 200)]
    restored = hsmini.OracleBundle.import_json(b.export_json(), np.random.default_rng(0))
    return [(scheme, serials), (hsmini.HsMiniScheme(restored), serials)]


def test_target_state_memo_matches_subspace_state(bundle):
    for scheme, serials in _member_memo_cases(bundle):
        for serial in serials:
            entry = scheme.bundle.lookup(serial)
            want = subspace_state(entry.subspace).amps
            for _ in range(3):
                assert np.array_equal(scheme.target_state(serial).amps, want)
            assert not entry.members.flags.writeable
            with pytest.raises(ValueError):
                entry.members[0] = 1
        assert scheme.target_state(b"\x00" * 3) is None


def test_target_state_enumerates_each_serial_once(bundle, monkeypatch):
    for scheme, serials in _member_memo_cases(bundle):
        assert all(scheme.bundle.lookup(s).members is None for s in serials)
        enumerated = []
        member_array = Subspace.member_array

        def counted(sub):
            enumerated.append(sub)
            return member_array(sub)

        monkeypatch.setattr(Subspace, "member_array", counted)
        for _ in range(3):
            for serial in serials:
                scheme.target_state(serial)
        assert enumerated == [scheme.bundle.lookup(s).subspace for s in serials]
        monkeypatch.undo()


def test_bank_and_target_state_share_the_member_memo(bundle, monkeypatch):
    b, rng = bundle
    scheme = hsmini.HsMiniScheme(b)
    enumerated = []
    member_array = Subspace.member_array

    def counted(sub):
        enumerated.append(sub)
        return member_array(sub)

    monkeypatch.setattr(Subspace, "member_array", counted)
    # n=8 leaves 256 values of r, so 40 draws re-mint some serials
    notes = [hsmini.bank(b, rng) for _ in range(40)]
    serials = list(dict.fromkeys(note.serial for note in notes))
    assert len(serials) < len(notes)
    targets = [scheme.target_state(note.serial) for note in notes]
    assert enumerated == [b.lookup(s).subspace for s in serials]
    monkeypatch.undo()
    for note, target in zip(notes, targets):
        want = subspace_state(b.lookup(note.serial).subspace).amps
        assert np.array_equal(note.state.amps, want)
        assert np.array_equal(target.amps, want)


def test_bank_draws_are_unchanged_by_the_memo():
    # r comes from one rng.integers draw per note, and G's draws happen on a
    # fresh r only, so a fixed seed mints the same serials and states
    rng = np.random.default_rng(73)
    b = hsmini.OracleBundle(8, rng)
    notes = [hsmini.bank(b, rng) for _ in range(30)]
    replay = np.random.default_rng(73)
    b2 = hsmini.OracleBundle(8, replay)
    for note in notes:
        serial, sub = b2.generator(int(replay.integers(0, 1 << 8)))
        assert serial == note.serial
        assert np.array_equal(subspace_state(sub).amps, note.state.amps)
    assert rng.bit_generator.state == replay.bit_generator.state


def _junk_state(b, serial):
    sub = b.lookup(serial).subspace
    return StateVector.basis(8, next(x for x in range(1, 256) if not sub.contains(x)))


@pytest.mark.parametrize(
    "case, accepts, transforms",
    [
        (lambda b, note: (note.serial, note.state), True, (0, 2)),
        (lambda b, note: (note.serial, _junk_state(b, note.serial)), False, (0, 2)),
        (lambda b, note: (b"\xff" * 3, note.state), False, (0, 0)),
    ],
    ids=["honest", "junk-basis-state", "invalid-serial"],
)
def test_verify_is_the_reference_circuit_without_the_transforms(case, accepts, transforms, monkeypatch):
    wht = qsim.walsh_hadamard_raw
    runs = []
    for boolean in (True, False):
        rng = np.random.default_rng(74)
        b = hsmini.OracleBundle(8, rng)
        scheme = hsmini.HsMiniScheme(b)
        serial, state = case(b, scheme.bank(rng))
        calls = []
        monkeypatch.setattr(qsim, "walsh_hadamard_raw", lambda a: calls.append(1) or wht(a))
        ok = scheme.verify(serial, state, rng) if boolean else dense_reference.verify_circuit(b, serial, state, rng)[0]
        monkeypatch.undo()
        queries = (b.g_queries, b.h_queries, b.primal_tester.query_count, b.dual_tester.query_count)
        runs.append((ok, rng.bit_generator.state, queries, len(calls)))
    assert runs[0][0] == runs[1][0] == accepts
    assert runs[0][1:3] == runs[1][1:3]
    assert (runs[0][3], runs[1][3]) == transforms


def _differential_state(kind, b, note, rng):
    """(serial, state) of one kind for the boolean-versus-circuit check."""
    n, amps = b.n, note.state.amps
    if kind == "honest":
        return note.serial, note.state
    if kind == "phase-perturbed":
        return note.serial, StateVector(n, amps * np.exp(1j * rng.normal(0.0, 0.4, 1 << n)))
    if kind == "perturbed-2pct":
        noise = qsim.haar_random_state(n, rng).amps
        v = amps + 0.02 * noise
        return note.serial, StateVector(n, v / np.linalg.norm(v))
    if kind == "haar":
        return note.serial, qsim.haar_random_state(n, rng)
    if kind in ("junk-basis-state", "half-junk"):
        sub = b.lookup(note.serial).subspace
        outside = [x for x in range(1 << n) if not sub.contains(x)]
        junk = StateVector.basis(n, outside[int(rng.integers(len(outside)))])
        if kind == "junk-basis-state":
            return note.serial, junk
        # half its weight off A: the primal projection changes the state
        _, perturbed = _differential_state("phase-perturbed", b, note, rng)
        return note.serial, StateVector(n, (perturbed.amps + junk.amps) / np.sqrt(2.0))
    if kind == "inside-a-nonuniform":
        # all weight on A, so the primal test accepts, but not uniform, so
        # the dual test can reject
        members = b.lookup(note.serial).member_indices()
        v = np.zeros(1 << n, dtype=np.complex128)
        v[members] = rng.normal(size=len(members)) + 1j * rng.normal(size=len(members))
        return note.serial, StateVector(n, v / np.linalg.norm(v))
    if kind == "a-plus-outside":
        # (|A> + |x>) / sqrt(2) for one x outside A: p1 = 1/2, then dual = 1
        sub = b.lookup(note.serial).subspace
        x = next(x for x in range(1, 1 << n) if not sub.contains(x))
        return note.serial, StateVector(n, (amps + StateVector.basis(n, x).amps) / np.sqrt(2.0))
    assert kind == "unissued-serial"
    serial = bytes(len(note.serial))
    while b.lookup(serial) is not None:
        serial = bytes([serial[0] + 1]) + serial[1:]
    return serial, note.state


_DIFFERENTIAL_KINDS = (
    "honest", "phase-perturbed", "perturbed-2pct", "haar", "junk-basis-state", "half-junk",
    "inside-a-nonuniform", "a-plus-outside", "unissued-serial",
)


@pytest.mark.parametrize("n, seeds", [(2, range(30)), (8, range(30)), (16, range(2))], ids=["n2", "n8", "n16"])
def test_boolean_verify_matches_the_full_circuit(n, seeds):
    # the boolean verifier measures in a frame of A's members plus one
    # remainder amplitude, with no transform (at n=2 the frame has 2 qubits);
    # its verdict, draws and query charges must be the four-step circuit's
    verdicts = set()
    for seed in seeds:
        b = hsmini.OracleBundle(n, np.random.default_rng(seed))
        note = hsmini.bank(b, np.random.default_rng([seed, 1]))
        for kind in _DIFFERENTIAL_KINDS:
            serial, state = _differential_state(kind, b, note, np.random.default_rng([seed, 2]))
            runs = []
            for verify in (lambda *a: dense_reference.verify_circuit(*a)[0], hsmini.verify_circuit):
                rng = np.random.default_rng([seed, 3])
                before = (b.primal_tester.query_count, b.dual_tester.query_count)
                ok = verify(b, serial, state, rng)
                queries = (b.primal_tester.query_count - before[0], b.dual_tester.query_count - before[1])
                runs.append((ok, rng.bit_generator.state, queries))
            assert runs[0] == runs[1], (seed, kind)
            assert runs[0][2] == ((0, 0) if kind == "unissued-serial" else (1, 1))
            verdicts.add((kind, runs[0][0]))
    # the cases reach both verdicts wherever the state allows it
    assert {("honest", True), ("junk-basis-state", False), ("unissued-serial", False)} <= verdicts
    if n < 16:
        assert {("inside-a-nonuniform", True), ("inside-a-nonuniform", False), ("a-plus-outside", True),
                ("a-plus-outside", False)} <= verdicts
    if n == 8:
        assert {("phase-perturbed", True), ("phase-perturbed", False), ("half-junk", True),
                ("half-junk", False)} <= verdicts


def test_verify_allocates_no_dense_array():
    # one n=16 verification measures an 8 KiB frame; a single 2^16-amplitude
    # array would be 1 MiB
    rng = np.random.default_rng(77)
    b = hsmini.OracleBundle(16, rng)
    note = hsmini.bank(b, rng)
    states = (note.state, _differential_state("junk-basis-state", b, note, rng)[1])
    hsmini.verify_circuit(b, note.serial, note.state, rng)  # builds the bundle's frame tests
    for state in states:
        tracemalloc.start()
        try:
            hsmini.verify_circuit(b, note.serial, state, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_minting_and_verifying_an_honest_note_builds_no_dense_array():
    # the note is its serial's member memo; the verifier's frame reads the
    # members, not 2^16 amplitudes (1 MiB)
    tracemalloc.start()
    try:
        rng = np.random.default_rng(79)
        b = hsmini.OracleBundle(16, rng)
        note = hsmini.bank(b, rng)
        assert all(hsmini.verify_circuit(b, note.serial, note.state, rng) for _ in range(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert note.state.members is b.lookup(note.serial).members and note.state._amps is None


def test_an_honest_note_verifies_as_its_dense_copy_does():
    # the frame's first half is |A|^(-1/2) either way: the same draws and charges
    rng = np.random.default_rng(80)
    b = hsmini.OracleBundle(8, rng)
    note = hsmini.bank(b, rng)
    dense = StateVector(8, note.state.amps.copy())
    assert dense.members is None
    runs = []
    for state in (note.state, dense):
        draws = np.random.default_rng(81)
        before = (b.primal_tester.query_count, b.dual_tester.query_count)
        verdicts = [hsmini.verify_circuit(b, note.serial, state, draws) for _ in range(20)]
        after = (b.primal_tester.query_count, b.dual_tester.query_count)
        runs.append((verdicts, draws.bit_generator.state, after[0] - before[0], after[1] - before[1]))
    assert runs[0] == runs[1]
    assert runs[0][0] == [True] * 20 and runs[0][2:] == (20, 20)


def test_primal_rejection_inside_a_does_not_raise():
    # a state inside A whose norm is 1 - 1e-12 rejects the primal test only
    # on a draw above 1 - 2e-12. The dense circuit's rejected branch is then
    # the zero vector and raises; the frame's remainder amplitude is 1.4e-6
    class LastDraw:
        def random(self):
            return np.nextafter(1.0, 0.0)

    rng = np.random.default_rng(78)
    b = hsmini.OracleBundle(8, rng)
    note = hsmini.bank(b, rng)
    short = StateVector(8, note.state.amps * (1 - 1e-12))
    assert not hsmini.verify_circuit(b, note.serial, short, LastDraw())
    with pytest.raises(ValueError, match="zero-probability branch"):
        dense_reference.verify_circuit(b, note.serial, short, LastDraw())
    assert (b.primal_tester.query_count, b.dual_tester.query_count) == (2, 1)


def test_verify_rejects_a_state_of_another_size(bundle):
    b, rng = bundle
    note = hsmini.bank(b, rng)
    with pytest.raises(ValueError, match="sizes differ"):
        hsmini.verify_circuit(b, note.serial, StateVector.basis(6, 0), rng)


def test_neighbor_collision_bound_sampled():
    # for random neighbors B of A, no point outside the combined member sets
    # is hit much more often than 2^{-n/2}
    n = 12
    rng = np.random.default_rng(72)
    a = f2lin.random_subspace(n, n // 2, rng)
    from hsmoney.advlab import SubspaceNeighborRelation

    rel = SubspaceNeighborRelation(n)
    probes = []
    a_star = set(dense_reference.members(a)) | {x | (1 << n) for x in dense_reference.members(a.dual())}
    while len(probes) < 40:
        x = int(rng.integers(0, 1 << (n + 1)))
        if x not in a_star:
            probes.append(x)
    samples = 1500
    counts = np.zeros(len(probes))
    for _ in range(samples):
        nb = rel._neighbor(a, rng)
        nb_star = None
        for j, x in enumerate(probes):
            hi, lo = x >> n, x & ((1 << n) - 1)
            member = nb.dual().contains(lo) if hi else nb.contains(lo)
            counts[j] += member
    rates = counts / samples
    bound = 2 ** (-n // 2)
    sigma = math.sqrt(bound * (1 - bound) / samples)
    assert rates.max() <= bound + 3 * sigma + 2 / samples
