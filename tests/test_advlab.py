"""Progress tracking, counterfeiter amplification, cloning experiments."""

import math
import statistics
import tracemalloc

import numpy as np
import pytest

import dense_reference
from hsmoney import config, experiments, f2lin, hsmini, money
from hsmoney.advlab import (
    Counterfeiter,
    HaarPairRelation,
    IdleProbe,
    JunkEmitter,
    OracleEchoProbe,
    PlantedCloner,
    SubspaceNeighborRelation,
    amplification_budget,
    amplify_counterfeiter,
    clone_by_search,
    default_probes,
    kcopy_run,
    _orthogonal_partner,
    track_progress,
)
from hsmoney.qsim import StateVector, haar_random_state, subspace_state


def test_two_point_unitary_maps_and_preserves():
    # a counterfeiter is the two-point unitary sending |a>|0> to b
    rng = np.random.default_rng(130)
    for _ in range(20):
        a = haar_random_state(4, rng)
        b = haar_random_state(8, rng)
        c = Counterfeiter(a, b)
        assert c.apply(a).overlap(b) == pytest.approx(1.0, abs=1e-9)
        # phases agree too, not just overlap
        assert np.allclose(c.apply(a).amps, b.amps, atol=1e-9)
        x = haar_random_state(4, rng)
        y = c.apply(x)
        assert np.linalg.norm(y.amps) == pytest.approx(1.0, abs=1e-9)
        # inner products preserved (unitarity)
        z = haar_random_state(4, rng)
        assert abs(np.vdot(c.apply(z).amps, y.amps) - np.vdot(z.amps, x.amps)) < 1e-9
        assert c.query_count == 4
    with pytest.raises(ValueError, match="sizes differ"):
        c.apply(haar_random_state(3, rng))


def _blank_padded(s: StateVector, phase: complex = 1.0) -> StateVector:
    # phase |s>|0> on the doubled register
    amps = np.zeros(1 << (2 * s.n_qubits), dtype=np.complex128)
    amps[: len(s.amps)] = phase * s.amps
    return StateVector(2 * s.n_qubits, amps)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_register_sized_counterfeiter_matches_padded_rotation(n):
    # the rotation on the note's 2^n amplitudes against the padded 2^(2n) one,
    # on a money state (whose partner is a basis state) and on a Haar state
    rng = np.random.default_rng(160 + n)
    for target in (subspace_state(f2lin.random_subspace(n, n // 2, rng)), haar_random_state(n, rng)):
        junk = _orthogonal_partner(target)
        pass2 = float(rng.random())
        second = math.sqrt(pass2) * target.amps + math.sqrt(1 - pass2) * junk.amps
        phase = _blank_padded(target, np.exp(2j * math.pi * rng.random()))
        cases = [
            (PlantedCloner(target, pass2), target.tensor(StateVector(n, second / np.linalg.norm(second)))),
            (JunkEmitter(target), junk.tensor(junk)),
            (Counterfeiter(target, phase), phase),
        ]
        assert cases[2][0]._u2 is None  # the phase-multiple branch
        for fast, dst in cases:
            slow = dense_reference.Counterfeiter(target, dst)
            notes = [target, junk, haar_random_state(n, rng), haar_random_state(n, rng)]
            for note in notes:
                got, want = fast.apply(note), slow.apply(note)
                assert got.n_qubits == want.n_qubits == 2 * n
                assert np.max(np.abs(got.amps - want.amps)) < 1e-12
            assert fast.query_count == slow.query_count == len(notes)


@pytest.mark.parametrize("eps, delta", [(0.2, 0.05), (0.01, 0.5)], ids=["fixed-point", "hybrid"])
def test_amplify_trial_makes_no_blas_vector_call(monkeypatch, eps, delta):
    # np.vdot and np.linalg.norm on a long vector wake OpenBLAS's threads; an
    # amplification trial at n=8 (2^16 amplitudes) must make neither call
    cfg = experiments.configure(experiments.ExperimentConfig("amplify-counterfeiter", n=8, eps=eps, delta=delta))
    want = experiments.trial_amplify(cfg, 0, np.random.default_rng(170))

    def guarded(fn):
        def call(*args, **kwargs):
            if max(np.size(a) for a in args) >= 1 << 14:
                raise AssertionError(f"{fn.__name__} on {max(np.size(a) for a in args)} elements")
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "vdot", guarded(np.vdot))
    monkeypatch.setattr(np.linalg, "norm", guarded(np.linalg.norm))
    with pytest.raises(AssertionError, match="vdot"):
        np.vdot(np.zeros(1 << 14), np.zeros(1 << 14))
    assert experiments.trial_amplify(cfg, 0, np.random.default_rng(170)) == want


@pytest.mark.parametrize("eps, delta, arrays", [(0.2, 0.05, 5), (0.01, 0.5, 6)], ids=["fixed-point", "hybrid"])
def test_amplification_peak_memory_in_register_arrays(eps, delta, arrays):
    # at n=8 a register array is 2^16 amplitudes (1 MiB); the search plane
    # keeps its start state and P psi, not (I - P) psi beside them
    rng = np.random.default_rng(171)
    scheme = hsmini.HsMiniScheme(hsmini.OracleBundle(8, rng))
    note = scheme.bank(rng)
    cloner = PlantedCloner(scheme.target_state(note.serial), eps)
    tracemalloc.start()
    try:
        amplify_counterfeiter(cloner, scheme, note, eps, delta, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (arrays + 0.5) * (16 << 16)


def test_relation_sampling_properties():
    rng = np.random.default_rng(131)
    rel = SubspaceNeighborRelation(8)
    for _ in range(20):
        s = rel.sample(rng)
        a = s.meta["subspace_u"]
        b = s.meta["subspace_v"]
        assert a != b  # never pairs an oracle with itself
        assert dense_reference.intersection_dim(a, b) == 3
        assert s.init_u.overlap(s.init_v) == pytest.approx(0.5, abs=1e-9)
    hrel = HaarPairRelation(5, 0.5)
    s = hrel.sample(rng)
    assert s.init_u.overlap(s.init_v) == pytest.approx(0.5, abs=1e-9)


def test_idle_probe_constant():
    rng = np.random.default_rng(132)
    rel = SubspaceNeighborRelation(6)
    trace = track_progress(IdleProbe(), rel, 10, rng)
    assert trace.p_values == [pytest.approx(0.5, abs=1e-9)]
    assert trace.max_drop == 0.0


def test_progress_traces_respect_bound_n8():
    rng = np.random.default_rng(133)
    rel = SubspaceNeighborRelation(8)
    for probe in default_probes():
        trace = track_progress(probe, rel, 25, rng)
        assert trace.p_values[0] == pytest.approx(0.5, abs=1e-9)
        sem = max(trace.stderr) if trace.stderr else 0.0
        assert trace.max_drop <= trace.drop_bound + 3 * sem * math.sqrt(2)
        assert len(trace.p_values) == probe.queries + 1


def test_progress_haar_relation():
    rng = np.random.default_rng(134)
    rel = HaarPairRelation(6, 0.5)
    trace = track_progress(OracleEchoProbe(5), rel, 25, rng)
    assert trace.p_values[0] == pytest.approx(0.5, abs=1e-9)
    assert trace.max_drop <= trace.drop_bound + 0.05


def test_planted_cloner_pass_rate_exact():
    rng = np.random.default_rng(135)
    a = f2lin.random_subspace(8, 4, rng)
    target = subspace_state(a)
    for pass2 in (0.1, 0.2, 0.5, 1.0):
        c = PlantedCloner(target, pass2)
        out = c.apply(target)
        assert target.tensor(target).overlap(out) ** 2 == pytest.approx(pass2, abs=1e-9)


def test_amplify_planted_cloner():
    rng = np.random.default_rng(136)
    bundle = hsmini.OracleBundle(8, rng)
    scheme = hsmini.HsMiniScheme(bundle)
    passes = 0
    queries = []
    trials = 60
    for _ in range(trials):
        note = scheme.bank(rng)
        c = PlantedCloner(scheme.target_state(note.serial), 0.2)
        res = amplify_counterfeiter(c, scheme, note, 0.2, 0.05, rng)
        queries.append(res.queries)
        passes += money.verify2(scheme, note.serial, res.state, rng)
    assert passes / trials >= 0.95
    assert np.mean(queries) <= amplification_budget(0.2, 0.05)


def test_amplify_never_decreases_pass_rate():
    # with zero rounds the pass rate is eps; amplification only helps
    rng = np.random.default_rng(137)
    bundle = hsmini.OracleBundle(6, rng)
    scheme = hsmini.HsMiniScheme(bundle)
    raw = 0
    amped = 0
    trials = 120
    for _ in range(trials):
        note = scheme.bank(rng)
        c = PlantedCloner(scheme.target_state(note.serial), 0.3)
        init = c.apply(note.state)
        raw += money.verify2(scheme, note.serial, init, rng)
        c2 = PlantedCloner(scheme.target_state(note.serial), 0.3)
        res = amplify_counterfeiter(c2, scheme, note, 0.3, 0.05, rng)
        amped += money.verify2(scheme, note.serial, res.state, rng)
    sigma = math.sqrt(trials * 0.25)
    assert amped >= raw - 2 * sigma
    assert amped / trials >= 0.9


def test_amplify_fixed_point_charges_each_restore():
    # a goal measurement is a double verification (two verifier queries);
    # a restore costs one C, one C inverse and one verifier query
    rng = np.random.default_rng(147)
    scheme = hsmini.HsMiniScheme(hsmini.OracleBundle(6, rng))
    eps, delta = 0.2, 0.05  # delta < 2 sqrt(eps): the fixed-point branch
    for _ in range(20):
        note = scheme.bank(rng)
        c = PlantedCloner(scheme.target_state(note.serial), eps)
        res = amplify_counterfeiter(c, scheme, note, eps, delta, rng)
        restores = res.rounds - res.converged
        assert c.query_count == 1 + 2 * restores
        assert res.queries == c.query_count + 2 * res.rounds + restores
    # a junk emitter never passes, so it uses every round and restores each
    budget = math.ceil(math.log(1 / delta) / (config.FIXED_POINT_RATE * math.sqrt(eps) ** 2))
    c = JunkEmitter(scheme.target_state(note.serial))
    with pytest.warns(RuntimeWarning):
        res = amplify_counterfeiter(c, scheme, note, eps, delta, rng)
    assert (res.rounds, res.converged) == (budget, False)
    assert c.query_count == 1 + 2 * budget
    assert res.queries == c.query_count + 3 * budget


def test_amplify_perfect_cloner_trivial():
    rng = np.random.default_rng(138)
    bundle = hsmini.OracleBundle(6, rng)
    scheme = hsmini.HsMiniScheme(bundle)
    note = scheme.bank(rng)
    c = PlantedCloner(scheme.target_state(note.serial), 1.0)
    res = amplify_counterfeiter(c, scheme, note, 1.0, 0.05, rng)
    assert res.converged and res.rounds == 1
    assert money.verify2(scheme, note.serial, res.state, rng)


def test_amplify_hybrid_regime():
    # a weak cloner with delta >= 2 sqrt(eps) takes the hybrid schedule
    rng = np.random.default_rng(146)
    bundle = hsmini.OracleBundle(6, rng)
    scheme = hsmini.HsMiniScheme(bundle)
    eps, delta = 0.01, 0.5
    passes = 0
    trials = 60
    for _ in range(trials):
        note = scheme.bank(rng)
        c = PlantedCloner(scheme.target_state(note.serial), eps)
        res = amplify_counterfeiter(c, scheme, note, eps, delta, rng)
        assert res.queries > 0
        passes += money.verify2(scheme, note.serial, res.state, rng)
    # mean double-verification failure stays within the schedule's delta
    assert passes / trials >= 1 - delta


def test_amplify_junk_emitter_flagged():
    rng = np.random.default_rng(139)
    bundle = hsmini.OracleBundle(6, rng)
    scheme = hsmini.HsMiniScheme(bundle)
    note = scheme.bank(rng)
    c = JunkEmitter(scheme.target_state(note.serial))
    with pytest.warns(RuntimeWarning):
        res = amplify_counterfeiter(c, scheme, note, 0.2, 0.05, rng)
    assert not res.converged
    assert not money.verify2(scheme, note.serial, res.state, rng)


def test_clone_search_success_fidelity():
    rng = np.random.default_rng(140)
    for _ in range(10):
        target = haar_random_state(6, rng)
        state, _ = clone_by_search(target, rng, overlap_guess=2.0 ** -3)
        fidelity = state.overlap(target)
        if fidelity > 0.5:  # success branch
            assert fidelity >= 0.999


def test_clone_search_trivial_target():
    # start state equal to the target: zero amplification iterations needed
    rng = np.random.default_rng(141)
    uniform = StateVector.uniform(4)
    state, queries = clone_by_search(uniform, rng, overlap_guess=1.0)
    assert queries == 1  # only the final check
    assert state.overlap(uniform) == pytest.approx(1.0, abs=1e-9)


def test_clone_search_medians():
    rng = np.random.default_rng(142)
    haar_q = [clone_by_search(haar_random_state(8, rng), rng, overlap_guess=2.0 ** -4)[1] for _ in range(101)]
    ref = (math.pi / 4) * 2 ** 4
    assert ref / 2 <= statistics.median(haar_q) <= 2 * ref
    sub_q = [
        clone_by_search(subspace_state(f2lin.random_subspace(8, 4, rng)), rng, overlap_guess=0.25)[1]
        for _ in range(101)
    ]
    ref = (math.pi / 4) * 2 ** 2
    assert ref / 2 <= statistics.median(sub_q) <= 2 * ref


def test_kcopy_medians_decrease():
    rng = np.random.default_rng(143)
    medians = []
    for k in (0, 1, 2, 4):
        medians.append(statistics.median(kcopy_run(6, k, rng) for _ in range(101)))
        ref = (math.pi / 4) * 2 ** 3 / math.sqrt(k + 1)
        assert ref / 2 <= medians[-1] <= 2 * ref
    assert all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))


def test_kcopy_zero_matches_clone_search_scale():
    rng = np.random.default_rng(144)
    median = statistics.median(kcopy_run(8, 0, rng) for _ in range(101))
    ref = (math.pi / 4) * 2 ** 4
    assert ref / 2 <= median <= 2 * ref


def test_tensor_power_inner_product():
    rng = np.random.default_rng(145)
    psi = haar_random_state(3, rng)
    phi = haar_random_state(3, rng)
    c = psi.inner(phi)
    p2 = psi.tensor(psi)
    f2 = phi.tensor(phi)
    assert abs(p2.inner(f2) - c ** 2) < 1e-9
    p3 = p2.tensor(psi)
    f3 = f2.tensor(phi)
    assert abs(p3.inner(f3) - c ** 3) < 1e-9
