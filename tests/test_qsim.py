"""Statevector, oracle and measurement utilities."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dense_reference
from hsmoney import f2lin, qsim
from hsmoney.f2lin import Subspace
from hsmoney.qsim import (
    PhaseOracle,
    Projector,
    ReflectAboutState,
    StateVector,
    hadamard_all,
    haar_random_state,
    measure_projector,
    subspace_mask,
    subspace_state,
    walsh_hadamard_raw,
)


def test_subspace_state_small():
    # span{e_0} in n=2 -> (|00> + |01 as index 1>)/sqrt2 ; index = vector
    a = Subspace.from_rows([0b01], 2)
    s = subspace_state(a)
    expect = np.zeros(4, dtype=complex)
    expect[0] = expect[1] = 1 / np.sqrt(2)
    assert np.allclose(s.amps, expect)

    zero = subspace_state(Subspace.zero(3))
    assert np.allclose(zero.amps, StateVector.basis(3, 0).amps)


def test_subspace_state_overlap_formula():
    # <A|B> = 2^{dim(A cap B)} / 2^{n/2} for dim-n/2 subspaces
    rng = np.random.default_rng(21)
    n = 8
    for _ in range(30):
        a = f2lin.random_subspace(n, 4, rng)
        b = f2lin.random_subspace(n, 4, rng)
        ov = subspace_state(a).overlap(subspace_state(b))
        k = dense_reference.intersection_dim(a, b)
        assert ov == pytest.approx(2 ** k / 2 ** (n // 2), abs=1e-12)


def test_neighbor_subspace_overlap_half():
    rng = np.random.default_rng(22)
    n = 8
    a = f2lin.random_subspace(n, 4, rng)
    keep = list(a.basis[:3])
    while True:
        x = int(rng.integers(0, 1 << n))
        if not a.contains(x):
            break
    b = Subspace.from_rows(keep + [x], n)
    assert subspace_state(a).overlap(subspace_state(b)) == pytest.approx(0.5)


def test_hadamard_uniform_and_involution():
    s = StateVector.basis(4, 0)
    u = hadamard_all(s)
    assert np.allclose(u.amps, np.full(16, 0.25))
    rng = np.random.default_rng(23)
    psi = haar_random_state(5, rng)
    back = hadamard_all(hadamard_all(psi))
    assert np.allclose(back.amps, psi.amps, atol=1e-12)


def _complex_gaussian(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


@pytest.mark.parametrize("n", [*range(11), 13, 16, 17])
def test_walsh_hadamard_matches_the_butterfly(n):
    v = _complex_gaussian(n, 300 + n)
    out = walsh_hadamard_raw(v)
    assert out.dtype == np.complex128 and out.shape == v.shape
    assert np.abs(out - dense_reference.walsh_hadamard_butterfly(v)).max() <= 1e-12


@pytest.mark.parametrize("n", range(9))
def test_walsh_hadamard_matches_the_sylvester_matrix(n):
    # entry (x, y) of H^{(x)n} is (-1)^{popcount(x & y)} / 2^{n/2}
    idx = np.arange(1 << n)
    parity = np.array([[bin(x & y).count("1") & 1 for y in idx] for x in idx])
    sylvester = (1 - 2 * parity) * 2 ** (-n / 2)
    v = _complex_gaussian(n, 400 + n)
    assert np.abs(walsh_hadamard_raw(v) - sylvester @ v).max() <= 1e-12


def test_walsh_hadamard_leaves_a_read_only_input_unchanged():
    s = haar_random_state(9, np.random.default_rng(27))
    before = s.amps.copy()
    out = walsh_hadamard_raw(s.amps)
    assert not s.amps.flags.writeable
    assert np.array_equal(s.amps, before)
    assert out.flags.writeable and not np.shares_memory(out, s.amps)


_WHT_DIGEST = """
import hashlib, numpy as np
from hsmoney.qsim import walsh_hadamard_raw
h = hashlib.sha256()
for n in (5, 12, 16, 17):
    rng = np.random.default_rng(n)
    h.update(walsh_hadamard_raw(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)).tobytes())
print(h.hexdigest())
"""


def test_walsh_hadamard_is_bit_identical_at_any_blas_thread_count():
    # the transform is a BLAS call, so records stay identical at every worker
    # count only if the thread count cannot change its rounding
    src = str(Path(qsim.__file__).resolve().parents[1])
    digests = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run(
            [sys.executable, "-c", _WHT_DIGEST], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_hadamard_duality_n8():
    rng = np.random.default_rng(24)
    for _ in range(25):
        a = f2lin.random_subspace(8, 4, rng)
        lhs = hadamard_all(subspace_state(a))
        rhs = subspace_state(a.dual())
        assert lhs.overlap(rhs) == pytest.approx(1.0, abs=1e-9)


def test_hadamard_duality_all_dims_n12():
    rng = np.random.default_rng(25)
    for dim in (0, 3, 6, 9, 12):
        a = f2lin.random_subspace(12, dim, rng)
        assert hadamard_all(subspace_state(a)).overlap(subspace_state(a.dual())) == pytest.approx(1.0, abs=1e-9)


def test_phase_oracle_action_and_count():
    rng = np.random.default_rng(26)
    a = f2lin.random_subspace(6, 3, rng)
    u = PhaseOracle(6, subspace_mask(a))
    x = next(m for m in dense_reference.members(a) if m)
    s = StateVector.basis(6, x)
    out = u.apply(s)
    assert np.allclose(out.amps, -s.amps)
    assert u.query_count == 1

    sa = subspace_state(a)
    out = u.apply(sa)
    assert np.allclose(out.amps, -sa.amps)

    # two applications = identity, and the counter adds exactly k
    twice = u.apply(u.apply(sa))
    assert np.allclose(twice.amps, sa.amps)
    assert u.query_count == 4


def test_measure_projector_certain_cases():
    rng = np.random.default_rng(28)
    a = f2lin.random_subspace(6, 3, rng)
    sa = subspace_state(a)
    u = PhaseOracle(6, subspace_mask(a))
    p = Projector.from_mask(6, u.mask, charge_to=u)
    ok, post, prob = measure_projector(p, sa, rng)
    assert ok and prob == pytest.approx(1.0)
    assert post.overlap(sa) == pytest.approx(1.0)
    assert u.query_count == 1  # measurement charged one query

    r1 = Projector.onto_state(sa)
    ok, post, prob = measure_projector(r1, sa, rng)
    assert ok and prob == pytest.approx(1.0)
    assert post.overlap(sa) == pytest.approx(1.0)


def test_measure_projector_uniform_acceptance_rate():
    # P_A on the uniform superposition accepts with prob 2^{-n/2}
    rng = np.random.default_rng(29)
    n = 8
    a = f2lin.random_subspace(n, 4, rng)
    p = Projector.from_mask(n, qsim.subspace_mask(a))
    _, _, prob = measure_projector(p, StateVector.uniform(n), rng)
    assert prob == pytest.approx(2 ** (-n // 2), abs=1e-12)


def test_postselect_zero_probability_raises():
    p = Projector.from_mask(2, np.array([True, False, False, False]))
    s = StateVector.basis(2, 3)
    with pytest.raises(ValueError):
        qsim.postselect_projector(p, s, True)


def test_reflect_about_state():
    rng = np.random.default_rng(30)
    psi = haar_random_state(4, rng)
    refl = ReflectAboutState(psi)
    out = refl.apply(psi)
    assert np.allclose(out.amps, -psi.amps)
    phi = haar_random_state(4, rng)
    # orthogonal component is fixed
    perp = phi.amps - psi.inner(phi) * psi.amps
    perp = StateVector(4, perp / np.linalg.norm(perp))
    out = refl.apply(perp)
    assert np.allclose(out.amps, perp.amps, atol=1e-12)
    assert refl.query_count == 2


def _trace_distance(a: StateVector, b: StateVector) -> float:
    """Trace distance of two pure states, sqrt(1 - |<a|b>|^2)."""
    return float(np.sqrt(max(1 - a.overlap(b) ** 2, 0.0)))


def test_fidelity_pure_cases():
    # on pure states the fidelity is StateVector.overlap, blind to a global phase
    rng = np.random.default_rng(30)
    s0 = StateVector.basis(1, 0)
    s1 = StateVector.basis(1, 1)
    assert s0.overlap(s0) == pytest.approx(1.0)
    assert s0.overlap(s1) == pytest.approx(0.0)
    psi = haar_random_state(2, rng)
    assert psi.overlap(StateVector(2, np.exp(0.7j) * psi.amps)) == pytest.approx(1.0)


def test_trace_distance_axioms():
    rng = np.random.default_rng(32)
    s0 = StateVector.basis(1, 0)
    s1 = StateVector.basis(1, 1)
    assert _trace_distance(s0, s0) == pytest.approx(0.0)
    assert _trace_distance(s0, s1) == pytest.approx(1.0)
    for _ in range(20):
        a = haar_random_state(2, rng)
        b = haar_random_state(2, rng)
        c = haar_random_state(2, rng)
        dab = _trace_distance(a, b)
        assert dab == pytest.approx(_trace_distance(b, a))
        assert dab <= _trace_distance(a, c) + _trace_distance(c, b) + 1e-12


def test_fuchs_van_de_graaf_bound():
    # D = sqrt(1 - F^2) on two pure states: the closed form matches half the
    # trace norm of |psi><psi| - |phi><phi|
    rng = np.random.default_rng(33)
    for _ in range(100):
        psi = haar_random_state(2, rng)
        phi = haar_random_state(2, rng)
        diff = np.outer(psi.amps, psi.amps.conj()) - np.outer(phi.amps, phi.amps.conj())
        dense = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert _trace_distance(psi, phi) == pytest.approx(dense, abs=1e-9)


def test_almost_as_good_as_new():
    # accepting measurement with prob 1-eps perturbs the state by <= sqrt(eps)
    rng = np.random.default_rng(35)
    n = 3
    for _ in range(50):
        psi = haar_random_state(n, rng)
        mask = rng.random(1 << n) < 0.7
        if not mask.any() or mask.all():
            continue
        p = Projector.from_mask(n, mask)
        post, prob = qsim.postselect_projector(p, psi, True)
        eps = 1 - prob
        if eps <= 0:
            continue
        assert _trace_distance(psi, post) <= np.sqrt(eps) + 1e-9


def test_haar_moments():
    rng = np.random.default_rng(36)
    n = 4
    samples = 10_000
    vals = np.empty(samples)
    zero = StateVector.basis(n, 0)
    for i in range(samples):
        vals[i] = haar_random_state(n, rng).overlap(zero) ** 2
    mean = vals.mean()
    # E|<psi|0>|^2 = 2^-n, Var = (1-2^-n) * 2^-n / (2^n + 1) approx
    sigma = vals.std(ddof=1) / np.sqrt(samples)
    assert abs(mean - 2 ** -n) < 5 * sigma

    pair = np.empty(2000)
    for i in range(2000):
        pair[i] = haar_random_state(n, rng).overlap(haar_random_state(n, rng)) ** 2
    sigma = pair.std(ddof=1) / np.sqrt(len(pair))
    assert abs(pair.mean() - 2 ** -n) < 5 * sigma


def test_norm_validation_and_immutability():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 1.0, 0, 0]))
    s = StateVector.uniform(2)
    with pytest.raises(ValueError):
        s.amps[0] = 9.0


def test_qubit_cap_guards_every_new_qubit_count(monkeypatch):
    monkeypatch.setenv("HSMONEY_QUBIT_CAP", "6")
    with pytest.raises(ValueError):
        StateVector.basis(7, 0)
    with pytest.raises(ValueError):
        StateVector.uniform(7)
    with pytest.raises(ValueError):
        StateVector.basis(4, 0).tensor(StateVector.basis(3, 0))
    assert StateVector.basis(3, 0).tensor(StateVector.basis(3, 0)).n_qubits == 6


def test_dump_load_roundtrip():
    rng = np.random.default_rng(37)
    a = f2lin.random_subspace(6, 3, rng)
    s = subspace_state(a)
    text = s.dump()
    assert text.splitlines()[0] == "n=6"
    back = StateVector.load(text)
    assert back.overlap(s) == pytest.approx(1.0, abs=1e-9)


def test_tensor_register_layout():
    # tensor puts the second factor in the high bits
    s = StateVector.basis(2, 0b01)
    t = StateVector.basis(2, 0b10)
    joint = s.tensor(t)
    assert joint.amps[0b01 | (0b10 << 2)] == pytest.approx(1.0)


@pytest.mark.parametrize("n_low, n_high", [(1, 1), (1, 4), (3, 2), (5, 5), (8, 8)])
def test_tensor_is_np_kron_bit_for_bit(n_low, n_high):
    # the outer product takes the same complex products as np.kron, signed zeros included
    rng = np.random.default_rng([n_low, n_high])
    lows = [haar_random_state(n_low, rng), StateVector.basis(n_low, (1 << n_low) - 1)]
    highs = [haar_random_state(n_high, rng), hadamard_all(StateVector.basis(n_high, 1))]
    for low in lows:
        for high in highs:
            joint = low.tensor(high)
            assert joint.n_qubits == n_low + n_high
            assert np.array_equal(joint.amps.view(np.uint64), np.kron(high.amps, low.amps).view(np.uint64))


def _member_sets(rng):
    """(n, sorted distinct members) pairs: subspaces and arbitrary sets."""
    for n in (1, 2, 5, 8, 12):
        yield n, f2lin.random_subspace(n, n // 2, rng).member_array()
        yield n, np.sort(rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)), replace=False))


def test_uniform_on_builds_the_scattered_amplitudes_bit_for_bit():
    rng = np.random.default_rng(41)
    for n, members in _member_sets(rng):
        want = np.zeros(1 << n, dtype=np.complex128)
        want[members] = len(members) ** -0.5
        s = qsim.uniform_on(n, members.copy())
        assert s.members is not None and not s.members.flags.writeable
        assert np.array_equal(s.amps.view(np.uint64), want.view(np.uint64))
        assert not s.amps.flags.writeable
        assert s.amps is s.amps  # built once


def _fsum_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    terms = a.conj() * b
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def test_inner_from_members_matches_the_dense_inner_product():
    # within 1e-15 of the exactly summed products; the dense einsum over up
    # to 4,096 equal terms at n=12 is itself a few 1e-15 off, so it gets 1e-14
    rng = np.random.default_rng(42)
    for n, members in _member_sets(rng):
        a = qsim.uniform_on(n, members)
        dense_a = StateVector(n, a.amps)
        for psi in (haar_random_state(n, rng), qsim.uniform_on(n, members.copy())):
            fresh = qsim.uniform_on(n, members)
            want = _fsum_vdot(dense_a.amps, psi.amps)
            assert abs(fresh.inner(psi) - want) <= 1e-15
            assert abs(fresh.inner(psi) - dense_a.inner(psi)) <= 1e-14
            # against a dense state the member side's amplitudes are not built
            assert fresh._amps is None or psi.members is not None
            assert abs(psi.inner(fresh) - want.conjugate()) <= 1e-15
            assert fresh._amps is None or psi.members is not None
        # the same members array on both sides: exactly 1, amplitudes built or not
        assert a.inner(a) == 1.0
        assert qsim.uniform_on(n, members).inner(qsim.uniform_on(n, members)) == 1.0


def test_a_member_backed_state_survives_pickling():
    members = f2lin.random_subspace(8, 4, np.random.default_rng(43)).member_array()
    for read in (False, True):
        s = qsim.uniform_on(8, members)
        if read:
            s.amps
        back = pickle.loads(pickle.dumps(s))
        assert back.n_qubits == 8 and back._amps is None
        assert np.array_equal(back.members, members) and not back.members.flags.writeable
        assert np.array_equal(back.amps, s.amps)
    dense = haar_random_state(4, np.random.default_rng(44))
    back = pickle.loads(pickle.dumps(dense))
    assert back.members is None and np.array_equal(back.amps, dense.amps) and not back.amps.flags.writeable


class _FixedDraw:
    """Stand-in generator whose every uniform draw is u."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("layout", ["low of 2n", "top of 2n", "low of n+1"])
def test_measure_register_matches_projector_on_register(layout):
    # the measurement accepts exactly when the draw lies below the reference
    # probability (pinned to 1e-12 from both sides), and both branches give
    # the reference post-states to rounding; the reference is the explicit
    # operator |t><t| on the register and the identity on the other qubits,
    # applied as a dense matrix, so it shares no reshape with measure_register
    n = 4
    rng = np.random.default_rng(39)
    target = haar_random_state(n, rng)
    others = 1 if layout == "low of n+1" else n
    joint = haar_random_state(n + others, rng).amps
    top = layout == "top of 2n"
    on_target = np.outer(target.amps, target.amps.conj())
    rest_id = np.eye(1 << others)
    # np.kron puts its first factor on the high index bits
    kept = (np.kron(on_target, rest_id) if top else np.kron(rest_id, on_target)) @ joint
    prob = float(np.vdot(kept, kept).real)
    rest = joint - kept

    ok, post = qsim.measure_register(joint, target, _FixedDraw(prob - 1e-12), top=top)
    assert ok
    assert np.abs(post - kept / np.sqrt(prob)).max() < 1e-14
    ok, post = qsim.measure_register(joint, target, _FixedDraw(prob + 1e-12), top=top)
    assert not ok
    assert np.abs(post - rest / np.linalg.norm(rest)).max() < 1e-14
