"""Polynomial hiding: sampling, Z-sets, basis changes, explicit scheme, attack."""

import hashlib
import math

import numpy as np
import pytest

import dense_reference
from hsmoney import f2lin, polyhide, qsim
from hsmoney.f2lin import LinMap, Subspace
from hsmoney.polyhide import (
    DegreeOneAttackError,
    ExplicitNote,
    PolySystem,
    bank_explicit_with_secret,
    degree1_attack,
    sample_noisy_system,
    verify_explicit,
    xor_mobius_inplace,
    zset_mask,
    zset_subspace,
)
from hsmoney.qsim import StateVector


def test_eval_basic():
    p = dense_reference.MultilinearPoly.from_masks(4, 2, [0b0011])  # x0 x1
    assert p.eval(0b0011) == 1
    assert p.eval(0b0001) == 0
    zero = dense_reference.MultilinearPoly.from_masks(4, 2, [])
    assert all(zero.eval(v) == 0 for v in range(16))


def test_eval_agrees_with_naive():
    rng = np.random.default_rng(80)
    n, d = 8, 3
    pc = polyhide._popcounts(n)
    pool = [m for m in range(1 << n) if pc[m] <= d]
    for _ in range(20):
        masks = [pool[i] for i in np.flatnonzero(rng.random(len(pool)) < 0.02)]
        p = dense_reference.MultilinearPoly.from_masks(n, d, masks)
        tt = p.truth_table()
        for v in range(1 << n):
            naive = 0
            for m in masks:
                naive ^= (v & m) == m
            assert tt[v] == naive == p.eval(v)


def test_mobius_involution():
    rng = np.random.default_rng(81)
    mat = rng.integers(0, 2, size=(5, 64)).astype(np.uint8)
    back = xor_mobius_inplace(xor_mobius_inplace(mat.copy()))
    assert np.array_equal(back, mat)


@pytest.mark.parametrize(
    "table",
    [
        pytest.param(np.zeros((16, 4), dtype=np.uint8).T, id="transposed view"),
        pytest.param(np.zeros((4, 32), dtype=np.uint8)[:, ::2], id="strided view"),
        pytest.param(np.zeros((4, 16), dtype=np.int64), id="int64"),
        pytest.param(np.zeros((4, 16), dtype=np.bool_), id="bool"),
    ],
)
def test_mobius_rejects_tables_it_cannot_transform_in_place(table):
    with pytest.raises(ValueError, match="C-contiguous uint8"):
        xor_mobius_inplace(table)


def test_mobius_transforms_a_view_of_contiguous_rows_in_place():
    mat = np.zeros((3, 16), dtype=np.uint8)
    mat[1, 0] = 1  # the constant polynomial 1 is 1 at every point
    xor_mobius_inplace(mat[1:2])
    assert np.array_equal(mat[1], np.ones(16, dtype=np.uint8))
    assert not mat[0].any() and not mat[2].any()


# sha256 over both systems' coefficient tables and noise positions, then the
# secret basis, of one n=12 note; fixes every draw of the sampler and of the
# basis completions it makes
EXPLICIT_NOTE_DIGEST = "64b54dfecc43bd6e78d5273d2a2aa0e05380b6689f08031b5f6ddab7d6b744b4"


def test_explicit_note_draws_are_pinned():
    note, secret = bank_explicit_with_secret(12, 4, 0.25, 12.0, np.random.default_rng(108))
    h = hashlib.sha256()
    for system in (note.primal_system, note.dual_system):
        assert system.coeffs.dtype == np.uint8 and system.coeffs.flags.c_contiguous
        h.update(system.coeffs.tobytes())
        h.update(repr(system.noise_positions).encode())
    h.update(repr(secret.basis).encode())
    assert h.hexdigest() == EXPLICIT_NOTE_DIGEST


# (n, dim, d, m, eps): the catalog's size; eps = 0 (no decoys); dim 0 and
# dim n, where every subspace is the coordinate frame; n = 2, dim 1, where a
# third of the decoys are the frame and stay unmoved; d above dim
NOISY_CASES = [
    (12, 6, 4, 144, 0.25),
    (6, 3, 2, 18, 0.0),
    (5, 0, 2, 15, 0.3),
    (4, 4, 2, 12, 0.3),
    (2, 1, 1, 24, 0.5),
    (6, 2, 5, 18, 0.25),
    (8, 4, 3, 24, 0.4),
]


@pytest.mark.parametrize("n, dim, d, m, eps", NOISY_CASES)
def test_noisy_rows_match_the_inverse_gather_reference(n, dim, d, m, eps):
    """Scattering through the completed basis's point table gives the rows
    and generator state of gathering through its inverse's, one decoy at a
    time with scalar draws."""
    for seed in range(4):
        a = f2lin.random_subspace(n, dim, np.random.default_rng([seed, n, dim]))
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        system = sample_noisy_system(a, d, m, eps, fast)
        coeffs, positions = dense_reference.sample_noisy_system(a, d, m, eps, slow)
        assert np.array_equal(system.coeffs, coeffs)
        assert system.noise_positions == positions
        assert fast.bit_generator.state == slow.bit_generator.state

        decoys = polyhide._decoy_coeff_rows(n, dim, d, 7, fast)
        assert np.array_equal(decoys, dense_reference.decoy_coeff_rows(n, dim, d, 7, slow))
        assert fast.bit_generator.state == slow.bit_generator.state

        row = polyhide._vanishing_coeff_batch(a, d, 1, fast)[0]
        assert np.array_equal(row, dense_reference.vanishing_coeff_rows(a, d, 1, slow)[0])
        assert fast.bit_generator.state == slow.bit_generator.state


def test_decoys_draw_into_their_rows_as_the_reference_does():
    """Each decoy's coefficients are drawn straight into its row of the table,
    one draw per decoy: the rows and generator state of drawing and moving
    every decoy on its own."""
    for seed in range(150):
        n = 2 + seed % 7
        dim, d, count = seed % (n + 1), 1 + seed % 4, 1 + seed % 5
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = polyhide._decoy_coeff_rows(n, dim, d, count, fast)
        assert np.array_equal(rows, dense_reference.decoy_coeff_rows(n, dim, d, count, slow))
        assert fast.bit_generator.state == slow.bit_generator.state


def _moved(p: dense_reference.MultilinearPoly, m: LinMap) -> np.ndarray:
    """p's coefficient row moved through M's point table, by the one-table
    gather; the own-table scatter of a two-row batch must agree."""
    table = m.permutation_table()
    q = polyhide._move_points(p.coeff_row()[None], table[None])[0]
    pair = polyhide._move_points(np.stack([p.coeff_row()] * 2), np.stack([table] * 2))
    assert np.array_equal(pair, [q, q])
    return q


def test_change_basis_identity_and_pointwise():
    rng = np.random.default_rng(82)
    n, d = 8, 3
    pc = polyhide._popcounts(n)
    for _ in range(30):
        a = f2lin.random_subspace(n, 4, rng)
        p = dense_reference.sample_vanishing(a, d, rng)
        assert np.array_equal(_moved(p, dense_reference.identity(n)), p.coeff_row())
        m = f2lin.random_invertible(n, rng)
        q = _moved(p, m)
        # q(M u) = p(u) at every point u
        assert np.array_equal(xor_mobius_inplace(q.copy())[m.permutation_table()], p.truth_table())
        assert pc[np.flatnonzero(q)].max(initial=0) <= d


def test_change_basis_maps_ideals():
    # p vanishing on A implies q, with q(M u) = p(u), vanishes on M A
    rng = np.random.default_rng(83)
    n, d = 8, 2
    a = f2lin.random_subspace(n, 4, rng)
    m = f2lin.random_invertible(n, rng)
    moved = f2lin.image(m, a)
    for _ in range(20):
        p = dense_reference.sample_vanishing(a, d, rng)
        tq = xor_mobius_inplace(_moved(p, m))
        assert not tq[moved.member_array()].any()


def test_change_basis_roundtrip_bijection():
    rng = np.random.default_rng(84)
    n, d = 6, 3
    m = f2lin.random_invertible(n, rng)
    for _ in range(20):
        masks = np.flatnonzero(rng.random(1 << n) < 0.05)
        pc = polyhide._popcounts(n)
        masks = [int(v) for v in masks if pc[v] <= d]
        p = dense_reference.MultilinearPoly.from_masks(n, d, masks)
        q = dense_reference.MultilinearPoly.from_masks(n, d, np.flatnonzero(_moved(p, m)))
        assert np.array_equal(_moved(q, m.inverse()), p.coeff_row())


def test_sample_vanishing_small_enumeration():
    # n=2, A=span{x0}: the vanishing degree-1 ideal is {0, x1}
    rng = np.random.default_rng(85)
    a = Subspace.from_rows([0b01], 2)
    seen = {frozenset(): 0, frozenset({0b10}): 0}
    trials = 10_000
    for _ in range(trials):
        p = dense_reference.sample_vanishing(a, 1, rng)
        seen[p.monomials] += 1
    sigma = math.sqrt(trials * 0.25)
    for count in seen.values():
        assert abs(count - trials / 2) < 4 * sigma


def test_sample_vanishing_vanishes_n12():
    rng = np.random.default_rng(86)
    a = f2lin.random_subspace(12, 6, rng)
    members = a.member_array()
    for _ in range(200):
        p = dense_reference.sample_vanishing(a, 4, rng)
        assert not p.truth_table()[members].any()


def test_sample_vanishing_half_rate_outside():
    rng = np.random.default_rng(87)
    n = 8
    a = f2lin.random_subspace(n, 4, rng)
    while True:
        v = int(rng.integers(0, 1 << n))
        if not a.contains(v):
            break
    trials = 4000
    vanish = sum(dense_reference.sample_vanishing(a, 3, rng).eval(v) == 0 for _ in range(trials))
    sigma = math.sqrt(trials * 0.25)
    assert abs(vanish - trials / 2) < 4 * sigma


def test_noisy_system_structure():
    rng = np.random.default_rng(88)
    a = f2lin.random_subspace(8, 4, rng)
    sys = sample_noisy_system(a, 3, 32, 0.25, rng)
    assert sys.m == 32
    assert len(sys.noise_positions) == 8
    members = a.member_array()
    truth = sys.coeffs.copy()
    xor_mobius_inplace(truth)
    clean = [i for i in range(32) if i not in sys.noise_positions]
    assert not truth[clean][:, members].any()


def test_noisy_positions_uniform_chi_square():
    rng = np.random.default_rng(89)
    a = f2lin.random_subspace(8, 4, rng)
    m, eps = 16, 0.25
    counts = np.zeros(m)
    trials = 2000
    for _ in range(trials):
        sys = sample_noisy_system(a, 2, m, eps, rng)
        for pos in sys.noise_positions:
            counts[pos] += 1
    expected = trials * eps
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 15 dof; 0.999 quantile is about 37.7
    assert chi2 < 37.7


def test_zset_membership_rules():
    rng = np.random.default_rng(90)
    a = f2lin.random_subspace(8, 4, rng)
    sys = sample_noisy_system(a, 3, 32, 0.25, rng)
    for v in dense_reference.members(a):
        assert dense_reference.zset_membership(sys, v)
    sys0 = sample_noisy_system(a, 3, 16, 0.0, rng)
    assert sys0.standard_threshold() == 0
    for v in dense_reference.members(a):
        assert dense_reference.zset_membership(sys0, v)


def test_zset_noise_free_false_accept_rate():
    # with beta = 2, Pr[any v outside A enters Z] <= 2^n 2^{-beta n}
    rng = np.random.default_rng(91)
    n, beta = 12, 2
    bad = 0
    trials = 60
    for _ in range(trials):
        a = f2lin.random_subspace(n, 6, rng)
        sys = sample_noisy_system(a, 4, beta * n, 0.0, rng)
        mask = zset_mask(sys)
        a_mask = np.zeros(1 << n, dtype=bool)
        a_mask[a.member_array()] = True
        bad += bool((mask & ~a_mask).any())
    assert bad / trials <= (1 << n) * 2.0 ** (-beta * n) + 0.05


def test_zset_degenerate_warns():
    sys = PolySystem(4, 2, 0.0, np.zeros((8, 16), dtype=np.uint8))
    with pytest.warns(RuntimeWarning):
        assert zset_mask(sys).all()


def test_zset_variant_high_noise():
    rng = np.random.default_rng(92)
    n, eps, beta = 12, 0.5, 48.0
    hits = 0
    accept_a = 0
    trials = 25
    for _ in range(trials):
        a = f2lin.random_subspace(n, 6, rng)
        sys = sample_noisy_system(a, 4, math.ceil(beta * n), eps, rng)
        sub = zset_subspace(sys)  # eps >= 1/3 picks the variant threshold
        hits += sub == a
        accept_a += all(dense_reference.zset_membership_variant(sys, v) for v in dense_reference.members(a)[:8])
    assert hits / trials >= 0.95
    assert accept_a == trials


def test_zset_variant_eps0_consistency():
    rng = np.random.default_rng(93)
    a = f2lin.random_subspace(8, 4, rng)
    sys = sample_noisy_system(a, 3, 32, 0.0, rng)
    for v in dense_reference.members(a):
        assert dense_reference.zset_membership(sys, v)
        assert dense_reference.zset_membership_variant(sys, v)


def test_explicit_scheme_honest():
    rng = np.random.default_rng(94)
    for _ in range(20):
        note, secret = bank_explicit_with_secret(12, 4, 0.25, 12.0, rng)
        assert verify_explicit(note, rng)
        assert zset_subspace(note.primal_system) == secret


def test_explicit_note_with_123_rows_at_n14_verifies():
    # beta 8.75 sets ceil(8.75 * 14) = 123 rows; (123 / 14) * 14 rounds above
    # 123, so a format check that recomputed m from m / n refused this note
    rng = np.random.default_rng(109)
    note, _ = bank_explicit_with_secret(14, 4, 0.25, 8.75, rng)
    assert note.primal_system.m == 123
    assert verify_explicit(note, rng)


def test_explicit_malformed_serial_rejects():
    rng = np.random.default_rng(95)
    note, _ = bank_explicit_with_secret(8, 4, 0.25, 12.0, rng)
    # mismatched polynomial counts
    short = PolySystem(
        note.primal_system.n_vars,
        note.primal_system.degree_bound,
        note.primal_system.eps,
        note.primal_system.coeffs[:-1],
    )
    bad = ExplicitNote(short, note.dual_system, note.state)
    assert not verify_explicit(bad, rng)


def _short_primal(note):
    p = note.primal_system
    return ExplicitNote(PolySystem(p.n_vars, p.degree_bound, p.eps, p.coeffs[:-1]), note.dual_system, note.state)


def _odd_n(note, secret):
    # A has dimension n/2, so no mint gives an odd n such as 7
    rng = np.random.default_rng(96)
    a = f2lin.random_subspace(7, 3, rng)
    primal, dual = (sample_noisy_system(b, 3, 84, 0.25, rng) for b in (a, a.dual()))
    return ExplicitNote(primal, dual, qsim.subspace_state(a))


def _junk_explicit(note, secret):
    x = next(x for x in range(1, 256) if not secret.contains(x))
    return ExplicitNote(note.primal_system, note.dual_system, StateVector.basis(8, x))


@pytest.mark.parametrize(
    "case, accepts, transforms",
    [
        (lambda note, secret: note, True, (1, 2)),
        (_junk_explicit, False, (1, 2)),
        (lambda note, secret: _short_primal(note), False, (0, 0)),
        (_odd_n, False, (0, 0)),
    ],
    ids=["honest", "junk-basis-state", "malformed-serial", "odd-n"],
)
def test_verify_explicit_is_the_reference_circuit_without_the_transform_back(
    case, accepts, transforms, monkeypatch
):
    wht = qsim.walsh_hadamard_raw
    runs = []
    for boolean in (True, False):
        rng = np.random.default_rng(97)
        note, secret = bank_explicit_with_secret(8, 4, 0.25, 12.0, rng)
        note = case(note, secret)
        unmeasured = rng.bit_generator.state
        calls = []
        monkeypatch.setattr(qsim, "walsh_hadamard_raw", lambda a: calls.append(1) or wht(a))
        ok = verify_explicit(note, rng) if boolean else dense_reference.verify_explicit(note, rng)[0]
        monkeypatch.undo()
        runs.append((ok, rng.bit_generator.state, len(calls)))
    assert runs[0][0] == runs[1][0] == accepts
    assert runs[0][1] == runs[1][1]
    assert (runs[0][2], runs[1][2]) == transforms
    if transforms == (0, 0):  # a note refused unmeasured makes no draw either
        assert runs[1][1] == unmeasured


def test_explicit_mixed_state_acceptance_trace():
    # rank-1 verifier on the fully mixed state accepts with probability 2^-n
    rng = np.random.default_rng(96)
    n = 8
    note, secret = bank_explicit_with_secret(n, 4, 0.25, 12.0, rng)
    trials = 3000
    hits = 0
    for _ in range(trials):
        basis = StateVector.basis(n, int(rng.integers(0, 1 << n)))
        sample = ExplicitNote(note.primal_system, note.dual_system, basis)
        hits += verify_explicit(sample, rng)
    want = 2.0 ** -n
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(hits / trials - want) < 4 * sigma + 1e-3


def test_explicit_verifier_operator_equals_rank1_n6():
    # with Z = A and Zperp = Aperp, the four-step circuit operator equals the
    # rank-1 projector onto the money state, entry by entry
    rng = np.random.default_rng(104)
    note, secret = bank_explicit_with_secret(6, 4, 0.25, 12.0, rng)
    assert zset_subspace(note.primal_system) == secret
    n, dim = 6, 64
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    had = np.array([[1.0]])
    for _ in range(n):
        had = np.kron(had, h)
    pz = np.diag(zset_mask(note.primal_system).astype(float))
    pzp = np.diag(zset_mask(note.dual_system).astype(float))
    circuit = had @ pzp @ had @ pz
    target = subspace_state_vec(secret)
    rank1 = np.outer(target, target.conj())
    assert np.abs(circuit - rank1).max() < 1e-9


def subspace_state_vec(sub):
    from hsmoney.qsim import subspace_state

    return subspace_state(sub).amps


def test_serialization_roundtrip():
    rng = np.random.default_rng(97)
    a = f2lin.random_subspace(8, 4, rng)
    sys = sample_noisy_system(a, 3, 24, 0.25, rng)
    text = sys.serialize()
    back = PolySystem.deserialize(text)
    assert np.array_equal(back.coeffs, sys.coeffs)
    assert back.eps == sys.eps
    assert back.serialize() == text


@pytest.mark.parametrize(
    "key, value",
    [("eps", "inf"), ("eps", "-inf"), ("eps", "1e308"), ("eps", "nan"), ("eps", "1.0"), ("eps", "-0.1"),
     ("d", "-3"), ("d", "0"), ("d", "25"), ("d", "100000000000000000000"), ("d", "1"), ("m", "0"), ("m", "1"),
     ("m", "3")],
)
def test_deserialize_refuses_header_values_no_mint_gives(key, value):
    # eps in [0, 1) as sample_noisy_system mints it; d in [1, F2_DIM_CAP] as the catalog bounds it,
    # with no monomial above d (the d=1 case carries x0.x1); m >= 1 as ceil(beta n) is for beta > 0;
    # and m rows that are all zero, which a mint gives only with negligible probability
    head = {"n": "4", "d": "2", "m": "1", "eps": "0.25", key: value}
    rows = int(value) if key == "m" else 1
    row = "x0.x1" if (key, value) == ("d", "1") else "-"
    text = " ".join(f"{k}={v}" for k, v in head.items()) + "\n" + f"{row}\n" * rows
    with pytest.raises(ValueError, match=f"{key}="):
        PolySystem.deserialize(text)


def test_degree1_attack_recovers():
    rng = np.random.default_rng(98)
    wins = 0
    for _ in range(50):
        a = f2lin.random_subspace(12, 6, rng)
        primal = sample_noisy_system(a, 1, 72, 0.1, rng)
        dual = sample_noisy_system(a.dual(), 1, 72, 0.1, rng)
        wins += degree1_attack(primal, dual) == a
    assert wins >= 49


def test_degree1_attack_noise_free_exact():
    rng = np.random.default_rng(99)
    a = f2lin.random_subspace(8, 4, rng)
    primal = sample_noisy_system(a, 1, 16, 0.0, rng)
    dual = sample_noisy_system(a.dual(), 1, 16, 0.0, rng)
    # every clean dual row is a member of A
    for row in dual.coeffs:
        vec = 0
        for mask in np.flatnonzero(row):
            vec |= int(mask)
        assert a.contains(vec)
    assert degree1_attack(primal, dual) == a


def test_degree1_attack_unrelated_systems_fail():
    rng = np.random.default_rng(100)
    a = f2lin.random_subspace(12, 6, rng)
    b = f2lin.random_subspace(12, 6, rng)
    primal = sample_noisy_system(a, 1, 72, 0.1, rng)
    unrelated = sample_noisy_system(b, 1, 72, 0.1, rng)
    with pytest.raises(DegreeOneAttackError):
        degree1_attack(primal, unrelated)


def test_degree1_attack_rejects_higher_degree():
    rng = np.random.default_rng(101)
    a = f2lin.random_subspace(8, 4, rng)
    primal = sample_noisy_system(a, 2, 16, 0.0, rng)
    dual = sample_noisy_system(a.dual(), 1, 16, 0.0, rng)
    with pytest.raises(ValueError):
        degree1_attack(primal, dual)


def test_measuring_copies_spans_subspace():
    # n standard-basis measurements of the money state span A with the exact
    # random-matrix probability prod_{i<dim} (1 - 2^{i-n})
    rng = np.random.default_rng(102)
    n = 8
    wins = 0
    trials = 400
    for _ in range(trials):
        a = f2lin.random_subspace(n, 4, rng)
        members = a.member_array()
        draws = [int(members[rng.integers(0, len(members))]) for _ in range(n)]
        wins += f2lin.rank(draws, n) == a.dim
    want = math.prod(1 - 2.0 ** (i - n) for i in range(4))
    sigma = math.sqrt(want * (1 - want) / trials)
    assert abs(wins / trials - want) < 4 * sigma


def test_soundness_experiment_baselines():
    from hsmoney.polyhide import soundness_experiment
    from hsmoney.qsim import subspace_state

    rng = np.random.default_rng(103)

    def cheating_cloner(note, rng_in):
        sub = zset_subspace(note.primal_system)
        target = subspace_state(sub)
        return target.tensor(target)

    report = soundness_experiment(cheating_cloner, 8, rng, max_pipeline_runs=12)
    assert report.recovered

    def junk(note, rng_in):
        n = note.primal_system.n_vars
        return StateVector.basis(2 * n, 3)

    report = soundness_experiment(junk, 8, rng, max_pipeline_runs=4)
    assert not report.recovered
