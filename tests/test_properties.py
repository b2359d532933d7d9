"""Property tests: serialization round trips, involutions and algebraic
identities over randomly drawn small instances (n <= 8; n <= 16 for the
block-drawn subspaces and basis completions)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference
from hsmoney.f2lin import LinMap, Subspace, complete_basis, random_subspace
from hsmoney.hsmini import OracleBundle
from hsmoney.money import LamportMerkleSigner, MalformedSignatureError
from hsmoney.polyhide import PolySystem, xor_mobius_inplace
from hsmoney.qsim import StateVector, walsh_hadamard_raw

small = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def subspaces(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    return Subspace.from_rows(rows, n)


@st.composite
def invertible_maps(draw):
    n = draw(st.integers(1, 6))
    m = LinMap(n, tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
    assume(m.is_invertible())
    return m


@small
@given(subspaces())
def test_subspace_roundtrip(a):
    assert Subspace.deserialize(a.serialize()) == a


@small
@given(subspaces())
def test_dual_of_dual_is_identity(a):
    assert a.dual().dual() == a
    assert a.dual().dim == a.n - a.dim


@small
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0, 1, exclude_max=True), st.data())
def test_poly_system_roundtrip(n, d, eps, data):
    rows = data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=1, max_size=5))
    coeffs = np.array([[(row >> j) & 1 for j in range(1 << n)] for row in rows], dtype=np.uint8)
    system = PolySystem(n, d, eps, coeffs)
    text = system.serialize()
    if system.is_degenerate():
        # all rows zero: the zero set is all of F_2^n, and the note format refuses it
        with pytest.raises(ValueError, match="polynomials are zero"):
            PolySystem.deserialize(text)
        return
    back = PolySystem.deserialize(text)
    assert (back.n_vars, back.degree_bound, back.eps) == (n, d, eps)
    assert np.array_equal(back.coeffs, coeffs)
    assert back.serialize() == text


@small
@given(st.integers(1, 8), seeds)
def test_state_dump_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    amps = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)) * (rng.random(1 << n) < 0.5)
    amps[rng.integers(0, 1 << n)] += 1.0  # at least one amplitude
    state = StateVector(n, amps / np.linalg.norm(amps))
    assert np.array_equal(StateVector.load(state.dump()).amps, state.amps)


@small
@given(st.sampled_from([2, 4, 6, 8]), seeds, st.integers(0, 6))
def test_bundle_snapshot_roundtrip(n, seed, touch):
    bundle = OracleBundle(n, np.random.default_rng(seed))
    made = [bundle.generator(r) for r in range(min(touch, 1 << n))]
    text = bundle.export_json()
    back = OracleBundle.import_json(text, np.random.default_rng(0))
    assert back.export_json() == text
    for serial, sub in made:
        assert back.lookup(serial).subspace == sub


@small
@given(st.integers(0, 8), seeds)
def test_walsh_hadamard_is_an_involution(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    assert np.allclose(walsh_hadamard_raw(walsh_hadamard_raw(v)), v, rtol=0, atol=1e-12)


@small
@given(st.integers(0, 8), st.integers(1, 4), seeds)
def test_mobius_is_an_involution(n, m, seed):
    table = np.random.default_rng(seed).integers(0, 2, size=(m, 1 << n), dtype=np.uint8)
    assert np.array_equal(xor_mobius_inplace(xor_mobius_inplace(table.copy())), table)


def _subset_xor(table: np.ndarray) -> np.ndarray:
    """out[v] = XOR of table[u] over every u that is a subset of v, naively."""
    size = table.shape[-1]
    out = np.zeros_like(table)
    for v in range(size):
        for u in range(size):
            if u & v == u:
                out[..., v] ^= table[..., u]
    return out


@small
@given(st.integers(0, 8), st.integers(0, 4), seeds)
def test_mobius_matches_its_definition(n, m, seed):
    # m = 0 draws one 1-D row; tables of n < 6 fill part of one packed word
    shape = (m, 1 << n) if m else (1 << n,)
    table = np.random.default_rng(seed).integers(0, 2, size=shape, dtype=np.uint8)
    assert np.array_equal(xor_mobius_inplace(table.copy()), _subset_xor(table))


@small
@given(st.integers(0, 8), st.integers(1, 6), seeds)
def test_weight_is_the_zero_count_table(n, m, seed):
    coeffs = np.random.default_rng(seed).integers(0, 2, size=(m, 1 << n), dtype=np.uint8)
    system = PolySystem(n, n, 0.0, coeffs)
    assert [system.weight(v) for v in range(1 << n)] == system.zero_count_table().tolist()


@small
@given(invertible_maps())
def test_linmap_identities(m):
    inv = m.inverse()
    assert all(inv.apply(m.apply(x)) == x for x in range(1 << m.n))
    assert m.transpose().transpose() == m
    assert inv.transpose() == m.transpose().inverse()


@small
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))), seeds)
def test_block_draws_leave_the_generator_where_scalar_draws_do(n_dim, seed):
    n, dim = n_dim
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    a = random_subspace(n, dim, fast)
    assert a == dense_reference.random_subspace(n, dim, slow)
    assert fast.bit_generator.state == slow.bit_generator.state
    basis = complete_basis(a, fast)
    assert LinMap(n, tuple(basis)).transpose() == dense_reference.complete_to_invertible(a, slow)
    assert fast.bit_generator.state == slow.bit_generator.state


@lru_cache(maxsize=1)
def _signed():
    signer = LamportMerkleSigner(tree_height=1)
    sk, pk = signer.keygen(np.random.default_rng(5))
    return signer, pk, signer.sign(sk, b"serial")


@small
@given(st.data())
def test_lamport_rejects_every_single_byte_flip(data):
    signer, pk, sig = _signed()
    assert signer.sverify(pk, b"serial", sig)
    pos = data.draw(st.integers(0, len(sig) - 1))
    flip = data.draw(st.integers(1, 255))
    forged = sig[:pos] + bytes([sig[pos] ^ flip]) + sig[pos + 1:]
    try:
        accepted = signer.sverify(pk, b"serial", forged)
    except MalformedSignatureError:
        accepted = False
    assert not accepted
