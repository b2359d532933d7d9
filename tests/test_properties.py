"""Property tests: serialization round trips, involutions and algebraic
identities over randomly drawn small instances (n <= 8; n <= 12 for the
basis check, n <= 16 for the block-drawn subspaces and basis completions),
and fuzzes of the note, state and bundle readers on mutations of one minted
system, one dumped state and one exported bundle."""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference
from hsmoney.config import ATOL
from hsmoney.f2lin import LinMap, Subspace, complete_basis, random_subspace, rref
from hsmoney.hsmini import OracleBundle
from hsmoney.money import LamportMerkleSigner, MalformedSignatureError
from hsmoney.polyhide import PolySystem, bank_explicit_with_secret, xor_mobius_inplace
from hsmoney.qsim import StateVector, haar_random_state, sqnorm, walsh_hadamard_raw

small = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def subspaces(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    return Subspace.from_rows(rows, n)


@st.composite
def bases(draw):
    """(n, rows) at n <= 12: drawn rows, their reduced form, or that form
    with two rows added, swapped or a bit flipped."""
    n = draw(st.integers(1, 12))
    rows = tuple(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 1)))
    reduced = rref(rows, n)
    kind = draw(st.sampled_from(["drawn", "reduced", "add", "swap", "flip"]))
    if kind == "drawn":
        return n, rows
    if kind == "reduced" or not reduced:
        return n, reduced
    out = list(reduced)
    i, j = draw(st.integers(0, len(out) - 1)), draw(st.integers(0, len(out) - 1))
    if kind == "add":
        out[i] ^= out[j]
    elif kind == "swap":
        out[i], out[j] = out[j], out[i]
    elif kind == "flip":
        out[i] ^= 1 << draw(st.integers(0, n - 1))
    return n, tuple(out)


@settings(max_examples=200, deadline=None)
@given(bases())
def test_subspace_accepts_exactly_the_rref_bases(n_rows):
    n, rows = n_rows
    try:
        Subspace(n, rows)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (rows == rref(rows, n))


@st.composite
def invertible_maps(draw):
    n = draw(st.integers(1, 6))
    m = LinMap(n, tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
    assume(m.is_invertible())
    return m


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
    above_d = np.array([bin(mask).count("1") > d for mask in range(1 << n)])
    if coeffs[:, above_d].any():
        # a monomial above the degree bound, which no mint gives, is refused; the rest round-trips
        with pytest.raises(ValueError, match="degree above"):
            PolySystem.deserialize(PolySystem(n, d, eps, coeffs).serialize())
        coeffs[:, above_d] = 0
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
    assert [dense_reference.weight(system, v) for v in range(1 << n)] == system.zero_count_table().tolist()


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


@lru_cache(maxsize=1)
def _note_text():
    note, _ = bank_explicit_with_secret(6, 4, 0.25, 12.0, np.random.default_rng(7))
    return note.primal_system.serialize()


@lru_cache(maxsize=1)
def _state_text():
    return haar_random_state(4, np.random.default_rng(9)).dump()


NOTE_TOKENS = ["x", "x6", "x-1", "x0.x0", ".", ",", "=", "1", "-", " ", "\n", "n=8", "m=0",
               "d=99", "eps=nan", "eps=1e999", "x0.x1.x2.x3.x4"]
STATE_TOKENS = ["n=", "n=4", "n=99", "n=0", "n=-1", "nan", "inf", "-inf", "1e999", "1j", "0x10",
                "16", "15", "-1", "0", ".", "e", " ", "\n"]


@st.composite
def mutated(draw, source, tokens):
    """The text `source()` with a token (one of `tokens` or any short text)
    inserted, a span deleted, or its lines duplicated or shuffled."""
    text = source()
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["insert", "delete", "duplicate", "shuffle"]))
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        token = draw(st.one_of(st.sampled_from(tokens), st.text(max_size=6)))
        return text[:at] + token + text[at:]
    if kind == "delete":
        start = draw(st.integers(0, len(text)))
        return text[:start] + text[start + draw(st.integers(1, 200)):]
    if kind == "duplicate":
        i = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[: i + 1] + lines[i:])
    return "".join(draw(st.permutations(lines)))


@settings(max_examples=100, deadline=None)
@given(mutated(_note_text, NOTE_TOKENS))
def test_note_reader_loads_or_refuses_mutated_notes(text):
    # a mutated note is read as some system or refused by ValueError, which
    # the command line turns into one error line and exit 2; nothing else escapes
    try:
        system = PolySystem.deserialize(text)
    except ValueError:
        return
    assert system.coeffs.shape == (system.m, 1 << system.n_vars)


@settings(max_examples=100, deadline=None)
@given(mutated(_state_text, STATE_TOKENS))
def test_state_reader_loads_or_refuses_mutated_dumps(text):
    # the same for a dumped n=4 state: it loads as a unit vector or is refused
    try:
        state = StateVector.load(text)
    except ValueError:
        return
    assert abs(sqnorm(state.amps) - 1) <= ATOL


@lru_cache(maxsize=1)
def _bundle_text():
    # indented, so that the line mutations move whole entries and fields
    bundle = OracleBundle(4, np.random.default_rng(11))
    for r in (0, 3, 9):
        bundle.generator(r)
    return json.dumps(bundle.snapshot(), indent=1, sort_keys=True)


BUNDLE_TOKENS = ["{", "}", "[", "]", ",", ":", '"', "null", "true", "0", "-1", "16", "4", "1e999", "NaN",
                 '"0"', '"00"', '"1"', '"0101"', '"01"', '"2"', '"abc"', '"n"', '"entries"', '"basis"',
                 '"serial"', "[" * 50]


@settings(max_examples=100, deadline=None)
@given(mutated(_bundle_text, BUNDLE_TOKENS))
def test_bundle_reader_loads_or_refuses_mutated_snapshots(text):
    # a mutated snapshot loads as a bundle whose every entry is a serial and
    # a dim-n/2 subspace, or is refused by ValueError; nothing else escapes
    try:
        bundle = OracleBundle.import_json(text, np.random.default_rng(0))
    except ValueError:
        bundle = None
    if bundle is not None:
        for r, entry in bundle.snapshot()["entries"].items():
            found = bundle.lookup(bytes.fromhex(entry["serial"]))
            assert found.r == int(r) and found.subspace.dim == bundle.n // 2
