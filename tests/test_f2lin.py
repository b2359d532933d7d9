"""GF(2) linear algebra: enumeration oracles and canonical-form checks."""

import itertools

import numpy as np
import pytest

import dense_reference
from hsmoney import f2lin
from hsmoney.f2lin import LinMap, Subspace


def brute_dual(a: Subspace) -> set:
    return {
        y
        for y in range(1 << a.n)
        if all(dense_reference.dot(x, y) == 0 for x in dense_reference.members(a))
    }


def test_dot_symmetric_bilinear():
    rng = np.random.default_rng(1)
    n = 10
    for _ in range(200):
        x, y, z = (int(v) for v in rng.integers(0, 1 << n, size=3))
        assert dense_reference.dot(x, y) == dense_reference.dot(y, x)
        assert dense_reference.dot(x ^ y, z) == (dense_reference.dot(x, z) ^ dense_reference.dot(y, z))


def test_dual_coordinate_subspace():
    n = 8
    a = Subspace.from_rows([1 << i for i in range(n // 2)], n)
    d = a.dual()
    assert d == Subspace.from_rows([1 << i for i in range(n // 2, n)], n)


def test_dual_full_space_and_zero():
    n = 6
    full = Subspace.from_rows([1 << i for i in range(n)], n)
    assert full.dual() == Subspace.zero(n)
    assert Subspace.zero(n).dual() == full


def test_dual_matches_enumeration_n8():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = f2lin.random_subspace(8, 4, rng)
        d = a.dual()
        assert set(dense_reference.members(d)) == brute_dual(a)
        assert d.dim == 8 - a.dim
        assert d.dual() == a


def test_dual_involution_various_dims():
    rng = np.random.default_rng(3)
    for n in (4, 6, 10):
        for dim in range(n + 1):
            a = f2lin.random_subspace(n, dim, rng)
            assert a.dual().dual() == a
            assert a.dim + a.dual().dim == n


def test_random_subspace_uniform_n2_dim1():
    # the three 1-dim subspaces of F_2^2 are span{01}, span{10}, span{11}
    rng = np.random.default_rng(4)
    counts = {1: 0, 2: 0, 3: 0}
    trials = 10_000
    for _ in range(trials):
        a = f2lin.random_subspace(2, 1, rng)
        counts[a.basis[0]] += 1
    expected = trials / 3
    sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
    for c in counts.values():
        assert abs(c - expected) < 3 * sigma


def test_random_subspace_cardinality():
    rng = np.random.default_rng(5)
    a = f2lin.random_subspace(4, 2, rng)
    assert len(set(dense_reference.members(a))) == 4
    assert a.member_array().tolist() == sorted(dense_reference.members(a))


def test_random_subspace_bad_dim():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        f2lin.random_subspace(4, 5, rng)
    with pytest.raises(ValueError):
        f2lin.random_subspace(4, -1, rng)


def test_contains_trivial_cases():
    rng = np.random.default_rng(7)
    a = f2lin.random_subspace(8, 4, rng)
    assert a.contains(0)
    b = Subspace.from_rows([0b01], 2)
    assert not b.contains(0b10)


def test_contains_agrees_with_enumeration():
    rng = np.random.default_rng(8)
    for n in (8, 10):
        for _ in range(15):
            a = f2lin.random_subspace(n, int(rng.integers(0, n + 1)), rng)
            span = set(dense_reference.members(a))
            for _ in range(30):
                x = int(rng.integers(0, 1 << n))
                assert a.contains(x) == (x in span)


def test_contains_dimension_mismatch():
    a = Subspace.from_rows([0b1], 2)
    with pytest.raises(ValueError):
        a.contains(1 << 5)


def test_canonical_form_equality():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a = f2lin.random_subspace(8, 4, rng)
        # rebuild from random generating sets of the same space
        members = dense_reference.members(a)
        rows = []
        while f2lin.rank(rows, 8) < 4:
            rows = [members[int(rng.integers(0, len(members)))] for _ in range(6)]
        b = Subspace.from_rows(rows, 8)
        assert a == b


def _accepts(n, basis):
    try:
        Subspace(n, basis)
    except ValueError:
        return False
    return True


def test_basis_check_is_rref_equality_on_every_small_tuple():
    # every tuple of up to 3 rows at n <= 4 (5,054 of them): the constructor
    # accepts exactly the tuples that `rref` leaves unchanged
    tuples = [(n, basis) for n in range(1, 5) for k in range(4)
              for basis in itertools.product(range(1 << n), repeat=k)]
    assert len(tuples) == 5054
    for n, basis in tuples:
        assert _accepts(n, basis) == (basis == f2lin.rref(basis, n)), (n, basis)
    for n, basis in [(3, [0b001]), (3, (0b001, 0b001)), (3, (0b010, 0b001)), (3, (0b011, 0b010)), (3, (0,))]:
        with pytest.raises(ValueError, match="reduced row echelon"):
            Subspace(n, basis)


def test_linmap_apply_and_identity():
    rng = np.random.default_rng(10)
    n = 8
    ident = dense_reference.identity(n)
    a = f2lin.random_subspace(n, 4, rng)
    assert f2lin.image(ident, a) == a
    for _ in range(20):
        x = int(rng.integers(0, 1 << n))
        assert ident.apply(x) == x


def test_linmap_inverse_roundtrip():
    rng = np.random.default_rng(11)
    n = 8
    for _ in range(20):
        f = f2lin.random_invertible(n, rng)
        g = f.inverse()
        for _ in range(10):
            x = int(rng.integers(0, 1 << n))
            assert g.apply(f.apply(x)) == x
            assert f.apply(g.apply(x)) == x


def test_linmap_transpose_consistency():
    # (f^{-1})^T == (f^T)^{-1}
    rng = np.random.default_rng(12)
    f = f2lin.random_invertible(8, rng)
    assert f.inverse().transpose() == f.transpose().inverse()


def test_linmap_singular_raises():
    rows = (0b1, 0b1) + tuple(0 for _ in range(6))
    f = LinMap(8, rows + ())
    assert not f.is_invertible()
    with pytest.raises(ValueError):
        f.inverse()


def test_image_dual_identity():
    # dual(image(f, A)) == image(f^{-T}, dual(A)), checked by enumeration
    rng = np.random.default_rng(13)
    n = 8
    for _ in range(100):
        a = f2lin.random_subspace(n, 4, rng)
        f = f2lin.random_invertible(n, rng)
        lhs = f2lin.image(f, a).dual()
        rhs = f2lin.image(f.inverse().transpose(), a.dual())
        assert lhs == rhs
        assert set(dense_reference.members(lhs)) == brute_dual(f2lin.image(f, a))


def test_neighbor_by_row_replacement():
    # replacing one basis row of a dim-4 subspace with an outside vector
    # yields dim(A cap B) == 3
    rng = np.random.default_rng(14)
    n = 8
    for _ in range(50):
        a = f2lin.random_subspace(n, 4, rng)
        keep = list(a.basis[:3])
        while True:
            x = int(rng.integers(0, 1 << n))
            if not a.contains(x):
                break
        b = Subspace.from_rows(keep + [x], n)
        assert b.dim == 4
        assert dense_reference.intersection_dim(a, b) == 3


def test_intersection_dim_cases():
    rng = np.random.default_rng(15)
    n = 8
    a = f2lin.random_subspace(n, 4, rng)
    assert dense_reference.intersection_dim(a, a) == 4
    coord = Subspace.from_rows([1 << i for i in range(4)], n)
    assert dense_reference.intersection_dim(coord, coord.dual()) == 0
    for _ in range(30):
        b = f2lin.random_subspace(n, 4, rng)
        common = set(dense_reference.members(a)) & set(dense_reference.members(b))
        assert dense_reference.intersection_dim(a, b) == int(np.log2(len(common)))


def test_intersection_dim_mismatch():
    a = Subspace.zero(4)
    b = Subspace.zero(6)
    with pytest.raises(ValueError):
        dense_reference.intersection_dim(a, b)


def test_permutation_table_matches_apply():
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        f = f2lin.random_invertible(n, rng)
        table = f.permutation_table()
        assert table.dtype == np.int64
        assert table.tolist() == [f.apply(x) for x in range(1 << n)]


def test_point_tables_hold_each_maps_images():
    """Row k of one batched table is the point table of the map whose
    columns are row k of the input."""
    rng = np.random.default_rng(170)
    n = 6
    cols = rng.integers(0, 1 << n, size=(5, n))
    tables = f2lin.point_tables(cols)
    assert tables.shape == (5, 1 << n)
    for row, table in zip(cols, tables):
        m = LinMap(n, tuple(int(c) for c in row)).transpose()
        assert table.tolist() == [m.apply(x) for x in range(1 << n)]


def test_complete_to_invertible_maps_coordinates_onto_subspace():
    rng = np.random.default_rng(18)
    n = 8
    for _ in range(20):
        a = f2lin.random_subspace(n, 4, rng)
        f = f2lin.complete_to_invertible(a, rng)
        assert f.is_invertible()
        coord = Subspace.from_rows([1 << i for i in range(4)], n)
        assert f2lin.image(f, coord) == a


def test_complete_to_invertible_matches_rref_reference():
    """Same map and same generator state as completing by a full rref per
    candidate, at every dimension."""
    n = 8
    for seed in range(30):
        for dim in range(n + 1):
            a = f2lin.random_subspace(n, dim, np.random.default_rng([seed, dim]))
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert f2lin.complete_to_invertible(a, fast) == dense_reference.complete_to_invertible(a, slow)
            assert fast.bit_generator.state == slow.bit_generator.state




class _DrawSizes:
    """A generator stand-in that records the size of every `integers` call."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.sizes = rng, []

    def integers(self, low, high, size=None):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size)


def test_complete_basis_draws_the_last_candidate_as_a_scalar():
    """With one vector missing, a scalar draw, never a block of one, with the
    map and generator state of the scalar reference; dimension n - 1 starts
    there, and each rejected last candidate returns to it."""
    scalars = 0
    for seed in range(300):
        n = 1 + seed % 16
        a = f2lin.random_subspace(n, max(0, n - 1 - seed % 3), np.random.default_rng([seed, n]))
        fast, slow = _DrawSizes(np.random.default_rng(seed)), np.random.default_rng(seed)
        basis = f2lin.complete_basis(a, fast)
        assert LinMap(n, tuple(basis)).transpose() == dense_reference.complete_to_invertible(a, slow)
        assert fast.rng.bit_generator.state == slow.bit_generator.state
        assert 1 not in fast.sizes
        scalars += fast.sizes.count(None)
    assert scalars > 300
