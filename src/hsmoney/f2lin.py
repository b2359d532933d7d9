"""Exact linear algebra over F_2 with int-bitset vectors.

A vector in F_2^n is a Python int whose bit i is coordinate i. The same
convention indexes statevector amplitudes, so a vector *is* its basis-state
index. Subspaces are kept in reduced row echelon form, which makes the
representation canonical: two `Subspace` values are equal iff they span the
same set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import config


def vec_to_str(x: int, n: int) -> str:
    """Render coordinates 0..n-1 left to right."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def str_to_vec(s: str) -> int:
    x = 0
    for i, ch in enumerate(s):
        if ch == "1":
            x |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bit character {ch!r}")
    return x


def _check_dim(n: int) -> None:
    if not 0 < n <= config.F2_DIM_CAP:
        raise ValueError(f"ambient dimension {n} outside (0, {config.F2_DIM_CAP}]")


def _check_vec(x: int, n: int) -> None:
    if x < 0 or x >> n:
        raise ValueError(f"vector {x:#x} does not fit in {n} bits")


def rref(rows: Sequence[int], n: int) -> Tuple[int, ...]:
    """Reduced row echelon form over F_2; pivots taken from bit 0 upward.

    Returns the nonzero rows sorted by pivot position.
    """
    work: List[int] = [r for r in rows if r]
    out: List[int] = []
    for col in range(n):
        pivot = None
        for idx, r in enumerate(work):
            if (r >> col) & 1:
                pivot = idx
                break
        if pivot is None:
            continue
        row = work.pop(pivot)
        work = [w ^ row if (w >> col) & 1 else w for w in work]
        out = [o ^ row if (o >> col) & 1 else o for o in out]
        out.append(row)
        if not work:
            break
    return tuple(out)


def rank(rows: Sequence[int], n: int) -> int:
    return len(rref(rows, n))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n held as a reduced, canonical basis."""

    n: int
    basis: Tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dim(self.n)
        for r in self.basis:
            _check_vec(r, self.n)
        # `rref` returns exactly such a tuple: nonzero rows whose pivots
        # (lowest set bits) strictly increase, no row holding another's pivot
        pivots = [r & -r for r in self.basis]
        held = sum(pivots)
        if not (
            isinstance(self.basis, tuple)
            and all(pivots)
            and all(p < q for p, q in zip(pivots, pivots[1:]))
            and all(r & held == p for r, p in zip(self.basis, pivots))
        ):
            raise ValueError("basis is not in reduced row echelon form")

    @classmethod
    def from_rows(cls, rows: Sequence[int], n: int) -> "Subspace":
        return cls(n, rref(rows, n))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: int) -> bool:
        """Membership test by reducing x against the canonical basis."""
        _check_vec(x, self.n)
        for row in self.basis:
            pivot = row & -row
            if x & pivot:
                x ^= row
        return x == 0

    def member_array(self) -> np.ndarray:
        """All elements as a sorted int64 array."""
        span = np.zeros(1, dtype=np.int64)
        for row in self.basis:
            span = np.concatenate([span, span ^ row])
        span.sort()
        return span

    def dual(self) -> "Subspace":
        """Orthogonal complement {y : x . y = 0 for all x in span}."""
        pivots = [((r & -r).bit_length() - 1) for r in self.basis]
        pivot_set = set(pivots)
        rows = []
        for free in range(self.n):
            if free in pivot_set:
                continue
            y = 1 << free
            for j, r in enumerate(self.basis):
                if (r >> free) & 1:
                    y |= 1 << pivots[j]
            rows.append(y)
        return Subspace.from_rows(rows, self.n)

    def serialize(self) -> str:
        lines = [f"n={self.n} dim={self.dim}"]
        lines += [vec_to_str(r, self.n) for r in self.basis]
        return "\n".join(lines) + "\n"


def random_subspace(n: int, dim: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random dim-dimensional subspace of F_2^n.

    Rejection-samples random dim x n matrices until full rank; every subspace
    has the same number of ordered full-rank generating matrices, so the
    row space is exactly uniform.
    """
    _check_dim(n)
    if not 0 <= dim <= n:
        raise ValueError(f"dim {dim} outside [0, {n}]")
    if dim == 0:
        return Subspace.zero(n)
    while True:
        rows = rng.integers(0, 1 << n, size=dim).tolist()
        reduced = rref(rows, n)
        if len(reduced) == dim:
            return Subspace(n, reduced)


@dataclass(frozen=True)
class LinMap:
    """Linear map on F_2^n; row i of `rows` holds the i-th output bit mask.

    apply(x) has bit i equal to parity(rows[i] & x), i.e. matrix-vector
    product with x as a column vector.
    """

    n: int
    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if len(self.rows) != self.n:
            raise ValueError("row count must equal ambient dimension")
        for r in self.rows:
            _check_vec(r, self.n)

    def apply(self, x: int) -> int:
        _check_vec(x, self.n)
        y = 0
        for i, row in enumerate(self.rows):
            y |= (bin(row & x).count("1") & 1) << i
        return y

    def transpose(self) -> "LinMap":
        cols = []
        for j in range(self.n):
            c = 0
            for i, row in enumerate(self.rows):
                c |= ((row >> j) & 1) << i
            cols.append(c)
        return LinMap(self.n, tuple(cols))

    def is_invertible(self) -> bool:
        return rank(self.rows, self.n) == self.n

    def inverse(self) -> "LinMap":
        """Gauss-Jordan on [M | I]; raises on singular input."""
        n = self.n
        aug = [self.rows[i] | (1 << (n + i)) for i in range(n)]
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if (aug[r] >> col) & 1:
                    pivot = r
                    break
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            for r in range(n):
                if r != col and (aug[r] >> col) & 1:
                    aug[r] ^= aug[col]
        mask = (1 << n) - 1
        return LinMap(n, tuple((row >> n) & mask for row in aug))

    def permutation_table(self) -> np.ndarray:
        """apply(x) for every x in 0..2^n-1; the transpose's rows are the columns."""
        return point_tables(np.array([self.transpose().rows], dtype=np.int64))[0]


def point_tables(cols: np.ndarray) -> np.ndarray:
    """Row k holds M_k x for every x in 0..2^n-1, where row k of the (maps, n)
    int64 array `cols` lists M_k's columns; one XOR doubling for all maps."""
    maps, n = cols.shape
    tables = np.zeros((maps, 1 << n), dtype=np.int64)
    for j in range(n):
        half = 1 << j
        np.bitwise_xor(tables[:, :half], cols[:, j : j + 1], out=tables[:, half : 2 * half])
    return tables


def random_invertible(n: int, rng: np.random.Generator) -> LinMap:
    while True:
        rows = tuple(int(rng.integers(0, 1 << n)) for _ in range(n))
        if rank(rows, n) == n:
            return LinMap(n, rows)


def image(f: LinMap, a: Subspace) -> Subspace:
    """{f(x) : x in A}; requires f invertible so dimensions are preserved."""
    if f.n != a.n:
        raise ValueError("ambient dims differ")
    if not f.is_invertible():
        raise ValueError("matrix is singular")
    return Subspace.from_rows([f.apply(r) for r in a.basis], a.n)


def _insert_reduced(reduced: Dict[int, int], x: int) -> bool:
    """Add x to the reduced rows unless their span holds it; True if added."""
    while x:
        low = x & -x
        row = reduced.get(low)
        if row is None:
            reduced[low] = x
            return True
        x ^= row
    return False


def complete_basis(a: Subspace, rng: np.random.Generator) -> List[int]:
    """A's reduced basis, then uniform candidates kept when they leave the
    span so far. Each round draws one block of the candidates still certain
    to be needed (a scalar for the last), the same values and generator
    state as scalar draws."""
    basis: List[int] = list(a.basis)
    # reduced rows keyed by their lowest set bit: reducing a candidate
    # against them clears its lowest bit at each step, so it takes at most n
    # XORs and ends at 0 exactly when the candidate is in the span so far
    reduced: Dict[int, int] = {}
    for vec in a.basis:
        _insert_reduced(reduced, vec)
    while len(basis) < a.n:
        missing = a.n - len(basis)
        if missing == 1:  # a scalar draw: a block of one's value and stream, at half its cost
            cands = [int(rng.integers(0, 1 << a.n))]
        else:
            cands = rng.integers(0, 1 << a.n, size=missing).tolist()
        for cand in cands:
            if _insert_reduced(reduced, cand):
                basis.append(cand)
    return basis


def complete_to_invertible(a: Subspace, rng: np.random.Generator) -> LinMap:
    """The map whose columns are `complete_basis(a, rng)`: it sends
    span(e_0..e_{dim-1}) onto A, and its inverse sends A onto that frame."""
    return LinMap(a.n, tuple(complete_basis(a, rng))).transpose()
