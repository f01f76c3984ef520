"""Adjacency matrices over a prime field and their local-Clifford orbit catalogs.

A graph-state class is encoded by a symmetric zero-diagonal matrix over F_d.
Two matrices describe locally Clifford-equivalent states exactly when they
are connected by vertex scalings (M moves) and weighted local
complementations (L moves).  `enumerate_classes` labels every matrix of a
register with its orbit at once, by sweeps over integer-coded matrices.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from magicwit.algebra import require_prime
from magicwit.errors import ResourceLimitError

# Most matrices `enumerate_classes` codes; a larger register raises ResourceLimitError.
DEFAULT_ENUM_BUDGET = 1 << 24


class AdjacencyMatrix:
    """Symmetric zero-diagonal matrix over F_d (one weighted graph)."""

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries) -> None:
        self.d = require_prime(d)
        a = np.array(entries, dtype=np.int64) % self.d
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.any(a != a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency matrix must have a zero diagonal")
        a.setflags(write=False)
        self.entries = a

    @classmethod
    def _trusted(cls, d: int, entries: np.ndarray) -> AdjacencyMatrix:
        """Wrap a read-only int64 matrix already reduced mod d, symmetric, zero-diagonal."""
        a = object.__new__(cls)
        a.d = d
        a.entries = entries
        return a

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def key(self) -> bytes:
        """Row-major byte string; byte order matches lexicographic entry order."""
        return self.entries.astype(np.uint8).tobytes()

    def edges(self) -> list[tuple[int, int, int]]:
        """(i, j, weight) for i < j with nonzero weight."""
        return [
            (i, j, int(self.entries[i, j]))
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.entries[i, j]
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdjacencyMatrix)
            and self.d == other.d
            and self.n == other.n
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.key()))

    def __repr__(self) -> str:
        return f"AdjacencyMatrix(d={self.d}, n={self.n}, edges={self.edges()!r})"


@dataclass(frozen=True)
class OrbitCatalog:
    """All M/L orbits at fixed (n, d), keyed by lexicographic representatives."""

    n: int
    d: int
    representatives: tuple[AdjacencyMatrix, ...]
    orbit_sizes: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.orbit_sizes)

    def __len__(self) -> int:
        return len(self.representatives)


def _move_images(code: np.ndarray, n: int, d: int, place: dict) -> Iterator[np.ndarray]:
    """Yield the code -> code image of every M and L move, one at a time.

    place[i, j] = place[j, i] is the base-d place value of the digit holding
    entry (i, j).  Digits are recomputed from the codes where a move needs
    them, so only a few code-length vectors are alive at a time.
    """

    def digit(i: int, j: int) -> np.ndarray:
        return code // place[i, j] % d

    for v in range(n):
        others = [u for u in range(n) if u != v]
        for b in range(2, d):
            img = code.copy()
            for u in others:
                a = digit(u, v)
                img += (a * b % d - a) * place[u, v]
            yield img
        for c in range(1, d):
            img = code.copy()
            for i, j in itertools.combinations(others, 2):
                a = digit(i, j)
                img += ((a + c * digit(v, i) * digit(v, j)) % d - a) * place[i, j]
            yield img


def enumerate_classes(n: int, d: int) -> OrbitCatalog:
    """Partition all n-vertex adjacency matrices over F_d into M/L orbits.

    Each matrix is coded as the integer whose base-d digits are its
    upper-triangle entries in row-major pair order, first pair most
    significant.  Codes then count in `itertools.product` order, which is
    also the byte order of `AdjacencyMatrix.key()`: two matrices first
    differ at an upper-triangle entry, and every entry before it in the
    row-major bytes mirrors an earlier pair.  So the smallest code of an
    orbit is its lexicographic representative.

    Orbits are the connected components of the move graph, found by
    min-label sweeps: every code starts labelled by itself, each move sets
    label = min(label, label[image]), and pointer jumping (label =
    label[label]) follows; sweeps repeat until one changes nothing.  Every
    move's inverse is a move too, so the fixed point labels each code with
    the smallest code of its orbit.  Move images are recomputed each sweep,
    so only a few code-length integer vectors are alive at a time.
    """
    d = require_prime(d)
    if n < 1:
        raise ValueError("need at least one vertex")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = d ** len(pairs)
    if total > DEFAULT_ENUM_BUDGET:
        raise ResourceLimitError(
            f"{total} matrices at (n={n}, d={d}) exceed the enumeration budget "
            f"{DEFAULT_ENUM_BUDGET}"
        )
    place_values = d ** np.arange(len(pairs) - 1, -1, -1, dtype=np.int64)
    place = {}
    for (i, j), v in zip(pairs, place_values.tolist()):
        place[i, j] = place[j, i] = v
    # Move arithmetic stays below total * d (a product of two digits when n = 2).
    code = np.arange(total, dtype=np.int32 if total * d <= np.iinfo(np.int32).max else np.int64)
    label = code.copy()
    while True:
        before = label.copy()
        for img in _move_images(code, n, d, place):
            np.minimum(label, label[img], out=label)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            break
    reps, sizes = np.unique(label, return_counts=True)
    # Digits in pair order fill the upper triangles (row-major, as `pairs`).
    rows, cols = np.triu_indices(n, 1)
    upper = np.zeros((len(reps), n, n), dtype=np.int64)
    upper[:, rows, cols] = reps[:, None] // place_values % d
    mats = upper + upper.transpose(0, 2, 1)
    mats.setflags(write=False)
    representatives = tuple(AdjacencyMatrix._trusted(d, m) for m in mats)
    return OrbitCatalog(
        n=n, d=d, representatives=representatives, orbit_sizes=tuple(sizes.tolist())
    )


@dataclass(frozen=True)
class ClusterBlock:
    """All parties sharing one local dimension, with their orbit catalog."""

    dim: int
    parties: tuple[int, ...]
    catalog: OrbitCatalog


@dataclass(frozen=True)
class ClusterFamily:
    """Partition of the party list into equal-dimension clusters.

    Entangled stabilizer classes only exist within a cluster, so the joint
    class representatives are all combinations of one orbit representative
    per cluster (a direct sum of per-cluster adjacency matrices).
    """

    dims: tuple[int, ...]
    blocks: tuple[ClusterBlock, ...]

    def assignments(self) -> Iterator[tuple[AdjacencyMatrix, ...]]:
        """Yield every choice of one orbit representative per cluster."""
        yield from itertools.product(*(b.catalog.representatives for b in self.blocks))


def cluster_representatives(dims: Sequence[int]) -> ClusterFamily:
    """Group equal dimensions into clusters and enumerate one catalog each.

    Singleton clusters have a single class (the 1x1 zero matrix), so a
    register of pairwise distinct primes admits only the product class.
    """
    dims = tuple(require_prime(x) for x in dims)
    if not dims:
        raise ValueError("need at least one party")
    blocks = []
    for dval in sorted(set(dims)):
        parties = tuple(i for i, x in enumerate(dims) if x == dval)
        blocks.append(
            ClusterBlock(
                dim=dval,
                parties=parties,
                catalog=enumerate_classes(len(parties), dval),
            )
        )
    return ClusterFamily(dims=dims, blocks=tuple(blocks))
