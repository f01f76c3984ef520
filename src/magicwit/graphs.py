"""Adjacency matrices over a prime field and their local-Clifford orbit catalogs.

A graph-state class is encoded by a symmetric zero-diagonal matrix over F_d.
Two matrices describe locally Clifford-equivalent states exactly when they
are connected by vertex scalings (M moves) and weighted local
complementations (L moves).  `enumerate_classes` labels every matrix of a
register with its orbit at once, by sweeps over integer-coded matrices.
The codes form a grid with one axis per upper-triangle entry, and a move
shifts them by a sum of small tables broadcast along the axes of the
entries it reads, so no digit is decoded by division.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from magicwit.algebra import require_prime
from magicwit.errors import require_count, write_count

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

    def edges(self) -> list[tuple[int, int, int]]:
        """(i, j, weight) for i < j with nonzero weight."""
        return [
            (i, j, int(self.entries[i, j]))
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.entries[i, j]
        ]

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


def _qubit_masks(n: int, dtype) -> np.ndarray:
    """mask[v, x] (n, 2^(n-1)): the code bits an L move at v flips when row v's bits read x.

    Bit p of x is a_vu for the p-th vertex u != v, in the order of row v's
    pairs, and mask[v, x] sums a_vu a_vw 2^(pairs - 1 - k) over the pairs
    k = (u, w), u < w: distinct powers of 2, so the sum is their XOR.
    """
    upper = np.zeros((n, n), dtype=dtype)
    upper[np.triu_indices(n, 1)] = 2 ** np.arange(n * (n - 1) // 2 - 1, -1, -1)
    others = np.array([[u for u in range(n) if u != v] for v in range(n)], dtype=np.intp)
    bit = np.indices((2,) * (n - 1), dtype=dtype).reshape(n - 1, 2 ** (n - 1))
    table = upper[others[:, :, None], others[:, None, :]] @ bit
    return (table * bit).sum(axis=1, dtype=dtype)


def _move_images(
    code: np.ndarray, n: int, d: int, mask: np.ndarray | None
) -> Iterator[np.ndarray]:
    """Yield the code -> code image of every M and L move, one at a time.

    The codes count in row-major base-d order, so code.reshape((d,) * pairs)
    is a grid whose index along axis k is the digit of pair k, and digit[i, j]
    is arange(d) laid along the axis of entry (i, j).  A move changes entry
    (i, j) as a function of one digit, a_ij, for an M move, or of three,
    (a_ij, a_vi, a_vj), for an L move.  So its change (new - old) * place[i, j]
    is a table of d or d^3 entries on those axes, and an image is a copy of
    the grid plus the broadcast sum of its move's tables.

    For qubits every move is L_{v,1}, which flips entry (i, j) exactly when
    a_vi = a_vj = 1; bit k of a code is the entry of pair k, so the image is
    grid ^ mask[v], where mask[v] = XOR over i < j of a_vi a_vj place[i, j] is
    a table of 2^(n-1) entries on the axes of row v (`_qubit_masks`, built
    once per enumeration and passed in; None for odd d), one full-grid pass
    in all.

    A table on one of the grid's last axes would leave numpy inner loops of
    a few entries, so the grid is viewed as a head of (d,) axes and one
    contiguous tail axis of d^t lanes that merges the last t = pairs // 2
    axes, when d^t >= 64 (else t = 0 and the tail is one lane).  A table
    that reads a tail digit is laid over the whole tail, so it comes out
    materialized over all d^t lanes and its add (or XOR) runs them
    contiguously; a table on head axes only broadcasts along the tail.  The
    sums are the same, so are the images, bitwise.

    Besides its image a move holds one table at a time, and no table
    outgrows the grid: it spans d entries per head axis it reads, times d^t
    if it reads a tail digit, so at most d^head * d^t = total, and d^3 when
    it reads no tail digit (L tables need n >= 3, hence d^3 <= total).  The
    tail digits hold pairs * d^t entries more, with d^t <= sqrt(total).
    Odd-d tables are rebuilt on every call, that is every sweep, rather than
    kept: at n = 3 each L table is as large as the grid, so keeping them all
    would hold 3 (d - 1) grids.  The qubit masks take 2^(n-1) entries per
    vertex, far below one grid, and only their layout over the lanes is
    made per move.
    """
    pairs = list(itertools.combinations(range(n), 2))
    tail = len(pairs) // 2
    if d**tail < 64:
        tail = 0
    head = len(pairs) - tail
    grid = code.reshape((d,) * head + (d**tail,))

    def lay(table: np.ndarray, axes: list[int]) -> np.ndarray:
        """A table with one axis per pair in `axes` (ascending), in the grid's layout."""
        a = table.reshape([d if k in axes else 1 for k in range(len(pairs))])
        if axes and axes[-1] >= head:
            a = np.broadcast_to(a, a.shape[:head] + (d,) * tail)
        return a.reshape(a.shape[:head] + (-1,))

    place = {}
    for k, (i, j) in enumerate(pairs):
        place[i, j] = place[j, i] = d ** (len(pairs) - 1 - k)

    if d == 2:
        for v in range(n):
            row = [k for k, pair in enumerate(pairs) if v in pair]
            yield (grid ^ lay(mask[v], row)).ravel()
        return

    digit = {}
    for k, (i, j) in enumerate(pairs):
        digit[i, j] = digit[j, i] = lay(np.arange(d, dtype=code.dtype), [k])
    for v in range(n):
        others = [u for u in range(n) if u != v]
        for b in range(2, d):
            img = grid.copy()
            for u in others:
                a = digit[u, v]
                img += (a * b % d - a) * place[u, v]
            yield img.ravel()
        for c in range(1, d):
            img = grid.copy()
            for i, j in itertools.combinations(others, 2):
                a = digit[i, j]
                img += ((a + c * digit[v, i] * digit[v, j]) % d - a) * place[i, j]
            yield img.ravel()


def _take(source: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = source[index], half of `index` at a time.

    np.take copies its indices to intp, twice the size of int32 codes, so a
    half keeps that copy within one code vector.  Every code is in range, so
    mode "clip" changes nothing; "raise" would buffer `out` as well.
    """
    half = -(-len(index) // 2)
    source.take(index[:half], out=out[:half], mode="clip")
    source.take(index[half:], out=out[half:], mode="clip")
    return out


def _orbit_labels(n: int, d: int, total: int) -> np.ndarray:
    """Label every code of the register with the smallest code of its orbit.

    Orbits are the connected components of the move graph, found by
    min-label sweeps: every code starts labelled by itself, each move sets
    label = min(label, label[image]), and pointer jumping (label =
    label[label]) follows; sweeps repeat until one changes nothing.  Every
    move's inverse is a move too, so the fixed point labels each code with
    the smallest code of its orbit.  Labels only fall, so a sweep changed
    nothing exactly when it left the labels' sum as it was.  Each sweep
    rebuilds every image from the code grid and small tables, without
    division (`_move_images`), and drops it once used; the labels of an
    image are gathered into one buffer kept for the whole call (`_take`).
    So the codes, the labels, that buffer, one image and either the next
    image or the intp copy of half an image that `np.take` makes are the
    only code-length vectors alive at a time.
    """
    # Table arithmetic stays below total * d (a product of two digits when n = 2).
    code = np.arange(total, dtype=np.int32 if total * d <= np.iinfo(np.int32).max else np.int64)
    label = code.copy()
    gathered = np.empty_like(label)
    mask = _qubit_masks(n, code.dtype) if d == 2 else None
    weight = label.sum(dtype=np.int64)
    while True:
        before = weight
        for img in _move_images(code, n, d, mask):
            np.minimum(label, _take(label, img, gathered), out=label)
        weight = label.sum(dtype=np.int64)
        while True:
            jumped = _take(label, label, gathered).sum(dtype=np.int64)
            if jumped == weight:
                break
            label, gathered, weight = gathered, label, jumped
        if weight == before:
            return label


def enumerate_classes(n: int, d: int) -> OrbitCatalog:
    """Partition all n-vertex adjacency matrices over F_d into M/L orbits.

    Each matrix is coded as the integer whose base-d digits are its
    upper-triangle entries in row-major pair order, first pair most
    significant.  Codes then count in `itertools.product` order, which is
    the lexicographic order of the upper-triangle entries read row by row;
    it is also the lexicographic order of the full matrices read row by
    row, since every entry before the first upper-triangle difference
    mirrors an earlier pair.  So the smallest code of an orbit, the label
    `_orbit_labels` gives all its codes, is its lexicographic
    representative.  Counting the labels gives each orbit's size, and the
    labels that occur, in increasing order, are the representatives; the
    count holds the labels, np.bincount's intp copy of them and its int64
    counts, five code-length vectors as at the peak of the sweeps.
    """
    d = require_prime(d)
    if n < 1:
        raise ValueError("need at least one vertex")
    pairs = n * (n - 1) // 2
    what = f"matrices at (n={write_count(n)}, d={d}) exceed the enumeration budget"
    total = require_count([(d, pairs)], DEFAULT_ENUM_BUDGET, what)
    place_values = d ** np.arange(pairs - 1, -1, -1, dtype=np.int64)
    counts = np.bincount(_orbit_labels(n, d, total))
    reps = np.flatnonzero(counts)
    sizes = counts[reps]
    # Digits in pair order (row-major, first pair most significant) fill the upper triangles.
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
