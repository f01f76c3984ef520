"""Adjacency matrices over a prime field, local moves, and orbit catalogs.

A graph-state class is encoded by a symmetric zero-diagonal matrix over F_d.
Two matrices describe locally Clifford-equivalent states exactly when they
are connected by vertex scalings (M moves) and weighted local
complementations (L moves), so breadth-first closure under those moves
yields one representative per equivalence class.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from magicwit.algebra import require_prime
from magicwit.errors import ResourceLimitError

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


def m_move(a: AdjacencyMatrix, v: int, b: int) -> AdjacencyMatrix:
    """Scale row and column v by the field unit b."""
    b = b % a.d
    if b == 0:
        raise ValueError("m_move scale must be a nonzero field element")
    out = a.entries.copy()
    out[v, :] = out[v, :] * b % a.d
    out[:, v] = out[:, v] * b % a.d
    return AdjacencyMatrix(a.d, out)


def l_move(a: AdjacencyMatrix, v: int, c: int) -> AdjacencyMatrix:
    """Weighted local complementation at vertex v: A_ij += c * A_vi * A_vj."""
    row = a.entries[v]
    out = (a.entries + c * np.outer(row, row)) % a.d
    np.fill_diagonal(out, 0)
    return AdjacencyMatrix(a.d, out)


def lc_orbit(a: AdjacencyMatrix) -> tuple[AdjacencyMatrix, ...]:
    """Closure of {a} under all M and L moves, sorted lexicographically."""
    seen = {a.key(): a}
    frontier = [a]
    while frontier:
        cur = frontier.pop()
        for v in range(cur.n):
            for b in range(2, cur.d):
                nb = m_move(cur, v, b)
                if nb.key() not in seen:
                    seen[nb.key()] = nb
                    frontier.append(nb)
            for c in range(1, cur.d):
                nb = l_move(cur, v, c)
                if nb.key() not in seen:
                    seen[nb.key()] = nb
                    frontier.append(nb)
    return tuple(seen[k] for k in sorted(seen))


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


def enumerate_classes(n: int, d: int, budget: int = DEFAULT_ENUM_BUDGET) -> OrbitCatalog:
    """Partition all n-vertex adjacency matrices over F_d into M/L orbits.

    Matrices are visited in lexicographic row-major order, so the first
    unseen member of each orbit is also its lexicographically smallest one
    and becomes the representative.  The result is deterministic.
    """
    require_prime(d)
    if n < 1:
        raise ValueError("need at least one vertex")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = d ** len(pairs)
    if total > budget:
        raise ResourceLimitError(
            f"{total} matrices at (n={n}, d={d}) exceed the enumeration budget {budget}"
        )
    seen: set[bytes] = set()
    reps: list[AdjacencyMatrix] = []
    sizes: list[int] = []
    for combo in itertools.product(range(d), repeat=len(pairs)):
        m = np.zeros((n, n), dtype=np.int64)
        for (i, j), w in zip(pairs, combo):
            m[i, j] = m[j, i] = w
        a = AdjacencyMatrix(d, m)
        if a.key() in seen:
            continue
        orbit = lc_orbit(a)
        seen.update(x.key() for x in orbit)
        reps.append(orbit[0])
        sizes.append(len(orbit))
    return OrbitCatalog(n=n, d=d, representatives=tuple(reps), orbit_sizes=tuple(sizes))


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

    def count(self) -> int:
        out = 1
        for b in self.blocks:
            out *= len(b.catalog)
        return out


def cluster_representatives(
    dims: Sequence[int], budget: int = DEFAULT_ENUM_BUDGET
) -> ClusterFamily:
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
                catalog=enumerate_classes(len(parties), dval, budget),
            )
        )
    return ClusterFamily(dims=dims, blocks=tuple(blocks))
