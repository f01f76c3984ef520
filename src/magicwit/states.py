"""Graph states, the W family, cluster-state assembly and product-state detection.

A graph state is built from its closed-form phase polynomial
(`build_graph_state`).  The pipeline's stabilizer states are
`assemble_cluster_state`'s products of per-cluster graph states; the
`stabilizer-count-formula` check of `magicwit.verify` shows each one fixed by
its generators.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from magicwit.graphs import AdjacencyMatrix, ClusterFamily


@dataclass(frozen=True)
class GraphState:
    """Unit vector on a mixed-radix register, plus its source description."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    source: object = None

    def __post_init__(self) -> None:
        dims = tuple(int(x) for x in self.dims)
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (int(np.prod(dims)),):
            raise ValueError("amplitude vector does not match register dims")
        if not abs(np.linalg.norm(amp) - 1.0) <= 1e-9:
            raise ValueError("state vector must be normalized")
        amp.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)


def build_graph_state(a: AdjacencyMatrix) -> GraphState:
    """Graph state of `a` from the closed-form phase polynomial.

    The amplitude on basis state |a_1 .. a_n> is
    d^(-n/2) * omega^(sum_{i<j} A_ij a_i a_j).
    """
    d, n = a.d, a.n
    grids = np.indices((d,) * n)
    expo = np.zeros((d,) * n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            w = int(a.entries[i, j])
            if w:
                expo += w * grids[i] * grids[j]
    amps = np.exp(2j * np.pi * (expo % d) / d).ravel() / d ** (n / 2)
    return GraphState(dims=(d,) * n, amplitudes=amps, source=a)


def _product_factors(psi_t: np.ndarray) -> list[np.ndarray] | None:
    """Each party's factor of a product state psi_t (1, d_1..d_n); None if any party is entangled.

    Party i factors off exactly when its reduced state rho = M M^dagger, M
    being psi with that party's index in front, has purity tr rho^2 = 1
    (within 1e-12).  Every column of M is then the factor times a scalar, so
    the largest one, normalized, is the factor.
    """
    factors = []
    for i, d in enumerate(psi_t.shape[1:]):
        m = np.moveaxis(psi_t[0], i, 0).reshape(d, -1)
        rho = m @ m.conj().T
        if abs(np.sum(np.abs(rho) ** 2) - 1.0) > 1e-12:
            return None
        col = m[:, np.argmax(np.sum(np.abs(m) ** 2, axis=0))]
        factors.append(col / np.linalg.norm(col))
    return factors


def w_state(theta: float, phi: float) -> np.ndarray:
    """Three-qubit family sin(t)sin(p)|001> + sin(t)cos(p)|010> + cos(t)|100>."""
    v = np.zeros(8, dtype=complex)
    v[1] = np.sin(theta) * np.sin(phi)
    v[2] = np.sin(theta) * np.cos(phi)
    v[4] = np.cos(theta)
    return v


def assemble_cluster_state(
    family: ClusterFamily, assignment: Sequence[AdjacencyMatrix]
) -> GraphState:
    """Tensor the per-cluster graph states and reorder sites to party order."""
    if len(assignment) != len(family.blocks):
        raise ValueError("need exactly one adjacency matrix per cluster")
    for block, a in zip(family.blocks, assignment):
        if a.d != block.dim or a.n != len(block.parties):
            raise ValueError("assignment does not match the cluster layout")
    pieces = [build_graph_state(a) for a in assignment]
    psi = pieces[0].amplitudes
    for p in pieces[1:]:
        psi = np.kron(psi, p.amplitudes)
    block_order = [p for b in family.blocks for p in b.parties]
    t = psi.reshape([family.dims[p] for p in block_order])
    perm = [block_order.index(p) for p in range(len(family.dims))]
    t = np.transpose(t, perm)
    return GraphState(dims=family.dims, amplitudes=t.ravel(), source=tuple(assignment))
