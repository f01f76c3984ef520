"""Graph states, their stabilizer generators, and simple state functionals.

Two independent construction paths are kept on purpose: the closed-form
phase polynomial (`build_graph_state`) and explicit controlled-phase gate
application (`build_graph_state_by_gates`).  They serve as mutual oracles
in the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from magicwit.algebra import clock_matrix, kron, require_prime, shift_matrix
from magicwit.graphs import AdjacencyMatrix, ClusterFamily


def plus_state(d: int) -> np.ndarray:
    """Uniform superposition, the +1 eigenstate of the shift operator."""
    require_prime(d)
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def cp_gate(d: int) -> np.ndarray:
    """Two-site controlled phase: diagonal with entries omega^(j*k)."""
    require_prime(d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.diag(np.exp(2j * np.pi * (j * k).ravel() / d))


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


def build_graph_state_by_gates(a: AdjacencyMatrix) -> GraphState:
    """Graph state of `a` by explicit gate application (slow oracle path).

    Starts from a product of plus states and applies the controlled-phase
    matrix power for every edge, without using the closed form above.
    """
    d, n = a.d, a.n
    psi = plus_state(d)
    for _ in range(n - 1):
        psi = np.kron(psi, plus_state(d))
    psi = psi.reshape((d,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            w = int(a.entries[i, j])
            if w == 0:
                continue
            gate = np.linalg.matrix_power(cp_gate(d), w).reshape(d, d, d, d)
            psi = np.tensordot(gate, psi, axes=([2, 3], [i, j]))
            # tensordot leaves the two output axes in front; restore site order
            psi = np.moveaxis(psi, (0, 1), (i, j))
    return GraphState(dims=(d,) * n, amplitudes=psi.ravel(), source=a)


@dataclass(frozen=True)
class StabilizerGenerators:
    """One generator per vertex, stored as per-site matrix factors."""

    dims: tuple[int, ...]
    factors: tuple[tuple[np.ndarray, ...], ...]

    def matrices(self) -> list[np.ndarray]:
        return [kron(list(f)) for f in self.factors]


def stabilizer_generators(a: AdjacencyMatrix) -> StabilizerGenerators:
    """Generators fixing the graph state: a shift at vertex i, clocks on its edges.

    With the conventions X|j> = |j+1>, Z|j> = omega^j |j> and
    CP = sum_j |j><j| (x) Z^j used throughout, generator i is
    X_i * prod_j Z_j^(A_ij); each one fixes build_graph_state(a).
    """
    d, n = a.d, a.n
    x = shift_matrix(d)
    z = clock_matrix(d)
    eye = np.eye(d, dtype=complex)
    gens = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                row.append(x)
            else:
                w = int(a.entries[i, j])
                row.append(np.linalg.matrix_power(z, w) if w else eye)
        gens.append(tuple(row))
    return StabilizerGenerators(dims=(d,) * n, factors=tuple(gens))


def reduced_purity(state, keep: Sequence[int], dims: Sequence[int] | None = None) -> float:
    """tr(rho^2) of the reduced state on the `keep` sites.

    `dims` is taken from the state when it is a GraphState and must be given
    explicitly for a bare vector.
    """
    if dims is None:
        dims = getattr(state, "dims", None)
        if dims is None:
            raise ValueError("register dims required for a bare state vector")
    dims = tuple(int(x) for x in dims)
    psi = np.asarray(getattr(state, "amplitudes", state), dtype=complex)
    n = len(dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or len(keep) == n or any(k < 0 or k >= n for k in keep):
        raise ValueError("keep must be a non-empty strict subset of sites")
    t = psi.reshape(dims)
    drop = [i for i in range(n) if i not in keep]
    rho = np.tensordot(t, t.conj(), axes=(drop, drop))
    k = int(np.prod([dims[i] for i in keep]))
    rho = rho.reshape(k, k)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


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
