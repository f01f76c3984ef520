"""Graph states, their stabilizer generators, the W family, and simple state functionals.

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


def stabilizer_generators(a: AdjacencyMatrix) -> list[np.ndarray]:
    """Dense generators fixing the graph state: a shift at vertex i, clocks on its edges.

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
        gens.append(kron(row))
    return gens


def reduced_purity(state: GraphState, keep: Sequence[int]) -> float:
    """tr(rho^2) of the reduced state on the `keep` sites."""
    dims = state.dims
    n = len(dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep or len(keep) == n or any(k < 0 or k >= n for k in keep):
        raise ValueError("keep must be a non-empty strict subset of sites")
    t = state.amplitudes.reshape(dims)
    drop = [i for i in range(n) if i not in keep]
    rho = np.tensordot(t, t.conj(), axes=(drop, drop))
    k = int(np.prod([dims[i] for i in keep]))
    rho = rho.reshape(k, k)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


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
