import numpy as np
import pytest

from magicwit.algebra import kron
from magicwit.graphs import (
    AdjacencyMatrix,
    cluster_representatives,
    enumerate_classes,
)
from magicwit.states import (
    GraphState,
    assemble_cluster_state,
    build_graph_state,
    build_graph_state_by_gates,
    cp_gate,
    plus_state,
    reduced_purity,
    stabilizer_generators,
)


def adj(d, n, edges):
    m = np.zeros((n, n), dtype=int)
    for i, j, w in edges:
        m[i, j] = m[j, i] = w
    return AdjacencyMatrix(d, m)


def random_adjacency(rng, n, d):
    m = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = rng.integers(0, d)
    return AdjacencyMatrix(d, m)


def test_cp_gate_is_cz_for_qubits():
    assert np.allclose(cp_gate(2), np.diag([1, 1, 1, -1]))


def test_cp_gate_order_d():
    assert np.allclose(np.linalg.matrix_power(cp_gate(3), 3), np.eye(9))


def test_cp_gate_swap_symmetric():
    g = np.diag(cp_gate(3)).reshape(3, 3)
    assert np.allclose(g, g.T)


def test_single_vertex_state_is_plus():
    gs = build_graph_state(adj(2, 1, []))
    assert np.allclose(gs.amplitudes, np.full(2, 1 / np.sqrt(2)))


def test_two_qubit_edge_state():
    gs = build_graph_state(adj(2, 2, [(0, 1, 1)]))
    assert np.allclose(gs.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_graph_state_normalization_guard():
    with pytest.raises(ValueError):
        GraphState(dims=(2,), amplitudes=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        GraphState(dims=(2,), amplitudes=np.array([np.nan, 0.0]))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (2, 5)])
def test_construction_paths_agree_on_representatives(n, d):
    for rep in enumerate_classes(n, d).representatives:
        a = build_graph_state(rep).amplitudes
        b = build_graph_state_by_gates(rep).amplitudes
        assert np.max(np.abs(a - b)) <= 1e-12


def test_construction_paths_agree_on_random_graphs():
    rng = np.random.default_rng(5)
    for n, d in ((4, 2), (3, 3), (2, 7)):
        for _ in range(5):
            g = random_adjacency(rng, n, d)
            a = build_graph_state(g).amplitudes
            b = build_graph_state_by_gates(g).amplitudes
            assert np.max(np.abs(a - b)) <= 1e-12


def test_generators_edgeless_two_qubits():
    gens = stabilizer_generators(adj(2, 2, []))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    mats = gens.matrices()
    assert np.allclose(mats[0], kron([x, eye]))
    assert np.allclose(mats[1], kron([eye, x]))


def test_generators_single_edge_two_qubits():
    gens = stabilizer_generators(adj(2, 2, [(0, 1, 1)]))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    mats = gens.matrices()
    assert np.allclose(mats[0], kron([x, z]))
    assert np.allclose(mats[1], kron([z, x]))


def test_generators_commute_random_qutrit_graphs():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = random_adjacency(rng, 3, 3)
        mats = stabilizer_generators(g).matrices()
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                assert np.max(np.abs(comm)) <= 1e-10


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (2, 5)])
def test_generators_fix_graph_states(n, d):
    for rep in enumerate_classes(n, d).representatives:
        gs = build_graph_state(rep)
        gens = stabilizer_generators(rep)
        for g in gens.matrices():
            assert np.linalg.norm(g @ gs.amplitudes - gs.amplitudes) <= 1e-9
        for f in gens.factors:
            for site, mat in enumerate(f):
                order = np.linalg.matrix_power(mat, d)
                assert np.max(np.abs(order - np.eye(d))) <= 1e-9


def test_tensor_split_of_direct_sums():
    # A block-diagonal graph's state is the kron of its blocks' states, which
    # assemble_cluster_state relies on.
    rng = np.random.default_rng(12)
    for d in (2, 3):
        a = random_adjacency(rng, 2, d)
        b = random_adjacency(rng, 2, d)
        block = np.zeros((4, 4), dtype=int)
        block[:2, :2], block[2:, 2:] = a.entries, b.entries
        joined = build_graph_state(AdjacencyMatrix(d, block)).amplitudes
        split = np.kron(build_graph_state(a).amplitudes, build_graph_state(b).amplitudes)
        assert np.max(np.abs(joined - split)) <= 1e-12


def test_reduced_purity_bell_pair():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert reduced_purity(bell, [0], dims=(2, 2)) == pytest.approx(0.5)


def test_reduced_purity_product_state():
    psi = np.kron(np.array([1.0, 0.0]), plus_state(2))
    for site in (0, 1):
        assert reduced_purity(psi, [site], dims=(2, 2)) == pytest.approx(1.0)


def test_reduced_purity_guards():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    with pytest.raises(ValueError):
        reduced_purity(bell, [], dims=(2, 2))
    with pytest.raises(ValueError):
        reduced_purity(bell, [0, 1], dims=(2, 2))
    with pytest.raises(ValueError):
        reduced_purity(bell, [0])


def test_cluster_states_have_unit_purity_across_dimension_split():
    family = cluster_representatives((2, 2, 3))
    for assignment in family.assignments():
        gs = assemble_cluster_state(family, assignment)
        assert reduced_purity(gs, [2]) == pytest.approx(1.0, abs=1e-9)
        assert reduced_purity(gs, [0, 1]) == pytest.approx(1.0, abs=1e-9)


def test_cluster_state_site_order():
    # dims (3, 2): the qutrit cluster comes second in block order but must
    # land on party 0 of the assembled register.
    family = cluster_representatives((3, 2))
    (assignment,) = list(family.assignments())
    gs = assemble_cluster_state(family, assignment)
    assert gs.dims == (3, 2)
    want = np.kron(plus_state(3), plus_state(2))
    assert np.max(np.abs(gs.amplitudes - want)) <= 1e-12


def test_cluster_state_entangled_block_order():
    # dims (2, 3, 2): qubit edge class on parties (0, 2), plus qutrit at 1.
    family = cluster_representatives((2, 3, 2))
    qubit_block = next(b for b in family.blocks if b.dim == 2)
    edge_rep = next(r for r in qubit_block.catalog.representatives if r.edges())
    assignment = []
    for b in family.blocks:
        assignment.append(edge_rep if b.dim == 2 else b.catalog.representatives[0])
    gs = assemble_cluster_state(family, assignment)
    edge_state = build_graph_state(edge_rep).amplitudes.reshape(2, 2)
    want = np.einsum("ik,j->ijk", edge_state, plus_state(3)).ravel()
    assert np.max(np.abs(gs.amplitudes - want)) <= 1e-12
