import itertools

import numpy as np
import pytest

from magicwit.errors import ResourceLimitError
from magicwit.graphs import (
    AdjacencyMatrix,
    cluster_representatives,
    enumerate_classes,
    l_move,
    lc_orbit,
    m_move,
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


def test_adjacency_validation():
    with pytest.raises(ValueError):
        AdjacencyMatrix(4, np.zeros((2, 2), dtype=int))  # non-prime
    with pytest.raises(ValueError):
        AdjacencyMatrix(2, np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        AdjacencyMatrix(2, np.array([[1, 0], [0, 0]]))  # diagonal
    a = AdjacencyMatrix(3, np.array([[0, 5], [5, 0]]))  # entries reduced mod d
    assert a.entries[0, 1] == 2


def test_m_move_scales_row_and_column():
    a = adj(3, 2, [(0, 1, 1)])
    assert np.array_equal(m_move(a, 0, 2).entries, [[0, 2], [2, 0]])


def test_m_move_identity_scale():
    a = adj(5, 3, [(0, 1, 2), (1, 2, 3)])
    assert m_move(a, 1, 1) == a


def test_m_move_trivial_for_qubits():
    a = adj(2, 3, [(0, 1, 1), (1, 2, 1)])
    for v in range(3):
        assert m_move(a, v, 1) == a
    with pytest.raises(ValueError):
        m_move(a, 0, 0)


def test_l_move_zero_weight_is_identity():
    a = adj(3, 3, [(0, 1, 2), (0, 2, 1)])
    assert l_move(a, 0, 0) == a


def test_l_move_triangle_to_path():
    k3 = adj(2, 3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    path = l_move(k3, 0, 1)
    assert sorted(path.edges()) == [(0, 1, 1), (0, 2, 1)]


def test_l_move_path_to_triangle():
    path = adj(2, 3, [(0, 1, 1), (0, 2, 1)])
    assert sorted(l_move(path, 0, 1).edges()) == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]


def test_orbit_single_edge_n2_d2():
    orbit = lc_orbit(adj(2, 2, [(0, 1, 1)]))
    assert len(orbit) == 1


def test_orbit_weighted_edge_n2_d3():
    orbit = lc_orbit(adj(3, 2, [(0, 1, 1)]))
    weights = sorted(o.entries[0, 1] for o in orbit)
    assert weights == [1, 2]


def test_orbit_triangle_n3_d2():
    orbit = lc_orbit(adj(2, 3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)]))
    assert len(orbit) == 4
    edge_counts = sorted(len(o.edges()) for o in orbit)
    assert edge_counts == [2, 2, 2, 3]


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
def test_moves_preserve_invariants_and_invert(n, d):
    rng = np.random.default_rng(1000 + 10 * n + d)
    for _ in range(1000):
        a = random_adjacency(rng, n, d)
        v = int(rng.integers(0, n))
        c = int(rng.integers(0, d))
        b = int(rng.integers(1, d)) if d > 2 else 1
        for out in (l_move(a, v, c), m_move(a, v, b)):
            assert np.array_equal(out.entries, out.entries.T)
            assert np.all(np.diag(out.entries) == 0)
            assert out.entries.min() >= 0 and out.entries.max() < d
        assert l_move(l_move(a, v, c), v, (d - c) % d) == a
        inv_b = pow(b, d - 2, d) if d > 2 else 1
        assert m_move(m_move(a, v, b), v, inv_b) == a


@pytest.mark.parametrize(
    "n,d,classes,total",
    [
        (1, 2, 1, 1),
        (2, 2, 2, 2),
        (3, 2, 5, 8),
        (4, 2, 18, 64),
        (5, 2, 93, 1024),
        (6, 2, 760, 32768),
        (2, 3, 2, 3),
        (2, 5, 2, 5),
        (3, 3, 5, 27),
    ],
)
def test_enumerate_classes_counts(n, d, classes, total):
    cat = enumerate_classes(n, d)
    assert len(cat) == classes
    assert cat.total == total == d ** (n * (n - 1) // 2)


def test_enumerate_classes_deterministic_and_lex_minimal():
    c1 = enumerate_classes(3, 3)
    c2 = enumerate_classes(3, 3)
    assert [r.key() for r in c1.representatives] == [r.key() for r in c2.representatives]
    assert c1.orbit_sizes == c2.orbit_sizes
    for rep in c1.representatives:
        orbit = lc_orbit(rep)
        assert min(o.key() for o in orbit) == rep.key()


def _catalog_from_orbit_closures(n, d):
    """Representatives and orbit sizes by breadth-first `lc_orbit` closures.

    Matrices are visited in lexicographic order, so the first unseen member
    of each orbit is its smallest one.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen, reps, sizes = set(), [], []
    for combo in itertools.product(range(d), repeat=len(pairs)):
        a = adj(d, n, [(i, j, w) for (i, j), w in zip(pairs, combo)])
        if a.key() in seen:
            continue
        orbit = lc_orbit(a)
        seen.update(o.key() for o in orbit)
        reps.append(orbit[0].key())
        sizes.append(len(orbit))
    return reps, tuple(sizes)


@pytest.mark.parametrize(
    "n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (3, 5), (2, 7)]
)
def test_enumerate_classes_matches_orbit_closures(n, d):
    cat = enumerate_classes(n, d)
    reps, sizes = _catalog_from_orbit_closures(n, d)
    assert [r.key() for r in cat.representatives] == reps
    assert cat.orbit_sizes == sizes


def test_enumerate_classes_budget(monkeypatch):
    # The budget is read at each call: 2^6 matrices at (n=4, d=2) exceed 63.
    monkeypatch.setattr("magicwit.graphs.DEFAULT_ENUM_BUDGET", 63)
    with pytest.raises(ResourceLimitError, match="exceed the enumeration budget 63"):
        enumerate_classes(4, 2)
    monkeypatch.setattr("magicwit.graphs.DEFAULT_ENUM_BUDGET", 64)
    assert len(enumerate_classes(4, 2)) == 18


@pytest.mark.parametrize(
    "dims,count",
    [((2, 2), 2), ((2, 3), 1), ((2, 2, 2), 5), ((3, 2, 3), 2), ((2, 2, 3), 2)],
)
def test_cluster_representatives_counts(dims, count):
    family = cluster_representatives(dims)
    assert len(list(family.assignments())) == count


def test_cluster_layout_covers_dims():
    family = cluster_representatives((3, 2, 3, 5))
    seen = sorted(p for b in family.blocks for p in b.parties)
    assert seen == [0, 1, 2, 3]
    for b in family.blocks:
        assert all(family.dims[p] == b.dim for p in b.parties)
        assert b.catalog.n == len(b.parties)
