import itertools

import numpy as np
import pytest

from magicwit.errors import ResourceLimitError
from magicwit.graphs import (
    AdjacencyMatrix,
    _move_images,
    cluster_representatives,
    enumerate_classes,
)


def adj(d, n, edges):
    m = np.zeros((n, n), dtype=int)
    for i, j, w in edges:
        m[i, j] = m[j, i] = w
    return AdjacencyMatrix(d, m)


def m_move(a, v, b):
    """Scale row and column v by the field unit b."""
    b = b % a.d
    if b == 0:
        raise ValueError("m_move scale must be a nonzero field element")
    out = a.entries.copy()
    out[v, :] = out[v, :] * b % a.d
    out[:, v] = out[:, v] * b % a.d
    return AdjacencyMatrix(a.d, out)


def l_move(a, v, c):
    """Weighted local complementation at vertex v: A_ij += c * A_vi * A_vj."""
    row = a.entries[v]
    out = (a.entries + c * np.outer(row, row)) % a.d
    np.fill_diagonal(out, 0)
    return AdjacencyMatrix(a.d, out)


def lc_orbit(a):
    """Closure of {a} under all M and L moves, sorted lexicographically.

    Works one matrix at a time through the validating constructor, apart
    from `enumerate_classes`, which it checks.
    """
    seen = {a.key(): a}
    frontier = [a]
    while frontier:
        cur = frontier.pop()
        moves = [m_move(cur, v, b) for v in range(cur.n) for b in range(2, cur.d)]
        moves += [l_move(cur, v, c) for v in range(cur.n) for c in range(1, cur.d)]
        for nb in moves:
            if nb.key() not in seen:
                seen[nb.key()] = nb
                frontier.append(nb)
    return tuple(seen[k] for k in sorted(seen))


def move_images_by_division(code, n, d, place):
    """Yield every M and L move's code -> code image, decoding digits by division.

    place[i, j] = place[j, i] is the base-d place value of the digit holding
    entry (i, j); each digit is read off the codes as code // place % d.
    Checks `graphs._move_images`, which reads digits off grid axes instead.
    """

    def digit(i, j):
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
        # This enumeration's own 7-qubit count, not a published value.
        (7, 2, 10773, 2**21),
    ],
)
def test_enumerate_classes_counts(n, d, classes, total):
    cat = enumerate_classes(n, d)
    assert len(cat) == classes
    assert cat.total == total == d ** (n * (n - 1) // 2)


@pytest.mark.parametrize(
    "n,d",
    [
        (1, 2), (2, 2), (3, 2), (5, 2), (6, 2), (2, 3), (4, 3), (5, 3),
        (3, 5), (4, 5), (2, 7), (3, 7), (2, 1009),
    ],
)
def test_move_images_match_division_oracle(n, d):
    # Same images, bitwise and in the same order; (2, 1009) has M moves but
    # no L-move tables.  (6, 2), (5, 3) and (4, 5) lay their last 7, 5 and 3
    # axes into a tail of at least 64 lanes; the others keep one lane.
    pairs = list(itertools.combinations(range(n), 2))
    place = {}
    for k, (i, j) in enumerate(pairs):
        place[i, j] = place[j, i] = d ** (len(pairs) - 1 - k)
    for dtype in (np.int32, np.int64):
        code = np.arange(d ** len(pairs), dtype=dtype)
        got = list(_move_images(code, n, d))
        want = list(move_images_by_division(code, n, d, place))
        assert len(got) == len(want) == n * (2 * d - 3)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and g.shape == w.shape
            assert np.array_equal(g, w)


def test_enumerate_classes_deterministic_and_lex_minimal():
    c1 = enumerate_classes(3, 3)
    c2 = enumerate_classes(3, 3)
    assert [r.key() for r in c1.representatives] == [r.key() for r in c2.representatives]
    assert c1.orbit_sizes == c2.orbit_sizes
    for rep in c1.representatives:
        orbit = lc_orbit(rep)
        assert min(o.key() for o in orbit) == rep.key()


def _catalog_from_orbit_closures(n, d):
    """Representatives and orbit sizes by `lc_orbit` closures.

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


@pytest.mark.parametrize(
    "n,d", [(n, 2) for n in range(1, 7)] + [(n, 3) for n in (2, 3, 4)] + [(2, 5), (3, 5)]
)
def test_enumerate_classes_decodes_valid_matrices(n, d):
    # Representatives skip the constructor's checks; they must pass them anyway.
    for rep in enumerate_classes(n, d).representatives:
        e = rep.entries
        assert rep.d == d and e.shape == (n, n)
        assert e.dtype == np.int64 and not e.flags.writeable
        assert np.array_equal(e, e.T) and not np.diag(e).any()
        assert e.min() >= 0 and e.max() < d
        assert np.array_equal(e, AdjacencyMatrix(d, e).entries)


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
