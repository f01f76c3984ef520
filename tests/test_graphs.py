import itertools
import tracemalloc

import numpy as np
import pytest

from magicwit import graphs
from magicwit.errors import ResourceLimitError
from magicwit.graphs import (
    AdjacencyMatrix,
    _move_images,
    _qubit_masks,
    cluster_representatives,
    enumerate_classes,
)


def adj(d, n, edges):
    m = np.zeros((n, n), dtype=int)
    for i, j, w in edges:
        m[i, j] = m[j, i] = w
    return AdjacencyMatrix(d, m)


def key(a):
    """(d, row-major entries) as Python ints: equal exactly for equal matrices.

    Within one (n, d), tuples sort in lexicographic entry order.
    """
    return (a.d, *a.entries.ravel().tolist())


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
    seen = {key(a): a}
    frontier = [a]
    while frontier:
        cur = frontier.pop()
        moves = [m_move(cur, v, b) for v in range(cur.n) for b in range(2, cur.d)]
        moves += [l_move(cur, v, c) for v in range(cur.n) for c in range(1, cur.d)]
        for nb in moves:
            if key(nb) not in seen:
                seen[key(nb)] = nb
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
    assert key(m_move(a, 1, 1)) == key(a)


def test_m_move_trivial_for_qubits():
    a = adj(2, 3, [(0, 1, 1), (1, 2, 1)])
    for v in range(3):
        assert key(m_move(a, v, 1)) == key(a)
    with pytest.raises(ValueError):
        m_move(a, 0, 0)


def test_l_move_zero_weight_is_identity():
    a = adj(3, 3, [(0, 1, 2), (0, 2, 1)])
    assert key(l_move(a, 0, 0)) == key(a)


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
        assert key(l_move(l_move(a, v, c), v, (d - c) % d)) == key(a)
        inv_b = pow(b, d - 2, d) if d > 2 else 1
        assert key(m_move(m_move(a, v, b), v, inv_b)) == key(a)


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
        (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (2, 3), (4, 3),
        (5, 3), (3, 5), (4, 5), (2, 7), (3, 7), (2, 1009),
    ],
)
def test_move_images_match_division_oracle(n, d):
    # Same images, bitwise and in the same order; (2, 1009) has M moves but
    # no L-move tables, and every qubit register takes the XOR rule.  (6, 2),
    # (7, 2), (5, 3) and (4, 5) lay their last 7, 10, 5 and 3 axes into a tail
    # of at least 64 lanes; the others keep one lane.
    pairs = list(itertools.combinations(range(n), 2))
    place = {}
    for k, (i, j) in enumerate(pairs):
        place[i, j] = place[j, i] = d ** (len(pairs) - 1 - k)
    # At (7, 2) the oracle takes about 4 s in int32 and 8 s in int64, so there it
    # runs int32 alone, the dtype `enumerate_classes` codes 7 qubits in.  Images
    # are compared as they come, so only one of each is alive.
    for dtype in (np.int32,) if (n, d) == (7, 2) else (np.int32, np.int64):
        code = np.arange(d ** len(pairs), dtype=dtype)
        mask = _qubit_masks(n, dtype) if d == 2 else None
        images = itertools.zip_longest(
            _move_images(code, n, d, mask), move_images_by_division(code, n, d, place)
        )
        count = 0
        for g, w in images:
            assert g is not None and w is not None, "image counts differ"
            assert g.dtype == w.dtype == dtype and g.shape == w.shape
            assert np.array_equal(g, w)
            count += 1
        assert count == n * (2 * d - 3)


def test_enumerate_classes_deterministic_and_lex_minimal():
    c1 = enumerate_classes(3, 3)
    c2 = enumerate_classes(3, 3)
    assert [key(r) for r in c1.representatives] == [key(r) for r in c2.representatives]
    assert c1.orbit_sizes == c2.orbit_sizes
    for rep in c1.representatives:
        orbit = lc_orbit(rep)
        assert min(key(o) for o in orbit) == key(rep)


def _catalog_from_orbit_closures(n, d):
    """Representatives and orbit sizes by `lc_orbit` closures.

    Matrices are visited in lexicographic order, so the first unseen member
    of each orbit is its smallest one.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen, reps, sizes = set(), [], []
    for combo in itertools.product(range(d), repeat=len(pairs)):
        a = adj(d, n, [(i, j, w) for (i, j), w in zip(pairs, combo)])
        if key(a) in seen:
            continue
        orbit = lc_orbit(a)
        seen.update(key(o) for o in orbit)
        reps.append(key(orbit[0]))
        sizes.append(len(orbit))
    return reps, tuple(sizes)


@pytest.mark.parametrize(
    "n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (3, 5), (2, 7)]
)
def test_enumerate_classes_matches_orbit_closures(n, d):
    cat = enumerate_classes(n, d)
    reps, sizes = _catalog_from_orbit_closures(n, d)
    assert [key(r) for r in cat.representatives] == reps
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


def test_enumerate_classes_budget_of_a_register_past_the_digit_limit():
    # n has more digits than Python writes in decimal; the message writes it as a power of 10.
    with pytest.raises(ResourceLimitError, match=r"at \(n=\(10\^5000\), d=2\) exceed"):
        enumerate_classes(10**5000, 2)


@pytest.mark.parametrize("n,d", [(6, 2), (4, 3)])
def test_enumerate_classes_stops_after_the_first_sweep_that_changes_nothing(monkeypatch, n, d):
    # Two sweeps reach the orbit labels and a third finds nothing left to lower.
    real, calls = graphs._move_images, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, "_move_images", counted)
    expected = {(6, 2): 760, (4, 3): 19}[n, d]
    assert len(enumerate_classes(n, d)) == expected
    assert len(calls) == 3


@pytest.mark.parametrize("n,d", [(5, 3), (7, 2)])
def test_enumerate_classes_peak_memory(n, d):
    # Both registers code in int32, and the peak is 5 code-length vectors
    # plus small tables.  The sweeps hold the codes, the labels, the gather
    # buffer, one image and either the next image or np.take's intp copy of
    # half an image; counting the labels holds them with np.bincount's intp
    # copy of them and its int64 counts.  One more live vector would pass
    # the bound.
    total = d ** (n * (n - 1) // 2)
    tracemalloc.start()
    try:
        enumerate_classes(n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * total * np.dtype(np.int32).itemsize


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
