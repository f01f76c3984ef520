import functools
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magicwit.algebra import is_prime, is_unitary, shift_matrix

PRIMES = [2, 3, 5, 7, 11, 13]
# Max-abs entrywise tolerance for the exact identities of the Weyl algebra.
TOL_MAT = 1e-10


def omega(d):
    return np.exp(2j * np.pi / d)


# Dense oracles, kept here: the package has no clock matrix or Kronecker
# helper, and `magicwit.verify` applies graph-state generators by index
# arithmetic.  tests/test_states.py builds its dense generators from them.


def clock_matrix(d):
    """Generalized Z on C^d: Z|j> = omega^j |j>."""
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def kron(mats):
    """Kronecker product in party order (site 1 varies slowest)."""
    return functools.reduce(np.kron, [np.asarray(m, dtype=complex) for m in mats])


def test_is_prime_small_values():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_shift_matrix_qubit():
    assert np.array_equal(shift_matrix(2).real, [[0, 1], [1, 0]])


def test_shift_matrix_qutrit_cycles_basis():
    x = shift_matrix(3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1
        out = x @ e
        assert out[(j + 1) % 3] == 1


def test_clock_matrix_values():
    assert np.allclose(clock_matrix(2), np.diag([1, -1]))
    w = omega(3)
    assert np.allclose(clock_matrix(3), np.diag([1, w, w**2]))


@pytest.mark.parametrize("d", PRIMES)
def test_shift_clock_algebra(d):
    x, z = shift_matrix(d), clock_matrix(d)
    assert is_unitary(x) and is_unitary(z)
    assert np.max(np.abs(np.linalg.matrix_power(x, d) - np.eye(d))) <= TOL_MAT
    assert np.max(np.abs(np.linalg.matrix_power(z, d) - np.eye(d))) <= TOL_MAT
    # With X raising and Z = diag(omega^j) the Weyl relation reads
    # Z X = omega X Z (equivalently X Z = omega^(-1) Z X).
    assert np.max(np.abs(z @ x - omega(d) * x @ z)) <= TOL_MAT


def test_is_unitary_tolerance_is_1e_8():
    eye = np.eye(3)
    assert is_unitary(eye + np.diag([4e-9, 0, 0]))
    assert not is_unitary(eye + np.diag([2e-8, 0, 0]))
    assert not is_unitary(np.ones((2, 3)))


def weyl(d, a1, a2):
    """X^a1 Z^a2, the displacement operator up to its phase convention."""
    x, z = shift_matrix(d), clock_matrix(d)
    return np.linalg.matrix_power(x, a1) @ np.linalg.matrix_power(z, a2)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_displacement_exchange_relation(d):
    # Convention-independent content of the group law: swapping the factors
    # costs exactly one full symplectic phase omega^(a1 b2 - a2 b1).
    for a in itertools.product(range(d), repeat=2):
        for b in itertools.product(range(d), repeat=2):
            lhs = weyl(d, *a) @ weyl(d, *b)
            rhs = omega(d) ** (a[1] * b[0] - a[0] * b[1]) * weyl(d, *b) @ weyl(d, *a)
            assert np.max(np.abs(lhs - rhs)) <= TOL_MAT, (a, b)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_displacement_basis_property(d):
    # The d^2 operators X^a1 Z^a2 are unitary and trace-orthogonal.
    ops = {a: weyl(d, *a) for a in itertools.product(range(d), repeat=2)}
    for a, op in ops.items():
        assert is_unitary(op)
        if a != (0, 0):
            assert abs(np.trace(op)) <= TOL_MAT
    for a, b in itertools.combinations(ops, 2):
        assert abs(np.trace(ops[a].conj().T @ ops[b])) <= TOL_MAT


def test_kron_identity_blocks():
    assert np.allclose(kron([np.eye(2), np.eye(3)]), np.eye(6))


def test_kron_basis_action():
    sx, sz = shift_matrix(2), clock_matrix(2)
    e00 = np.zeros(4)
    e00[0] = 1
    out = kron([sx, sz]) @ e00
    want = np.zeros(4)
    want[2] = 1  # |00> -> |10>
    assert np.allclose(out, want)


@given(
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
)
def test_kron_associative(a, b, c):
    ma = np.array(a).reshape(2, 2)
    mb = np.array(b).reshape(2, 2)
    mc = np.array(c).reshape(2, 2)
    assert np.allclose(kron([kron([ma, mb]), mc]), kron([ma, mb, mc]))
