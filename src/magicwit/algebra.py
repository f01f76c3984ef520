"""Prime fields, the generalized shift and the see-saw's dense linear algebra.

At this scale (single-site dimension at most 7, full registers below a
hundred amplitudes) dense numpy arrays are the simplest correct
representation; no sparse or tableau machinery is used.  The see-saw's
random start bases and its state step's leading eigenvector are computed
here.
"""

from __future__ import annotations

import numpy as np


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; inputs here are tiny."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def require_prime(d) -> int:
    """Validate a local dimension and return it as a plain int."""
    if not isinstance(d, (int, np.integer)) or not is_prime(int(d)):
        raise ValueError(f"local dimension must be a prime integer, got {d!r}")
    return int(d)


def shift_matrix(d: int) -> np.ndarray:
    """Generalized X on C^d: X|j> = |j+1 mod d>."""
    require_prime(d)
    m = np.zeros((d, d), dtype=complex)
    m[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return m


def is_unitary(m: np.ndarray) -> bool:
    """Square, with every entry of M^dagger M - I at most 1e-8 in magnitude."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-8)


def top_eigvec(op: np.ndarray) -> np.ndarray:
    """Leading eigenvector of the Hermitian part of each op (R, n, n).

    Among eigenvalues within 1e-12 of the top, the vector with the largest
    |first component| wins, the lowest index on ties.
    """
    vals, vecs = np.linalg.eigh(0.5 * (op + op.conj().swapaxes(-1, -2)))
    score = np.where(vals >= vals[:, -1:] - 1e-12, np.abs(vecs[:, 0, :]), -1.0)
    best = np.argmax(score, axis=1)
    return np.ascontiguousarray(np.take_along_axis(vecs, best[:, None, None], axis=2)[..., 0])


def random_bases(rngs, d: int, m: int) -> np.ndarray:
    """m random orthonormal bases (columns) per generator, stacked (R, m, d, d).

    A qubit basis is the eigenbasis of u . sigma for a Gaussian u, the +1
    eigenvector first; any other d gives a Haar unitary.  Each basis reads
    its normals from its row's generator in turn (a qubit u = (x, y, z), a
    qudit the d^2 real parts, then the d^2 imaginary parts), so a row does
    not depend on the other rows of the batch.
    """
    if d == 2:
        x, y, z = np.stack([rng.standard_normal((m, 3)) for rng in rngs]).transpose(2, 0, 1)
        h = np.array([[z, x - 1j * y], [x + 1j * y, -z]]).transpose(2, 3, 0, 1)
        return np.linalg.eigh(h)[1][..., ::-1]
    g = np.stack([rng.standard_normal((m, 2, d, d)) for rng in rngs])
    q, r = np.linalg.qr(g[:, :, 0] + 1j * g[:, :, 1])
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[..., None, :]
