"""Prime fields and the dense operator algebra of generalized Pauli matrices.

Everything downstream works with explicit complex matrices.  At this scale
(single-site dimension at most 7, full registers below a hundred amplitudes)
dense numpy arrays are the simplest correct representation; no sparse or
tableau machinery is used.
"""

from __future__ import annotations

from collections.abc import Sequence

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


def clock_matrix(d: int) -> np.ndarray:
    """Generalized Z on C^d: Z|j> = omega^j |j>."""
    require_prime(d)
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product in party order (site 1 varies slowest)."""
    if len(mats) == 0:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def is_unitary(m: np.ndarray) -> bool:
    """Square, with every entry of M^dagger M - I at most 1e-8 in magnitude."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-8)

