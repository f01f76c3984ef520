"""Reference computations the output checks compare against.

Each one is written apart from the package, with a different algorithm from
the code it checks:

* `local_bound` maximises over the deterministic strategies of every party
  but the last with one tensor contraction per party, then sums out the last
  party exactly (for each of its settings, its best outcome), where
  `magicwit.bell.local_bound` loops over all strategies of all parties;
* `born_value` contracts the state with every setting's basis in a single
  `einsum`, where `magicwit.bell.behavior_from_state` loops over setting
  tuples;
* `is_stabilized` applies the generators X_i prod_j Z_j^(A_ij) of a graph
  state by index arithmetic (a roll for X, a phase for Z), with no operator
  matrices.
"""

from __future__ import annotations

import itertools
import string

import numpy as np

UNITARY_TOL = 1e-8
NORM_TOL = 1e-9
STABILIZED_TOL = 1e-9


def local_bound(coeffs: np.ndarray, outcomes, settings) -> float:
    """Maximum of sum I[a, x] over deterministic local strategies a = s(x)."""
    n = len(outcomes)
    t = np.asarray(coeffs, dtype=float)
    for i in range(n - 1):
        d, m = outcomes[i], settings[i]
        plans = np.array(list(itertools.product(range(d), repeat=m)))
        onehot = (plans[:, None, :] == np.arange(d)[None, :, None]).astype(float)
        # t holds i strategy axes, then a_i .. a_{n-1}, then x_i .. x_{n-1}.
        t = np.tensordot(onehot, t, axes=([1, 2], [i, n]))
    # Left: n - 1 strategy axes, the last party's outcome and its setting.
    return float(t.max(axis=-2).sum(axis=-1).max())


def born_value(coeffs: np.ndarray, state, measurements) -> float:
    """sum I[a, x] |<a_x|psi>|^2 for rank-1 projective measurements.

    measurements[i][x] is party i's setting-x basis, one column per outcome.
    """
    n = len(measurements)
    dims = tuple(np.asarray(per[0]).shape[0] for per in measurements)
    letters = string.ascii_letters
    kets, sets, outs = letters[:n], letters[n : 2 * n], letters[2 * n : 3 * n]
    operands = [np.asarray(state, dtype=complex).reshape(dims)]
    subscripts = [kets]
    for i, per in enumerate(measurements):
        operands.append(np.conj(np.stack([np.asarray(b) for b in per])))
        subscripts.append(sets[i] + kets[i] + outs[i])
    amp = np.einsum(",".join(subscripts) + "->" + outs + sets, *operands)
    return float(np.sum(np.asarray(coeffs) * np.abs(amp) ** 2))


def is_unitary(basis) -> bool:
    b = np.asarray(basis)
    return float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1])))) <= UNITARY_TOL


def is_normalized(state) -> bool:
    return abs(float(np.linalg.norm(state)) - 1.0) <= NORM_TOL


def is_stabilized(state, dims, assignment) -> bool:
    """True when every graph-state generator of the class fixes `state`.

    `assignment` holds one adjacency matrix per cluster of equal local
    dimension, clusters in increasing dimension, as `magicwit` reports a
    stabilizer class.  Generator i is X_i prod_j Z_j^(A_ij), with
    X|k> = |k+1> and Z|k> = omega^k |k>.
    """
    dims = tuple(dims)
    t = np.asarray(state, dtype=complex).reshape(dims)
    for a, d in zip(assignment, sorted(set(dims))):
        parties = [p for p, x in enumerate(dims) if x == d]
        adj = np.asarray(a.entries) % d
        if adj.shape != (len(parties), len(parties)):
            return False
        for li, i in enumerate(parties):
            g = np.roll(t, 1, axis=i)
            for lj, j in enumerate(parties):
                if j != i and adj[li, lj]:
                    shape = [1] * len(dims)
                    shape[j] = d
                    phase = np.exp(2j * np.pi * adj[li, lj] * np.arange(d) / d)
                    g = g * phase.reshape(shape)
            if float(np.max(np.abs(g - t))) > STABILIZED_TOL:
                return False
    return True
