"""Measurement and state optimization by monotone see-saw ascent.

With every measurement but one held fixed, the Bell value is linear in the
remaining one.  For each (party, setting) visit the update solves that
linear subproblem:

* qubits: the observable is u . sigma for a unit Bloch vector u, the value
  is u . v for a gradient vector v assembled from the fixed factors, and
  the exact maximizer is u = v/|v|;
* qudits: the value is sum_a <v_a|B_a|v_a> over the orthonormal eigenbasis
  {v_a}.  After shifting every B_a positive semidefinite (a constant
  offset), aligning the basis with the singular vectors of the stacked
  gradient [B_a v_a] never decreases the objective; a search over cyclic
  relabelings of which root-of-unity eigenvalue sits on which column
  follows.

The unrestricted quantum value alternates measurement sweeps with an exact
state update (top eigenvector of the Bell operator).  Every step is
monotone, so each restart's trace is non-decreasing.  Restarts draw their
random starting points from seeds spawned per restart, which makes results
independent of the worker count.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from magicwit import bell, graphs, states

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-restart see-saw.

    `tol` is the absolute objective change below which a restart stops.
    `jobs` is an upper bound on the worker processes; see `_run_tasks`.
    """

    restarts: int = 64
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1 or self.jobs < 1:
            raise ValueError("restarts, max_iters and jobs must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class OptimizationReport:
    """Best value found, with the argmax and per-restart telemetry.

    `value` is re-evaluated from the frozen measurements and state through
    `bell.behavior_from_state`, which shares its Born-rule kernel with the
    see-saw objective.  The independent check is a single-`einsum`
    contraction: `born_value` in the benchmark's oracles and the Born-rule
    test in tests/test_bell.py.

    `class_values` (stabilizer reports only) holds the best value found per
    graph-state class at the configured restarts.  Each entry is a lower
    bound on that class's maximum, not the maximum itself: a class whose
    optimum only a few restarts reach can report less at another seed.
    """

    value: float
    measurements: tuple[tuple[np.ndarray, ...], ...]
    state: np.ndarray
    state_label: str
    best_class: object
    best_restart: int
    restart_values: tuple[float, ...]
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    seed: int
    class_values: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Inner see-saw machinery
# ---------------------------------------------------------------------------


def _objective(psi_t, bases, coeffs) -> float:
    n = psi_t.ndim
    total = 0.0
    for xs, probs in bell.born_probabilities(psi_t, bases):
        total += float(np.sum(coeffs[(slice(None),) * n + xs] * probs))
    return total


def _environments(psi_t, bases, coeffs, settings, party, setting) -> np.ndarray:
    """Stack of outcome operators B[a] for the active (party, setting).

    The contribution of the active measurement to the objective is
    sum_a tr(P_a B[a]) with P_a its rank-1 outcome projectors.
    """
    n = len(settings)
    d = psi_t.shape[party]
    others = [j for j in range(n) if j != party]
    b = np.zeros((d, d, d), dtype=complex)
    for xr in itertools.product(*(range(settings[j]) for j in others)):
        t = psi_t
        for j, xj in zip(others, xr):
            t = bell.apply_site(t, bases[j][xj].conj().T, j)
        cvecs = np.moveaxis(t, party, -1).reshape(-1, d)
        xs = [0] * n
        for j, xj in zip(others, xr):
            xs[j] = xj
        xs[party] = setting
        w = coeffs[(slice(None),) * n + tuple(xs)]
        w = np.moveaxis(w, party, 0).reshape(d, -1)
        b += np.einsum("ar,rp,rq->apq", w, cvecs, cvecs.conj())
    return b


def _bloch_from_env(b: np.ndarray) -> np.ndarray:
    """Gradient direction for a qubit update from the two outcome operators."""
    diff = b[0] - b[1]
    return np.array([0.5 * np.trace(s @ diff).real for s in PAULI])


def _basis_from_bloch(u: np.ndarray) -> np.ndarray:
    """Eigenbasis of u . sigma with the +1 eigenvector in column 0."""
    op = u[0] * PAULI[0] + u[1] * PAULI[1] + u[2] * PAULI[2]
    _, vecs = np.linalg.eigh(op)
    return vecs[:, ::-1].copy()


def _basis_update(bh: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One monotone alignment step for an orthonormal eigenbasis.

    Shifts the outcome operators positive semidefinite, maximizes the
    linearized cross term over unitaries via the SVD, then searches the d
    cyclic relabelings of the eigenvalue assignment.
    """
    d = v.shape[0]
    lam = min(np.linalg.eigvalsh(bh[a]).min() for a in range(d))
    w = np.column_stack([(bh[a] - lam * np.eye(d)) @ v[:, a] for a in range(d)])
    p, _, qh = np.linalg.svd(w)
    vnew = p @ qh
    best, best_t = -np.inf, 0
    for t in range(d):
        cols = (np.arange(d) + t) % d
        s = sum(
            np.real(vnew[:, cols[a]].conj() @ (bh[a] @ vnew[:, cols[a]])) for a in range(d)
        )
        if s > best:
            best, best_t = s, t
    cols = (np.arange(d) + best_t) % d
    return vnew[:, cols]


def _sweep_measurements(psi_t, bases, coeffs, settings, trace) -> None:
    n = len(settings)
    for i in range(n):
        d = psi_t.shape[i]
        for s in range(settings[i]):
            env = _environments(psi_t, bases, coeffs, settings, i, s)
            env = 0.5 * (env + np.conj(np.transpose(env, (0, 2, 1))))
            if d == 2:
                v = _bloch_from_env(env)
                nv = np.linalg.norm(v)
                if nv > 1e-14:
                    bases[i][s] = _basis_from_bloch(v / nv)
            else:
                bases[i][s] = _basis_update(env, bases[i][s])
            val = _objective(psi_t, bases, coeffs)
            assert val >= trace[-1] - 1e-9 * (1.0 + abs(trace[-1])), "see-saw step decreased"
            trace.append(val)


def _random_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _random_bloch(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else np.array([0.0, 0.0, 1.0])


def _init_bases(rng, outcomes, settings):
    bases = []
    for d, m in zip(outcomes, settings):
        per = []
        for _ in range(m):
            per.append(_basis_from_bloch(_random_bloch(rng)) if d == 2 else _random_basis(rng, d))
        bases.append(per)
    return bases


def _bell_operator(bases, coeffs, outcomes, settings) -> np.ndarray:
    dim = int(np.prod(outcomes))
    op = np.zeros((dim, dim), dtype=complex)
    n = len(outcomes)
    for xs in itertools.product(*(range(m) for m in settings)):
        w = coeffs[(slice(None),) * n + xs]
        for outs in itertools.product(*(range(d) for d in outcomes)):
            cval = w[outs]
            if cval == 0.0:
                continue
            vec = bases[0][xs[0]][:, outs[0]]
            for i in range(1, n):
                vec = np.kron(vec, bases[i][xs[i]][:, outs[i]])
            op += cval * np.outer(vec, vec.conj())
    return op


def _top_eigvec(op: np.ndarray) -> np.ndarray:
    """Leading eigenvector; degenerate tops break ties on |first component|."""
    vals, vecs = np.linalg.eigh(0.5 * (op + op.conj().T))
    top = vals[-1]
    idx = [k for k in range(len(vals)) if vals[k] >= top - 1e-12]
    best = max(idx, key=lambda k: abs(vecs[0, k]))
    return np.ascontiguousarray(vecs[:, best])


def _fixed_state_task(args):
    coeffs, outcomes, settings, psi, max_iters, tol, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    psi_t = psi.reshape(outcomes)
    bases = _init_bases(rng, outcomes, settings)
    trace = [_objective(psi_t, bases, coeffs)]
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        before = trace[-1]
        _sweep_measurements(psi_t, bases, coeffs, settings, trace)
        if trace[-1] - before < tol:
            converged = True
            break
    return trace[-1], bases, trace, iters, converged


def _quantum_task(args):
    coeffs, outcomes, settings, max_iters, tol, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    dim = int(np.prod(outcomes))
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    psi_t = psi.reshape(outcomes)
    bases = _init_bases(rng, outcomes, settings)
    trace = [_objective(psi_t, bases, coeffs)]
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        before = trace[-1]
        _sweep_measurements(psi_t, bases, coeffs, settings, trace)
        psi = _top_eigvec(_bell_operator(bases, coeffs, outcomes, settings))
        psi_t = psi.reshape(outcomes)
        val = _objective(psi_t, bases, coeffs)
        assert val >= trace[-1] - 1e-9 * (1.0 + abs(trace[-1])), "state step decreased"
        trace.append(val)
        if trace[-1] - before < tol:
            converged = True
            break
    return trace[-1], bases, trace, iters, converged, psi


def _run_tasks(fn: Callable, argslist: list, jobs: int) -> list:
    # A pool starts all of its workers up front, so more workers than tasks
    # or cores would only cost start-up time; results do not depend on the
    # worker count.
    workers = min(jobs, len(argslist), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(a) for a in argslist]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, argslist))


def _freeze_bases(bases) -> tuple[tuple[np.ndarray, ...], ...]:
    return tuple(tuple(np.asarray(v) for v in per) for per in bases)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def optimize_measurements(
    ineq: bell.BellInequality,
    state,
    cfg: OptimizerConfig = OptimizerConfig(),
    _seed_seq: np.random.SeedSequence | None = None,
) -> OptimizationReport:
    """Best measurements for a fixed shared state, by multi-restart see-saw."""
    psi = np.asarray(getattr(state, "amplitudes", state), dtype=complex)
    if psi.shape != (int(np.prod(ineq.outcomes)),):
        raise ValueError("state dimension does not match the inequality register")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    root = _seed_seq if _seed_seq is not None else np.random.SeedSequence(cfg.seed)
    seeds = root.spawn(cfg.restarts)
    args = [
        (ineq.coeffs, ineq.outcomes, ineq.settings, psi, cfg.max_iters, cfg.tol, s)
        for s in seeds
    ]
    results = _run_tasks(_fixed_state_task, args, cfg.jobs)
    values = [r[0] for r in results]
    best = int(np.argmax(values))
    _, bases, trace, iters, converged = results[best]
    reval = bell.evaluate(ineq, bell.behavior_from_state(psi, bases))
    assert abs(reval - values[best]) <= 1e-8, "re-evaluation drifted from the see-saw value"
    return OptimizationReport(
        value=reval,
        measurements=_freeze_bases(bases),
        state=psi,
        state_label="fixed state",
        best_class=None,
        best_restart=best,
        restart_values=tuple(values),
        iterations=iters,
        converged=converged,
        trace=tuple(trace),
        seed=cfg.seed,
    )


def stabilizer_value(
    ineq: bell.BellInequality, cfg: OptimizerConfig = OptimizerConfig()
) -> OptimizationReport:
    """Maximum Bell value over stabilizer states of the inequality's register.

    d-outcome projective measurements act on C^d, so the register is pinned
    party by party to the outcome counts.  Optimizes the measurements on one
    graph-state representative per local class (direct sums of per-cluster
    orbit representatives) and returns the best, together with the
    achieving class and the per-class values.
    """
    family = graphs.cluster_representatives(ineq.outcomes)
    class_seeds = np.random.SeedSequence(cfg.seed).spawn(family.count())
    best_report = None
    best_assignment = None
    class_values = []
    for idx, assignment in enumerate(family.assignments()):
        gs = states.assemble_cluster_state(family, assignment)
        rep = optimize_measurements(ineq, gs, cfg, _seed_seq=class_seeds[idx])
        class_values.append(rep.value)
        if best_report is None or rep.value > best_report.value:
            best_report = rep
            best_assignment = assignment
    label = " (+) ".join(
        f"d={a.d} edges={a.edges() or '-'}" for a in best_assignment
    )
    return OptimizationReport(
        value=best_report.value,
        measurements=best_report.measurements,
        state=best_report.state,
        state_label=f"graph state [{label}]",
        best_class=best_assignment,
        best_restart=best_report.best_restart,
        restart_values=best_report.restart_values,
        iterations=best_report.iterations,
        converged=best_report.converged,
        trace=best_report.trace,
        seed=cfg.seed,
        class_values=tuple(class_values),
    )


def quantum_value(
    ineq: bell.BellInequality, cfg: OptimizerConfig = OptimizerConfig()
) -> OptimizationReport:
    """Maximum Bell value over all states of the fixed register.

    Alternates measurement sweeps with an exact state update.  This is a
    lower bound on the maximum over arbitrary Hilbert spaces: the register
    is pinned to one copy of each party's outcome dimension.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    args = [
        (ineq.coeffs, ineq.outcomes, ineq.settings, cfg.max_iters, cfg.tol, s)
        for s in seeds
    ]
    results = _run_tasks(_quantum_task, args, cfg.jobs)
    values = [r[0] for r in results]
    best = int(np.argmax(values))
    _, bases, trace, iters, converged, psi = results[best]
    reval = bell.evaluate(ineq, bell.behavior_from_state(psi, bases))
    assert abs(reval - values[best]) <= 1e-8, "re-evaluation drifted from the see-saw value"
    return OptimizationReport(
        value=reval,
        measurements=_freeze_bases(bases),
        state=psi,
        state_label="optimized state",
        best_class=None,
        best_restart=best,
        restart_values=tuple(values),
        iterations=iters,
        converged=converged,
        trace=tuple(trace),
        seed=cfg.seed,
    )


@dataclass(frozen=True)
class ScanRow:
    param: float
    local: float
    stabilizer: float
    quantum: float
    gap: float


def gap_scan(
    family: Callable[[float], bell.BellInequality],
    params: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[ScanRow]:
    """Local, stabilizer and quantum values over a parametrized family."""
    rows = []
    for p in params:
        ineq = family(p)
        loc = bell.local_bound(ineq)
        stab = stabilizer_value(ineq, cfg).value
        quant = quantum_value(ineq, cfg).value
        rows.append(ScanRow(float(p), loc, stab, quant, quant - stab))
    return rows


def w_state(theta: float, phi: float) -> np.ndarray:
    """Three-qubit family sin(t)sin(p)|001> + sin(t)cos(p)|010> + cos(t)|100>."""
    v = np.zeros(8, dtype=complex)
    v[1] = np.sin(theta) * np.sin(phi)
    v[2] = np.sin(theta) * np.cos(phi)
    v[4] = np.cos(theta)
    return v


def w_heatmap(
    theta_grid: Sequence[float],
    phi_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> np.ndarray:
    """Optimized three-party witness value over the W-family parameter grid."""
    thetas = [float(t) for t in theta_grid]
    phis = [float(p) for p in phi_grid]
    if any(not 0.0 <= t <= np.pi for t in thetas + phis):
        raise ValueError("grid angles must lie in [0, pi]")
    ineq = bell.catalog_svetlichny_r2()
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(thetas) * len(phis))
    out = np.empty((len(thetas), len(phis)))
    k = 0
    for i, t in enumerate(thetas):
        for j, p in enumerate(phis):
            rep = optimize_measurements(ineq, w_state(t, p), cfg, _seed_seq=seeds[k])
            out[i, j] = rep.value
            k += 1
    return out
