"""Measurement and state optimization by monotone see-saw ascent.

With every measurement but one held fixed, the Bell value is linear in the
remaining one.  For each (party, setting) visit the update solves that
linear subproblem:

* qubits: the value is tr B_1 + <v_0|B_0 - B_1|v_0>, so the exact
  maximizer is the eigenbasis of B_0 - B_1 with its top eigenvector first;
* qudits: the value is sum_a <v_a|B_a|v_a> over the orthonormal eigenbasis
  {v_a}.  After shifting every B_a positive semidefinite (a constant
  offset), aligning the basis with the singular vectors of the stacked
  gradient [B_a v_a] never decreases the objective; a search over cyclic
  relabelings of which root-of-unity eigenvalue sits on which column
  follows.

The unrestricted quantum value alternates measurement sweeps with an exact
state update (top eigenvector of the Bell operator).  Every step is
monotone, so each restart's trace is non-decreasing.

Every Born-rule contraction (the objective, a party's environments, the Bell
operator) goes through one kernel, `bell.amplitudes`: one `tensordot` per
party against that party's stacked bases.

A measurement step is valued from its own environment: the objective is
sum_a <v_a|B_a|v_a> plus terms free of the active basis, so the trace gains
the change in that sum and no Born-rule contraction of the whole objective
runs inside a sweep.  The accumulated trace is checked against the Born rule
(`_objective`) at the end of every fixed-state restart.  With a free state it
is checked against <psi|B|psi> of the Bell operator before every state step,
and the state step re-anchors it to `_objective`, which also values the
restart.  Restarts draw their random starting points from seeds spawned
per restart, which makes results independent of the worker count.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from magicwit import bell, graphs, states
from magicwit.errors import require

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
    `bell.behavior_from_state`, which shares `bell.amplitudes` with every
    see-saw contraction.  The independent checks are one `einsum` (`born_value`
    in the benchmark's oracles, a test in tests/test_bell.py) and a loop
    over setting tuples in tests/test_optimize.py.

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
    restart_values: tuple[float, ...]
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    class_values: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Inner see-saw machinery
# ---------------------------------------------------------------------------


def _objective(psi_t, bases, coeffs) -> float:
    n = psi_t.ndim
    amp = bell.amplitudes(psi_t, bases)
    probs = np.abs(amp.transpose([2 * i + 1 for i in range(n)] + [2 * i for i in range(n)])) ** 2
    return float(np.sum(coeffs * probs))


def _contractions(psi_t, bases, party) -> np.ndarray:
    """psi contracted with the other parties' bases, for every setting tuple of theirs.

    Entry [x, r, p] is the amplitude of outcome tuple r of the other parties,
    measured in setting tuple x, with the active party's index p left open;
    x and r run row-major over the other parties in order.  The stack does
    not involve `party`'s own bases, so one serves every setting of a visit.
    """
    d = psi_t.shape[party]
    # Measured in the one-setting identity stack, the active party's index stays open.
    stacks = [np.eye(d)[None] if j == party else b for j, b in enumerate(bases)]
    amp = bell.amplitudes(psi_t, stacks)
    others = [j for j in range(psi_t.ndim) if j != party]
    axes = [2 * j for j in others]
    axes += [ax + 1 for ax in axes] + [2 * party, 2 * party + 1]
    return amp.transpose(axes).reshape(math.prod(len(bases[j]) for j in others), -1, d)


def _environments(c, coeffs, party, setting) -> np.ndarray:
    """Stack of outcome operators B[a] for the active (party, setting).

    `c` is the party's `_contractions` stack.  The objective is
    sum_a <v_a|B[a]|v_a> over the active basis {v_a} plus terms that do not
    involve it, so a basis update changes the objective by the change in
    that sum.  `_sweep_measurements` values each step that way, and
    `_restart_task` checks the summed steps against the Born rule.
    """
    nx, nr, d = c.shape
    w = np.take(coeffs, setting, axis=coeffs.ndim // 2 + party)
    w = np.moveaxis(w, party, 0).reshape(d, nr, nx)
    # x is summed last, one setting tuple after another: restarts that tie on
    # a plateau are ranked by rounding, so the order decides which one is
    # reported.
    return np.einsum("arx,xrp,xrq->xapq", w, c, c.conj()).sum(axis=0)


def _basis_update(bh: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One monotone alignment step for an orthonormal eigenbasis.

    For d = 2 the step is exact: the value is tr B_1 + <v_0|B_0 - B_1|v_0>,
    maximized by the eigenbasis of B_0 - B_1 with the top vector first.
    Otherwise it shifts the outcome operators positive semidefinite,
    maximizes the linearized cross term over unitaries via the SVD, then
    searches the d cyclic relabelings t, scored by sum_a G[a, (a + t) mod d]
    with G[a, c] = <v_c|B_a|v_c>; ties go to the smallest t.
    """
    d = v.shape[0]
    if d == 2:
        return np.linalg.eigh(bh[0] - bh[1])[1][:, ::-1]
    lam = np.linalg.eigvalsh(bh).min()
    w = np.einsum("apq,qa->pa", bh, v) - lam * v
    p, _, qh = np.linalg.svd(w)
    vnew = p @ qh
    g = np.einsum("pc,apq,qc->ac", vnew.conj(), bh, vnew).real
    a = np.arange(d)
    cols = (a[None, :] + a[:, None]) % d
    return vnew[:, cols[np.argmax(g[a, cols].sum(axis=1))]]


def _ascend(trace: list, val: float, step: str) -> None:
    """Append a see-saw value after checking that `step` did not lower it."""
    require(val >= trace[-1] - 1e-9 * (1.0 + abs(trace[-1])), f"see-saw {step} decreased")
    trace.append(val)


def _require_on_trace(trace: list, val: float) -> None:
    """Check the environment-valued trace against an independent contraction."""
    require(abs(val - trace[-1]) <= 1e-8, "see-saw trace drifted from the objective")


def _active_value(b: np.ndarray, v: np.ndarray) -> float:
    """sum_a Re <v_a|B[a]|v_a>: the active basis's share of the objective."""
    return float(np.einsum("pa,apq,qa->", v.conj(), b, v).real)


def _sweep_measurements(psi_t, bases, coeffs, settings, trace) -> None:
    """Update every (party, setting) once, valuing each step from its environment.

    A step appends trace[-1] plus the change in `_active_value`; no Born-rule
    contraction of the whole objective runs here.  `_restart_task` ties the
    accumulated trace back to `_objective`.
    """
    for i in range(len(settings)):
        c = _contractions(psi_t, bases, i)
        for s in range(settings[i]):
            env = _environments(c, coeffs, i, s)
            env = 0.5 * (env + np.conj(np.transpose(env, (0, 2, 1))))
            old = _active_value(env, bases[i][s])
            bases[i][s] = _basis_update(env, bases[i][s])
            _ascend(trace, trace[-1] + (_active_value(env, bases[i][s]) - old), "step")


def _random_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random start: for a qubit the eigenbasis of u . sigma, +1 first; else a Haar unitary."""
    if d == 2:
        x, y, z = rng.standard_normal(3)
        return np.linalg.eigh(np.array([[z, x - 1j * y], [x + 1j * y, -z]]))[1][:, ::-1]
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _bell_operator(bases, coeffs) -> np.ndarray:
    """sum_(x,a) w[a, x] |b_xa><b_xa|; the kernel on the identity gives K[Q, (x, a)] = <b_xa|Q>."""
    n = len(bases)
    dim = math.prod(coeffs.shape[:n])
    k = bell.amplitudes(np.eye(dim).reshape(coeffs.shape[:n] + (dim,)), bases).reshape(dim, -1)
    w = coeffs.transpose([ax for i in range(n) for ax in (n + i, i)]).reshape(-1)
    return (k.conj() * w) @ k.T


def _top_eigvec(op: np.ndarray) -> np.ndarray:
    """Leading eigenvector; degenerate tops break ties on |first component|."""
    vals, vecs = np.linalg.eigh(0.5 * (op + op.conj().T))
    top = vals[-1]
    idx = [k for k in range(len(vals)) if vals[k] >= top - 1e-12]
    best = max(idx, key=lambda k: abs(vecs[0, k]))
    return np.ascontiguousarray(vecs[:, best])


def _restart_task(args):
    """One see-saw restart from a seeded random start.

    With `psi` None the state is free: it is drawn before the bases, and each
    sweep is followed by the state step (top eigenvector of the Bell operator).
    """
    coeffs, outcomes, settings, psi, max_iters, tol, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    free_state = psi is None
    if free_state:
        dim = int(np.prod(outcomes))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
    psi_t = psi.reshape(outcomes)
    bases = [[_random_basis(rng, d) for _ in range(m)] for d, m in zip(outcomes, settings)]
    trace = [_objective(psi_t, bases, coeffs)]
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        before = trace[-1]
        _sweep_measurements(psi_t, bases, coeffs, settings, trace)
        if free_state:
            op = _bell_operator(bases, coeffs)
            # The state step re-anchors the trace, so check the sweep's first.
            _require_on_trace(trace, np.vdot(psi, op @ psi).real)
            psi = _top_eigvec(op)
            psi_t = psi.reshape(outcomes)
            _ascend(trace, _objective(psi_t, bases, coeffs), "state step")
        if trace[-1] - before < tol:
            converged = True
            break
    if free_state:
        # The last state step valued this state and these bases by `_objective`.
        value = trace[-1]
    else:
        value = _objective(psi_t, bases, coeffs)
        _require_on_trace(trace, value)
    return value, bases, trace, iters, converged, psi


def _run_tasks(fn: Callable, argslist: list, jobs: int) -> list:
    # A pool starts all of its workers up front, so more workers than tasks
    # or cores would only cost start-up time; results do not depend on the
    # worker count.
    workers = min(jobs, len(argslist), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(a) for a in argslist]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, argslist))


def _best_of_restarts(ineq, psi, cfg, root, state_label) -> OptimizationReport:
    """Run one see-saw per seed spawned from `root`; re-check and report the best.

    The best is the highest final value, the lowest restart index on ties.
    """
    args = [
        (ineq.coeffs, ineq.outcomes, ineq.settings, psi, cfg.max_iters, cfg.tol, s)
        for s in root.spawn(cfg.restarts)
    ]
    results = _run_tasks(_restart_task, args, cfg.jobs)
    values = [r[0] for r in results]
    best = int(np.argmax(values))
    _, bases, trace, iters, converged, psi = results[best]
    reval = bell.evaluate(ineq, bell.behavior_from_state(psi, bases))
    require(abs(reval - values[best]) <= 1e-8, "re-evaluation drifted from the see-saw value")
    return OptimizationReport(
        value=reval,
        measurements=tuple(tuple(per) for per in bases),
        state=psi,
        state_label=state_label,
        best_class=None,
        restart_values=tuple(values),
        iterations=iters,
        converged=converged,
        trace=tuple(trace),
    )


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
    if getattr(state, "dims", ineq.outcomes) != ineq.outcomes:
        raise ValueError("state register dims do not match the inequality's outcome counts")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    root = _seed_seq if _seed_seq is not None else np.random.SeedSequence(cfg.seed)
    return _best_of_restarts(ineq, psi, cfg, root, "fixed state")


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
    return replace(
        best_report,
        state_label=f"graph state [{label}]",
        best_class=best_assignment,
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
    return _best_of_restarts(ineq, None, cfg, np.random.SeedSequence(cfg.seed), "optimized state")


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
