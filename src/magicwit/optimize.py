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
  follows;
* a fixed product state, at every d: each B_a is g_a |phi><phi| for the
  party's factor phi, so the exact maximizer puts phi in the column of the
  largest g_a (`_product_step`).  Best response alone can stall below the
  local bound, so restart 0 starts at the best deterministic strategy
  (`bell._local_optimum`), which is a product state's maximum.

The unrestricted quantum value alternates measurement sweeps with an exact
state update (top eigenvector of the Bell operator).  Every step is
monotone, so each restart's trace is non-decreasing.

Every Born-rule contraction (the objective, a party's environments, the Bell
operator) goes through one kernel, `bell.amplitudes`: one batched matmul per
party against that party's stacked bases.

A measurement step is valued from its own environment: the objective is
sum_a <v_a|B_a|v_a> plus terms free of the active basis, so the trace gains
the change in that sum and no Born-rule contraction of the whole objective
runs inside a sweep.  The accumulated trace is checked against the Born rule
(`_objective`) at the end of every fixed-state restart.  With a free state it
is checked against <psi|B|psi> of the Bell operator before every state step,
and the state step re-anchors it to `_objective`, which also values the
restart.

Every see-saw array has a leading restart axis, one row per restart (a batch
of 1 for a state they share).  Each row draws its start from its own spawned
seed (restart 0 of a product state: the planned strategy, always in the first
batch) and reads no other row, so results do not depend on the batching.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from magicwit import bell, graphs, states
from magicwit.errors import ResourceLimitError, require


# Sweeps per restart, at most.
MAX_SWEEPS = 500
# A restart stops once a sweep raises its value by less than this.
STOP_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """How many see-saw restarts to run, and the seed they are spawned from."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class OptimizationReport:
    """Best value found, with the argmax and per-restart telemetry.

    `value` is re-evaluated from the frozen measurements and state through
    `bell.behavior_from_state`, which shares `bell.amplitudes` with every
    see-saw contraction.  The independent checks are one `einsum` (`born_value`
    in the benchmark's oracles, a test in tests/test_bell.py) and a loop
    over setting tuples in tests/test_optimize.py.

    `restart_values`, `restart_iterations` and `restart_converged` hold each
    restart's final value, sweep count and convergence flag, in seed order.
    `iterations` and `converged` repeat the best restart's entries; a restart
    that ran to `MAX_SWEEPS` without converging shows in the tuples even when
    it is not the best.  In a stabilizer report all of these, and `trace`,
    belong to the winning class only: the restarts of the other classes,
    unconverged ones included, do not show.  The planned `--report` run
    report (ROADMAP item 4) is to carry every class.

    `class_values` (stabilizer reports only) holds the best value found per
    graph-state class at the configured restarts.  The product class's entry
    is its exact maximum, the local bound (to rounding), when the
    deterministic strategies fit `bell.DEFAULT_STRATEGY_BUDGET`.  Every other
    entry is a lower bound on that class's maximum, not the maximum itself: a
    class whose optimum only a few restarts reach can report less at another
    seed.
    """

    value: float
    measurements: tuple[tuple[np.ndarray, ...], ...]
    state: np.ndarray
    state_label: str
    best_class: object
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    restart_converged: tuple[bool, ...]
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    class_values: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Inner see-saw machinery
# ---------------------------------------------------------------------------

# Entries of the largest see-saw array, the Bell operator's K: restarts x
# register x prod_i m_i d_i.  `_best_of_restarts` runs the restarts in batches
# that stay under it; a restart whose own K is over it runs alone, over budget.
SEESAW_BUDGET = 1 << 20
# Entries of one restart's K (register^2 x prod_i m_i).  Over it, the see-saw
# exits with ResourceLimitError before it allocates anything.
SEESAW_REGISTER_LIMIT = 1 << 24


def _objective(psi_t, bases, coeffs) -> np.ndarray:
    """Bell value per restart; psi_t is (R or 1, d_1..d_n), bases[i] is (R, m_i, d_i, d_i)."""
    n = len(bases)
    amp = bell.amplitudes(psi_t, bases)
    probs = np.abs(amp.transpose([0, *range(2, 2 * n + 1, 2), *range(1, 2 * n, 2)])) ** 2
    return np.sum(coeffs * probs, axis=tuple(range(1, 2 * n + 1)))


def _contractions(psi_t, bases, party) -> np.ndarray:
    """psi contracted with the other parties' bases, for every setting tuple of theirs.

    Entry [R, x, r, p] is restart R's amplitude of outcome tuple r of the
    other parties in setting tuple x, with the active party's index p left
    open; x and r run row-major over the other parties in order.  The stack
    does not involve `party`'s own bases, so one serves a whole visit.
    """
    d = psi_t.shape[1 + party]
    # Measured in the one-setting identity stack, the active party's index stays open.
    stacks = [np.eye(d)[None, None] if j == party else b for j, b in enumerate(bases)]
    amp = bell.amplitudes(psi_t, stacks)
    others = [j for j in range(len(bases)) if j != party]
    axes = [2 * j + 1 for j in others]
    axes = [0, *axes, *(ax + 1 for ax in axes), 2 * party + 1, 2 * party + 2]
    return amp.transpose(axes).reshape(len(amp), math.prod(len(bases[j][0]) for j in others), -1, d)


def _environments(c, coeffs, party, setting) -> np.ndarray:
    """Stacks of outcome operators B[R, a] for the active (party, setting).

    `c` is the party's `_contractions` stack.  The objective is
    sum_a <v_a|B[a]|v_a> over the active basis {v_a} plus terms that do not
    involve it, so a basis update changes the objective by the change in
    that sum.  `_restarts` values each step that way and checks the summed
    steps against the Born rule.
    """
    _, nx, nr, d = c.shape
    w = np.take(coeffs, setting, axis=coeffs.ndim // 2 + party)
    w = np.moveaxis(w, party, 0).reshape(d, nr, nx)
    # x is summed last, one setting tuple after another: restarts that tie on
    # a plateau are ranked by rounding, so the order decides which one is
    # reported.
    return np.einsum("arx,Rxrp,Rxrq->Rxapq", w, c, c.conj()).sum(axis=1)


def _basis_update(bh: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One monotone alignment step per restart, bh (R, d, d, d), basis v (R, d, d).

    For d = 2 the step is exact: the value is tr B_1 + <v_0|B_0 - B_1|v_0>,
    maximized by the eigenbasis of B_0 - B_1 with the top vector first.
    Otherwise it shifts the outcome operators positive semidefinite,
    maximizes the linearized cross term over unitaries via the SVD, then
    searches the d cyclic relabelings t, scored by sum_a G[a, (a + t) mod d]
    with G[a, c] = <v_c|B_a|v_c>; ties go to the smallest t.
    """
    d = v.shape[-1]
    if d == 2:
        return np.linalg.eigh(bh[:, 0] - bh[:, 1])[1][..., ::-1]
    lam = np.linalg.eigvalsh(bh).min(axis=(1, 2))
    w = np.einsum("Rapq,Rqa->Rpa", bh, v) - lam[:, None, None] * v
    p, _, qh = np.linalg.svd(w)
    vnew = p @ qh
    g = np.einsum("Rpc,Rapq,Rqc->Rac", vnew.conj(), bh, vnew).real
    a = np.arange(d)
    cols = (a[None, :] + a[:, None]) % d
    best = np.argmax(g[:, a, cols].sum(axis=2), axis=1)
    return np.take_along_axis(vnew, cols[best][:, None, :], axis=2)


def _product_factors(psi_t: np.ndarray) -> list[np.ndarray] | None:
    """Each party's factor of a product state psi_t (1, d_1..d_n); None if any party is entangled.

    Party i factors off exactly when its reduced state rho = M M^dagger, M
    being psi with that party's index in front, has purity tr rho^2 = 1
    (within 1e-12).  Every column of M is then the factor times a scalar, so
    the largest one, normalized, is the factor.
    """
    factors = []
    for i, d in enumerate(psi_t.shape[1:]):
        m = np.moveaxis(psi_t[0], i, 0).reshape(d, -1)
        rho = m @ m.conj().T
        if abs(np.sum(np.abs(rho) ** 2) - 1.0) > 1e-12:
            return None
        col = m[:, np.argmax(np.sum(np.abs(m) ** 2, axis=0))]
        factors.append(col / np.linalg.norm(col))
    return factors


def _reflect(v: np.ndarray, phi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Householder reflections of the bases v (R, d, d) taking column k[R] to phi, up to a phase.

    Each column c goes to -e^(i arg <phi|c>) phi, so the reflection vector
    u = c + e^(i arg <phi|c>) phi has |u|^2 = 2 + 2 |<phi|c>| >= 2 and no
    cancellation.  The other columns stay orthonormal to it.
    """
    c = np.take_along_axis(v, k[:, None, None], axis=2)[..., 0]
    u = c + np.exp(1j * np.angle(np.einsum("Rp,p->R", c, phi.conj())))[:, None] * phi
    scale = 2.0 / np.einsum("Rp,Rp->R", u.conj(), u).real
    return v - (scale[:, None] * u)[:, :, None] * np.einsum("Rp,Rpa->Ra", u.conj(), v)[:, None, :]


def _product_step(bh: np.ndarray, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Exact step of a party whose factor of a product state is phi.

    Every outcome operator is then B[R, a] = g[R, a] |phi><phi| with
    g = tr B, so the value sum_a g_a |<phi|v_a>|^2 is at most max_a g_a, and
    it reaches that with phi in the column of the largest g_a (the first on
    ties).
    """
    return _reflect(v, phi, np.argmax(np.einsum("Rapp->Ra", bh).real, axis=1))


def _ascend(trace: list, val, step: str) -> None:
    """Append see-saw values, one per running restart, after checking that `step` lowered none."""
    last = trace[-1]
    require(np.all(val >= last - 1e-9 * (1.0 + np.abs(last))), f"see-saw {step} decreased")
    trace.append(val)


def _require_on_trace(last, val) -> None:
    """Check the environment-valued trace against an independent contraction, row by row."""
    require(np.all(np.abs(val - last) <= 1e-8), "see-saw trace drifted from the objective")


def _active_value(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_a Re <v_a|B[a]|v_a> per restart: the active basis's share of the objective."""
    return np.einsum("Rpa,Rapq,Rqa->R", v.conj(), b, v).real


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
    """sum_(x,a) w[a, x] |b_xa><b_xa| per restart; on the identity the kernel gives K[R, Q, xa]."""
    n = len(bases)
    dim = math.prod(coeffs.shape[:n])
    k = bell.amplitudes(np.eye(dim).reshape((1, *coeffs.shape[:n], dim)), bases)
    k = k.reshape(k.shape[0], dim, -1)
    w = coeffs.transpose([ax for i in range(n) for ax in (n + i, i)]).reshape(-1)
    return (k.conj() * w) @ k.swapaxes(-1, -2)


def _top_eigvec(op: np.ndarray) -> np.ndarray:
    """Leading eigenvector per restart; degenerate tops break ties on |first component|."""
    vals, vecs = np.linalg.eigh(0.5 * (op + op.conj().swapaxes(-1, -2)))
    score = np.where(vals >= vals[:, -1:] - 1e-12, np.abs(vecs[:, 0, :]), -1.0)
    best = np.argmax(score, axis=1)
    return np.ascontiguousarray(np.take_along_axis(vecs, best[:, None, None], axis=2)[..., 0])


def _restarts(coeffs, outcomes, settings, psi, seeds, first=False):
    """One see-saw per seed, each restart a row of one batch.

    A restart draws its start from its own seed: a free state (`psi` None)
    first, then the bases party by party.  Each iteration sweeps the rows
    still running, then takes the state step if the state is free; a row
    stops once a sweep gains less than `STOP_TOL`, or after `MAX_SWEEPS`.

    A fixed product state takes `_product_step` in place of `_basis_update`.
    When `first` (seeds[0] is restart 0 of the call), that row starts at the
    best deterministic strategy instead, its factors in the planned columns,
    unless the strategies exceed `bell.DEFAULT_STRATEGY_BUDGET`.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    free_state = psi is None
    if free_state:
        dim = math.prod(outcomes)
        psi = np.stack([rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for rng in rngs])
        psi /= np.array([[np.linalg.norm(p)] for p in psi])
    psi_t = psi.reshape(-1, *outcomes)
    bases = [
        np.stack([[_random_basis(rng, d) for _ in range(m)] for rng in rngs])
        for d, m in zip(outcomes, settings)
    ]
    factors = None if free_state else _product_factors(psi_t)
    if factors is not None and first:
        try:
            plan = bell._local_optimum(bell.BellInequality(outcomes, settings, coeffs))[1]
        except ResourceLimitError:
            plan = []  # restart 0 keeps its random start
        for b, phi, outs in zip(bases, factors, plan):
            b[0] = _reflect(b[0], phi, outs)
    value = _objective(psi_t, bases, coeffs)
    traces = [[v] for v in value.tolist()]
    iters = np.zeros(len(rngs), dtype=int)
    converged = np.zeros(len(rngs), dtype=bool)
    for it in range(1, MAX_SWEEPS + 1):
        rows = np.flatnonzero(~converged)
        sub = [b[rows] for b in bases]
        sub_t = psi_t[rows] if free_state else psi_t
        trace = [value[rows]]
        for i in range(len(settings)):
            c = _contractions(sub_t, sub, i)
            for s in range(settings[i]):
                env = _environments(c, coeffs, i, s)
                env = 0.5 * (env + np.conj(env.swapaxes(-1, -2)))
                old = _active_value(env, sub[i][:, s])
                if factors is None:
                    sub[i][:, s] = _basis_update(env, sub[i][:, s])
                else:
                    sub[i][:, s] = _product_step(env, sub[i][:, s], factors[i])
                _ascend(trace, trace[-1] + (_active_value(env, sub[i][:, s]) - old), "step")
        if free_state:
            op = _bell_operator(sub, coeffs)
            vec = sub_t.reshape(len(rows), -1)
            # The state step re-anchors the trace, so check the sweep's first.
            _require_on_trace(trace[-1], np.einsum("Rp,Rpq,Rq->R", vec.conj(), op, vec).real)
            psi_t[rows] = sub_t = _top_eigvec(op).reshape(sub_t.shape)
            _ascend(trace, _objective(sub_t, sub, coeffs), "state step")
        for b, new in zip(bases, sub):
            b[rows] = new
        for r, steps in zip(rows, np.stack(trace[1:], axis=1).tolist()):
            traces[r].extend(steps)
        value[rows] = trace[-1]
        iters[rows] = it
        converged[rows] = trace[-1] - trace[0] < STOP_TOL
        if converged.all():
            break
    if not free_state:
        final = _objective(psi_t, bases, coeffs)
        _require_on_trace(value, final)
        value = final
    # With a free state the last state step valued every row by `_objective`.
    return value, bases, traces, iters, converged, psi_t


def _best_of_restarts(ineq, psi, cfg, root, state_label) -> OptimizationReport:
    """Run one see-saw per seed spawned from `root`; re-check and report the best.

    The restarts run in batches of at most `SEESAW_BUDGET` entries of K.  The
    best is the highest final value, the lowest restart index on ties.
    """
    entries = math.prod(ineq.outcomes) ** 2 * math.prod(ineq.settings)
    if entries > SEESAW_REGISTER_LIMIT:
        raise ResourceLimitError(
            f"see-saw register of {entries} entries per restart exceeds the limit "
            f"{SEESAW_REGISTER_LIMIT}"
        )
    seeds = root.spawn(cfg.restarts)
    size = max(1, SEESAW_BUDGET // entries)
    runs = [
        _restarts(ineq.coeffs, ineq.outcomes, ineq.settings, psi, seeds[lo : lo + size], lo == 0)
        for lo in range(0, cfg.restarts, size)
    ]
    values, iters, converged = (np.concatenate([run[i] for run in runs]) for i in (0, 3, 4))
    best = int(np.argmax(values))
    _, bases, traces, _, _, psis = runs[best // size]
    k = best % size
    state = psis[k].reshape(-1) if psi is None else psi
    measurements = tuple(tuple(b[k]) for b in bases)
    reval = bell.evaluate(ineq, bell.behavior_from_state(state, measurements))
    require(abs(reval - values[best]) <= 1e-8, "re-evaluation drifted from the see-saw value")
    return OptimizationReport(
        value=reval,
        measurements=measurements,
        state=state,
        state_label=state_label,
        best_class=None,
        restart_values=tuple(values.tolist()),
        restart_iterations=tuple(iters.tolist()),
        restart_converged=tuple(converged.tolist()),
        iterations=int(iters[best]),
        converged=bool(converged[best]),
        trace=tuple(traces[k]),
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
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:
        raise ValueError("state must be normalized")
    root = _seed_seq if _seed_seq is not None else np.random.SeedSequence(cfg.seed)
    return _best_of_restarts(ineq, psi, cfg, root, "fixed state")


def _per_state(ineq, fixed_states: Sequence, cfg: OptimizerConfig) -> Iterator[OptimizationReport]:
    """One `optimize_measurements` report per state, made lazily.

    State k draws its restarts from child k of `SeedSequence(cfg.seed)`.  A
    caller that keeps only the values holds one report at a time.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(fixed_states))
    return (
        optimize_measurements(ineq, state, cfg, _seed_seq=seed)
        for state, seed in zip(fixed_states, seeds)
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
    classes = list(family.assignments())
    gs = [states.assemble_cluster_state(family, a) for a in classes]
    reports = list(_per_state(ineq, gs, cfg))
    class_values = tuple(rep.value for rep in reports)
    best = int(np.argmax(class_values))
    label = " (+) ".join(f"d={a.d} edges={a.edges() or '-'}" for a in classes[best])
    return replace(
        reports[best],
        state_label=f"graph state [{label}]",
        best_class=classes[best],
        class_values=class_values,
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
    grid = [w_state(t, p) for t in thetas for p in phis]
    values = [rep.value for rep in _per_state(ineq, grid, cfg)]
    return np.reshape(values, (len(thetas), len(phis)))
