"""Measurement and state optimization by monotone see-saw ascent.

With every party but one held fixed, the Bell value is a sum over that
party's settings of terms each linear in one setting's basis, and the
outcome operators of the terms (the environments) involve none of the
party's bases.  So the settings separate, and each party takes one step in
which all its settings solve their linear subproblems at once, exactly as
if they stepped one after another:

* qubits: the value is tr B_1 + <v_0|B_0 - B_1|v_0>, so the exact
  maximizer is the eigenbasis of B_0 - B_1 with its top eigenvector first;
* qudits: the value is sum_a <v_a|B_a|v_a> over the orthonormal eigenbasis
  {v_a}.  After shifting every B_a positive semidefinite (a constant
  offset), aligning the basis with the singular vectors of the stacked
  gradient [B_a v_a] never decreases the objective; a search over cyclic
  relabelings of which root-of-unity eigenvalue sits on which column
  follows.

A fixed product state measured in rank-1 projectors gives a local behavior,
so its maximum is the local bound, and the best deterministic strategy
(`bell._local_optimum`) attains it with each party's factor in the planned
columns.  Best response alone can stall below that bound, so every restart
of a product state starts there; the monotone steps then keep it at its
maximum.  Past `bell.DEFAULT_STRATEGY_BUDGET` there is no plan, and those
restarts start at random like any other.

The unrestricted quantum value alternates measurement sweeps with an exact
state update (top eigenvector of the Bell operator).  Every step is
monotone, so each restart's trace is non-decreasing.

Every Born-rule contraction (the objective, a party's environments) goes
through one kernel, `bell.amplitudes`: one batched matmul per party against
that party's stacked bases.  The Bell operator needs none: its factor K is
the outer product of the parties' conjugated stacks.

A party's step is valued from its own environments: the objective is
sum_s sum_a <v_sa|B_sa|v_sa> plus terms free of the party's bases, so the
trace gains the change in each setting's sum, one entry per setting, and no
Born-rule contraction of the whole objective runs inside a sweep.  The
accumulated trace is checked against the Born rule (`_objective`) at the
end of every fixed-state restart.  With a free state it is checked against
<psi|B|psi> of the Bell operator before every state step, and the state step
re-anchors it to `_objective`, which also values the restart.

Every see-saw array has a leading row axis, one row per (state, restart)
pair, and a fixed state comes once per row.  Batches span states:
`w_heatmap` runs the restarts of all its grid points as one stream of rows,
sliced into batches by `SEESAW_BUDGET`.  Each row draws its start from its
own spawned seed (a product state's then moved to the planned strategy) and
reads no other row, so results do not depend on how the batches are
composed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from magicwit import algebra, bell, graphs, states
from magicwit.errors import ResourceLimitError, require


# Sweeps per restart, at most.
MAX_SWEEPS = 500
# A restart stops once a sweep raises its value by less than this, in `_unit`s.
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
    report (ROADMAP item 9) is to carry every class.

    `class_values` (stabilizer reports only) holds the best value found per
    graph-state class at the configured restarts.  When the deterministic
    strategies fit `bell.DEFAULT_STRATEGY_BUDGET`, every restart of the
    product class starts at the best of them, so its entry is its exact
    maximum, the local bound (to rounding).  Every other entry, and the
    product class's past that budget (its restarts then start at random), is
    a lower bound on that class's maximum, not the maximum itself: a class
    whose optimum only a few restarts reach can report less at another seed.
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

# Entries of the largest see-saw array, the Bell operator's K: rows x
# register x prod_i m_i d_i.  `_best_of_restarts` runs the (state, restart) rows
# in batches that stay under it; a row whose own K is over it runs alone, over
# budget.
SEESAW_BUDGET = 1 << 20
# Entries of one restart's K (register^2 x prod_i m_i).  Over it, the see-saw
# exits with ResourceLimitError before it allocates anything.
SEESAW_REGISTER_LIMIT = 1 << 24


def _objective(psi_t, bases, coeffs) -> np.ndarray:
    """Bell value per restart; psi_t is (R or 1, d_1..d_n), bases[i] is (R, m_i, d_i, d_i)."""
    n = len(bases)
    axes = [0, *range(2, 2 * n + 1, 2), *range(1, 2 * n, 2)]
    # The amplitudes are freed as soon as their moduli are taken.
    probs = np.abs(bell.amplitudes(psi_t, bases).transpose(axes)) ** 2
    return np.sum(coeffs * probs, axis=tuple(range(1, 2 * n + 1)))


def _contractions(psi_t, bases, party) -> np.ndarray:
    """psi contracted with the other parties' bases, for every setting tuple of theirs.

    Entry [R, x, r, p] is restart R's amplitude of outcome tuple r of the
    other parties in setting tuple x, with the active party's index p left
    open; x and r run row-major over the other parties in order.  The stack
    does not involve `party`'s own bases, so one serves all its settings.
    """
    others = [j for j in range(len(bases)) if j != party]
    # With the active party's index last, the kernel keeps it open in front of the others' pairs.
    t = psi_t.transpose(0, *(1 + j for j in others), 1 + party)
    amp = bell.amplitudes(t, [bases[j] for j in others])
    axes = range(2, amp.ndim, 2)
    amp = amp.transpose(0, *axes, *(ax + 1 for ax in axes), 1)
    return amp.reshape(len(amp), math.prod(len(bases[j][0]) for j in others), -1, t.shape[-1])


def _coefficient_block(coeffs, party) -> np.ndarray:
    """The party's coefficients w[(s, a), (x, r)]: the others' settings x, then their outcomes r.

    Complex, so that `_environments` multiplies with the complex matmul of
    every other see-saw contraction: a real one pulls further BLAS code
    into memory.
    """
    n = coeffs.ndim // 2
    others = [j for j in range(n) if j != party]
    w = coeffs.transpose(n + party, party, *(n + j for j in others), *others)
    return w.reshape(coeffs.shape[n + party] * coeffs.shape[party], -1).astype(complex)


def _environments(c, w) -> np.ndarray:
    """Outcome operators B[R, s, a] of every setting s of the active party, (R, m, d, d, d).

    `c` is the party's `_contractions` stack and `w` its `_coefficient_block`.
    The objective is sum_s sum_a <v_sa|B[s, a]|v_sa> over the party's bases
    {v_s} plus terms that do not involve them, and no B[s] involves any of
    them, so the settings separate: all of them take their step at once, and
    each changes the objective by the change in its own sum.  `_restarts`
    values the steps that way and checks their sum against the Born rule.
    """
    rows, nx, nr, d = c.shape
    c = c.reshape(rows, nx * nr, d)
    # One matmul per row over the flattened (x, r) axis: no array is transposed,
    # and the outer products are formed in place, with no conjugated copy of c.
    outer = np.conjugate(np.broadcast_to(c[..., None, :], (*c.shape, d)))
    outer *= c[..., :, None]
    b = w @ outer.reshape(rows, nx * nr, d * d)
    return b.reshape(rows, -1, d, d, d)


def _basis_update(bh: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One monotone alignment step per basis, bh (..., d, d, d), basis v (..., d, d).

    For d = 2 the step is exact: the value is tr B_1 + <v_0|B_0 - B_1|v_0>,
    maximized by the eigenbasis of B_0 - B_1 with the top vector first.
    Otherwise it shifts the outcome operators positive semidefinite,
    maximizes the linearized cross term over unitaries via the SVD, then
    searches the d cyclic relabelings t, scored by sum_a G[a, (a + t) mod d]
    with G[a, c] = <v_c|B_a|v_c>; ties go to the smallest t.
    """
    d = v.shape[-1]
    if d == 2:
        return np.linalg.eigh(bh[..., 0, :, :] - bh[..., 1, :, :])[1][..., ::-1]
    lam = np.linalg.eigvalsh(bh).min(axis=(-2, -1))
    w = np.einsum("...apq,...qa->...pa", bh, v) - lam[..., None, None] * v
    p, _, qh = np.linalg.svd(w)
    vnew = p @ qh
    g = np.einsum("...pc,...apq,...qc->...ac", vnew.conj(), bh, vnew).real
    a = np.arange(d)
    cols = (a[None, :] + a[:, None]) % d
    best = np.argmax(g[..., a, cols].sum(axis=-1), axis=-1)
    return np.take_along_axis(vnew, cols[best][..., None, :], axis=-1)


def _reflect(v: np.ndarray, phi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Householder reflections of the bases v (..., d, d) taking column k to phi, up to a phase.

    One unit vector phi (d,) serves every basis.  Each column c goes to
    -e^(i arg <phi|c>) phi, so the reflection vector u = c + e^(i arg <phi|c>) phi
    has |u|^2 = 2 + 2 |<phi|c>| >= 2 and no cancellation.  The other columns
    stay orthonormal to it.
    """
    c = np.take_along_axis(v, k[..., None, None], axis=-1)[..., 0]
    u = c + np.exp(1j * np.angle(np.einsum("...p,...p->...", c, phi.conj())))[..., None] * phi
    scale = 2.0 / np.einsum("...p,...p->...", u.conj(), u).real
    uv = np.einsum("...p,...pa->...a", u.conj(), v)
    return v - (scale[..., None] * u)[..., :, None] * uv[..., None, :]


def _unit(coeffs: np.ndarray) -> float:
    """Scale of the see-saw's tolerances: m / min(max(m, 1), 2) for m = max |I|, 1 for I = 0.

    It is 1 for 1 <= m <= 2, as on every catalog entry, and follows c I at any other scale.
    """
    m = float(np.max(np.abs(coeffs)))
    return m / min(max(m, 1.0), 2.0) if m > 0.0 else 1.0


def _first_best(values: np.ndarray, unit: float) -> int:
    """Index of the first value within 1e-12 `unit`s of the largest; rounding alone ranks none."""
    return int(np.argmax(values >= values.max() - 1e-12 * unit))


def _ascend(trace: list, val, step: str, unit: float) -> None:
    """Append see-saw values, one per running restart, after checking that `step` lowered none."""
    last = trace[-1]
    require((val >= last - 1e-9 * (unit + np.abs(last))).all(), f"see-saw {step} decreased")
    trace.append(val)


def _require_on_trace(last, val, unit: float) -> None:
    """Check the environment-valued trace against an independent contraction, row by row."""
    require(np.all(np.abs(val - last) <= 1e-8 * unit), "see-saw trace drifted from the objective")


def _active_value(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_a Re <v_a|B[a]|v_a> per basis v (..., d, d): its share of the objective."""
    return np.einsum("...pa,...apq,...qa->...", v.conj(), b, v).real


def _random_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    """One random start basis, the one-row case of `algebra.random_bases`."""
    return algebra.random_bases([rng], d, 1)[0, 0]


def _bell_operator(bases, coeffs) -> np.ndarray:
    """sum_(x,a) w[a, x] |b_xa><b_xa| per restart; K[R, Q, xa] = prod_i conj(b_i[x_i][q_i, a_i])."""
    n = len(bases)
    k = np.ones((len(bases[0]), 1, 1))
    for b in bases:
        rows, m, d, _ = b.shape
        g = np.conj(b).transpose(0, 2, 1, 3).reshape(rows, 1, d, 1, m * d)
        k = (k[:, :, None, :, None] * g).reshape(rows, k.shape[1] * d, -1)
    w = coeffs.transpose([ax for i in range(n) for ax in (n + i, i)]).reshape(-1)
    return (k.conj() * w) @ k.swapaxes(-1, -2)


def _restarts(coeffs, outcomes, settings, psi, seeds, starts):
    """One see-saw per seed, each restart a row of one batch.

    `psi` is None for a free state, else the fixed states (R, dim), one per
    row.  A restart draws its start from its own seed: a free state first,
    then the bases party by party.  Each iteration sweeps the rows still
    running, then takes the state step if the state is free; a row stops once
    a sweep gains less than `STOP_TOL` `_unit`s, or after `MAX_SWEEPS`.

    starts[r] is None, or one (factor, plan) pair per party when row r's
    state is a product: its drawn bases are then reflected to put party i's
    factor in column plan[x] of setting x, the best deterministic strategy.

    Each sweep's trace is kept as the list of rows it ran and their (rows,
    steps) values, led by the start values.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    unit = _unit(coeffs)
    free_state = psi is None
    if free_state:
        dim = math.prod(outcomes)
        psi = np.stack([rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for rng in rngs])
        psi /= np.array([[np.linalg.norm(p)] for p in psi])
    psi_t = psi.reshape(-1, *outcomes)
    bases = [algebra.random_bases(rngs, d, m) for d, m in zip(outcomes, settings)]
    for r, start in enumerate(starts):
        for b, (phi, outs) in zip(bases, start or ()):
            b[r] = _reflect(b[r], phi, outs)
    value = _objective(psi_t, bases, coeffs)
    sweeps = [(list(range(len(rngs))), value[:, None].copy())]
    blocks = [_coefficient_block(coeffs, i) for i in range(len(bases))]
    iters = np.zeros(len(rngs), dtype=int)
    converged = np.zeros(len(rngs), dtype=bool)
    for it in range(1, MAX_SWEEPS + 1):
        rows = np.flatnonzero(~converged)
        sub = [b[rows] for b in bases]
        sub_t = psi_t[rows]
        trace = [value[rows]]
        for i, w in enumerate(blocks):
            env = _environments(_contractions(sub_t, sub, i), w)
            env = 0.5 * (env + np.conj(env.swapaxes(-1, -2)))
            old = _active_value(env, sub[i])
            sub[i] = _basis_update(env, sub[i])
            # One trace entry per setting, as if the settings stepped in turn.
            for gain in (_active_value(env, sub[i]) - old).T:
                _ascend(trace, trace[-1] + gain, "step", unit)
        if free_state:
            op = _bell_operator(sub, coeffs)
            vec = sub_t.reshape(len(rows), -1)
            # The state step re-anchors the trace, so check the sweep's first.
            _require_on_trace(trace[-1], np.einsum("Rp,Rpq,Rq->R", vec.conj(), op, vec).real, unit)
            psi_t[rows] = sub_t = algebra.top_eigvec(op).reshape(sub_t.shape)
            _ascend(trace, _objective(sub_t, sub, coeffs), "state step", unit)
        for b, new in zip(bases, sub):
            b[rows] = new
        sweeps.append((rows.tolist(), np.stack(trace[1:], axis=1)))
        value[rows] = trace[-1]
        iters[rows] = it
        converged[rows] = trace[-1] - trace[0] < STOP_TOL * unit
        if converged.all():
            break
    if not free_state:
        final = _objective(psi_t, bases, coeffs)
        _require_on_trace(value, final, unit)
        value = final
    # With a free state the last state step valued every row by `_objective`.
    return value, bases, sweeps, iters, converged, psi_t


def _rows(ineq, jobs, restarts):
    """(state, start, seed) of every restart of every job, made as they are read.

    Product detection runs once per state, and `bell._local_optimum` at most
    once.  The start of every restart of a product state pairs each party's
    factor (`states._product_factors`) with its outcomes in that plan, the
    best deterministic strategy, where the state is already at its maximum;
    every other start is None, and so is a product state's past
    `bell.DEFAULT_STRATEGY_BUDGET`, where its restarts start at random.
    """
    plan = None
    for psi, root in jobs:
        factors = None if psi is None else states._product_factors(psi.reshape(1, *ineq.outcomes))
        if factors and plan is None:
            try:
                plan = bell._local_optimum(ineq)[1]
            except ResourceLimitError:
                plan = []
        start = list(zip(factors, plan)) if factors and plan else None
        for seed in root.spawn(restarts):
            yield psi, start, seed


def _best_of_restarts(ineq, jobs, cfg, state_label) -> Iterator[OptimizationReport]:
    """Run `cfg.restarts` see-saws per job; re-check and report each job's best, in job order.

    A job is a fixed state (or None for a free one) and the SeedSequence its
    restarts are spawned from; jobs are all free or all fixed.  The (job,
    restart) rows run in order, in batches of at most `SEESAW_BUDGET`
    entries of K that span jobs, each built when it runs.  A job's report is
    yielded once its last restart is done.  The best is the first restart
    whose final value is within 1e-12 `_unit`s of the highest.
    """
    entries = math.prod(ineq.outcomes) ** 2 * math.prod(ineq.settings)
    if entries > SEESAW_REGISTER_LIMIT:
        raise ResourceLimitError(
            f"see-saw register of {entries} entries per restart exceeds the limit "
            f"{SEESAW_REGISTER_LIMIT}"
        )
    size = max(1, SEESAW_BUDGET // entries)
    stream = _rows(ineq, jobs, cfg.restarts)
    unit = _unit(ineq.coeffs)
    done = []  # (run, row, state) of the job's restarts so far
    while batch := list(itertools.islice(stream, size)):
        psis, starts, seeds = zip(*batch)
        psi = None if psis[0] is None else np.stack(psis)
        run = _restarts(ineq.coeffs, ineq.outcomes, ineq.settings, psi, seeds, starts)
        for r, state in enumerate(psis):
            done.append((run, r, state))
            if len(done) < cfg.restarts:
                continue
            vals, iters, converged = (
                np.array([out[i][row] for out, row, _ in done]) for i in (0, 3, 4)
            )
            best = _first_best(vals, unit)
            (_, bases, sweeps, _, _, psi_t), k, state = done[best]
            state = psi_t[k].reshape(-1) if state is None else state
            measurements = tuple(tuple(b[k]) for b in bases)
            reval = bell.evaluate(ineq, bell.behavior_from_state(state, measurements))
            require(
                abs(reval - vals[best]) <= 1e-8 * unit,
                "re-evaluation drifted from the see-saw value",
            )
            # Row k ran the first iters[best] sweeps, each after its start value.
            trace = [x for ran, t in sweeps[: iters[best] + 1] for x in t[ran.index(k)].tolist()]
            yield OptimizationReport(
                value=reval,
                measurements=measurements,
                state=state,
                state_label=state_label,
                best_class=None,
                restart_values=tuple(vals.tolist()),
                restart_iterations=tuple(iters.tolist()),
                restart_converged=tuple(converged.tolist()),
                iterations=int(iters[best]),
                converged=bool(converged[best]),
                trace=tuple(trace),
            )
            done = []


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
    return next(_best_of_restarts(ineq, [(psi, root)], cfg, "fixed state"))


def stabilizer_value(
    ineq: bell.BellInequality, cfg: OptimizerConfig = OptimizerConfig()
) -> OptimizationReport:
    """Maximum Bell value over stabilizer states of the inequality's register.

    d-outcome projective measurements act on C^d, so the register is pinned
    party by party to the outcome counts.  Optimizes the measurements on one
    graph-state representative per local class (direct sums of per-cluster
    orbit representatives) and returns the best (the first of classes whose
    values agree within 1e-12), together with the achieving class and the
    per-class values.
    """
    family = graphs.cluster_representatives(ineq.outcomes)
    classes = list(family.assignments())
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(classes))
    reports = [
        optimize_measurements(ineq, states.assemble_cluster_state(family, a), cfg, _seed_seq=seed)
        for a, seed in zip(classes, seeds)
    ]
    class_values = tuple(rep.value for rep in reports)
    best = _first_best(np.array(class_values), _unit(ineq.coeffs))
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
    jobs = [(None, np.random.SeedSequence(cfg.seed))]
    return next(_best_of_restarts(ineq, jobs, cfg, "optimized state"))


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
    root = np.random.SeedSequence(cfg.seed)
    jobs = ((states.w_state(t, p), root.spawn(1)[0]) for t in thetas for p in phis)
    values = [rep.value for rep in _best_of_restarts(ineq, jobs, cfg, "fixed state")]
    return np.reshape(values, (len(thetas), len(phis)))
