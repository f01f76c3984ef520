import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicwit import optimize
from magicwit.algebra import random_bases
from magicwit.bell import (
    BellInequality,
    behavior_from_state,
    catalog_cglmp,
    catalog_svetlichny_r2,
    catalog_tilted_chsh,
    evaluate,
    local_bound,
)
from magicwit.errors import InvariantError, ResourceLimitError
from magicwit.graphs import AdjacencyMatrix, cluster_representatives
from magicwit.optimize import (
    OptimizerConfig,
    gap_scan,
    optimize_measurements,
    quantum_value,
    stabilizer_value,
    w_heatmap,
)
from magicwit.states import (
    GraphState,
    _product_factors,
    assemble_cluster_state,
    build_graph_state,
    w_state,
)

CFG = OptimizerConfig(restarts=16, seed=7)


def by_value(assignment):
    """One class's adjacency matrices by value, for comparing classes of separate catalogs."""
    return [(a.d, a.entries.tolist()) for a in assignment]


def edge_state():
    return build_graph_state(AdjacencyMatrix(2, [[0, 1], [1, 0]]))


def test_chsh_on_epr_class():
    rep = optimize_measurements(catalog_tilted_chsh(0.0), edge_state(), CFG)
    assert rep.value == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_chsh_matches_bloch_grid_oracle():
    # Independent oracle: party 1 sweeps two polar angles on a 721x721 grid
    # in the x-z plane; party 2's best response is closed form.  The state
    # is the edge-class graph state, whose correlation matrix block on
    # (x, z) is [[0, 1], [1, 0]].
    gs = edge_state().amplitudes
    paulis = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    r = np.zeros((2, 2))
    for i, ci in enumerate(("x", "z")):
        for j, cj in enumerate(("x", "z")):
            op = np.kron(paulis[ci], paulis[cj])
            r[i, j] = np.real(np.vdot(gs, op @ gs))
    t = np.linspace(0.0, 2 * np.pi, 721)
    t0, t1 = np.meshgrid(t, t, indexing="ij")
    u0 = np.stack([np.sin(t0), np.cos(t0)])
    u1 = np.stack([np.sin(t1), np.cos(t1)])
    w_plus = np.einsum("ci,ixy->cxy", r.T, u0 + u1)
    w_minus = np.einsum("ci,ixy->cxy", r.T, u0 - u1)
    grid_max = np.max(
        np.sqrt((w_plus**2).sum(axis=0)) + np.sqrt((w_minus**2).sum(axis=0))
    )
    rep = optimize_measurements(catalog_tilted_chsh(0.0), edge_state(), CFG)
    assert abs(rep.value - grid_max) <= 1e-3


@pytest.mark.parametrize("alpha", [0.3, 1.2])
def test_tilted_on_product_state_reaches_local_bound(alpha):
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    rep = optimize_measurements(catalog_tilted_chsh(alpha), psi, CFG)
    assert rep.value == pytest.approx(2.0 + alpha, abs=1e-6)


def test_tilted_on_partially_entangled_state():
    theta = np.pi / 8
    alpha = 2.0 / np.sqrt(2.0 * np.tan(2 * theta) ** 2 + 1.0)
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.cos(theta)
    psi[3] = np.sin(theta)
    rep = optimize_measurements(catalog_tilted_chsh(alpha), psi, CFG)
    assert rep.value == pytest.approx(np.sqrt(8.0 + 2.0 * alpha**2), abs=1e-5)


def test_report_value_matches_reevaluation():
    rep = optimize_measurements(catalog_tilted_chsh(0.5), edge_state(), CFG)
    p = behavior_from_state(rep.state, rep.measurements)
    assert rep.value == pytest.approx(evaluate(catalog_tilted_chsh(0.5), p), abs=1e-8)


def test_classes_that_tie_to_rounding_report_the_first(monkeypatch):
    # Four of svetlichny-r2's five classes reach the local bound 6.  Rounding
    # that favours later classes by up to 5e-14 (as reordered sums can) must
    # not change the report: it is the first of them.
    ineq = catalog_svetlichny_r2()
    classes = list(cluster_representatives(ineq.outcomes).assignments())
    real, seen = optimize.optimize_measurements, []

    def favour_later(*args, **kwargs):
        rep = real(*args, **kwargs)
        seen.append(rep)
        return replace(rep, value=rep.value + 1e-14 * len(seen))

    monkeypatch.setattr(optimize, "optimize_measurements", favour_later)
    rep = stabilizer_value(ineq, OptimizerConfig(restarts=4, seed=3))
    values = rep.class_values
    top = [k for k, v in enumerate(values) if v >= max(values) - 1e-12]
    assert len(top) == 4 and int(np.argmax(values)) == top[-1]
    assert by_value(rep.best_class) == by_value(classes[top[0]]) and rep.value == values[top[0]]
    assert rep.trace == seen[top[0]].trace

    # Restarts tie by the same rule.  At these seeds every restart of tilted
    # CHSH's winning class ends within 3e-15 of 2 sqrt 2, the exact argmax
    # falls on restart 3, 1 and 2, and the report is restart 0's: the one
    # run alone from the class's first restart seed.
    monkeypatch.undo()
    ineq = catalog_tilted_chsh(0.5)
    family = cluster_representatives(ineq.outcomes)
    classes = list(family.assignments())
    for seed in (3, 5, 11):
        rep = stabilizer_value(ineq, OptimizerConfig(restarts=8, seed=seed))
        assert max(rep.restart_values) - min(rep.restart_values) <= 3e-15
        assert int(np.argmax(rep.restart_values)) > 0
        k = [by_value(c) for c in classes].index(by_value(rep.best_class))
        first = optimize_measurements(
            ineq,
            assemble_cluster_state(family, classes[k]),
            OptimizerConfig(restarts=1, seed=seed),
            _seed_seq=np.random.SeedSequence(seed).spawn(len(classes))[k],
        )
        assert rep.trace == first.trace
        assert rep.iterations == rep.restart_iterations[0] == first.iterations
        for ours, theirs in zip(rep.measurements, first.measurements):
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


def test_measurements_are_qubit_observables():
    rep = optimize_measurements(catalog_tilted_chsh(0.0), edge_state(), CFG)
    for per_party in rep.measurements:
        for basis in per_party:
            # A +-1 observable with a unit Bloch vector: traceless, squares to 1.
            obs = basis @ np.diag([1.0, -1.0]) @ basis.conj().T
            assert abs(np.trace(obs)) <= 1e-10
            assert np.max(np.abs(obs @ obs - np.eye(2))) <= 1e-10


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.83, 1.5])
def test_stabilizer_value_tilted(alpha):
    rep = stabilizer_value(catalog_tilted_chsh(alpha), CFG)
    assert rep.value == pytest.approx(max(2 * np.sqrt(2), 2 + alpha), abs=1e-5)
    assert len(rep.class_values) == 2
    assert rep.best_class is not None


def test_stabilizer_value_svetlichny():
    rep = stabilizer_value(catalog_svetlichny_r2(), CFG)
    assert rep.value == pytest.approx(6.0, abs=1e-5)
    assert len(rep.class_values) == 5


def test_quantum_value_chsh():
    rep = quantum_value(catalog_tilted_chsh(0.0), CFG)
    assert rep.value == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_quantum_value_tilted_one():
    rep = quantum_value(catalog_tilted_chsh(1.0), CFG)
    assert rep.value == pytest.approx(np.sqrt(10.0), abs=1e-5)


def test_quantum_value_cglmp3():
    # The optimum of Acin, Durt, Gisin & Latorre, PRA 65, 052325 (2002).
    rep = quantum_value(catalog_cglmp(3), CFG)
    assert abs(rep.value - (1.0 + np.sqrt(11.0 / 3.0))) <= optimize.STOP_TOL


def test_quantum_value_cglmp5_restarts_all_converge():
    rep = quantum_value(catalog_cglmp(5), OptimizerConfig(restarts=64, seed=5))
    assert all(rep.restart_converged)


def test_seesaw_traces_are_monotone():
    for rep in (
        optimize_measurements(catalog_tilted_chsh(0.7), edge_state(), CFG),
        quantum_value(catalog_cglmp(3), OptimizerConfig(restarts=8, seed=3)),
    ):
        trace = np.asarray(rep.trace)
        assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[:-1])))


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_local_unitary_invariance():
    ineq = catalog_tilted_chsh(0.0)
    base = optimize_measurements(ineq, edge_state(), CFG).value
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = np.kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2))
        rep = optimize_measurements(ineq, u @ edge_state().amplitudes, CFG)
        assert rep.value == pytest.approx(base, abs=1e-6)


def _amplitudes_by_setting_loop(psi_t, bases):
    """Yield (xs, <a|psi>) for every setting tuple xs, contracting one party at a time."""
    for xs in itertools.product(*(range(len(per)) for per in bases)):
        amp = psi_t
        for i, x in enumerate(xs):
            amp = np.moveaxis(np.tensordot(bases[i][x].conj().T, amp, axes=([1], [i])), 0, i)
        yield xs, amp


def _objective_by_setting_loop(psi_t, bases, coeffs):
    n = psi_t.ndim
    return sum(
        float(np.sum(coeffs[(slice(None),) * n + xs] * np.abs(amp) ** 2))
        for xs, amp in _amplitudes_by_setting_loop(psi_t, bases)
    )


def _contractions_by_setting_loop(psi_t, bases, party):
    """One row per setting tuple of the others; the active party measured in the identity."""
    d = psi_t.shape[party]
    opened = [[np.eye(d)] if j == party else per for j, per in enumerate(bases)]
    rows = [
        np.moveaxis(amp, party, -1).reshape(-1, d)
        for _, amp in _amplitudes_by_setting_loop(psi_t, opened)
    ]
    return np.stack(rows)


def _bell_operator_by_kron(bases, coeffs):
    """sum_xs K diag(w_xs) K^dagger with K the Kronecker product of the bases of xs."""
    n = len(bases)
    op = 0.0
    for xs in itertools.product(*(range(len(per)) for per in bases)):
        k = functools.reduce(np.kron, [bases[i][x] for i, x in enumerate(xs)])
        op = op + (k * coeffs[(slice(None),) * n + xs].reshape(-1)) @ k.conj().T
    return op


ROWS = 3  # restarts per batch in the tests of the private see-saw steps


def _random_rows(rng, outcomes, settings):
    """ROWS restarts' bases, as lists per restart and as the batched (R, m, d, d) stacks."""
    rows = [
        [[_haar_unitary(rng, d) for _ in range(m)] for d, m in zip(outcomes, settings)]
        for _ in range(ROWS)
    ]
    return rows, [np.stack([np.stack(r[i]) for r in rows]) for i in range(len(outcomes))]


def _random_states(rng, outcomes):
    dim = int(np.prod(outcomes))
    psi = rng.standard_normal((ROWS, dim)) + 1j * rng.standard_normal((ROWS, dim))
    return (psi / np.linalg.norm(psi, axis=1, keepdims=True)).reshape(ROWS, *outcomes)


def _random_inequality(rng, outcomes):
    settings = (2, 3, 2)[: len(outcomes)]
    return BellInequality(outcomes, settings, rng.uniform(-1.0, 1.0, outcomes + settings))


@pytest.mark.parametrize("outcomes", [(3, 3), (2, 3), (2, 2, 2), (2, 2)])
def test_bell_operator_matches_born_rule(outcomes):
    # conj(K) diag(w) K^T is the sum over setting tuples of Kronecker
    # products, and sum w |K^T psi|^2 is the Bell value of the Born-rule
    # behavior; on the mixed (2, 3) register this also pins the order of the
    # Kronecker factors.
    rng = np.random.default_rng(sum(outcomes))
    ineq = _random_inequality(rng, outcomes)
    for _ in range(2):
        rows, stacks = _random_rows(rng, outcomes, ineq.settings)
        ks, w = optimize._bell_operator(stacks, ineq.coeffs)
        assert ks.shape == (ROWS, np.prod(outcomes), w.size)
        for k, bases, psi in zip(ks, rows, _random_states(rng, outcomes)):
            psi = psi.reshape(-1)
            op = np.conj(k) @ (w[:, None] * k.T)
            assert np.max(np.abs(op - _bell_operator_by_kron(bases, ineq.coeffs))) <= 1e-12
            want = evaluate(ineq, behavior_from_state(psi, bases))
            assert abs(np.sum(w * np.abs(k.T @ psi) ** 2) - want) <= 1e-12


@pytest.mark.parametrize("outcomes", [(2, 2), (3, 3), (2, 3), (2, 2, 2)])
def test_state_step_is_rayleigh_ritz_on_the_krylov_block(outcomes):
    # Against the dense operator: the step's state is the top Ritz vector of
    # {psi, B psi, B^2 psi}, so it never lowers <psi|B|psi> and never passes
    # the top eigenvalue; a state already at the top stays there, although
    # its block then has rank 1.
    rng = np.random.default_rng(10 + sum(outcomes))
    ineq = _random_inequality(rng, outcomes)
    rows, stacks = _random_rows(rng, outcomes, ineq.settings)
    ops = [_bell_operator_by_kron(bases, ineq.coeffs) for bases in rows]
    tops = np.stack([np.linalg.eigh(op)[1][:, -1] for op in ops])
    k, w = optimize._bell_operator(stacks, ineq.coeffs)
    for psis in (_random_states(rng, outcomes).reshape(ROWS, -1), tops):
        new, before = optimize._state_step(k, w, psis[:, None])
        assert new.shape == (*psis.shape, 1)
        for op, psi, vec, old in zip(ops, psis, new[..., 0], before):
            value = np.vdot(vec, op @ vec).real
            assert abs(old - np.vdot(psi, op @ psi).real) <= 1e-12
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            block = [np.linalg.matrix_power(op, j) @ psi for j in range(optimize.KRYLOV_BLOCK)]
            q = np.linalg.qr(np.column_stack(block))[0]
            assert abs(value - np.linalg.eigvalsh(q.conj().T @ op @ q)[-1]) <= 1e-10
            assert old - 1e-12 <= value <= np.linalg.eigvalsh(op)[-1] + 1e-12


def _score(b, u):
    """sum_a Re <u_a|b[a]|u_a>, one column at a time."""
    return sum(np.real(u[:, a].conj() @ b[a] @ u[:, a]) for a in range(u.shape[1]))


@pytest.mark.parametrize("outcomes", [(2, 2), (3, 3), (2, 3), (2, 2, 2)])
def test_environment_gives_objective_change(outcomes):
    # The objective is affine in each basis: replacing bases[i][s] by V moves
    # it by the change in sum_a <v_a|B_a|v_a> over that setting's environment.
    # The objective and the contraction stacks also match a loop over setting tuples.
    # Every step runs on a batch of restarts and is checked row by row.
    rng = np.random.default_rng(10 * len(outcomes) + sum(outcomes))
    settings = (2, 3, 2)[: len(outcomes)]
    coeffs = rng.uniform(-1.0, 1.0, outcomes + settings)
    rows, stacks = _random_rows(rng, outcomes, settings)
    psi_t = _random_states(rng, outcomes)
    before = optimize._objective(psi_t, stacks, coeffs)
    assert before.shape == (ROWS,)
    for r in range(ROWS):
        assert abs(before[r] - _objective_by_setting_loop(psi_t[r], rows[r], coeffs)) <= 1e-12
    for i, d in enumerate(outcomes):
        c = optimize._contractions(psi_t, stacks, i)
        b = optimize._environments(c, optimize._coefficient_block(coeffs, i))
        assert b.shape == (ROWS, settings[i], d, d, d)
        for s in range(settings[i]):
            v = np.stack([_haar_unitary(rng, d) for _ in range(ROWS)])
            moved = [x.copy() for x in stacks]
            moved[i][:, s] = v
            change = optimize._objective(psi_t, moved, coeffs) - before
            for r in range(ROWS):
                gain = _score(b[r, s], v[r]) - _score(b[r, s], rows[r][i][s])
                assert abs(change[r] - gain) <= 1e-12
        for r in range(ROWS):
            want = _contractions_by_setting_loop(psi_t[r], rows[r], i)
            assert c[r].shape == want.shape and np.max(np.abs(c[r] - want)) <= 1e-12


@pytest.mark.parametrize("outcomes", [(2, 2), (3, 3), (2, 3), (2, 2, 2)])
def test_settings_of_a_party_separate(outcomes):
    # Moving one of a party's bases leaves every environment of that party
    # bitwise unchanged, so all its settings can step at once: moving all of
    # them changes the objective by the sum of their own changes.
    rng = np.random.default_rng(20 * len(outcomes) + sum(outcomes))
    settings = (2, 3, 2)[: len(outcomes)]
    coeffs = rng.uniform(-1.0, 1.0, outcomes + settings)
    _, stacks = _random_rows(rng, outcomes, settings)
    psi_t = _random_states(rng, outcomes)
    before = optimize._objective(psi_t, stacks, coeffs)
    for i, d in enumerate(outcomes):
        w = optimize._coefficient_block(coeffs, i)
        b = optimize._environments(optimize._contractions(psi_t, stacks, i), w)
        moved = [x.copy() for x in stacks]
        for s in range(settings[i]):
            moved[i][:, s] = np.stack([_haar_unitary(rng, d) for _ in range(ROWS)])
            c = optimize._contractions(psi_t, moved, i)
            assert np.array_equal(optimize._environments(c, w), b)
        gains = optimize._active_value(b, moved[i]) - optimize._active_value(b, stacks[i])
        change = optimize._objective(psi_t, moved, coeffs) - before
        assert np.max(np.abs(change - gains.sum(axis=1))) <= 1e-12


def _skew_environments(monkeypatch):
    # A small Hermitian offset on outcome 0 of every setting: steps are valued off the objective.
    real = optimize._environments

    def skewed(c, w):
        b = real(c, w)
        b[:, :, 0, -1, -1] += 1e-3
        return b

    monkeypatch.setattr(optimize, "_environments", skewed)


def test_environment_drift_raises_invariant_error(monkeypatch):
    _skew_environments(monkeypatch)
    cfg = OptimizerConfig(restarts=2, seed=7)
    with pytest.raises(InvariantError, match="see-saw trace drifted from the objective"):
        optimize_measurements(catalog_tilted_chsh(0.5), edge_state(), cfg)
    with pytest.raises(InvariantError, match="see-saw trace drifted from the objective"):
        quantum_value(catalog_tilted_chsh(0.5), cfg)
    with pytest.raises(InvariantError, match="see-saw trace drifted from the objective"):
        quantum_value(catalog_cglmp(3), cfg)


@pytest.mark.parametrize("free_state", [False, True])
@pytest.mark.parametrize(
    "ineq", [catalog_tilted_chsh(0.5), catalog_cglmp(3), catalog_svetlichny_r2()], ids=lambda q: q.name
)
def test_environment_calls_per_sweep(monkeypatch, ineq, free_state):
    # One environment build per party per sweep, however many settings it has
    # and however many rows still run.
    calls = []
    real = optimize._environments
    monkeypatch.setattr(optimize, "_environments", lambda *a: calls.append(1) or real(*a))
    dim = int(np.prod(ineq.outcomes))
    psi = None if free_state else np.ones((ROWS, dim), dtype=complex) / np.sqrt(dim)
    seeds = np.random.SeedSequence(3).spawn(ROWS)
    args = ineq.coeffs, ineq.outcomes, ineq.settings, psi, seeds, [None] * ROWS
    iters = optimize._restarts(*args)[3]
    assert iters.max() > 1
    assert len(calls) == ineq.parties * iters.max()


@pytest.mark.parametrize("free_state", [False, True])
@pytest.mark.parametrize(
    "ineq", [catalog_tilted_chsh(0.5), catalog_cglmp(3), catalog_svetlichny_r2()], ids=lambda q: q.name
)
def test_objective_calls_per_restart(monkeypatch, ineq, free_state):
    # One full Born-rule contraction to start, then one per state step with a
    # free state or one to close with a fixed state, however many parties and
    # settings a sweep visits.
    calls = []
    real = optimize._objective
    monkeypatch.setattr(optimize, "_objective", lambda *a: calls.append(1) or real(*a))
    dim = int(np.prod(ineq.outcomes))
    psi = None if free_state else np.ones((1, dim), dtype=complex) / np.sqrt(dim)
    seeds = [np.random.SeedSequence(3)]
    args = ineq.coeffs, ineq.outcomes, ineq.settings, psi, seeds, [None]
    iters = optimize._restarts(*args)[3][0]
    assert iters > 1
    assert len(calls) == (1 + iters if free_state else 2)


@settings(max_examples=50, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
def test_basis_update_is_unitary_monotone_and_best_relabeled(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((ROWS, d, d, d)) + 1j * rng.standard_normal((ROWS, d, d, d))
    bhs = z + z.conj().swapaxes(-1, -2)
    vs = np.stack([_haar_unitary(rng, d) for _ in range(ROWS)])
    news = optimize._basis_update(bhs, vs)
    for bh, v, new in zip(bhs, vs, news):
        assert np.max(np.abs(new.conj().T @ new - np.eye(d))) <= 1e-10
        assert _score(bh, new) >= _score(bh, v) - 1e-9
        if d == 2:
            # The qubit step is exact: tr B_1 + the top eigenvalue of B_0 - B_1.
            best = np.trace(bh[1]).real + np.linalg.eigvalsh(bh[0] - bh[1])[-1]
            assert abs(_score(bh, new) - best) <= 1e-10
        # Reference: the looped search, the SVD basis under each cyclic relabeling.
        lam = min(np.linalg.eigvalsh(bh[a]).min() for a in range(d))
        w = np.column_stack([(bh[a] - lam * np.eye(d)) @ v[:, a] for a in range(d)])
        p, _, qh = np.linalg.svd(w)
        svd_basis = p @ qh
        for t in range(d):
            assert _score(bh, new) >= _score(bh, svd_basis[:, (np.arange(d) + t) % d]) - 1e-9


@pytest.mark.parametrize("d", [3, 5])
def test_basis_update_repeats_are_the_step_in_turn(monkeypatch, d):
    # The shift reads only the operators, so `repeats` steps find it once and
    # are, bit for bit, the one-step update applied that many times.
    rng = np.random.default_rng(d)
    z = rng.standard_normal((ROWS, d, d, d)) + 1j * rng.standard_normal((ROWS, d, d, d))
    bhs = z + z.conj().swapaxes(-1, -2)
    v = np.stack([_haar_unitary(rng, d) for _ in range(ROWS)])
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    got = optimize._basis_update(bhs, v, 4)
    assert len(calls) == 1
    for _ in range(4):
        new = optimize._basis_update(bhs, v)
        assert all(_score(b, n) >= _score(b, u) - 1e-9 for b, n, u in zip(bhs, new, v))
        v = new
    assert np.array_equal(got, v)


@pytest.mark.parametrize(
    "ineq", [catalog_cglmp(3), catalog_svetlichny_r2()], ids=lambda q: q.name
)
def test_shift_calls_per_sweep(monkeypatch, ineq):
    # With a free state the qudit basis step repeats on each party's
    # environments, and its eigvalsh shift runs once per environment; the
    # qubit step needs none.
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    seeds = np.random.SeedSequence(3).spawn(ROWS)
    args = ineq.coeffs, ineq.outcomes, ineq.settings, None, seeds, [None] * ROWS
    iters = optimize._restarts(*args)[3]
    assert optimize.BASIS_REPEATS > 1
    assert iters.max() > 1
    qudits = sum(d > 2 for d in ineq.outcomes)
    assert len(calls) == qudits * iters.max()


def _haar_vector(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _product_state(rng, dims):
    return functools.reduce(np.kron, [_haar_vector(rng, d) for d in dims])


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (5, 3), (3, 3, 3)])
def test_product_factors_of_random_product_states(dims):
    rng = np.random.default_rng(sum(dims))
    for _ in range(5):
        psi = _product_state(rng, dims)
        factors = _product_factors(psi.reshape(1, *dims))
        assert [len(f) for f in factors] == list(dims)
        # Unit factors that rebuild psi up to a global phase.
        assert all(abs(np.linalg.norm(f) - 1.0) <= 1e-12 for f in factors)
        assert abs(abs(np.vdot(functools.reduce(np.kron, factors), psi)) - 1.0) <= 1e-12


def test_product_factors_reject_entangled_states():
    ghz = np.zeros(27, dtype=complex)
    ghz[[0, 13, 26]] = 1 / np.sqrt(3)  # (|000> + |111> + |222>) / sqrt(3)
    maximally_entangled = np.eye(3).reshape(-1) / np.sqrt(3)
    product = _product_state(np.random.default_rng(4), (3, 3))
    nearly = np.sqrt(1 - 1e-6) * product + np.sqrt(1e-6) * maximally_entangled
    nearly /= np.linalg.norm(nearly)
    for psi, dims in ((ghz, (3, 3, 3)), (maximally_entangled, (3, 3)), (nearly, (3, 3))):
        assert _product_factors(psi.reshape(1, *dims)) is None


PRODUCT_SHAPES = [((2, 2), (3, 2)), ((3, 3), (2, 2)), ((2, 3), (2, 3)), ((2, 2, 2), (2, 2, 2))]


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(PRODUCT_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_one_restart_on_a_product_state_is_the_local_bound(shape, seed):
    # Every restart starts at the best deterministic strategy, the state's
    # maximum, and its first sweep gains nothing.
    outcomes, counts = shape
    rng = np.random.default_rng(seed)
    ineq = BellInequality(outcomes, counts, rng.uniform(-1.0, 1.0, outcomes + counts))
    psi = _product_state(rng, outcomes)
    rep = optimize_measurements(ineq, psi, OptimizerConfig(restarts=3, seed=seed))
    loc = local_bound(ineq)
    assert all(abs(v - loc) <= 1e-12 for v in rep.restart_values)
    assert rep.restart_iterations == (1,) * 3


@pytest.mark.parametrize("d", [3, 5, 7])
def test_cglmp_product_class_is_the_local_bound(d):
    ineq = catalog_cglmp(d)
    edgeless = build_graph_state(AdjacencyMatrix(d, np.zeros((2, 2), dtype=int)))
    for seed in range(10):
        rep = optimize_measurements(ineq, edgeless, OptimizerConfig(restarts=8, seed=seed))
        assert abs(rep.value - 2.0) <= 1e-12
        assert all(abs(v - 2.0) <= 1e-12 for v in rep.restart_values)
        assert rep.restart_iterations == (1,) * 8


def test_product_state_past_the_strategy_budget(monkeypatch):
    # Past the budget every restart starts at random; nothing raises.
    ineq = catalog_cglmp(3)
    loc = local_bound(ineq)
    monkeypatch.setattr("magicwit.bell.DEFAULT_STRATEGY_BUDGET", 80)  # cglmp(3) has 81
    rep = optimize_measurements(ineq, np.eye(9)[0], OptimizerConfig(restarts=4, seed=1))
    assert rep.value <= loc + 1e-12
    assert rep.restart_iterations[0] > 1


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _basis_from_bloch(u):
    """Eigenbasis of u . sigma for a unit Bloch vector u, the +1 eigenvector first."""
    return np.linalg.eigh(u[0] * PAULI[0] + u[1] * PAULI[1] + u[2] * PAULI[2])[1][:, ::-1]


def _bloch_step(bh):
    """Qubit step by Pauli traces: u = v/|v| with v_k = tr(sigma_k (B_0 - B_1)) / 2."""
    v = np.array([0.5 * np.trace(s @ (bh[0] - bh[1])).real for s in PAULI])
    return _basis_from_bloch(v / np.linalg.norm(v))


def _bloch_draw(rng):
    """Qubit start from a normalized Gaussian Bloch vector."""
    v = rng.standard_normal(3)
    return _basis_from_bloch(v / np.linalg.norm(v))


def _top_projector(basis):
    return np.outer(basis[:, 0], basis[:, 0].conj())


def test_qubit_step_matches_pauli_trace_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = rng.standard_normal((ROWS, 2, 2, 2)) + 1j * rng.standard_normal((ROWS, 2, 2, 2))
        bhs = z + z.conj().swapaxes(-1, -2)
        news = optimize._basis_update(bhs, np.stack([_haar_unitary(rng, 2) for _ in range(ROWS)]))
        for bh, new in zip(bhs, news):
            assert np.max(np.abs(_top_projector(new) - _top_projector(_bloch_step(bh)))) <= 1e-12


def test_qubit_draw_matches_bloch_oracle():
    # A batch draws its rows the way `_restarts` does, one generator per restart.
    for seed in range(0, 21, ROWS):
        rngs = [np.random.default_rng(s) for s in range(seed, seed + ROWS)]
        refs = [np.random.default_rng(s) for s in range(seed, seed + ROWS)]
        got = np.stack([optimize._random_basis(rng, 2) for rng in rngs])
        for g, rng, ref in zip(got, rngs, refs):
            want = _bloch_draw(ref)
            assert np.max(np.abs(_top_projector(g) - _top_projector(want))) <= 1e-12
            # Both consumed exactly three normals, so every later draw agrees too.
            assert rng.bit_generator.state == ref.bit_generator.state


def _single_draw(rng, d):
    """One start basis drawn on its own: eigh of u . sigma for a qubit, else a phase-fixed QR."""
    if d == 2:
        x, y, z = rng.standard_normal(3)
        return np.linalg.eigh(np.array([[z, x - 1j * y], [x + 1j * y, -z]]))[1][:, ::-1]
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


@pytest.mark.parametrize("d", [2, 3, 5])
def test_batched_draw_is_the_single_draw_in_turn(d):
    # Each generator's row holds, bitwise, the bases that one draw after
    # another gives, and leaves the generator where they leave it.
    m = 3
    rngs = [np.random.default_rng(s) for s in range(ROWS)]
    refs = [np.random.default_rng(s) for s in range(ROWS)]
    got = random_bases(rngs, d, m)
    assert got.shape == (ROWS, m, d, d)
    for row, rng, ref in zip(got, rngs, refs):
        assert np.array_equal(row, np.stack([_single_draw(ref, d) for _ in range(m)]))
        assert rng.bit_generator.state == ref.bit_generator.state
    rng, ref = np.random.default_rng(ROWS), np.random.default_rng(ROWS)
    assert np.array_equal(optimize._random_basis(rng, d), _single_draw(ref, d))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_seesaw_decrease_raises_invariant_error():
    with pytest.raises(InvariantError, match="see-saw state step decreased"):
        optimize._ascend([1.0], 0.5, "state step", 1.0)


@pytest.mark.parametrize(
    "ineq",
    [catalog_svetlichny_r2(), catalog_tilted_chsh(0.5), catalog_cglmp(3)],
    ids=lambda q: q.name,
)
def test_values_scale_with_the_inequality(ineq):
    # The see-saw's tolerances are in the inequality's units, so c I has
    # c times the values of I, and no self-check fires at any scale.
    cfg = OptimizerConfig(restarts=8, seed=0)
    base = [stabilizer_value(ineq, cfg).value, quantum_value(ineq, cfg).value]
    for c in (1e-9, 1e-6, 1e6, 1e8):
        scaled = BellInequality(ineq.outcomes, ineq.settings, c * ineq.coeffs)
        got = [stabilizer_value(scaled, cfg).value, quantum_value(scaled, cfg).value]
        assert got == pytest.approx([c * v for v in base], rel=1e-8), c


def test_unit_is_one_on_the_catalog():
    for ineq in (catalog_tilted_chsh(0.0), catalog_tilted_chsh(2.0), catalog_svetlichny_r2()):
        assert optimize._unit(ineq.coeffs) == 1.0
    for d in (2, 3, 5, 7, 11):
        assert optimize._unit(catalog_cglmp(d).coeffs) == 1.0
    assert optimize._unit(np.zeros((2, 2, 2, 2))) == 1.0
    assert optimize._unit(np.full((2, 2, 2, 2), -0.25)) == 0.25
    assert optimize._unit(np.full((2, 2, 2, 2), 8.0)) == 4.0


def test_bound_sandwich_tilted():
    ineq = catalog_tilted_chsh(0.9)
    loc = local_bound(ineq)
    stab = stabilizer_value(ineq, CFG).value
    quant = quantum_value(ineq, CFG).value
    assert loc <= stab + 1e-6
    assert stab <= quant + 1e-6


def _report_fields(rep):
    meas = [[basis.tobytes() for basis in per] for per in rep.measurements]
    telemetry = rep.restart_values, rep.restart_iterations, rep.restart_converged
    return rep.value, telemetry, rep.trace, rep.iterations, rep.state.tobytes(), meas


@pytest.mark.parametrize("ineq", [catalog_tilted_chsh(0.4), catalog_cglmp(3)], ids=lambda q: q.name)
def test_reports_do_not_depend_on_the_batch(monkeypatch, ineq):
    # Restarts run in batches of SEESAW_BUDGET entries of K; batches of 3 give
    # the same reports, bit for bit, as one batch of all 16.
    dim = int(np.prod(ineq.outcomes))
    psi = np.exp(1j * np.arange(dim)) / np.sqrt(dim)
    whole = [quantum_value(ineq, CFG), optimize_measurements(ineq, psi, CFG)]
    assert [_report_fields(r) for r in whole] == [
        _report_fields(r) for r in (quantum_value(ineq, CFG), optimize_measurements(ineq, psi, CFG))
    ]
    k_entries = dim**2 * math.prod(ineq.settings)
    assert optimize.SEESAW_BUDGET >= CFG.restarts * k_entries
    monkeypatch.setattr(optimize, "SEESAW_BUDGET", 3 * k_entries + 1)
    thirds = [quantum_value(ineq, CFG), optimize_measurements(ineq, psi, CFG)]
    assert [_report_fields(r) for r in thirds] == [_report_fields(r) for r in whole]


def test_seed_changes_restart_stream():
    ineq = catalog_tilted_chsh(0.4)
    r1 = quantum_value(ineq, OptimizerConfig(restarts=4, seed=1))
    r2 = quantum_value(ineq, OptimizerConfig(restarts=4, seed=2))
    assert r1.restart_values != r2.restart_values


def test_state_dimension_guard():
    with pytest.raises(ValueError):
        optimize_measurements(catalog_tilted_chsh(0.0), np.ones(3) / np.sqrt(3), CFG)
    # Same total dimension, registers in the other order.
    ineq = BellInequality((2, 3), (2, 2), np.ones((2, 3, 2, 2)))
    swapped = GraphState(dims=(3, 2), amplitudes=np.ones(6) / np.sqrt(6))
    with pytest.raises(ValueError, match="register dims"):
        optimize_measurements(ineq, swapped, CFG)
    # NaN compares false with every tolerance, so it must not pass the norm check.
    with pytest.raises(ValueError, match="normalized"):
        optimize_measurements(catalog_tilted_chsh(0.7), np.array([np.nan, 0, 0, 0]), CFG)


@pytest.fixture
def one_sweep(monkeypatch):
    """Stop every restart after one sweep, before any can converge."""
    monkeypatch.setattr(optimize, "MAX_SWEEPS", 1)
    monkeypatch.setattr(optimize, "STOP_TOL", 1e-15)


def test_non_convergence_is_flagged_but_returns_value(one_sweep):
    rep = quantum_value(catalog_cglmp(3), OptimizerConfig(restarts=2, seed=13))
    assert not rep.converged
    assert np.isfinite(rep.value)
    assert rep.iterations == 1


def test_every_restart_reports_its_sweeps_and_convergence(one_sweep):
    tight = OptimizerConfig(restarts=5, seed=13)
    ineq = catalog_cglmp(3)
    entangled = np.eye(3).reshape(-1) / np.sqrt(3)
    for rep in (quantum_value(ineq, tight), optimize_measurements(ineq, entangled, tight)):
        assert rep.restart_iterations == (1,) * 5
        assert rep.restart_converged == (False,) * 5
    # Every restart of a product state starts at the best deterministic
    # strategy, so its only sweep ends at the local bound.
    rep = optimize_measurements(ineq, np.eye(9)[0], tight)
    assert rep.restart_iterations == (1,) * 5
    assert all(abs(v - local_bound(ineq)) <= 1e-12 for v in rep.restart_values)


@pytest.mark.parametrize(
    "run", [quantum_value, stabilizer_value], ids=["quantum", "stabilizer"]
)
def test_best_restart_telemetry_matches_the_report(run):
    rep = run(catalog_cglmp(3), CFG)
    best = int(np.argmax(rep.restart_values))
    assert len(rep.restart_iterations) == len(rep.restart_converged) == CFG.restarts
    assert rep.restart_iterations[best] == rep.iterations
    assert rep.restart_converged[best] == rep.converged
    assert all(1 <= it <= optimize.MAX_SWEEPS for it in rep.restart_iterations)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        OptimizerConfig(seed=-1)


def test_restart_limit():
    assert OptimizerConfig(restarts=optimize.MAX_RESTARTS).restarts == optimize.MAX_RESTARTS
    with pytest.raises(ResourceLimitError, match="^1025 see-saw restarts exceed the limit 1024$"):
        OptimizerConfig(restarts=optimize.MAX_RESTARTS + 1)


def test_gap_scan_rows():
    cfg = OptimizerConfig(restarts=8, seed=5)
    rows = gap_scan(catalog_tilted_chsh, [0.0, 1.0, 2.0], cfg)
    assert [r.param for r in rows] == [0.0, 1.0, 2.0]
    assert rows[0].gap == pytest.approx(0.0, abs=1e-6)
    # closed forms: sqrt(8 + 2 alpha^2) - max(2 sqrt(2), 2 + alpha)
    assert rows[1].gap == pytest.approx(np.sqrt(10) - 3.0, abs=1e-5)
    assert rows[2].gap == pytest.approx(0.0, abs=1e-6)
    assert rows[0].local == 2.0 and rows[2].local == 4.0
    quantum = [r.quantum for r in rows]
    assert quantum == sorted(quantum)


def _grid_reports(monkeypatch):
    """Collect the report of every grid point that `w_heatmap` consumes from here on."""
    reports = []
    real = optimize._best_of_restarts

    def kept(*args):
        for rep in real(*args):
            reports.append(rep)
            yield rep

    monkeypatch.setattr(optimize, "_best_of_restarts", kept)
    return reports


def test_state_k_draws_from_child_k_of_the_seed(monkeypatch):
    # Grid point k and class k run optimize_measurements on child k of
    # SeedSequence(cfg.seed), bit for bit.  The grid holds product points
    # (theta = 0, and (pi/2, 0)) beside entangled ones, and batches of 3 rows
    # split every point's 4 restarts, so batches mix states of both kinds.
    ineq = catalog_svetlichny_r2()
    cfg = OptimizerConfig(restarts=4, seed=3)

    def by_child(fixed_states):
        children = np.random.SeedSequence(cfg.seed).spawn(len(fixed_states))
        return [
            optimize_measurements(ineq, state, cfg, _seed_seq=child)
            for state, child in zip(fixed_states, children)
        ]

    def fields(rep):
        return rep.value, rep.restart_values, rep.restart_iterations, rep.trace

    thetas, phis = [0.0, 1.1, np.pi / 2], [0.0, 0.9, 2.0]
    points = [w_state(t, p) for t in thetas for p in phis]
    expected = by_child(points)
    assert sum(_product_factors(p.reshape(1, 2, 2, 2)) is not None for p in points) == 4
    reports = _grid_reports(monkeypatch)
    monkeypatch.setattr(optimize, "SEESAW_BUDGET", 3 * 8**2 * 2**3)
    heat = w_heatmap(thetas, phis, cfg)
    assert heat.shape == (3, 3)
    assert heat.reshape(-1).tolist() == [rep.value for rep in expected]
    assert [fields(rep) for rep in reports] == [fields(rep) for rep in expected]

    family = cluster_representatives(ineq.outcomes)
    classes = list(family.assignments())
    values = [rep.value for rep in by_child([assemble_cluster_state(family, a) for a in classes])]
    rep = stabilizer_value(ineq, cfg)
    assert list(rep.class_values) == values
    # The first class within 1e-12 of the best wins (the unit is 1 here).
    best = next(k for k, v in enumerate(values) if v >= max(values) - 1e-12)
    assert rep.value == values[best]
    assert by_value(rep.best_class) == by_value(classes[best])


def test_batches_stay_within_the_budget(monkeypatch):
    # Every _restarts call gets at most SEESAW_BUDGET // entries rows, and
    # the values equal those of the default budget, which runs all 30 rows
    # as one batch.
    ineq = catalog_svetlichny_r2()
    cfg = OptimizerConfig(restarts=5, seed=1)
    thetas, phis = [0.0, 0.7, 1.9], [0.4, np.pi / 2]
    whole = w_heatmap(thetas, phis, cfg)
    sizes = []
    real = optimize._restarts
    monkeypatch.setattr(optimize, "_restarts", lambda *a: sizes.append(len(a[4])) or real(*a))
    entries = 8**2 * 2**3
    monkeypatch.setattr(optimize, "SEESAW_BUDGET", 7 * entries + entries // 2)
    assert np.array_equal(w_heatmap(thetas, phis, cfg), whole)
    assert sizes == [7, 7, 7, 7, 2]
    # Below one row's entries, every row runs alone.
    sizes.clear()
    monkeypatch.setattr(optimize, "SEESAW_BUDGET", entries - 1)
    assert np.array_equal(w_heatmap(thetas, phis, cfg), whole)
    assert sizes == [1] * 30


def test_product_detection_and_plan_run_once_per_state_and_call(monkeypatch):
    # A 3x3 grid with 5 product points: one purity check per point, and the
    # plan of the deterministic strategies once for the whole call.
    calls = {"_product_factors": 0, "_local_optimum": 0}
    for module, name in ((optimize.states, "_product_factors"), (optimize.bell, "_local_optimum")):
        real = getattr(module, name)

        def counted(*a, real=real, name=name):
            calls[name] += 1
            return real(*a)

        monkeypatch.setattr(module, name, counted)
    w_heatmap([0.0, 0.9, np.pi / 2], [0.0, 0.6, np.pi / 2], OptimizerConfig(restarts=8, seed=2))
    assert calls == {"_product_factors": 9, "_local_optimum": 1}


def test_gap_scan_row_reuses_the_seed_at_every_point():
    cfg = OptimizerConfig(restarts=4, seed=3)
    rows = gap_scan(catalog_tilted_chsh, [0.6, 1.4], cfg)
    for row, alpha in zip(rows, [0.6, 1.4]):
        ineq = catalog_tilted_chsh(alpha)
        stab, quant = stabilizer_value(ineq, cfg).value, quantum_value(ineq, cfg).value
        assert (row.local, row.stabilizer, row.quantum, row.gap) == (
            local_bound(ineq), stab, quant, quant - stab
        )


def _svetlichny_only():
    import itertools

    from magicwit.bell import BellInequality

    c = np.zeros((2, 2, 2, 2, 2, 2))
    sign = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0}
    for xs in itertools.product(range(2), repeat=3):
        for outs in itertools.product(range(2), repeat=3):
            c[outs + xs] += sign[sum(xs)] * (-1.0) ** sum(outs)
    return BellInequality((2, 2, 2), (2, 2, 2), c, name="svetlichny-only")


def _exchange_terms_only():
    import itertools

    from magicwit.bell import BellInequality

    c = np.zeros((2, 2, 2, 2, 2, 2))
    for p, q in ((0, 1), (0, 2), (1, 2)):
        r = 3 - p - q
        for i in (0, 1):
            for xr in (0, 1):
                xs = [0, 0, 0]
                xs[p], xs[q], xs[r] = i, i ^ 1, xr
                for outs in itertools.product(range(2), repeat=3):
                    c[outs + tuple(xs)] += 0.5 * (-1.0) ** (outs[p] + outs[q])
    return BellInequality((2, 2, 2), (2, 2, 2), c, name="exchange-only")


def test_biseparable_caps_for_witness_parts():
    # On a maximally entangled pair next to a free qubit the two pieces of
    # the three-party witness cap separately: the exchange part at 2 (the
    # pair's reductions are maximally mixed) and the Svetlichny part at 4.
    pair_with_spectator = np.zeros(8, dtype=complex)
    pair_with_spectator[0] = pair_with_spectator[6] = 1 / np.sqrt(2)  # (|000>+|110>)/sqrt(2)
    both = _svetlichny_only(), _exchange_terms_only()
    svet = optimize_measurements(both[0], pair_with_spectator, CFG)
    exch = optimize_measurements(both[1], pair_with_spectator, CFG)
    assert svet.value <= 4.0 + 1e-6
    assert exch.value <= 2.0 + 1e-6
    # the sum of the two tensors is the shipped witness
    total = both[0].coeffs + both[1].coeffs
    assert np.allclose(total, catalog_svetlichny_r2().coeffs)


def test_w_state_vector():
    theta = np.arccos(1 / np.sqrt(3))
    psi = w_state(theta, np.pi / 4)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert psi[1] == pytest.approx(1 / np.sqrt(3))
    assert psi[2] == pytest.approx(1 / np.sqrt(3))
    assert psi[4] == pytest.approx(1 / np.sqrt(3))


def test_w_heatmap_grid_and_peak():
    cfg = OptimizerConfig(restarts=12, seed=9)
    thetas = [0.0, np.arccos(1 / np.sqrt(3))]
    phis = [0.0, np.pi / 4, np.pi / 2]
    heat = w_heatmap(thetas, phis, cfg)
    assert heat.shape == (2, 3)
    assert np.all(heat[0, :] <= 6.0 + 1e-6)
    assert heat[1, 1] == pytest.approx(7.26, abs=0.02)


def test_w_heatmap_range_guard():
    with pytest.raises(ValueError):
        w_heatmap([0.0, 4.0], [0.0, 1.0], CFG)
