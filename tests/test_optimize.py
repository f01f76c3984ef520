import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicwit import optimize
from magicwit.bell import (
    BellInequality,
    behavior_from_state,
    catalog_cglmp,
    catalog_svetlichny_r2,
    catalog_tilted_chsh,
    evaluate,
    local_bound,
)
from magicwit.errors import InvariantError
from magicwit.graphs import AdjacencyMatrix
from magicwit.optimize import (
    OptimizerConfig,
    gap_scan,
    optimize_measurements,
    quantum_value,
    stabilizer_value,
    w_heatmap,
    w_state,
)
from magicwit.states import build_graph_state

CFG = OptimizerConfig(restarts=16, seed=7)


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
    rep = quantum_value(catalog_cglmp(3), CFG)
    assert rep.value == pytest.approx(2.9149, abs=1e-3)


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


@pytest.mark.parametrize("outcomes", [(3, 3), (2, 3), (2, 2, 2), (2, 2)])
def test_bell_operator_matches_born_rule(outcomes):
    # <psi|B|psi> is the Bell value of the Born-rule behavior, and B is the
    # sum over setting tuples of Kronecker products; on the mixed (2, 3)
    # register this also pins the order of the Kronecker factors.
    rng = np.random.default_rng(sum(outcomes))
    settings = (2, 3, 2)[: len(outcomes)]
    ineq = BellInequality(outcomes, settings, rng.uniform(-1.0, 1.0, outcomes + settings))
    dim = int(np.prod(outcomes))
    for _ in range(5):
        bases = [[_haar_unitary(rng, d) for _ in range(m)] for d, m in zip(outcomes, settings)]
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        op = optimize._bell_operator(bases, ineq.coeffs)
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12
        assert np.max(np.abs(op - _bell_operator_by_kron(bases, ineq.coeffs))) <= 1e-12
        want = evaluate(ineq, behavior_from_state(psi, bases))
        assert abs(np.vdot(psi, op @ psi) - want) <= 1e-12


def _score(b, u):
    """sum_a Re <u_a|b[a]|u_a>, one column at a time."""
    return sum(np.real(u[:, a].conj() @ b[a] @ u[:, a]) for a in range(u.shape[1]))


@pytest.mark.parametrize("outcomes", [(2, 2), (3, 3), (2, 3), (2, 2, 2)])
def test_environment_gives_objective_change(outcomes):
    # The objective is affine in each basis: replacing bases[i][s] by V moves
    # it by the change in sum_a <v_a|B_a|v_a> over that setting's environment.
    # The objective and the contraction stacks also match a loop over setting tuples.
    rng = np.random.default_rng(10 * len(outcomes) + sum(outcomes))
    settings = (2, 3, 2)[: len(outcomes)]
    coeffs = rng.uniform(-1.0, 1.0, outcomes + settings)
    dim = int(np.prod(outcomes))
    for _ in range(3):
        bases = [[_haar_unitary(rng, d) for _ in range(m)] for d, m in zip(outcomes, settings)]
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi_t = (psi / np.linalg.norm(psi)).reshape(outcomes)
        before = optimize._objective(psi_t, bases, coeffs)
        assert abs(before - _objective_by_setting_loop(psi_t, bases, coeffs)) <= 1e-12
        for i, d in enumerate(outcomes):
            c = optimize._contractions(psi_t, bases, i)
            want = _contractions_by_setting_loop(psi_t, bases, i)
            assert c.shape == want.shape and np.max(np.abs(c - want)) <= 1e-12
            for s in range(settings[i]):
                b = optimize._environments(c, coeffs, i, s)
                v = _haar_unitary(rng, d)
                moved = [list(per) for per in bases]
                moved[i][s] = v
                change = optimize._objective(psi_t, moved, coeffs) - before
                assert abs(change - (_score(b, v) - _score(b, bases[i][s]))) <= 1e-12


def _skew_environments(monkeypatch):
    # A small Hermitian offset on outcome 0: steps are valued off the objective.
    real = optimize._environments

    def skewed(c, coeffs, party, setting):
        b = real(c, coeffs, party, setting)
        b[0, -1, -1] += 1e-3
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
def test_objective_calls_per_restart(monkeypatch, ineq, free_state):
    # One full Born-rule contraction to start, then one per state step with a
    # free state or one to close with a fixed state, however many parties and
    # settings a sweep visits.
    calls = []
    real = optimize._objective
    monkeypatch.setattr(optimize, "_objective", lambda *a: calls.append(1) or real(*a))
    dim = int(np.prod(ineq.outcomes))
    psi = None if free_state else np.ones(dim, dtype=complex) / np.sqrt(dim)
    args = (ineq.coeffs, ineq.outcomes, ineq.settings, psi, 500, 1e-9, np.random.SeedSequence(3))
    iters = optimize._restart_task(args)[3]
    assert iters > 1
    assert len(calls) == (1 + iters if free_state else 2)


@settings(max_examples=50, deadline=None)
@given(d=st.sampled_from([3, 5, 7]), seed=st.integers(0, 2**32 - 1))
def test_basis_update_is_unitary_monotone_and_best_relabeled(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    bh = z + z.conj().transpose(0, 2, 1)
    v = _haar_unitary(rng, d)
    new = optimize._basis_update(bh, v)
    assert np.max(np.abs(new.conj().T @ new - np.eye(d))) <= 1e-10
    assert _score(bh, new) >= _score(bh, v) - 1e-9
    # Reference: the looped search, the SVD basis under each cyclic relabeling.
    lam = min(np.linalg.eigvalsh(bh[a]).min() for a in range(d))
    w = np.column_stack([(bh[a] - lam * np.eye(d)) @ v[:, a] for a in range(d)])
    p, _, qh = np.linalg.svd(w)
    svd_basis = p @ qh
    for t in range(d):
        assert _score(bh, new) >= _score(bh, svd_basis[:, (np.arange(d) + t) % d]) - 1e-9


def test_seesaw_decrease_raises_invariant_error():
    with pytest.raises(InvariantError, match="see-saw state step decreased"):
        optimize._ascend([1.0], 0.5, "state step")


def test_bound_sandwich_tilted():
    ineq = catalog_tilted_chsh(0.9)
    loc = local_bound(ineq)
    stab = stabilizer_value(ineq, CFG).value
    quant = quantum_value(ineq, CFG).value
    assert loc <= stab + 1e-6
    assert stab <= quant + 1e-6


def test_reproducibility_and_worker_independence():
    ineq = catalog_tilted_chsh(0.4)
    r1 = quantum_value(ineq, CFG)
    r2 = quantum_value(ineq, CFG)
    assert r1.value == r2.value
    assert r1.restart_values == r2.restart_values
    r3 = quantum_value(ineq, OptimizerConfig(restarts=16, seed=7, jobs=2))
    assert r1.value == r3.value
    assert r1.restart_values == r3.restart_values


def test_worker_pool_is_capped_by_tasks_and_cores(monkeypatch):
    # The fake pool records its size and starts no process.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(optimize, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(optimize.os, "cpu_count", lambda: 4)
    ineq = catalog_tilted_chsh(0.4)
    serial = quantum_value(ineq, OptimizerConfig(restarts=3, seed=7))
    capped = quantum_value(ineq, OptimizerConfig(restarts=3, seed=7, jobs=10**6))
    assert sizes == [3]
    assert capped.restart_values == serial.restart_values
    quantum_value(ineq, OptimizerConfig(restarts=9, seed=7, jobs=10**6))
    assert sizes == [3, 4]
    monkeypatch.setattr(optimize.os, "cpu_count", lambda: None)
    quantum_value(ineq, OptimizerConfig(restarts=3, seed=7, jobs=10**6))
    assert sizes == [3, 4]  # an unknown core count runs serially


def test_seed_changes_restart_stream():
    ineq = catalog_tilted_chsh(0.4)
    r1 = quantum_value(ineq, OptimizerConfig(restarts=4, seed=1))
    r2 = quantum_value(ineq, OptimizerConfig(restarts=4, seed=2))
    assert r1.restart_values != r2.restart_values


def test_state_dimension_guard():
    with pytest.raises(ValueError):
        optimize_measurements(catalog_tilted_chsh(0.0), np.ones(3) / np.sqrt(3), CFG)


def test_non_convergence_is_flagged_but_returns_value():
    tight = OptimizerConfig(restarts=2, max_iters=1, tol=1e-15, seed=13)
    rep = quantum_value(catalog_cglmp(3), tight)
    assert not rep.converged
    assert np.isfinite(rep.value)
    assert rep.iterations == 1


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=0.0)


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
